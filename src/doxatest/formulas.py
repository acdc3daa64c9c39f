"""Propositional language over named atoms.

Formulas are immutable ASTs.  Every semantic question is answered by one
fold, `denote`: it maps a formula to its truth set, given one column per
atom (the set where the atom holds, as an int bitmask) and the universe
mask.  Negation, implication and equivalence complement inside the
universe; conjunction and disjunction are bitwise ``&`` and ``|``.

The same fold serves every universe.  Over a model's states it gives truth
sets (`doxatest.frames.truth_set`); over the assignment space of an atom
list it gives packed truth tables (`truth_vector`), from which tautology,
contradiction and finite-premise consequence are read off exactly
(`classify`, `cn_member`); over a single assignment it is evaluation
(`eval_formula`).  Truth tables are guarded by an atom limit, and the
parser by a nesting limit.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MissingAtomError, ParseError
from .limits import DEFAULT_ATOM_LIMIT, NESTING_LIMIT, refuse_beyond

# an atom name; the constants' words ``true`` and ``false`` are not atoms
ATOM_RE = re.compile(r"(?!true\Z|false\Z)[a-z][a-zA-Z0-9_]*\Z")


class Formula:
    """Base class for formula nodes.  ``~``, ``&``, ``|`` and ``>>`` build
    negation, conjunction, disjunction and implication."""

    __slots__ = ()

    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True)
class FalseConst(Formula):
    pass


TRUE = TrueConst()
FALSE = FalseConst()


class Classification(str, Enum):
    TAUTOLOGY = "tautology"
    CONTRADICTION = "contradiction"
    CONTINGENT = "contingent"


def atoms(formula: Formula) -> frozenset[str]:
    """The set of atom names occurring in the formula."""
    if isinstance(formula, Atom):
        return frozenset((formula.name,))
    if isinstance(formula, Not):
        return atoms(formula.child)
    if isinstance(formula, (And, Or, Implies, Iff)):
        return atoms(formula.left) | atoms(formula.right)
    return frozenset()


def denote(formula: Formula, columns: Mapping[str, int], full: int) -> int:
    """The truth set of the formula as a bitmask inside ``full``.

    An atom denotes its column, ``columns[name]``; an atom without a column
    raises the mapping's KeyError, which callers translate into their own
    error.  The connectives act bitwise inside the universe mask.
    """
    if isinstance(formula, Atom):
        return columns[formula.name]
    if isinstance(formula, Not):
        return full & ~denote(formula.child, columns, full)
    if isinstance(formula, And):
        return denote(formula.left, columns, full) & denote(formula.right, columns, full)
    if isinstance(formula, Or):
        return denote(formula.left, columns, full) | denote(formula.right, columns, full)
    if isinstance(formula, Implies):
        return (full & ~denote(formula.left, columns, full)) | denote(
            formula.right, columns, full
        )
    if isinstance(formula, Iff):
        return full & ~(denote(formula.left, columns, full) ^ denote(formula.right, columns, full))
    if isinstance(formula, TrueConst):
        return full
    if isinstance(formula, FalseConst):
        return 0
    raise TypeError(f"not a formula: {formula!r}")


def _denote_covered(formula: Formula, columns: Mapping[str, int], full: int) -> int:
    try:
        return denote(formula, columns, full)
    except KeyError as exc:
        raise MissingAtomError(f"assignment does not cover atom {exc.args[0]!r}") from None


def eval_formula(formula: Formula, assignment: Mapping[str, bool]) -> bool:
    """Evaluate under a total truth assignment: the one-state universe."""
    columns = {name: 1 if value else 0 for name, value in assignment.items()}
    return _denote_covered(formula, columns, 1) == 1


def assignments(names: Sequence[str]) -> Iterator[dict[str, bool]]:
    """All truth assignments over ``names``, in binary counting order with the
    first name as the most significant bit."""
    n = len(names)
    for word in range(1 << n):
        yield {name: bool((word >> (n - 1 - i)) & 1) for i, name in enumerate(names)}


def _assignment_space(names: Sequence[str]) -> tuple[dict[str, int], int]:
    """Atom columns over the assignments of ``names`` (bit w is assignment w
    in `assignments` order), and the mask of all assignments."""
    n = len(names)
    size = 1 << n
    columns = {}
    for i, name in enumerate(names):
        width = 1 << (n - 1 - i)
        # one period: ``width`` assignments with the atom false, then true
        column, period = ((1 << width) - 1) << width, 2 * width
        while period < size:
            column |= column << period
            period *= 2
        columns[name] = column
    return columns, (1 << size) - 1


def truth_vector(formula: Formula, names: Sequence[str]) -> int:
    """Truth table of the formula over ``names`` packed into an int, one bit
    per assignment in `assignments` order."""
    return _denote_covered(formula, *_assignment_space(names))


def classify(formula: Formula, atom_limit: int = DEFAULT_ATOM_LIMIT) -> Classification:
    """Decide tautology / contradiction / contingent by truth table."""
    names = sorted(atoms(formula))
    refuse_beyond(len(names), atom_limit, "atoms in a truth table")
    columns, full = _assignment_space(names)
    vector = denote(formula, columns, full)
    if vector == full:
        return Classification.TAUTOLOGY
    return Classification.CONTRADICTION if vector == 0 else Classification.CONTINGENT


def is_tautology(formula: Formula, atom_limit: int = DEFAULT_ATOM_LIMIT) -> bool:
    return classify(formula, atom_limit) is Classification.TAUTOLOGY


def cn_member(
    premises: Iterable[Formula],
    conclusion: Formula,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> bool:
    """Classical consequence over finite premise sets, decided semantically:
    no assignment satisfies every premise and falsifies the conclusion.

    Inconsistent premises entail everything; an empty premise set reduces to a
    tautology test on the conclusion.
    """
    premises = list(premises)
    names: set[str] = set(atoms(conclusion))
    for p in premises:
        names |= atoms(p)
    ordered = sorted(names)
    refuse_beyond(len(ordered), atom_limit, "atoms in a truth table")
    columns, full = _assignment_space(ordered)
    satisfied = full
    for p in premises:
        satisfied &= denote(p, columns, full)
    return satisfied & ~denote(conclusion, columns, full) == 0


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<iff><->)"
    r"|(?P<imp>->)"
    r"|(?P<not>!)"
    r"|(?P<and>&)"
    r"|(?P<or>\|)"
    r"|(?P<lp>\()"
    r"|(?P<rp>\))"
    r"|(?P<word>[a-z][a-zA-Z0-9_]*)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], text: str):
        self.tokens = tokens
        self.text = text
        self.i = 0
        self.depth = 0

    def _peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def _pos(self) -> int:
        return self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)

    def _advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _bounded(self, level: int) -> int:
        # parsing spends several stack frames per level, `denote` and `render`
        # one: deeper text would exhaust the interpreter stack, not fail here
        if level > NESTING_LIMIT:
            raise ParseError(
                f"formula nests '(', '!' and binary operators deeper than "
                f"{NESTING_LIMIT} levels",
                self._pos(),
            )
        return level

    def parse(self) -> Formula:
        f, _ = self._iff()
        if self.i < len(self.tokens):
            raise ParseError(f"unexpected {self.tokens[self.i][1]!r}", self._pos())
        return f

    # each rule returns (formula, level): the nesting of "(", "!" and binary
    # operators inside it, which bounds the tree height `denote` recurses on

    def _fold_left(self, op: str, node: type, operand) -> tuple[Formula, int]:
        left, level = operand()
        while self._peek() == op:
            self._advance()
            right, right_level = operand()
            left, level = node(left, right), self._bounded(max(level, right_level) + 1)
        return left, level

    def _iff(self) -> tuple[Formula, int]:
        return self._fold_left("iff", Iff, self._imp)

    def _imp(self) -> tuple[Formula, int]:
        # right-associative, folded iteratively so long chains cannot
        # exhaust the stack before the level bound refuses them
        operands = [self._or()]
        while self._peek() == "imp":
            self._advance()
            operands.append(self._or())
        right, level = operands.pop()
        while operands:
            left, left_level = operands.pop()
            right, level = Implies(left, right), self._bounded(max(left_level, level) + 1)
        return right, level

    def _or(self) -> tuple[Formula, int]:
        return self._fold_left("or", Or, self._and)

    def _and(self) -> tuple[Formula, int]:
        return self._fold_left("and", And, self._unary)

    def _unary(self) -> tuple[Formula, int]:
        kind = self._peek()
        if kind in ("not", "lp"):
            # refuse on the way down too: the recursion below is per level
            self.depth = self._bounded(self.depth + 1)
            self._advance()
            if kind == "not":
                f, level = self._unary()
                f = Not(f)
            else:
                f, level = self._iff()
                if self._peek() != "rp":
                    raise ParseError("expected ')'", self._pos())
                self._advance()
            self.depth -= 1
            return f, self._bounded(level + 1)
        if kind == "word":
            _, word, _ = self._advance()
            if word == "true":
                return TRUE, 0
            if word == "false":
                return FALSE, 0
            return Atom(word), 0
        raise ParseError("expected a formula", self._pos())


def parse_formula(text: str) -> Formula:
    """Parse formula text.

    Precedence, loosest first: ``<->``, ``->``, ``|``, ``&``, ``!``;
    implication associates to the right, ``<->``/``|``/``&`` fold to the
    left; whitespace is insignificant; ``true``/``false`` are reserved.
    Nesting ``(``, ``!`` and binary operators (a chain of n operands counts
    n - 1 levels) deeper than `NESTING_LIMIT` is a ParseError.
    """
    return _Parser(_tokenize(text), text).parse()


_LEVEL = {Iff: 1, Implies: 2, Or: 3, And: 4}
_OP = {Iff: "<->", Implies: "->", Or: "|", And: "&"}


def render(formula: Formula) -> str:
    """Render with minimal parentheses; ``parse_formula(render(f)) == f``."""
    return _render(formula, 0)


def _render(formula: Formula, min_level: int) -> str:
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, TrueConst):
        return "true"
    if isinstance(formula, FalseConst):
        return "false"
    if isinstance(formula, Not):
        return "!" + _render(formula.child, 5)
    level = _LEVEL[type(formula)]
    if isinstance(formula, Implies):
        left, right = _render(formula.left, level + 1), _render(formula.right, level)
    else:
        left, right = _render(formula.left, level), _render(formula.right, level + 1)
    text = f"{left} {_OP[type(formula)]} {right}"
    return f"({text})" if level < min_level else text


# ---------------------------------------------------------------------------
# formula pools for exhaustive sweeps
# ---------------------------------------------------------------------------

def semantic_pool(
    atom_names: Sequence[str], depth: int = 3, per_class: int = 1
) -> list[Formula]:
    """Representatives of every Boolean function over ``atom_names`` reachable
    by connective nesting up to ``depth``, at most ``per_class`` syntactic
    variants per semantic class.  Enumeration order is deterministic, so the
    pool can serve as a frozen quantification domain in tests.
    """
    names = sorted(atom_names)
    classes: dict[int, list[Formula]] = {}

    def add(f: Formula) -> None:
        v = truth_vector(f, names)
        bucket = classes.setdefault(v, [])
        if len(bucket) < per_class:
            bucket.append(f)

    for f in [TRUE, FALSE, *(Atom(n) for n in names)]:
        add(f)
    for _ in range(depth):
        reps = [bucket[0] for bucket in classes.values()]
        stored = [f for bucket in classes.values() for f in bucket]
        for f in stored:
            add(Not(f))
        for f, g in itertools.product(reps, reps):
            add(And(f, g))
            add(Or(f, g))
            add(Implies(f, g))
            add(Iff(f, g))
    return [f for bucket in classes.values() for f in bucket]

