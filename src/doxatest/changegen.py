"""Syntax-side generators of belief-change functions.

This module builds change functions directly from plausibility orders over
valuations, without going through a frame.  A world is a propositional
assignment over a small atom list; the current belief set K and every
input/result are masks over worlds.  Two constructions are provided:

* update from a family of world-centered preorders: the result for an input
  collects, for each believed world, the closest input-worlds under that
  world's own order;
* revision from a single ranking whose minimal worlds are exactly K: the
  result is the set of minimal input-worlds.

Every table is filled once, when it is built: one pass per order over the
events (`_fill_minima`) gives the most plausible worlds of each event.

``audit_function`` then checks the produced table against the change
postulates by direct set arithmetic on the table, deliberately sharing no
checking code with the frame-side route in :mod:`doxatest.axioms`.  One
check table, ``_TABLE_CHECKS``, gives each postulate its test and how F
runs against E, and one scan reads it for every suite.  When every result
lies inside its event, the pair checks D5, D6, D7 and D9 first try an exact
holds test (``_HOLDS_TESTS``) and scan only when it fails.
``build_canonical_model`` and ``roundtrip_verify`` close the loop: rebuild a
pointed structure from a table and confirm the frame-side machinery classifies
it as expected and reads the same table back off.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from random import Random

from .axioms import AxiomId, Status
from .errors import InputFormatError, UnfaithfulOrderError
from .formulas import ATOM_RE, Atom, Formula, truth_vector
from .frames import (
    Event,
    Frame,
    Model,
    bits,
    mask_of,
    subsets_of,
)
from .limits import ATOM_LIMIT, CUSTOM_ATOM_LIMIT, refuse_beyond
from .properties import FrameClass, check_class


@dataclass(frozen=True)
class WorldContext:
    """A tiny propositional language with one world per assignment.

    World ``w`` is the assignment labelled ``format(w, "0{k}b")``: character i
    of the label is "1" exactly when atom i (in declared order) is true.
    Events are masks over worlds, bit w standing for world w.
    """

    atoms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise InputFormatError("a world context needs at least one atom")
        refuse_beyond(len(self.atoms), ATOM_LIMIT, "atoms in a world context")
        if len(set(self.atoms)) != len(self.atoms):
            raise InputFormatError("duplicate atom in world context")

    @property
    def k(self) -> int:
        return len(self.atoms)

    @property
    def n_worlds(self) -> int:
        return 1 << self.k

    @property
    def full(self) -> Event:
        """The event containing every world."""
        return (1 << self.n_worlds) - 1

    def label(self, w: int) -> str:
        return format(w, f"0{self.k}b")

    def world(self, label: str) -> int:
        if not isinstance(label, str) or len(label) != self.k or set(label) - {"0", "1"}:
            raise InputFormatError(
                f"world label {label!r} is not a {self.k}-character 0/1 string"
            )
        return int(label, 2)

    def labels(self, event: Event) -> list[str]:
        return [self.label(w) for w in bits(event)]

    def assignment(self, w: int) -> dict[str, bool]:
        return {a: bool((w >> (self.k - 1 - i)) & 1) for i, a in enumerate(self.atoms)}

    def atom_worlds(self, i: int) -> Event:
        """Worlds at which atom number i is true."""
        return self.truth_worlds(Atom(self.atoms[i]))

    def truth_worlds(self, formula: Formula) -> Event:
        """Worlds at which the formula is true: its truth vector over the
        atoms, since worlds are numbered in `assignments` order."""
        return truth_vector(formula, self.atoms)


def _fill_minima(below: Sequence[int]) -> list[Event]:
    """The most plausible worlds of every event under one order, indexed by
    the event's mask (entry 0 is 0); ``below[x]`` is the mask of worlds
    strictly more plausible than x.

    One pass in mask order: with x the highest world of E and G = E∖{x},
    min(E) = (min(G) ∖ above(x)) ∪ ({x} if nothing in G is below x), where
    above(x) holds the worlds x is strictly more plausible than.
    """
    n = len(below)
    above = [mask_of(y for y in range(n) if below[y] >> x & 1) for x in range(n)]
    out = [0]
    for x in range(n):
        bit, keep, under = 1 << x, ~above[x], below[x]
        out += [out[g] & keep | (0 if under & g else bit) for g in range(bit)]
    return out


@dataclass(frozen=True)
class TotalPreOrder:
    """A ranking of all worlds; lower rank means more plausible."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))

    @property
    def n_worlds(self) -> int:
        return len(self.ranks)

    def minimum(self) -> Event:
        """The globally most plausible worlds."""
        return self.minima()[-1]

    def minima(self) -> list[Event]:
        """The most plausible worlds of every event, indexed by its mask."""
        ranks = self.ranks
        return _fill_minima([mask_of(y for y, r in enumerate(ranks) if r < rank) for rank in ranks])


def _order_fault(rows: Sequence[int], w: int, n: int) -> str | None:
    """Why ``rows`` is not a preorder on n worlds with w strictly lowest, or
    None when it is one."""
    full = (1 << n) - 1
    if len(rows) != n:
        return f"has {len(rows)} rows, expected {n}"
    for x, above in enumerate(rows):
        if above & ~full:
            return f"relates world {x} to a world out of range"
        if not (above >> x) & 1:
            return f"is not reflexive at world {x}"
        for y in bits(above):
            if rows[y] & ~above:
                return f"is not transitive through {x} <= {y}"
    if rows[w] != full:
        return "does not place its own world below every other"
    for y in range(n):
        if y != w and (rows[y] >> w) & 1:
            return f"allows world {y} to tie its own world"
    return None


@dataclass(frozen=True)
class PreOrderFamily:
    """One plausibility preorder per world, each centered on its own world.

    ``le[w][x]`` is the mask of worlds y with x at least as plausible as y
    from the standpoint of world w.  Orders may be genuinely partial; each
    must be reflexive and transitive and have w as its strict minimum.
    ``_below[w][x]`` is the mask of worlds strictly more plausible than x
    from w's standpoint, the table `minima` fills from.
    """

    le: tuple[tuple[int, ...], ...]
    _below: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        le = tuple(tuple(row) for row in self.le)
        object.__setattr__(self, "le", le)
        below = tuple(
            tuple(
                sum(1 << y for y, above in enumerate(rows) if (above >> x) & 1) & ~rows[x]
                for x in range(len(rows))
            )
            for rows in le
        )
        object.__setattr__(self, "_below", below)

    @property
    def n_worlds(self) -> int:
        return len(self.le)

    def leq(self, w: int, x: int, y: int) -> bool:
        """Whether x is at least as plausible as y from the standpoint of w."""
        return bool((self.le[w][x] >> y) & 1)

    def validate(self) -> None:
        for w, rows in enumerate(self.le):
            fault = _order_fault(rows, w, self.n_worlds)
            if fault is not None:
                raise UnfaithfulOrderError(f"order at world {w} {fault}")

    def is_total_at(self, w: int) -> bool:
        rows = self.le[w]
        return all(
            self.leq(w, x, y) or self.leq(w, y, x)
            for x in range(len(rows))
            for y in range(x + 1, len(rows))
        )

    def minima(self, w: int) -> list[Event]:
        """The most plausible worlds of every event from the standpoint of w,
        indexed by the event's mask."""
        return _fill_minima(self._below[w])

    @classmethod
    def from_rankings(cls, rankings: Sequence[Sequence[int]]) -> "PreOrderFamily":
        """Total orders, one ranking vector per world."""
        return cls.pareto([(ranks, ranks) for ranks in rankings])

    @classmethod
    def pareto(
        cls, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]
    ) -> "PreOrderFamily":
        """Partial orders: x is below y only when both rank vectors agree."""
        n = len(pairs)
        le = []
        for first, second in pairs:
            le.append(
                tuple(
                    sum(
                        1 << y
                        for y in range(n)
                        if first[x] <= first[y] and second[x] <= second[y]
                    )
                    for x in range(n)
                )
            )
        return cls(tuple(le))


class ChangeFunctionTable:
    """The input-to-result table of one belief-change function.

    K and all results are world masks, and ``results[E]`` is the result at
    every nonempty event E (entry 0 is unused).  ``rows[w]``, laid out the
    same way, is believed world w's own contribution, used when rebuilding a
    pointed structure; without ``rows`` (revision and parsed tables) every
    believed world's row is the full result.  A parsed ("custom") table is
    refused beyond `CUSTOM_ATOM_LIMIT` atoms: only order-generated tables,
    which pass every holds test of their suite's audit and their class's
    check, may be larger, since a failing test starts a pair scan.
    """

    def __init__(
        self,
        ctx: WorldContext,
        k_mask: Event,
        kind: str,
        results: Sequence[Event],
        rows: Mapping[int, Sequence[Event]] | None = None,
    ):
        if kind == "custom":
            refuse_beyond(ctx.k, CUSTOM_ATOM_LIMIT, "atoms in a custom change table")
        if not 0 < k_mask <= ctx.full:
            raise InputFormatError("K must be a nonempty set of worlds")
        if len(results) != ctx.full + 1:
            raise ValueError(f"a table over {ctx.k} atoms needs {ctx.full + 1} results")
        self.ctx = ctx
        self.k_mask = k_mask
        self.kind = kind
        self.results = tuple(results)
        self.rows = dict(rows) if rows is not None else dict.fromkeys(bits(k_mask), self.results)

    def events(self) -> range:
        """Every nonempty event, ascending."""
        return range(1, self.ctx.full + 1)

    def as_dict(self) -> dict[Event, Event]:
        return {event: self.results[event] for event in self.events()}

    def to_obj(self) -> dict:
        return {
            "atoms": list(self.ctx.atoms),
            "K": self.ctx.labels(self.k_mask),
            "entries": [
                {
                    "event": self.ctx.labels(event),
                    "result": self.ctx.labels(self.results[event]),
                }
                for event in self.events()
            ],
        }


def table_from_obj(obj: dict) -> ChangeFunctionTable:
    """Parse a serialised (custom) table; entries must cover every nonempty
    event.  Beyond `CUSTOM_ATOM_LIMIT` atoms it is refused before the
    entries are read."""
    if not isinstance(obj, dict):
        raise InputFormatError("table document must be an object")
    try:
        atoms = obj["atoms"]
        if not isinstance(atoms, list) or not all(
            isinstance(a, str) and ATOM_RE.match(a) for a in atoms
        ):
            raise InputFormatError(f"'atoms' must be a list of atom names, not {atoms!r}")
        ctx = WorldContext(tuple(atoms))
        refuse_beyond(ctx.k, CUSTOM_ATOM_LIMIT, "atoms in a custom change table")
        k_labels = obj["K"]
        entries = obj["entries"]
    except KeyError as exc:
        raise InputFormatError(f"table document is missing field: {exc}") from exc

    def to_mask(labels, what: str) -> Event:
        if not isinstance(labels, list):
            raise InputFormatError(f"{what} must be a list of world labels")
        out = 0
        for label in labels:
            out |= 1 << ctx.world(label)
        return out

    k_mask = to_mask(k_labels, "'K'")
    if not isinstance(entries, list):
        raise InputFormatError("'entries' must be a list of table entries")
    results: list[Event | None] = [0] + [None] * ctx.full
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {"event", "result"} <= set(entry):
            raise InputFormatError(f"table entry {k} needs 'event' and 'result'")
        event = to_mask(entry["event"], f"table entry {k} event")
        result = to_mask(entry["result"], f"table entry {k} result")
        if event == 0:
            raise InputFormatError("table entry has an empty event")
        if results[event] is not None:
            raise InputFormatError(
                f"duplicate table entry for event {{{', '.join(entry['event'])}}}"
            )
        results[event] = result
    missing = results.count(None)
    if missing:
        raise InputFormatError(
            f"table covers {ctx.full - missing} of {ctx.full} nonempty events"
        )
    return ChangeFunctionTable(ctx, k_mask, "custom", results)


def gen_update(ctx: WorldContext, k_mask: Event, family: PreOrderFamily) -> ChangeFunctionTable:
    """Update K by pooling each believed world's closest input-worlds."""
    if family.n_worlds != ctx.n_worlds:
        raise InputFormatError(
            f"order family covers {family.n_worlds} worlds, context has {ctx.n_worlds}"
        )
    family.validate()
    rows = {w: family.minima(w) for w in bits(k_mask)}
    results = [0] * (ctx.full + 1)
    for row in rows.values():
        results = list(map(operator.or_, results, row))
    return ChangeFunctionTable(ctx, k_mask, "update", results, rows)


def gen_revision(ctx: WorldContext, k_mask: Event, order: TotalPreOrder) -> ChangeFunctionTable:
    """Revise K to the most plausible input-worlds of a K-faithful ranking."""
    if order.n_worlds != ctx.n_worlds:
        raise InputFormatError(
            f"ranking covers {order.n_worlds} worlds, context has {ctx.n_worlds}"
        )
    results = order.minima()
    if results[-1] != k_mask:
        raise UnfaithfulOrderError(
            "ranking is not faithful: its minimal worlds are {%s}, K is {%s}"
            % (", ".join(ctx.labels(results[-1])), ", ".join(ctx.labels(k_mask)))
        )
    return ChangeFunctionTable(ctx, k_mask, "revision", results)


# --- postulate audit on the bare table (independent of the frame route) ---

KM_SUITE = (
    AxiomId.D0,
    AxiomId.D1,
    AxiomId.D2,
    AxiomId.D3,
    AxiomId.D4,
    AxiomId.D5,
    AxiomId.D6,
    AxiomId.D7,
)
KM_STRONG_SUITE = (
    AxiomId.D0,
    AxiomId.D1,
    AxiomId.D2,
    AxiomId.D3,
    AxiomId.D4,
    AxiomId.D5,
    AxiomId.D9,
)
AGM_SUITE = (
    AxiomId.R1,
    AxiomId.R2,
    AxiomId.R3,
    AxiomId.R4,
    AxiomId.R5,
    AxiomId.R6,
    AxiomId.R7,
    AxiomId.R8,
)
SUITES = {"KM": KM_SUITE, "KM_STRONG": KM_STRONG_SUITE, "AGM": AGM_SUITE}

# How F runs in a check: not at all (a check on E alone), over F >= E (the
# check is symmetric in E and F, so its first failing pair in ascending
# order has E <= F), or over every event; the last narrows to the subsets
# of E when D1 holds (each result inside its event), since those checks
# then read F only through E∩F, which is a subset of E no later than F in
# ascending order (an empty E∩F passes), so the first failing pair is the
# same.
_NO_F, _F_FROM_E, _F_IN_E = range(3)

# Each check reads K, the result map r and the events E, F (None for _NO_F).
# With D1 holding, D5, D6, D7 and D9 first try the exact holds tests of
# `_HOLDS_TESTS` below, and scan only on a fail.
_TABLE_CHECKS = {
    AxiomId.D1: (_NO_F, lambda k, r, e, f: not r[e] & ~e),
    AxiomId.D2: (_NO_F, lambda k, r, e, f: k & ~e != 0 or r[e] == k),
    AxiomId.R3: (_NO_F, lambda k, r, e, f: not (k & e) & ~r[e]),
    AxiomId.R4: (_NO_F, lambda k, r, e, f: k & e == 0 or not r[e] & ~k),
    AxiomId.D3: (_NO_F, lambda k, r, e, f: r[e] != 0),
    AxiomId.D5: (
        _F_IN_E,
        lambda k, r, e, f: not r[e] & f if e & f == 0 else not (r[e] & f) & ~r[e & f],
    ),
    AxiomId.D6: (
        _F_FROM_E,
        lambda k, r, e, f: r[e] & ~f != 0 or r[f] & ~e != 0 or r[e] == r[f],
    ),
    AxiomId.D7: (_F_FROM_E, lambda k, r, e, f: not r[e | f] & ~(r[e] | r[f])),
    AxiomId.D9: (
        _F_IN_E,
        lambda k, r, e, f: e & f == 0 or r[e] & f == 0 or not r[e & f] & ~(r[e] & f),
    ),
}
# Revision postulates that say what an update postulate says of a table.
_ALIASES = {
    AxiomId.R2: AxiomId.D1,
    AxiomId.R5: AxiomId.D3,
    AxiomId.R7: AxiomId.D5,
    AxiomId.R8: AxiomId.D9,
}
# Results are world sets and the table is keyed by events, so closure and
# syntax-independence hold by representation.
_BY_REPRESENTATION = {AxiomId.D0, AxiomId.R1, AxiomId.D4, AxiomId.R6}
# Postulates that bind only complete belief states: checked when K is a
# singleton, not applicable otherwise.
_SINGLETON_GATED = {AxiomId.D7, AxiomId.D9}
# Exact holds tests for four pair checks, tried only when D1 holds: the
# check holds when its gate check holds and its one-step rule (if any)
# passes at every step; otherwise its scan decides and reports.  A rule
# reads r(E), r(G), G and the bit x of one step G = E∖{x} ≠ ∅.
# * D5: r(E)∖{x} ⊆ r(G).  Any F ⊆ E is reached from E by single removals,
#   and each y ∈ r(E)∩F survives every step.
# * D6: x ∉ r(E) implies r(G) = r(E).  Chaining the steps from E down to
#   any nonempty F with r(E) ⊆ F ⊆ E gives cumulativity, r(F) = r(E).  With
#   D1 that yields reciprocity: if r(E) ⊆ F and r(F) ⊆ E, both results are
#   inside E∩F, so they both equal r(E∩F), or both are empty when E∩F is.
# * D7 (gate D5, no steps): D5 at (E∪F, E) and at (E∪F, F) puts
#   r(E∪F)∩E inside r(E) and r(E∪F)∩F inside r(F), and D1 puts r(E∪F)
#   inside E∪F, so r(E∪F) ⊆ r(E) ∪ r(F).
# * D9 (gate D5): r(E)∩G ≠ ∅ implies r(G) ⊆ r(E)∩G.  With D5 each step
#   down a chain from E to F keeps r(Eᵢ) = r(E)∩Eᵢ while r(E)∩F ≠ ∅, so
#   r(F) = r(E)∩F.  Without D5 the steps are not enough: a 2-atom table can
#   pass every D9 step and still fail D9.
# Each rule is also one instance of its check, so a failing step means the
# check fails too, and the scan finds its first witness.
_HOLDS_TESTS = {
    AxiomId.D5: (None, lambda r_e, r_g, g, x: not r_e & g & ~r_g),
    AxiomId.D6: (None, lambda r_e, r_g, g, x: r_e & x != 0 or r_g == r_e),
    AxiomId.D7: (AxiomId.D5, None),
    AxiomId.D9: (AxiomId.D5, lambda r_e, r_g, g, x: not r_e & g or not r_g & ~(r_e & g)),
}


def _every_step_holds(step, res: Sequence[Event], full: Event) -> bool:
    """Whether a one-step rule holds at every event E and world x ∈ E with
    E∖{x} nonempty; ``res`` holds the result of every event."""
    for e in range(1, full + 1):
        r_e = res[e]
        rest = e
        while rest:
            x = rest & -rest
            rest ^= x
            g = e ^ x
            if g and not step(r_e, res[g], g, x):
                return False
    return True


@dataclass(frozen=True)
class TableWitness:
    """Events on which a table check failed."""

    e: Event
    f: Event | None = None

    def to_obj(self, ctx: WorldContext) -> dict:
        obj = {"E": ctx.labels(self.e)}
        if self.f is not None:
            obj["F"] = ctx.labels(self.f)
        return obj


@dataclass(frozen=True)
class TableVerdict:
    axiom: AxiomId
    status: Status
    witness: TableWitness | None = None

    def to_obj(self, ctx: WorldContext) -> dict:
        obj = {
            "axiom": self.axiom.value,
            "holds": None if self.status is Status.NOT_APPLICABLE else self.status is Status.HOLDS,
            "applicable": self.status is not Status.NOT_APPLICABLE,
        }
        if self.witness is not None:
            obj["witness"] = self.witness.to_obj(ctx)
        return obj


@dataclass(frozen=True)
class AuditReport:
    suite: str
    verdicts: tuple[TableVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.status is not Status.FAILS for v in self.verdicts)

    def failed(self) -> tuple[AxiomId, ...]:
        return tuple(v.axiom for v in self.verdicts if v.status is Status.FAILS)

    def to_obj(self, ctx: WorldContext) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "axioms": [v.to_obj(ctx) for v in self.verdicts],
        }


def audit_function(table: ChangeFunctionTable, suite: str = "KM") -> AuditReport:
    """Check a table against one postulate suite by direct set arithmetic
    over every event.

    This is the syntax-side route: it never consults the frame-side axiom
    checker.  The two postulates that only bind complete belief states (D7,
    D9) are checked when K is a singleton and reported as not applicable
    otherwise.

    When D1 holds, F runs only over the subsets of E for D5/R7 and D9/R8,
    and D5/R7, D6, D7 and D9/R8 first run the holds tests of
    ``_HOLDS_TESTS``: one-step rules in n·2ⁿ steps for n worlds, each
    comparing r(E) with r(E∖{x}).  D5 and D6 need nothing more; D7 and D9
    count only when D5 holds, D7 then holding outright.  A check whose test
    passes holds; otherwise the pair scan decides it, so verdicts and first
    witnesses are those of the scan.
    """
    suite_key = suite.upper().replace("-", "_")
    if suite_key not in SUITES:
        raise ValueError(f"unknown audit suite {suite!r}; expected one of {sorted(SUITES)}")
    k, res, full = table.k_mask, table.results, table.ctx.full
    scope = table.events()
    successful = all(not res[e] & ~e for e in scope)
    seconds = {
        _NO_F: lambda e: (None,),
        _F_FROM_E: lambda e: range(e, full + 1),
        _F_IN_E: subsets_of if successful else lambda e: scope,
    }

    @functools.cache
    def first_failure(check_id: AxiomId) -> tuple[Event, Event | None] | None:
        """The first (E, F) failing a check in ascending order, or None."""
        if successful and check_id in _HOLDS_TESTS:
            gate, step = _HOLDS_TESTS[check_id]
            if (gate is None or first_failure(gate) is None) and (
                step is None or _every_step_holds(step, res, full)
            ):
                return None
        runs, check = _TABLE_CHECKS[check_id]
        for e in scope:
            for f in seconds[runs](e):
                if not check(k, res, e, f):
                    return e, f
        return None

    def decide(axiom: AxiomId) -> TableVerdict:
        if axiom in _BY_REPRESENTATION:
            return TableVerdict(axiom, Status.HOLDS)
        if axiom in _SINGLETON_GATED and k & (k - 1):
            return TableVerdict(axiom, Status.NOT_APPLICABLE)
        witness = first_failure(_ALIASES.get(axiom, axiom))
        if witness is None:
            return TableVerdict(axiom, Status.HOLDS)
        return TableVerdict(axiom, Status.FAILS, TableWitness(*witness))

    return AuditReport(suite_key, tuple(decide(a) for a in SUITES[suite_key]))


# --- back to frames: canonical pointed structure and the roundtrip ---


def build_canonical_model(table: ChangeFunctionTable) -> Model:
    """Rebuild a pointed structure whose conditional supports match the table.

    States are the worlds, every state believes exactly K, and selection rows
    exist only for believed states (rows elsewhere would force choices the
    table does not determine and can break centering).  The valuation reads
    each atom off the world labels, so distinct states never share a profile.
    """
    ctx = table.ctx
    states = tuple("w" + ctx.label(w) for w in range(ctx.n_worlds))
    belief = (table.k_mask,) * ctx.n_worlds
    selection = {
        (w, event): row[event] for w, row in table.rows.items() for event in table.events()
    }
    valuation = {atom: ctx.atom_worlds(i) for i, atom in enumerate(ctx.atoms)}
    return Model(Frame(states, belief, selection), valuation)


def extract_table(model: Model) -> dict[Event, Event]:
    """Read the change function back off a structure with uniform belief."""
    frame = model.frame
    b = frame.belief[0]
    # a missing row (-1) raises through `Frame.sup`, at the first such event
    return {e: frame.sup(b, e) if r < 0 else r for e, r in enumerate(frame.sup_table(b)) if e}


EXPECTED_SUITE = {
    FrameClass.UPDATE: "KM",
    FrameClass.STRONG_UPDATE: "KM_STRONG",
    FrameClass.REVISION_DEF12: "AGM",
    FrameClass.REVISION_STRICT: "AGM",
}


@dataclass(frozen=True)
class RoundtripReport:
    """Outcome of the three-leg comparison between a table and its structure."""

    frame_class: FrameClass
    frame_valid: bool
    class_holds: bool
    failed_properties: tuple
    mismatched_events: tuple[Event, ...]
    events_checked: int

    @property
    def ok(self) -> bool:
        return self.frame_valid and self.class_holds and not self.mismatched_events

    def to_obj(self, ctx: WorldContext) -> dict:
        return {
            "class": self.frame_class.value,
            "ok": self.ok,
            "frameValid": self.frame_valid,
            "classHolds": self.class_holds,
            "failedProperties": [p.value for p in self.failed_properties],
            "mismatchedEvents": [ctx.labels(e) for e in self.mismatched_events],
            "eventsChecked": self.events_checked,
        }


def roundtrip_verify(table: ChangeFunctionTable, frame_class: FrameClass) -> RoundtripReport:
    """Rebuild a structure from the table and verify three things.

    1. the structure is well formed;
    2. its frame falls in the expected class;
    3. reading conditional supports back off the structure reproduces the
       table on every nonempty event.

    The canonical frame has one state per world, so its class check runs at
    ``max_states`` = the number of worlds: up to 16, by `ATOM_LIMIT`.
    """
    model = build_canonical_model(table)
    report = check_class(model.frame, frame_class, max_states=table.ctx.n_worlds)
    # every class recipe starts with BASE, which is `validate_frame`
    frame_valid = report.verdicts[0].holds
    extracted = extract_table(model)
    scope = table.events()
    mismatched = tuple(e for e in scope if extracted[e] != table.results[e])
    failed = tuple(v.property for v in report.verdicts if not v.holds)
    return RoundtripReport(
        frame_class, frame_valid, report.holds, failed, mismatched, len(scope)
    )


# --- random generators and brute-force order spaces ---


def random_k(rng: Random, ctx: WorldContext) -> Event:
    return rng.randrange(1, ctx.full + 1)


def random_total_order(rng: Random, ctx: WorldContext, k_mask: Event) -> TotalPreOrder:
    """A K-faithful ranking: K at rank zero, everything else strictly above."""
    n = ctx.n_worlds
    ranks = [
        0 if (k_mask >> w) & 1 else rng.randrange(1, n + 1) for w in range(n)
    ]
    return TotalPreOrder(tuple(ranks))


def random_family(rng: Random, ctx: WorldContext, total: bool = False) -> PreOrderFamily:
    """A world-centered order family; partial orders come from rank pairs."""
    n = ctx.n_worlds

    def vector(w: int) -> list[int]:
        return [0 if x == w else rng.randrange(1, n + 1) for x in range(n)]

    if total:
        return PreOrderFamily.from_rankings([vector(w) for w in range(n)])
    return PreOrderFamily.pareto([(vector(w), vector(w)) for w in range(n)])


def random_update_table(
    rng: Random, ctx: WorldContext, total: bool = False
) -> ChangeFunctionTable:
    return gen_update(ctx, random_k(rng, ctx), random_family(rng, ctx, total=total))


def random_revision_table(rng: Random, ctx: WorldContext) -> ChangeFunctionTable:
    k_mask = random_k(rng, ctx)
    return gen_revision(ctx, k_mask, random_total_order(rng, ctx, k_mask))


def _valid_single_orders(n_worlds: int, w: int) -> list[tuple[int, ...]]:
    """All reflexive transitive orders on a tiny world set with w strictly lowest."""
    candidates = itertools.product(range(1 << n_worlds), repeat=n_worlds)
    return [rows for rows in candidates if _order_fault(rows, w, n_worlds) is None]


def _all_centered_families(n_worlds: int) -> list[PreOrderFamily]:
    """Every valid order family on very small world sets, by brute force."""
    per_world = [_valid_single_orders(n_worlds, w) for w in range(n_worlds)]
    return [PreOrderFamily(tuple(combo)) for combo in itertools.product(*per_world)]


def _all_order_types(n_worlds: int) -> list[TotalPreOrder]:
    """Every ranking shape on a small world set (ranks are order types)."""
    out = []
    for ranks in itertools.product(range(n_worlds), repeat=n_worlds):
        if min(ranks) != 0:
            continue
        levels = tuple(sorted(set(ranks)))
        if levels != tuple(range(len(levels))):
            continue
        out.append(TotalPreOrder(ranks))
    return out

