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

A ranking is its rank vector, one rank per world, lower meaning more
plausible, and `_at_least` alone turns one into the rows of its order.
Orders are built, validated and filled as whole-int bit operations: a
revision ranking is filled from its rows, and each row of an update order is
one vector's row or the AND of two (`_pareto`).  An update order family is
its rows ``le``, one row tuple per world: ``le[w][x]`` is the mask of worlds
y such that x is at least as plausible as y from world w.  Each world's order
is validated by a packed test (`_is_centred_preorder`); only a failing test
walks the rows literally, to name the first fault (`_family_fault`).  Every
table is filled once, when it is built: one packed fill per order
(`_packed_minima`) gives the most plausible worlds of every event in one
int, read out with one `frames.unpack`; an update table ORs its believed
worlds' ints before reading its results out.

``audit_function`` then checks the produced table against the change
postulates by direct set arithmetic on the table, deliberately sharing no
checking code with the frame-side route in :mod:`doxatest.axioms`.  The
audit packs the table into one int, one field per event, with
`frames.pack` in the layout of `frames.grid`: only that event-table format
is shared with the frame route, no check.  A single-event check
(``_EVENT_CHECKS``) is a few big-int operations on it.  When every result
lies inside its event, the pair postulates D5, D6, D7 and D9 first try an
exact holds test (``_HOLDS_TESTS``, a few operations per world).  A pair
check (``_TABLE_CHECKS``) whose test fails, or that has none to run,
is decided by the literal scan over every pair of events (E, F), refused
beyond `SCAN_INSTANCE_LIMIT` pairs.
``build_canonical_model`` and ``roundtrip_verify`` close the loop: rebuild a
pointed structure from a table and confirm the frame-side machinery classifies
it as expected and reads the same table back off.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from random import Random

from .axioms import AxiomId, Status
from .errors import InputFormatError, UnfaithfulOrderError
from .formulas import ATOM_RE, Atom, truth_vector
from .frames import Event, Frame, Model, bits, grid, pack, unpack
from .limits import ATOM_LIMIT, SCAN_INSTANCE_LIMIT, refuse_beyond
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
        for atom in self.atoms:
            if not isinstance(atom, str) or not ATOM_RE.match(atom):
                raise InputFormatError(f"bad atom name {atom!r}")

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

    def labels(self, event: Event) -> list[str]:
        return [self.label(w) for w in bits(event)]

    def atom_worlds(self, i: int) -> Event:
        """Worlds at which atom number i is true: its truth vector over the
        atoms, since world w is the assignment that reads w in binary."""
        return truth_vector(Atom(self.atoms[i]), self.atoms)


@functools.cache  # a few ints per world count, read by every order
def _matrix_layout(n: int) -> tuple[tuple[int, ...], int, int, int]:
    """For an n-world order packed one row per field of n + 1 bits, row x
    from bit x·(n + 1) on: the shift of each row; bit 0 of every field;
    the diagonal, bit x of field x; and the transpose multiplier
    Σ_j 1 << j·n (see `_transpose`)."""
    shifts = tuple(range(0, n * (n + 1), n + 1))
    ones = sum(1 << s for s in shifts)
    diagonal = sum(1 << s + x for x, s in enumerate(shifts))
    return shifts, ones, diagonal, sum(1 << j * n for j in range(n))


def _transpose(rows: Sequence[int]) -> list[int]:
    """The n×n bit matrix ``rows`` transposed: bit y of entry x is bit x of
    ``rows[y]``; bits at n and above are ignored.

    With the rows packed in fields of n + 1 bits (`_matrix_layout`),
    t = p >> x & ones has bit y·(n+1) set exactly when bit x of row y is.
    Times Σ_j 1 << j·n, bit y·(n+1) goes to n·(y+j) + y for each j < n.  A
    position n·m + y with y < n names its (y, j) alone, so no two terms
    meet and nothing carries, and the n bits from n·(n−1) on hold exactly
    the terms with j = n−1−y: bit y there is bit y·(n+1) of t.
    """
    n = len(rows)
    full = (1 << n) - 1
    shifts, ones, _, magic = _matrix_layout(n)
    p = sum(map(operator.lshift, map(full.__and__, rows), shifts))
    return [(p >> x & ones) * magic >> n * (n - 1) & full for x in range(n)]


def _fill_minima(le: Sequence[int]) -> list[Event]:
    """The most plausible worlds of every event under one order, indexed by
    the event's mask (entry 0 is 0); ``le[x]`` is the mask of worlds y with
    x at least as plausible as y.  `_packed_minima` fills them."""
    return unpack(_packed_minima(le), grid(len(le))[0], 1 << len(le))


def _packed_minima(le: Sequence[int]) -> int:
    """The minima of every event under the order with rows ``le``, packed.

    One transposition gives ``ge[x]``, the worlds at least as plausible as
    x; then under(x) = ge[x] ∖ le[x] holds the worlds strictly more
    plausible than x, and above(x) = le[x] ∖ ge[x] the worlds x is strictly
    more plausible than.  With x the highest world of E and G = E∖{x}, a
    world of G is least in E when it is least in G and x is not strictly
    below it, and x is least in E when nothing in G is strictly below x:
    min(E) = (min(G) ∖ above(x)) ∪ ({x} if G ∩ under(x) = ∅).

    The minima live in one int, min(E) in the w-bit field E of
    `frames.grid`'s layout for n worlds, so the fields below 2ˣ are the events G without
    x or any higher world, and the fields from 2ˣ to 2ˣ⁺¹ − 1 are G ∪ {x}
    in the same order.  Each world x doubles the int: its new block is the
    int with above(x) cleared in every field, OR bit x in the fields G with
    G ∩ under(x) = ∅.  Those fields (``fresh``) start as field 0 alone and
    double at each world y < x, copied when y ∉ under(x) and left empty
    when y ∈ under(x), since then every G with y meets under(x).
    """
    n = len(le)
    full = (1 << n) - 1
    w, _, ones, _ = grid(n)
    minima = 0
    for x, ge in enumerate(_transpose(le)):
        under, keep = ge & ~le[x], (ge | ~le[x]) & full
        fresh = 1
        for y in range(x):
            if not under >> y & 1:
                fresh |= fresh << (w << y)
        minima |= (minima & keep * ones | fresh << x) << (w << x)
    return minima


def _at_least(ranks: Sequence[int]) -> tuple[int, ...]:
    """The rows of the order a rank vector makes, lower rank meaning more
    plausible: row x is the mask of worlds whose rank is ``ranks[x]`` or
    higher.  Every world is bucketed once, then the buckets are joined from
    the highest rank down."""
    up: dict[int, int] = {}
    for y, r in enumerate(ranks):
        up[r] = up.get(r, 0) | 1 << y
    acc = 0
    for r in sorted(up, reverse=True):
        up[r] = acc = acc | up[r]
    return tuple(map(up.__getitem__, ranks))


def _is_centred_preorder(rows: Sequence[int], w: int, n: int) -> bool:
    """Whether n rows make a preorder on n worlds with w strictly lowest.

    Range is read row by row; the rest is decided on the rows packed in
    fields of n + 1 bits (`_matrix_layout`).  Reflexivity is the diagonal,
    w's centring is field w full, and the no-tie clause is bit w set in
    field w alone.  Transitivity: (p >> y & ones)·full fills the fields x with
    y ∈ rows[x], so OR-ing those fields AND rows[y] over every y puts
    ∪{rows[y] : y ∈ rows[x]} in field x, and the order is transitive
    exactly when that lies inside rows[x] in every field.
    """
    full = (1 << n) - 1
    if min(rows) < 0 or max(rows) > full:
        return False
    shifts, ones, diag, _ = _matrix_layout(n)
    p = sum(map(operator.lshift, rows, shifts))
    if p & diag != diag or p >> shifts[w] & full != full or p & ones << w != 1 << shifts[w] + w:
        return False
    reach = 0
    for y, row in enumerate(rows):
        reach |= (p >> y & ones) * full & row * ones
    return not reach & ~p


def _order_fault(rows: Sequence[int], w: int, n: int) -> str | None:
    """Why ``rows`` is not a preorder on n worlds with w strictly lowest, or
    None when it is one.  The packed test `_is_centred_preorder` decides;
    only when it fails are the rows walked literally, to name the first
    fault."""
    if len(rows) == n and _is_centred_preorder(rows, w, n):
        return None
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


def _family_fault(le: Sequence[Sequence[int]]) -> str | None:
    """Why the rows ``le`` are not an order family, naming the first world
    whose order is not centred on it (`_order_fault`), or None."""
    for w, rows in enumerate(le):
        if (fault := _order_fault(rows, w, len(le))) is not None:
            return f"order at world {w} {fault}"
    return None


def _pareto(pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> tuple[tuple[int, ...], ...]:
    """Partial orders: x is below y only when both rank vectors of a pair
    agree, so row x is the AND of the two vectors' `_at_least` rows."""
    return tuple(tuple(map(operator.and_, _at_least(a), _at_least(b))) for a, b in pairs)


class ChangeFunctionTable:
    """The input-to-result table of one belief-change function.

    K and all results are world masks, and ``results[E]`` is the result at
    every nonempty event E (entry 0 is unused).  ``rows[w]``, laid out the
    same way, is believed world w's own contribution, used when rebuilding a
    pointed structure; without ``rows`` (revision and hand-built tables)
    every believed world's row is the full result.  A table whose results or
    rows are not full + 1 world sets, or whose rows are not keyed by exactly
    K's worlds, is refused with `ValueError`.
    """

    def __init__(
        self,
        ctx: WorldContext,
        k_mask: Event,
        results: Sequence[Event],
        rows: Mapping[int, Sequence[Event]] | None = None,
    ):
        if not 0 < k_mask <= ctx.full:
            raise InputFormatError("K must be a nonempty set of worlds")
        for sets in (results, *(rows or {}).values()):
            if len(sets) != ctx.full + 1 or not 0 <= min(sets) <= max(sets) <= ctx.full:
                raise ValueError(f"a table over {ctx.k} atoms needs {ctx.full + 1} world sets")
        if rows is not None and set(rows) != set(bits(k_mask)):
            raise ValueError("a table's rows must be keyed by exactly the worlds of K")
        self.ctx = ctx
        self.k_mask = k_mask
        self.results = tuple(results)
        self.rows = dict(rows) if rows is not None else dict.fromkeys(bits(k_mask), self.results)

    def events(self) -> range:
        """Every nonempty event, ascending."""
        return range(1, self.ctx.full + 1)


def gen_update(ctx: WorldContext, k_mask: Event, le: Sequence[Sequence[int]]) -> ChangeFunctionTable:
    """Update K by pooling each believed world's closest input-worlds.  The
    order family is its rows, one row tuple per world: ``le[w][x]`` is the
    mask of worlds y such that x is at least as plausible as y from world w.

    Minima are filled only for the believed worlds, but the whole family is
    validated first: an order that is not centred raises
    `UnfaithfulOrderError` at any world, believed or not."""
    if len(le) != ctx.n_worlds:
        raise InputFormatError(f"order family covers {len(le)} worlds, context has {ctx.n_worlds}")
    if (fault := _family_fault(le)) is not None:
        raise UnfaithfulOrderError(fault)
    w = grid(ctx.n_worlds)[0]
    packed = {x: _packed_minima(le[x]) for x in bits(k_mask)}
    rows = {x: unpack(p, w, ctx.full + 1) for x, p in packed.items()}
    results = unpack(functools.reduce(operator.or_, packed.values()), w, ctx.full + 1)
    return ChangeFunctionTable(ctx, k_mask, results, rows)


def gen_revision(ctx: WorldContext, k_mask: Event, ranks: Sequence[int]) -> ChangeFunctionTable:
    """Revise K to the most plausible input-worlds of a K-faithful ranking,
    one rank per world, lower rank meaning more plausible."""
    if len(ranks) != ctx.n_worlds:
        raise InputFormatError(
            f"ranking covers {len(ranks)} worlds, context has {ctx.n_worlds}"
        )
    results = _fill_minima(_at_least(ranks))
    if results[-1] != k_mask:
        raise UnfaithfulOrderError(
            "ranking is not faithful: its minimal worlds are {%s}, K is {%s}"
            % (", ".join(ctx.labels(results[-1])), ", ".join(ctx.labels(k_mask)))
        )
    return ChangeFunctionTable(ctx, k_mask, results)


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

# Single-event checks, each as the packed mask of its violations at every
# event at once (see `audit_function`): field E of p holds r(E), of ev holds
# E and of kk holds K, and lift(v) fills every nonzero field of v.  The
# lowest nonzero field is the first failing E in ascending order.
_EVENT_CHECKS = {
    AxiomId.D1: lambda p, ev, kk, lift: p & ~ev,
    AxiomId.D2: lambda p, ev, kk, lift: lift(p ^ kk) & ~lift(kk & ~ev),
    AxiomId.R3: lambda p, ev, kk, lift: kk & ev & ~p,
    AxiomId.R4: lambda p, ev, kk, lift: lift(kk & ev) & p & ~kk,
    AxiomId.D3: lambda p, ev, kk, lift: lift(ev) & ~lift(p),
}
# Each pair check reads K, the result map r and the events E, F; with D1
# holding, it scans only when its holds test in `_HOLDS_TESTS` fails.
_TABLE_CHECKS = {
    AxiomId.D5: lambda k, r, e, f: not r[e] & f if e & f == 0 else not (r[e] & f) & ~r[e & f],
    AxiomId.D6: lambda k, r, e, f: r[e] & ~f != 0 or r[f] & ~e != 0 or r[e] == r[f],
    AxiomId.D7: lambda k, r, e, f: not r[e | f] & ~(r[e] | r[f]),
    AxiomId.D9: lambda k, r, e, f: e & f == 0 or r[e] & f == 0 or not r[e & f] & ~(r[e] & f),
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
# maps the steps G = E∖{x} at one world x, at every E ∋ x at once, to the
# packed mask of their violations: p holds r(E) and g holds r(G) in field
# E, at holds {x} and rest the other worlds in each field E ∋ x.
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
# check fails too, and the scan finds its first witness.  A step with
# G = ∅ passes every rule, as D1 leaves r(E) ⊆ {x} and r(∅) is empty.
_HOLDS_TESTS = {
    AxiomId.D5: (None, lambda p, g, at, rest, lift: p & rest & ~g),
    AxiomId.D6: (None, lambda p, g, at, rest, lift: (p ^ g) & lift(at & ~p)),
    AxiomId.D7: (AxiomId.D5, None),
    AxiomId.D9: (AxiomId.D5, lambda p, g, at, rest, lift: g & ~(p & rest) & lift(p & rest)),
}


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

    The whole results are packed into one int p, r(E) in field E
    (`frames.pack`, in the layout of `frames.grid`), and each single-event
    check is a few operations on p.  When D1 holds, D5/R7, D6, D7 and D9/R8
    first run the holds tests of ``_HOLDS_TESTS``:
    one-step rules comparing r(E) with r(E∖{x}) at every E ∋ x at once, a
    few operations per world x.  D5 and D6 need nothing more; D7 and D9
    count only when D5 holds, D7 then holding outright.  A check whose test
    passes holds; otherwise the literal scan over every pair (E, F) decides
    it and reports its first failing pair.  That scan reads full² pairs,
    65,025 at 3 atoms and about 4.3·10⁹ at 4, so beyond
    `SCAN_INSTANCE_LIMIT` pairs it raises `SizeLimitError` before it starts;
    order-generated tables pass every holds test and never reach it.
    """
    suite_key = suite.upper().replace("-", "_")
    if suite_key not in SUITES:
        raise ValueError(f"unknown audit suite {suite!r}; expected one of {sorted(SUITES)}")
    k, res, full = table.k_mask, table.results, table.ctx.full
    n, scope = table.ctx.n_worlds, table.events()
    w, ev, ones, _ = grid(n)
    p = pack(res, w) >> w << w  # r(∅) reads empty, whatever results[0] holds
    low = ones * ((1 << w - 1) - 1)

    def lift(v: int) -> int:
        # (v & low) + low sets the top bit of each field where v has a lower bit set
        return (((v & low) + low | v) >> w - 1 & ones) * full

    def steps_hold(rule) -> bool:
        for x in range(n):
            at = ev & ones << x
            if rule(p, p << (w << x), at, lift(at) ^ at, lift):
                return False
        return True

    @functools.cache
    def first_failure(check_id: AxiomId) -> tuple[Event, Event | None] | None:
        """The first (E, F) failing a check in ascending order, or None."""
        if check_id in _EVENT_CHECKS:
            v = _EVENT_CHECKS[check_id](p, ev, k * ones, lift)
            return (((v & -v).bit_length() - 1) // w, None) if v else None
        if not p & ~ev and check_id in _HOLDS_TESTS:
            gate, rule = _HOLDS_TESTS[check_id]
            if (gate is None or first_failure(gate) is None) and (
                rule is None or steps_hold(rule)
            ):
                return None
        refuse_beyond(full * full, SCAN_INSTANCE_LIMIT, "pairs in a change-table pair scan")
        check = _TABLE_CHECKS[check_id]
        for e in scope:
            for f in scope:
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
    table does not determine and can break centering): a believed world's
    frame row is its table row, with no entry at the empty event, and every
    other world shares one row missing everywhere.  The valuation reads
    each atom off the world labels, so distinct states never share a profile.
    """
    ctx = table.ctx
    states = tuple("w" + ctx.label(w) for w in range(ctx.n_worlds))
    belief = (table.k_mask,) * ctx.n_worlds
    rows = [(-1,) * (ctx.full + 1)] * ctx.n_worlds
    for w, row in table.rows.items():
        rows[w] = (-1, *row[1:])
    valuation = {atom: ctx.atom_worlds(i) for i, atom in enumerate(ctx.atoms)}
    return Model(Frame(states, belief, rows), valuation)


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
    ``max_states`` = the number of worlds: up to 16, by `ATOM_LIMIT`.  A
    property whose holds test fails there is scanned, and a scan beyond
    `SCAN_INSTANCE_LIMIT` instances raises `SizeLimitError` before it
    starts: at 16 states that is every pair scan, while the single-event
    scans of PD2 and PR4 (65,535 events) run.  Order-generated tables pass
    their class's holds tests and reach no pair scan.

    The read-back first compares Sup(K, E) with the table over every event
    as one tuple; only on a difference is each event read through
    `extract_table`, which names the mismatches or raises at a missing row.
    """
    model = build_canonical_model(table)
    report = check_class(model.frame, frame_class, max_states=table.ctx.n_worlds)
    # every class recipe starts with BASE, which is `validate_frame`
    frame_valid = report.verdicts[0].holds
    scope = table.events()
    mismatched = ()
    if tuple(model.frame.sup_table(table.k_mask)[1:]) != table.results[1:]:
        extracted = extract_table(model)
        mismatched = tuple(e for e in scope if extracted[e] != table.results[e])
    failed = tuple(v.property for v in report.verdicts if not v.holds)
    return RoundtripReport(
        frame_class, frame_valid, report.holds, failed, mismatched, len(scope)
    )


# --- random generators ---


def random_k(rng: Random, ctx: WorldContext) -> Event:
    return rng.randrange(1, ctx.full + 1)


def random_total_order(rng: Random, ctx: WorldContext, k_mask: Event) -> tuple[int, ...]:
    """A K-faithful rank vector: K at rank zero, everything else strictly above."""
    n = ctx.n_worlds
    return tuple(0 if (k_mask >> w) & 1 else rng.randrange(1, n + 1) for w in range(n))


def random_family(rng: Random, ctx: WorldContext, total: bool = False) -> tuple[tuple[int, ...], ...]:
    """The rows of a world-centered order family: one rank vector per world
    makes total orders, a pair of them partial orders."""
    n = ctx.n_worlds

    def vector(w: int) -> list[int]:
        return [0 if x == w else rng.randrange(1, n + 1) for x in range(n)]

    if total:
        return tuple(_at_least(vector(w)) for w in range(n))
    return _pareto([(vector(w), vector(w)) for w in range(n)])


def random_update_table(
    rng: Random, ctx: WorldContext, total: bool = False
) -> ChangeFunctionTable:
    return gen_update(ctx, random_k(rng, ctx), random_family(rng, ctx, total=total))


def random_revision_table(rng: Random, ctx: WorldContext) -> ChangeFunctionTable:
    k_mask = random_k(rng, ctx)
    return gen_revision(ctx, k_mask, random_total_order(rng, ctx, k_mask))
