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

Update minima come from a per-world table of strictly-more-plausible
worlds, so each (world, input) costs O(|input|) mask operations.

``audit_function`` then checks the produced table against the change
postulates by direct set arithmetic on the table, deliberately sharing no
checking code with the frame-side route in :mod:`doxatest.axioms`.  One
check table, ``_TABLE_CHECKS``, gives each postulate its test and how F
runs against E, and one scan reads it for every suite.
``build_canonical_model`` and ``roundtrip_verify`` close the loop: rebuild a
pointed structure from a table and confirm the frame-side machinery classifies
it as expected and reads the same table back off.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
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
    subsets_of,
    support_of,
)
from .limits import ATOM_LIMIT, DENSE_ATOM_LIMIT, refuse_beyond
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
        return self.min_of((1 << self.n_worlds) - 1)

    def min_of(self, event: Event) -> Event:
        if event == 0:
            return 0
        lowest = min(self.ranks[w] for w in bits(event))
        return sum(1 << w for w in bits(event) if self.ranks[w] == lowest)


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
    from w's standpoint, so `min_of` keeps the members of an event with no
    member strictly below them in O(|E|) mask operations.
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

    def min_of(self, w: int, event: Event) -> Event:
        """The most plausible worlds of the event, from the standpoint of w."""
        below = self._below[w]
        out = 0
        for x in bits(event):
            if not below[x] & event:
                out |= 1 << x
        return out

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

    K and all results are world masks.  Results are computed on demand and
    memoised; parsed tables start with every entry.  ``row(w, event)``
    exposes the per-believed-world contribution used when rebuilding a
    pointed structure; for functions without one (parsed tables), every
    believed world's row is the full result.
    """

    def __init__(
        self,
        ctx: WorldContext,
        k_mask: Event,
        kind: str,
        fn: Callable[[Event], Event] | None,
        row_fn: Callable[[int, Event], Event] | None = None,
        dense: dict[Event, Event] | None = None,
    ):
        if not 0 < k_mask <= ctx.full:
            raise InputFormatError("K must be a nonempty set of worlds")
        self.ctx = ctx
        self.k_mask = k_mask
        self.kind = kind
        self._fn = fn
        self._row_fn = row_fn
        self._dense = dict(dense) if dense is not None else {}

    def result(self, event: Event) -> Event:
        if not 0 < event <= self.ctx.full:
            raise ValueError(f"event {event:#x} is not a nonempty set of worlds")
        got = self._dense.get(event)
        if got is None:
            if self._fn is None:
                raise InputFormatError(
                    f"table has no entry for event {{{', '.join(self.ctx.labels(event))}}}"
                )
            got = self._dense[event] = self._fn(event)
        return got

    def row(self, w: int, event: Event) -> Event:
        if self._row_fn is not None:
            return self._row_fn(w, event)
        return self.result(event)

    def events(self) -> range:
        """Every nonempty event; refused beyond `DENSE_ATOM_LIMIT` atoms."""
        hint = "atoms in a table over every event (pass an explicit event list)"
        refuse_beyond(self.ctx.k, DENSE_ATOM_LIMIT, hint)
        return range(1, self.ctx.full + 1)

    def as_dict(self, events: Iterable[Event] | None = None) -> dict[Event, Event]:
        if events is None:
            events = self.events()
        return {event: self.result(event) for event in events}

    def to_obj(self, events: Iterable[Event] | None = None) -> dict:
        if events is None:
            events = self.events()
        return {
            "atoms": list(self.ctx.atoms),
            "K": self.ctx.labels(self.k_mask),
            "entries": [
                {
                    "event": self.ctx.labels(event),
                    "result": self.ctx.labels(self.result(event)),
                }
                for event in sorted(events)
            ],
        }


def table_from_obj(obj: dict) -> ChangeFunctionTable:
    """Parse a serialised table; entries must cover every nonempty event."""
    if not isinstance(obj, dict):
        raise InputFormatError("table document must be an object")
    try:
        atoms = obj["atoms"]
        if not isinstance(atoms, list) or not all(
            isinstance(a, str) and ATOM_RE.match(a) for a in atoms
        ):
            raise InputFormatError(f"'atoms' must be a list of atom names, not {atoms!r}")
        ctx = WorldContext(tuple(atoms))
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
    dense: dict[Event, Event] = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {"event", "result"} <= set(entry):
            raise InputFormatError(f"table entry {k} needs 'event' and 'result'")
        event = to_mask(entry["event"], f"table entry {k} event")
        result = to_mask(entry["result"], f"table entry {k} result")
        if event == 0:
            raise InputFormatError("table entry has an empty event")
        if event in dense:
            raise InputFormatError(
                f"duplicate table entry for event {{{', '.join(entry['event'])}}}"
            )
        dense[event] = result
    if len(dense) != ctx.full:
        raise InputFormatError(
            f"table covers {len(dense)} of {ctx.full} nonempty events"
        )
    return ChangeFunctionTable(ctx, k_mask, "custom", fn=None, dense=dense)


def gen_update(ctx: WorldContext, k_mask: Event, family: PreOrderFamily) -> ChangeFunctionTable:
    """Update K by pooling each believed world's closest input-worlds."""
    if family.n_worlds != ctx.n_worlds:
        raise InputFormatError(
            f"order family covers {family.n_worlds} worlds, context has {ctx.n_worlds}"
        )
    family.validate()

    def fn(event: Event) -> Event:
        out = 0
        for w in bits(k_mask):
            out |= family.min_of(w, event)
        return out

    return ChangeFunctionTable(ctx, k_mask, "update", fn, row_fn=family.min_of)


def gen_revision(ctx: WorldContext, k_mask: Event, order: TotalPreOrder) -> ChangeFunctionTable:
    """Revise K to the most plausible input-worlds of a K-faithful ranking."""
    if order.n_worlds != ctx.n_worlds:
        raise InputFormatError(
            f"ranking covers {order.n_worlds} worlds, context has {ctx.n_worlds}"
        )
    if order.minimum() != k_mask:
        raise UnfaithfulOrderError(
            "ranking is not faithful: its minimal worlds are {%s}, K is {%s}"
            % (", ".join(ctx.labels(order.minimum())), ", ".join(ctx.labels(k_mask)))
        )
    return ChangeFunctionTable(ctx, k_mask, "revision", order.min_of)


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
# check is symmetric in E and F, so its first failing pair in the ascending
# scope has E <= F), or over the scope; the last narrows to the subsets of E
# when every event is in scope and D1 holds (each result inside its event),
# since those checks then read F only through E∩F, which first turns up at
# F = E∩F in ascending order, so the first failing pair is the same.
_NO_F, _F_FROM_E, _F_IN_E = range(3)

# Each check reads K, the result map r and the events E, F (None for _NO_F).
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


def _events_for_audit(table: ChangeFunctionTable, events: Sequence[Event] | None) -> list[Event]:
    if events is not None:
        out = sorted(set(events))
        have = set(out)
        for i, e in enumerate(out):
            for f in out[i:]:
                meet = e & f
                if (meet and meet not in have) or (e | f) not in have:
                    raise InputFormatError(
                        "explicit audit event list must be closed under intersection and union"
                    )
        return out
    return list(table.events())


def audit_function(
    table: ChangeFunctionTable,
    suite: str = "KM",
    events: Sequence[Event] | None = None,
) -> AuditReport:
    """Check a table against one postulate suite by direct set arithmetic.

    This is the syntax-side route: it never consults the frame-side axiom
    checker.  ``events`` restricts the quantifiers for large tables and must
    then be closed under intersection and union.  The two postulates that
    only bind complete belief states (D7, D9) are checked when K is a
    singleton and reported as not applicable otherwise.
    """
    suite_key = suite.upper().replace("-", "_")
    if suite_key not in SUITES:
        raise ValueError(f"unknown audit suite {suite!r}; expected one of {sorted(SUITES)}")
    scope = _events_for_audit(table, events)
    k = table.k_mask
    res = {event: table.result(event) for event in scope}
    in_e = lambda i, e: scope
    if events is None and all(not res[e] & ~e for e in scope):
        in_e = lambda i, e: subsets_of(e)
    seconds = {_NO_F: lambda i, e: (None,), _F_FROM_E: lambda i, e: scope[i:], _F_IN_E: in_e}

    def decide(axiom: AxiomId) -> TableVerdict:
        if axiom in _BY_REPRESENTATION:
            return TableVerdict(axiom, Status.HOLDS)
        if axiom in _SINGLETON_GATED and k & (k - 1):
            return TableVerdict(axiom, Status.NOT_APPLICABLE)
        runs, check = _TABLE_CHECKS[_ALIASES.get(axiom, axiom)]
        for i, e in enumerate(scope):
            for f in seconds[runs](i, e):
                if not check(k, res, e, f):
                    return TableVerdict(axiom, Status.FAILS, TableWitness(e, f))
        return TableVerdict(axiom, Status.HOLDS)

    return AuditReport(suite_key, tuple(decide(a) for a in SUITES[suite_key]))


# --- back to frames: canonical pointed structure and the roundtrip ---


def build_canonical_model(
    table: ChangeFunctionTable, events: Sequence[Event] | None = None
) -> Model:
    """Rebuild a pointed structure whose conditional supports match the table.

    States are the worlds, every state believes exactly K, and selection rows
    exist only for believed states (rows elsewhere would force choices the
    table does not determine and can break centering).  The valuation reads
    each atom off the world labels, so distinct states never share a profile.
    """
    ctx = table.ctx
    if events is None:
        events = list(table.events())
    states = tuple("w" + ctx.label(w) for w in range(ctx.n_worlds))
    belief = (table.k_mask,) * ctx.n_worlds
    selection = {
        (w, event): table.row(w, event)
        for w in bits(table.k_mask)
        for event in events
    }
    valuation = {atom: ctx.atom_worlds(i) for i, atom in enumerate(ctx.atoms)}
    return Model(Frame(states, belief, selection), valuation)


def extract_table(model: Model, events: Sequence[Event] | None = None) -> dict[Event, Event]:
    """Read the change function back off a structure with uniform belief."""
    if events is None:
        events = range(1, model.frame.full + 1)
    return {event: support_of(model, 0, event) for event in events}


def sampled_event_algebra(n_worlds: int, rng: Random, blocks: int = 8) -> list[Event]:
    """A random subalgebra of events: all unions of a random block partition.

    The result is closed under intersection and union, so quantifier
    restrictions stay meaningful for checks that combine events.
    """
    blocks = min(blocks, n_worlds)
    worlds = list(range(n_worlds))
    rng.shuffle(worlds)
    masks = [0] * blocks
    for i, w in enumerate(worlds):
        masks[i % blocks] |= 1 << w
    out = []
    for pick in range(1, 1 << blocks):
        event = 0
        for b in bits(pick):
            event |= masks[b]
        out.append(event)
    return sorted(out)


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


def roundtrip_verify(
    table: ChangeFunctionTable,
    frame_class: FrameClass,
    events: Sequence[Event] | None = None,
) -> RoundtripReport:
    """Rebuild a structure from the table and verify three things.

    1. the structure is well formed;
    2. its frame falls in the expected class;
    3. reading conditional supports back off the structure reproduces the
       table on every checked event.

    Tables over four atoms need an explicit event list closed under
    intersection and union, such as a `sampled_event_algebra`.
    """
    if events is not None:
        events = sorted(set(events))
    model = build_canonical_model(table, events)
    report = check_class(model.frame, frame_class, events=events)
    # every class recipe starts with BASE, which is `validate_frame`
    frame_valid = report.verdicts[0].holds
    scope = list(events) if events is not None else list(table.events())
    extracted = extract_table(model, scope)
    mismatched = tuple(e for e in scope if extracted[e] != table.result(e))
    failed = tuple(v.property for v in report.verdicts if not v.holds)
    return RoundtripReport(
        frame_class, frame_valid, report.holds, failed, mismatched, len(scope)
    )


# --- random generators and coverage ---


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


def generator_coverage_report(seed: int = 0, k2_samples: int = 200) -> dict:
    """How much of the function space the generators reach.

    One atom is small enough to enumerate exhaustively; two atoms are probed
    with seeded random sampling and reported as distinct-table counts.
    """
    ctx1 = WorldContext(("p",))
    update_tables = set()
    update_functions = 0
    for k_mask in range(1, ctx1.full + 1):
        for family in _all_centered_families(ctx1.n_worlds):
            table = gen_update(ctx1, k_mask, family)
            update_functions += 1
            update_tables.add((k_mask, tuple(sorted(table.as_dict().items()))))
    revision_tables = set()
    revision_orders = 0
    for order in _all_order_types(ctx1.n_worlds):
        k_mask = order.minimum()
        table = gen_revision(ctx1, k_mask, order)
        revision_orders += 1
        revision_tables.add((k_mask, tuple(sorted(table.as_dict().items()))))

    rng = Random(seed)
    ctx2 = WorldContext(("p", "q"))
    partial_seen = set()
    total_seen = set()
    revision_seen = set()
    for _ in range(k2_samples):
        t = random_update_table(rng, ctx2)
        partial_seen.add((t.k_mask, tuple(sorted(t.as_dict().items()))))
        t = random_update_table(rng, ctx2, total=True)
        total_seen.add((t.k_mask, tuple(sorted(t.as_dict().items()))))
        t = random_revision_table(rng, ctx2)
        revision_seen.add((t.k_mask, tuple(sorted(t.as_dict().items()))))
    return {
        "oneAtom": {
            "updateFunctions": update_functions,
            "updateTables": len(update_tables),
            "revisionOrders": revision_orders,
            "revisionTables": len(revision_tables),
        },
        "twoAtoms": {
            "samples": k2_samples,
            "partialUpdateTables": len(partial_seen),
            "totalUpdateTables": len(total_seen),
            "revisionTables": len(revision_seen),
        },
    }
