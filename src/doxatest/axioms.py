"""Postulate checking for the induced belief-change operation at a state.

Within one model, every formula denotes a definable event (a union of
valuation cells), so quantifying over "all formulas" collapses to quantifying
over definable events, and equality of two belief sets collapses to equality
of the cell closures of their supports.  Each postulate is written once, as
an instance function in `_INSTANCES`, and two readers share it: the
event-level reduction behind `axiom_holds`, and `replay_witness`.  The
reduction walks only the pairs (E, F) that can hold a postulate's first
failing instance: F >= E for D6 and D7, and the definable subsets of E for
D5/R7, D9 and R8 wherever Sup(b, E) ⊆ E (`_violations` has the proof), so
of a pair postulate only the first violation is exact.
`axiom_holds` keeps the first witness per (belief set, postulate) on its
`ModelContext`, so states with equal beliefs, the aliases R2 and R7, and R8
next to D9 at a complete belief set are decided once.  A belief set is the
set of formulas true throughout one support event, so closure (D0/R1) and
irrelevance of syntax (D4/R6) hold by representation on every route,
without a search.

Both routes reach a verdict through one plan per postulate, `_PLANS`, built
at import from `ALIASES` and the classification sets: the verdict fixed
before any search (D3/R5 not applicable, D0/D4 holding), the resolved
postulate, its memo key and whether it applies only at complete belief
sets.  The plan is classification metadata; each route keeps its own memo
and predicates.  `axiom_holds` hands out one shared frozen verdict per
postulate for "holds" and for "not applicable", and builds a verdict only
for a failure.

Lemma.  At b, let R(E) = cl(Sup(b, E)) on the definable events.  For F
definable, cl(X∩F) = cl(X)∩F (a cell meets X∩F iff it meets X and lies in
F), and Sup(b, E) ⊆ F iff R(E) ⊆ F.  So an instance fails iff: D1,
R(E) ⊄ E; D5, R(E)∩F ⊄ R(E∩F); D6, R(E) ⊆ F, R(F) ⊆ E, R(E) ≠ R(F); D7,
R(E∪F) ⊄ R(E) ∪ R(F); D9/R8, R(E)∩F ≠ ∅ and R(E∩F) ⊄ R(E)∩F.  R is a row
table over cells, R(E) ⊆ E under D1, and the properties' kernels decide it
(`_holds_test`), with cells for states and G = E∩F:
- D5: PD57's inside shape, no G ⊆ E with R(E)∩G ⊄ R(G).  D7 is the same
  shape, as PD7 is at B = {i} (`properties` has the proof).
- D6: PD6's cumulative shape: under D1, reciprocity is cumulativity.
- D9/R8: PR8's gated shape, no G ⊆ E with R(E) meeting G and
  R(G) ⊄ R(E), since R(G) ⊆ G.

`axiom_status_via_formulas` re-decides each postulate by direct
quantification over a formula pool, as an independent cross-check.  It
reads no cells and no closures, and it shares no memo or predicate with the
reductions.  A verdict depends on the model only through its frame and
the pool's distinct truth sets, so its state lives on the frame, one
context per (frame, pool, truth-set family) shared by the frame's models:
a snapshot of the pool, the truth sets, and per belief set one membership
bitset over them per event and one status per postulate, so each
postulate is decided once per (frame, pool, truth sets, belief set).

A failing verdict carries a witness: the events playing the two formula roles
plus a distinguishing definable event G.  Replaying the witness through the
membership primitives (no closures involved) must reproduce the violation —
see `replay_witness`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Sequence

from .formulas import Formula, semantic_pool
from .frames import (Frame, Model, bits, cell_closure, cells, definable_events, grid, pack,
                     subsets_of, truth_set)
from .limits import DEFAULT_MAX_CELLS
from .properties import _cumulative, _gated, _inside


class AxiomId(str, Enum):
    D0 = "D0"
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    D6 = "D6"
    D7 = "D7"
    D9 = "D9"
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    R6 = "R6"
    R7 = "R7"
    R8 = "R8"


# update/revision postulates that are the same condition under the reduction
ALIASES: dict[AxiomId, AxiomId] = {
    AxiomId.R1: AxiomId.D0,
    AxiomId.R2: AxiomId.D1,
    AxiomId.R6: AxiomId.D4,
    AxiomId.R7: AxiomId.D5,
}


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class AxiomWitness:
    """Events for the formula slots of a failing postulate instance; `g` is
    the definable event separating the two belief sets involved."""

    e: int
    f: int | None = None
    g: int | None = None

    def to_obj(self, model: Model) -> dict:
        obj: dict = {"E": list(model.frame.event_ids(self.e))}
        if self.f is not None:
            obj["F"] = list(model.frame.event_ids(self.f))
        if self.g is not None:
            obj["G"] = list(model.frame.event_ids(self.g))
        return obj


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: AxiomId
    status: Status
    witness: AxiomWitness | None = None

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    def to_obj(self, model: Model) -> dict:
        obj: dict = {"axiom": self.axiom.value}
        if self.status is Status.NOT_APPLICABLE:
            obj["holds"] = None
            obj["applicable"] = False
        else:
            obj["holds"] = self.status is Status.HOLDS
        if self.witness is not None:
            obj["witness"] = self.witness.to_obj(model)
        return obj


@dataclass
class ModelContext:
    """Shared per-model precomputation: cells and definable events, the
    first witness (None when it holds) per (belief set, memo key) that
    `axiom_holds` has found, and per belief set the closure table R of
    `_holds_test`: R is a row table over cells; the properties' kernels
    decide it.  Supports come from the frame's memoized `Frame.sup`."""

    model: Model
    cell_masks: tuple[int, ...]
    definable: tuple[int, ...]  # nonempty definable events, ascending
    found: dict = field(default_factory=dict, compare=False, repr=False)
    closures: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(
        cls,
        model: Model,
        max_cells: int = DEFAULT_MAX_CELLS,
        cell_masks: tuple[int, ...] | None = None,
    ) -> "ModelContext":
        if cell_masks is None:
            cell_masks = cells(model)
        definable = definable_events(cell_masks, max_cells)
        return cls(model, cell_masks, definable)


def is_complete_at(model: Model, s: int) -> bool:
    """True iff the beliefs at state index s decide every formula: B(s) fits
    in one cell, that is, every atom holds at all of B(s) or at none of it."""
    b = model.frame.belief[s]
    return all(not b & m or not b & ~m for m in model.valuation.values())


# Each postulate is written once, as an instance function
# instance(sup, b, e, f) over the formula slots (E, F) at belief set b.  It
# returns None when the instance cannot break the postulate; otherwise
# (y, x, both): the instance breaks at every G that contains y but not x,
# or, when `both` is set, x but not y.  The reduction tests the cell closure
# of y (of x in the `both` case), the strongest definable G; the replay
# tests the witness's G directly.  Every Sup is read in the order the
# verdicts depend on: a partial frame must report the same first missing
# row.  Only D9/R8 ask for Sup at the empty event, at (E, F) with
# Sup(b, E) ⊄ E, E∩F = ∅ and Sup(b, E)∩F ≠ ∅, a frame without success; the
# selection has no row there, so it raises, as the oracle's D9 branch does.


def _d6_instance(sup, b, e, f):
    # both before the guard: a partial frame's first missing row depends on it
    sup_e, sup_f = sup(b, e), sup(b, f)
    if sup_e & ~f or sup_f & ~e:
        return None
    return sup_e, sup_f, True


def _d9_instance(sup, b, e, f):
    inter = sup(b, e) & f
    return (inter, sup(b, e & f), False) if inter else None


# How F runs in a postulate's scan: not at all (a postulate on E alone),
# over F >= E, or over the definable subsets of E when Sup(b, E) ⊆ E and
# over every F otherwise (see `_violations`).
_NO_F, _F_FROM_E, _F_IN_E = range(3)

# axiom -> (how F runs, instance)
_INSTANCES: dict[AxiomId, tuple[int, Callable]] = {
    AxiomId.D1: (_NO_F, lambda sup, b, e, f: (e, sup(b, e), False)),
    AxiomId.D2: (_NO_F, lambda sup, b, e, f: None if b & ~e else (b, sup(b, e), True)),
    AxiomId.R3: (_NO_F, lambda sup, b, e, f: (sup(b, e), b & e, False)),
    AxiomId.R4: (_NO_F, lambda sup, b, e, f: (b, sup(b, e), False) if b & e else None),
    AxiomId.D5: (
        _F_IN_E,
        lambda sup, b, e, f: (sup(b, e & f), sup(b, e) & f, False) if e & f else None,
    ),
    AxiomId.D6: (_F_FROM_E, _d6_instance),
    AxiomId.D7: (_F_FROM_E, lambda sup, b, e, f: (sup(b, e) | sup(b, f), sup(b, e | f), False)),
    AxiomId.D9: (_F_IN_E, _d9_instance),
    AxiomId.R8: (_F_IN_E, _d9_instance),  # same event shape; scope differs (R8: every state)
}


def _violations(ctx: ModelContext, axiom: AxiomId, b: int) -> Iterator[AxiomWitness]:
    """The failing instances of a postulate at belief set b, E ascending over
    the definable events, then F, each with its closure witness G.

    F runs only over the pairs that can hold the first failing instance, so
    for a pair postulate the first witness, and on a partial frame the first
    missing row, are those of the scan over every pair; the later witnesses
    are some of that scan's, not all.  `axiom_holds` runs it on a pair
    postulate only on a failing holds test, whose gate is D1 and every
    definable row: past it, the scan reads no other Sup and cannot raise.

    - F >= E (D6, D7): both instances are symmetric in (E, F), so a failing
      (E, F) with F < E comes after the failing (F, E).  The first E's row is
      the full row and reads Sup at every definable event; after it, a
      skipped pair (E, F < E) reads only the Sups read at (F, E).
    - F inside E (D5/R7, D9, R8), when Sup(b, E) ⊆ E: the instance reads F
      only through E∩F and Sup(b, E)∩F = Sup(b, E)∩(E∩F), so (E, F) is the
      instance (E, E∩F), and E∩F is definable and no later than F (an empty
      E∩F gives none).  Otherwise F runs over every event.  The gate reads
      Sup(b, E) first, the first Sup the full scan at E has not read yet:
      every proper definable subset of E comes earlier and had its Sup read
      at its own E.  Past the gate, the pairs the subset walk skips read
      only Sups of subsets of E, all read by then.
    """
    walk, instance = _INSTANCES[axiom]
    sup, definable = ctx.model.frame.sup, ctx.definable
    for k, e in enumerate(definable):
        if walk == _NO_F:
            seconds = (None,)
        elif walk == _F_FROM_E:
            seconds = definable[k:]
        elif sup(b, e) & ~e:
            seconds = definable
        else:  # index k holds cell choice k + 1, and E's subsets are its subchoices
            seconds = [definable[t - 1] for t in subsets_of(k + 1)[1:]]
        for f in seconds:
            found = instance(sup, b, e, f)
            if found is None:
                continue
            y, x, both = found
            g = cell_closure(y, ctx.cell_masks)
            if x & ~g:
                yield AxiomWitness(e=e, f=f, g=g)
            elif both:
                g = cell_closure(x, ctx.cell_masks)
                if y & ~g:
                    yield AxiomWitness(e=e, f=f, g=g)


# the properties' kernel deciding each pair postulate's table shape on R
_KERNELS: dict[AxiomId, Callable[[int, int], bool]] = {
    AxiomId.D5: _inside, AxiomId.D7: _inside, AxiomId.D6: _cumulative,
    AxiomId.D9: _gated, AxiomId.R8: _gated,
}


def _holds_test(ctx: ModelContext, axiom: AxiomId, b: int) -> bool:
    """Whether a pair postulate passes the lemma's holds test at b.  R is
    packed over `grid(m)` for m cells, field j the cells meeting
    Sup(b, ctx.definable[j - 1]), or None where the gate fails."""
    if b not in ctx.closures:
        sups, r = ctx.model.frame.sup_table(b), []
        for e in ctx.definable:
            if sups[e] & ~e:  # a missing row reads -1, which leaves every event
                r = None
                break
            r.append(sum([1 << i for i, c in enumerate(ctx.cell_masks) if c & sups[e]]))
        w = grid(len(ctx.cell_masks))[0]
        ctx.closures[b] = None if r is None else pack(r, w) << w
    r = ctx.closures[b]
    return r is not None and _KERNELS[axiom](r, len(ctx.cell_masks))


_COMPLETE_ONLY = frozenset({AxiomId.D7, AxiomId.D9})
_STRUCTURAL = frozenset({AxiomId.D0, AxiomId.D4})
_EXTENSION_ONLY = frozenset({AxiomId.D3, AxiomId.R5})


class _Plan(NamedTuple):
    """One postulate's classification (see the module docstring).  R8's
    memo `key` is D9: R8 runs D9's scan and branch, and D9 is asked only at
    complete belief sets."""

    fixed: Status | None
    resolved: AxiomId
    key: AxiomId
    complete_only: bool
    holds: AxiomVerdict
    not_applicable: AxiomVerdict


def _plan(axiom: AxiomId) -> _Plan:
    resolved = ALIASES.get(axiom, axiom)
    fixed = (Status.NOT_APPLICABLE if resolved in _EXTENSION_ONLY
             else Status.HOLDS if resolved in _STRUCTURAL else None)
    return _Plan(fixed, resolved, AxiomId.D9 if resolved is AxiomId.R8 else resolved,
                 resolved in _COMPLETE_ONLY, AxiomVerdict(axiom, Status.HOLDS),
                 AxiomVerdict(axiom, Status.NOT_APPLICABLE))


_PLANS: dict[AxiomId, _Plan] = {axiom: _plan(axiom) for axiom in AxiomId}

# a memo miss, where a first witness of None means "holds"
_UNDECIDED = object()


def axiom_holds(
    model: Model,
    s: int,
    axiom: AxiomId,
    ctx: ModelContext | None = None,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> AxiomVerdict:
    """Decide one postulate at (model, s), s a state index, over the
    definable events.

    D3/R5 only bite for formulas with no worlds at all, which never denote an
    event inside a model, so they are reported not-applicable here (the
    extension layer owns them).  D7 and D9 are conditions on complete belief
    states and are not-applicable elsewhere.  A pair postulate scans only
    on a failing holds test (the module's lemma): witnesses are the scan's.
    A holding or not-applicable verdict is the postulate's shared one.
    """
    plan = _PLANS[axiom]
    if plan.fixed is Status.NOT_APPLICABLE or plan.complete_only and not is_complete_at(model, s):
        return plan.not_applicable
    if plan.fixed is Status.HOLDS:
        return plan.holds
    if ctx is None:
        ctx = ModelContext.of(model, max_cells=max_cells)
    key = (model.frame.belief[s], plan.key)
    witness = ctx.found.get(key, _UNDECIDED)
    if witness is _UNDECIDED:
        resolved = plan.resolved
        if resolved in _KERNELS and _holds_test(ctx, resolved, key[0]):
            witness = ctx.found[key] = None
        else:
            witness = ctx.found[key] = next(_violations(ctx, resolved, key[0]), None)
    if witness is None:
        return plan.holds
    return AxiomVerdict(axiom, Status.FAILS, witness)


def replay_witness(model: Model, s: int, axiom: AxiomId, witness: AxiomWitness) -> bool:
    """Reproduce a violation at state index s from its witness using only
    the membership primitives: Sup for the change operation,
    intersection-with-belief for expansion.  No cell closures are consulted."""
    resolved = ALIASES.get(axiom, axiom)
    if resolved not in _INSTANCES:
        raise ValueError(f"no replay for {axiom}")
    walk, instance = _INSTANCES[resolved]
    if walk != _NO_F and witness.f is None:
        return False  # a one-event witness names no instance of a pair postulate
    frame, g = model.frame, witness.g
    found = instance(frame.sup, frame.belief[s], witness.e, witness.f)
    if found is None:
        return False
    y, x, both = found

    def breaks(y, x):
        return not y & ~g and bool(x & ~g)

    return breaks(y, x) or (both and breaks(x, y))


# --- independent formula-level oracle -------------------------------------


@functools.lru_cache(maxsize=16)
def _default_pool(atom_names: tuple[str, ...]) -> tuple[Formula, ...]:
    return tuple(semantic_pool(atom_names, depth=3))


class _OracleContext:
    """The oracle's state for one frame, pool and truth-set family: the
    targets, the pool's distinct truth sets `chi_masks`, sorted, so that bit
    k of a bitset stands for `chi_masks[k]`; the memoized `up(X)`, the targets
    containing X; per belief set b and event E, one row table (inn, raises,
    sup, missing) in `rows[b][E]`; and one status per (b, postulate).  The
    believed rows f(j, E) are read in ascending j up to the first missing
    one (-1 if none), `sup` is their union and inn = up(sup).  Membership
    after E at a target is false at the first row outside it, so it is false
    outside inn; inside inn it is true, or raises when a row is missing:
    `raises` is inn then, else 0.

    `_decide` reads only the context, the frame's rows and b, so the
    frame's models with these truth sets share it.  It holds no reference
    to a model or frame, so a frame and its contexts are freed together
    without the cycle collector.  `formulas` is the pool as it was when the
    context was built, a list for a list pool and a tuple otherwise, so
    that it compares equal to the pool itself; a context is reused only
    while the pool still equals it.
    """

    __slots__ = ("formulas", "chi_masks", "nonempty", "ups", "rows", "statuses")

    def __init__(self, formulas: Sequence[Formula], chi_masks: tuple[int, ...]):
        self.formulas, self.chi_masks = formulas, chi_masks
        # the events quantified over, each with its bit as a target
        self.nonempty = [(1 << k, m) for k, m in enumerate(self.chi_masks) if m]
        self.ups: dict[int, int] = {}
        self.rows: dict[int, dict[int, tuple[int, int, int, int]]] = {}
        self.statuses: dict[tuple[int, AxiomId], Status] = {}

    def up(self, x: int) -> int:
        if x not in self.ups:
            self.ups[x] = sum(1 << k for k, m in enumerate(self.chi_masks) if not x & ~m)
        return self.ups[x]


def axiom_status_via_formulas(
    model: Model,
    s: int,
    axiom: AxiomId,
    formulas: Sequence[Formula] | None = None,
) -> Status:
    """Decide a postulate at state index s by quantifying over an explicit
    formula pool.

    Membership after change is per-believed-row selection containment;
    expansion membership is belief∩event containment.  This route never
    looks at cells or closures, so agreement with `axiom_holds` is a
    meaningful cross-check.  D0/R1 and D4/R6 hold by representation once
    the pool has been read, so a pool naming an atom the model lacks still
    raises `UnknownAtomError`.

    The pool defaults to `semantic_pool` over the model's atoms at depth 3,
    one formula per truth function.  One context per (frame, pool, truth-set
    family) keeps the truth sets and one verdict per (belief set,
    postulate), so states with equal beliefs, the aliases R2, R7 and the
    frame's models with equal truth sets cost a lookup.
    """
    # a plain string equal to an axiom id hashes like it but has no branch,
    # and `ALIASES` would turn "R2" into a real id, so it is refused first
    if not isinstance(axiom, AxiomId):
        raise ValueError(f"no formula-level check for {axiom}")
    b = model.frame.belief[s]
    plan = _PLANS[axiom]
    if plan.fixed is Status.NOT_APPLICABLE or plan.complete_only and not is_complete_at(model, s):
        return Status.NOT_APPLICABLE
    if formulas is None:
        formulas = _default_pool(model.atom_names)
    ctx = model._oracle.get(id(formulas))
    # a pool mutated in place, or a new pool at a recycled id, rebuilds
    if ctx is None or ctx.formulas != formulas:
        snapshot = list(formulas) if isinstance(formulas, list) else tuple(formulas)
        # each distinct truth set is one target; the family keys the frame's contexts
        key = (id(formulas), tuple(sorted({truth_set(model, f) for f in snapshot})))
        ctx = (oracle := model.frame._oracle).get(key)
        if ctx is None or ctx.formulas != formulas:
            first = next(iter(oracle.items()), None)  # the frame keeps one pool's contexts
            if first and (first[0][0] != key[0] or first[1].formulas != formulas):
                oracle.clear()
            ctx = oracle[key] = _OracleContext(snapshot, key[1])
        model._oracle.clear()
        model._oracle[id(formulas)] = ctx
    if plan.fixed is Status.HOLDS:
        return Status.HOLDS
    # D9's gate depends only on b, so past it D9 and R8 share one status
    key = (b, plan.key)
    status = ctx.statuses.get(key)
    if status is None:
        status = ctx.statuses[key] = _decide(ctx, model.frame, *key)
    return status


def _at_lowest(frame: Frame, fail: int, *raises: tuple[int, int, int]) -> Status:
    """Settle an event or pair at its lowest decided target: the first raise
    set (targets, missing row, event), in the order memberships are tested
    at a target, that holds it re-raises that row's error; else the targets
    in `fail`, where the instance breaks, make the postulate fail."""
    low = fail
    for targets, _, _ in raises:
        low |= targets
    low &= -low
    for targets, j, event in raises:
        if targets & low:
            frame.sel(j, event)  # missing: raises UndefinedSelectionError
    return Status.FAILS


def _decide(ctx: _OracleContext, frame: Frame, b: int, resolved: AxiomId) -> Status:
    """One postulate at belief set b, quantified over the context's pool:
    the loop "for every event (pair), for every target", the target loop
    done as bit operations on the row tables, so statuses and first errors
    are the literal loop's, on partial frames too."""
    up, nonempty, rows = ctx.up, ctx.nonempty, frame.rows
    table = ctx.rows.setdefault(b, {})
    believed = list(bits(b))

    def row(event: int) -> tuple[int, int, int, int]:
        got = table.get(event)
        if got is None:
            out, missing = 0, -1
            for j in believed:
                r = rows[j][event]
                if r < 0:
                    missing = j
                    break
                out |= r
            inn = up(out)
            got = table[event] = (inn, inn if missing >= 0 else 0, out, missing)
        return got

    if resolved in (AxiomId.D1, AxiomId.D2, AxiomId.R3, AxiomId.R4):
        up_b = up(b)
        for bit, ep in nonempty:
            inn, raises, _, j = row(ep)
            if resolved is AxiomId.D1:  # E's own target is a member
                tested, fail = bit, bit & ~inn
            elif resolved is AxiomId.D2:  # when b ⊆ E, members are up(b)
                tested, fail = (0, 0) if b & ~ep else (-1, inn ^ up_b)
            elif resolved is AxiomId.R3:  # members contain b∩E
                tested, fail = -1, inn & ~up(b & ep)
            else:  # R4: when b meets E, up(b) are members
                tested = up_b if b & ep else 0
                fail = tested & ~inn
            if fail or raises & tested:
                return _at_lowest(frame, fail, (raises & tested, j, ep))
        return Status.HOLDS

    if resolved is AxiomId.D5 or resolved is AxiomId.D9:
        d5 = resolved is AxiomId.D5
        for _, ep in nonempty:
            _, _, sup_p, j = row(ep)
            if j >= 0:
                frame.sel(j, ep)  # Sup(b, E) reads every believed row: raises
            for _, eq in nonempty:
                both, hit = ep & eq, sup_p & eq
                if not (both if d5 else hit):
                    continue
                inn, raises, _, j = row(both)
                # D5: members after E∩F contain hit; D9, tested only at the
                # targets containing hit: the converse
                tested = -1 if d5 else up(hit)
                fail = inn & ~up(hit) if d5 else tested & ~inn
                if fail or raises & tested:
                    return _at_lowest(frame, fail, (raises & tested, j, both))
        return Status.HOLDS

    if resolved is AxiomId.D6:
        for bit_p, ep in nonempty:
            inn_p, raises_p, _, j_p = row(ep)
            for bit_q, eq in nonempty:
                # the gate tests eq after ep, then ep after eq; past it both
                # events read every row, so their memberships decide alone
                if raises_p & bit_q:
                    frame.sel(j_p, ep)  # reaches the missing row: raises
                if not inn_p & bit_q:
                    continue
                inn_q, raises_q, _, j_q = row(eq)
                if raises_q & bit_p:
                    frame.sel(j_q, eq)
                if inn_q & bit_p and inn_p ^ inn_q:
                    return Status.FAILS
        return Status.HOLDS

    if resolved is AxiomId.D7:
        for _, ep in nonempty:
            inn_p, raises_p, _, j_p = row(ep)
            for _, eq in nonempty:
                inn_q, raises_q, _, j_q = row(eq)
                # F is tested only where E holds, E∪F only where both do
                live, fail, raises_u, j_u = inn_p & inn_q, 0, 0, -1
                if live:
                    inn_u, raises_u, _, j_u = row(ep | eq)
                    fail, raises_u = live & ~inn_u, live & raises_u
                if fail or raises_p or raises_q & inn_p or raises_u:
                    return _at_lowest(frame, fail, (raises_p, j_p, ep),
                                      (raises_q & inn_p, j_q, eq), (raises_u, j_u, ep | eq))
        return Status.HOLDS

    raise ValueError(f"no formula-level check for {resolved}")
