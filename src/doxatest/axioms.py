"""Postulate checking for the induced belief-change operation at a state.

Within one model, every formula denotes a definable event (a union of
valuation cells), so quantifying over "all formulas" collapses to quantifying
over definable events, and equality of two belief sets collapses to equality
of the cell closures of their supports.  Each postulate is written once, as
an instance function in `_INSTANCES`, and three readers share it: the
event-level reduction behind `axiom_holds`, `replay_witness`, and the lemma
audit.  The reduction walks only the pairs (E, F) that can hold a
postulate's first failing instance: F >= E for D6 and D7, and the definable
subsets of E for D5/R7, D9 and R8 wherever Sup(b, E) ⊆ E (`_violations`
has the proof), so of a pair postulate only the first violation is exact.
`axiom_holds` keeps the first witness per (belief set, postulate) on its
`ModelContext`, so states with equal beliefs, the aliases R2 and R7, and R8
next to D9 at a complete belief set are decided once.  A belief set is the
set of formulas true throughout one support event, so closure (D0/R1) and
irrelevance of syntax (D4/R6) hold by representation on every route,
without a search.

`axiom_status_via_formulas` re-decides each postulate by direct
quantification over a formula pool, as an independent cross-check.  It
reads no cells and no closures, and it shares no memo or predicate with the
reductions.  Its own state lives on the model, one context per (model,
pool): the pool's distinct truth sets, and per belief set one membership
bitset over them per event and one status per postulate, so each postulate
is decided once per (model, belief set).

A failing verdict carries a witness: the events playing the two formula roles
plus a distinguishing definable event G.  Replaying the witness through the
membership primitives (no closures involved) must reproduce the violation —
see `replay_witness`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Sequence

from .errors import PreconditionError
from .formulas import Formula, semantic_pool
from .frames import Frame, Model, bits, cell_closure, cells, definable_events, subsets_of, truth_set
from .limits import DEFAULT_MAX_CELLS


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
    """Shared per-model precomputation: cells and definable events, and the
    first witness (None when it holds) per (belief set, resolved postulate)
    that `axiom_holds` has found.  Supports come from the frame's memoized
    `Frame.sup`."""

    model: Model
    cell_masks: tuple[int, ...]
    definable: tuple[int, ...]  # nonempty definable events, ascending
    found: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(
        cls,
        model: Model,
        max_cells: int = DEFAULT_MAX_CELLS,
        cell_masks: tuple[int, ...] | None = None,
    ) -> "ModelContext":
        if cell_masks is None:
            cell_masks = cells(model)
        definable = definable_events(model, max_cells, cell_masks=cell_masks)
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
    are some of that scan's, not all.  The one-event postulates list every
    instance (R3's in `audit_lemma_inclusion`).

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
            g = cell_closure(ctx.model, y, ctx.cell_masks)
            if x & ~g:
                yield AxiomWitness(e=e, f=f, g=g)
            elif both:
                g = cell_closure(ctx.model, x, ctx.cell_masks)
                if y & ~g:
                    yield AxiomWitness(e=e, f=f, g=g)


_COMPLETE_ONLY = frozenset({AxiomId.D7, AxiomId.D9})
_STRUCTURAL = frozenset({AxiomId.D0, AxiomId.D4})
_EXTENSION_ONLY = frozenset({AxiomId.D3, AxiomId.R5})


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
    states and are not-applicable elsewhere.
    """
    resolved = ALIASES.get(axiom, axiom)
    if resolved in _EXTENSION_ONLY:
        return AxiomVerdict(axiom, Status.NOT_APPLICABLE)
    if resolved in _COMPLETE_ONLY and not is_complete_at(model, s):
        return AxiomVerdict(axiom, Status.NOT_APPLICABLE)
    if resolved in _STRUCTURAL:
        return AxiomVerdict(axiom, Status.HOLDS)
    if ctx is None:
        ctx = ModelContext.of(model, max_cells=max_cells)
    # R8 runs D9's scan, and D9 is asked only at complete belief sets, so
    # the two share one witness
    key = (model.frame.belief[s], AxiomId.D9 if resolved is AxiomId.R8 else resolved)
    if key in ctx.found:
        witness = ctx.found[key]
    elif resolved is AxiomId.D7 and all(
        ctx.found.get((key[0], known), False) is None for known in (AxiomId.D1, AxiomId.D5)
    ):
        # D7 holds once D1 and D5 are known to hold at b (never scanned for
        # here).  With G = E∪F, D1 gives Sup(G) ⊆ G, and D5 at (G, E) and at
        # (G, F) puts Sup(G)∩E in cl(Sup(E)) and Sup(G)∩F in cl(Sup(F)), so
        # Sup(G) ⊆ cl(Sup(E) ∪ Sup(F)).  D1 also read Sup(b, ·) at every
        # definable event, so on a partial frame D7's scan could not raise.
        witness = ctx.found[key] = None
    else:
        witness = ctx.found[key] = next(_violations(ctx, resolved, key[0]), None)
    if witness is None:
        return AxiomVerdict(axiom, Status.HOLDS)
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


# --- audits ---------------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    """Change-then-expand containment sweep: the changed belief set must
    extend the expanded one at every nonempty definable event."""

    violations: tuple[AxiomWitness, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_obj(self, model: Model) -> dict:
        return {
            "ok": self.ok,
            "violations": [w.to_obj(model) for w in self.violations],
        }


def audit_lemma_inclusion(model: Model, s: int) -> LemmaReport:
    """For every nonempty definable E: believers of the changed set at state
    index s must include every expansion believer — event side:
    B(s)∩E ⊆ C(Sup(E)).  Events with B(s)∩E = ∅ pass vacuously (the
    expansion is inconsistent and contains everything)."""
    ctx = ModelContext.of(model)
    return LemmaReport(tuple(_violations(ctx, AxiomId.R3, model.frame.belief[s])))


@dataclass(frozen=True)
class Km8Report:
    holds: bool
    witness_event: int | None = None

    def to_obj(self, model: Model) -> dict:
        obj: dict = {"holds": self.holds}
        if self.witness_event is not None:
            obj["witness"] = {"E": list(model.frame.event_ids(self.witness_event))}
        return obj


def audit_km8(model: Model, w: int) -> Km8Report:
    """Identity between the two quantifier bases for membership after change
    at state index w: rows drawn from the believed worlds B(w) versus rows
    drawn from every world satisfying the belief set (the cell closure of
    B(w)).  Requires a uniform belief map; on canonically-valued models the
    two coincide, and a corrupted valuation that merges an outside world
    into a believed cell breaks the identity."""
    frame = model.frame
    if len(set(frame.belief)) != 1:
        raise PreconditionError("belief worlds must not vary across states")
    ctx = ModelContext.of(model)
    b = frame.belief[w]
    kk = cell_closure(model, b, ctx.cell_masks)
    for e in ctx.definable:
        if frame.sup(b, e) != frame.sup(kk, e):
            return Km8Report(False, e)
    return Km8Report(True)


# --- independent formula-level oracle -------------------------------------


@functools.lru_cache(maxsize=16)
def _default_pool(atom_names: tuple[str, ...]) -> tuple[Formula, ...]:
    return tuple(semantic_pool(atom_names, depth=3))


class _OracleContext:
    """The oracle's state for one model and one formula pool: the targets,
    the pool's distinct truth sets `chi_masks`, sorted, so that bit k of a
    bitset stands for `chi_masks[k]`; the memoized `up(X)`, the targets
    containing X; per belief set b and event E, one row table (inn, raises,
    sup, missing) in `rows[b][E]`; and one status per (b, postulate).  The
    believed rows f(j, E) are read in ascending j up to the first missing
    one (-1 if none), `sup` is their union and inn = up(sup).  Membership
    after E at a target is false at the first row outside it, so it is false
    outside inn; inside inn it is true, or raises when a row is missing:
    `raises` is inn then, else 0.

    It holds no reference to the model, so a model and its contexts are
    freed together without the cycle collector.  `formulas` is the pool as
    it was when the context was built; a context is reused only while the
    pool still equals it.
    """

    __slots__ = ("formulas", "chi_masks", "nonempty", "ups", "rows", "statuses")

    def __init__(self, model: Model, formulas: Sequence[Formula]):
        self.formulas = tuple(formulas)
        # membership depends only on the truth set, so each distinct truth
        # set is one target
        self.chi_masks = sorted({truth_set(model, f) for f in self.formulas})
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
    one formula per truth function.  One context per (model, pool) keeps
    the pool's truth sets and one verdict per (belief set, postulate), so
    states with equal beliefs and the aliases R2, R7 cost a lookup.
    """
    frame = model.frame
    b = frame.belief[s]
    resolved = ALIASES.get(axiom, axiom)
    if resolved in _EXTENSION_ONLY:
        return Status.NOT_APPLICABLE
    if resolved in _COMPLETE_ONLY and not is_complete_at(model, s):
        return Status.NOT_APPLICABLE
    if formulas is None:
        formulas = _default_pool(model.atom_names)
    ctx = model._oracle.get(id(formulas))
    # a pool mutated in place, or a new pool at a recycled id, rebuilds
    if ctx is None or ctx.formulas != tuple(formulas):
        ctx = model._oracle[id(formulas)] = _OracleContext(model, formulas)
    # a plain string equal to an axiom id hashes like it but has no branch,
    # so ids are tested by identity and only real ids reach the memo
    if resolved is AxiomId.D0 or resolved is AxiomId.D4:
        return Status.HOLDS
    if not isinstance(resolved, AxiomId):
        raise ValueError(f"no formula-level check for {resolved}")
    # R8 runs D9's branch; D9's gate depends only on b, so past it they
    # share one status
    key = (b, AxiomId.D9 if resolved is AxiomId.R8 else resolved)
    status = ctx.statuses.get(key)
    if status is None:
        status = ctx.statuses[key] = _decide(ctx, frame, *key)
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
    up, nonempty, selection = ctx.up, ctx.nonempty, frame.selection
    table = ctx.rows.setdefault(b, {})
    believed = list(bits(b))

    def row(event: int) -> tuple[int, int, int, int]:
        got = table.get(event)
        if got is None:
            out, missing = 0, -1
            for j in believed:
                r = selection.get((j, event))
                if r is None:
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
