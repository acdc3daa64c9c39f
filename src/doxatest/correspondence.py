"""Two-directional links between frame conditions and postulates.

Each registered pair couples a frame property with the postulate it
characterizes.  `correspondence_verdict` tests both directions on a concrete
frame: when the property holds, the postulate must hold at every in-scope
state of every model over a small atom budget; when it fails, the property
witness is turned into a concrete countermodel (`build_witness_model`) whose
valuation follows the construction that makes the failure observable — the
atoms name the events involved in the violation, so the postulate fails at
the witness state.

`enumerate_frames` supplies the raw material: either every base-valid frame
over n states (lazily, the spaces grow doubly exponentially) or a seeded
random stream.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .axioms import (
    AxiomId,
    AxiomWitness,
    ModelContext,
    Status,
    _PLANS,
    axiom_holds,
    replay_witness,
)
from .errors import DoxatestError, InvalidWitnessError
from .frames import Frame, Model, cells_of, subsets_of
from .limits import (
    EXHAUSTIVE_STATE_LIMIT,
    EXHAUSTIVE_VALUATION_BITS,
    VALUATION_ATOM_LIMIT,
    VALUATION_SAMPLES,
    refuse_beyond,
)
from .properties import (
    CLASS_PROPERTIES,
    FrameClass,
    PropertyId,
    PropertyWitness,
    check_property,
    recheck_witness,
)


class Scope(str, Enum):
    ALL_STATES = "all-states"
    POINTED_STATES = "pointed-states"


@dataclass(frozen=True)
class CorrespondencePair:
    property: PropertyId
    axiom: AxiomId
    scope: Scope = Scope.ALL_STATES


PAIRS: tuple[CorrespondencePair, ...] = (
    CorrespondencePair(PropertyId.PD2, AxiomId.D2),
    CorrespondencePair(PropertyId.PD57, AxiomId.D5),
    CorrespondencePair(PropertyId.PD6, AxiomId.D6),
    CorrespondencePair(PropertyId.PD7, AxiomId.D7, Scope.POINTED_STATES),
    CorrespondencePair(PropertyId.PD9, AxiomId.D9, Scope.POINTED_STATES),
    CorrespondencePair(PropertyId.PR4, AxiomId.R4),
    CorrespondencePair(PropertyId.PR8, AxiomId.R8),
)


def pair_for(property_id: PropertyId) -> CorrespondencePair:
    for pair in PAIRS:
        if pair.property is property_id:
            return pair
    raise KeyError(f"no registered pair for {property_id}")


# --- frame generation -----------------------------------------------------


@dataclass(frozen=True)
class FrameGenSpec:
    states: int
    mode: str = "exhaustive"  # or "random"
    seed: int | None = None
    count: int | None = None  # random mode: stream length (None = unbounded)


def _entry_choices(s: int, event: int) -> list[int]:
    """Selections allowed at (s, event) by the base clauses: nonempty
    subsets of the event, containing s whenever s lies in the event."""
    fixed = event & (1 << s)
    return [x | fixed for x in subsets_of(event & ~fixed) if x | fixed]


def enumerate_frames(spec: FrameGenSpec) -> Iterator[Frame]:
    """Stream frames per the generation spec (lazy, deterministic)."""
    if spec.mode == "exhaustive":
        yield from _exhaustive(spec)
    elif spec.mode == "random":
        yield from _random_stream(spec)
    else:
        raise ValueError(f"unknown generation mode {spec.mode!r}")


def _exhaustive(spec: FrameGenSpec) -> Iterator[Frame]:
    n = spec.states
    refuse_beyond(n, EXHAUSTIVE_STATE_LIMIT, "states in an exhaustive enumeration")
    states = tuple(f"s{i}" for i in range(n))
    full = (1 << n) - 1
    choice_lists = [_entry_choices(s, e) for s in range(n) for e in range(1, full + 1)]
    for belief in itertools.product(range(1, full + 1), repeat=n):
        for picks in itertools.product(*choice_lists):
            rows = [(-1, *picks[s * full:(s + 1) * full]) for s in range(n)]
            yield Frame(states, belief, rows)


def _random_stream(spec: FrameGenSpec) -> Iterator[Frame]:
    n = spec.states
    rng = random.Random(spec.seed)
    states = tuple(f"s{i}" for i in range(n))
    full = (1 << n) - 1
    produced = 0
    while spec.count is None or produced < spec.count:
        belief = tuple(rng.randrange(1, full + 1) for _ in range(n))
        rows = []
        for s in range(n):
            row = [-1]
            for e in range(1, full + 1):
                t = e & rng.randrange(1, full + 1)
                if not t:
                    t = e & -e
                if (1 << s) & e:
                    t |= 1 << s
                row.append(t)
            rows.append(tuple(row))
        yield Frame(states, belief, rows)
        produced += 1


def count_base_tables(n: int) -> int:
    """Independent combinatorial count of base-valid selection tables for one
    belief relation: the per-entry choice counts multiply."""
    full = (1 << n) - 1
    total = 1
    for s in range(n):
        for e in range(1, full + 1):
            size = e.bit_count()
            total *= 2 ** (size - 1) if (1 << s) & e else 2**size - 1
    return total


# --- witness-to-countermodel construction ---------------------------------


@dataclass(frozen=True)
class WitnessModel:
    """Countermodel produced from a property violation: the postulate fails
    at `state`, and `instance` replays the failure via the membership
    primitives."""

    model: Model
    state: int
    axiom: AxiomId
    instance: AxiomWitness


def _pd6_third(frame, b, i, e, f):
    sup_e, sup_f = frame.sup(b, e), frame.sup(b, f)
    return sup_f if sup_e & ~sup_f else sup_e


# property -> R(frame, B(s), s', E, F): its countermodel is p = E, q = F, r = R
# with the instance (E, F, G = R)
_THIRD_EVENT = {
    PropertyId.PD57: lambda frame, b, i, e, f: frame.sup(b, e & f),
    PropertyId.PD6: _pd6_third,
    PropertyId.PD7: lambda frame, b, i, e, f: frame.sel(i, e) | frame.sel(i, f),
    PropertyId.PR8: lambda frame, b, i, e, f: frame.sup(b, e) & f,
}
_THIRD_EVENT[PropertyId.PD9] = _THIRD_EVENT[PropertyId.PR8]  # at B = {i}, Sup(B, E) = f(i, E)


def build_witness_model(
    frame: Frame, pair: CorrespondencePair, witness: PropertyWitness
) -> WitnessModel:
    if witness.property is not pair.property or not recheck_witness(frame, witness):
        raise InvalidWitnessError(
            f"witness does not violate {pair.property.value} on this frame"
        )
    s, i, e, f = witness.s, witness.s_prime, witness.e, witness.f
    b = frame.belief[s]
    prop = pair.property
    if prop is PropertyId.PD2:
        valuation = {"p": e, "q": b}
        instance = AxiomWitness(e=e, g=b)
    elif prop is PropertyId.PR4:
        valuation = {"p": e, "q": b & e}
        # the separating formula is "p -> q": kept believed, lost on change
        instance = AxiomWitness(e=e, g=(~e & frame.full) | (b & e))
    elif prop in _THIRD_EVENT:
        r = _THIRD_EVENT[prop](frame, b, i, e, f)
        valuation = {"p": e, "q": f, "r": r}
        instance = AxiomWitness(e=e, f=f, g=r)
    else:
        raise InvalidWitnessError(f"no countermodel recipe for {prop}")
    return WitnessModel(Model(frame, valuation), s, pair.axiom, instance)


# --- the two-directional verdict ------------------------------------------


# atom names in order: a sweep takes the first atom_budget, a round trip
# (`cli roundtrip`) the first --atoms
ATOM_NAMES = ("p", "q", "r", "s")


@dataclass(frozen=True)
class CorrespondenceReport:
    pair: CorrespondencePair
    property_holds: bool
    agrees: bool
    models_checked: int = 0
    property_witness: PropertyWitness | None = None
    counterexample: tuple[dict, int] | None = None

    def to_obj(self, frame: Frame) -> dict:
        obj: dict = {
            "property": self.pair.property.value,
            "axiom": self.pair.axiom.value,
            "scope": self.pair.scope.value,
            "propertyHolds": self.property_holds,
            "agrees": self.agrees,
            "modelsChecked": self.models_checked,
        }
        if self.property_witness is not None:
            obj["witness"] = self.property_witness.to_obj(frame)
        if self.counterexample is not None:
            valuation, state = self.counterexample
            obj["counterexample"] = {
                "valuation": {
                    a: list(frame.event_ids(m)) for a, m in sorted(valuation.items())
                },
                "s": frame.states[state],
            }
        return obj


def _in_scope_states(frame: Frame, pair: CorrespondencePair) -> list[int]:
    if pair.scope is Scope.POINTED_STATES:
        return [i for i in range(frame.n) if frame.belief[i].bit_count() == 1]
    return list(range(frame.n))


def _partitions(n: int, min_blocks: int, max_blocks: int) -> Iterator[tuple[int, ...]]:
    """Each partition of states 0..n-1 into `min_blocks` to `max_blocks`
    blocks, as block masks sorted by lowest bit (restricted growth strings);
    a branch that can no longer reach `min_blocks` is cut."""
    blocks: list[int] = []

    def grow(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(blocks)
            return
        if len(blocks) + n - i > min_blocks:
            for j in range(len(blocks)):
                blocks[j] |= 1 << i
                yield from grow(i + 1)
                blocks[j] ^= 1 << i
        if len(blocks) < max_blocks:
            blocks.append(1 << i)
            yield from grow(i + 1)
            blocks.pop()

    return grow(0)


def correspondence_verdict(
    frame: Frame,
    pair: CorrespondencePair,
    atom_budget: int = 2,
    seed: int = 0,
) -> CorrespondenceReport:
    """Play both directions of one pairing on one frame.

    Property holds: the postulate must hold at every in-scope state of every
    model over `atom_budget` atoms.  A model's verdict depends only on its
    cell partition.  If P' refines P (each P-cell a union of P'-cells), the
    postulate fails under P' wherever it fails under P: an instance's
    (y, x, both) depends only on (b, E, F), P-definable events are
    P'-definable and cl_P'(y) ⊆ cl_P(y).  Raises go the same way: a P'
    decision that ends without raising has read every Sup its full pair scan
    reads (`axioms._violations`), or, by a passing holds test, every
    P'-definable Sup with D1 holding, so D1 holds under P, whose scan then
    reads only P-definable Sups.  Both cover all that P's decision reads.  Each
    partition into at most 2^atom_budget blocks is refined by one into
    exactly lo = min(n, 2^atom_budget), so only those are decided, once
    each, on a representative whose atom k holds on the blocks with bit k
    set in their index (n <= 2^atom_budget: the discrete partition alone).
    Except for D7 and D9: they apply only where B(s) lies in one cell, which
    a coarser partition can grant and a finer deny, so lo = 1 when an
    in-scope B(s) has two states or more.  When all hold, `models_checked`
    is the size of the valuation space; when one fails or raises, an
    ordered scan of the valuations reports the first counterexample, or
    raises the first error.  Beyond 2^12 the scan runs over a seeded sample
    of 150 valuations, skipped with its report when lo = n and the discrete
    partition holds.

    Property fails: the witness must convert to a countermodel on which the
    postulate demonstrably fails.
    """
    return _verdict(frame, pair, functools.partial(check_property, frame), atom_budget, seed, {})


def _verdict(frame: Frame, pair: CorrespondencePair, verdict_of: Callable,
             atom_budget: int, seed: int, contexts: dict) -> CorrespondenceReport:
    """`correspondence_verdict`, reading property verdicts from `verdict_of`
    and decided partitions from `contexts` (partition -> `ModelContext` on
    its first model), which a caller may share across a frame's pairs with
    no report or first error changed: `found` is keyed by (belief set, memo
    key) and `closures` by belief set, so no postulate's entry answers
    another's but R8's, which shares D9's key; errors are never memoized;
    and a context's valuation differs from a later one of its partition
    only inside cells, as within one pair's ordered scan."""
    if not 1 <= atom_budget <= VALUATION_ATOM_LIMIT:
        raise ValueError(f"atom budget must be between 1 and {VALUATION_ATOM_LIMIT}")
    verdict = verdict_of(pair.property)
    scope_states = _in_scope_states(frame, pair)
    if not verdict.holds:
        witness_model = build_witness_model(frame, pair, verdict.witness)
        at = axiom_holds(witness_model.model, witness_model.state, pair.axiom)
        confirmed = at.status is Status.FAILS and replay_witness(
            witness_model.model,
            witness_model.state,
            witness_model.axiom,
            witness_model.instance,
        )
        return CorrespondenceReport(
            pair,
            property_holds=False,
            agrees=confirmed,
            models_checked=1,
            property_witness=verdict.witness,
        )

    atoms = ATOM_NAMES[:atom_budget]
    n = frame.n

    def statuses_of(masks: Sequence[int], key: tuple[int, ...]) -> dict:
        ctx = contexts.get(key)
        if ctx is None:
            model = Model(frame, dict(zip(atoms, masks)))
            ctx = contexts[key] = ModelContext.of(model, cell_masks=key)
        return {i: axiom_holds(ctx.model, i, pair.axiom, ctx=ctx).status for i in scope_states}

    exhaustive = n * atom_budget <= EXHAUSTIVE_VALUATION_BITS
    fat = any(frame.belief[i].bit_count() > 1 for i in scope_states)
    complete_only = _PLANS[pair.axiom].complete_only
    lo = 1 if fat and complete_only else min(n, 1 << atom_budget)
    if exhaustive or lo == n:
        try:
            for blocks in _partitions(n, lo, 1 << atom_budget):
                # block j gets sign pattern j: atom k holds on the (disjoint)
                # blocks whose index has bit k set
                rep = [sum(c for j, c in enumerate(blocks) if j >> k & 1)
                       for k in range(atom_budget)]
                if Status.FAILS in statuses_of(rep, blocks).values():
                    break
            else:
                checked = 1 << (n * atom_budget) if exhaustive else VALUATION_SAMPLES
                return CorrespondenceReport(pair, True, True, checked)
        except DoxatestError:
            pass  # the ordered scan raises the first error in valuation order
    if exhaustive:
        assignments = itertools.product(range(1 << n), repeat=atom_budget)
    else:
        rng = random.Random(seed)
        assignments = (
            tuple(rng.randrange(0, 1 << n) for _ in atoms)
            for _ in range(VALUATION_SAMPLES)
        )
    checked = 0
    for masks in assignments:
        checked += 1
        for i, status in statuses_of(masks, cells_of(masks, frame.full)).items():
            if status is Status.FAILS:
                return CorrespondenceReport(
                    pair,
                    property_holds=True,
                    agrees=False,
                    models_checked=checked,
                    counterexample=(dict(zip(atoms, masks)), i),
                )
    return CorrespondenceReport(
        pair, property_holds=True, agrees=True, models_checked=checked
    )


# --- census ---------------------------------------------------------------


def build_census(
    frames: Iterable[Frame],
    atom_budget: int = 2,
    seed: int = 0,
    pairs: Sequence[CorrespondencePair] = PAIRS,
) -> dict:
    """Classify each frame and run every pairing on it; stable field order.
    Each property is decided once per frame, in the order of the recipes read
    in full, so a partial frame raises what `check_class` per class would.
    Each cell partition gets one context per frame, read by all its pairs."""
    rows = []
    disagreements = 0
    for idx, frame in enumerate(frames):
        verdict_of = functools.cache(functools.partial(check_property, frame))
        classes = {
            cls.value: all([verdict_of(pid).holds for pid in CLASS_PROPERTIES[cls]])
            for cls in FrameClass
        }
        pair_objs, contexts = [], {}
        for pair in pairs:
            report = _verdict(frame, pair, verdict_of, atom_budget, seed, contexts)
            if not report.agrees:
                disagreements += 1
            pair_objs.append(report.to_obj(frame))
        rows.append(
            {
                "index": idx,
                "states": list(frame.states),
                "classes": classes,
                "pairs": pair_objs,
            }
        )
    return {
        "frames": rows,
        "summary": {
            "frameCount": len(rows),
            "disagreements": disagreements,
        },
    }

