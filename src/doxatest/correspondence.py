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
random stream.  `def12_gap_probe` searches the territory between the two
revision recipes: frames where the bare revision conditions hold but the
conjunction condition fails.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .axioms import (
    AxiomId,
    AxiomWitness,
    ModelContext,
    Status,
    axiom_holds,
    replay_witness,
)
from .errors import DoxatestError, InvalidWitnessError
from .frames import Frame, Model, _default_rule, cells_of, frame_to_obj, relabel_frame, subsets_of
from .limits import (
    EXHAUSTIVE_STATE_LIMIT,
    EXHAUSTIVE_VALUATION_BITS,
    VALUATION_ATOM_LIMIT,
    VALUATION_SAMPLES,
    refuse_beyond,
)
from .properties import (
    FrameClass,
    PropertyId,
    PropertyWitness,
    check_class,
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
    enforce_base: bool = True
    dedup: bool = False


def _entry_choices(s: int, event: int) -> list[int]:
    """Selections allowed at (s, event) by the base clauses: nonempty
    subsets of the event, containing s whenever s lies in the event."""
    fixed = event & (1 << s)
    return [x | fixed for x in subsets_of(event & ~fixed) if x | fixed]


def canonical_key(frame: Frame):
    """Smallest serialization over all state relabelings."""
    best = None
    for perm in itertools.permutations(range(frame.n)):
        re = relabel_frame(frame, perm)
        key = (re.belief, tuple(sorted(re.selection.items())))
        if best is None or key < best:
            best = key
    return best


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
    keys = [(s, e) for s in range(n) for e in range(1, full + 1)]
    choice_lists = [_entry_choices(s, e) for s, e in keys]
    seen: set = set()
    for belief in itertools.product(range(1, full + 1), repeat=n):
        for picks in itertools.product(*choice_lists):
            frame = Frame(states, belief, dict(zip(keys, picks)))
            if spec.dedup:
                key = canonical_key(frame)
                if key in seen:
                    continue
                seen.add(key)
            yield frame


def _random_stream(spec: FrameGenSpec) -> Iterator[Frame]:
    n = spec.states
    rng = random.Random(spec.seed)
    states = tuple(f"s{i}" for i in range(n))
    full = (1 << n) - 1
    produced = 0
    while spec.count is None or produced < spec.count:
        if spec.enforce_base:
            belief = tuple(rng.randrange(1, full + 1) for _ in range(n))
            selection = {}
            for s in range(n):
                for e in range(1, full + 1):
                    t = e & rng.randrange(1, full + 1)
                    if not t:
                        t = e & -e
                    if (1 << s) & e:
                        t |= 1 << s
                    selection[(s, e)] = t
        else:
            belief = tuple(rng.randrange(0, full + 1) for _ in range(n))
            selection = {
                (s, e): rng.randrange(0, full + 1)
                for s in range(n)
                for e in range(1, full + 1)
            }
        yield Frame(states, belief, selection)
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


def build_witness_model(
    frame: Frame, pair: CorrespondencePair, witness: PropertyWitness
) -> WitnessModel:
    if witness.property is not pair.property or not recheck_witness(frame, witness):
        raise InvalidWitnessError(
            f"witness does not violate {pair.property.value} on this frame"
        )
    s, i, e, f = witness.s, witness.s_prime, witness.e, witness.f
    b = frame.belief[s]
    full = frame.full
    sup = frame.sup

    prop = pair.property
    if prop is PropertyId.PD2:
        valuation = {"p": e, "q": b}
        instance = AxiomWitness(e=e, g=b)
    elif prop is PropertyId.PD57:
        r = sup(b, e & f)
        valuation = {"p": e, "q": f, "r": r}
        instance = AxiomWitness(e=e, f=f, g=r)
    elif prop is PropertyId.PD6:
        sup_e, sup_f = sup(b, e), sup(b, f)
        r = sup_f if sup_e & ~sup_f else sup_e
        valuation = {"p": e, "q": f, "r": r}
        instance = AxiomWitness(e=e, f=f, g=r)
    elif prop is PropertyId.PD7:
        r = frame.sel(i, e) | frame.sel(i, f)
        valuation = {"p": e, "q": f, "r": r}
        instance = AxiomWitness(e=e, f=f, g=r)
    elif prop is PropertyId.PD9:
        r = frame.sel(i, e) & f
        valuation = {"p": e, "q": f, "r": r}
        instance = AxiomWitness(e=e, f=f, g=r)
    elif prop is PropertyId.PR4:
        valuation = {"p": e, "q": b & e}
        # the separating formula is "p -> q": kept believed, lost on change
        instance = AxiomWitness(e=e, g=(~e & full) | (b & e))
    elif prop is PropertyId.PR8:
        r = sup(b, e) & f
        valuation = {"p": e, "q": f, "r": r}
        instance = AxiomWitness(e=e, f=f, g=r)
    else:
        raise InvalidWitnessError(f"no countermodel recipe for {prop}")
    return WitnessModel(Model(frame, valuation), s, pair.axiom, instance)


# --- the two-directional verdict ------------------------------------------


ATOM_NAMES = ("p", "q", "r")


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


def _partitions(n: int, max_blocks: int) -> Iterator[tuple[int, ...]]:
    """Each partition of states 0..n-1 into at most `max_blocks` blocks, as
    block masks sorted by lowest bit (restricted growth strings)."""
    blocks: list[int] = []

    def grow(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(blocks)
            return
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
    model over `atom_budget` atoms.  A model's definable events, and so its
    verdict, depend only on its cell partition.  While the valuation space is
    at most 2^12, each partition of the states into at most 2^atom_budget
    blocks (at most Bell(n) of them) is decided once, on a representative
    whose atom k holds on the blocks with bit k set in their index; when all
    hold, `models_checked` is the size of the valuation space.  When one
    fails or raises, an ordered scan of the valuations reports the first
    counterexample, or raises the first error, in valuation order.  Beyond
    2^12 the scan runs over a seeded sample of 150 valuations.  The scan
    decides each partition once too, building a model only for a new one.

    Property fails: the witness must convert to a countermodel on which the
    postulate demonstrably fails.
    """
    if not 1 <= atom_budget <= VALUATION_ATOM_LIMIT:
        raise ValueError(f"atom budget must be between 1 and {VALUATION_ATOM_LIMIT}")
    verdict = check_property(frame, pair.property)
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
    memo: dict = {}

    def statuses_of(masks: Sequence[int], key: tuple[int, ...]) -> dict:
        statuses = memo.get(key)
        if statuses is None:
            model = Model(frame, dict(zip(atoms, masks)))
            ctx = ModelContext.of(model, cell_masks=key)
            statuses = memo[key] = {
                i: axiom_holds(model, i, pair.axiom, ctx=ctx).status
                for i in scope_states
            }
        return statuses

    if n * atom_budget <= EXHAUSTIVE_VALUATION_BITS:
        try:
            for blocks in _partitions(n, 1 << atom_budget):
                # block j gets sign pattern j: atom k holds on the (disjoint)
                # blocks whose index has bit k set
                rep = [sum(c for j, c in enumerate(blocks) if j >> k & 1)
                       for k in range(atom_budget)]
                if Status.FAILS in statuses_of(rep, blocks).values():
                    break
            else:
                return CorrespondenceReport(
                    pair, property_holds=True, agrees=True, models_checked=1 << (n * atom_budget)
                )
        except DoxatestError:
            pass  # the ordered scan raises the first error in valuation order
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
    """Classify each frame and run every pairing on it; stable field order."""
    rows = []
    disagreements = 0
    for idx, frame in enumerate(frames):
        classes = {
            cls.value: check_class(frame, cls).holds for cls in FrameClass
        }
        pair_objs = []
        for pair in pairs:
            report = correspondence_verdict(
                frame, pair, atom_budget=atom_budget, seed=seed
            )
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


# --- the definition gap probe ---------------------------------------------


@dataclass(frozen=True)
class GapTier:
    name: str
    frames_checked: int
    members: int  # frames satisfying the bare revision recipe
    separators: int  # members that nevertheless violate the conjunction law
    example: Frame | None = None

    def to_obj(self) -> dict:
        obj: dict = {
            "tier": self.name,
            "framesChecked": self.frames_checked,
            "members": self.members,
            "separators": self.separators,
        }
        if self.example is not None:
            obj["example"] = frame_to_obj(self.example)
        return obj


@dataclass(frozen=True)
class GapReport:
    tiers: tuple[GapTier, ...]

    @property
    def gap_found(self) -> bool:
        return any(t.separators for t in self.tiers)

    def to_obj(self) -> dict:
        return {"gapFound": self.gap_found, "tiers": [t.to_obj() for t in self.tiers]}


def _tier_over(name: str, frames) -> GapTier:
    checked = members = separators = 0
    example = None
    for frame in frames:
        checked += 1
        if not check_class(frame, FrameClass.REVISION_DEF12).holds:
            continue
        members += 1
        if not check_property(frame, PropertyId.PD57).holds:
            separators += 1
            if example is None:
                example = frame
    return GapTier(name, checked, members, separators, example)


def _pointed_uniform_candidates(n: int) -> Iterator[Frame]:
    """Frames with every state believing exactly {s0}: only the s0 selection
    row matters for the revision conditions, and on events containing s0 the
    base clauses plus the containment condition force the row to {s0} — so
    only entries at events avoiding s0 are free."""
    states = tuple(f"s{i}" for i in range(n))
    full = (1 << n) - 1
    free_events = [e for e in range(1, full + 1) if not e & 1]
    choice_lists = [_entry_choices(0, e) for e in free_events]
    for picks in itertools.product(*choice_lists):
        selection = {}
        for e in range(1, full + 1):
            if e & 1:
                selection[(0, e)] = 1
        selection.update(dict(zip([(0, e) for e in free_events], picks)))
        for s in range(1, n):
            for e in range(1, full + 1):
                selection[(s, e)] = _default_rule(s, e)
        yield Frame(states, (1,) * n, selection)


def def12_gap_probe(
    pointed_states: int = 4, random_states: int = 4, samples: int = 120, seed: int = 0
) -> GapReport:
    """Look for frames meeting the bare revision recipe while violating the
    conjunction condition, in three escalating tiers: exhaustively over all
    2-state frames, exhaustively over uniform-pointed frames (the shape where
    the two recipes can come apart), and a seeded random sample."""
    tiers = []
    small = itertools.chain(
        enumerate_frames(FrameGenSpec(states=1)),
        enumerate_frames(FrameGenSpec(states=2)),
    )
    tiers.append(_tier_over("exhaustive-le-2", small))
    tiers.append(
        _tier_over(
            f"pointed-uniform-{pointed_states}",
            _pointed_uniform_candidates(pointed_states),
        )
    )
    tiers.append(
        _tier_over(
            f"random-{random_states}",
            enumerate_frames(
                FrameGenSpec(
                    states=random_states, mode="random", seed=seed, count=samples
                )
            ),
        )
    )
    return GapReport(tuple(tiers))
