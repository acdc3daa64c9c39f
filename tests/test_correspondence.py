import itertools
import json
import random
from pathlib import Path

import pytest
from conftest import frame_of, relabel_frame

from doxatest import correspondence
from doxatest.axioms import AxiomId, ModelContext, Status, axiom_holds, replay_witness
from doxatest.correspondence import (
    ATOM_NAMES,
    PAIRS,
    CorrespondencePair,
    CorrespondenceReport,
    FrameGenSpec,
    Scope,
    build_census,
    build_witness_model,
    correspondence_verdict,
    count_base_tables,
    enumerate_frames,
    pair_for,
    _partitions,
)
from doxatest.errors import DoxatestError, InvalidWitnessError, SizeLimitError
from doxatest.frames import Frame, Model, cells, complete_selection, frame_from_obj, validate_frame
from doxatest.limits import EXHAUSTIVE_VALUATION_BITS, VALUATION_SAMPLES
from doxatest.properties import (
    FrameClass,
    PropertyId,
    PropertyWitness,
    check_class,
    check_property,
    recheck_witness,
)

DATA = Path(__file__).parent / "data"


# --- registry -------------------------------------------------------------


def test_registry_contents():
    assert [(p.property.value, p.axiom.value, p.scope.value) for p in PAIRS] == [
        ("PD2", "D2", "all-states"),
        ("PD57", "D5", "all-states"),
        ("PD6", "D6", "all-states"),
        ("PD7", "D7", "pointed-states"),
        ("PD9", "D9", "pointed-states"),
        ("PR4", "R4", "all-states"),
        ("PR8", "R8", "all-states"),
    ]
    assert pair_for(PropertyId.PD57).axiom is AxiomId.D5
    with pytest.raises(KeyError):
        pair_for(PropertyId.BASE)


# --- enumeration ----------------------------------------------------------


def test_single_state_space_is_forced():
    frames = list(enumerate_frames(FrameGenSpec(states=1)))
    assert len(frames) == 1
    only = frames[0]
    assert only.belief == (0b1,)
    assert only.selection == {(0, 0b1): 0b1}


def test_two_state_count_matches_combinatorial_oracle():
    frames = list(enumerate_frames(FrameGenSpec(states=2)))
    expected = count_base_tables(2) * (2**2 - 1) ** 2
    assert len(frames) == len({
        (f.belief, tuple(sorted(f.selection.items()))) for f in frames
    }) == expected == 36
    for f in frames:
        assert validate_frame(f) == []


def test_three_state_stream_is_lazy_and_valid():
    stream = enumerate_frames(FrameGenSpec(states=3))
    sample = list(itertools.islice(stream, 200))
    assert len(sample) == 200
    for f in sample:
        assert validate_frame(f) == []


def test_exhaustive_guard():
    with pytest.raises(SizeLimitError):
        next(enumerate_frames(FrameGenSpec(states=5)))


def test_random_stream_is_seed_deterministic():
    a = list(enumerate_frames(FrameGenSpec(states=3, mode="random", seed=7, count=20)))
    b = list(enumerate_frames(FrameGenSpec(states=3, mode="random", seed=7, count=20)))
    c = list(enumerate_frames(FrameGenSpec(states=3, mode="random", seed=8, count=20)))
    assert a == b
    assert a != c
    for f in a:
        assert validate_frame(f) == []


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        next(enumerate_frames(FrameGenSpec(states=2, mode="alphabetical")))


# --- witness-to-countermodel, pair by pair --------------------------------


def violating_frame(prop):
    """Small frames violating exactly the property under test (taken from the
    worked examples in the property suite)."""
    if prop is PropertyId.PD2:
        return frame_of(2, [0b01, 0b10], {(0, 0b11): 0b11}, complete=True)
    if prop is PropertyId.PD57:
        with open(DATA / "pd57_separation.json") as fh:
            base = frame_from_obj(json.load(fh))
        return complete_selection(
            type(base)(base.states, (0b000010,) * 6, base.selection)
        )
    if prop is PropertyId.PD6:
        sel = {
            (0, 0b11100): 0b01000,
            (1, 0b11100): 0b01000,
            (0, 0b11000): 0b10000,
            (1, 0b11000): 0b10000,
        }
        return frame_of(5, [0b00011] * 5, sel, complete=True)
    if prop is PropertyId.PD7:
        return frame_of(
            4, [0b0001, 0b0010, 0b0100, 0b1000], {(0, 0b1110): 0b0100}, complete=True
        )
    if prop is PropertyId.PD9:
        return frame_of(
            4, [0b0001, 0b0010, 0b0100, 0b1000], {(0, 0b0110): 0b0100}, complete=True
        )
    if prop is PropertyId.PR4:
        return frame_of(3, [0b011] * 3, {(0, 0b110): 0b100}, complete=True)
    if prop is PropertyId.PR8:
        return frame_of(5, [0b00011] * 5, {(1, 0b01100): 0b01000}, complete=True)
    raise AssertionError(prop)


def test_pd9_failure_fixture_is_the_pointed_pd9_frame():
    # the CI pins this file's STRONG_UPDATE and REVISION_STRICT reports
    with open(DATA / "pd9_failure.json") as fh:
        assert frame_from_obj(json.load(fh)) == violating_frame(PropertyId.PD9)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.property.value)
def test_every_pair_witness_converts_to_countermodel(pair):
    frame = violating_frame(pair.property)
    verdict = check_property(frame, pair.property)
    assert not verdict.holds
    wm = build_witness_model(frame, pair, verdict.witness)
    assert wm.axiom is pair.axiom
    assert axiom_holds(wm.model, wm.state, pair.axiom).status is Status.FAILS
    assert replay_witness(wm.model, wm.state, wm.axiom, wm.instance)


def test_witness_model_atoms_follow_the_events():
    frame = violating_frame(PropertyId.PD2)
    w = check_property(frame, PropertyId.PD2).witness
    wm = build_witness_model(frame, pair_for(PropertyId.PD2), w)
    assert wm.model.valuation == {"p": w.e, "q": frame.belief[w.s]}


def test_stale_witness_rejected():
    frame = violating_frame(PropertyId.PD2)
    w = check_property(frame, PropertyId.PD2).witness
    clean = frame_of(2, [0b01, 0b10], complete=True)
    with pytest.raises(InvalidWitnessError):
        build_witness_model(clean, pair_for(PropertyId.PD2), w)
    with pytest.raises(InvalidWitnessError):
        build_witness_model(frame, pair_for(PropertyId.PR4), w)


def test_disjoint_pd57_witness_rejected():
    # with E and F disjoint there is no instance to violate, and no selection
    # at the empty event E & F to consult
    frame = frame_of(2, [0b01, 0b10], complete=True)
    for pid in (PropertyId.PD57, PropertyId.PD57_STRONG):
        assert recheck_witness(frame, PropertyWitness(pid, 0, 0, 0b01, 0b10)) is False
    with pytest.raises(InvalidWitnessError):
        build_witness_model(
            frame,
            pair_for(PropertyId.PD57),
            PropertyWitness(PropertyId.PD57, 0, 0, 0b01, 0b10),
        )
    # s' must lie in B(s): s1 breaks the instance for its own belief set, but
    # s0 believes only s0, where PD57 holds
    pointed = frame_of(3, [0b001, 0b010, 0b100], complete=True)
    assert check_property(pointed, PropertyId.PD57).holds
    outside = PropertyWitness(PropertyId.PD57, s=0, s_prime=1, e=0b011, f=0b011)
    assert recheck_witness(pointed, outside) is False
    with pytest.raises(InvalidWitnessError):
        build_witness_model(pointed, pair_for(PropertyId.PD57), outside)


def test_witness_naming_no_instance_is_rejected():
    # a state outside the frame, an E outside 1..full, a pair property's F
    # missing or outside it, an s' missing or outside B(s): each names no
    # instance, so it rechecks False before any predicate reads it, and the
    # countermodel builder refuses it instead of passing an error up
    frame = complete_selection(Frame(("a", "b", "c"), (3, 3, 4), {}))
    bad = [
        PropertyWitness(PropertyId.PD2, s=7, s_prime=0, e=3),
        PropertyWitness(PropertyId.PD2, s=-1, s_prime=0, e=3),
        PropertyWitness(PropertyId.PD57, s=0, s_prime=None, e=3, f=1),
        PropertyWitness(PropertyId.PD57, s=0, s_prime=-1, e=3, f=1),
        PropertyWitness(PropertyId.PD57, s=0, s_prime=2, e=7, f=4),
        PropertyWitness(PropertyId.PD2, s=0, s_prime=0, e=None),
        PropertyWitness(PropertyId.PD2, s=0, s_prime=0, e=-1),
        PropertyWitness(PropertyId.PD2, s=0, s_prime=0, e=8),
        PropertyWitness(PropertyId.PR8, s=0, s_prime=0, e=3, f=None),
        PropertyWitness(PropertyId.PR8, s=0, s_prime=0, e=3, f=0),
    ]
    for w in bad:
        assert recheck_witness(frame, w) is False, w
        with pytest.raises(InvalidWitnessError):
            build_witness_model(frame, pair_for(w.property), w)


# --- two-directional verdicts ---------------------------------------------


def test_both_legs_on_single_state_frame():
    frame = next(enumerate_frames(FrameGenSpec(states=1)))
    for pair in PAIRS:
        report = correspondence_verdict(frame, pair)
        assert report.property_holds and report.agrees


def test_positive_leg_on_separation_frame():
    with open(DATA / "pd57_separation.json") as fh:
        frame = complete_selection(frame_from_obj(json.load(fh)))
    pair = pair_for(PropertyId.PD57)
    report = correspondence_verdict(frame, pair, atom_budget=2)
    assert report.property_holds and report.agrees
    assert report.models_checked == 2 ** (6 * 2)
    obj = report.to_obj(frame)
    assert obj["propertyHolds"] and obj["agrees"]
    assert obj["modelsChecked"] == 4096


def test_negative_leg_on_pointed_variant():
    frame = violating_frame(PropertyId.PD57)
    report = correspondence_verdict(frame, pair_for(PropertyId.PD57))
    assert not report.property_holds
    assert report.agrees  # witness converted and confirmed
    assert report.property_witness is not None
    obj = report.to_obj(frame)
    assert obj["witness"]["E"] == ["s3", "s4", "s5"]


def test_all_pairs_agree_across_random_frames():
    rng_seeds = range(25)
    for seed in rng_seeds:
        frame = next(
            enumerate_frames(FrameGenSpec(states=3, mode="random", seed=seed, count=1))
        )
        for pair in PAIRS:
            report = correspondence_verdict(frame, pair)
            assert report.agrees, (seed, pair.property)


def test_pointed_scope_skips_fat_states():
    # PD7 fails on this frame only through its pointed state s0
    frame = violating_frame(PropertyId.PD7)
    fat = frame_of(4, [0b0011] * 4, dict(frame.selection))
    report = correspondence_verdict(fat, pair_for(PropertyId.PD7))
    assert report.property_holds and report.agrees


def test_verdict_invariant_under_relabeling():
    frame = violating_frame(PropertyId.PR4)
    for perm in ([1, 2, 0], [2, 0, 1]):
        relabeled = relabel_frame(frame, perm)
        for pair in PAIRS:
            a = correspondence_verdict(frame, pair)
            b = correspondence_verdict(relabeled, pair)
            assert a.property_holds == b.property_holds
            assert a.agrees == b.agrees


def test_atom_budget_bounds():
    frame = frame_of(2, [0b01, 0b10], complete=True)
    with pytest.raises(ValueError):
        correspondence_verdict(frame, PAIRS[0], atom_budget=0)
    with pytest.raises(ValueError):
        correspondence_verdict(frame, PAIRS[0], atom_budget=4)


def literal_verdict(frame, pair, atom_budget, seed=0):
    """The holds side swept one valuation at a time: a `Model` and `cells`
    per valuation, one decision per partition, stopping at the first
    failing valuation.  When the property fails, its witness's countermodel
    must fail the postulate and replay the converted instance."""
    verdict = check_property(frame, pair.property)
    if not verdict.holds:
        wm = build_witness_model(frame, pair, verdict.witness)
        fails = axiom_holds(wm.model, wm.state, pair.axiom).status is Status.FAILS
        agrees = fails and replay_witness(wm.model, wm.state, wm.axiom, wm.instance)
        return CorrespondenceReport(pair, False, agrees, 1, property_witness=verdict.witness)
    atoms = ATOM_NAMES[:atom_budget]
    n = frame.n
    if n * atom_budget <= EXHAUSTIVE_VALUATION_BITS:
        assignments = itertools.product(range(1 << n), repeat=atom_budget)
    else:
        rng = random.Random(seed)
        assignments = (
            tuple(rng.randrange(0, 1 << n) for _ in atoms)
            for _ in range(VALUATION_SAMPLES)
        )
    scope = [
        i for i in range(n)
        if pair.scope is Scope.ALL_STATES or frame.belief[i].bit_count() == 1
    ]
    checked = 0
    memo: dict = {}
    for masks in assignments:
        model = Model(frame, dict(zip(atoms, masks)))
        checked += 1
        key = cells(model)
        if key not in memo:
            ctx = ModelContext.of(model, cell_masks=key)
            memo[key] = {i: axiom_holds(model, i, pair.axiom, ctx=ctx).status for i in scope}
        for i, status in memo[key].items():
            if status is Status.FAILS:
                return CorrespondenceReport(
                    pair, True, False, checked, counterexample=(dict(zip(atoms, masks)), i)
                )
    return CorrespondenceReport(pair, True, True, checked)


def _outcome(run):
    try:
        return run()
    except DoxatestError as exc:
        return (type(exc), str(exc))


MISMATCHED = (
    CorrespondencePair(PropertyId.PD2, AxiomId.D9),
    CorrespondencePair(PropertyId.PR4, AxiomId.R8),
    CorrespondencePair(PropertyId.PD6, AxiomId.D5),
    CorrespondencePair(PropertyId.PD57, AxiomId.D6),
    CorrespondencePair(PropertyId.PD9, AxiomId.D7, Scope.POINTED_STATES),
    CorrespondencePair(PropertyId.PR8, AxiomId.R4),
    CorrespondencePair(PropertyId.PD7, AxiomId.D2),
    CorrespondencePair(PropertyId.PD2, AxiomId.D7),
)
# the registered D7 and D9 pairs at every state, where a coarser partition
# can fail while every finest one holds
UNPOINTED = (
    CorrespondencePair(PropertyId.PD7, AxiomId.D7),
    CorrespondencePair(PropertyId.PD9, AxiomId.D9),
)


def test_partition_sweep_matches_the_literal_valuation_sweep():
    # Registered and mismatched pairs at budgets 1-3 on every 1-state frame,
    # a slice of the 2-state enumeration, seeded 3- to 5-state frames (5
    # states at budget 3 is the seeded sample), and copies of some of them
    # with a quarter of their rows dropped: the report, or the first error,
    # must be the literal sweep's.  Mismatched pairs fail on some models, so
    # the ordered scan has to find the literal first counterexample; dropped
    # rows make some partitions raise after the property held.
    frames = list(enumerate_frames(FrameGenSpec(states=1)))
    frames += list(enumerate_frames(FrameGenSpec(states=2)))[:60:3]
    seeded = []
    for n, count in ((3, 6), (4, 6), (5, 1)):
        spec = FrameGenSpec(states=n, mode="random", seed=40 + n, count=count)
        seeded += list(enumerate_frames(spec))
    rng = random.Random(3)
    for fr in seeded + frames[1:21:2]:
        keep = [k for k in sorted(fr.selection) if rng.random() > 0.25]
        frames.append(Frame(fr.states, fr.belief, {k: fr.selection[k] for k in keep}))
    frames += seeded
    frames += list(enumerate_frames(FrameGenSpec(states=4, mode="random", seed=6, count=3)))[2:]
    early_stops = sweep_errors = refuted = 0
    for frame in frames:
        for pair in PAIRS + MISMATCHED + UNPOINTED:
            holds = _outcome(lambda: check_property(frame, pair.property).holds)
            if holds is False:
                # the witness leg sweeps nothing and ignores the budget
                got = _outcome(lambda: correspondence_verdict(frame, pair, seed=9))
                want = _outcome(lambda: literal_verdict(frame, pair, 1))
                if isinstance(want, tuple):
                    assert got == want, (frame, pair)
                    continue
                assert got.to_obj(frame) == want.to_obj(frame), (frame, pair)
                refuted += pair in MISMATCHED and not got.agrees
                continue
            if holds is not True:
                continue
            for budget in (1, 2, 3):
                got = _outcome(lambda: correspondence_verdict(frame, pair, budget, seed=9))
                want = _outcome(lambda: literal_verdict(frame, pair, budget, seed=9))
                if isinstance(want, tuple):
                    assert got == want, (frame, pair, budget)
                    sweep_errors += 1
                    continue
                assert got.to_obj(frame) == want.to_obj(frame), (frame, pair, budget)
                early_stops += want.models_checked < 1 << (frame.n * budget)
    assert early_stops > 50 and sweep_errors > 5 and refuted > 20, (
        early_stops, sweep_errors, refuted
    )


def test_a_one_event_witness_never_replays_a_pair_postulate():
    # PD2 and PR4 witnesses name no F, while D7, D9 and R8 quantify over
    # (E, F): each report says the countermodel does not agree, on frames
    # where the postulate does fail on the witness model as well.
    frames = list(itertools.islice(enumerate_frames(FrameGenSpec(states=3, mode="random", seed=43)), 6))
    pairs = (
        CorrespondencePair(PropertyId.PD2, AxiomId.D9),
        CorrespondencePair(PropertyId.PR4, AxiomId.R8),
        CorrespondencePair(PropertyId.PD2, AxiomId.D7),
    )
    postulate_fails = 0
    for frame in frames:
        for pair in pairs:
            report = correspondence_verdict(frame, pair)
            assert not report.property_holds and not report.agrees
            assert report.property_witness.f is None
            wm = build_witness_model(frame, pair, report.property_witness)
            postulate_fails += axiom_holds(wm.model, wm.state, pair.axiom).status is Status.FAILS
            assert not replay_witness(wm.model, wm.state, wm.axiom, wm.instance)
    assert postulate_fails >= 8, postulate_fails


def test_a_holding_frame_decides_each_partition_once(monkeypatch):
    # only the partitions into exactly min(4, 2^budget) blocks: every
    # coarser one is refined by one of them
    decided = []
    of = ModelContext.of

    def spy(model, **kwargs):
        decided.append(kwargs["cell_masks"])
        return of(model, **kwargs)

    monkeypatch.setattr(ModelContext, "of", staticmethod(spy))
    frame = frame_of(4, [0b0001, 0b0010, 0b0100, 0b1000], complete=True)
    for budget, partitions in ((1, 7), (2, 1), (3, 1)):
        for pair in PAIRS:
            decided.clear()
            report = correspondence_verdict(frame, pair, atom_budget=budget)
            assert report.property_holds and report.agrees
            assert report.models_checked == 1 << (4 * budget)
            assert decided == list(_partitions(4, min(4, 1 << budget), 1 << budget))
            assert len(decided) == partitions


def test_an_unpointed_d7_decides_every_partition():
    # D7 applies only where B(s) lies in one cell: at s0, B = {s1, s3}, the
    # partition {s0} | {s1, s3} | {s2} applies it and fails, while the
    # discrete partition, the only one with four blocks, does not apply it
    frame = list(enumerate_frames(FrameGenSpec(states=4, mode="random", seed=6, count=60)))[2]
    assert frame.belief == (0b1010, 0b0101, 0b0110, 0b0111)
    report = correspondence_verdict(frame, UNPOINTED[0], atom_budget=2)
    assert report.to_obj(frame) == {
        "property": "PD7",
        "axiom": "D7",
        "scope": "all-states",
        "propertyHolds": True,
        "agrees": False,
        "modelsChecked": 21,
        "counterexample": {"valuation": {"p": ["s0"], "q": ["s2"]}, "s": "s0"},
    }


@pytest.mark.parametrize("seed", [0, 1])
def test_the_seeded_sample_decides_beyond_the_exhaustive_bits(seed):
    # 5 states x 3 atoms is past EXHAUSTIVE_VALUATION_BITS, and at all
    # states a fat belief set makes lo = 1 < 5 for D7 and D9, so neither the
    # partitions nor the discrete shortcut decide: the seeded sample does
    frame = frame_from_obj(json.loads((DATA / "census_5state_centered.json").read_text()))
    assert 5 * 3 > EXHAUSTIVE_VALUATION_BITS
    assert any(b.bit_count() > 1 for b in frame.belief)
    pd7, pd9 = UNPOINTED
    held = correspondence_verdict(frame, pd7, atom_budget=3, seed=seed)
    assert (held.property_holds, held.agrees, held.models_checked) == (True, True, VALUATION_SAMPLES)
    assert held.counterexample is None
    failed = correspondence_verdict(frame, pd9, atom_budget=3, seed=seed)
    assert (failed.property_holds, failed.agrees) == (True, False)
    assert (failed.models_checked, failed.counterexample) == {
        0: (24, ({"p": 8, "q": 9, "r": 2}, 1)),
        1: (33, ({"p": 21, "q": 29, "r": 1}, 1)),
    }[seed]


def _stirling2(n, k):
    if n == k:
        return 1
    if not k or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _profile_cells(masks, n):
    # states grouped by the tuple of atoms true at them, by lowest member
    groups = {}
    for i in range(n):
        profile = tuple((m >> i) & 1 for m in masks)
        groups[profile] = groups.get(profile, 0) | (1 << i)
    return tuple(sorted(groups.values(), key=lambda m: m & -m))


def test_partitions_are_the_cells_of_every_valuation():
    counts = {}
    for n in range(1, 6):
        frame = frame_of(n, [(1 << n) - 1] * n)
        for budget in (1, 2, 3):
            got = list(_partitions(n, 1, 1 << budget))
            if n < 5:
                seen = set()
                for masks in itertools.product(range(1 << n), repeat=budget):
                    key = cells(Model(frame, dict(zip(ATOM_NAMES, masks))))
                    assert key == _profile_cells(masks, n)
                    seen.add(key)
                assert len(got) == len(set(got)) and set(got) == seen
            # the lo-bounded generator cuts the coarser partitions, in order
            for lo in range(1, n + 1):
                bounded = list(_partitions(n, lo, 1 << budget))
                assert bounded == [p for p in got if len(p) >= lo]
                want = sum(_stirling2(n, k) for k in range(lo, (1 << budget) + 1))
                assert len(bounded) == want
                counts[n, budget, lo] = want
    assert [counts[4, b, 1] for b in (1, 2, 3)] == [8, 15, 15]
    assert [counts[3, b, 1] for b in (1, 2, 3)] == [4, 5, 5]
    assert [counts[4, b, min(4, 1 << b)] for b in (1, 2, 3)] == [7, 1, 1]
    assert [counts[5, b, min(5, 1 << b)] for b in (1, 2, 3)] == [15, 10, 1]


# --- census ---------------------------------------------------------------


def test_census_shape_and_counts():
    frames = [
        frame_of(2, [0b01, 0b10], complete=True),
        violating_frame(PropertyId.PD2),
    ]
    census = build_census(frames)
    assert census["summary"]["frameCount"] == 2
    assert census["summary"]["disagreements"] == 0
    row = census["frames"][0]
    assert row["index"] == 0
    assert row["classes"] == {
        "UPDATE": True,
        "STRONG_UPDATE": True,
        "REVISION_DEF12": True,
        "REVISION_STRICT": True,
    }
    assert [p["property"] for p in row["pairs"]] == [
        "PD2", "PD57", "PD6", "PD7", "PD9", "PR4", "PR8",
    ]
    second = census["frames"][1]
    assert second["classes"]["UPDATE"] is False
    pd2_report = second["pairs"][0]
    assert pd2_report["propertyHolds"] is False and pd2_report["agrees"] is True


def census_class_by_class(frames, atom_budget, pairs):
    """The census as `check_class` on each class, then `correspondence_verdict`
    on each pair, decide it: one property check per recipe entry and pair."""
    rows, disagreements = [], 0
    for idx, frame in enumerate(frames):
        classes = {cls.value: check_class(frame, cls).holds for cls in FrameClass}
        reports = [correspondence_verdict(frame, pair, atom_budget) for pair in pairs]
        disagreements += sum(not r.agrees for r in reports)
        rows.append({"index": idx, "states": list(frame.states), "classes": classes,
                     "pairs": [r.to_obj(frame) for r in reports]})
    return {"frames": rows, "summary": {"frameCount": len(rows), "disagreements": disagreements}}


def test_census_decides_each_property_once_per_frame(monkeypatch):
    # seeded 3- and 4-state frames and copies with a tenth of their rows
    # dropped: the same census, or the same first error, with at most one
    # check per (frame, property), with the pairs in order and reversed.
    # On some copies a census that skipped the rest of a recipe once one
    # property failed would reach another missing row first.
    complete = []
    for n, seed in ((3, 60), (4, 65)):
        complete += list(enumerate_frames(FrameGenSpec(states=n, mode="random", seed=seed, count=5)))
    rng = random.Random(5)
    partial = [
        Frame(fr.states, fr.belief, {k: v for k, v in sorted(fr.selection.items()) if rng.random() > 0.1})
        for fr in complete
    ]
    calls = []

    def spy(frame, pid, **kwargs):
        calls.append((id(frame), pid))
        return check_property(frame, pid, **kwargs)

    raised = 0
    for pairs in (PAIRS, PAIRS[::-1]):
        for frames in [[fr] for fr in complete + partial] + [complete, partial]:
            want = _outcome(lambda: census_class_by_class(frames, 2, pairs))
            calls.clear()
            with monkeypatch.context() as patched:
                patched.setattr(correspondence, "check_property", spy)
                got = _outcome(lambda: build_census(frames, atom_budget=2, pairs=pairs))
            assert got == want, (frames, pairs)
            assert len(calls) == len(set(calls))
            raised += isinstance(want, tuple)
            if not isinstance(want, tuple):
                assert len(calls) == 8 * len(frames)
    assert raised >= 8, raised


def _ranked_frame(rng, n):
    # each state selects the least-ranked states of E, itself ranked 0: the
    # centred-order shape, on which most pairs hold and every partition is decided
    belief = [rng.randrange(1, 1 << n) for _ in range(n)]
    selection = {}
    for s in range(n):
        ranks = [0 if i == s else rng.randrange(1, n + 1) for i in range(n)]
        for e in range(1, 1 << n):
            low = min(ranks[i] for i in range(n) if e >> i & 1)
            selection[s, e] = sum(1 << i for i in range(n) if e >> i & 1 and ranks[i] == low)
    return frame_of(n, belief, selection)


def test_census_decides_each_partition_once_per_frame(monkeypatch):
    # complete and row-dropped 3- and 4-state frames, at budgets 1-3, with
    # the pairs in order, reversed, and with the unpointed D7 and D9 pairs,
    # whose lo differs: the census class by class, or its first error, with
    # each (frame, cell partition) given one context across the frame's pairs
    rng = random.Random(71)
    complete = [_ranked_frame(rng, n) for n in (3, 3, 4, 4)]
    complete += list(enumerate_frames(FrameGenSpec(states=3, mode="random", seed=72, count=2)))
    complete.append(frame_of(4, [0b0011, 0b0010, 0b1100, 0b1000], complete=True))
    partial = [
        Frame(fr.states, fr.belief, {k: v for k, v in sorted(fr.selection.items()) if rng.random() > 0.1})
        for fr in complete
    ]
    built, of = [], ModelContext.of

    def spy(model, **kwargs):
        if "cell_masks" in kwargs:  # a partition, not a witness countermodel
            built.append((id(model.frame), kwargs["cell_masks"]))
        return of(model, **kwargs)

    monkeypatch.setattr(ModelContext, "of", staticmethod(spy))
    raised = shared = 0
    for pairs in (PAIRS, PAIRS[::-1], PAIRS + UNPOINTED):
        for budget in (1, 2, 3):
            for frame in complete + partial:
                built.clear()
                want = _outcome(lambda: census_class_by_class([frame], budget, pairs))
                per_pair = len(built)
                built.clear()
                got = _outcome(lambda: build_census([frame], atom_budget=budget, pairs=pairs))
                assert got == want, (frame, pairs, budget)
                assert len(built) == len(set(built)), (frame, pairs, budget)
                raised += isinstance(want, tuple)
                shared += per_pair - len(built)
    assert raised >= 10 and shared >= 500, (raised, shared)
