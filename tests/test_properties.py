import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from conftest import frame_of, random_frame
from hypothesis import given, settings
from hypothesis import strategies as st

from doxatest import properties
from doxatest.correspondence import FrameGenSpec, enumerate_frames
from doxatest.errors import DoxatestError, SizeLimitError, UndefinedSelectionError
from doxatest.frames import (
    bits,
    complete_selection,
    frame_from_obj,
    mask_of,
    relabel_frame,
    subsets_of,
    validate_frame,
)
from doxatest.properties import (
    _CONDITIONS,
    CLASS_PROPERTIES,
    FrameClass,
    PropertyId,
    PropertyVerdict,
    PropertyWitness,
    _Second,
    check_class,
    check_pd57_literal,
    check_property,
    recheck_witness,
)

DATA = Path(__file__).parent / "data"


# --- the full/strong separation frame -------------------------------------


@pytest.fixture(scope="module")
def separation_frame():
    with open(DATA / "pd57_separation.json") as fh:
        partial = frame_from_obj(json.load(fh))
    return complete_selection(partial)


def test_separation_frame_is_valid(separation_frame):
    assert validate_frame(separation_frame) == []
    assert check_property(separation_frame, PropertyId.BASE).holds


def test_separation_frame_satisfies_pd57(separation_frame):
    assert check_property(separation_frame, PropertyId.PD57).holds


def test_separation_frame_fails_pd57_strong(separation_frame):
    verdict = check_property(separation_frame, PropertyId.PD57_STRONG)
    assert not verdict.holds
    w = verdict.witness
    assert w.s == 0 and w.s_prime == 1
    assert w.e == 0b111000 and w.f == 0b011000
    assert recheck_witness(separation_frame, w)
    obj = verdict.to_obj(separation_frame)
    assert obj == {
        "property": "PD57_STRONG",
        "holds": False,
        "witness": {
            "s": "s0",
            "sPrime": "s1",
            "E": ["s3", "s4", "s5"],
            "F": ["s3", "s4"],
        },
    }


def test_separation_instance_detail(separation_frame):
    # at the witness pair the one-shot inclusion fails but the pooled one holds:
    # f(s1,E) ∩ F = {s3,s4} while f(s1,E∩F) = {s3}, yet the union over the
    # belief set at E∩F is {s3,s4}
    fr = separation_frame
    e, f = 0b111000, 0b011000
    assert fr.sel(1, e) & f == 0b011000
    assert fr.sel(1, e & f) == 0b001000
    assert fr.sel(1, e & f) | fr.sel(2, e & f) == 0b011000


def test_separation_frame_class_membership(separation_frame):
    # no pointed states, so the pointed-scoped conditions hold vacuously
    assert check_class(separation_frame, FrameClass.UPDATE).holds
    assert check_class(separation_frame, FrameClass.STRONG_UPDATE).holds
    report = check_class(separation_frame, FrameClass.REVISION_DEF12)
    assert not report.holds
    failed = {v.property for v in report.verdicts if not v.holds}
    assert PropertyId.PR4 in failed


def test_pd57_literal_agrees_on_separation_frame(separation_frame):
    assert check_pd57_literal(separation_frame).holds


# --- hand-built violations with frozen first witnesses --------------------


def test_base_failure_reports_clause():
    broken = frame_of(2, [0b10, 0b00], complete=True)  # s1 believes nothing
    verdict = check_property(broken, PropertyId.BASE)
    assert not verdict.holds
    assert verdict.witness.clause == "seriality"
    assert verdict.to_obj(broken)["witness"]["s"] == "s1"


def test_pd2_violation():
    fr = frame_of(2, [0b01, 0b10], {(0, 0b11): 0b11}, complete=True)
    verdict = check_property(fr, PropertyId.PD2)
    assert not verdict.holds
    w = verdict.witness
    assert (w.s, w.s_prime, w.e) == (0, 0, 0b11)
    assert w.f is None
    assert recheck_witness(fr, w)


def test_pd2_holds_when_belief_reflexive(two_state_default):
    assert check_property(two_state_default, PropertyId.PD2).holds


def test_pr4_violation_with_pd2_intact():
    # everyone believes {s0, s1}; selection at {s1, s2} lands on s2, outside
    # the believed part of the event
    fr = frame_of(3, [0b011] * 3, {(0, 0b110): 0b100}, complete=True)
    assert check_property(fr, PropertyId.PD2).holds
    verdict = check_property(fr, PropertyId.PR4)
    assert not verdict.holds
    w = verdict.witness
    assert (w.s, w.s_prime, w.e) == (0, 0, 0b110)
    assert recheck_witness(fr, w)


def test_pd6_violation():
    sel = {
        (0, 0b11100): 0b01000,
        (1, 0b11100): 0b01000,
        (0, 0b11000): 0b10000,
        (1, 0b11000): 0b10000,
    }
    fr = frame_of(5, [0b00011] * 5, sel, complete=True)
    verdict = check_property(fr, PropertyId.PD6)
    assert not verdict.holds
    w = verdict.witness
    assert (w.s, w.e, w.f) == (0, 0b01100, 0b11100)
    assert w.s_prime is None
    assert recheck_witness(fr, w)


def test_pd7_violation_is_pointed_only():
    sel = {(0, 0b1110): 0b0100}
    fr = frame_of(4, [0b0001, 0b0010, 0b0100, 0b1000], sel, complete=True)
    verdict = check_property(fr, PropertyId.PD7)
    assert not verdict.holds
    w = verdict.witness
    assert (w.s, w.s_prime, w.e, w.f) == (0, 0, 0b0110, 0b1000)
    assert recheck_witness(fr, w)
    # same selection table but a fat belief set: nothing is pointed, so the
    # condition holds vacuously
    fat = frame_of(4, [0b0011] * 4, sel, complete=True)
    assert check_property(fat, PropertyId.PD7).holds


def test_pd9_violation_is_pointed_only():
    sel = {(0, 0b0110): 0b0100}
    fr = frame_of(4, [0b0001, 0b0010, 0b0100, 0b1000], sel, complete=True)
    verdict = check_property(fr, PropertyId.PD9)
    assert not verdict.holds
    w = verdict.witness
    assert (w.s, w.s_prime, w.e, w.f) == (0, 0, 0b1110, 0b0110)
    assert recheck_witness(fr, w)
    fat = frame_of(4, [0b0011] * 4, sel, complete=True)
    assert check_property(fat, PropertyId.PD9).holds


def test_pr8_violation():
    fr = frame_of(5, [0b00011] * 5, {(1, 0b01100): 0b01000}, complete=True)
    verdict = check_property(fr, PropertyId.PR8)
    assert not verdict.holds
    w = verdict.witness
    assert (w.s, w.s_prime, w.e, w.f) == (0, 1, 0b11100, 0b01100)
    assert recheck_witness(fr, w)


def test_default_completion_lands_in_every_class():
    # the fallback selection rule is conservative enough to satisfy all of
    # the conditions at once when belief is reflexive-pointed
    fr = frame_of(4, [0b0001, 0b0010, 0b0100, 0b1000], complete=True)
    for cls in FrameClass:
        report = check_class(fr, cls)
        assert report.holds, report.to_obj(fr)


def test_class_report_shape(two_state_default):
    report = check_class(two_state_default, FrameClass.REVISION_STRICT)
    obj = report.to_obj(two_state_default)
    assert obj["class"] == "REVISION_STRICT"
    assert [p["property"] for p in obj["properties"]] == [
        "BASE",
        "PR4",
        "PD57",
        "PR8",
    ]
    assert all(p["holds"] for p in obj["properties"])


def test_class_recipes_cover_documented_properties():
    assert CLASS_PROPERTIES[FrameClass.UPDATE] == (
        PropertyId.BASE,
        PropertyId.PD2,
        PropertyId.PD57,
        PropertyId.PD6,
        PropertyId.PD7,
    )
    assert CLASS_PROPERTIES[FrameClass.STRONG_UPDATE] == (
        PropertyId.BASE,
        PropertyId.PD2,
        PropertyId.PD57,
        PropertyId.PD9,
    )
    assert CLASS_PROPERTIES[FrameClass.REVISION_DEF12] == (
        PropertyId.BASE,
        PropertyId.PR4,
        PropertyId.PR8,
    )
    assert CLASS_PROPERTIES[FrameClass.REVISION_STRICT] == (
        PropertyId.BASE,
        PropertyId.PR4,
        PropertyId.PD57,
        PropertyId.PR8,
    )


# --- guard rails ----------------------------------------------------------


def test_size_guard():
    fr = frame_of(9, [1] * 9, complete=True)
    with pytest.raises(SizeLimitError):
        check_property(fr, PropertyId.PD2)
    with pytest.raises(SizeLimitError):
        check_pd57_literal(fr)
    assert check_property(fr, PropertyId.PD2, max_states=9).holds


# --- randomized invariants ------------------------------------------------


@given(seed=st.integers(0, 10_000), n=st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_strong_implies_full_pd57(seed, n):
    fr = random_frame(random.Random(seed), n)
    if check_property(fr, PropertyId.PD57_STRONG).holds:
        assert check_property(fr, PropertyId.PD57).holds


@given(seed=st.integers(0, 10_000), n=st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_pr4_implies_pd2(seed, n):
    fr = random_frame(random.Random(seed), n)
    if check_property(fr, PropertyId.PR4).holds:
        assert check_property(fr, PropertyId.PD2).holds


@given(seed=st.integers(0, 10_000), n=st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_pointed_collapses_pd57_variants(seed, n):
    fr = random_frame(random.Random(seed), n, pointed=True)
    full = check_property(fr, PropertyId.PD57)
    strong = check_property(fr, PropertyId.PD57_STRONG)
    assert full.holds == strong.holds


@given(seed=st.integers(0, 10_000), n=st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_pd57_literal_matches_eliminated_form(seed, n):
    fr = random_frame(random.Random(seed), n)
    assert check_pd57_literal(fr).holds == check_property(fr, PropertyId.PD57).holds


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 3),
    pid=st.sampled_from(sorted(PropertyId, key=lambda p: p.value)),
)
@settings(max_examples=80, deadline=None)
def test_failing_verdicts_carry_live_witnesses(seed, n, pid):
    fr = random_frame(random.Random(seed), n)
    verdict = check_property(fr, pid)
    if verdict.holds:
        assert verdict.witness is None
    else:
        assert recheck_witness(fr, verdict.witness)


@given(
    seed=st.integers(0, 10_000),
    pid=st.sampled_from([PropertyId.PD2, PropertyId.PD57, PropertyId.PR4, PropertyId.PR8]),
)
@settings(max_examples=40, deadline=None)
def test_verdicts_stable_under_relabeling(seed, pid):
    fr = random_frame(random.Random(seed), 3)
    for perm in itertools.permutations(range(3)):
        assert (
            check_property(relabel_frame(fr, perm), pid).holds
            == check_property(fr, pid).holds
        )


def test_pd57_literal_matches_on_a_four_state_sample():
    for seed in range(6):
        fr = random_frame(random.Random(seed), 4)
        assert (
            check_pd57_literal(fr).holds
            == check_property(fr, PropertyId.PD57).holds
        )


def test_check_is_deterministic():
    fr = random_frame(random.Random(99), 3)
    for pid in PropertyId:
        assert check_property(fr, pid) == check_property(fr, pid)


def test_first_witnesses_are_frozen():
    # Every verdict and first witness on seeded random base-valid frames of
    # 2-5 states.  The digest was recorded by running this body on the
    # commit before the shared violation predicates replaced the
    # per-property finders, so any change to the canonical witness order
    # shows here.
    digest = hashlib.sha256()
    for n in range(2, 6):
        for frame in enumerate_frames(FrameGenSpec(n, mode="random", seed=n, count=40)):
            for pid in PropertyId:
                obj = check_property(frame, pid).to_obj(frame)
                digest.update(json.dumps(obj, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "c95b33604fb2c2080144e3d78696a361e68315af5db8683635bca93f10af8181"
    )


# --- the collapsed finder against a plain scan ----------------------------


def _reference_verdict(frame, pid):
    # Every state and every (E, F) pair in canonical order, straight over the
    # shared predicates: no belief-set dedupe, no E∩F or symmetric collapse.
    factory, second, reports_s_prime = _CONDITIONS[pid]
    events = range(1, frame.full + 1)
    seconds = (None,) if second is _Second.SINGLE else events
    for s in range(frame.n):
        violators = factory(frame, frame.belief[s])
        if violators is None:
            continue
        for e in events:
            for f in seconds:
                m = violators(e, f)
                if m:
                    i = (m & -m).bit_length() - 1 if reports_s_prime else None
                    witness = PropertyWitness(pid, s=s, s_prime=i, e=e, f=f)
                    return PropertyVerdict(pid, False, witness)
    return PropertyVerdict(pid, True)


def _outcome(frame, decide):
    try:
        return json.dumps(decide().to_obj(frame), sort_keys=True)
    except UndefinedSelectionError as exc:
        return ("raises", type(exc).__name__, str(exc))


def _sweep_frames(rng, kind, n):
    fr = random_frame(rng, n, pointed=rng.random() < 0.3)
    full = fr.full
    if kind == "uniform":
        b = 1 << rng.randrange(n) if rng.random() < 0.4 else rng.randrange(1, full + 1)
        return frame_of(n, [b] * n, fr.selection)
    selection, belief, keys = dict(fr.selection), fr.belief, sorted(fr.selection)
    if kind == "unbelieved" and n > 1:
        # only rows of a state outside every belief set leave their events (at
        # n = 1 every state is believed, and the kind is "nonconforming")
        out = 1 << rng.randrange(n)
        belief = [b & ~out or full & ~out for b in belief]
        keys = [key for key in keys if 1 << key[0] == out]
    if kind in ("nonconforming", "unbelieved"):
        for key in rng.sample(keys, min(len(keys), rng.randint(1, 3))):
            # a state outside the event, or one beyond the frame at n = 1
            selection[key] |= (full & ~key[1]) or 1 << n
    elif kind == "partial":
        for key in rng.sample(sorted(selection), max(1, len(selection) // 6)):
            del selection[key]
    return frame_of(n, belief, selection)


def test_collapsed_finder_matches_plain_scan():
    rng = random.Random(5)
    kinds = ("per-state", "uniform", "nonconforming", "unbelieved", "partial")
    tally = {"holds": 0, "fails": 0, "raises": 0}
    for kind in kinds:
        for n in range(1, 6):
            for _ in range(25):
                frame = _sweep_frames(rng, kind, n)
                for pid in _CONDITIONS:
                    want = _outcome(frame, lambda: _reference_verdict(frame, pid))
                    got = _outcome(frame, lambda: check_property(frame, pid))
                    assert got == want, (kind, frame, pid)
                    if isinstance(want, tuple):
                        tally["raises"] += 1
                    else:
                        tally["holds" if '"holds": true' in want else "fails"] += 1
    assert min(tally.values()) > 500, tally


# --- the holds tests against the scan --------------------------------------

TESTED = list(properties._HOLDS)


def _rank_min(ranks, event):
    best = min(ranks[i] for i in bits(event))
    return mask_of(i for i in bits(event) if ranks[i] == best)


def _centered_order_frame(rng, n):
    # per-state rankings with the own state strictly minimal and belief sets
    # of sizes 1..n-1: UPDATE and STRONG_UPDATE hold by construction
    belief = [mask_of(rng.sample(range(n), 1 + s % (n - 1))) for s in range(n)]
    selection = {}
    for s in range(n):
        ranks = [rng.randrange(1, n + 1) for _ in range(n)]
        ranks[s] = 0
        for e in range(1, 1 << n):
            selection[(s, e)] = _rank_min(ranks, e)
    return frame_of(n, belief, selection)


def _uniform_revision_frame(rng, n, k_size):
    # one belief set K and a ranking faithful to it: every class holds
    k = mask_of(rng.sample(range(n), k_size))
    ranks = [0 if k >> i & 1 else rng.randrange(1, n + 1) for i in range(n)]
    selection = {}
    for s in range(n):
        for e in range(1, 1 << n):
            ranked = k >> s & 1 or not e >> s & 1
            selection[(s, e)] = _rank_min(ranks, e) if ranked else 1 << s
    return frame_of(n, [k] * n, selection)


def _believed_row(rng, frame, pointed=False):
    # pointed: a row of a state that some state believes alone, if any
    sets = [b for b in frame.belief if b.bit_count() == 1 or not pointed]
    believed = sorted(set().union(*(bits(b) for b in sets or frame.belief)))
    while True:
        key = (rng.choice(believed), rng.randrange(1, frame.full + 1))
        if key[1].bit_count() > 1:
            return key


def _perturbed(rng, frame, pointed=False):
    # one believed row moved to another nonempty part of its event
    selection = dict(frame.selection)
    s, e = _believed_row(rng, frame, pointed)
    while selection[(s, e)] == frame.selection[(s, e)]:
        selection[(s, e)] = rng.randrange(1, e + 1) & e or e & -e
    return frame_of(frame.n, frame.belief, selection)


def _without_a_row(rng, frame):
    selection = dict(frame.selection)
    del selection[_believed_row(rng, frame)]
    return frame_of(frame.n, frame.belief, selection)


def _emptied(rng, frame):
    # a believed row at a one-state event selects nothing: success still holds
    s, _ = _believed_row(rng, frame)
    return frame_of(frame.n, frame.belief, {**frame.selection, (s, 1 << rng.randrange(frame.n)): 0})


def _scan_only(monkeypatch):
    monkeypatch.setattr(properties, "_HOLDS", dict.fromkeys(TESTED, lambda frame, b, rows: False))


def test_holds_tests_match_the_scan_on_ordered_frames(monkeypatch):
    # Frames that hold by construction, one-row perturbations of them that
    # break some property, copies missing one believed row and copies with
    # one empty row: each verdict (or first error) of a property with a holds
    # test equals the scan's without the test.
    rng = random.Random(17)
    frames = []
    for n, count in ((5, 24), (6, 12), (7, 2)):
        for _ in range(count):
            for base in (
                _centered_order_frame(rng, n),
                _uniform_revision_frame(rng, n, 1),
                _uniform_revision_frame(rng, n, rng.randint(2, n - 1)),
            ):
                frames += [base, _perturbed(rng, base), _without_a_row(rng, base), _emptied(rng, base)]
                frames += [_perturbed(rng, base, pointed=True) for _ in range(2)]
    got = [[_outcome(fr, lambda: check_property(fr, pid)) for pid in TESTED] for fr in frames]
    _scan_only(monkeypatch)
    want = [[_outcome(fr, lambda: check_property(fr, pid)) for pid in TESTED] for fr in frames]
    assert got == want
    for column, pid in enumerate(TESTED):
        outcomes = [row[column] for row in want]
        holds = sum('"holds": true' in o for o in outcomes if isinstance(o, str))
        fails = sum('"holds": false' in o for o in outcomes if isinstance(o, str))
        assert holds > 100 and fails > 100, (pid, holds, fails)


def test_a_holding_frame_never_reads_the_meet_predicates(monkeypatch):
    calls = dict.fromkeys(TESTED, 0)

    def spying(pid, factory):
        def spy_factory(frame, b):
            violators = factory(frame, b)
            if violators is None:
                return None

            def spy(e, f):
                calls[pid] += 1
                return violators(e, f)

            return spy

        return spy_factory

    for pid in TESTED:
        factory, second, reports_s_prime = _CONDITIONS[pid]
        monkeypatch.setitem(_CONDITIONS, pid, (spying(pid, factory), second, reports_s_prime))
    rng = random.Random(4)
    frame = _uniform_revision_frame(rng, 7, 1)  # a pointed belief set: PD9 applies
    with open(DATA / "unsuccessful_unbelieved_row.json") as fh:
        # every state believes {s0}; a row of s3 leaves its event
        leaky = complete_selection(frame_from_obj(json.load(fh)))
    for fr in (frame, leaky):
        for pid in TESTED:
            assert check_property(fr, pid).holds
    assert calls == dict.fromkeys(TESTED, 0)
    for pid in TESTED:
        broken = _perturbed(rng, frame)
        while check_property(broken, pid).holds:
            broken = _perturbed(rng, frame)
        calls[pid] = 0
        verdict = check_property(broken, pid)
        assert calls[pid] > 0
        with monkeypatch.context() as scan:
            _scan_only(scan)
            assert verdict == check_property(broken, pid)
        assert recheck_witness(broken, verdict.witness)


# --- the PD6 and PD7 kernels against their definitions ---------------------


def _row_table(rng, n):
    # Success-respecting rows r[E] ⊆ E: the union of one or two rankings'
    # minima (both kernels hold), then up to three entries redrawn inside
    # their event, some of them empty.
    full = (1 << n) - 1
    rankings = [[rng.randrange(n) for _ in range(n)] for _ in range(rng.randint(1, 2))]
    rows = [0] + [mask_of(i for r in rankings for i in bits(_rank_min(r, e))) for e in range(1, full + 1)]
    for _ in range(rng.randint(0, 3)):
        e = rng.randrange(1, full + 1)
        rows[e] = 0 if rng.random() < 0.3 else e & rng.randrange(full + 1)
    return rows


def _reciprocal(rows):
    # PD6 literally: r(E) ⊆ F and r(F) ⊆ E imply r(E) = r(F), E∩F = ∅ included
    events = range(1, len(rows))
    return all(
        rows[e] == rows[f]
        for e in events
        for f in events
        if not rows[e] & ~f and not rows[f] & ~e
    )


def _union_splits(rows):
    # PD7 literally: r(E ∪ F) ⊆ r(E) ∪ r(F)
    events = range(1, len(rows))
    return all(not rows[e | f] & ~(rows[e] | rows[f]) for e in events for f in events)


def _success_tables(n):
    # every table with r[E] ⊆ E, empty rows included
    full = (1 << n) - 1
    choices = [subsets_of(e) for e in range(1, full + 1)]
    return ([0, *rows] for rows in itertools.product(*choices))


def test_pd6_and_pd7_kernels_match_their_definitions():
    rng = random.Random(23)
    tally = {"PD6": [0, 0], "PD7": [0, 0]}
    tables = [_row_table(rng, n) for n in range(1, 6) for _ in range(160)]
    for rows in itertools.chain(tables, *map(_success_tables, range(1, 4))):
        pd6 = _reciprocal(rows)
        pd7 = _union_splits(rows)
        assert properties._cumulative(rows[:]) == pd6, rows
        assert properties._inside(rows) == pd7, rows
        tally["PD6"][pd6] += 1
        tally["PD7"][pd7] += 1
    assert min(min(counts) for counts in tally.values()) > 100, tally


def test_pd7_is_pd57_at_one_state_belief_sets(monkeypatch):
    # Every base-valid frame on 1-2 states whose belief sets have one state,
    # then seeded ones on 3-5 states: random frames (PD57 mostly fails) and
    # centered-order frames (it holds).  PD7's scan alone agrees too.
    frames = [
        fr
        for n in (1, 2)
        for fr in enumerate_frames(FrameGenSpec(n))
        if all(b.bit_count() == 1 for b in fr.belief)
    ]
    assert len(frames) == 17
    rng = random.Random(31)
    for n in range(3, 6):
        for _ in range(50):
            frames.append(random_frame(rng, n, pointed=True))
            ordered = _centered_order_frame(rng, n).selection
            frames.append(frame_of(n, [1 << rng.randrange(n) for _ in range(n)], ordered))
    pd57 = [check_property(fr, PropertyId.PD57).holds for fr in frames]
    assert [check_property(fr, PropertyId.PD7).holds for fr in frames] == pd57
    _scan_only(monkeypatch)
    assert [check_property(fr, PropertyId.PD7).holds for fr in frames] == pd57
    assert min(pd57.count(True), pd57.count(False)) >= 100, pd57.count(True)


def test_update_failure_fixtures():
    # The CI pins these reports' bytes: PD6 fails alone; PD7 fails with
    # PD57, which under success is PD7 at a one-state belief set; PD57 fails
    # at a two-state belief set alone, and PD7 holds at the one-state ones.
    for name, failed in (
        ("pd6_failure", {"PD6"}),
        ("pd7_failure", {"PD57", "PD7"}),
        ("pd57_fails_unpointed", {"PD57"}),
    ):
        with open(DATA / f"{name}.json") as fh:
            frame = frame_from_obj(json.load(fh))
        report = check_class(frame, FrameClass.UPDATE)
        assert {v.property.value for v in report.verdicts if not v.holds} == failed
        for verdict in report.verdicts:
            assert verdict.holds or recheck_witness(frame, verdict.witness)


# --- PD9 reads PR8's predicate at B = {i} -----------------------------------


def _pd9_written_out(frame, b):
    # PD9's own predicate: f(i, E) meets F and f(i, E∩F) leaves f(i, E) ∩ F
    if b.bit_count() != 1:
        return None
    sel, i = frame.sel, b.bit_length() - 1

    def violators(e, f):
        if not e & f:
            return 0
        inside = sel(i, e) & f
        return b if inside and sel(i, e & f) & ~inside else 0

    return violators


def _pd9_sweep_frame(rng, kind, n):
    frame = random_frame(rng, n, pointed=kind == "pointed" or rng.random() < 0.5)
    selection, keys = dict(frame.selection), sorted(frame.selection)
    if kind == "dropped":
        for key in rng.sample(keys, max(1, len(keys) // 10)):
            del selection[key]
    elif kind == "corrupted":
        for key in rng.sample(keys, max(1, len(keys) // 4)):
            selection[key] = rng.randrange(1, frame.full + 1)
    return frame_of(n, frame.belief, selection)


def test_pd9_through_pr8_matches_its_own_predicate(monkeypatch):
    # At B = {i}, Sup(B, ·) is f(i, ·), and both predicates read Sup(B, E),
    # then Sup(B, E∩F): verdict and first witness, or the error's type and
    # text, are those of PD9's own predicate, and so is every recheck.
    def outcome(frame):
        try:
            return check_property(frame, PropertyId.PD9)
        except DoxatestError as exc:
            return type(exc).__name__, str(exc)

    rng = random.Random(9)
    kinds = ("whole", "dropped", "corrupted", "pointed")
    frames = [
        _pd9_sweep_frame(rng, kind, n) for kind in kinds for n in range(1, 6) for _ in range(50)
    ]
    got = [outcome(fr) for fr in frames]
    checked = [
        (fr, v.witness) for fr, v in zip(frames, got) if isinstance(v, PropertyVerdict) and not v.holds
    ]
    rechecks = [recheck_witness(fr, w) for fr, w in checked]
    _, second, reports_s_prime = _CONDITIONS[PropertyId.PD9]
    monkeypatch.setitem(_CONDITIONS, PropertyId.PD9, (_pd9_written_out, second, reports_s_prime))
    assert got == [outcome(fr) for fr in frames]
    assert rechecks == [recheck_witness(fr, w) for fr, w in checked] == [True] * len(checked)
    raises = sum(isinstance(v, tuple) for v in got)
    assert len(checked) >= 300 and raises >= 100, (len(checked), raises)
