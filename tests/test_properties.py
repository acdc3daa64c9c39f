import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from conftest import frame_of, random_frame, relabel_frame
from hypothesis import given, settings
from hypothesis import strategies as st

from doxatest import properties
from doxatest.correspondence import FrameGenSpec, enumerate_frames
from doxatest.errors import DoxatestError, SizeLimitError, UndefinedSelectionError
from doxatest.frames import (
    Frame,
    PackError,
    bits,
    complete_selection,
    frame_from_obj,
    grid,
    mask_of,
    pack,
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


def test_base_recheck_confirms_only_the_frames_violations():
    # the only violation is success at (a, {b}): f(a, {b}) = {a}
    frame = Frame(("a", "b"), (1, 2), {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 1): 1, (1, 2): 2, (1, 3): 2})
    verdict = check_property(frame, PropertyId.BASE)
    assert verdict.witness == PropertyWitness(PropertyId.BASE, s=0, e=0b10, clause="success")
    assert recheck_witness(frame, verdict.witness)
    for wrong in (
        PropertyWitness(PropertyId.BASE, s=1, e=0b11, clause="consistency"),
        PropertyWitness(PropertyId.BASE, s=0, e=0b10, clause="consistency"),
        PropertyWitness(PropertyId.BASE, s=1, e=0b10, clause="success"),
        PropertyWitness(PropertyId.BASE, s=0, clause="seriality"),
    ):
        assert not recheck_witness(frame, wrong), wrong
    # a seriality violation names no event
    broken = frame_of(2, [0b10, 0b00], complete=True)
    assert recheck_witness(broken, PropertyWitness(PropertyId.BASE, s=1, clause="seriality"))
    assert not recheck_witness(broken, PropertyWitness(PropertyId.BASE, s=0, clause="seriality"))


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


def _pointed(n, successful):
    """n states all believing {s0}, whose row is the one read: the lowest
    state of each event when ``successful`` (the success gate opens), and
    missing everywhere otherwise (it stays closed)."""
    full = (1 << n) - 1
    row = [-1] + [e & -e for e in range(1, full + 1)] if successful else [-1] * (full + 1)
    return Frame(tuple(f"s{i}" for i in range(n)), (1,) * n, [row] + [[-1] * (full + 1)] * (n - 1))


def _never_fires(monkeypatch, pid):
    """Stub pid's predicate to count its calls and never fire, and its holds
    test to fail, so that every scan the check starts runs to its end."""
    _, second, names = _CONDITIONS[pid]
    calls = [0]

    def violators(e, f):
        calls[0] += 1
        return 0

    monkeypatch.setitem(_CONDITIONS, pid, (lambda frame, b: violators, second, names))
    if pid in properties._HOLDS:
        monkeypatch.setitem(properties._HOLDS, pid, lambda frame, b, rows: False)
    return calls


@pytest.mark.parametrize(
    "pid, successful, largest, walked",
    [
        (PropertyId.PD2, False, 16, 2**16 - 1),  # one event at a time
        (PropertyId.PR4, True, 16, 2**16 - 1),
        (PropertyId.PD57, True, 12, 3**12 - 1),  # F through E∩F
        (PropertyId.PR8, False, 10, 1023**2),  # the gate closed: every F
        (PropertyId.PD6, True, 10, 1023 * 1024 // 2),  # F ≥ E
    ],
)
def test_each_scan_runs_up_to_the_instance_bound(monkeypatch, pid, successful, largest, walked):
    # The largest frame whose walk fits SCAN_INSTANCE_LIMIT is scanned in
    # full; one state more is refused before the predicate is called.  No
    # frame outgrows a single-event walk: frames stop at 16 states.
    calls = _never_fires(monkeypatch, pid)
    assert check_property(_pointed(largest, successful), pid, max_states=16).holds
    assert calls[0] == walked
    if largest < 16:
        with pytest.raises(SizeLimitError, match=f"exhaustive {pid.value} scan"):
            check_property(_pointed(largest + 1, successful), pid, max_states=16)
        assert calls[0] == walked


def test_every_scan_runs_at_eight_states(monkeypatch):
    # the default state bound never meets the instance bound: 255² pairs
    for pid in _CONDITIONS:
        for successful in (True, False):
            calls = _never_fires(monkeypatch, pid)
            assert check_property(_pointed(8, successful), pid).holds
            assert 255 <= calls[0] <= 255**2, (pid, successful)


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


def _leaking(rng, frame):
    # a believed row also selects the states outside its event: success fails
    s, e = _believed_row(rng, frame)
    while e == frame.full:
        s, e = _believed_row(rng, frame)
    return frame_of(frame.n, frame.belief, {**frame.selection, (s, e): frame.selection[(s, e)] | frame.full & ~e})


def _scan_only(monkeypatch):
    monkeypatch.setattr(properties, "_HOLDS", dict.fromkeys(TESTED, lambda frame, b, rows: False))


def test_holds_tests_match_the_scan_on_ordered_frames(monkeypatch):
    # Frames that hold by construction, one-row perturbations of them that
    # break some property, copies missing one believed row, copies with one
    # empty row and copies with one row leaving its event: each verdict (or first error) of a property with a holds
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
                if n == 5:  # a leaking row sends F over every event
                    frames.append(_leaking(rng, base))
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


def _spy_on(monkeypatch, calls):
    # each property in ``calls`` counts there the calls of its predicate
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

    for pid in calls:
        factory, second, reports_s_prime = _CONDITIONS[pid]
        monkeypatch.setitem(_CONDITIONS, pid, (spying(pid, factory), second, reports_s_prime))


def test_a_holding_frame_never_reads_the_meet_predicates(monkeypatch):
    calls = dict.fromkeys(TESTED, 0)
    _spy_on(monkeypatch, calls)
    rng = random.Random(4)
    frame = _uniform_revision_frame(rng, 7, 1)  # a pointed belief set: PD9 applies
    with open(DATA / "unsuccessful_unbelieved_row.json") as fh:
        # every state believes {s0}; a row of s3 leaves its event
        leaky = complete_selection(frame_from_obj(json.load(fh)))
    # every believed row empty: the row table packs to 0, and still passes
    empty = frame_of(3, [1] * 3, {(0, e): 0 for e in range(1, 8)})
    assert properties._rows(empty, 1) == 0
    assert properties._rows(_leaking(rng, frame), frame.belief[0]) is None
    for fr in (frame, leaky, empty):
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


# --- the single-event tests (PD2, PR4) against the scan ---------------------


def _single_event_frames(rng, n):
    # A frame that holds PD2 by construction, and PR4 too under a faithful
    # ranking of one belief set (per-state centred orders, from 2 states,
    # break PR4 at some belief sets); then copies with one believed row moved
    # inside its event, missing at an event containing B(s) or at one that
    # does not, or given a state beyond the frame, inside the field width or
    # beyond it.
    base = _centered_order_frame(rng, n) if n > 1 and rng.random() < 0.5 else (
        _uniform_revision_frame(rng, n, rng.randint(1, n)))
    out = [base, _perturbed(rng, base)] if n > 1 else [base]  # one state: no row can move
    s = rng.randrange(n)
    b, i = base.belief[s], rng.choice(list(bits(base.belief[s])))
    supersets = [e for e in range(1, base.full + 1) if not b & ~e]
    others = [e for e in range(1, base.full + 1) if b & ~e]
    for events, change in ((supersets, None), (others, None), (supersets, 1 << n), (supersets, 1 << 40)):
        if events:
            e = rng.choice(events)
            selection = dict(base.selection)
            if change is None:
                del selection[(i, e)]
            else:
                selection[(i, e)] |= change
            out.append(frame_of(n, base.belief, selection))
    return out


def test_single_event_tests_match_the_scan(monkeypatch):
    # PD2 and PR4 with their packed tests against the scan alone on seeded
    # 1-9-state frames (16-bit fields from 9 states): the same verdict,
    # witness or first error, both outcomes and raises all seen.  A belief
    # set whose test holds never calls the property's predicate.
    rng = random.Random(31)
    groups = [_single_event_frames(rng, n) for n in range(1, 10) for _ in range(30 if n < 7 else 5)]
    frames = [fr for group in groups for fr in group]
    pids = (PropertyId.PD2, PropertyId.PR4)
    calls = dict.fromkeys(pids, 0)
    with monkeypatch.context() as spied:
        _spy_on(spied, calls)
        held = dict.fromkeys(pids, 0)
        for base in (group[0] for group in groups):
            for pid in pids:
                before = calls[pid]
                if check_property(base, pid, max_states=9).holds:  # every row there: decided by the test
                    assert calls[pid] == before, (pid, base)
                    held[pid] += 1
        assert min(held.values()) > 60, held
        got = [[_outcome(fr, lambda: check_property(fr, pid, max_states=9)) for pid in pids] for fr in frames]
    _scan_only(monkeypatch)
    want = [[_outcome(fr, lambda: check_property(fr, pid, max_states=9)) for pid in pids] for fr in frames]
    assert got == want
    for column, pid in enumerate(pids):
        outcomes = [row[column] for row in want]
        holds = sum('"holds": true' in o for o in outcomes if isinstance(o, str))
        fails = sum('"holds": false' in o for o in outcomes if isinstance(o, str))
        raises = sum(isinstance(o, tuple) for o in outcomes)
        assert holds > 150 and fails > 150 and raises > 30, (pid, holds, fails, raises)


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


def _pr8_literally(rows):
    # PR8 on r = Sup(B, ·): r(E) meeting F puts r(E∩F) inside r(E) ∩ F
    events = range(1, len(rows))
    return all(
        not rows[e & f] & ~(rows[e] & f) for e in events for f in events if rows[e] & f
    )


def _below_each_event(rows):
    # Each property at the subsets G of every E, as its docstring reduces it
    # under success (3ⁿ pairs): PD6 as cumulativity, PD7 and PR8 at G = E∩F.
    got = {"PD6": True, "PD7": True, "PR8": True}
    for e in range(1, len(rows)):
        r_e = rows[e]
        for g in subsets_of(e):
            got["PD6"] &= bool(r_e & ~g) or rows[g] == r_e
            got["PD7"] &= not r_e & g & ~rows[g]
            got["PR8"] &= not r_e & g or not rows[g] & ~r_e
    return got


def _success_tables(n):
    # every table with r[E] ⊆ E, empty rows included
    full = (1 << n) - 1
    choices = [subsets_of(e) for e in range(1, full + 1)]
    return ([0, *rows] for rows in itertools.product(*choices))


def test_pd6_and_pd7_kernels_match_their_definitions():
    # The packed kernels on row tables: against the literal definitions on
    # 1-5 states, and on 6-9 states (16-bit fields from 9) against the
    # subset forms, which the small tables tie to the definitions.  The
    # table of empty rows packs to 0 and holds everywhere.
    rng = random.Random(23)
    tally = {pid: [0, 0] for pid in ("PD6", "PD7", "PR8")}
    small = [_row_table(rng, n) for n in range(1, 6) for _ in range(160)]
    for rows in itertools.chain(small, *map(_success_tables, range(1, 4))):
        n = len(rows).bit_length() - 1
        want = {"PD6": _reciprocal(rows), "PD7": _union_splits(rows), "PR8": _pr8_literally(rows)}
        assert _below_each_event(rows) == want, rows
        packed = pack(rows, grid(n)[0])
        got = {
            "PD6": properties._cumulative(packed, n),
            "PD7": properties._inside(packed, n),
            "PR8": properties._gated(packed, n),
        }
        assert got == want, rows
        for pid, holds in want.items():
            tally[pid][holds] += 1
    assert min(min(counts) for counts in tally.values()) > 100, tally
    large = {pid: [0, 0] for pid in tally}
    for n in range(6, 10):
        for rows in [_row_table(rng, n) for _ in range(10)] + [[0] * (1 << n)]:
            want = _below_each_event(rows)
            packed = pack(rows, grid(n)[0])
            assert properties._cumulative(packed, n) == want["PD6"], rows
            assert properties._inside(packed, n) == want["PD7"], rows
            assert properties._gated(packed, n) == want["PR8"], rows
            for pid, holds in want.items():
                large[pid][holds] += 1
    assert min(min(counts) for counts in large.values()) >= 10, large


def test_packed_rows_keep_every_bit():
    # Rows of n = 8, 9, 16 and 17 states come back whole from their fields:
    # a frame holds up to 16 states (`FRAME_STATE_LIMIT`), and no width may
    # cut a row.  A value negative or too wide for its field is refused
    # with `PackError`, which `_rows` reads as a row that does not conform.
    for n in (8, 9, 16, 17):
        full = (1 << n) - 1
        w = grid(n)[0]
        packed = pack([full, 0, full], w)
        assert [packed >> w * i & (1 << w) - 1 for i in range(4)] == [full, 0, full, 0]
        for bad in (-1, 1 << w):
            with pytest.raises(PackError):
                pack([full, bad], w)


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
