import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from conftest import frame_of, random_frame, random_model
from hypothesis import given, settings
from hypothesis import strategies as st

from doxatest import axioms
from doxatest.axioms import (
    ALIASES,
    AxiomId,
    AxiomVerdict,
    AxiomWitness,
    ModelContext,
    Status,
    axiom_holds,
    axiom_status_via_formulas,
    is_complete_at,
    replay_witness,
)
from doxatest.changegen import (
    ChangeFunctionTable,
    WorldContext,
    build_canonical_model,
    random_revision_table,
    random_update_table,
)
from doxatest.errors import (
    DoxatestError,
    SizeLimitError,
    UndefinedSelectionError,
    UnknownAtomError,
)
from doxatest.formulas import FALSE, TRUE, And, Atom, Not, Or, semantic_pool
from doxatest.frames import (
    Frame,
    Model,
    bits,
    cell_closure,
    cells,
    complete_selection,
    frame_from_obj,
    grid,
    pack,
    truth_set,
)
from doxatest.properties import PropertyId, check_property

DATA = Path(__file__).parent / "data"

ALL_AXIOMS = list(AxiomId)
EVERY_FRAME_VALID = [AxiomId.D0, AxiomId.D1, AxiomId.R1, AxiomId.R2, AxiomId.R3]


def model_on(n, belief, valuation, selection=None):
    return Model(frame_of(n, belief, selection, complete=True), valuation)


# --- completeness ---------------------------------------------------------


def test_pointed_states_are_complete():
    m = model_on(2, [0b01, 0b10], {"p": 0b01})
    assert is_complete_at(m, 0) and is_complete_at(m, m.frame.index("s1"))


def test_completeness_follows_cells():
    # s1, s2 share a profile; believing exactly that pair decides everything
    m = model_on(3, [0b110, 0b110, 0b110], {"p": 0b110})
    assert is_complete_at(m, 0)
    split = model_on(3, [0b110] * 3, {"p": 0b110, "q": 0b100})
    assert not is_complete_at(split, 0)


def test_completeness_reads_atom_columns_as_cells():
    # every belief set and valuation at 1-3 states and 0-3 atoms: the
    # column test agrees with "some cell contains B(s)"
    for n in range(1, 4):
        full = (1 << n) - 1
        for k in range(4):
            for columns in itertools.product(range(full + 1), repeat=k):
                valuation = dict(zip("pqr", columns))
                for b in range(full + 1):
                    m = Model(frame_of(n, [b] * n), valuation)
                    assert is_complete_at(m, 0) == any(not b & ~c for c in cells(m))


# --- postulates valid on every frame --------------------------------------


@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_unconditional_postulates_never_fail(seed, n):
    m = random_model(random.Random(seed), n)
    ctx = ModelContext.of(m)
    for s in range(n):
        for axiom in EVERY_FRAME_VALID:
            assert axiom_holds(m, s, axiom, ctx=ctx).holds


def test_lemma_inclusion_catches_broken_centering():
    # deliberately invalid frame: the selection at {s0,s1} ignores s0 itself
    fr = Frame(
        ("s0", "s1"),
        (0b01, 0b10),
        {(0, 0b01): 0b01, (0, 0b10): 0b10, (0, 0b11): 0b10,
         (1, 0b01): 0b01, (1, 0b10): 0b10, (1, 0b11): 0b10},
    )
    m = Model(fr, {"p": 0b01})
    verdict = axiom_holds(m, 0, AxiomId.R3)
    assert verdict.status is Status.FAILS
    assert verdict.witness.to_obj(m) == {"E": ["s0", "s1"], "G": ["s1"]}
    assert replay_witness(m, 0, AxiomId.R3, verdict.witness)


# --- worked failures with frozen witnesses --------------------------------


def test_d2_holds_when_selection_respects_beliefs():
    m = model_on(3, [0b110] * 3, {"p": 0b110})
    assert axiom_holds(m, 0, AxiomId.D2).holds


def test_d2_failure_and_witness_replay():
    m = model_on(3, [0b010] * 3, {"p": 0b110, "q": 0b100},
                 selection={(1, 0b110): 0b100})
    verdict = axiom_holds(m, 0, AxiomId.D2)
    assert verdict.status is Status.FAILS
    w = verdict.witness
    assert (w.e, w.g) == (0b110, 0b010)  # G is the believed cell
    assert replay_witness(m, 0, AxiomId.D2, w)
    assert verdict.to_obj(m) == {
        "axiom": "D2",
        "holds": False,
        "witness": {"E": ["s1", "s2"], "G": ["s1"]},
    }


def test_r4_failure_and_witness_replay():
    m = model_on(3, [0b001] * 3, {"p": 0b011, "q": 0b010},
                 selection={(0, 0b101): 0b101})
    verdict = axiom_holds(m, 0, AxiomId.R4)
    assert verdict.status is Status.FAILS
    w = verdict.witness
    assert (w.e, w.g) == (0b101, 0b001)
    assert replay_witness(m, 0, AxiomId.R4, w)


def test_d5_failure_on_pointed_variant_of_separation_frame():
    with open(DATA / "pd57_separation.json") as fh:
        base = frame_from_obj(json.load(fh))
    pointed = complete_selection(
        Frame(base.states, (0b000010,) * 6, base.selection)
    )
    m = Model(pointed, {"p": 0b111000, "q": 0b011000, "r": 0b001000})
    verdict = axiom_holds(m, 0, AxiomId.D5)
    assert verdict.status is Status.FAILS
    w = verdict.witness
    assert (w.e, w.f, w.g) == (0b111000, 0b011000, 0b001000)
    assert replay_witness(m, 0, AxiomId.D5, w)
    # R7 is the same condition by alias
    assert axiom_holds(m, 0, AxiomId.R7).status is Status.FAILS
    assert ALIASES[AxiomId.R7] is AxiomId.D5


def test_d5_holds_on_separation_frame_proper():
    # with the two-world belief set the pooled selection absorbs the loss
    with open(DATA / "pd57_separation.json") as fh:
        fr = complete_selection(frame_from_obj(json.load(fh)))
    m = Model(fr, {"p": 0b111000, "q": 0b011000, "r": 0b001000})
    for s in range(6):
        assert axiom_holds(m, s, AxiomId.D5).holds


def test_d6_failure_and_witness_replay():
    m = model_on(
        4,
        [0b0001] * 4,
        {"p": 0b1100, "q": 0b1010},
        selection={(0, 0b1110): 0b0010, (0, 0b0110): 0b0100},
    )
    verdict = axiom_holds(m, 0, AxiomId.D6)
    assert verdict.status is Status.FAILS
    w = verdict.witness
    assert (w.e, w.f, w.g) == (0b0110, 0b1110, 0b0100)
    assert replay_witness(m, 0, AxiomId.D6, w)


def test_d7_failure_at_pointed_state():
    m = model_on(
        4,
        [0b0001, 0b0010, 0b0100, 0b1000],
        {"p": 0b1100, "q": 0b1010},
        selection={(0, 0b1110): 0b0100},
    )
    verdict = axiom_holds(m, 0, AxiomId.D7)
    assert verdict.status is Status.FAILS
    w = verdict.witness
    assert (w.e, w.f, w.g) == (0b0110, 0b1000, 0b1010)
    assert replay_witness(m, 0, AxiomId.D7, w)


def test_d9_failure_at_pointed_state():
    m = model_on(
        4,
        [0b0001, 0b0010, 0b0100, 0b1000],
        {"p": 0b1100, "q": 0b1010},
        selection={(0, 0b0110): 0b0100},
    )
    verdict = axiom_holds(m, 0, AxiomId.D9)
    assert verdict.status is Status.FAILS
    w = verdict.witness
    assert (w.e, w.f, w.g) == (0b1110, 0b0110, 0b0010)
    assert replay_witness(m, 0, AxiomId.D9, w)
    # R8 shares the event shape and fails here too
    assert axiom_holds(m, 0, AxiomId.R8).status is Status.FAILS


def test_a_witness_naming_no_instance_replays_nothing(monkeypatch):
    # a state outside the frame, an E outside 1..full, a pair postulate's F
    # outside it, a G missing or outside 0..full: each names no instance, so
    # the replay answers False before it reads any Sup (s = -1 is not the
    # last state)
    m = Model(complete_selection(Frame(("a", "b", "c"), (3, 3, 4), {})), {"p": 1, "q": 2})
    bad = [
        (0, AxiomId.D1, AxiomWitness(e=1)),
        (7, AxiomId.D1, AxiomWitness(e=1, g=1)),
        (-1, AxiomId.D2, AxiomWitness(e=4, g=0)),
        (0, AxiomId.D1, AxiomWitness(e=0, g=1)),
        (0, AxiomId.D1, AxiomWitness(e=-1, g=1)),
        (0, AxiomId.R2, AxiomWitness(e=8, g=1)),
        (0, AxiomId.D5, AxiomWitness(e=3, f=0, g=1)),
        (0, AxiomId.D6, AxiomWitness(e=3, g=1)),
        (0, AxiomId.R8, AxiomWitness(e=3, f=8, g=1)),
        (0, AxiomId.D1, AxiomWitness(e=1, g=-1)),
        (0, AxiomId.R4, AxiomWitness(e=1, g=8)),
    ]
    reads = []
    sup = Frame.sup
    monkeypatch.setattr(Frame, "sup", lambda frame, b, e: reads.append((b, e)) or sup(frame, b, e))
    for s, axiom, w in bad:
        assert replay_witness(m, s, axiom, w) is False, (s, axiom, w)
    assert reads == []
    with pytest.raises(ValueError, match="no replay"):
        replay_witness(m, 7, AxiomId.D3, AxiomWitness(e=1))
    # G = 0 is an event, so this witness names an instance and is read
    assert replay_witness(m, 2, AxiomId.D1, AxiomWitness(e=7, g=0)) is False
    assert set(reads) == {(4, 7)}


def test_axiom_verdicts_are_frozen():
    # Every verdict and witness replay on seeded models of 1-4 states.  A
    # third of the frames have about a tenth of their selection rows
    # dropped, where the error raised at the first missing row is recorded
    # instead; another third have some rows replaced by arbitrary nonempty
    # subsets of their event, which breaks centering.  The digest was
    # recorded by running this body on the commit before each postulate
    # became one instance function, with a lemma-report record per state
    # then; it was re-recorded once, with only those records dropped, on the
    # commit before the lemma audit left.  Any change to a verdict, a first
    # witness or the first missing row shows here.
    rng = random.Random(6)
    digest = hashlib.sha256()

    def record(decide):
        try:
            out = decide()
        except UndefinedSelectionError as exc:
            out = [type(exc).__name__, str(exc)]
        digest.update(json.dumps(out, sort_keys=True).encode())

    def verdict_obj(m, s, axiom, ctx):
        verdict = axiom_holds(m, s, axiom, ctx=ctx)
        obj = verdict.to_obj(m)
        if verdict.witness is not None:
            obj["replayed"] = replay_witness(m, s, axiom, verdict.witness)
        return obj

    for n in range(1, 5):
        for k in range(30):
            fr = random_frame(rng, n, pointed=rng.random() < 0.3)
            selection = dict(fr.selection)
            for key in rng.sample(sorted(selection), max(1, len(selection) // 10)):
                if k % 3 == 0:
                    del selection[key]
                elif k % 3 == 1:
                    selection[key] = (key[1] & rng.randrange(fr.full + 1)) or key[1]
            fr = frame_of(n, fr.belief, selection)
            for _ in range(3):
                m = Model(fr, {a: rng.randrange(fr.full + 1) for a in ("p", "q")})
                ctx = ModelContext.of(m)
                for s in range(n):
                    for axiom in AxiomId:
                        record(lambda: verdict_obj(m, s, axiom, ctx))
    assert digest.hexdigest() == (
        "3234ce29868b2ea406daaa6301d4ac445a8b2dd17120d62a357b9baae9b410ab"
    )


# --- applicability gates --------------------------------------------------


def test_d7_d9_not_applicable_at_incomplete_states():
    m = model_on(3, [0b011] * 3, {"p": 0b001})  # belief straddles two cells
    for axiom in (AxiomId.D7, AxiomId.D9):
        verdict = axiom_holds(m, 0, axiom)
        assert verdict.status is Status.NOT_APPLICABLE
        assert verdict.to_obj(m) == {
            "axiom": axiom.value,
            "holds": None,
            "applicable": False,
        }
    # R8 is not completeness-gated
    assert axiom_holds(m, 0, AxiomId.R8).status is not Status.NOT_APPLICABLE


def test_the_r8_holds_test_passes_where_d5_fails():
    # at s1, believing {s2}, D5 fails and R8 holds: the gated kernel decides
    # R8 on the closure table alone, whatever D5's verdict
    m = random_model(random.Random(0), 3)
    b = m.frame.belief[1]
    assert b == 0b100
    assert axiom_holds(m, 1, AxiomId.D5).status is Status.FAILS
    assert axiom_holds(m, 1, AxiomId.R8).holds
    assert axioms._holds_test(ModelContext.of(m), AxiomId.R8, b)


def test_a_state_index_outside_the_frame_is_refused():
    # both routes name the index before any work, whatever the postulate:
    # -1 is not read as the last state, nor 3 as an IndexError
    m = random_model(random.Random(0), 3)
    for s in (-1, 3, -4, 7):
        for axiom in (AxiomId.D2, AxiomId.D3, AxiomId.D0):
            for route in (axiom_holds, axiom_status_via_formulas):
                with pytest.raises(ValueError, match=f"^state index {s} is not a state"):
                    route(m, s, axiom)


def test_d3_r5_live_in_the_extension_layer():
    m = model_on(2, [0b01, 0b10], {"p": 0b01})
    assert axiom_holds(m, 0, AxiomId.D3).status is Status.NOT_APPLICABLE
    assert axiom_holds(m, 0, AxiomId.R5).status is Status.NOT_APPLICABLE


def test_d9_matches_r8_at_complete_states(monkeypatch):
    # at a complete belief set R8 is D9's decision: one verdict, one witness
    # and one decision, whichever is asked first.  A decision is a holds
    # test, or a scan not right after the test it follows up.
    calls = []
    for name in ("_holds_test", "_violations"):
        def counted(ctx, axiom, b, real=getattr(axioms, name), name=name):
            calls.append((name, b, axiom))
            return real(ctx, axiom, b)

        monkeypatch.setattr(axioms, name, counted)

    def decisions():
        return [(b, axiom) for k, (name, b, axiom) in enumerate(calls)
                if k == 0 or calls[k - 1] != ("_holds_test", b, axiom)]

    # A failing first decision is a declined holds test followed by a scan;
    # a state whose belief set an earlier state shares reads the memo.
    fails = scanned = hits = 0
    for seed in range(40):
        m = random_model(random.Random(seed), 3, pointed=True)
        order = (AxiomId.D9, AxiomId.R8) if seed % 2 else (AxiomId.R8, AxiomId.D9)
        ctx = ModelContext.of(m)
        for s in range(3):
            assert is_complete_at(m, s)
            calls.clear()
            first, second = (axiom_holds(m, s, ax, ctx=ctx) for ax in order)
            assert (first.status, first.witness) == (second.status, second.witness)
            assert len(decisions()) <= 1
            if first.status is Status.FAILS:
                fails += 1
                b = m.frame.belief[s]
                scanned += calls == [("_holds_test", b, order[0]), ("_violations", b, order[0])]
                hits += calls == []
    assert fails >= 30 and scanned >= 25 and scanned + hits == fails, (fails, scanned, hits)
    # at an incomplete belief set D9 is not applicable and R8 is decided alone
    m = model_on(3, [0b011] * 3, {"p": 0b001})
    calls.clear()
    assert axiom_holds(m, 0, AxiomId.D9).status is Status.NOT_APPLICABLE
    assert axiom_holds(m, 0, AxiomId.R8).status is not Status.NOT_APPLICABLE
    assert decisions() == [(0b011, AxiomId.R8)]


def test_structural_postulates_hold():
    m = model_on(2, [0b01, 0b10], {"p": 0b01})
    for axiom in (AxiomId.D0, AxiomId.D4, AxiomId.R1, AxiomId.R6):
        assert axiom_holds(m, 0, axiom).holds


def test_cell_budget_guard():
    m = model_on(3, [0b001] * 3, {"p": 0b001, "q": 0b010})
    with pytest.raises(SizeLimitError):
        ModelContext.of(m, max_cells=2)
    with pytest.raises(SizeLimitError):
        axiom_holds(m, 0, AxiomId.D2, max_cells=2)


# The classification both routes read through `axioms._PLANS`, written out:
# the extension-only postulates are never applicable, the structural ones
# always hold, D7 and D9 apply only at complete belief sets, the aliases
# resolve to their update twins, and R8 is decided under D9's memo key.
NEVER_APPLICABLE = {AxiomId.D3, AxiomId.R5}
HOLD_BY_REPRESENTATION = {AxiomId.D0, AxiomId.R1, AxiomId.D4, AxiomId.R6}
COMPLETE_ONLY = {AxiomId.D7, AxiomId.D9}
TWINS = {AxiomId.R1: AxiomId.D0, AxiomId.R2: AxiomId.D1, AxiomId.R6: AxiomId.D4,
         AxiomId.R7: AxiomId.D5}


def test_every_axiom_has_a_plan_with_the_written_rules():
    assert list(axioms._PLANS) == list(AxiomId)
    for axiom, plan in axioms._PLANS.items():
        resolved = TWINS.get(axiom, axiom)
        assert plan.resolved is resolved
        assert plan.key is (AxiomId.D9 if axiom is AxiomId.R8 else resolved)
        assert plan.complete_only == (axiom in COMPLETE_ONLY)
        assert plan.fixed is (
            Status.NOT_APPLICABLE if axiom in NEVER_APPLICABLE
            else Status.HOLDS if axiom in HOLD_BY_REPRESENTATION else None
        )
        assert plan.holds == AxiomVerdict(axiom, Status.HOLDS)
        assert plan.not_applicable == AxiomVerdict(axiom, Status.NOT_APPLICABLE)


def test_both_routes_follow_the_written_rules():
    # on seeded complete and incomplete states; a verdict that does not fail
    # is the postulate's shared one
    rng = random.Random(23)
    seen = Counter()
    for n in range(1, 4):
        for k in range(18):
            m = random_model(rng, n, pointed=k % 3 == 0)
            ctx = ModelContext.of(m)
            for s in range(n):
                complete = any(not m.frame.belief[s] & ~c for c in cells(m))
                seen[complete] += 1
                for axiom in AxiomId:
                    if axiom in NEVER_APPLICABLE or axiom in COMPLETE_ONLY and not complete:
                        want = {Status.NOT_APPLICABLE}
                    elif axiom in HOLD_BY_REPRESENTATION:
                        want = {Status.HOLDS}
                    else:
                        want = {Status.HOLDS, Status.FAILS}
                    verdict = axiom_holds(m, s, axiom, ctx=ctx)
                    assert verdict.status in want, (axiom, n, k, s)
                    assert axiom_status_via_formulas(m, s, axiom) in want, (axiom, n, k, s)
                    assert verdict.axiom is axiom
                    plan = axioms._PLANS[axiom]
                    if verdict.status is Status.HOLDS:
                        assert verdict is plan.holds
                    elif verdict.status is Status.NOT_APPLICABLE:
                        assert verdict is plan.not_applicable
    assert seen[True] >= 20 and seen[False] >= 20, seen


def test_fixed_verdicts_return_before_the_cell_bound():
    # three cells, and s0 believes {s1, s2}, which straddles two of them
    m = model_on(3, [0b110, 0b011, 0b101], {"p": 0b001, "q": 0b010})
    with pytest.raises(SizeLimitError):
        axiom_holds(m, 0, AxiomId.D1, max_cells=1)
    for axiom, status in ((AxiomId.D3, Status.NOT_APPLICABLE), (AxiomId.R5, Status.NOT_APPLICABLE),
                          (AxiomId.D7, Status.NOT_APPLICABLE), (AxiomId.D9, Status.NOT_APPLICABLE),
                          (AxiomId.D0, Status.HOLDS), (AxiomId.R1, Status.HOLDS)):
        assert axiom_holds(m, 0, axiom, max_cells=1).status is status


# --- reduction vs. formula-level quantification ---------------------------


@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_reductions_agree_with_formula_quantification(seed, n):
    m = random_model(random.Random(seed), n)
    ctx = ModelContext.of(m)
    for s in range(n):
        for axiom in ALL_AXIOMS:
            got = axiom_holds(m, s, axiom, ctx=ctx).status
            want = axiom_status_via_formulas(m, s, axiom)
            assert got == want, (axiom, s, seed)


def test_formula_route_flags_the_worked_failures():
    m = model_on(3, [0b010] * 3, {"p": 0b110, "q": 0b100},
                 selection={(1, 0b110): 0b100})
    assert axiom_status_via_formulas(m, 0, AxiomId.D2) is Status.FAILS
    pointed = model_on(
        4,
        [0b0001, 0b0010, 0b0100, 0b1000],
        {"p": 0b1100, "q": 0b1010},
        selection={(0, 0b0110): 0b0100},
    )
    assert axiom_status_via_formulas(pointed, 0, AxiomId.D9) is Status.FAILS
    assert axiom_status_via_formulas(pointed, 0, AxiomId.D1) is Status.HOLDS


def test_oracle_refuses_plain_string_ids():
    # a decided status is not handed to a string that merely equals its id
    m = model_on(2, [0b01, 0b10], {"p": 0b01})
    assert axiom_status_via_formulas(m, 0, AxiomId.D2) is Status.HOLDS
    with pytest.raises(ValueError, match="no formula-level check for D2"):
        axiom_status_via_formulas(m, 0, "D2")
    with pytest.raises(ValueError, match="no formula-level check for R8"):
        axiom_status_via_formulas(m, 0, "R8")
    # nor does the holds-by-representation answer of D0 and D4
    assert axiom_status_via_formulas(m, 0, AxiomId.D0) is Status.HOLDS
    # nor the status of the id a plain string's alias would resolve to
    for plain in ("D0", "D4", "R1", "R2", "R5", "R6", "R7"):
        with pytest.raises(ValueError, match=f"no formula-level check for {plain}"):
            axiom_status_via_formulas(m, 0, plain)


STRUCTURAL = [AxiomId.D0, AxiomId.R1, AxiomId.D4, AxiomId.R6]


def test_structural_postulates_hold_on_frames_with_dropped_rows():
    # a belief set is the set of formulas true throughout one support event,
    # so both routes answer D0/R1/D4/R6 without reading a selection row
    rng = random.Random(11)
    for n in range(1, 4):
        fr = random_frame(rng, n)
        selection = dict(fr.selection)
        for key in rng.sample(sorted(selection), max(1, len(selection) // 3)):
            del selection[key]
        for m in (
            Model(frame_of(n, fr.belief, selection), {"p": rng.randrange(fr.full + 1)}),
            Model(frame_of(n, fr.belief, {}), {"p": 1, "q": fr.full}),
        ):
            with pytest.raises(UndefinedSelectionError):
                axiom_status_via_formulas(m, 0, AxiomId.D1)
            for s in range(n):
                for axiom in STRUCTURAL:
                    assert axiom_holds(m, s, axiom).status is Status.HOLDS
                    assert axiom_status_via_formulas(m, s, axiom) is Status.HOLDS


def test_structural_postulates_still_read_the_pool():
    # the oracle answers only after reading its pool: a foreign atom raises
    m = model_on(2, [0b01, 0b10], {"p": 0b01})
    foreign = [TRUE, Atom("p"), Atom("r")]
    for axiom in STRUCTURAL:
        with pytest.raises(UnknownAtomError, match="atom 'r'"):
            axiom_status_via_formulas(m, 0, axiom, formulas=foreign)


def test_oracle_decides_d9_and_r8_once_per_complete_belief_set():
    # R8 runs D9's branch, and D9's gate depends only on the belief set, so
    # past the gate the two share one status, whichever is asked first
    selection = {(0, 0b0110): 0b0100}
    for order in ((AxiomId.D9, AxiomId.R8), (AxiomId.R8, AxiomId.D9)):
        m = model_on(4, [0b0001, 0b0010, 0b0100, 0b1000], {"p": 0b1100, "q": 0b1010}, selection)
        assert [axiom_status_via_formulas(m, 0, ax) for ax in order] == [Status.FAILS] * 2
        (ctx,) = m._oracle.values()
        assert list(ctx.statuses) == [(0b0001, AxiomId.D9)]
    # at an incomplete belief set D9 stops at its gate and R8 is decided
    fat = model_on(2, [0b11, 0b11], {"p": 0b01})
    assert axiom_status_via_formulas(fat, 0, AxiomId.D9) is Status.NOT_APPLICABLE
    assert axiom_status_via_formulas(fat, 0, AxiomId.R8) is Status.HOLDS
    (ctx,) = fat._oracle.values()
    assert list(ctx.statuses) == [(0b11, AxiomId.D9)]


def test_oracle_statuses_are_frozen():
    # Every oracle status, or the error it raises, on seeded models of 1-4
    # states over two or three atoms.  A third of the frames have about a
    # tenth of their selection rows dropped; another third have some rows
    # replaced by arbitrary nonempty events, most of them outside the row's
    # event.  Each model is asked in a shuffled (state, axiom) order, one
    # pool list serves every call, and the default pool and a pool naming
    # an atom the model lacks are asked too.  The digest was recorded by
    # running this body on the commit before the oracle kept per-model
    # state, and re-recorded when D0/R1/D4/R6 came to hold by representation
    # (only those four moved, on frames with dropped rows, from
    # UndefinedSelectionError to "holds"), so any other change to a status
    # or to the first error shows here.
    rng = random.Random(7)
    digest = hashlib.sha256()
    pool = semantic_pool(("p", "q"), depth=2, per_class=2)
    foreign = pool[:6] + [Atom("r")] + pool[6:]

    def status(m, s, axiom, formulas):
        try:
            return axiom_status_via_formulas(m, s, axiom, formulas=formulas).value
        except DoxatestError as exc:
            return [type(exc).__name__, str(exc)]

    def record(out):
        digest.update(json.dumps(out).encode())

    for n in range(1, 5):
        for k in range(18):
            fr = random_frame(rng, n, pointed=rng.random() < 0.3)
            selection = dict(fr.selection)
            for key in rng.sample(sorted(selection), max(1, len(selection) // 10)):
                if k % 3 == 0:
                    del selection[key]
                elif k % 3 == 1:
                    selection[key] = rng.randrange(1, fr.full + 1)
            fr = frame_of(n, fr.belief, selection)
            atoms = ("p", "q", "r") if k % 4 == 3 else ("p", "q")
            m = Model(fr, {a: rng.randrange(fr.full + 1) for a in atoms})
            calls = [(s, axiom) for s in range(n) for axiom in AxiomId]
            rng.shuffle(calls)
            for s, axiom in calls:
                record(status(m, s, axiom, pool))
            for s, axiom in calls[:: 3 + k % 2]:
                if len(atoms) == 2:
                    record(status(m, s, axiom, None))
                record(status(m, s, axiom, foreign))

    # a pool mutated in place between two calls on one model answers as it
    # would on a fresh model
    changed = 0
    for n in range(2, 4):
        for _ in range(6):
            fr = random_frame(rng, n)
            valuation = {a: rng.randrange(fr.full + 1) for a in ("p", "q")}
            m = Model(fr, valuation)
            calls = [(s, axiom) for s in range(n) for axiom in AxiomId]
            mutable = list(pool)
            before = [status(m, s, axiom, mutable) for s, axiom in calls]
            mutable[:] = [TRUE, FALSE, Atom("p")]
            after = [status(m, s, axiom, mutable) for s, axiom in calls]
            fresh = Model(fr, valuation)
            assert after == [status(fresh, s, axiom, mutable) for s, axiom in calls]
            changed += before != after
            mutable[:] = pool
            assert [status(m, s, axiom, mutable) for s, axiom in calls] == before
            record([before, after])
    assert changed
    assert digest.hexdigest() == (
        "96eea78977020442ab1a97b209f9371fb1eb7558c8d6a6f9107795a42f60074f"
    )


def _per_target_status(model, s, axiom, formulas, lazy):
    # The oracle as a loop over every target per event (pair): membership
    # after change tests the believed rows in ascending order and is false
    # at the first row outside the target, so it can return before reaching
    # a missing row.  `lazy` gets one entry per membership test that returns
    # although its event has a missing believed row.
    frame = model.frame
    b = frame.belief[s]
    resolved = ALIASES.get(axiom, axiom)
    if resolved in (AxiomId.D3, AxiomId.R5):
        return Status.NOT_APPLICABLE
    if resolved in (AxiomId.D7, AxiomId.D9) and not is_complete_at(model, s):
        return Status.NOT_APPLICABLE
    chi_masks = sorted({truth_set(model, f) for f in formulas})
    if resolved in (AxiomId.D0, AxiomId.D4):
        return Status.HOLDS
    nonempty = [m for m in chi_masks if m]
    rows = list(bits(b))

    memo = {}

    def member(event, target):
        got = memo.get((event, target))
        if got is None:
            got = memo[event, target] = all(not frame.sel(j, event) & ~target for j in rows)
            if not all((j, event) in frame.selection for j in rows):
                lazy.append((event, target))
        return got

    def sup(event):
        out = 0
        for j in rows:
            out |= frame.sel(j, event)
        return out

    if resolved is AxiomId.D1:
        fails = not all(member(ep, ep) for ep in nonempty)
    elif resolved is AxiomId.D2:
        fails = any(
            member(ep, mc) != (not b & ~mc)
            for ep in nonempty if not b & ~ep for mc in chi_masks
        )
    elif resolved is AxiomId.R3:
        fails = any(
            member(ep, mc) and b & ep & ~mc for ep in nonempty for mc in chi_masks
        )
    elif resolved is AxiomId.R4:
        fails = any(
            not b & ~mc and not member(ep, mc)
            for ep in nonempty if b & ep for mc in chi_masks
        )
    elif resolved is AxiomId.D5:
        for ep in nonempty:
            sup_p = sup(ep)
            fails = any(
                member(ep & eq, mc) and sup_p & eq & ~mc
                for eq in nonempty if ep & eq for mc in chi_masks
            )
            if fails:
                break
    elif resolved is AxiomId.D6:
        fails = any(
            member(ep, mc) != member(eq, mc)
            for ep in nonempty for eq in nonempty
            if member(ep, eq) and member(eq, ep)
            for mc in chi_masks
        )
    elif resolved is AxiomId.D7:
        fails = any(
            member(ep, mc) and member(eq, mc) and not member(ep | eq, mc)
            for ep in nonempty for eq in nonempty for mc in chi_masks
        )
    else:  # D9 and R8
        for ep in nonempty:
            sup_p = sup(ep)
            fails = any(
                not sup_p & eq & ~mc and not member(ep & eq, mc)
                for eq in nonempty if sup_p & eq for mc in chi_masks
            )
            if fails:
                break
    return Status.FAILS if fails else Status.HOLDS


def test_bitset_oracle_matches_the_per_target_loop():
    # Every (state, axiom) on seeded 1-4-state frames over two and three
    # atoms: a third with a tenth of their rows dropped, a third with a
    # tenth replaced by arbitrary nonempty events, and a third where the
    # last state loses about half its rows and a quarter of the others are
    # replaced, so that a membership test often returns at a row outside
    # its target before it reaches a missing one.  The oracle's status, or
    # its error's type and text, is the per-target loop's, for the default
    # pool and for a pool whose truth sets are not closed under union.
    rng = random.Random(18)
    small = [TRUE, Atom("p"), Atom("q")]
    default = {atoms: semantic_pool(atoms, depth=3) for atoms in (("p", "q"), ("p", "q", "r"))}
    lazy_returns = raised = calls = 0

    def outcome(decide):
        try:
            return decide().value
        except DoxatestError as exc:
            return [type(exc).__name__, str(exc)]

    for n in range(1, 5):
        for k in range(36):
            fr = random_frame(rng, n, pointed=k % 3 < 2 and rng.random() < 0.3)
            selection = dict(fr.selection)
            if k % 3 < 2:
                for key in rng.sample(sorted(selection), max(1, len(selection) // 10)):
                    if k % 3:
                        selection[key] = rng.randrange(1, fr.full + 1)
                    else:
                        del selection[key]
            else:
                for key in sorted(selection):
                    if key[0] == n - 1 and rng.random() < 0.5:
                        del selection[key]
                    elif rng.random() < 0.25:
                        selection[key] = rng.randrange(1, fr.full + 1)
            fr = frame_of(n, fr.belief, selection)
            atoms = ("p", "q", "r") if k % 2 else ("p", "q")
            m = Model(fr, {a: rng.randrange(fr.full + 1) for a in atoms})
            for formulas in (None, small):
                pool = formulas or default[atoms]
                for s in range(n):
                    for axiom in AxiomId:
                        lazy = []
                        want = outcome(lambda: _per_target_status(m, s, axiom, pool, lazy))
                        got = outcome(
                            lambda: axiom_status_via_formulas(m, s, axiom, formulas=formulas)
                        )
                        assert got == want, (n, k, s, axiom, formulas)
                        calls += 1
                        raised += isinstance(want, list)
                        lazy_returns += bool(lazy) and not isinstance(want, list)
    assert calls == 2 * 36 * 10 * len(AxiomId)
    assert lazy_returns >= 60 and raised >= 1500, (lazy_returns, raised)


def test_oracle_reads_no_cells_closures_or_frame_supports(monkeypatch):
    # the oracle's seam: on complete models it decides every postulate
    # without cells, cell closures, definable events or Frame's Sup tables
    rng = random.Random(5)
    models = [random_model(rng, n, pointed=k % 2 == 0) for n in (1, 2, 3) for k in range(6)]

    def statuses():
        return [
            axiom_status_via_formulas(Model(m.frame, m.valuation), s, axiom)
            for m in models
            for s in range(m.frame.n)
            for axiom in AxiomId
        ]

    want = statuses()

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle read a reduction primitive")

    for name in ("cells", "cell_closure", "definable_events"):
        monkeypatch.setattr(axioms, name, forbidden)
    monkeypatch.setattr(Frame, "sup", forbidden)
    monkeypatch.setattr(Frame, "sup_table", forbidden)
    assert statuses() == want
    assert Status.FAILS in want and Status.HOLDS in want


def test_oracle_reads_no_reduction_primitive_on_fresh_frames(monkeypatch):
    # the seam once more, with every model on a frame of its own, so that
    # no context shared on a frame answers in place of `_decide`
    rng = random.Random(5)
    models = [random_model(rng, n, pointed=k % 2 == 0) for n in (1, 2, 3) for k in range(6)]

    def statuses():
        return [
            axiom_status_via_formulas(
                Model(Frame(m.frame.states, m.frame.belief, m.frame.rows), m.valuation), s, axiom)
            for m in models
            for s in range(m.frame.n)
            for axiom in AxiomId
        ]

    want = statuses()

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle read a reduction primitive")

    for name in ("cells", "cell_closure", "definable_events"):
        monkeypatch.setattr(axioms, name, forbidden)
    monkeypatch.setattr(Frame, "sup", forbidden)
    monkeypatch.setattr(Frame, "sup_table", forbidden)
    assert statuses() == want
    assert Status.FAILS in want and Status.HOLDS in want


def _oracle_outcome(m, s, axiom, formulas=None):
    try:
        return axiom_status_via_formulas(m, s, axiom, formulas=formulas).value
    except DoxatestError as exc:
        return [type(exc).__name__, str(exc)]


def _rebuilt(m):
    # the model on a frame of its own: no context is shared with another model
    fr = m.frame
    return Model(Frame(fr.states, fr.belief, fr.rows), m.valuation)


def test_models_of_a_frame_share_one_oracle_context_per_truth_set_family():
    fr = random_frame(random.Random(3), 3)
    pool = [TRUE, FALSE, Atom("p"), Atom("q")]
    first = Model(fr, {"p": 0b011, "q": 0b101})
    swapped = Model(fr, {"p": 0b101, "q": 0b011})  # the same truth sets
    other = Model(fr, {"p": 0b001, "q": 0b101})
    calls = [(s, axiom) for s in range(3) for axiom in AxiomId]
    for m in (first, swapped, other):
        assert [_oracle_outcome(m, s, ax, pool) for s, ax in calls] == [
            _oracle_outcome(_rebuilt(m), s, ax, pool) for s, ax in calls
        ]
    assert swapped._oracle[id(pool)] is first._oracle[id(pool)]
    assert other._oracle[id(pool)] is not first._oracle[id(pool)]
    assert len(fr._oracle) == 2
    # a new model on a rebuilt frame shares nothing with these
    fresh = _rebuilt(first)
    axiom_status_via_formulas(fresh, 0, AxiomId.D1, formulas=pool)
    assert fresh._oracle[id(pool)] is not first._oracle[id(pool)]


def test_a_pool_mutated_between_two_models_of_a_frame_rebuilds_the_context():
    rng = random.Random(13)
    changed = 0
    for n in (2, 3):
        for _ in range(6):
            fr = random_frame(rng, n)
            valuation = {a: rng.randrange(fr.full + 1) for a in ("p", "q")}
            calls = [(s, axiom) for s in range(n) for axiom in AxiomId]
            pool = list(semantic_pool(("p", "q"), depth=2))
            m = Model(fr, valuation)
            before = [_oracle_outcome(m, s, ax, pool) for s, ax in calls]
            built = m._oracle[id(pool)]
            # another family: the second model gets the new pool's statuses
            pool[:] = [TRUE, FALSE, Atom("p")]
            second = Model(fr, valuation)
            after = [_oracle_outcome(second, s, ax, pool) for s, ax in calls]
            assert after == [_oracle_outcome(_rebuilt(m), s, ax, pool) for s, ax in calls]
            assert second._oracle[id(pool)] is not built
            changed += before != after
            # the same family in another order: a new context whose
            # snapshot is the pool, with the same statuses
            pool[:] = [Atom("p"), FALSE, TRUE]
            third = Model(fr, valuation)
            assert [_oracle_outcome(third, s, ax, pool) for s, ax in calls] == after
            assert third._oracle[id(pool)] is not second._oracle[id(pool)]
            assert third._oracle[id(pool)].formulas == pool
    assert changed


def test_oracle_memos_stay_bounded_under_fresh_pools():
    # a new list per call, equal or not to the last: the model keeps one
    # context, the frame one per truth-set family of the last pool, and the
    # statuses stay those of a frame of the model's own
    fr = random_frame(random.Random(19), 3)
    models = [Model(fr, {"p": 0b011, "q": 0b101}), Model(fr, {"p": 0b001, "q": 0b101})]
    rng = random.Random(23)
    for k in range(300):
        p, q = Atom("p"), Atom("q")
        pool = [TRUE, FALSE, p, q, And(p, q), Or(p, Not(q))]
        pool = pool if k % 3 else rng.sample(pool, 4)
        m = models[k % 2]
        s, axiom = k % 3, ALL_AXIOMS[k % len(ALL_AXIOMS)]
        assert _oracle_outcome(m, s, axiom, pool) == _oracle_outcome(_rebuilt(m), s, axiom, pool)
        assert len(m._oracle) == 1 and len(fr._oracle) <= 2, k
    assert [len(m._oracle) for m in models] == [1, 1]


def test_models_sharing_a_context_raise_the_same_first_error():
    # dropped rows: the second model with the same truth sets raises what
    # the first raised, since a status is stored only once it is decided
    rng = random.Random(17)
    raised = 0
    for n in (2, 3):
        for _ in range(8):
            fr = random_frame(rng, n)
            selection = dict(fr.selection)
            for key in rng.sample(sorted(selection), max(1, len(selection) // 4)):
                del selection[key]
            fr = frame_of(n, fr.belief, selection)
            p, q = rng.randrange(fr.full + 1), rng.randrange(fr.full + 1)
            first, second = Model(fr, {"p": p, "q": q}), Model(fr, {"p": q, "q": p})
            for s in range(n):
                for axiom in AxiomId:
                    got = _oracle_outcome(first, s, axiom)
                    assert _oracle_outcome(second, s, axiom) == got, (n, s, axiom)
                    raised += got[0] == "UndefinedSelectionError"
            assert second._oracle == first._oracle
    assert raised >= 50, raised


def test_shared_oracle_contexts_match_a_frame_per_model():
    # every 2-atom valuation of seeded 1-3-state frames, complete, with
    # dropped rows and with rows replaced by arbitrary nonempty events:
    # each status, or error, is the one a frame of the model's own gives
    rng = random.Random(31)
    pool = semantic_pool(("p", "q"), depth=2, per_class=2)
    calls = raised = 0
    for n in (1, 2, 3):
        for k in range(3):
            fr = random_frame(rng, n, pointed=rng.random() < 0.3)
            selection = dict(fr.selection)
            for key in rng.sample(sorted(selection), max(1, len(selection) // 6)) if k else ():
                if k == 1:
                    del selection[key]
                else:
                    selection[key] = rng.randrange(1, fr.full + 1)
            fr = frame_of(n, fr.belief, selection)
            for p in range(fr.full + 1):
                for q in range(fr.full + 1):
                    m = Model(fr, {"p": p, "q": q})
                    order = [(s, axiom, formulas) for s in range(n) for axiom in AxiomId
                             for formulas in (pool, None)]
                    rng.shuffle(order)
                    alone = _rebuilt(m)
                    for s, axiom, formulas in order:
                        got = _oracle_outcome(m, s, axiom, formulas)
                        assert got == _oracle_outcome(alone, s, axiom, formulas), (n, k, p, q, s)
                        calls += 1
                        raised += isinstance(got, list)
    assert calls == sum(4**n * n for n in (1, 2, 3)) * 3 * len(AxiomId) * 2
    assert raised >= 500, raised


def test_d7_holds_without_a_scan_once_d1_and_d5_hold():
    # at a complete state, D7's holds test is D5's inside kernel, so D7
    # holds without a scan wherever D1 and D5 hold; the verdict equals a
    # forced scan, and a failing D7 keeps its first witness
    rng = random.Random(29)
    gated = scanned_fails = 0
    for k in range(240):
        n = 2 + k % 3
        m = random_model(rng, n, pointed=k % 2 == 0)
        if k % 4 == 1:  # default-rule rows make D1 and D5 hold more often
            m = Model(frame_of(n, m.frame.belief, complete=True), m.valuation)
        ctx = ModelContext.of(m)
        for s in range(n):
            b = m.frame.belief[s]
            for axiom in AxiomId:
                known = (b, axiom) not in ctx.found and all(
                    ctx.found.get((b, ax), False) is None for ax in (AxiomId.D1, AxiomId.D5)
                )
                verdict = axiom_holds(m, s, axiom, ctx=ctx)
                if axiom is not AxiomId.D7 or verdict.status is Status.NOT_APPLICABLE:
                    continue
                forced = next(axioms._violations(ModelContext.of(m), AxiomId.D7, b), None)
                assert verdict.witness == forced, (k, s)
                gated += known
                scanned_fails += forced is not None
    assert gated >= 250 and scanned_fails >= 70, (gated, scanned_fails)
    # asked first, D7 is decided alone and records nothing about D1 or D5
    m = model_on(2, [0b01, 0b10], {"p": 0b01})
    ctx = ModelContext.of(m)
    assert axiom_holds(m, 0, AxiomId.D7, ctx=ctx).holds
    assert list(ctx.found) == [(0b01, AxiomId.D7)]


def _first_of_full_scan(model, axiom, b, every_f):
    # The reduction's pair scan as it was before the walks: E ascending over
    # the definable events, F over every one of them, first failing pair.
    # `every_f` gets one entry per E visited whose Sup(b, E), with all its
    # rows present, leaves E, where the subset walk must fall back to this.
    ctx = ModelContext.of(model)
    frame = model.frame
    instance = axioms._INSTANCES[axiom][1]
    for e in ctx.definable:
        rows = [frame.selection.get((j, e)) for j in bits(b)]
        if None not in rows and any(r & ~e for r in rows):
            every_f.append(e)
        for f in ctx.definable:
            found = instance(frame.sup, b, e, f)
            if found is None:
                continue
            y, x, both = found
            for y, x in ((y, x), (x, y)) if both else ((y, x),):
                g = cell_closure(y, ctx.cell_masks)
                if x & ~g:
                    return axioms.AxiomWitness(e=e, f=f, g=g)
    return None


def test_pair_walks_find_the_full_scans_first_witness():
    # D5, D6, D7, D9 and R8 at every state of seeded 1-5-state frames over
    # two and three atoms: a third with a tenth of their rows dropped, a
    # third with a quarter replaced by arbitrary nonempty events, so that
    # Sup(b, E) leaves E and the subset walk runs F over every event, and a
    # third left whole.  The first witness, or the error's type and text,
    # is the full scan's; each route reads a fresh copy of the frame.
    rng = random.Random(19)
    pair_axioms = (AxiomId.D5, AxiomId.D6, AxiomId.D7, AxiomId.D9, AxiomId.R8)
    fails = raised = calls = every_f = 0

    def outcome(first):
        try:
            return first()
        except UndefinedSelectionError as exc:
            return [type(exc).__name__, str(exc)]

    for n in range(1, 6):
        for k in range(18):
            fr = random_frame(rng, n, pointed=rng.random() < 0.3)
            selection = dict(fr.selection)
            if k % 3 == 0:
                for key in rng.sample(sorted(selection), max(1, len(selection) // 10)):
                    del selection[key]
            elif k % 3 == 1:
                for key in rng.sample(sorted(selection), max(1, len(selection) // 4)):
                    selection[key] = rng.randrange(1, fr.full + 1)
            atoms = ("p", "q", "r") if k % 2 else ("p", "q")
            valuation = {a: rng.randrange(fr.full + 1) for a in atoms}

            def model():
                return Model(frame_of(n, fr.belief, selection), valuation)

            for s in range(n):
                b = fr.belief[s]
                for axiom in pair_axioms:
                    outside = []
                    want = outcome(lambda: _first_of_full_scan(model(), axiom, b, outside))
                    if axiom not in (AxiomId.D6, AxiomId.D7):
                        every_f += len(outside)
                    got = outcome(
                        lambda: next(axioms._violations(ModelContext.of(model()), axiom, b), None)
                    )
                    assert got == want, (n, k, s, axiom)
                    calls += 1
                    raised += isinstance(want, list)
                    fails += isinstance(want, axioms.AxiomWitness)
    assert calls == 18 * 15 * len(pair_axioms)
    assert fails >= 300 and raised >= 280 and every_f >= 170, (fails, raised, every_f)


def test_a_passing_holds_test_means_the_scan_finds_nothing():
    # Every searched postulate (D1, R2, D2, R3, R4, D5, R7, D6, D7, D9 and
    # R8) at every state of seeded 1-5-state models over 1, 2 and 3 atoms,
    # so that some cells hold more than one state: a third of the frames
    # whole, a third with a tenth of their rows dropped, a third with a
    # quarter replaced by arbitrary nonempty events.  The holds test never
    # raises, and when it passes, the scan on a fresh copy of the model
    # finds no witness and raises nothing.  Half the models record D5
    # through `axiom_holds` first, which no other postulate's test reads.
    rng = random.Random(43)
    axes = (AxiomId.D1, AxiomId.R2, AxiomId.D2, AxiomId.R3, AxiomId.R4,
            AxiomId.D5, AxiomId.R7, AxiomId.D6, AxiomId.D7, AxiomId.D9, AxiomId.R8)
    by_axiom, by_kind, declines = Counter(), Counter(), 0
    for n in range(1, 6):
        for k in range(180):
            fr = random_frame(rng, n, pointed=rng.random() < 0.3)
            selection = dict(fr.selection)
            if k % 3 == 1:
                for key in rng.sample(sorted(selection), max(1, len(selection) // 10)):
                    del selection[key]
            elif k % 3 == 2:
                for key in rng.sample(sorted(selection), max(1, len(selection) // 4)):
                    selection[key] = rng.randrange(1, fr.full + 1)
            atoms = ("p", "q", "r")[: 1 + k // 3 % 3]
            valuation = {a: rng.randrange(fr.full + 1) for a in atoms}

            def model():
                return Model(frame_of(n, fr.belief, selection), valuation)

            m = model()
            ctx = ModelContext.of(m)
            for s in range(n):
                b = fr.belief[s]
                if k % 2:
                    try:
                        axiom_holds(m, s, AxiomId.D5, ctx=ctx)
                    except UndefinedSelectionError:
                        pass
                for axiom in axes:
                    resolved = ALIASES.get(axiom, axiom)
                    if not axioms._holds_test(ctx, resolved, b):
                        declines += 1
                        continue
                    by_axiom[axiom] += 1
                    by_kind[k % 3] += 1
                    scan = axioms._violations(ModelContext.of(model()), resolved, b)
                    assert next(scan, None) is None, (n, k, s, axiom)
    # floors a little under the counts seen: a weaker test passes less
    assert declines >= 14700, declines
    seen = {AxiomId.D1: 1620, AxiomId.R2: 1620, AxiomId.D2: 791, AxiomId.R3: 1602,
            AxiomId.R4: 781, AxiomId.D5: 1356, AxiomId.R7: 1356, AxiomId.D6: 1478,
            AxiomId.D7: 1356, AxiomId.D9: 1376, AxiomId.R8: 1376}
    assert all(by_axiom[a] >= 0.97 * seen[a] for a in axes), by_axiom
    # whole frames, a tenth of the rows dropped, a quarter replaced
    assert by_kind[0] >= 7600 and by_kind[1] >= 3000 and by_kind[2] >= 3750, by_kind
    # the canonical model of a 2-atom table that passes every one-step D9
    # rule and fails D5 and D9: the gated kernel declines D9 on its own
    table = ChangeFunctionTable(
        WorldContext(("p", "q")), 0b0100,
        [0, 1, 2, 1, 4, 1, 2, 1, 8, 1, 8, 9, 8, 13, 8, 13],
    )
    m = build_canonical_model(table)
    ctx = ModelContext.of(m)
    assert ctx.cell_masks == (1, 2, 4, 8)  # one world per cell: cell choices are events
    r = [0] + [cell_closure(m.frame.sup(0b0100, e), ctx.cell_masks) for e in ctx.definable]
    steps = [(e, e & ~(1 << i)) for e in range(1, 16) for i in range(4) if e >> i & 1]
    assert all(not r[e] & g or not r[g] & ~(r[e] & g) for e, g in steps)
    for axiom in (AxiomId.D5, AxiomId.D9, AxiomId.R8):
        assert not axioms._holds_test(ctx, axiom, 0b0100)
        assert axiom_holds(m, 0, axiom, ctx=ctx).status is Status.FAILS


def _per_cell(x, cell_masks):
    # the cells meeting x, as a set of cell indices, one test per cell
    return sum([1 << i for i, c in enumerate(cell_masks) if c & x])


def test_the_lift_builds_the_per_cell_closure_table():
    # R and Bc read through the context's lift equal the per-cell test on
    # seeded 1-5-state models (whole, a tenth of the rows dropped, or a
    # quarter replaced), with the model's cells, with cells that overlap and
    # with cells that leave states uncovered.  With the model's own cells,
    # where the gate is open, each single-event kernel is exact: it passes
    # iff the scan finds nothing.
    rng = random.Random(53)
    single = (AxiomId.D1, AxiomId.D2, AxiomId.R3, AxiomId.R4)
    tables, gates, exact = Counter(), Counter(), Counter()
    for n in range(1, 6):
        for k in range(36):
            fr = random_frame(rng, n, pointed=rng.random() < 0.3)
            selection = dict(fr.selection)
            if k % 3 == 1:
                for key in rng.sample(sorted(selection), max(1, len(selection) // 10)):
                    del selection[key]
            elif k % 3 == 2:
                for key in rng.sample(sorted(selection), max(1, len(selection) // 4)):
                    selection[key] = rng.randrange(1, fr.full + 1)
            valuation = {a: rng.randrange(fr.full + 1) for a in ("p", "q")[: 1 + k % 2]}
            m = Model(frame_of(n, fr.belief, selection), valuation)
            own = cells(m)
            kinds = {
                "own": own,
                "overlapping": own + tuple(rng.randrange(1, fr.full + 1) for _ in range(2)),
                "uncovered": own[1:] or (0,),
            }
            for kind, cell_masks in kinds.items():
                ctx = ModelContext.of(m, cell_masks=cell_masks)
                w = grid(len(cell_masks))[0]
                for b in set(fr.belief):
                    axioms._holds_test(ctx, AxiomId.D1, b)
                    sups = m.frame.sup_table(b)
                    want = None
                    if not any(sups[e] & ~e for e in ctx.definable):
                        r = [_per_cell(sups[e], cell_masks) for e in ctx.definable]
                        want = pack(r, w) << w, _per_cell(b, cell_masks)
                        gates[kind] += 1
                    assert ctx.closures[b] == want, (n, k, kind, b)
                    tables[kind] += 1
                    if kind != "own" or want is None:
                        continue
                    for axiom in single:
                        found = next(axioms._violations(ctx, axiom, b), None)
                        assert axioms._holds_test(ctx, axiom, b) == (found is None), (n, k, b)
                        exact[axiom, found is None] += 1
    # floors a little under the counts seen; with the gate open, R3 fails
    # only where a replaced row leaves out a state of its own event
    assert min(tables.values()) >= 450 and min(gates.values()) >= 260, (tables, gates)
    assert all(exact[axiom, True] >= 170 for axiom in single), exact
    assert exact[AxiomId.D2, False] >= 130 and exact[AxiomId.R4, False] >= 130, exact
    assert exact[AxiomId.R3, False] >= 3, exact


def test_holding_d2_and_r4_are_decided_without_a_scan(monkeypatch):
    # On the canonical model of an update table, a PD2 frame, D2 holds at
    # every state, and R4 on that of a revision table, a PR4 frame; one world
    # per cell, the discrete partition.  The holds test decides them alone.
    scans = []
    real = axioms._violations
    monkeypatch.setattr(axioms, "_violations",
                        lambda ctx, axiom, b: scans.append((axiom, b)) or real(ctx, axiom, b))
    rng = random.Random(59)
    for atoms in (("p", "q"), ("p", "q", "r")):
        worlds = WorldContext(atoms)
        for _ in range(6):
            for table, pid, axiom in (
                (random_update_table(rng, worlds), PropertyId.PD2, AxiomId.D2),
                (random_revision_table(rng, worlds), PropertyId.PR4, AxiomId.R4),
            ):
                m = build_canonical_model(table)
                assert check_property(m.frame, pid).holds
                ctx = ModelContext.of(m)
                assert ctx.cell_masks == tuple(1 << w for w in range(m.frame.n))
                assert all(axiom_holds(m, s, axiom, ctx=ctx).holds for s in range(m.frame.n))
    assert scans == []


def test_d9_and_r8_raise_at_the_empty_event_on_a_frame_without_success():
    # f(s0, {s0}) = {s1} leaves its event; at E = {s0}, F = {s1}: E∩F = ∅ and
    # Sup(b, E)∩F ≠ ∅, so the instance reads Sup(b, ∅), which has no row.
    # The reduction raises through the Sup table's index-0 entry (-1), the
    # oracle through its own row read, with the same error.
    frame = frame_of(2, [0b01, 0b10], {(0, 0b01): 0b10})
    assert frame.sup_table(0b01)[0] == -1
    for axiom in (AxiomId.D9, AxiomId.R8):
        for route in (axiom_holds, axiom_status_via_formulas):
            model = Model(frame_of(2, frame.belief, frame.selection), {"p": 0b01})
            with pytest.raises(UndefinedSelectionError) as exc:
                route(model, 0, axiom)
            assert str(exc.value) == "selection undefined at state 's0' for event {}"


def _reduced(m, s, axiom, ctx):
    try:
        return axiom_holds(m, s, axiom, ctx=ctx)
    except DoxatestError as exc:
        return type(exc).__name__, str(exc)


def test_one_context_shared_by_every_postulate_matches_one_per_postulate():
    # seeded complete and row-dropped 3- and 4-state models: every postulate
    # at every state on one context, in several orders (D5 first, D7, D9 and
    # R8 first, shuffled), gives the verdict, witness or first error of a
    # fresh context per question; the census shares a partition's context so
    rng = random.Random(47)
    late = (AxiomId.D7, AxiomId.D9, AxiomId.R8)
    raised = failed = d5_first = 0
    for k in range(32):
        n = 3 + k % 2
        m = random_model(rng, n, pointed=k % 3 != 2)
        if k % 4 == 1:  # default-rule rows make D1 and D5 hold more often
            m = Model(frame_of(n, m.frame.belief, complete=True), m.valuation)
        if k % 4 >= 2:
            fr = m.frame
            kept = {key: v for key, v in sorted(fr.selection.items()) if rng.random() > 0.15}
            m = Model(Frame(fr.states, fr.belief, kept), m.valuation)
        asks = [(s, axiom) for s in range(n) for axiom in AxiomId]
        want = {ask: _reduced(m, *ask, ModelContext.of(m)) for ask in asks}
        raised += sum(isinstance(w, tuple) for w in want.values())
        failed += sum(getattr(w, "status", None) is Status.FAILS for w in want.values())
        for order in range(4):
            rng.shuffle(asks)
            if order < 2:  # D5 everywhere before, or after, D7, D9 and R8
                asks.sort(key=lambda ask: (ask[1] is AxiomId.D5) == (order == 1))
            ctx = ModelContext.of(m)
            for s, axiom in asks:
                b = m.frame.belief[s]
                d5_first += axiom in late and (b, AxiomId.D5) in ctx.found and (
                    b, axioms._PLANS[axiom].key) not in ctx.found
                assert _reduced(m, s, axiom, ctx) == want[s, axiom], (k, order, s, axiom)
    assert raised >= 100 and failed >= 100 and d5_first >= 100, (raised, failed, d5_first)
