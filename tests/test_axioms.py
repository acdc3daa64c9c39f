import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from conftest import frame_of, random_frame, random_model
from hypothesis import given, settings
from hypothesis import strategies as st

from doxatest.axioms import (
    ALIASES,
    AxiomId,
    ModelContext,
    Status,
    audit_km8,
    audit_lemma_inclusion,
    axiom_holds,
    axiom_status_via_formulas,
    is_complete_at,
    replay_witness,
)
from doxatest.errors import (
    DoxatestError,
    PreconditionError,
    SizeLimitError,
    UndefinedSelectionError,
)
from doxatest.formulas import FALSE, TRUE, Atom, semantic_pool
from doxatest.frames import Frame, Model, cells, complete_selection, frame_from_obj

DATA = Path(__file__).parent / "data"

ALL_AXIOMS = list(AxiomId)
EVERY_FRAME_VALID = [AxiomId.D0, AxiomId.D1, AxiomId.R1, AxiomId.R2, AxiomId.R3]


def model_on(n, belief, valuation, selection=None):
    return Model(frame_of(n, belief, selection, complete=True), valuation)


# --- completeness ---------------------------------------------------------


def test_pointed_states_are_complete():
    m = model_on(2, [0b01, 0b10], {"p": 0b01})
    assert is_complete_at(m, 0) and is_complete_at(m, "s1")


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


@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_lemma_inclusion_clean_on_valid_frames(seed, n):
    m = random_model(random.Random(seed), n)
    for s in range(n):
        assert audit_lemma_inclusion(m, s).ok


def test_lemma_inclusion_catches_broken_centering():
    # deliberately invalid frame: the selection at {s0,s1} ignores s0 itself
    fr = Frame(
        ("s0", "s1"),
        (0b01, 0b10),
        {(0, 0b01): 0b01, (0, 0b10): 0b10, (0, 0b11): 0b10,
         (1, 0b01): 0b01, (1, 0b10): 0b10, (1, 0b11): 0b10},
    )
    m = Model(fr, {"p": 0b01})
    report = audit_lemma_inclusion(m, 0)
    assert not report.ok
    assert report.to_obj(m)["violations"] == [
        {"E": ["s0", "s1"], "G": ["s1"]}
    ]
    verdict = axiom_holds(m, 0, AxiomId.R3)
    assert verdict.status is Status.FAILS
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


def test_axiom_verdicts_are_frozen():
    # Every verdict, witness replay and lemma report on seeded models of 1-4
    # states.  A third of the frames have about a tenth of their selection
    # rows dropped, where the error raised at the first missing row is
    # recorded instead; another third have some rows replaced by arbitrary
    # nonempty subsets of their event, which breaks centering.  The digest
    # was recorded by running this body on the commit before each postulate
    # became one instance function, so any change to a verdict, a first
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
                    record(lambda: audit_lemma_inclusion(m, s).to_obj(m))
    assert digest.hexdigest() == (
        "70e8dd062ffa847a9de0e93acc6f37345dc0c089fd014d5ef6123d05460a2afb"
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


def test_d3_r5_live_in_the_extension_layer():
    m = model_on(2, [0b01, 0b10], {"p": 0b01})
    assert axiom_holds(m, 0, AxiomId.D3).status is Status.NOT_APPLICABLE
    assert axiom_holds(m, 0, AxiomId.R5).status is Status.NOT_APPLICABLE


def test_d9_matches_r8_at_complete_states():
    for seed in range(40):
        m = random_model(random.Random(seed), 3, pointed=True)
        ctx = ModelContext.of(m)
        for s in range(3):
            if not is_complete_at(m, s):
                continue
            d9 = axiom_holds(m, s, AxiomId.D9, ctx=ctx)
            r8 = axiom_holds(m, s, AxiomId.R8, ctx=ctx)
            assert d9.status == r8.status


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


# --- the quantifier-bases audit -------------------------------------------


def km8_worlds_model(valuation, extra_selection=None):
    sel = dict(extra_selection or {})
    fr = complete_selection(
        Frame(("s0", "s1", "s2", "s3"), (0b1100,) * 4, sel)
    )
    return Model(fr, valuation)


def test_km8_identity_on_canonical_valuation():
    m = km8_worlds_model({"p": 0b1100, "q": 0b1010})
    report = audit_km8(m, 0)
    assert report.holds
    assert report.to_obj(m) == {"holds": True}


def test_km8_requires_uniform_belief():
    fr = frame_of(2, [0b01, 0b10], complete=True)
    with pytest.raises(PreconditionError):
        audit_km8(Model(fr, {"p": 0b01}), 0)


def test_km8_detects_merged_cells():
    # corrupt the valuation so s1 becomes indistinguishable from believed
    # worlds while staying outside the belief set
    m = km8_worlds_model({"p": 0b1110, "q": 0b1010})
    report = audit_km8(m, 0)
    assert not report.holds
    assert report.witness_event == 0b1011
    assert report.to_obj(m)["witness"] == {"E": ["s0", "s1", "s3"]}


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
    # state, so any change to a status or to the first error shows here.
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
        "794f663568b97f660791bcde7aff21d0c02c6f76793ef5456b5a3a1194971cf0"
    )
