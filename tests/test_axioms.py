import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from conftest import frame_of, random_frame, random_model
from hypothesis import given, settings
from hypothesis import strategies as st

from doxatest import axioms
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
    UnknownAtomError,
)
from doxatest.formulas import FALSE, TRUE, Atom, semantic_pool
from doxatest.frames import (
    Frame,
    Model,
    bits,
    cell_closure,
    cells,
    complete_selection,
    frame_from_obj,
    truth_set,
)

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


def test_d9_matches_r8_at_complete_states(monkeypatch):
    # at a complete belief set R8 is D9's scan: one verdict, one witness and
    # one scan, whichever is asked first
    scans = []
    scan = axioms._violations

    def counted(ctx, axiom, b):
        scans.append((b, axiom))
        return scan(ctx, axiom, b)

    monkeypatch.setattr(axioms, "_violations", counted)
    fails = 0
    for seed in range(40):
        m = random_model(random.Random(seed), 3, pointed=True)
        order = (AxiomId.D9, AxiomId.R8) if seed % 2 else (AxiomId.R8, AxiomId.D9)
        ctx = ModelContext.of(m)
        for s in range(3):
            assert is_complete_at(m, s)
            scans.clear()
            first, second = (axiom_holds(m, s, ax, ctx=ctx) for ax in order)
            assert (first.status, first.witness) == (second.status, second.witness)
            assert len(scans) <= 1
            fails += first.status is Status.FAILS
    assert fails >= 10, fails
    # at an incomplete belief set D9 is not applicable and R8 scans alone
    m = model_on(3, [0b011] * 3, {"p": 0b001})
    scans.clear()
    assert axiom_holds(m, 0, AxiomId.D9).status is Status.NOT_APPLICABLE
    assert axiom_holds(m, 0, AxiomId.R8).status is not Status.NOT_APPLICABLE
    assert scans == [(0b011, AxiomId.R8)]


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
    # nor does the holds-by-representation answer of D0 and D4
    assert axiom_status_via_formulas(m, 0, AxiomId.D0) is Status.HOLDS
    for plain in ("D0", "D4"):
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
            if not all(frame.has_sel(j, event) for j in rows):
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


def test_d7_holds_without_a_scan_once_d1_and_d5_hold():
    # at a complete state, D1 and D5 recorded as holding decide D7; the
    # verdict equals a forced scan, and a failing D7 keeps its first witness
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
    # asked first, D7 runs its own scan and records nothing about D1 or D5
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
                g = cell_closure(model, y, ctx.cell_masks)
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
