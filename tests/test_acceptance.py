"""End-to-end gate for the workbench.

Eight checks, run in order, each ending in a single printed pass line (a
failed assertion is the corresponding fail line).  The expensive corpora are
built once per module and shared:

  * a thousand seeded base-conforming frames with up to five states,
    swept under every two-atom valuation (checks 1 and 7);
  * every one- and two-state frame plus five hundred seeded three-state
    frames of mixed origin, pushed through the two-sided
    property/postulate census (checks 2, 6, and 8);
  * three hundred generated change-function tables with their canonical
    models (checks 4, 5, and 7).

Valuation sweeps are deduplicated by atom-profile partition wherever the
verdict provably depends on the valuation only through that partition; the
double-route comparison in check 8 runs on every valuation, since its
formula-side quantification sees the atoms themselves.
"""

from __future__ import annotations

import itertools
import time
from random import Random
from pathlib import Path

import pytest

from doxatest.axioms import (
    AxiomId,
    ModelContext,
    Status,
    audit_km8,
    audit_lemma_inclusion,
    axiom_holds,
    axiom_status_via_formulas,
)
from doxatest.changegen import (
    ChangeFunctionTable,
    WorldContext,
    audit_function,
    build_canonical_model,
    random_revision_table,
    random_update_table,
    roundtrip_verify,
)
from doxatest.correspondence import (
    PAIRS,
    FrameGenSpec,
    _entry_choices,
    build_census,
    enumerate_frames,
)
from doxatest.formulas import (
    Classification,
    classify,
    cn_member,
    parse_formula,
    semantic_pool,
)
from doxatest.frames import (
    Frame,
    Model,
    _truth_set_total,
    bits,
    complete_selection,
    extended_member,
    load_structure,
    ri_support,
    subsets_of,
    validate_frame,
)
from doxatest.properties import (
    FrameClass,
    PropertyId,
    check_class,
    check_pd57_literal,
    check_property,
)

DATA = Path(__file__).parent / "data"

_CACHE: dict = {}


def _line(n: int, label: str, extra: str = "") -> None:
    tail = f" ({extra})" if extra else ""
    print(f"[{n}/8] {label}: PASS{tail}")


# ------------------------------------------------------------------
# shared corpora
# ------------------------------------------------------------------


def _profile_reps(frame: Frame) -> list[tuple[int, int]]:
    """One two-atom valuation per atom-profile partition of the states.

    Every valuation induces a partition into at most four profile cells;
    definable events and the cell-closure operator are functions of that
    partition alone, so checks that consult nothing else need only one
    representative valuation per partition — and every partition reachable
    by two atoms appears among the pairs below.
    """
    full = frame.full
    seen: set = set()
    reps: list[tuple[int, int]] = []
    for mp in range(full + 1):
        for mq in range(full + 1):
            cs = frozenset(
                c
                for c in (mp & mq, mp & ~mq & full, ~mp & full & mq, ~mp & ~mq & full)
                if c
            )
            if cs not in seen:
                seen.add(cs)
                reps.append((mp, mq))
    return reps


@pytest.fixture(scope="module")
def seeded_frames() -> list[Frame]:
    out: list[Frame] = []
    for n in range(1, 6):
        spec = FrameGenSpec(states=n, mode="random", seed=100 + n, count=200)
        out.extend(enumerate_frames(spec))
    return out


@pytest.fixture(scope="module")
def seeded_reps(seeded_frames) -> list[tuple[Frame, list[tuple[int, int]]]]:
    if "reps" not in _CACHE:
        _CACHE["reps"] = [(fr, _profile_reps(fr)) for fr in seeded_frames]
    return _CACHE["reps"]


def _rank_min(ranks: list[int], event: int) -> int:
    best = min(ranks[i] for i in bits(event))
    return sum(1 << i for i in bits(event) if ranks[i] == best)


def _centered_order_frame(rng: Random, n: int) -> Frame:
    """Selection by per-state total orders with the own state strictly
    minimal: the update-style shape, satisfying the pooled conjunction and
    priority conditions by construction."""
    full = (1 << n) - 1
    states = tuple(f"s{i}" for i in range(n))
    belief = tuple(rng.randrange(1, full + 1) for _ in range(n))
    sel = {}
    for s in range(n):
        ranks = [rng.randrange(1, n + 1) for _ in range(n)]
        ranks[s] = 0
        for e in range(1, full + 1):
            sel[(s, e)] = _rank_min(ranks, e)
    return Frame(states, belief, sel)


def _uniform_revision_frame(rng: Random, n: int) -> Frame:
    """Uniform belief set K with a faithful total ranking: believed states
    select the rank-minimal part of each event, other states select
    themselves when possible — the revision-style shape."""
    full = (1 << n) - 1
    states = tuple(f"s{i}" for i in range(n))
    k = rng.randrange(1, full + 1)
    ranks = [0 if (1 << i) & k else rng.randrange(1, n + 1) for i in range(n)]
    sel = {}
    for s in range(n):
        for e in range(1, full + 1):
            if (1 << s) & k:
                sel[(s, e)] = _rank_min(ranks, e)
            else:
                sel[(s, e)] = (1 << s) if (1 << s) & e else _rank_min(ranks, e)
    return Frame(states, (k,) * n, sel)


@pytest.fixture(scope="module")
def census_corpus() -> list[Frame]:
    corpus = list(enumerate_frames(FrameGenSpec(states=1)))
    corpus += list(enumerate_frames(FrameGenSpec(states=2)))
    assert len(corpus) == 37  # every base-conforming frame on one or two states
    corpus += list(
        enumerate_frames(FrameGenSpec(states=3, mode="random", seed=7, count=300))
    )
    rng = Random(11)
    structured = [_centered_order_frame(rng, 3) for _ in range(100)]
    structured += [_uniform_revision_frame(rng, 3) for _ in range(100)]
    for fr in structured:
        assert validate_frame(fr) == []
    corpus += structured
    return corpus


@pytest.fixture(scope="module")
def census(census_corpus) -> dict:
    if "census" not in _CACHE:
        t0 = time.monotonic()
        _CACHE["census"] = build_census(census_corpus, atom_budget=2, seed=0)
        _CACHE["census_secs"] = time.monotonic() - t0
    return _CACHE["census"]


@pytest.fixture(scope="module")
def fleet() -> list[tuple[str, object, Model]]:
    """Three hundred generated tables with their canonical models."""
    if "fleet" not in _CACHE:
        ctx = WorldContext(("p", "q"))
        rows: list[tuple[str, object, Model]] = []
        t0 = time.monotonic()
        for trial in range(100):
            table = random_update_table(Random(f"acc4:partial:{trial}"), ctx, total=False)
            report = roundtrip_verify(table, FrameClass.UPDATE)
            assert report.ok, (trial, report.to_obj(table.ctx))
            rows.append(("partial-update", table, build_canonical_model(table)))
        for trial in range(100):
            table = random_update_table(Random(f"acc4:total:{trial}"), ctx, total=True)
            report = roundtrip_verify(table, FrameClass.STRONG_UPDATE)
            assert report.ok, (trial, report.to_obj(table.ctx))
            rows.append(("total-update", table, build_canonical_model(table)))
        for trial in range(100):
            table = random_revision_table(Random(f"acc4:revision:{trial}"), ctx)
            report = roundtrip_verify(table, FrameClass.REVISION_STRICT)
            assert report.ok, (trial, report.to_obj(table.ctx))
            assert audit_function(table, "AGM").ok, trial
            rows.append(("revision", table, build_canonical_model(table)))
        _CACHE["fleet"] = rows
        _CACHE["fleet_secs"] = time.monotonic() - t0
    return _CACHE["fleet"]


# ------------------------------------------------------------------
# 1. postulates valid on every frame
# ------------------------------------------------------------------

# success containment (both readings), congruence (both readings), and the
# expansion bound: the reductions that no frame conforming to the base
# clauses can violate
ALWAYS_VALID = (AxiomId.D1, AxiomId.R2, AxiomId.R3, AxiomId.D4, AxiomId.R6)


def test_01_always_valid_postulates_sweep(seeded_reps):
    assert len(seeded_reps) == 1000
    t0 = time.monotonic()
    violations: list = []
    models = checks = 0
    for frame, reps in seeded_reps:
        assert validate_frame(frame) == []
        for mp, mq in reps:
            model = Model(frame, {"p": mp, "q": mq})
            ctx = ModelContext.of(model)
            models += 1
            for s in range(frame.n):
                for ax in ALWAYS_VALID:
                    verdict = axiom_holds(model, s, ax, ctx=ctx)
                    checks += 1
                    if verdict.status is not Status.HOLDS:
                        violations.append((frame, mp, mq, s, ax, verdict))
    secs = time.monotonic() - t0
    assert violations == []
    assert models == 14800
    assert checks == 335000
    assert secs < 60.0
    _line(
        1,
        "always-valid postulates on seeded frames",
        f"1000 frames, {models} models, {checks} checks, {secs:.1f}s",
    )


# ------------------------------------------------------------------
# 2. two-sided property/postulate correspondence
# ------------------------------------------------------------------


def test_02_two_sided_correspondence_census(census_corpus, census):
    t0 = time.monotonic()
    assert len(census_corpus) == 537
    expected_pairs = [
        ("PD2", "D2"),
        ("PD57", "D5"),
        ("PD6", "D6"),
        ("PD7", "D7"),
        ("PD9", "D9"),
        ("PR4", "R4"),
        ("PR8", "R8"),
    ]
    assert [(p.property.name, p.axiom.name) for p in PAIRS] == expected_pairs

    assert census["summary"] == {"frameCount": 537, "disagreements": 0}
    holds = fails = 0
    for row in census["frames"]:
        assert [(p["property"], p["axiom"]) for p in row["pairs"]] == expected_pairs
        if len(row["states"]) == 3:
            for p in row["pairs"]:
                if p["propertyHolds"]:
                    holds += 1
                else:
                    fails += 1
    # both verdict branches must be exercised by the three-state corpus:
    # a holding property demands a clean sweep, a failing one a countermodel
    assert holds == 1953
    assert fails == 1547
    secs = _CACHE["census_secs"] + (time.monotonic() - t0)
    assert secs < 300.0
    _line(
        2,
        "two-sided correspondence census",
        f"537 frames x 7 pairs, {holds} holds / {fails} fails at three states, {secs:.1f}s",
    )


# ------------------------------------------------------------------
# 3. row-wise vs pooled conjunction conditions come apart
# ------------------------------------------------------------------


def test_03_rowwise_vs_pooled_conjunction_separation():
    frame = load_structure(DATA / "pd57_separation.json")
    assert isinstance(frame, Frame)

    S1, S2, S3, S4, S5 = (1 << i for i in range(1, 6))
    E = S3 | S4 | S5
    F = S3 | S4
    assert frame.belief[0] == S1 | S2
    # the fixture's given selection rows, exactly
    assert frame.sel(1, E) == S3 | S4
    assert frame.sel(1, E & F) == S3
    assert frame.sel(2, E) == S4
    assert frame.sel(2, E & F) == S4

    completed = complete_selection(frame)

    strong = check_property(completed, PropertyId.PD57_STRONG)
    assert not strong.holds
    w = strong.witness
    assert (w.s, w.s_prime, w.e, w.f) == (0, 1, E, F)
    # row-wise failure at the witness: state s1 keeps s4 when the input
    # shrinks from E to E-and-F, so its own row loses containment
    assert completed.sel(1, E) & F == S3 | S4
    assert not (S3 | S4) & ~completed.sel(1, E & F) == 0

    # the pooled form at the same pair survives: the union over believed
    # rows of the shrunk input covers every kept state
    pooled = completed.sel(1, E & F) | completed.sel(2, E & F)
    assert pooled == S3 | S4
    for believed in (1, 2):
        assert completed.sel(believed, E) & F & ~pooled == 0
    assert check_property(completed, PropertyId.PD57).holds

    _line(3, "row-wise vs pooled conjunction separation", "witness (s0, s1, E, F) exact")


# ------------------------------------------------------------------
# 4. generated tables land in their declared classes and round-trip
# ------------------------------------------------------------------


def test_04_generated_tables_roundtrip_into_declared_classes(fleet):
    assert len(fleet) == 300
    kinds = {kind: 0 for kind, _, _ in fleet}
    for kind, table, _ in fleet:
        kinds[kind] += 1
    assert kinds == {"partial-update": 100, "total-update": 100, "revision": 100}
    # recovery must have compared the full table: fifteen nonempty events
    # over two atoms, none mismatched (asserted during fleet construction
    # via report.ok; re-derive one report here as a spot check)
    _, table, _ = fleet[0]
    report = roundtrip_verify(table, FrameClass.UPDATE)
    assert report.ok and report.events_checked == 15 and report.mismatched_events == ()
    secs = _CACHE["fleet_secs"]
    assert secs < 60.0
    _line(4, "generated tables round-trip into their classes", f"300/300, {secs:.1f}s")


# ------------------------------------------------------------------
# 5. the extension is total and matches the consequence oracle
# ------------------------------------------------------------------


def test_05_extension_total_and_matches_consequence_oracle(fleet):
    base_pool = semantic_pool(("p", "q"), depth=3, per_class=2)
    extra = [
        parse_formula(t) for t in ("r", "!r", "r | p", "r -> q", "r & q", "q -> r")
    ]
    probe_pool = base_pool + extra
    contradiction = parse_formula("p & !p")
    empties = [
        parse_formula(t) for t in ("r", "r & p", "r & (p | q)", "r & !q")
    ]
    for phi in empties:
        assert classify(phi) is Classification.CONTINGENT

    agreements = disagreements = true_verdicts = false_verdicts = 0
    for i, (_, _, model) in enumerate(fleet):
        rng = Random(f"acc5:{i}")
        probes = [rng.choice(probe_pool) for _ in range(50)]
        for s in range(model.frame.n):
            assert all(extended_member(model, s, contradiction, psi) for psi in probes)
        for phi in empties:
            # satisfiable as a formula, yet true at no state of the model
            assert _truth_set_total(model, phi) == 0
            for psi in probes:
                got = extended_member(model, 0, phi, psi)
                want = cn_member([phi], psi)
                if got == want:
                    agreements += 1
                else:
                    disagreements += 1
                if got:
                    true_verdicts += 1
                else:
                    false_verdicts += 1
    assert disagreements == 0
    assert true_verdicts and false_verdicts  # the oracle match is not vacuous
    _line(
        5,
        "extension total, matches consequence oracle",
        f"{agreements} probe agreements, 0 disagreements",
    )


# ------------------------------------------------------------------
# 6. class inclusions, revision as update made stronger, and the
#    gap between the two revision recipes
# ------------------------------------------------------------------


def _d1_to_d3_tables(ctx: WorldContext, k: int):
    """Every table at K that keeps D1-D3: r(E) = K when K ⊆ E, otherwise
    any nonempty subset of E."""
    free = [e for e in range(1, ctx.full + 1) if k & ~e]
    for picks in itertools.product(*([x for x in subsets_of(e) if x] for e in free)):
        results = [0] + [k] * ctx.full
        for e, x in zip(free, picks):
            results[e] = x
        yield ChangeFunctionTable(ctx, k, "custom", results)


def _pointed_uniform_frames(n: int):
    """Every frame on n states in which each state believes {s0}.  Only s0's
    row matters for the revision conditions, and on events containing s0
    the base clauses and PR4 force it to {s0}, so it is free only on the
    events avoiding s0; the other rows are the default completion."""
    states = tuple(f"s{i}" for i in range(n))
    free = range(2, 1 << n, 2)
    for picks in itertools.product(*(_entry_choices(0, e) for e in free)):
        selection = {(0, e): 1 for e in range(1, 1 << n, 2)}
        selection.update(((0, e), x) for e, x in zip(free, picks))
        yield complete_selection(Frame(states, (1,) * n, selection))


def test_06_class_inclusions_and_recipe_gap_probe(census_corpus, census):
    strict = strong_of_strict = row_conj = priority = conjunction = 0
    pointed = strong_only = 0
    for frame, row in zip(census_corpus, census["frames"]):
        classes = row["classes"]
        holds_by_property = {p["property"]: p["propertyHolds"] for p in row["pairs"]}
        if classes["REVISION_STRICT"]:
            strict += 1
            assert classes["STRONG_UPDATE"], row
            strong_of_strict += 1
        elif classes["STRONG_UPDATE"]:
            strong_only += 1
        if all(b.bit_count() == 1 for b in frame.belief):
            # at B = {i}, PR4 is PD2 and PR8 is PD9: the recipes coincide
            pointed += 1
            assert holds_by_property["PR4"] == holds_by_property["PD2"], row
            assert holds_by_property["PR8"] == holds_by_property["PD9"], row
            assert classes["REVISION_STRICT"] == classes["STRONG_UPDATE"], row
        if check_property(frame, PropertyId.PD57_STRONG).holds:
            row_conj += 1
            assert holds_by_property["PD57"], row
        if holds_by_property["PR4"]:
            priority += 1
            assert holds_by_property["PD2"], row
        if holds_by_property["PR8"]:
            conjunction += 1
            assert holds_by_property["PD9"], row
    # no inclusion may pass vacuously
    assert strict and row_conj and priority and conjunction and pointed and strong_only
    assert strict == strong_of_strict

    # the table side at every singleton K on 2 atoms: KM_STRONG and AGM
    # accept the same tables
    ctx = WorldContext(("p", "q"))
    for w in range(ctx.n_worlds):
        tables = list(_d1_to_d3_tables(ctx, 1 << w))
        accepted = {
            suite: {t.results for t in tables if audit_function(t, suite).ok}
            for suite in ("KM", "KM_STRONG", "AGM")
        }
        assert len(tables) == 189
        assert len(accepted["KM"]) == 22
        assert accepted["KM_STRONG"] == accepted["AGM"] and len(accepted["AGM"]) == 13

    # the bare revision recipe (REVISION_DEF12) against the conjunction
    # recipe (REVISION_STRICT, DEF12 plus PD57): no frame on 1-2 states
    # separates them ...
    small = [row["classes"] for row in census["frames"] if len(row["states"]) <= 2]
    assert len(small) == 37
    bare = [c for c in small if c["REVISION_DEF12"]]
    assert len(bare) == 19 and all(c["REVISION_STRICT"] for c in bare)
    # ... but 32 of the 45 pointed-uniform 4-state members fail PD57
    candidates = list(_pointed_uniform_frames(4))
    assert len(candidates) == 189
    members = [f for f in candidates if check_class(f, FrameClass.REVISION_DEF12).holds]
    separators = [f for f in members if not check_property(f, PropertyId.PD57).holds]
    assert len(members) == 45 and len(separators) == 32
    assert separators[0] == load_structure(DATA / "def12_gap.json")
    _line(
        6,
        "class inclusions hold; revision is update made stronger; "
        "the two revision recipes agree on 1-2 states and part on 4",
        f"{strict} strict-revision, {row_conj} row-conjunction, {priority} priority, "
        f"{conjunction} PR8 frames; {pointed} one-state-belief frames agree, "
        f"{strong_only} strong-update only; per singleton K on 2 atoms, 189 D1-D3 "
        f"tables, KM 22, KM_STRONG = AGM 13; REVISION_DEF12 frames failing PD57: "
        f"0 of 19 on <= 2 states, 32 of 45 of the 189 pointed-uniform on 4",
    )


# ------------------------------------------------------------------
# 7. containment, consistency, and closure audits
# ------------------------------------------------------------------


def test_07_containment_consistency_closure_audits(seeded_reps, fleet):
    pool = semantic_pool(("p", "q"), depth=3, per_class=1)

    t0 = time.monotonic()
    audits = supports = closure_checks = 0
    for i, (frame, reps) in enumerate(seeded_reps):
        for mp, mq in reps:
            model = Model(frame, {"p": mp, "q": mq})
            # changed belief sets stay within the matching expansion
            for s in range(frame.n):
                report = audit_lemma_inclusion(model, s)
                assert report.ok, (frame, mp, mq, s, report.to_obj(model))
                audits += 1
            # consistency: sampled nonempty definable inputs yield nonempty
            # supports at every state
            rng = Random(f"acc7:{i}:{mp}:{mq}")
            definable = ModelContext.of(model).definable
            events = rng.sample(definable, min(4, len(definable)))
            for s in range(frame.n):
                for e in events:
                    rep = ri_support(model, s, e)
                    assert rep.support != 0
                    supports += 1
            # deductive closure: whatever follows from sampled members is a
            # member again
            rep = ri_support(model, 0, events[0])
            members = [f for f in pool if rep.member(f)]
            for _ in range(2):
                premises = [rng.choice(members), rng.choice(members)]
                for chi in rng.sample(pool, 6):
                    if cn_member(premises, chi):
                        assert rep.member(chi)
                    closure_checks += 1
    # the two quantifier bases for membership after change coincide on
    # every canonical model
    km8 = 0
    for _, _, model in fleet:
        for s in range(model.frame.n):
            report = audit_km8(model, s)
            assert report.holds, (model, s, report.to_obj(model))
            km8 += 1
    secs = time.monotonic() - t0
    _line(
        7,
        "containment, consistency, closure audits",
        f"{audits} containment audits, {supports} supports, "
        f"{closure_checks} closure checks, {km8} quantifier-base audits, {secs:.1f}s",
    )


# ------------------------------------------------------------------
# 8. event-level reductions agree with the formula-level oracle
# ------------------------------------------------------------------


def test_08_reduction_vs_formula_oracle_agreement(census_corpus):
    """Every postulate at every state of every two-atom model of the census
    corpus, decided by the reductions and by the formula-pool oracle, must
    get the same status; then the pairwise PD57 finder must match the
    literal three-event form.

    D0/R1 and D4/R6 hold by representation on both routes: a belief set is
    the set of formulas true throughout one support event, so it is closed
    under consequence and formulas with equal truth sets change it alike.
    Their comparisons here are agreement by construction; the other
    postulates carry the cross-check.
    """
    pool = semantic_pool(("p", "q"), depth=3, per_class=2)

    t0 = time.monotonic()
    mismatches: list = []
    comparisons = 0
    for frame in census_corpus:
        for mp in range(frame.full + 1):
            for mq in range(frame.full + 1):
                model = Model(frame, {"p": mp, "q": mq})
                ctx = ModelContext.of(model)
                for s in range(frame.n):
                    for ax in AxiomId:
                        reduced = axiom_holds(model, s, ax, ctx=ctx).status
                        direct = axiom_status_via_formulas(model, s, ax, formulas=pool)
                        comparisons += 1
                        if reduced is not direct:
                            mismatches.append((frame, mp, mq, s, ax, reduced, direct))
    expected = sum(4**fr.n * fr.n for fr in census_corpus) * len(AxiomId)
    assert comparisons == expected
    assert mismatches == []

    # the quantifier-eliminated pairwise form against the literal
    # three-event form, on sampled frames up to four states: same verdict
    # and same first witness (the literal form scans every (E, F) pair)
    rng = Random(23)
    sample: list[Frame] = list(census_corpus[:337])  # exhaustive small + seeded random
    sample += list(
        enumerate_frames(FrameGenSpec(states=4, mode="random", seed=19, count=100))
    )
    sample += [_centered_order_frame(rng, 4) for _ in range(25)]
    sample += [_uniform_revision_frame(rng, 4) for _ in range(25)]
    lit_holds = lit_fails = 0
    for frame in sample:
        literal = check_pd57_literal(frame)
        eliminated = check_property(frame, PropertyId.PD57)
        assert literal == eliminated, frame
        if literal.holds:
            lit_holds += 1
        else:
            lit_fails += 1
    assert lit_holds and lit_fails
    secs = time.monotonic() - t0
    assert secs < 90.0
    _line(
        8,
        "reduction vs formula-level oracle",
        f"{comparisons} status comparisons, 0 mismatches; pairwise-vs-literal on "
        f"{len(sample)} frames ({lit_holds} hold / {lit_fails} fail), {secs:.0f}s",
    )
