"""Tests for the syntax-side change-function generators and their audits."""

import hashlib
import itertools
import json
from random import Random

import pytest

from doxatest import changegen
from doxatest.axioms import AxiomId, Status
from doxatest.changegen import (
    SUITES,
    ChangeFunctionTable,
    PreOrderFamily,
    TotalPreOrder,
    WorldContext,
    _all_centered_families,
    _all_order_types,
    _valid_single_orders,
    audit_function,
    build_canonical_model,
    extract_table,
    gen_revision,
    gen_update,
    random_family,
    random_k,
    random_revision_table,
    random_total_order,
    random_update_table,
    roundtrip_verify,
    table_from_obj,
)
from doxatest.errors import (
    InputFormatError,
    MissingAtomError,
    SizeLimitError,
    UnfaithfulOrderError,
)
from doxatest.formulas import parse_formula
from doxatest.frames import bits, cells, mask_of, subsets_of, validate_frame
from doxatest.properties import FrameClass, PropertyId, check_class

CTX2 = WorldContext(("p", "q"))


def total_update_table():
    family = PreOrderFamily.from_rankings(
        [(0, 1, 2, 3), (2, 0, 1, 3), (2, 3, 0, 1), (3, 1, 2, 0)]
    )
    return gen_update(CTX2, 0b0110, family)


def partial_update_table():
    # World 0's order leaves worlds 01/10 and 10/11 incomparable while 01
    # still sits strictly below 11; the other worlds get flat centered orders.
    pairs = [
        ((0, 1, 2, 1), (0, 2, 1, 3)),
        ((1, 0, 1, 1), (1, 0, 1, 1)),
        ((1, 1, 0, 1), (1, 1, 0, 1)),
        ((1, 1, 1, 0), (1, 1, 1, 0)),
    ]
    return gen_update(CTX2, 0b0001, PreOrderFamily.pareto(pairs))


def revision_table():
    return gen_revision(CTX2, 0b0110, TotalPreOrder((2, 0, 0, 1)))


# --- world contexts ---


def test_world_labels_follow_atom_order():
    assert [CTX2.label(w) for w in range(4)] == ["00", "01", "10", "11"]
    assert CTX2.atom_worlds(0) == 0b1100  # p true at worlds 10 and 11
    assert CTX2.atom_worlds(1) == 0b1010  # q true at worlds 01 and 11
    assert CTX2.world("10") == 2
    assert CTX2.labels(0b1001) == ["00", "11"]
    assert CTX2.assignment(2) == {"p": True, "q": False}
    with pytest.raises(InputFormatError):
        CTX2.world("102")
    with pytest.raises(InputFormatError):
        WorldContext(("p", "p"))
    with pytest.raises(SizeLimitError):
        WorldContext(("a", "b", "c", "d", "e"))


def test_truth_worlds_of_formula():
    assert CTX2.truth_worlds(parse_formula("p & !q")) == 0b0100
    assert CTX2.truth_worlds(parse_formula("p | q")) == 0b1110
    with pytest.raises(MissingAtomError):
        CTX2.truth_worlds(parse_formula("r"))


# --- orders ---


def test_total_preorder_minima():
    order = TotalPreOrder((2, 0, 0, 1))
    assert order.minimum() == 0b0110
    assert order.minima()[0b1001] == 0b1000
    assert order.minima()[0] == 0
    # every ranking shape up to 4 worlds and seeded rankings up to 16, at
    # every event: the members of lowest rank
    orders = [order for n in (1, 2, 3, 4) for order in _all_order_types(n)]
    rng = Random(13)
    for k, count in ((3, 3), (4, 1)):
        ctx = WorldContext(("p", "q", "r", "s")[:k])
        orders += [random_total_order(rng, ctx, random_k(rng, ctx)) for _ in range(count)]
    for order in orders:
        minima = order.minima()
        assert len(minima) == 1 << order.n_worlds
        for event in range(1, 1 << order.n_worlds):
            lowest = min(order.ranks[x] for x in bits(event))
            assert minima[event] == mask_of(x for x in bits(event) if order.ranks[x] == lowest)
    assert len(orders) > 80


def test_family_validation_rejects_broken_orders():
    with pytest.raises(UnfaithfulOrderError, match="not reflexive"):
        PreOrderFamily(((3, 0), (2, 3))).validate()
    with pytest.raises(UnfaithfulOrderError, match="tie"):
        PreOrderFamily(((3, 3), (2, 3))).validate()
    with pytest.raises(UnfaithfulOrderError, match="not transitive"):
        PreOrderFamily(((7, 6, 5), (5, 7, 4), (3, 2, 7))).validate()
    with pytest.raises(UnfaithfulOrderError, match="rows"):
        PreOrderFamily(((3, 2),)).validate()
    with pytest.raises(UnfaithfulOrderError, match="below every other"):
        PreOrderFamily(((1, 2), (1, 3))).validate()


def test_pareto_builds_genuinely_partial_orders():
    family = PreOrderFamily.pareto(
        [
            ((0, 1, 2, 3), (0, 3, 2, 1)),
            ((1, 0, 1, 1), (1, 0, 1, 1)),
            ((1, 1, 0, 1), (1, 1, 0, 1)),
            ((1, 1, 1, 0), (1, 1, 1, 0)),
        ]
    )
    family.validate()
    assert not family.is_total_at(0)
    assert family.is_total_at(1)
    assert not family.leq(0, 1, 2) and not family.leq(0, 2, 1)
    # with every pair above the center incomparable, nothing gets pruned
    assert family.minima(0)[0b1110] == 0b1110
    assert family.minima(0)[0b1111] == 0b0001


def _literal_minima(family, w):
    # min(E) from the standpoint of w by its definition, world by world: x
    # is in min(E) for exactly the events E ∋ x holding no y that is at least
    # as plausible as x while x is not as plausible as y
    n = family.n_worlds
    out = [0] * (1 << n)
    for x in range(n):
        below = mask_of(y for y in range(n) if family.leq(w, y, x) and not family.leq(w, x, y))
        for g in subsets_of((1 << n) - 1 & ~below & ~(1 << x)):
            out[g | 1 << x] |= 1 << x
    return out


def test_min_of_matches_the_literal_order_definition():
    # the filled minima(w)[E] at every (w, E): every family up to 3 worlds,
    # seeded partial and total ones at 2-4 atoms
    families = [f for n in (1, 2, 3) for f in _all_centered_families(n)]
    rng = Random(12)
    for k, count in ((2, 4), (3, 4), (4, 1)):
        ctx = WorldContext(("p", "q", "r", "s")[:k])
        for _ in range(count):
            families += [random_family(rng, ctx), random_family(rng, ctx, total=True)]
    partial = 0
    for family in families:
        for w in range(family.n_worlds):
            partial += not family.is_total_at(w)
            assert family.minima(w) == _literal_minima(family, w), (family.le, w)
    assert len(families) > 60 and partial > 40


# --- generated tables ---


def test_update_table_frozen_values():
    table = total_update_table()
    assert table.kind == "update"
    got = table.as_dict()
    assert got[0b1111] == 0b0110
    assert got[0b1001] == 0b1001
    assert got[0b0101] == 0b0100
    assert got[0b1101] == 0b0100
    assert got[0b0011] == 0b0011
    # when every believed world satisfies the input, nothing moves
    for event in (0b0110, 0b0111, 0b1110, 0b1111):
        assert got[event] == 0b0110


def test_update_audit_passes_km_fails_agm():
    table = total_update_table()
    km = audit_function(table, "KM")
    assert km.ok and km.failed() == ()
    agm = audit_function(table, "AGM")
    assert not agm.ok
    assert set(agm.failed()) == {AxiomId.R4, AxiomId.R8}
    by_id = {v.axiom: v for v in agm.verdicts}
    assert by_id[AxiomId.R4].witness.e == 0b0011
    assert by_id[AxiomId.R4].witness.f is None
    assert (by_id[AxiomId.R8].witness.e, by_id[AxiomId.R8].witness.f) == (0b0111, 0b0011)
    assert by_id[AxiomId.R3].status is Status.HOLDS
    obj = agm.to_obj(table.ctx)
    assert obj["suite"] == "AGM" and obj["ok"] is False
    r4 = next(entry for entry in obj["axioms"] if entry["axiom"] == "R4")
    assert r4 == {
        "axiom": "R4",
        "holds": False,
        "applicable": True,
        "witness": {"E": ["00", "01"]},
    }


def test_partial_update_fails_strong_audit():
    table = partial_update_table()
    assert table.as_dict()[0b1110] == 0b0110
    assert table.as_dict()[0b1100] == 0b1100
    assert audit_function(table, "KM").ok
    strong = audit_function(table, "KM_STRONG")
    assert strong.failed() == (AxiomId.D9,)
    d9 = {v.axiom: v for v in strong.verdicts}[AxiomId.D9]
    assert (d9.witness.e, d9.witness.f) == (0b1110, 0b1100)
    assert d9.to_obj(table.ctx)["witness"] == {
        "E": ["01", "10", "11"],
        "F": ["10", "11"],
    }


def test_gating_for_fat_belief_sets():
    table = total_update_table()  # K has two worlds
    km = {v.axiom: v for v in audit_function(table, "KM").verdicts}
    assert km[AxiomId.D7].status is Status.NOT_APPLICABLE
    strong = {v.axiom: v for v in audit_function(table, "KM_STRONG").verdicts}
    assert strong[AxiomId.D9].status is Status.NOT_APPLICABLE
    obj = km[AxiomId.D7].to_obj(table.ctx)
    assert obj["holds"] is None and obj["applicable"] is False
    # a singleton K gets both checked for real
    single = partial_update_table()
    km_single = {v.axiom: v for v in audit_function(single, "KM").verdicts}
    assert km_single[AxiomId.D7].status is Status.HOLDS


def test_revision_frozen_values_and_audits():
    table = revision_table()
    got = table.as_dict()
    assert got[0b1111] == 0b0110
    assert got[0b1001] == 0b1000
    assert got[0b1100] == 0b0100
    assert got[0b0011] == 0b0010
    for event in table.events():
        if event & 0b0110:
            assert got[event] == event & 0b0110
    assert audit_function(table, "AGM").ok
    # this ranking's revision happens to clear the update suite as well
    assert audit_function(table, "KM").ok
    with pytest.raises(UnfaithfulOrderError, match="not faithful"):
        gen_revision(CTX2, 0b0110, TotalPreOrder((0, 0, 1, 1)))


def test_audit_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown audit suite"):
        audit_function(total_update_table(), "XYZ")


# --- canonical structures and roundtrips ---


def test_canonical_model_shape():
    table = revision_table()
    model = build_canonical_model(table)
    frame = model.frame
    assert frame.states == ("w00", "w01", "w10", "w11")
    assert frame.belief == (0b0110,) * 4
    assert frame.has_sel(1, 0b1111) and not frame.has_sel(0, 0b1111)
    assert model.valuation == {"p": 0b1100, "q": 0b1010}
    assert validate_frame(frame) == []
    assert cells(model) == (1, 2, 4, 8)
    assert check_class(frame, FrameClass.REVISION_STRICT).holds
    assert extract_table(model) == table.as_dict()


def test_roundtrip_reports():
    update = total_update_table()
    report = roundtrip_verify(update, FrameClass.UPDATE)
    assert report.ok and report.events_checked == 15
    obj = report.to_obj(update.ctx)
    assert obj["class"] == "UPDATE" and obj["ok"] is True
    assert obj["failedProperties"] == [] and obj["mismatchedEvents"] == []
    assert roundtrip_verify(update, FrameClass.STRONG_UPDATE).ok
    partial = partial_update_table()
    assert roundtrip_verify(partial, FrameClass.UPDATE).ok
    strong = roundtrip_verify(partial, FrameClass.STRONG_UPDATE)
    assert not strong.ok and strong.failed_properties == (PropertyId.PD9,)
    assert strong.frame_valid and not strong.mismatched_events
    assert roundtrip_verify(revision_table(), FrameClass.REVISION_STRICT).ok


def test_roundtrip_flags_row_table_drift():
    # rows that quietly disagree with the pooled table must surface in leg 3
    base = partial_update_table()
    drifted = ChangeFunctionTable(
        CTX2, 0b0001, "update", base.results, rows={0: range(CTX2.full + 1)}
    )
    report = roundtrip_verify(drifted, FrameClass.UPDATE)
    assert report.frame_valid
    assert report.mismatched_events and not report.ok
    assert 0b1111 in report.mismatched_events


def test_table_serialisation_roundtrip():
    table = revision_table()
    obj = table.to_obj()
    assert obj["atoms"] == ["p", "q"] and obj["K"] == ["01", "10"]
    assert len(obj["entries"]) == 15
    parsed = table_from_obj(obj)
    assert parsed.kind == "custom"
    assert parsed.as_dict() == table.as_dict()


def test_custom_table_rejects_bad_documents():
    obj = revision_table().to_obj()
    short = dict(obj, entries=obj["entries"][:-1])
    with pytest.raises(InputFormatError, match="14 of 15"):
        table_from_obj(short)
    doubled = dict(obj, entries=obj["entries"] + [obj["entries"][0]])
    with pytest.raises(InputFormatError, match="duplicate"):
        table_from_obj(doubled)
    hollow = dict(obj, entries=[dict(obj["entries"][0], event=[])] + obj["entries"][1:])
    with pytest.raises(InputFormatError, match="empty event"):
        table_from_obj(hollow)
    with pytest.raises(InputFormatError, match="missing field"):
        table_from_obj({"atoms": ["p"]})
    first = obj["entries"][0]
    # not an object, no event, no result
    for bad in (["00"], {"result": first["result"]}, {"event": first["event"]}):
        with pytest.raises(InputFormatError, match="table entry 0 needs"):
            table_from_obj(dict(obj, entries=[bad] + obj["entries"][1:]))
    for label in (1, None, ["0", "1"]):
        broken = dict(first, event=[label])
        with pytest.raises(InputFormatError, match="world label"):
            table_from_obj(dict(obj, entries=[broken] + obj["entries"][1:]))
    with pytest.raises(InputFormatError, match="list of world labels"):
        table_from_obj(dict(obj, entries=[dict(first, result="01")] + obj["entries"][1:]))
    with pytest.raises(InputFormatError, match="list of table entries"):
        table_from_obj(dict(obj, entries={"event": first["event"]}))
    # a string of letters, non-string names, a missing name, a constant's word
    for atoms in ("pq", [1, 2], ["p", None], ["p", "true"]):
        with pytest.raises(InputFormatError, match="'atoms' must be a list of atom names"):
            table_from_obj(dict(obj, atoms=atoms))


def test_corrupted_custom_table_fails_roundtrip():
    obj = revision_table().to_obj()
    entries = [
        dict(entry, result=["00", "01"])
        if entry["event"] == ["00", "01"]
        else entry
        for entry in obj["entries"]
    ]
    bent = table_from_obj(dict(obj, entries=entries))
    report = roundtrip_verify(bent, FrameClass.REVISION_STRICT)
    assert report.frame_valid
    assert not report.class_holds
    assert PropertyId.PR4 in report.failed_properties


def test_four_atom_tables_are_checked_over_every_event():
    # one generated table per kind round-trips into its 16-state class and
    # passes its suite over all 65,535 events (the singleton Ks run PD9's and
    # D9's holds tests, and PD7's and D7's); a custom table is refused when
    # it is built
    ctx = WorldContext(("p", "q", "r", "s"))
    rng = Random(11)
    strong = gen_update(ctx, 1 << rng.randrange(16), random_family(rng, ctx, total=True))
    tables = (
        (random_update_table(rng, ctx), FrameClass.UPDATE),
        (strong, FrameClass.STRONG_UPDATE),
        (random_revision_table(rng, ctx), FrameClass.REVISION_STRICT),
    )
    pointed = gen_update(ctx, 1 << rng.randrange(16), random_family(rng, ctx))
    for table, frame_class in (*tables, (pointed, FrameClass.UPDATE)):
        trip = roundtrip_verify(table, frame_class)
        assert trip.ok and trip.events_checked == 65535
        assert audit_function(table, changegen.EXPECTED_SUITE[frame_class]).ok
    with pytest.raises(SizeLimitError, match="custom change table"):
        ChangeFunctionTable(ctx, table.k_mask, "custom", table.results)
    with pytest.raises(SizeLimitError, match="custom change table"):
        table_from_obj({"atoms": list(ctx.atoms), "K": ["0000"], "entries": []})


def test_audit_route_never_touches_the_frame_route(monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover - called means failure
        raise AssertionError("table audit consulted the frame-side checker")

    monkeypatch.setattr("doxatest.axioms.axiom_holds", boom)
    assert audit_function(total_update_table(), "KM").ok
    assert audit_function(revision_table(), "AGM").ok


def test_generated_tables_always_pass_their_suites():
    for seed in range(30):
        rng = Random(seed)
        assert audit_function(random_update_table(rng, CTX2), "KM").ok
        assert audit_function(random_update_table(rng, CTX2, total=True), "KM_STRONG").ok
        assert audit_function(random_revision_table(rng, CTX2), "AGM").ok


def test_generated_tables_roundtrip_into_their_classes():
    for seed in range(12):
        rng = Random(100 + seed)
        assert roundtrip_verify(random_update_table(rng, CTX2), FrameClass.UPDATE).ok
        assert roundtrip_verify(
            random_update_table(rng, CTX2, total=True), FrameClass.STRONG_UPDATE
        ).ok
        assert roundtrip_verify(
            random_revision_table(rng, CTX2), FrameClass.REVISION_STRICT
        ).ok


# --- the audit against a literal reference --------------------------------

# Each postulate as a test on K, the result map r and the events E and F,
# written out apart from the audit's own table; pair tests read F, the rest
# get F = None.  The empty event's result is empty.
_LITERAL = {
    AxiomId.D1: (False, lambda k, r, e, f: r[e] & ~e == 0),
    AxiomId.D2: (False, lambda k, r, e, f: k & ~e or r[e] == k),
    AxiomId.D3: (False, lambda k, r, e, f: r[e] != 0),
    AxiomId.R3: (False, lambda k, r, e, f: k & e & ~r[e] == 0),
    AxiomId.R4: (False, lambda k, r, e, f: not k & e or r[e] & ~k == 0),
    AxiomId.D5: (True, lambda k, r, e, f: r[e] & f & ~r.get(e & f, 0) == 0),
    AxiomId.D6: (True, lambda k, r, e, f: not (r[e] & ~f == 0 == r[f] & ~e and r[e] != r[f])),
    AxiomId.D7: (True, lambda k, r, e, f: r[e | f] & ~r[e] & ~r[f] == 0),
    AxiomId.D9: (True, lambda k, r, e, f: not (e & f and r[e] & f and r[e & f] & ~(r[e] & f))),
}
_LITERAL[AxiomId.R2] = _LITERAL[AxiomId.D1]
_LITERAL[AxiomId.R5] = _LITERAL[AxiomId.D3]
_LITERAL[AxiomId.R7] = _LITERAL[AxiomId.D5]
_LITERAL[AxiomId.R8] = _LITERAL[AxiomId.D9]


def _literal_audit(table, suite):
    """The audit's report object by a plain E×F scan over every event."""
    ctx, k = table.ctx, table.k_mask
    scope = table.events()
    r = table.as_dict()
    axioms = []
    for axiom in SUITES[suite]:
        entry = {"axiom": axiom.value, "holds": True, "applicable": True}
        if axiom in (AxiomId.D7, AxiomId.D9) and k & (k - 1):
            entry.update(holds=None, applicable=False)
        elif axiom in _LITERAL:
            pair, test = _LITERAL[axiom]
            seconds = scope if pair else [None]
            first = next(
                ((e, f) for e in scope for f in seconds if not test(k, r, e, f)), None
            )
            if first is not None:
                entry["holds"] = False
                entry["witness"] = {"E": ctx.labels(first[0])}
                if pair:
                    entry["witness"]["F"] = ctx.labels(first[1])
        axioms.append(entry)
    return {"suite": suite, "ok": all(a["holds"] is not False for a in axioms), "axioms": axioms}


def _assert_audit_matches_literal(table):
    """Compare every suite; return how many verdicts failed on a pair."""
    failed_pairs = 0
    for suite in SUITES:
        want = _literal_audit(table, suite)
        got = audit_function(table, suite).to_obj(table.ctx)
        assert got == want, (suite, table.k_mask, table.as_dict())
        failed_pairs += sum("F" in a.get("witness", {}) for a in want["axioms"])
    return failed_pairs


def _edited(table, edits):
    results = list(table.results)
    for e, r in edits:
        results[e] = r
    return ChangeFunctionTable(table.ctx, table.k_mask, "custom", results)


def _perturbed(rng, table):
    # a few results replaced by other subsets of their event, the empty one
    # included: D1 still holds, the pair postulates mostly break
    return _edited(table, [(e, e & rng.randrange(table.ctx.full + 1))
                           for e in rng.sample(table.events(), 3)])


def _unsuccessful(rng, table):
    # a few results replaced by arbitrary world sets: D1 mostly breaks, so F
    # must run over every event
    return _edited(table, [(e, rng.randrange(table.ctx.full + 1))
                           for e in rng.sample(table.events(), 3)])


def test_collapsed_audit_matches_full_pair_scan():
    # generated tables and perturbed copies with and without D1 at 1-3 atoms
    seen = {"D1 fails": 0, "fat K": 0, "pair fails": 0}
    for k in (1, 2, 3):
        ctx = WorldContext(("p", "q", "r")[:k])
        rng = Random(k)
        for _ in range(8):
            for table in (
                random_update_table(rng, ctx),
                random_update_table(rng, ctx, total=True),
                random_revision_table(rng, ctx),
            ):
                for t in (table, _perturbed(rng, table), _unsuccessful(rng, table)):
                    seen["pair fails"] += _assert_audit_matches_literal(t)
                    seen["fat K"] += bool(t.k_mask & (t.k_mask - 1))
                    seen["D1 fails"] += any(r & ~e for e, r in t.as_dict().items())
    assert seen["pair fails"] > 50 and seen["fat K"] > 10 and seen["D1 fails"] > 10, seen


def _emptied(rng, table):
    # a few results emptied: D1 still holds, D3 breaks
    return _edited(table, [(e, 0) for e in rng.sample(table.events(), 2)])


def test_audit_holds_tests_match_the_scan():
    # Tables over every event with D1 holding run the one-step holds tests
    # for D5/R7, D6 and D9/R8; their reports must equal the literal scan's
    # whether a test passes, fails, or is skipped because D5 fails (D9),
    # on tables with and without D3.  D9's tally reads R8, which no
    # singleton gate hides.  At a singleton K, D7 holds outright when D5
    # does, and is scanned when D5 fails.
    tally = {check: {"holds": 0, "fails": 0} for check in ("D5", "D6", "D9")}
    d7 = {"D5 holds": 0, "D5 fails": 0}
    for k in (1, 2, 3):
        ctx = WorldContext(("p", "q", "r")[:k])
        rng = Random(50 + k)
        for _ in range((4, 40, 6)[k - 1]):
            for table in (
                random_update_table(rng, ctx),
                random_update_table(rng, ctx, total=True),
                random_revision_table(rng, ctx),
            ):
                for t in (table, _perturbed(rng, table), _emptied(rng, table)):
                    _assert_audit_matches_literal(t)
                    km = {v.axiom: v.status for v in audit_function(t, "KM").verdicts}
                    agm = {v.axiom: v.status for v in audit_function(t, "AGM").verdicts}
                    for check, status in (
                        ("D5", km[AxiomId.D5]),
                        ("D6", km[AxiomId.D6]),
                        ("D9", agm[AxiomId.R8]),
                    ):
                        tally[check]["holds" if status is Status.HOLDS else "fails"] += 1
                    if km[AxiomId.D7] is not Status.NOT_APPLICABLE:
                        d7["D5 holds" if km[AxiomId.D5] is Status.HOLDS else "D5 fails"] += 1
    assert all(n >= 50 for counts in tally.values() for n in counts.values()), tally
    assert min(d7.values()) >= 20, d7


def _d9_steps_without_d5():
    # Every D9 step E -> E∖{x} passes, but D5 fails, and so does D9 itself:
    # r({00,01,10,11}) = {00,01,10} while r({10,11}) = {10,11}.
    r = [0, 1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 12, 1, 2, 7]
    return ChangeFunctionTable(CTX2, 0b0111, "custom", r)


def test_d9_steps_are_trusted_only_when_d5_holds():
    table = _d9_steps_without_d5()
    agm = {v.axiom: v for v in audit_function(table, "AGM").verdicts}
    assert agm[AxiomId.R7].status is Status.FAILS
    assert agm[AxiomId.R7].witness.to_obj(CTX2) == {
        "E": ["00", "01", "10", "11"], "F": ["00", "01"],
    }
    assert agm[AxiomId.R8].status is Status.FAILS
    assert agm[AxiomId.R8].witness.to_obj(CTX2) == {
        "E": ["00", "01", "10", "11"], "F": ["10", "11"],
    }
    _assert_audit_matches_literal(table)


def test_holding_tables_skip_the_pair_scans(monkeypatch):
    def boom(*args):  # pragma: no cover - called means a scan ran
        raise AssertionError("pair scan ran on a table whose holds test passed")

    for check in (AxiomId.D5, AxiomId.D6, AxiomId.D7, AxiomId.D9):
        runs, _ = changegen._TABLE_CHECKS[check]
        monkeypatch.setitem(changegen._TABLE_CHECKS, check, (runs, boom))
    ctx = WorldContext(("p", "q", "r"))
    for seed in range(5):
        rng = Random(seed)
        assert audit_function(random_update_table(rng, ctx), "KM").ok
        single = gen_update(ctx, 1 << rng.randrange(8), random_family(rng, ctx))
        report = audit_function(single, "KM")
        assert report.ok and report.verdicts[-1].status is Status.HOLDS  # D7
        strong = gen_update(ctx, 1 << rng.randrange(8), random_family(rng, ctx, total=True))
        report = audit_function(strong, "KM_STRONG")
        assert report.ok and report.verdicts[-1].status is Status.HOLDS
        assert audit_function(random_revision_table(rng, ctx), "AGM").ok
    # a failing table still reaches the scan
    with pytest.raises(AssertionError, match="pair scan ran"):
        audit_function(_d9_steps_without_d5(), "AGM")


def test_audit_without_success_scans_every_pair():
    # every result keeps world 00, so D1 fails and F must range over all
    # events: the first D5 failure has F = {00}, outside E = {01}
    table = ChangeFunctionTable(CTX2, 0b0001, "custom", [e and e | 0b0001 for e in range(16)])
    km = {v.axiom: v for v in audit_function(table, "KM").verdicts}
    assert km[AxiomId.D1].status is Status.FAILS
    d5 = km[AxiomId.D5].witness
    assert (d5.e, d5.f) == (0b0010, 0b0001)
    _assert_audit_matches_literal(table)


def test_generator_outputs_are_frozen():
    # Seeded tables at 1-3 atoms: their entries, their audits against every
    # suite and their round-trips, for the generated tables and for
    # perturbed copies that break postulates and drift from their rows.  Then every order-family validation message over the row tuples
    # of 1- and 2-world families with values up to one past the full mask and
    # over seeded 3- and 4-world families, the brute-force single orders up
    # to 3 worlds, and every ranking shape up to 4 worlds with its minimum.
    # The digest was recorded on the commit before the tables were filled
    # eagerly and the sampled 4-atom event lists were removed, so any change
    # to a table, a verdict, a message or an order list shows.
    digest = hashlib.sha256()

    def record(out):
        digest.update(json.dumps(out, sort_keys=True).encode())

    def validation(le):
        try:
            PreOrderFamily(le).validate()
        except UnfaithfulOrderError as exc:
            return str(exc)
        return None

    for k in range(1, 4):
        ctx = WorldContext(("p", "q", "r")[:k])
        rng = Random(k)
        record([ctx.atom_worlds(i) for i in range(k)])
        for _ in range(4):
            record(random_family(rng, ctx, total=True).le)
            record(random_total_order(rng, ctx, rng.randrange(1, ctx.full + 1)).minimum())
            for table, frame_class in (
                (random_update_table(rng, ctx), FrameClass.UPDATE),
                (random_update_table(rng, ctx, total=True), FrameClass.STRONG_UPDATE),
                (random_revision_table(rng, ctx), FrameClass.REVISION_STRICT),
            ):
                for t in (table, _perturbed(rng, table)):
                    record(sorted(t.as_dict().items()))
                    for suite in SUITES:
                        record(audit_function(t, suite).to_obj(ctx))
                    record(roundtrip_verify(t, frame_class).to_obj(ctx))

    for n in (1, 2):
        full = (1 << n) - 1
        rows = list(itertools.product(range(full + 2), repeat=n))
        for le in itertools.product(rows, repeat=n):
            record([le, validation(le)])
        record(validation(((full,) * (n + 1),) * n))
    rng = Random(5)
    for n in (3, 4):
        full = (1 << n) - 1
        for _ in range(300):
            if n == 4 and rng.random() < 0.5:
                # a valid partial family with one bit flipped
                le = [list(row) for row in random_family(rng, CTX2).le]
                w, x = rng.randrange(n), rng.randrange(n)
                le[w][x] ^= 1 << rng.randrange(n + 1)
            else:
                # arbitrary rows, one world's made reflexive and centered
                le = [[rng.randrange(full + 2) for _ in range(n)] for _ in range(n)]
                w = rng.randrange(n)
                le[w] = [full if x == w else row | 1 << x for x, row in enumerate(le[w])]
            if rng.random() < 0.05:
                le[rng.randrange(n)].pop()
            record([le, validation(le)])

    for n in (1, 2, 3):
        record([_valid_single_orders(n, w) for w in range(n)])
    for n in (1, 2, 3, 4):
        record([[order.ranks, order.minimum()] for order in _all_order_types(n)])
    assert digest.hexdigest() == (
        "a1859904775a0db3c987244c3de2a2a4be5bba73a1c5e597e40e7917cc7237a2"
    )

