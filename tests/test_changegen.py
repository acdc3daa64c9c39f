"""Tests for the syntax-side change-function generators and their audits."""

import hashlib
import itertools
import json
from itertools import repeat
from random import Random

import pytest
from conftest import _all_centered_families, _all_order_types, _valid_single_orders

from doxatest import changegen, properties
from doxatest.axioms import AxiomId, Status
from doxatest.changegen import (
    SUITES,
    ChangeFunctionTable,
    WorldContext,
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
)
from doxatest.errors import (
    InputFormatError,
    MissingAtomError,
    SizeLimitError,
    UnfaithfulOrderError,
)
from doxatest.formulas import parse_formula, truth_vector
from doxatest.frames import bits, cells, grid, mask_of, pack, subsets_of, unpack, validate_frame
from doxatest.properties import FrameClass, PropertyId, check_class

CTX2 = WorldContext(("p", "q"))


def total_update_table_family():
    rankings = [(0, 1, 2, 3), (2, 0, 1, 3), (2, 3, 0, 1), (3, 1, 2, 0)]
    return tuple(map(changegen._at_least, rankings))


def total_update_table():
    return gen_update(CTX2, 0b0110, total_update_table_family())


def partial_update_table():
    # World 0's order leaves worlds 01/10 and 10/11 incomparable while 01
    # still sits strictly below 11; the other worlds get flat centered orders.
    pairs = [
        ((0, 1, 2, 1), (0, 2, 1, 3)),
        ((1, 0, 1, 1), (1, 0, 1, 1)),
        ((1, 1, 0, 1), (1, 1, 0, 1)),
        ((1, 1, 1, 0), (1, 1, 1, 0)),
    ]
    return gen_update(CTX2, 0b0001, changegen._pareto(pairs))


def revision_table():
    return gen_revision(CTX2, 0b0110, (2, 0, 0, 1))


def ranking_minima(ranks):
    # the most plausible worlds of every event under a rank vector's order
    return changegen._fill_minima(changegen._at_least(ranks))


# --- world contexts ---


def test_world_labels_follow_atom_order():
    assert [CTX2.label(w) for w in range(4)] == ["00", "01", "10", "11"]
    assert CTX2.atom_worlds(0) == 0b1100  # p true at worlds 10 and 11
    assert CTX2.atom_worlds(1) == 0b1010  # q true at worlds 01 and 11
    assert CTX2.labels(0b1001) == ["00", "11"]
    with pytest.raises(InputFormatError):
        WorldContext(("p", "p"))
    with pytest.raises(SizeLimitError):
        WorldContext(("a", "b", "c", "d", "e"))


def test_world_context_refuses_bad_atom_names():
    # names a formula could not mention are refused when the context is
    # built, not later by the canonical model's valuation
    for atoms in (("P",), ("true",), ("p", "false"), ("p", "2q"), ("p", "")):
        with pytest.raises(InputFormatError, match="bad atom name"):
            WorldContext(atoms)


def test_table_refuses_rows_that_do_not_fit_k():
    # rows must be keyed by exactly K's worlds, each full + 1 world sets in
    # the context, or the canonical model would index past its states
    ctx = WorldContext(("p",))
    table = [0, 1, 2, 1]
    for rows in ({5: table}, {}, {0: table, 1: table}, {0: table[:3]}, {0: [0, 1, 4, 1]}):
        with pytest.raises(ValueError, match="rows must be keyed|needs 4 world sets"):
            ChangeFunctionTable(ctx, 1, table, rows=rows)
    assert ChangeFunctionTable(ctx, 1, table, rows={0: table}).rows == {0: table}


def test_truth_worlds_of_formula():
    # world w is the assignment that reads w in binary: a formula's worlds
    # are its truth vector over the context's atoms
    assert truth_vector(parse_formula("p & !q"), CTX2.atoms) == 0b0100
    assert truth_vector(parse_formula("p | q"), CTX2.atoms) == 0b1110
    with pytest.raises(MissingAtomError):
        truth_vector(parse_formula("r"), CTX2.atoms)


# --- orders ---


def test_total_preorder_minima():
    minima = ranking_minima((2, 0, 0, 1))
    assert minima[-1] == 0b0110
    assert minima[0b1001] == 0b1000
    assert minima[0] == 0
    # every ranking shape up to 4 worlds and seeded rankings up to 16, at
    # every event: the members of lowest rank
    rankings = [ranks for n in (1, 2, 3, 4) for ranks in _all_order_types(n)]
    rng = Random(13)
    for k, count in ((3, 3), (4, 1)):
        ctx = WorldContext(("p", "q", "r", "s")[:k])
        rankings += [random_total_order(rng, ctx, random_k(rng, ctx)) for _ in range(count)]
    for ranks in rankings:
        minima = ranking_minima(ranks)
        assert len(minima) == 1 << len(ranks)
        for event in range(1, 1 << len(ranks)):
            lowest = min(ranks[x] for x in bits(event))
            assert minima[event] == mask_of(x for x in bits(event) if ranks[x] == lowest)
    assert len(rankings) > 80


def test_family_validation_rejects_broken_orders():
    fault = changegen._family_fault
    assert "not reflexive" in fault(((3, 0), (2, 3)))
    assert "tie" in fault(((3, 3), (2, 3)))
    assert "not transitive" in fault(((7, 6, 5), (5, 7, 4), (3, 2, 7)))
    assert "rows" in fault(((3, 2),))
    assert "below every other" in fault(((1, 2), (1, 3)))
    assert fault(((3, 2), (1, 3))) is None


def test_update_validates_the_orders_of_unbelieved_worlds():
    # only believed worlds' minima are filled, but every world's order is
    # validated: a family broken at world 3 alone fails for K = {00}
    le = list(total_update_table_family())
    le[3] = (le[3][0], le[3][1], le[3][2] & ~0b0100, le[3][3])  # 10 is no longer reflexive
    with pytest.raises(UnfaithfulOrderError, match="order at world 3 is not reflexive at world 2"):
        gen_update(CTX2, 0b0001, le)
    gen_update(CTX2, 0b0001, total_update_table_family())


def test_pareto_builds_genuinely_partial_orders():
    family = changegen._pareto(
        [
            ((0, 1, 2, 3), (0, 3, 2, 1)),
            ((1, 0, 1, 1), (1, 0, 1, 1)),
            ((1, 1, 0, 1), (1, 1, 0, 1)),
            ((1, 1, 1, 0), (1, 1, 1, 0)),
        ]
    )
    assert changegen._family_fault(family) is None
    assert not _total_at(family, 0)
    assert _total_at(family, 1)
    assert not _leq(family, 0, 1, 2) and not _leq(family, 0, 2, 1)
    # with every pair above the center incomparable, nothing gets pruned
    assert changegen._fill_minima(family[0])[0b1110] == 0b1110
    assert changegen._fill_minima(family[0])[0b1111] == 0b0001


def _leq(family, w, x, y):
    # x is at least as plausible as y from the standpoint of w
    return bool((family[w][x] >> y) & 1)


def _total_at(family, w):
    n = len(family)
    return all(_leq(family, w, x, y) or _leq(family, w, y, x) for x in range(n) for y in range(x + 1, n))


def _literal_minima(le):
    # min(E) under the order with rows le by its definition, world by world:
    # x is in min(E) for exactly the events E ∋ x holding no y that is at
    # least as plausible as x while x is not as plausible as y
    n = len(le)
    out = [0] * (1 << n)
    for x in range(n):
        below = mask_of(y for y in range(n) if le[y] >> x & 1 and not le[x] >> y & 1)
        for g in subsets_of((1 << n) - 1 & ~below & ~(1 << x)):
            out[g | 1 << x] |= 1 << x
    return out


def test_min_of_matches_the_literal_order_definition():
    # the filled minima of le[w] at every (w, E): every family up to 3 worlds,
    # seeded partial and total ones at 2-4 atoms
    families = [f for n in (1, 2, 3) for f in _all_centered_families(n)]
    rng = Random(12)
    for k, count in ((2, 4), (3, 4), (4, 1)):
        ctx = WorldContext(("p", "q", "r", "s")[:k])
        for _ in range(count):
            families += [random_family(rng, ctx), random_family(rng, ctx, total=True)]
    partial = 0
    for family in families:
        for w in range(len(family)):
            partial += not _total_at(family, w)
            assert changegen._fill_minima(family[w]) == _literal_minima(family[w]), (family, w)
    assert len(families) > 60 and partial > 40


def _all_preorders(n):
    # every reflexive, transitive at-least-as-plausible table on n worlds
    return [
        le
        for le in itertools.product(range(1 << n), repeat=n)
        if all(le[x] >> x & 1 and all(le[y] & ~le[x] == 0 for y in bits(le[x])) for x in range(n))
    ]


def test_fill_minima_matches_the_definition_on_every_small_preorder():
    # the fill reads any order's rows, not only a centered family's
    orders = [le for n in (1, 2, 3, 4) for le in _all_preorders(n)]
    incomparable_minima = 0
    for le in orders:
        minima = changegen._fill_minima(le)
        assert minima == _literal_minima(le), le
        top = list(bits(minima[-1]))
        incomparable_minima += any(not le[x] >> y & 1 for x in top for y in top)
    # 1 + 4 + 29 + 355 preorders; many have incomparable minimal worlds
    assert len(orders) == 389 and incomparable_minima > 100


def test_fill_minima_matches_the_definition_at_both_field_widths():
    # The fill packs 8-bit fields up to 8 worlds and 16-bit fields up to 16:
    # seeded pareto and total orders at 8 and 16 worlds, at several of their
    # worlds, and seeded rankings at 16 worlds through their `_at_least` rows.
    rng = Random(21)
    for k in (3, 4):
        ctx = WorldContext(("p", "q", "r", "s")[:k])
        for total in (False, True, False):
            family = random_family(rng, ctx, total=total)
            for w in range(0, len(family), k - 1):
                assert changegen._fill_minima(family[w]) == _literal_minima(family[w])
    ctx = WorldContext(("p", "q", "r", "s"))
    for _ in range(3):
        ranks = random_total_order(rng, ctx, random_k(rng, ctx))
        up = [mask_of(y for y, r in enumerate(ranks) if rank <= r) for rank in ranks]
        assert ranking_minima(ranks) == _literal_minima(up)


def test_transpose_matches_the_per_bit_definition():
    # bit y of entry x is bit x of row y, on seeded 1-16-world matrices
    # whose rows also carry bits at n and above, which are ignored
    rng = Random(22)
    for n in range(1, 17):
        for _ in range(6):
            rows = [rng.getrandbits(n + 3) for _ in range(n)]
            want = [mask_of(y for y in range(n) if rows[y] >> x & 1) for x in range(n)]
            assert changegen._transpose(rows) == want, rows


def test_pareto_matches_the_literal_definition():
    # x is at least as plausible as y when both rank vectors agree; seeded
    # rank pairs on 1-16 worlds with many ties, and pairs that hold one
    # vector twice, whose rows are that vector's `_at_least` rows
    rng = Random(23)
    for n in range(1, 17):
        for _ in range(4):
            pairs = [
                tuple([rng.randrange(-1, n // 2 + 2) for _ in range(n)] for _ in range(2))
                for _ in range(n)
            ]
            want = tuple(
                tuple(
                    mask_of(y for y in range(n) if a[x] <= a[y] and b[x] <= b[y])
                    for x in range(n)
                )
                for a, b in pairs
            )
            assert changegen._pareto(pairs) == want
            rankings = [a for a, _ in pairs]
            same = tuple(
                tuple(mask_of(y for y in range(n) if a[x] <= a[y]) for x in range(n))
                for a in rankings
            )
            assert changegen._pareto([(a, a) for a in rankings]) == same
            assert tuple(map(changegen._at_least, rankings)) == same


def _planted_faults(rows, w, rng):
    # One copy of a valid order centred on w per fault kind, each planted so
    # that the literal walk names exactly that kind first.
    n, full = len(rows), (1 << len(rows)) - 1
    others = [v for v in range(n) if v != w]
    rng.shuffle(others)
    y = others[0]
    out = {
        # row 0 is walked first, so its range fault is the first one found
        "out of range": [r | rng.choice((1 << n, 1 << n + 5, -1 << n)) if v == 0 else r
                         for v, r in enumerate(rows)],
        "not reflexive": [r & ~(1 << y) if v == y else r for v, r in enumerate(rows)],
        # y leaves every other row: w no longer sits below y alone
        "below every other": [r if v == y else r & ~(1 << y) for v, r in enumerate(rows)],
        # ... or y's row is made full as well, so y ties w
        "tie": [full if v == y else r if v == w else r & ~(1 << y) for v, r in enumerate(rows)],
    }
    # z <= u is added where u reaches a world other than u that z does not
    for u, z in itertools.product(others, repeat=2):
        if not rows[z] >> u & 1 and rows[u] & ~rows[z] & ~(1 << u):
            out["not transitive"] = [r | 1 << u if v == z else r for v, r in enumerate(rows)]
            break
    return out


def test_packed_order_test_matches_the_literal_walk(monkeypatch):
    # `_order_fault` with its packed test in front gives the walk's message,
    # byte for byte, or None exactly when the walk finds nothing: every row
    # tuple on 1-3 worlds at every centre with values up to one past full,
    # then seeded 8- and 16-world orders, whole and with one planted fault of
    # each kind.
    cases = []
    for n in (1, 2, 3):
        full = (1 << n) - 1
        for rows in itertools.product(range(full + 2), repeat=n):
            cases += [(rows, w, n) for w in range(n)]
    rng = Random(24)
    kinds = {}
    for k in (3, 4):
        ctx = WorldContext(("p", "q", "r", "s")[:k])
        for total in (False, True) * 3:
            family = random_family(rng, ctx, total=total)
            w = rng.randrange(ctx.n_worlds)
            cases.append((family[w], w, ctx.n_worlds))
            for kind, rows in _planted_faults(family[w], w, rng).items():
                cases.append((tuple(rows), w, ctx.n_worlds))
                kinds.setdefault(kind, []).append(cases[-1])
    packed = [changegen._order_fault(*case) for case in cases]
    # the test alone decides: it passes exactly the orders the walk accepts
    holds = [changegen._is_centred_preorder(*case) for case in cases]
    monkeypatch.setattr(changegen, "_is_centred_preorder", lambda rows, w, n: False)
    walked = [changegen._order_fault(*case) for case in cases]
    assert packed == walked
    assert holds == [fault is None for fault in walked]
    # the planted faults are named as planted, at both sizes
    for kind, planted in kinds.items():
        assert len(planted) >= 10, kind
        assert all(kind in changegen._order_fault(*case) for case in planted), kind
    assert len(kinds) == 5
    # 1 + 2 + 3·4 centred orders among the small tuples, and the 12 seeded ones
    assert packed.count(None) == 27 and len(cases) > 2000


# --- generated tables ---


def test_update_table_frozen_values():
    table = total_update_table()
    got = table.results
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
    assert table.results[0b1110] == 0b0110
    assert table.results[0b1100] == 0b1100
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
    got = table.results
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
        gen_revision(CTX2, 0b0110, (0, 0, 1, 1))
    with pytest.raises(InputFormatError, match="^ranking covers 3 worlds, context has 4$"):
        gen_revision(CTX2, 0b0110, (1, 0, 0))


def test_audit_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown audit suite"):
        audit_function(total_update_table(), "XYZ")


def test_a_table_holds_world_sets():
    # a result outside the table's worlds would not fit its packed field
    for bad in (16, -1):
        with pytest.raises(ValueError, match="needs 16 world sets"):
            ChangeFunctionTable(CTX2, 1, [0, bad, *range(2, 16)])


# --- canonical structures and roundtrips ---


def test_canonical_model_shape():
    table = revision_table()
    model = build_canonical_model(table)
    frame = model.frame
    assert frame.states == ("w00", "w01", "w10", "w11")
    assert frame.belief == (0b0110,) * 4
    assert (1, 0b1111) in frame.selection and (0, 0b1111) not in frame.selection
    assert model.valuation == {"p": 0b1100, "q": 0b1010}
    assert validate_frame(frame) == []
    assert cells(model) == (1, 2, 4, 8)
    assert check_class(frame, FrameClass.REVISION_STRICT).holds
    assert extract_table(model) == dict(enumerate(table.results[1:], 1))


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
    drifted = ChangeFunctionTable(CTX2, 0b0001, base.results, rows={0: range(CTX2.full + 1)})
    report = roundtrip_verify(drifted, FrameClass.UPDATE)
    assert report.frame_valid
    assert report.mismatched_events and not report.ok
    assert 0b1111 in report.mismatched_events


def test_corrupted_custom_table_fails_roundtrip():
    # the revision table with r({00, 01}) bent from {01} to {00, 01}
    table = revision_table()
    bent = ChangeFunctionTable(CTX2, table.k_mask, [*table.results[:3], 0b0011, *table.results[4:]])
    assert bent.results[3] != table.results[3]
    report = roundtrip_verify(bent, FrameClass.REVISION_STRICT)
    assert report.frame_valid
    assert not report.class_holds
    assert PropertyId.PR4 in report.failed_properties


def test_four_atom_tables_are_checked_over_every_event():
    # one generated table per kind round-trips into its 16-state class and
    # passes its suite over all 65,535 events (the singleton Ks run PD9's and
    # D9's holds tests, and PD7's and D7's); a hand-built copy that fails
    # success has its pair scans refused on both routes
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
    bent = ChangeFunctionTable(ctx, table.k_mask, [0, 0b11, *table.results[2:]])
    with pytest.raises(SizeLimitError, match="exhaustive PD57 scan: 4294836225 exceeds"):
        roundtrip_verify(bent, FrameClass.UPDATE)
    with pytest.raises(SizeLimitError, match="pair scan: 4294836225 exceeds"):
        audit_function(bent, "KM")


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
    AxiomId.D5: (True, lambda k, r, e, f: r[e] & f & ~r[e & f] == 0),
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
    r = (0, *table.results[1:])  # the empty event's result is empty
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
        assert got == want, (suite, table.k_mask, table.results)
        failed_pairs += sum("F" in a.get("witness", {}) for a in want["axioms"])
    return failed_pairs


def _edited(table, edits):
    results = list(table.results)
    for e, r in edits:
        results[e] = r
    return ChangeFunctionTable(table.ctx, table.k_mask, results)


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
    # the audit's reports, holds tests and single-event checks included,
    # equal the literal E×F scan's on generated tables and perturbed copies
    # with and without D1 at 1-3 atoms
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
                    seen["D1 fails"] += any(r & ~e for e, r in enumerate(t.results) if e)
    assert seen["pair fails"] > 50 and seen["fat K"] > 10 and seen["D1 fails"] > 10, seen


def _emptied(rng, table):
    # a few results emptied: D1 still holds, D3 breaks
    return _edited(table, [(e, 0) for e in rng.sample(table.events(), 2)])


# The one-step rules of the audit's holds tests, one (E, x) step at a time:
# each reads r(E), r(G), G and {x} for G = E∖{x} ≠ ∅.
_STEPS = {
    AxiomId.D5: lambda r_e, r_g, g, x: not r_e & g & ~r_g,
    AxiomId.D6: lambda r_e, r_g, g, x: r_e & x != 0 or r_g == r_e,
    AxiomId.D9: lambda r_e, r_g, g, x: not r_e & g or not r_g & ~(r_e & g),
}


def _every_step_holds(check, r):
    step, n_events = _STEPS[check], len(r)
    for i in range(n_events.bit_length() - 1):
        x = 1 << i
        gs = [e ^ x for e in range(x + 1, n_events) if e & x]
        if not all(map(step, (r[g | x] for g in gs), map(r.__getitem__, gs), gs, repeat(x))):
            return False
    return True


def _four_atom_outcomes(monkeypatch):
    """At 4 atoms (16-bit fields) the audit refuses its pair scans, so each
    check runs alone: a single-event check must report the literal first
    failing E, and a holds test must pass exactly when D1 and every step of
    its rule (and of D5's, for D9) do, the audit raising `SizeLimitError`
    where a scan would start."""
    singles = (AxiomId.D1, AxiomId.D2, AxiomId.R3, AxiomId.R4, AxiomId.D3)
    for axiom in (*singles, AxiomId.D5, AxiomId.D6, AxiomId.R8):
        monkeypatch.setitem(SUITES, axiom.value, (axiom,))
    ctx = WorldContext(("p", "q", "r", "s"))
    rng = Random(54)
    tally = {}
    strong = gen_update(ctx, 1 << rng.randrange(16), random_family(rng, ctx, total=True))
    for table in (strong, random_revision_table(rng, ctx)):
        for t in (table, _perturbed(rng, table), _emptied(rng, table), _unsuccessful(rng, table)):
            r, k = t.results, t.k_mask
            for axiom in singles:
                (verdict,) = audit_function(t, axiom.value).verdicts
                test = _LITERAL[axiom][1]
                oks = map(test, repeat(k), repeat(r), t.events(), repeat(None))
                first = next((e for e, ok in enumerate(oks, 1) if not ok), None)
                assert (verdict.witness and verdict.witness.e) == first, (axiom, k)
                tally[axiom.value, first is None] = tally.get((axiom.value, first is None), 0) + 1
            successful = all(not r[e] & ~e for e in t.events())
            d5 = successful and _every_step_holds(AxiomId.D5, r)
            want = {
                AxiomId.D5: d5,
                AxiomId.D6: successful and _every_step_holds(AxiomId.D6, r),
                AxiomId.R8: d5 and _every_step_holds(AxiomId.D9, r),
            }
            for axiom, holds in want.items():
                try:
                    (verdict,) = audit_function(t, axiom.value).verdicts
                    passed = verdict.status is Status.HOLDS
                except SizeLimitError:
                    passed = False
                assert passed == holds, (axiom, k)
                tally[axiom.value, holds] = tally.get((axiom.value, holds), 0) + 1
    return tally


def test_audit_holds_tests_match_the_scan(monkeypatch):
    # Tables over every event with D1 holding run the one-step holds tests
    # for D5/R7, D6 and D9/R8; their reports must equal the literal scan's
    # whether a test passes, fails, or is skipped because D5 fails (D9),
    # on tables with and without D3, and at 1-2 atoms without D1.  D9's
    # tally reads R8, which no singleton gate hides.  At a singleton K, D7
    # holds outright when D5 does, and is scanned when D5 fails.  The
    # single-event checks, read off packed masks, are tallied too.
    tally = {
        check: {"holds": 0, "fails": 0} for check in ("D1", "D2", "R3", "R4", "D3", "D5", "D6", "D9")
    }
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
                variants = [table, _perturbed(rng, table), _emptied(rng, table)]
                if k < 3:  # without D1, F runs over every event
                    variants.append(_unsuccessful(rng, table))
                for t in variants:
                    _assert_audit_matches_literal(t)
                    km = {v.axiom: v.status for v in audit_function(t, "KM").verdicts}
                    agm = {v.axiom: v.status for v in audit_function(t, "AGM").verdicts}
                    for check, status in (
                        ("D1", km[AxiomId.D1]),
                        ("D2", km[AxiomId.D2]),
                        ("R3", agm[AxiomId.R3]),
                        ("R4", agm[AxiomId.R4]),
                        ("D3", km[AxiomId.D3]),
                        ("D5", km[AxiomId.D5]),
                        ("D6", km[AxiomId.D6]),
                        ("D9", agm[AxiomId.R8]),
                    ):
                        tally[check]["holds" if status is Status.HOLDS else "fails"] += 1
                    if km[AxiomId.D7] is not Status.NOT_APPLICABLE:
                        d7["D5 holds" if km[AxiomId.D5] is Status.HOLDS else "D5 fails"] += 1
    assert all(n >= 50 for counts in tally.values() for n in counts.values()), tally
    assert min(d7.values()) >= 20, d7
    four = _four_atom_outcomes(monkeypatch)
    assert len(four) == 16 and min(four.values()) >= 1, four


def test_audit_refuses_a_four_atom_pair_scan(monkeypatch):
    # A hand-built 4-atom table whose results all hold world 0000 fails D1,
    # so D5 goes to its pair scan over 65,535² pairs: the audit refuses it
    # before the scan starts.  Every pair check is stubbed, so a scan that
    # does start fails the test at once.
    def scanned(*args):  # pragma: no cover - called means a scan started
        raise AssertionError("a 4-atom pair scan started")

    for check in changegen._TABLE_CHECKS:
        monkeypatch.setitem(changegen._TABLE_CHECKS, check, scanned)
    ctx = WorldContext(("p", "q", "r", "s"))
    table = ChangeFunctionTable(ctx, 1, [0] + [1] * 65535)
    with pytest.raises(SizeLimitError, match="pair scan"):
        audit_function(table, "KM")


def test_roundtrip_refuses_a_four_atom_property_scan(monkeypatch):
    # The same table's 16-state canonical frame fails success, so PD57's gate
    # is closed and its scan would walk 65,535² pairs: the class check
    # refuses it before the scan starts.  Every property predicate is
    # stubbed, so a scan that does start fails the test at once.
    def scanned(e, f):  # pragma: no cover - called means a scan started
        raise AssertionError("a 16-state property scan started")

    for pid, (_, second, names) in list(properties._CONDITIONS.items()):
        monkeypatch.setitem(properties._CONDITIONS, pid, (lambda frame, b: scanned, second, names))
    ctx = WorldContext(("p", "q", "r", "s"))
    table = ChangeFunctionTable(ctx, 1, [0] + [1] * 65535)
    with pytest.raises(SizeLimitError, match="exhaustive PD57 scan"):
        roundtrip_verify(table, FrameClass.UPDATE)


def _d9_steps_without_d5():
    # Every D9 step E -> E∖{x} passes, but D5 fails, and so does D9 itself:
    # r({00,01,10,11}) = {00,01,10} while r({10,11}) = {10,11}.
    r = [0, 1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 12, 1, 2, 7]
    return ChangeFunctionTable(CTX2, 0b0111, r)


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


class _ReadWhole:
    """Results the audit may read whole but not one event at a time."""

    def __init__(self, results):
        self.results = results

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, e):  # pragma: no cover - called means failure
        raise AssertionError("a scan read one result of a table whose checks passed")


def test_holding_tables_skip_the_pair_scans(monkeypatch):
    # A table that passes every check reads no result one event at a time:
    # the pair scans do not run, and the single-event checks and D1's gate
    # read the packed table.  So does the table of empty results, which
    # packs to 0: only D2 and D3 fail there, read off their masks.
    def boom(*args):  # pragma: no cover - called means a scan ran
        raise AssertionError("pair scan ran on a table whose holds test passed")

    for check in (AxiomId.D5, AxiomId.D6, AxiomId.D7, AxiomId.D9):
        monkeypatch.setitem(changegen._TABLE_CHECKS, check, boom)

    def audit(table, suite):
        table.results = _ReadWhole(table.results)
        return audit_function(table, suite)

    ctx = WorldContext(("p", "q", "r"))
    for seed in range(5):
        rng = Random(seed)
        assert audit(random_update_table(rng, ctx), "KM").ok
        single = gen_update(ctx, 1 << rng.randrange(8), random_family(rng, ctx))
        report = audit(single, "KM")
        assert report.ok and report.verdicts[-1].status is Status.HOLDS  # D7
        strong = gen_update(ctx, 1 << rng.randrange(8), random_family(rng, ctx, total=True))
        report = audit(strong, "KM_STRONG")
        assert report.ok and report.verdicts[-1].status is Status.HOLDS
        assert audit(random_revision_table(rng, ctx), "AGM").ok
    empty = ChangeFunctionTable(ctx, 0b1, [0] * 256)
    report = audit(empty, "KM_STRONG")
    assert report.failed() == (AxiomId.D2, AxiomId.D3)
    assert {v.witness for v in report.verdicts} == {None, changegen.TableWitness(1)}
    # a failing table still reaches the scan
    with pytest.raises(AssertionError, match="pair scan ran"):
        audit_function(_d9_steps_without_d5(), "AGM")


def test_packed_results_keep_every_bit():
    # Masks over n = 8, 9, 16 and 17 worlds come back whole from their
    # fields; past 16 worlds no table is built, but no width may cut a mask.
    for n, w in ((8, 8), (9, 16), (16, 16), (17, 32)):
        full = (1 << n) - 1
        assert grid(n)[0] == w
        assert unpack(pack([full, 0, full], w), w, 4) == [full, 0, full, 0]


def test_audit_without_success_scans_every_pair():
    # every result keeps world 00, so D1 fails and F must range over all
    # events: the first D5 failure has F = {00}, outside E = {01}
    table = ChangeFunctionTable(CTX2, 0b0001, [e and e | 0b0001 for e in range(16)])
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
        return changegen._family_fault(le)

    for k in range(1, 4):
        ctx = WorldContext(("p", "q", "r")[:k])
        rng = Random(k)
        record([ctx.atom_worlds(i) for i in range(k)])
        for _ in range(4):
            record(random_family(rng, ctx, total=True))
            record(ranking_minima(random_total_order(rng, ctx, rng.randrange(1, ctx.full + 1)))[-1])
            for table, frame_class in (
                (random_update_table(rng, ctx), FrameClass.UPDATE),
                (random_update_table(rng, ctx, total=True), FrameClass.STRONG_UPDATE),
                (random_revision_table(rng, ctx), FrameClass.REVISION_STRICT),
            ):
                for t in (table, _perturbed(rng, table)):
                    record(list(enumerate(t.results))[1:])
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
                le = [list(row) for row in random_family(rng, CTX2)]
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
        record([[ranks, ranking_minima(ranks)[-1]] for ranks in _all_order_types(n)])
    assert digest.hexdigest() == (
        "a1859904775a0db3c987244c3de2a2a4be5bba73a1c5e597e40e7917cc7237a2"
    )

