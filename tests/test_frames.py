import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_of, model_of
from doxatest.errors import (
    InputFormatError,
    SizeLimitError,
    UndefinedSelectionError,
    UnknownAtomError,
    UnknownRuleError,
)
from doxatest.formulas import cn_member, parse_formula
from doxatest.frames import (
    BeliefRepr,
    Frame,
    Model,
    belief_support,
    bits,
    cell_closure,
    cells,
    complete_selection,
    definable_events,
    expansion_member,
    extended_member,
    frame_from_obj,
    frame_to_obj,
    load_structure,
    mask_of,
    model_from_obj,
    model_to_obj,
    relabel_frame,
    ri_support,
    structure_from_obj,
    subsets_of,
    truth_set,
    validate_frame,
)


class TestBitHelpers:
    def test_bits_ascending(self):
        assert list(bits(0b101101)) == [0, 2, 3, 5]

    def test_mask_round_trip(self):
        assert mask_of([1, 4]) == 0b10010

    def test_subsets_count(self):
        assert len(subsets_of(0b1011)) == 8
        assert set(subsets_of(0b11)) == {0, 1, 2, 3}

    def test_subsets_ascend(self):
        for mask in range(1 << 6):
            assert subsets_of(mask) == [g for g in range(mask + 1) if g & ~mask == 0]


# ============================================================
# validation
# ============================================================

class TestValidateFrame:
    def test_conforming_frame_is_clean(self, two_state_default):
        assert validate_frame(two_state_default) == []

    def test_empty_belief_is_seriality_violation(self):
        f = frame_of(2, [0, 0b01], {(0, 0b11): 0b01, (1, 0b11): 0b11})
        clauses = [v.clause for v in validate_frame(f)]
        assert "seriality" in clauses

    def test_selection_outside_event_is_success_violation(self):
        f = frame_of(2, [0b01, 0b10], {(0, 0b01): 0b11})
        v = [v for v in validate_frame(f) if v.clause == "success"]
        assert len(v) == 1 and v[0].state == "s0"

    def test_missing_self_is_weak_centering_violation(self):
        f = frame_of(2, [0b01, 0b10], {(0, 0b11): 0b10})
        clauses = {v.clause for v in validate_frame(f)}
        assert clauses == {"weak-centering"}

    def test_empty_value_is_consistency_violation(self):
        f = frame_of(2, [0b01, 0b10], {(1, 0b01): 0})
        clauses = {v.clause for v in validate_frame(f)}
        assert clauses == {"consistency"}

    def test_violations_name_state_and_event(self):
        f = frame_of(3, [0b001, 0b010, 0b100], {(2, 0b110): 0b001})
        vio = validate_frame(f)
        assert vio and vio[0].state == "s2" and vio[0].event == ("s1", "s2")

    def test_partial_tables_are_fine(self):
        # only one entry defined; nothing else is checked
        f = frame_of(3, [0b111, 0b010, 0b100], {(0, 0b101): 0b001})
        assert validate_frame(f) == []


class TestCompleteSelection:
    def test_member_state_selects_itself(self):
        f = frame_of(3, [0b001, 0b010, 0b100])
        g = complete_selection(f)
        assert g.sel(2, 0b101) == 0b100  # s2 in E -> {s2}

    def test_non_member_takes_lowest_index(self):
        f = frame_of(3, [0b001, 0b010, 0b100])
        g = complete_selection(f)
        assert g.sel(2, 0b011) == 0b001  # s2 not in E -> {s0}

    def test_existing_entries_kept(self):
        f = frame_of(2, [0b01, 0b10], {(0, 0b11): 0b11})
        g = complete_selection(f)
        assert g.sel(0, 0b11) == 0b11

    def test_completion_is_total_and_valid(self):
        f = frame_of(3, [0b011, 0b010, 0b111])
        g = complete_selection(f)
        assert len(g.selection) == 3 * 7
        assert validate_frame(g) == []

    def test_unknown_rule_rejected(self):
        with pytest.raises(UnknownRuleError):
            complete_selection(frame_of(1, [1]), rule="nope")

    def test_size_guard(self):
        f = frame_of(13, [1] * 13)
        with pytest.raises(SizeLimitError):
            complete_selection(f)


# ============================================================
# truth sets, cells
# ============================================================

class TestTruthSets:
    def test_implication_truth_set(self):
        f = frame_of(4, [1, 1, 1, 1])
        m = model_of(f, p=0b0110, q=0b1100)  # V(p)={s1,s2}, V(q)={s2,s3}
        assert truth_set(m, parse_formula("p -> q")) == 0b1101  # {s0,s2,s3}

    def test_connectives(self):
        f = frame_of(4, [1] * 4)
        m = model_of(f, p=0b0011, q=0b0101)
        assert truth_set(m, parse_formula("!p")) == 0b1100
        assert truth_set(m, parse_formula("p & q")) == 0b0001
        assert truth_set(m, parse_formula("p | q")) == 0b0111
        assert truth_set(m, parse_formula("p <-> q")) == 0b1001
        assert truth_set(m, parse_formula("true")) == 0b1111
        assert truth_set(m, parse_formula("false")) == 0

    def test_unknown_atom(self):
        m = model_of(frame_of(1, [1]), p=1)
        with pytest.raises(UnknownAtomError):
            truth_set(m, parse_formula("q"))

    def test_every_truth_set_is_a_union_of_cells(self):
        rng = random.Random(7)
        f = frame_of(4, [1] * 4)
        for _ in range(50):
            m = model_of(f, p=rng.randrange(16), q=rng.randrange(16))
            phi = parse_formula("(p <-> q) | !p")
            ts = truth_set(m, phi)
            assert cell_closure(m, ts) == ts


class TestCells:
    def test_distinct_profiles_give_singleton_cells(self):
        f = frame_of(4, [1] * 4)
        m = model_of(f, p=0b0101, q=0b0011)  # four distinct (p,q) profiles
        assert cells(m) == (0b0001, 0b0010, 0b0100, 0b1000)
        for ev in range(16):
            assert cell_closure(m, ev) == ev

    def test_merged_profiles(self):
        f = frame_of(4, [1] * 4)
        m = model_of(f, p=0b0011)  # s0,s1 share p; s2,s3 share !p
        assert cells(m) == (0b0011, 0b1100)
        assert cell_closure(m, 0b0001) == 0b0011

    def test_definable_events_are_unions_of_cells(self):
        f = frame_of(3, [1] * 3)
        m = model_of(f, p=0b011)
        evs = definable_events(m)
        assert evs == [0b011, 0b100, 0b111]

    def test_closure_is_extensive_monotone_idempotent(self):
        rng = random.Random(3)
        f = frame_of(5, [1] * 5)
        for _ in range(40):
            m = model_of(f, p=rng.randrange(32), q=rng.randrange(32))
            x = rng.randrange(32)
            y = x | rng.randrange(32)
            cx = cell_closure(m, x)
            assert cx & x == x
            assert cell_closure(m, y) & cx == cx
            assert cell_closure(m, cx) == cx


# ============================================================
# belief supports and membership
# ============================================================

class TestSupports:
    def test_belief_support_is_b(self):
        f = frame_of(3, [0b110, 0b010, 0b100], complete=True)
        m = model_of(f, p=0b111)
        assert belief_support(m, 0).support == 0b110

    def test_ri_support_unions_selections(self):
        # B(s0)={s1,s2}, f(s1,E)={s3}, f(s2,E)={s4}
        sel = {(1, 0b11000): 0b01000, (2, 0b11000): 0b10000}
        f = frame_of(5, [0b00110, 0b00010, 0b00100, 0b01000, 0b10000], sel)
        m = model_of(f, p=0b11000)
        got = ri_support(m, 0, 0b11000)
        assert got.support == 0b11000

    def test_missing_entry_is_named(self):
        f = frame_of(3, [0b110, 0b010, 0b100], {(1, 0b100): 0b100})
        m = model_of(f, p=0b100)
        with pytest.raises(UndefinedSelectionError) as exc:
            ri_support(m, 0, 0b100)
        assert exc.value.state == "s2"
        assert exc.value.event_ids == ("s2",)

    def test_empty_event_rejected(self):
        m = model_of(frame_of(1, [1], complete=True), p=1)
        with pytest.raises(ValueError):
            ri_support(m, 0, 0)

    def test_membership_via_support(self):
        f = frame_of(4, [0b0110] * 4, complete=True)
        m = model_of(f, p=0b0110, q=0b0111)
        k = belief_support(m, 0)
        assert k.member(parse_formula("q"))
        assert not k.member(parse_formula("!p"))
        assert k.member_event(0b1110)

    def test_lemma_style_consistency_and_closure(self):
        # on conforming frames conditional supports are nonempty, and the
        # represented formula set is closed under consequence
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(2, 5)
            belief = [rng.randrange(1, 1 << n) for _ in range(n)]
            f = frame_of(n, belief, complete=True)
            m = model_of(f, p=rng.randrange(1 << n), q=rng.randrange(1 << n))
            s = rng.randrange(n)
            ev = rng.randrange(1, 1 << n)
            k = ri_support(m, s, ev)
            assert k.support != 0
            pool = [parse_formula(t) for t in ("p", "q", "p|q", "p->q", "!p", "q->p")]
            members = [g for g in pool if k.member(g)]
            for chi in pool:
                if cn_member(members, chi):
                    assert k.member(chi)


class TestExpansion:
    def test_member(self):
        f = frame_of(4, [0b0110] * 4)
        m = model_of(f, p=0b1100, q=0b0100)
        # B={s1,s2}, phi={s2,s3} -> intersection {s2} inside q
        assert expansion_member(m, 0, parse_formula("p"), parse_formula("q"))

    def test_non_member(self):
        f = frame_of(4, [0b0110] * 4)
        m = model_of(f, p=0b1100, q=0b1000)
        assert not expansion_member(m, 0, parse_formula("p"), parse_formula("q"))

    def test_inconsistent_expansion_contains_everything(self):
        f = frame_of(2, [0b01] * 2)
        m = model_of(f, p=0b10, q=0b00)
        # B and phi disjoint: the expansion is the inconsistent belief set
        assert expansion_member(m, 0, parse_formula("p"), parse_formula("q"))
        assert expansion_member(m, 0, parse_formula("p"), parse_formula("!q"))


class TestExtendedMember:
    def test_nonempty_input_uses_selection(self):
        f = frame_of(2, [0b10, 0b01], complete=True)
        m = model_of(f, p=0b11, q=0b10)
        assert extended_member(m, 0, parse_formula("p"), parse_formula("q"))

    def test_empty_but_satisfiable_input_falls_back_to_consequence(self):
        f = frame_of(2, [0b10, 0b01], complete=True)
        m = model_of(f, p=0b11, q=0b10, r=0)
        assert extended_member(m, 0, parse_formula("r"), parse_formula("r"))
        assert not extended_member(m, 0, parse_formula("r"), parse_formula("q"))

    def test_contradictory_input_believes_everything(self):
        f = frame_of(2, [0b10, 0b01], complete=True)
        m = model_of(f, p=0b01, q=0b10)
        phi = parse_formula("p & !p")
        for probe in ("q", "!q", "false", "p"):
            assert extended_member(m, 0, phi, parse_formula(probe))

    def test_satisfiability_judged_over_own_atoms(self):
        # 'r & !q' has empty truth set here but is satisfiable as a formula,
        # so the consequence branch applies rather than the contradiction one
        f = frame_of(2, [0b10, 0b01], complete=True)
        m = model_of(f, q=0b11, r=0b00)
        phi = parse_formula("r & !q")
        assert extended_member(m, 0, phi, parse_formula("r"))
        assert not extended_member(m, 0, phi, parse_formula("q"))

    def test_total_on_uninterpreted_atoms(self):
        # atoms absent from the valuation hold nowhere, so the verdict is
        # defined for every formula pair instead of raising
        f = frame_of(2, [0b10, 0b01], complete=True)
        m = model_of(f, p=0b11, q=0b10)
        assert extended_member(m, 0, parse_formula("r"), parse_formula("r"))
        assert not extended_member(m, 0, parse_formula("r"), parse_formula("q"))
        assert extended_member(m, 0, parse_formula("r & !r"), parse_formula("q"))
        # '!r' holds everywhere, so it routes through the selection branch
        assert extended_member(m, 0, parse_formula("!r"), parse_formula("p"))
        assert not extended_member(m, 0, parse_formula("!r"), parse_formula("r"))
        # strict truth_set keeps rejecting unknown atoms for other callers
        with pytest.raises(UnknownAtomError):
            truth_set(m, parse_formula("r"))


# ============================================================
# relabeling
# ============================================================

class TestRelabel:
    def test_round_trip(self):
        f = frame_of(3, [0b011, 0b100, 0b001], {(0, 0b101): 0b001, (2, 0b110): 0b100})
        perm = [2, 0, 1]
        inverse = [perm.index(i) for i in range(3)]
        assert relabel_frame(relabel_frame(f, perm), inverse) == f

    def test_structure_preserved(self):
        f = frame_of(2, [0b10, 0b11], {(1, 0b11): 0b11})
        g = relabel_frame(f, [1, 0])
        assert g.states == ("s1", "s0")
        assert g.belief == (0b11, 0b01)
        assert g.selection == {(0, 0b11): 0b11}


# ============================================================
# JSON wire format
# ============================================================

class TestJson:
    def frame_obj(self):
        return {
            "states": ["s0", "s1"],
            "belief": {"s0": ["s1"], "s1": ["s1"]},
            "selection": [
                {"s": "s1", "event": ["s0", "s1"], "selects": ["s1"]},
            ],
        }

    def test_frame_round_trip(self):
        f = frame_from_obj(self.frame_obj())
        assert f.belief == (0b10, 0b10)
        assert f.selection == {(1, 0b11): 0b10}
        assert frame_from_obj(frame_to_obj(f)) == f

    def test_model_round_trip(self):
        obj = self.frame_obj()
        obj["valuation"] = {"p": ["s0"], "q": []}
        m = model_from_obj(obj)
        assert m.valuation == {"p": 0b01, "q": 0}
        again = model_from_obj(model_to_obj(m))
        assert again == m

    def test_structure_dispatch(self):
        assert isinstance(structure_from_obj(self.frame_obj()), Frame)
        obj = self.frame_obj()
        obj["valuation"] = {}
        assert isinstance(structure_from_obj(obj), Model)

    def test_duplicate_selection_entry_rejected(self):
        obj = self.frame_obj()
        obj["selection"].append({"s": "s1", "event": ["s1", "s0"], "selects": ["s0"]})
        with pytest.raises(InputFormatError, match="duplicate selection"):
            frame_from_obj(obj)

    def test_unknown_state_rejected(self):
        obj = self.frame_obj()
        obj["belief"]["s0"] = ["zz"]
        with pytest.raises(InputFormatError, match="unknown state"):
            frame_from_obj(obj)

    @pytest.mark.parametrize(
        "where, value, message",
        [
            ("event", ["s0", "zz"], "selection entry 0 event mentions unknown state 'zz'"),
            ("selects", ["zz"], "selection entry 0 selects mentions unknown state 'zz'"),
            ("event", "s0", "selection entry 0 event must be a list of state ids"),
            ("selects", ["s1", 1], "selection entry 0 selects must be a list of state ids"),
            # a non-id anywhere in the list outranks an unknown id before it
            ("event", ["zz", None], "selection entry 0 event must be a list of state ids"),
            ("selects", [["s1"]], "selection entry 0 selects must be a list of state ids"),
            ("s0", ["s1", "zz"], "belief[s0] mentions unknown state 'zz'"),
            ("s1", {"s1": True}, "belief[s1] must be a list of state ids"),
            ("s0", ["zz", 0], "belief[s0] must be a list of state ids"),
        ],
    )
    def test_state_list_errors_name_their_field(self, where, value, message):
        obj = self.frame_obj()
        if where in obj["belief"]:
            obj["belief"][where] = value
        else:
            obj["selection"][0][where] = value
        with pytest.raises(InputFormatError) as info:
            frame_from_obj(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize("sid", [["s0"], {"id": "s0"}, 0, None])
    def test_non_string_selection_state_rejected(self, sid):
        obj = self.frame_obj()
        obj["selection"][0]["s"] = sid
        with pytest.raises(InputFormatError, match="'s' must be a state id"):
            frame_from_obj(obj)

    def test_empty_event_rejected(self):
        obj = self.frame_obj()
        obj["selection"][0]["event"] = []
        with pytest.raises(InputFormatError, match="empty event"):
            frame_from_obj(obj)

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["s0", "s9"], "valuation[p] mentions unknown state 's9'"),
            (["s0", 1], "valuation[p] must be a list of state ids"),
            ("s0", "valuation[p] must be a list of state ids"),
        ],
    )
    def test_valuation_errors_name_their_field(self, ids, message):
        obj = self.frame_obj()
        obj["valuation"] = {"p": ids}
        with pytest.raises(InputFormatError) as info:
            model_from_obj(obj)
        assert str(info.value) == message

    def test_bad_atom_name_rejected(self):
        obj = self.frame_obj()
        obj["valuation"] = {"Q": ["s0"]}
        with pytest.raises(InputFormatError, match="atom"):
            model_from_obj(obj)

    def test_load_structure_from_file(self, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(self.frame_obj()))
        assert isinstance(load_structure(str(path)), Frame)

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(InputFormatError, match="valid JSON"):
            load_structure(str(path))
        # a UTF-16 byte-order mark is not UTF-8 text
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(InputFormatError, match="valid JSON"):
            load_structure(str(path))
