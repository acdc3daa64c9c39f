import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_of, model_of, random_frame
from doxatest.errors import (
    InputFormatError,
    SizeLimitError,
    UndefinedSelectionError,
    UnknownAtomError,
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

    @staticmethod
    def _sorted_loop(frame):
        # The reference: belief clauses, then every selection entry in (s, E)
        # order with its clauses in a fixed order.
        out, full = [], frame.full
        for s, b in enumerate(frame.belief):
            if b == 0:
                out.append(("seriality", frame.states[s], None))
            elif b & ~full:
                out.append(("belief-range", frame.states[s], None))
        for (s, event), value in sorted(frame.selection.items()):
            clauses = []
            if event == 0:
                clauses = ["event-nonempty"]
            elif event & ~full:
                clauses = ["event-range"]
            elif value == 0:
                clauses = ["consistency"]
            else:
                if value & ~event:
                    clauses.append("success")
                if event >> s & 1 and not value >> s & 1:
                    clauses.append("weak-centering")
            out += [(c, frame.states[s], frame.event_ids(event & full)) for c in clauses]
        return out

    def test_violations_come_in_state_and_event_order(self):
        rng = random.Random(8)
        for n in range(1, 6):
            full = (1 << n) - 1
            selection = {}
            for s in range(n):
                for e in range(1, full + 1):
                    selection[(s, e)] = e & rng.randrange(1, full + 1) | (e & 1 << s) or e & -e
            broken = rng.sample(sorted(selection), min(len(selection), 6))
            for s, e in broken:
                # empty, outside the event, without s, or both of the last two
                selection[(s, e)] = rng.choice([0, e | 1 << n, e & ~(1 << s) or 1 << n, 1 << n])
            selection[(rng.randrange(n), 0)] = 1
            selection[(rng.randrange(n), full + 1)] = 1
            belief = [rng.choice([0, 1 << n, rng.randrange(1, full + 1)]) for _ in range(n)]
            items = list(selection.items())
            rng.shuffle(items)
            want = self._sorted_loop(frame_of(n, belief, dict(sorted(items))))
            assert sum(c in ("success", "weak-centering") for c, _, _ in want) >= 2
            for order in (items, sorted(items)):
                got = validate_frame(frame_of(n, belief, dict(order)))
                assert [(v.clause, v.state, v.event) for v in got] == want


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
        # the same list, in the same order, as the per-choice loop: entry
        # `choice` ORs the cells at its set bits; 0-8 cells partitioning 8 states
        rng = random.Random(7)
        for k in range(9):
            blocks = [0] * k
            for s, j in enumerate(rng.sample(range(8), 8)):
                if k:
                    blocks[j if j < k else rng.randrange(k)] |= 1 << s
            cs = sorted(blocks, key=lambda c: c & -c)
            want = []
            for choice in range(1, 1 << k):
                ev = 0
                for j in bits(choice):
                    ev |= cs[j]
                want.append(ev)
            assert definable_events(m, cell_masks=cs) == want

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

    def test_sup_matches_the_per_event_loop(self):
        # Frame.sup against the loop it replaced, on seeded 1-5-state frames
        # with rows dropped, rows replaced by arbitrary values (empty, or
        # outside their event), and extra keys at (s, 0) and beyond full.
        # Every belief mask and every event 0..full + 3 gives the same value,
        # or the same exception type and text (an event beyond full names a
        # state that is not there).
        def loop_sup(frame, bmask, event):
            got, rest = 0, bmask
            while rest:
                i = (rest & -rest).bit_length() - 1
                value = frame.selection.get((i, event))
                got |= frame.sel(i, event) if value is None else value
                rest &= rest - 1
            return got

        def outcome(read):
            try:
                return read()
            except (UndefinedSelectionError, IndexError) as exc:
                return type(exc).__name__, str(exc)

        rng = random.Random(20)
        raised = 0
        for n in range(1, 6):
            for k in range(8):
                full = (1 << n) - 1
                selection = dict(random_frame(rng, n).selection)
                for key in rng.sample(sorted(selection), len(selection) // (2 + k % 3)):
                    if k % 2:
                        del selection[key]
                    else:
                        selection[key] = rng.randrange(full + 1)
                for s in rng.sample(range(n), (n + 1) // 2):
                    selection[(s, 0)] = rng.randrange(full + 1)
                    selection[(s, full + 1 + rng.randrange(3))] = rng.randrange(1, 2 * full + 2)
                belief = [rng.randrange(1, full + 1) for _ in range(n)]
                reference = frame_of(n, belief, selection)
                frame = frame_of(n, belief, selection)
                for event in rng.sample(range(full + 4), full + 4):
                    for bmask in range(full + 1):
                        want = outcome(lambda: loop_sup(reference, bmask, event))
                        assert outcome(lambda: frame.sup(bmask, event)) == want, (n, k, bmask, event)
                        raised += isinstance(want, tuple)
        assert raised > 1000, raised


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
        # the constants' words too: `--formula true` would not read the atom
        for name in ("Q", "true", "false"):
            obj = self.frame_obj()
            obj["valuation"] = {name: ["s0"]}
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


def _reference_frame_from_obj(obj):
    """The field-by-field loader that `frame_from_obj` replaced, kept as the
    reference for its entry checks and error texts."""

    def state_mask(index, ids, label):
        if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
            raise InputFormatError(f"{label} must be a list of state ids")
        for sid in ids:
            if sid not in index:
                raise InputFormatError(f"{label} mentions unknown state {sid!r}")
        return mask_of(index[sid] for sid in ids)

    if not isinstance(obj, dict):
        raise InputFormatError("top level must be an object")
    states = obj.get("states")
    if not isinstance(states, list) or not states or not all(isinstance(s, str) for s in states):
        raise InputFormatError("'states' must be a nonempty list of ids")
    if len(set(states)) != len(states):
        raise InputFormatError("duplicate state ids")
    index = {sid: i for i, sid in enumerate(states)}
    belief_obj = obj.get("belief", {})
    if not isinstance(belief_obj, dict):
        raise InputFormatError("'belief' must be an object keyed by state id")
    for sid in belief_obj:
        if sid not in index:
            raise InputFormatError(f"'belief' mentions unknown state {sid!r}")
    belief = tuple(state_mask(index, belief_obj.get(sid, []), f"belief[{sid}]") for sid in states)
    selection = {}
    entries = obj.get("selection", [])
    if not isinstance(entries, list):
        raise InputFormatError("'selection' must be a list of entries")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {"s", "event", "selects"} <= set(entry):
            raise InputFormatError(f"selection entry {k} needs 's', 'event' and 'selects'")
        sid = entry["s"]
        if not isinstance(sid, str):
            raise InputFormatError(f"selection entry {k} 's' must be a state id")
        if sid not in index:
            raise InputFormatError(f"selection entry {k} names unknown state {sid!r}")
        event = state_mask(index, entry["event"], f"selection entry {k} event")
        if event == 0:
            raise InputFormatError(f"selection entry {k} has an empty event")
        key = (index[sid], event)
        if key in selection:
            raise InputFormatError(
                f"duplicate selection entry for state {sid!r} and event {sorted(entry['event'])}"
            )
        selection[key] = state_mask(index, entry["selects"], f"selection entry {k} selects")
    return Frame(tuple(states), belief, selection)


# Faults planted in one selection entry of a valid document, up to two, so
# that their ranking shows.
_ENTRY_FAULTS = (
    "drop-key", "non-dict", "non-str-s", "unknown-s", "non-list-ids",
    "non-str-id", "unknown-id", "empty-event", "duplicate",
)
_NON_IDS = st.one_of(st.none(), st.integers(-2, 2), st.booleans(), st.just(["s0"]), st.just({"a": 1}))


@st.composite
def frame_documents(draw):
    n = draw(st.integers(1, 4))
    # one-letter ids make a string read as a list of ids look well formed
    states = list("abcd"[:n]) if draw(st.integers(0, 3)) else [f"s{i}" for i in range(n)]
    ids = st.lists(st.sampled_from(states), max_size=n + 1)
    event = st.lists(st.sampled_from(states), min_size=1, max_size=n + 1)
    belief = {sid: draw(ids) for sid in states if draw(st.booleans())}
    entries = [
        {"s": draw(st.sampled_from(states)), "event": draw(event), "selects": draw(ids)}
        for _ in range(draw(st.integers(0, 6)))
    ]
    k = draw(st.integers(0, len(entries) - 1)) if entries else None
    for fault in draw(st.lists(st.sampled_from(_ENTRY_FAULTS), max_size=2)) if entries else ():
        if not isinstance(entries[k], dict):
            continue  # already replaced by a non-dict
        entry = entries[k] = dict(entries[k])
        field_name = draw(st.sampled_from(["event", "selects"]))
        if fault == "drop-key":
            entry.pop(draw(st.sampled_from(["s", "event", "selects"])), None)
        elif fault == "non-dict":
            entries[k] = draw(st.one_of(_NON_IDS, st.just("".join(states)), st.just(list(entry))))
        elif fault == "non-str-s":
            entry["s"] = draw(_NON_IDS)
        elif fault == "unknown-s":
            entry["s"] = "zz"
        elif fault == "non-list-ids":
            # a string or an object of ids iterates as ids
            entry[field_name] = draw(st.sampled_from(["".join(states), dict.fromkeys(states), None, 2]))
        elif fault == "non-str-id":
            entry[field_name] = draw(st.permutations([*states[:2], draw(_NON_IDS)]))
        elif fault == "unknown-id":
            entry[field_name] = draw(st.permutations([*states[:2], "zz"]))
        elif fault == "empty-event":
            entry["event"] = []
        else:
            entries.insert(draw(st.integers(0, len(entries))), dict(entry))
    return {"states": states, "belief": belief, "selection": entries}


@given(frame_documents())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_loader_matches_the_field_by_field_reference(obj):
    def outcome(load):
        try:
            return load(json.loads(json.dumps(obj)))
        except InputFormatError as exc:
            return str(exc)

    assert outcome(frame_from_obj) == outcome(_reference_frame_from_obj)
