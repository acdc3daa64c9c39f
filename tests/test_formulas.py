import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doxatest.changegen import WorldContext, build_canonical_model, random_revision_table
from doxatest.errors import MissingAtomError, ParseError, SizeLimitError
from doxatest.formulas import (
    FALSE,
    NESTING_LIMIT,
    TRUE,
    And,
    Atom,
    Classification,
    FalseConst,
    Iff,
    Implies,
    Not,
    Or,
    TrueConst,
    assignments,
    atoms,
    classify,
    cn_member,
    eval_formula,
    is_tautology,
    parse_formula,
    render,
    semantic_pool,
    truth_vector,
)
from doxatest.frames import truth_set

p, q, r = Atom("p"), Atom("q"), Atom("r")


# ============================================================
# parsing
# ============================================================

class TestParsing:
    def test_precedence_not_binds_tightest(self):
        assert parse_formula("!p & q") == And(Not(p), q)

    def test_precedence_and_over_or(self):
        assert parse_formula("p | q & r") == Or(p, And(q, r))

    def test_precedence_or_over_implies(self):
        assert parse_formula("p | q -> r") == Implies(Or(p, q), r)

    def test_implies_right_associative(self):
        assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))

    def test_iff_chains_left(self):
        assert parse_formula("p <-> q <-> r") == Iff(Iff(p, q), r)

    def test_parentheses_override(self):
        assert parse_formula("(p -> q) -> r") == Implies(Implies(p, q), r)

    def test_whitespace_insignificant(self):
        assert parse_formula("p->q") == parse_formula("  p  ->  q  ")

    def test_constants_reserved(self):
        assert parse_formula("true") is TRUE
        assert parse_formula("false") is FALSE

    def test_atom_names(self):
        assert parse_formula("rainOrSnow_2") == Atom("rainOrSnow_2")

    def test_double_negation_parses(self):
        assert parse_formula("!!p") == Not(Not(p))

    @pytest.mark.parametrize("bad", ["", "p ->", "(p", "p q", "p & | q", "P", "->"])
    def test_syntax_errors_carry_position(self, bad):
        with pytest.raises(ParseError) as exc:
            parse_formula(bad)
        assert exc.value.position >= 0

    def test_nesting_at_the_bound_parses(self):
        n = NESTING_LIMIT
        assert parse_formula("(" * n + "p" + ")" * n) == p
        half = n // 2
        assert parse_formula("!(" * half + "p" + ")" * half) == parse_formula("!" * half + "p")

    def test_binary_chains_count_one_level_per_operator(self):
        for op in (" & ", " | ", " -> ", " <-> "):
            assert parse_formula(op.join(["p"] * (NESTING_LIMIT + 1)))
            with pytest.raises(ParseError, match="deeper than"):
                parse_formula(op.join(["p"] * (NESTING_LIMIT + 2)))

    @pytest.mark.parametrize(
        "deep",
        [
            "(" * (NESTING_LIMIT + 1) + "p" + ")" * (NESTING_LIMIT + 1),
            "!" * (NESTING_LIMIT + 1) + "p",
            "(" * 600 + "p" + ")" * 600,
            "!(" * 190 + "p" + ")" * 190,
            " & ".join(["p"] * 3000),
            " -> ".join(["p"] * 3000),
        ],
        ids=[
            "parens-over-bound",
            "nots-over-bound",
            "parens-600",
            "not-parens-190",
            "and-chain-3000",
            "imp-chain-3000",
        ],
    )
    def test_nesting_beyond_the_bound_is_a_parse_error(self, deep):
        with pytest.raises(ParseError, match="deeper than"):
            parse_formula(deep)


# ============================================================
# evaluation and classification
# ============================================================

class TestSemantics:
    def test_eval_all_rows_of_transitivity_schema(self):
        # (p->q)->((q->r)->(p->r)) is true in each of the 8 assignments
        f = parse_formula("(p->q)->((q->r)->(p->r))")
        for a in assignments(["p", "q", "r"]):
            assert eval_formula(f, a) is True

    def test_classify_tautology(self):
        assert classify(parse_formula("p | !p")) is Classification.TAUTOLOGY

    def test_classify_contradiction(self):
        assert classify(parse_formula("p & !p")) is Classification.CONTRADICTION

    def test_classify_contingent(self):
        assert classify(parse_formula("p -> q")) is Classification.CONTINGENT

    def test_classify_constants(self):
        assert classify(TRUE) is Classification.TAUTOLOGY
        assert classify(FALSE) is Classification.CONTRADICTION

    def test_missing_atom_raises(self):
        with pytest.raises(MissingAtomError):
            eval_formula(And(p, q), {"p": True})
        with pytest.raises(MissingAtomError):
            truth_vector(And(p, q), ["p"])

    def test_atom_limit_enforced(self):
        wide = parse_formula(" | ".join(f"a{i}" for i in range(25)))
        with pytest.raises(SizeLimitError):
            classify(wide)
        assert classify(wide, atom_limit=25) is Classification.CONTINGENT

    def test_atoms_collects_names(self):
        assert atoms(parse_formula("p -> (q <-> !p)")) == {"p", "q"}


class TestConsequence:
    def test_modus_ponens(self):
        assert cn_member([p, Implies(p, q)], q) is True

    def test_non_consequence(self):
        assert cn_member([Or(p, q)], p) is False

    def test_inconsistent_premises_entail_everything(self):
        assert cn_member([p, Not(p)], q) is True

    def test_empty_premises_is_tautology_test(self):
        assert cn_member([], Or(p, Not(p))) is True
        assert cn_member([], p) is False

    def test_cn_extensive(self):
        # every premise is a consequence of the premise set
        prems = [parse_formula("p -> q"), parse_formula("q | r")]
        assert all(cn_member(prems, f) for f in prems)


# ============================================================
# definitional identities and round trips (property style)
# ============================================================

def reference_eval(formula, assignment):
    """Truth at one assignment by the textbook clauses; shares no code with
    the library's denotation, so the tests below compare against it."""
    def ev(sub):
        return reference_eval(sub, assignment)

    if isinstance(formula, Atom):
        return assignment[formula.name]
    if isinstance(formula, TrueConst):
        return True
    if isinstance(formula, FalseConst):
        return False
    if isinstance(formula, Not):
        return not ev(formula.child)
    if isinstance(formula, And):
        return ev(formula.left) and ev(formula.right)
    if isinstance(formula, Or):
        return ev(formula.left) or ev(formula.right)
    if isinstance(formula, Implies):
        return (not ev(formula.left)) or ev(formula.right)
    if isinstance(formula, Iff):
        return ev(formula.left) == ev(formula.right)
    raise TypeError(f"not a formula: {formula!r}")


def formula_strategy(max_depth=4):
    leaves = st.sampled_from([p, q, r, TRUE, FALSE])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            st.tuples(sub, sub).map(lambda t: Iff(*t)),
        ),
        max_leaves=12,
    )


@given(formula_strategy())
@settings(max_examples=200, deadline=None)
def test_render_parse_round_trip(f):
    assert parse_formula(render(f)) == f


# the grammar's tokens, the constants' words and near misses, and characters
# outside it: a stray '-' or '<', '#', capitals
_TEXT_TOKENS = ["p", "q", "x_1", "aB", "true", "false", "trueish", "!", "&", "|",
                "->", "<->", "(", ")", " ", "-", "<", "#", "P", "Tq"]


def _nested(depth: int, parens: int, closed: bool) -> str:
    """`depth` levels of '(' (where `parens` has the bit set) or '!' around
    "p & q", with every '(' closed or the last one left open."""
    prefix = "".join("(" if parens >> i & 1 else "!" for i in range(depth))
    return prefix + "p & q" + ")" * max(prefix.count("(") - (not closed), 0)


FORMULA_TEXT = st.one_of(
    st.lists(st.sampled_from(_TEXT_TOKENS), max_size=24).map("".join),
    st.text(max_size=30),
    # '(' and '!' nested 90-130 deep, around NESTING_LIMIT, closed or one short
    st.builds(_nested, st.integers(90, 130), st.integers(0, (1 << 130) - 1), st.booleans()),
)


@given(FORMULA_TEXT)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_formula_text_parses_or_raises_parse_error(text):
    try:
        f = parse_formula(text)
    except ParseError:
        return
    assert parse_formula(render(f)) == f


@given(formula_strategy(), formula_strategy())
@settings(max_examples=100, deadline=None)
def test_definitional_identities_extensional(a, b):
    names = sorted(atoms(a) | atoms(b))
    for assign in assignments(names):
        conj = eval_formula(And(a, b), assign)
        assert conj == eval_formula(Not(Or(Not(a), Not(b))), assign)
        imp = eval_formula(Implies(a, b), assign)
        assert imp == eval_formula(Or(Not(a), b), assign)
        iff = eval_formula(Iff(a, b), assign)
        assert iff == eval_formula(And(Implies(a, b), Implies(b, a)), assign)


@given(formula_strategy())
@settings(max_examples=100, deadline=None)
def test_classify_matches_eval(f):
    names = sorted(atoms(f))
    values = {reference_eval(f, a) for a in assignments(names)}
    c = classify(f)
    if values == {True}:
        assert c is Classification.TAUTOLOGY
    elif values == {False}:
        assert c is Classification.CONTRADICTION
    else:
        assert c is Classification.CONTINGENT


# atoms deliberately unsorted: the first name is the most significant bit
WORLD_ATOMS = ("q", "p", "r")
WORLD_ROWS = [
    {name: bool((w >> (len(WORLD_ATOMS) - 1 - i)) & 1) for i, name in enumerate(WORLD_ATOMS)}
    for w in range(1 << len(WORLD_ATOMS))
]
CANONICAL = build_canonical_model(random_revision_table(Random(0), WorldContext(WORLD_ATOMS)))


@given(formula_strategy())
@settings(max_examples=200, deadline=None)
def test_denotations_match_reference_evaluator(f):
    values = [reference_eval(f, row) for row in WORLD_ROWS]
    expected = sum(1 << w for w, value in enumerate(values) if value)
    assert [eval_formula(f, row) for row in WORLD_ROWS] == values
    assert truth_vector(f, WORLD_ATOMS) == expected
    assert WorldContext(WORLD_ATOMS).truth_worlds(f) == expected
    # canonical state w is world w, so the truth set is the same mask
    assert truth_set(CANONICAL, f) == expected


@given(st.lists(formula_strategy(), max_size=3), formula_strategy())
@settings(max_examples=60, deadline=None)
def test_cn_monotone_and_idempotent(prems, concl):
    if cn_member(prems, concl):
        # monotone: adding premises never loses consequences
        assert cn_member(prems + [q], concl)
        # idempotent-ish: consequences of consequences are consequences
        assert cn_member(prems + [concl], concl)


# ============================================================
# pools
# ============================================================

class TestPools:
    def test_semantic_pool_covers_all_two_atom_functions(self):
        pool = semantic_pool(["p", "q"], depth=3)
        vectors = {truth_vector(f, ["p", "q"]) for f in pool}
        assert vectors == set(range(16))

    def test_semantic_pool_variants(self):
        pool = semantic_pool(["p", "q"], depth=3, per_class=2)
        by_vec = {}
        for f in pool:
            by_vec.setdefault(truth_vector(f, ["p", "q"]), []).append(f)
        assert all(len(v) <= 2 for v in by_vec.values())
        assert any(len(v) == 2 for v in by_vec.values())

    def test_pool_deterministic(self):
        a = [render(f) for f in semantic_pool(["p", "q"], depth=2)]
        b = [render(f) for f in semantic_pool(["p", "q"], depth=2)]
        assert a == b
