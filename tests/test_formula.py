import gc
import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidet.formula import (
    Add,
    Const,
    Inv,
    Mul,
    Neg,
    ParseError,
    Var,
    evaluate,
    formula_height,
    free_vars,
    parse,
    qdet_formula,
    to_text,
)
from quasidet.formula import _postorder
from quasidet.harness import (
    COUNTEREXAMPLE,
    DOMAIN_EXHAUSTED,
    NO_CELLS,
    VERIFIED,
    RunConfig,
    equivalent,
    formula_identity,
    replay_counterexample,
    run_suite,
)
from quasidet.qdet import qdet
from quasidet.rings import DomainError, Rationals, SquareMatrices
from quasidet.sampling import RESAMPLE_LIMIT, sample_matrix


def test_never_defined_inverse_raises():
    f = Inv(Var("x") - Var("x"))
    with pytest.raises(DomainError) as err:
        evaluate(f, {"x": Fraction(5)}, Rationals())
    assert isinstance(err.value.payload, Inv)


def test_inverse_law():
    f = Var("x") * Inv(Var("x"))
    assert evaluate(f, {"x": Fraction(7, 3)}, Rationals()) == 1
    M2 = SquareMatrices(2)
    point = M2.deserialize([["1", "2"], ["3", "4"]])
    assert evaluate(f, {"x": point}, M2) == M2.one


def test_double_inverse():
    f = Inv(Inv(Var("x")))
    assert evaluate(f, {"x": Fraction(2, 3)}, Rationals()) == Fraction(2, 3)


def test_integer_constants_and_fractions():
    f = parse("2 * x + 1")
    assert evaluate(f, {"x": Fraction(1, 2)}, Rationals()) == 2
    g = Const(Fraction(3, 4)) * Var("x")
    assert evaluate(g, {"x": Fraction(4)}, Rationals()) == 3


def test_var_name_nonempty():
    with pytest.raises(ValueError):
        Var("")


def test_free_vars_shared_dag():
    x = Var("x")
    shared = Add(x, x)
    assert free_vars(Mul(shared, Var("y"))) == {"x", "y"}


def test_height_examples():
    assert formula_height(Var("x")) == 0
    assert formula_height(parse("inv(x + inv(y))")) == 2
    assert formula_height(parse("x + y * x")) == 0


def test_height_of_deep_inversion_chain():
    # far deeper than the interpreter's recursion limit
    f = Var("x")
    for _ in range(10_000):
        f = Inv(f)
    assert formula_height(f) == 10_000


@pytest.mark.parametrize("n", range(1, 7))
def test_qdet_formula_height(n):
    f = qdet_formula(n)
    assert formula_height(f) == n - 1
    # one shared Var node per entry, however often the recursion uses it
    assert sum(isinstance(node, Var) for node in _postorder(f)) == n * n


@pytest.mark.parametrize("n", range(1, 6))
def test_qdet_formula_inverts_each_quasiminor_once(n):
    invs = [node for node in _postorder(qdet_formula(n)) if isinstance(node, Inv)]
    assert len({id(node.child) for node in invs}) == len(invs)


def live_inv_nodes():
    return sum(isinstance(obj, Inv) for obj in gc.get_objects())


def test_qdet_formula_nodes_die_with_the_formula():
    # with the cycle collector off, only reference counting frees nodes
    gc.collect()
    gc.disable()
    try:
        before = live_inv_nodes()
        f = qdet_formula(5)
        assert live_inv_nodes() > before
        del f
        assert live_inv_nodes() == before
    finally:
        gc.enable()


def test_inversion_height_check_memory_peak():
    config = RunConfig(only=["INVERSION-HEIGHT"])
    run_suite(config)  # imports and caches stay out of the traced run
    gc.collect()
    tracemalloc.start()
    try:
        (entry,) = run_suite(config)["identities"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entry["status"] == VERIFIED
    assert peak < 3_000_000


def test_formula_nodes_have_no_instance_dict():
    x = Var("x")
    for node in (Const(1), x, Neg(x), Add(x, x), Mul(x, x), Inv(x)):
        assert not hasattr(node, "__dict__")


def test_qdet_formula_evaluates_like_direct_arithmetic():
    f = qdet_formula(2)
    sigma = {
        "a_1_1": Fraction(1),
        "a_1_2": Fraction(2),
        "a_2_1": Fraction(3),
        "a_2_2": Fraction(4),
    }
    assert evaluate(f, sigma, Rationals()) == Fraction(-1, 2)


@pytest.mark.parametrize("n", range(1, 5))
def test_qdet_formula_evaluates_like_qdet_at_every_pivot(n, rng):
    labels = range(1, n + 1)
    for ring in (Rationals(), SquareMatrices(2)):
        while True:
            A = sample_matrix(ring, n, n, rng)
            sigma = {f"a_{i}_{j}": A.entry(i, j) for i in labels for j in labels}
            try:
                values = {
                    (p, q): evaluate(qdet_formula(n, p, q), sigma, ring)
                    for p in labels
                    for q in labels
                }
            except DomainError:
                continue
            break
        for (p, q), value in values.items():
            assert value == qdet(A, p, q, "recursive")
            assert value == qdet(A, p, q, "minor_inverse")


class TestParser:
    def test_whitespace_insensitive(self):
        a = parse("1+2*x")
        b = parse(" 1 +  2 \t* x ")
        sigma = {"x": Fraction(5)}
        Q = Rationals()
        assert evaluate(a, sigma, Q) == evaluate(b, sigma, Q)

    def test_inv_keyword(self):
        f = parse("inv(x) + invx")
        assert free_vars(f) == {"x", "invx"}

    def test_unary_minus_and_parens(self):
        f = parse("-(x - 3) * 2")
        assert evaluate(f, {"x": Fraction(1)}, Rationals()) == 4

    def test_errors(self):
        for text in ("", "1 +", "inv(x", "a $ b", ")("):
            with pytest.raises(ParseError):
                parse(text)

    def test_precedence(self):
        f = parse("1 + 2 * 3")
        assert evaluate(f, {}, Rationals()) == 7

    @pytest.mark.parametrize(
        "text",
        ["(" * 2000 + "1" + ")" * 2000, "-" * 5000 + "1", "inv(" * 1000 + "1" + ")" * 1000],
        ids=["parentheses", "unary-minus", "inv"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper than 200 levels"):
            parse(text)

    @pytest.mark.parametrize(
        "opening,closing", [("(", ")"), ("-", ""), ("inv(", ")")]
    )
    def test_nesting_up_to_the_limit_parses(self, opening, closing):
        # 200 levels parse and evaluate (to 1: an even count of minus
        # signs, and 1 is its own inverse); one more is refused
        assert evaluate(parse(opening * 200 + "1" + closing * 200), {}, Rationals()) == 1
        with pytest.raises(ParseError):
            parse(opening * 201 + "1" + closing * 201)


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        kind = draw(st.integers(0, 1))
        if kind == 0:
            return Const(Fraction(draw(st.integers(-5, 5))))
        return Var(draw(st.sampled_from(["x", "y"])))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return Const(Fraction(draw(st.integers(-5, 5))))
    if kind == 1:
        return Var(draw(st.sampled_from(["x", "y"])))
    if kind == 2:
        return Add(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if kind == 3:
        return Mul(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if kind == 4:
        return Neg(draw(formulas(depth=depth - 1)))
    return Inv(draw(formulas(depth=depth - 1)))


@given(f=formulas())
@settings(max_examples=60, deadline=None)
def test_to_text_parse_roundtrip_evaluates_equally(f):
    Q = Rationals()
    sigma = {"x": Fraction(3, 2), "y": Fraction(-5, 7)}
    reparsed = parse(to_text(f))
    try:
        expected = evaluate(f, sigma, Q)
    except DomainError:
        with pytest.raises(DomainError):
            evaluate(reparsed, sigma, Q)
        return
    assert evaluate(reparsed, sigma, Q) == expected


def height_reference(node):
    """Nested inversions by plain recursion, one visit per path."""
    if isinstance(node, Inv):
        return 1 + height_reference(node.child)
    if isinstance(node, Neg):
        return height_reference(node.child)
    if isinstance(node, (Add, Mul)):
        return max(height_reference(node.left), height_reference(node.right))
    return 0


@st.composite
def shared_formulas(draw):
    """A DAG whose leaves are parsed random formulas and whose every new
    node takes its children from the nodes made so far, so subterms are
    shared, down to both children of one node."""
    pool = [parse(to_text(draw(formulas()))) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from([Add, Mul, Neg, Inv]))
        pick = st.sampled_from(list(pool))
        pool.append(kind(draw(pick), draw(pick)) if kind in (Add, Mul) else kind(draw(pick)))
    return pool[-1]


@given(f=shared_formulas())
@settings(max_examples=100, deadline=None)
def test_height_matches_reference_walk(f):
    assert formula_height(f) == height_reference(f)


class TestEquivalence:
    def test_inverse_law_verified(self):
        v = equivalent(
            parse("x * inv(x)"),
            parse("1"),
            RunConfig(dims=[1, 2], samples=5, seed=3),
        )
        assert v.status == VERIFIED
        assert [c["d"] for c in v.cells] == [1, 2]
        assert all(c["succeeded"] == 5 for c in v.cells)

    def test_commutator_counterexample_at_dim_two(self):
        f, g = parse("x * y"), parse("y * x")
        v = equivalent(f, g, RunConfig(dims=[2], samples=20, seed=3))
        assert v.status == COUNTEREXAMPLE
        cx = v.counterexample
        assert cx["d"] == 2
        assert [rec["t"] for rec in cx["draws"]] == ["assignment"]
        replayed = replay_counterexample(cx, formula_identity(f, g))
        assert replayed["reproduced"] is True
        assert replayed["lhs"] == cx["lhs"]
        assert replayed["rhs"] == cx["rhs"]

    def test_commutative_dimension_cannot_distinguish(self):
        v = equivalent(
            parse("x * y"),
            parse("y * x"),
            RunConfig(dims=[1], samples=20, seed=3),
        )
        assert v.status == VERIFIED

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            equivalent(parse("x * y"), parse("y * x"), RunConfig(samples=0))

    def test_dims_filter_without_cells_is_not_verified(self):
        v = equivalent(parse("x * y"), parse("y * x"), RunConfig(dims=[7]))
        assert v.status == NO_CELLS
        assert v.attempted == 0

    def test_brute_force_small_entries_find_noncommuting_pair(self):
        # exhaustive oracle behind the counterexample above: some pair of
        # 2x2 integer matrices with entries in {0,1} already fails to commute
        M2 = SquareMatrices(2)
        found = False
        cells = list(itertools.product((0, 1), repeat=4))
        for a in cells:
            for b in cells:
                A = M2.deserialize([[str(a[0]), str(a[1])], [str(a[2]), str(a[3])]])
                B = M2.deserialize([[str(b[0]), str(b[1])], [str(b[2]), str(b[3])]])
                if A * B != B * A:
                    found = True
                    break
            if found:
                break
        assert found

    def test_degenerate_domain_exhausts(self):
        v = equivalent(
            Inv(Var("x") - Var("x")),
            parse("1"),
            RunConfig(dims=[1, 2], samples=2, seed=3),
        )
        assert v.status == DOMAIN_EXHAUSTED
        # an exhausted cell does not stop the cells after it; its first
        # slot spends the whole limit and the slots after it are not run
        assert [(c["d"], c["status"], c["attempted"]) for c in v.cells] == [
            (1, DOMAIN_EXHAUSTED, RESAMPLE_LIMIT),
            (2, DOMAIN_EXHAUSTED, RESAMPLE_LIMIT),
        ]

    def test_same_seed_same_verdict(self):
        cfg = RunConfig(dims=[1, 2], samples=6, seed=99)
        a = equivalent(parse("x + y"), parse("y + x"), cfg)
        b = equivalent(parse("x + y"), parse("y + x"), cfg)
        assert a.to_json() == b.to_json()
