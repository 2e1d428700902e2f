import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirep import fock, schwinger
from fermirep.cli.expr import (
    Add,
    Adjoint,
    ExprError,
    ImagUnit,
    Ladder,
    ModeNumber,
    Mul,
    Neg,
    Number,
    Sub,
    TotalNumber,
    evaluate,
    parse_expression,
    to_source,
)


def test_parse_simple_atoms():
    assert parse_expression("a(2)") == Ladder(2, dagger=False)
    assert parse_expression("adag(1)") == Ladder(1, dagger=True)
    assert parse_expression("N") == TotalNumber()
    assert parse_expression("N(3)") == ModeNumber(3)
    assert parse_expression("i") == ImagUnit()
    assert parse_expression("2.5") == Number(2.5)


def test_parse_precedence():
    tree = parse_expression("1 - 2*N(2)")
    assert tree == Sub(Number(1.0), Mul(Number(2.0), ModeNumber(2)))
    tree = parse_expression("a(1) + a(2) * a(3)")
    assert isinstance(tree, Add) and isinstance(tree.right, Mul)


def test_parse_unary_and_postfix():
    assert parse_expression("-a(1)") == Neg(Ladder(1, dagger=False))
    assert parse_expression("a(1)''") == Adjoint(Adjoint(Ladder(1, dagger=False)))
    assert parse_expression("(-a(1))'") == Adjoint(Neg(Ladder(1, dagger=False)))


def test_parse_left_associativity():
    tree = parse_expression("a(1) - a(2) - a(3)")
    assert tree == Sub(
        Sub(Ladder(1, False), Ladder(2, False)), Ladder(3, False)
    )


def test_parse_error_positions():
    with pytest.raises(ExprError) as err:
        parse_expression("adag(1)) + a(2)")
    assert err.value.pos == 7
    with pytest.raises(ExprError) as err:
        parse_expression("a(1) + $")
    assert err.value.pos == 7
    with pytest.raises(ExprError) as err:
        parse_expression("foo(1)")
    assert err.value.pos == 0
    with pytest.raises(ExprError):
        parse_expression("a(0)")
    with pytest.raises(ExprError):
        parse_expression("a(1")
    with pytest.raises(ExprError):
        parse_expression("")


def test_error_annotation_points_at_offence():
    source = "adag(1)) + a(2)"
    with pytest.raises(ExprError) as err:
        parse_expression(source)
    annotated = err.value.annotate(source)
    lines = annotated.splitlines()
    assert lines[1].endswith(source)
    assert lines[2].index("^") == 2 + err.value.pos


def test_long_flat_chains_evaluate_and_print_without_recursion():
    # the parser builds each chain as a left-deep tree 2,000 to 5,000 nodes tall
    source = " + ".join(["1"] * 5000)
    tree = parse_expression(source)
    assert evaluate(tree, 2).diff_max(5000 * fock.FockOperator.identity(2)) == 0.0
    assert to_source(tree) == source
    number = fock.number_operator(1, 1)
    assert evaluate(parse_expression("*".join(["N"] * 2000)), 1).diff_max(number) == 0.0
    adjoints = "a(1)" + "'" * 2000
    assert evaluate(parse_expression(adjoints), 1).diff_max(fock.annihilation(1, 1)) == 0.0
    assert to_source(parse_expression(adjoints)) == adjoints


def test_nesting_past_the_bound_is_refused_at_the_opening_token():
    assert evaluate(parse_expression("(" * 100 + "1" + ")" * 100), 1).diff_max(
        fock.FockOperator.identity(1)
    ) == 0.0
    for source in ("(" * 101 + "1" + ")" * 101, "-" * 101 + "1", "-(" * 51 + "1" + ")" * 51):
        with pytest.raises(ExprError, match="nesting deeper than 100") as err:
            parse_expression(source)
        assert err.value.pos == 100


def test_eval_bilinear():
    op = evaluate(parse_expression("adag(1)*a(2) + adag(2)*a(1)"), 2)
    expected = (
        fock.creation(2, 1) @ fock.annihilation(2, 2)
        + fock.creation(2, 2) @ fock.annihilation(2, 1)
    )
    assert op.diff_max(expected) == 0.0


def test_eval_imaginary_coefficient():
    op = evaluate(parse_expression("-i*adag(1)*a(2) + i*adag(2)*a(1)"), 2)
    expected = (
        -1j * (fock.creation(2, 1) @ fock.annihilation(2, 2))
        + 1j * (fock.creation(2, 2) @ fock.annihilation(2, 1))
    )
    assert op.diff_max(expected) == 0.0


def test_eval_scalar_promotion():
    op = evaluate(parse_expression("1 - 2*N(2)"), 3)
    expected = fock.FockOperator.identity(3) - 2 * fock.number_operator(3, 2)
    assert op.diff_max(expected) == 0.0


def test_eval_pure_scalar_becomes_identity_multiple():
    op = evaluate(parse_expression("2 + 3"), 2)
    assert op.diff_max(5 * fock.FockOperator.identity(2)) == 0.0


def test_eval_total_number():
    op = evaluate(parse_expression("N"), 3)
    assert op.diff_max(fock.total_number(3)) == 0.0


def test_eval_dagger():
    op = evaluate(parse_expression("a(1)'"), 2)
    assert op.diff_max(fock.creation(2, 1)) == 0.0
    op = evaluate(parse_expression("(a(1)*a(2))'"), 2)
    expected = (fock.annihilation(2, 1) @ fock.annihilation(2, 2)).dagger()
    assert op.diff_max(expected) == 0.0
    op = evaluate(parse_expression("i'"), 1)
    assert op.diff_max(-1j * fock.FockOperator.identity(1)) == 0.0


def test_eval_higher_order_expression():
    op = evaluate(
        parse_expression("(adag(1)*a(3) + adag(3)*a(1)) * (1 - 2*N(2))"), 3
    )
    b13 = fock.creation(3, 1) @ fock.annihilation(3, 3)
    b31 = fock.creation(3, 3) @ fock.annihilation(3, 1)
    factor = fock.FockOperator.identity(3) - 2 * fock.number_operator(3, 2)
    assert op.diff_max((b13 + b31) @ factor) == 0.0


def test_eval_index_out_of_range():
    with pytest.raises(ValueError):
        evaluate(parse_expression("a(5)"), 3)
    with pytest.raises(ValueError):
        evaluate(parse_expression("N(4)"), 3)


def test_non_finite_literal_is_refused_at_its_position():
    for source, pos in [("1e999*N(1)", 0), ("0*1e999*N(1)", 2), ("N(1) + 2E400", 7)]:
        with pytest.raises(ExprError) as err:
            parse_expression(source)
        assert err.value.pos == pos
        assert "is not finite" in err.value.message


def test_non_finite_operator_is_refused_without_a_warning():
    # pytest turns RuntimeWarning into an error, so none may be emitted
    for source in ["1e308*1e308*N(1)", "1e308*N(1)*10", "i*1e308*1e308", "1e308*1e308"]:
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(parse_expression(source), 2)
    assert evaluate(parse_expression("1e308*N(1)"), 2).max_abs() == 1e308


def _random_tree(rng, depth):
    if depth == 0:
        return rng.choice(
            [
                Number(float(rng.randint(0, 9))),
                Number(2.5),
                ImagUnit(),
                Ladder(rng.randint(1, 3), dagger=bool(rng.getrandbits(1))),
                ModeNumber(rng.randint(1, 3)),
                TotalNumber(),
            ]
        )
    kind = rng.randint(0, 4)
    if kind == 0:
        return Neg(_random_tree(rng, depth - 1))
    if kind == 1:
        return Adjoint(_random_tree(rng, depth - 1))
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, rng.randint(0, depth - 1))
    return [Add, Sub, Mul][kind - 2](left, right)


def test_roundtrip_random_trees():
    rng = random.Random(20240817)
    for _ in range(300):
        tree = _random_tree(rng, rng.randint(0, 4))
        source = to_source(tree)
        assert parse_expression(source) == tree, source


def test_roundtrip_preserves_value():
    rng = random.Random(99)
    for _ in range(40):
        tree = _random_tree(rng, 3)
        source = to_source(tree)
        a = evaluate(tree, 3)
        b = evaluate(parse_expression(source), 3)
        assert a.diff_max(b) == 0.0


# small dyadic values: every sum of a few of them is exact in any order
_DYADIC = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def _coefficient_matrix(draw):
    n = draw(st.integers(1, 5))
    re = draw(st.lists(_DYADIC, min_size=n * n, max_size=n * n))
    im = draw(st.lists(_DYADIC, min_size=n * n, max_size=n * n))
    return n, (np.array(re) + 1j * np.array(im)).reshape(n, n)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=_coefficient_matrix())
def test_eval_bilinear_sum_equals_standard_rep(case):
    n, c = case
    terms = [
        f"({float(c[a, b].real)!r} + {float(c[a, b].imag)!r}*i)*adag({a + 1})*a({b + 1})"
        for a in range(n) for b in range(n) if c[a, b] != 0
    ]
    op = evaluate(parse_expression(" + ".join(terms) or "0"), n)
    assert op.diff_max(schwinger.standard_rep([c], n)[0]) == 0.0


@st.composite
def _selective_sector(draw):
    n = draw(st.integers(2, 6))
    return n, draw(st.integers(1, n - 1))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(case=_selective_sector())
def test_eval_selective_polynomial_equals_number_operator_factor(case):
    # the grammar has no division, so the rational coefficients enter as floats
    n, m = case
    p = schwinger.selective_function(n, m)
    terms = [
        "*".join([f"({float(c)!r})"] + ["N"] * power)
        for power, c in enumerate(p.coeffs) if c != 0
    ]
    op = evaluate(parse_expression(" + ".join(terms)), n)
    assert op.diff_max(schwinger.eval_at_number_operator(p, n)) <= 1e-9
    counts = [bin(mask).count("1") for mask in fock.build_basis(n).tolist()]
    diagonal = np.rint(op.to_dense().diagonal().real)
    # 1 on sector m, 0 on the other sectors the polynomial selects among, and its
    # exact values, which are integers, on the end sectors 0 and n
    expected = [int(k == m) if 0 < k < n else p.evaluate(k) for k in counts]
    assert diagonal.tolist() == expected
