import random
from fractions import Fraction

import pytest

from qmn.qsym import QsymExpr, equals, first_difference, psi_to_monomial, psihat_to_psi
from tests.reference import (
    compositions_of,
    evaluate,
    is_canonical_coefficient,
    power_sum_symmetric,
    psi_to_psihat,
)


def M(*terms):
    return QsymExpr("M", dict(terms))


def test_psi_to_monomial_examples():
    assert psi_to_monomial(QsymExpr("Psi", {(2,): 1})) == M(((2,), 1))
    assert psi_to_monomial(QsymExpr("Psi", {(1, 1): 1})) == M(((1, 1), 2), ((2,), 1))
    assert psi_to_monomial(QsymExpr("PsiHat", {(1, 1): 1})) == M(
        ((1, 1), 1), ((2,), Fraction(1, 2))
    )


def test_psihat_leading_coefficient():
    for n in range(1, 9):
        for alpha in compositions_of(n):
            conv = psi_to_monomial(QsymExpr("PsiHat", {alpha: 1}))
            prod = 1
            for a in alpha:
                prod *= a
            assert conv.coefficient(alpha) == Fraction(1, prod)
        assert psi_to_monomial(QsymExpr("PsiHat", {(n,): 1})).coefficient((n,)) == Fraction(1, n)


def test_psi_to_monomial_is_linear():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 8)
        comps = compositions_of(n)
        a = QsymExpr("Psi", {rng.choice(comps): Fraction(rng.randint(-5, 5)) for _ in range(3)})
        b = QsymExpr("Psi", {rng.choice(comps): Fraction(rng.randint(-5, 5)) for _ in range(3)})
        assert psi_to_monomial(a + b) == psi_to_monomial(a) + psi_to_monomial(b)


def test_power_sum_symmetric():
    assert power_sum_symmetric((2,)) == QsymExpr("Psi", {(2,): 1})
    assert power_sum_symmetric((2, 1)) == QsymExpr("Psi", {(2, 1): 1, (1, 2): 1})


def test_p11_equals_square_of_p1():
    # p_(1,1) = (M_(1))^2, checked pointwise
    p11 = power_sum_symmetric((1, 1))
    assert psi_to_monomial(p11) == M(((1, 1), 2), ((2,), 1))
    rng = random.Random(3)
    for _ in range(10):
        point = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)]
        m1 = evaluate(M(((1,), 1)), point)
        assert evaluate(p11, point) == m1 * m1


def test_evaluate_examples():
    assert evaluate(M(((2,), 1)), [1, 1]) == 2
    assert evaluate(M(((1, 1), 1)), [1, 1]) == 1
    assert evaluate(QsymExpr("Psi", {(2, 1): 1}), [0, 0, 0]) == 0


def test_equals():
    psi11 = QsymExpr("Psi", {(1, 1): 1})
    assert equals(psi11, psi_to_monomial(psi11))
    assert not equals(M(((2,), 1)), M(((1, 1), 1)))


def test_equal_exprs_agree_at_random_points():
    rng = random.Random(11)
    p21 = power_sum_symmetric((2, 1))
    conv = psi_to_monomial(p21)
    deg = conv.degree
    for _ in range(20):
        m = rng.choice([deg, deg + 1])
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        assert evaluate(p21, point) == evaluate(conv, point)


def test_basis_conversion_roundtrip():
    expr = QsymExpr("PsiHat", {(1, 2): Fraction(3), (2, 1): Fraction(-1, 2)})
    assert psi_to_psihat(psihat_to_psi(expr)) == expr


def test_zero_coefficients_dropped():
    expr = QsymExpr("M", {(2,): 0, (1, 1): 1})
    assert (2,) not in expr.terms


def test_degree_of_inhomogeneous_raises():
    with pytest.raises(ValueError):
        QsymExpr("M", {(1,): 1, (2,): 1}).degree


def test_json_form():
    expr = QsymExpr("M", {(1, 5, 2): Fraction(-3)})
    assert expr.to_json_dict() == {
        "basis": "M",
        "terms": [{"alpha": "1,5,2", "coeff": "-3/1"}],
    }


def test_terms_are_held_once():
    expr = M(((1, 1), 2), ((2,), 1))
    expr.terms[(2,)] = Fraction(5)
    assert expr == QsymExpr("M", dict(expr.terms))
    assert expr.items() == (((1, 1), Fraction(2)), ((2,), Fraction(5)))
    a = M(((1, 2), 1), ((2, 1), 3), ((3,), -1))
    b = M(((3,), -1), ((2, 1), 3), ((1, 2), 1))
    assert a == b and hash(a) == hash(b)
    assert a != QsymExpr("Psi", a.terms)


def _checked(basis, terms):
    return QsymExpr(basis, terms).terms


def test_sums_differences_and_multiples_match_the_checked_constructor():
    """Arithmetic builds its result without re-checking the keys; the terms
    equal what the checked constructor makes of the same raw sums."""
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        comps = compositions_of(n)

        def draw():
            terms = {rng.choice(comps): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 5))}
            return QsymExpr(rng.choice(("M", "PsiHat")), terms)

        a = draw()
        b = QsymExpr(a.basis, {**draw().terms, **dict(list(a.terms.items())[:2])})
        keys = set(a.terms) | set(b.terms)
        for got, raw in (
            (a + b, {k: a.coefficient(k) + b.coefficient(k) for k in keys}),
            (a - b, {k: a.coefficient(k) - b.coefficient(k) for k in keys}),
        ):
            assert got.basis == a.basis and got.terms == _checked(a.basis, raw)
            assert all(map(is_canonical_coefficient, got.terms.values()))
        for factor in (0, 2, Fraction(-1, 3), Fraction(3)):
            raw = {k: c * factor for k, c in a.terms.items()}
            got = a.scaled(factor).terms
            assert got == _checked(a.basis, raw)
            assert all(map(is_canonical_coefficient, got.values()))
    with pytest.raises(ValueError):
        M(((1,), 1)) - QsymExpr("Psi", {(1,): 1})


def test_an_expression_minus_itself_keeps_no_zero_term():
    a = M(((1, 2), 1), ((2, 1), Fraction(-3, 2)), ((3,), 4))
    assert (a - a).terms == {} and a - a == QsymExpr("M", {})
    assert (a + a.scaled(-1)).terms == {} and a.scaled(0).terms == {}
    b = M(((1, 2), 1), ((3,), 1))
    assert (a - b).terms == {(2, 1): Fraction(-3, 2), (3,): Fraction(3)}


def test_first_difference_is_at_the_least_differing_composition():
    a = M(((1, 2), 1), ((2, 1), 3), ((3,), -1))
    assert first_difference(a, QsymExpr("M", dict(a.terms))) is None
    b = M(((1, 2), 1), ((2, 1), 4), ((1, 1, 1), 2))
    assert first_difference(a, b) == ((1, 1, 1), 0, 2)
    assert first_difference(b, a) == ((1, 1, 1), 2, 0)
    c = M(((1, 2), 1), ((2, 1), 4), ((3,), -1))
    assert first_difference(a, c) == ((2, 1), 3, 4)
    assert all(type(x) is int for x in first_difference(a, b)[1:])
    half = M(((1, 1, 1), Fraction(1, 2)))
    assert first_difference(half, b) == ((1, 1, 1), Fraction(1, 2), 2)


def test_coefficients_are_ints_when_whole_and_never_floats():
    """The checked constructor stores a whole coefficient as an int, keeps a
    Fraction only when its denominator is above 1, reads a string exactly,
    and refuses a float, as does `scaled`."""
    expr = QsymExpr("PsiHat", {(1, 2): Fraction(6, 3), (2, 1): Fraction(1, 2), (3,): "3/4"})
    assert expr.terms == {(1, 2): 2, (2, 1): Fraction(1, 2), (3,): Fraction(3, 4)}
    assert all(map(is_canonical_coefficient, expr.terms.values()))
    assert expr.coefficient((1, 1, 1)) == 0 and type(expr.coefficient((1, 1, 1))) is int
    with pytest.raises(ValueError, match="float"):
        QsymExpr("M", {(1,): 0.5})
    with pytest.raises(ValueError, match="float"):
        expr.scaled(0.5)
    psi = psihat_to_psi(QsymExpr("PsiHat", {(2, 2): 3, (1,): 5}))
    assert psi.terms == {(2, 2): Fraction(3, 8), (1,): 5}
    assert all(map(is_canonical_coefficient, psi.terms.values()))
