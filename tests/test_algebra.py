import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tautring.algebra import (
    AlgebraError,
    InterpolationError,
    MultiPoly,
    finite_difference_extract,
    finite_difference_stencil,
    lagrange_interpolate,
    lagrange_weights,
)

V3 = ("a1", "a2", "a3")


def var(name, vs=V3):
    return MultiPoly.variable(vs, name)


def test_substitute_square_identity():
    a1, a2, a3 = (var(f"a{i}") for i in (1, 2, 3))
    result = (a3 * a3).substitute({"a3": -a1 - a2})
    assert result == a1 * a1 + 2 * a1 * a2 + a2 * a2


def test_substitute_all_zero_kills_subset_squares():
    a1, a2, a3 = (var(f"a{i}") for i in (1, 2, 3))
    theta_like = (a1 + a2) ** 2 + (a2 + a3) ** 2
    assert theta_like.substitute({"a1": 0, "a2": 0, "a3": 0}) == 0


def test_substitute_quartic_point_value():
    # brute-force oracle: sum(a^2 (2 - a) for a = 1..2) = 1
    x = MultiPoly.variable(("x",), "x")
    p = x ** 4 * Fraction(1, 12) - x * x * Fraction(1, 12)
    assert p.substitute({"x": 2}) == Fraction(1)
    assert sum(a * a * (2 - a) for a in range(1, 3)) == 1


def test_substitute_unknown_variable_rejected():
    with pytest.raises(AlgebraError):
        var("a1").substitute({"b": 1})


def test_substitute_is_multiplicative_at_points():
    rng = random.Random(7)
    for _ in range(25):
        p = _random_poly(rng)
        q = _random_poly(rng)
        binding = {"a2": rng.randint(-4, 4)}
        lhs = (p * q).substitute(binding)
        rhs = p.substitute(binding) * q.substitute(binding)
        assert lhs == rhs


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in V3)
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MultiPoly(V3, terms)


def test_interpolate_constant():
    c = Fraction(5, 7)
    poly = lagrange_interpolate([(1, c), (2, c), (3, c)], 2)
    assert poly == MultiPoly.constant(("r",), c)


def test_interpolate_square():
    samples = [(r, Fraction(r * r)) for r in range(3)]
    poly = lagrange_interpolate(samples, 2)
    assert poly == MultiPoly.variable(("r",), "r") ** 2


def test_interpolate_loop_weight_sum():
    # direct summation oracle at each sample modulus
    def oracle(r):
        return Fraction(sum(Fraction(w * (r - w), 2) for w in range(r)), r)

    samples = [(r, oracle(r)) for r in (5, 7, 9)]
    poly = lagrange_interpolate(samples, 2)
    r = MultiPoly.variable(("r",), "r")
    assert poly == (r * r - 1) * Fraction(1, 12)


def test_interpolate_reproduces_samples():
    samples = [(r, Fraction(r ** 3 - 2 * r, 3)) for r in (0, 1, 4, 9, 11)]
    poly = lagrange_interpolate(samples, 3)
    for r, value in samples:
        assert poly.evaluate({"r": Fraction(r)}) == value


def test_interpolate_errors():
    with pytest.raises(AlgebraError):
        lagrange_interpolate([(1, 1), (1, 2)], 1)
    with pytest.raises(AlgebraError):
        lagrange_interpolate([(1, 1)], 1)
    with pytest.raises(InterpolationError):
        lagrange_interpolate([(0, 0), (1, 1), (2, 4), (3, 100)], 2)
    with pytest.raises(AlgebraError):
        lagrange_weights([1, 2, 1], 0)


_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(lambda b: st.tuples(
    st.lists(_fractions, min_size=b + 1, max_size=b + 1),
    st.lists(st.integers(min_value=-30, max_value=60), min_size=b + 1,
             max_size=b + 1, unique=True),
    _fractions)))
def test_lagrange_weights_evaluate_the_interpolant(case):
    coeffs, points, at = case

    def p(x):
        return sum(c * Fraction(x) ** k for k, c in enumerate(coeffs))

    samples = [(x, p(x)) for x in points]
    weights = lagrange_weights(points, at)
    value = sum(w * y for w, (_, y) in zip(weights, samples))
    bound = len(points) - 1
    assert value == lagrange_interpolate(samples, bound).evaluate({"r": at})
    assert value == p(at)


def test_finite_difference_footnote_example():
    a, b, c = Fraction(3), Fraction(-7, 2), Fraction(11)

    def f(pt):
        x, y = pt
        return a * x * x + b * x * y + c * y * y

    assert finite_difference_extract(f, (1, 1), 2) == b


def test_finite_difference_zero_function():
    assert finite_difference_extract(lambda pt: Fraction(0), (2, 2), 4) == 0


def test_finite_difference_square_of_sum():
    def f(pt):
        return Fraction((pt[0] + pt[1]) ** 2)

    assert finite_difference_extract(f, (1, 1), 2) == 2


def test_finite_difference_below_top_degree():
    # one forward difference recovers only a top-degree coefficient; a lower
    # monomial is refused rather than answered wrongly, and so is a bool,
    # float or str exponent, which int() would read as a top-degree one
    def f(pt):
        x, y = pt
        return Fraction(2 * x ** 3 + 5 * x * y + x * x + 7)

    for exps in ((1, 1), (1, 0), (0, 0), (2.7, 1), (3.0, 0), (True, 2), ("3", 0)):
        with pytest.raises(AlgebraError):
            finite_difference_extract(f, exps, 3)
        with pytest.raises(AlgebraError):
            finite_difference_stencil(exps, 3)
    # so is a float or bool total degree, which equals the exponents' sum
    for exps, degree in (((1, 1), 2.0), ((1, 0), True)):
        with pytest.raises(AlgebraError):
            finite_difference_stencil(exps, degree)
    assert finite_difference_extract(f, (3, 0), 3) == 2


def test_finite_difference_matches_stored_polynomials():
    rng = random.Random(12)
    names = tuple(f"a{i}" for i in range(1, 6))
    for _ in range(8):
        terms = {tuple(rng.randint(0, 2) for _ in names): Fraction(rng.randint(-6, 6))
                 for _ in range(5)}
        # lower-degree terms that the top-degree differences must cancel
        terms.setdefault((0, 0, 0, 0, 0), Fraction(7))
        terms.setdefault((1, 0, 0, 0, 0), Fraction(-3))
        poly = MultiPoly(names, terms)
        degree = poly.total_degree()

        def f(pt):
            return poly.evaluate(dict(zip(names, map(Fraction, pt))))

        top = [e for e in poly.terms if sum(e) == degree]
        assert top
        power = (degree,) + (0,) * (len(names) - 1)
        for exps in top + [power]:
            assert finite_difference_extract(f, exps, degree) == \
                poly.coefficient(exps)
        with pytest.raises(AlgebraError):
            finite_difference_extract(f, (1, 0, 0, 0, 0), degree)
