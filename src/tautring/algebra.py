"""Exact rational algebra for the tautological-ring engine.

Sparse multivariate polynomials over Fraction, exact Lagrange interpolation
and the extraction of a top-degree coefficient by one iterated forward
difference, whose stencil of points and weights is exposed so that callers
can take the difference on whatever scalars their values are made of.  No
floating-point number is ever produced: every coefficient in the system is
a Fraction, so equality tests are exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence


class AlgebraError(ValueError):
    """Invalid algebraic input (unknown variable, malformed sample set)."""


class InterpolationError(AlgebraError):
    """Sample values are inconsistent with the declared degree bound."""


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise AlgebraError(f"expected an exact rational, got {value!r}")


class MultiPoly:
    """Sparse polynomial in a fixed, ordered tuple of variables.

    Terms are stored as a map from exponent tuples to nonzero Fraction
    coefficients.  Two polynomials interoperate only if they share the same
    variable tuple; plain integers and Fractions coerce to constants.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction] | None = None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            width = len(self.variables)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != width:
                    raise AlgebraError("exponent tuple length does not match variable list")
                coeff = _coerce(coeff)
                if coeff != 0:
                    clean[exps] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "MultiPoly":
        variables = tuple(variables)
        value = _coerce(value)
        if value == 0:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise AlgebraError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def _check(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise AlgebraError("polynomials use different variable lists")

    def _lift(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        return MultiPoly.constant(self.variables, other)

    def __add__(self, other):
        other = self._lift(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise AlgebraError("negative powers are not polynomials")
        out = MultiPoly.constant(self.variables, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * len(self.variables): other}
        return NotImplemented

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise AlgebraError(f"no value supplied for {missing}")
        total = Fraction(0)
        point = [_coerce(values[v]) for v in self.variables]
        for exps, coeff in self.terms.items():
            term = coeff
            for base, e in zip(point, exps):
                if e:
                    term *= base ** e
            total += term
        return total

    def substitute(self, bindings: Mapping[str, "MultiPoly | int | Fraction"]) -> "MultiPoly":
        """Exact substitution; unbound variables remain symbolic."""
        for name in bindings:
            if name not in self.variables:
                raise AlgebraError(f"unknown variable {name!r}")
        idx = {name: self.variables.index(name) for name in bindings}
        values = {name: self._lift(val) for name, val in bindings.items()}
        result = MultiPoly(self.variables)
        for exps, coeff in self.terms.items():
            residual = list(exps)
            factor = MultiPoly.constant(self.variables, coeff)
            for name, i in idx.items():
                if exps[i]:
                    factor = factor * values[name] ** exps[i]
                    residual[i] = 0
            factor = factor * MultiPoly(self.variables, {tuple(residual): Fraction(1)})
            result = result + factor
        return result

    def to_text(self) -> str:
        """Canonical text form: terms sorted lexicographically by exponents."""
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            bits = [str(coeff)]
            for name, e in zip(self.variables, exps):
                if e == 1:
                    bits.append(name)
                elif e > 1:
                    bits.append(f"{name}^{e}")
            pieces.append("*".join(bits))
        return " + ".join(pieces)

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"


def lagrange_interpolate(samples: Sequence[tuple], degree_bound: int) -> MultiPoly:
    """Unique polynomial in r of degree <= degree_bound through the samples.

    Extra samples beyond degree_bound + 1 are used as a consistency check; a
    mismatch raises InterpolationError (the caller's degree bound was wrong).
    """
    points = [p for p, _ in samples]
    if len(set(points)) != len(points):
        raise AlgebraError("duplicated sample points")
    if len(samples) < degree_bound + 1:
        raise AlgebraError("not enough samples for the requested degree bound")
    vars_ = ("r",)
    base = samples[: degree_bound + 1]
    result = MultiPoly(vars_)
    x = MultiPoly.variable(vars_, "r")
    for i, (xi, yi) in enumerate(base):
        term = MultiPoly.constant(vars_, _coerce(yi))
        for j, (xj, _) in enumerate(base):
            if i == j:
                continue
            term = term * (x - Fraction(xj)) * Fraction(1, xi - xj)
        result = result + term
    for xi, yi in samples[degree_bound + 1:]:
        if result.evaluate({"r": Fraction(xi)}) != _coerce(yi):
            raise InterpolationError(
                f"sample at {xi} disagrees with degree-{degree_bound} interpolant")
    return result


def lagrange_weights(points: Sequence[int], at) -> list:
    """Weights w with sum(w[i] * y[i]) equal to the value at `at` of the
    unique polynomial of degree < len(points) through (points[i], y[i]).

    They depend only on the points, so one set serves every sample vector.
    """
    if len(set(points)) != len(points):
        raise AlgebraError("duplicated sample points")
    at = _coerce(at)
    weights = []
    for i, xi in enumerate(points):
        w = Fraction(1)
        for j, xj in enumerate(points):
            if i != j:
                w *= (at - xj) / (xi - xj)
        weights.append(w)
    return weights


def bounded_tuples(length: int, bound: int):
    """Every tuple of `length` non-negative integers with sum <= bound, in
    lexicographic order."""
    if length == 0:
        yield ()
        return
    for head in range(bound + 1):
        for rest in bounded_tuples(length - 1, bound - head):
            yield (head,) + rest


def finite_difference_stencil(monomial: Sequence[int], total_degree: int) -> list:
    """The points and weights of Delta^m f(0) / m!, the exact coefficient of
    a top-degree monomial m in a polynomial f of total degree at most
    total_degree: every other monomial of degree at most total_degree is
    annihilated by Delta^m.  A list of (offsets, weight), one per point of
    the box prod_i [0, m_i].  A bool or float exponent or total degree is an
    AlgebraError, not the int it truncates or compares equal to."""
    monomial = tuple(monomial)
    if any(type(m) is not int or m < 0 for m in monomial):
        raise AlgebraError(f"monomial exponents {monomial} must be non-negative ints")
    if type(total_degree) is not int:
        raise AlgebraError(f"total degree {total_degree!r} must be an int")
    if sum(monomial) != total_degree:
        raise AlgebraError("only a monomial of the declared total degree can be "
                           "extracted by a single forward difference")
    norm = math.prod(math.factorial(m) for m in monomial)
    stencil = []
    for offsets in itertools.product(*[range(m + 1) for m in monomial]):
        weight = Fraction((-1) ** (total_degree - sum(offsets)), norm)
        for m, j in zip(monomial, offsets):
            weight *= math.comb(m, j)
        stencil.append((offsets, weight))
    return stencil


def finite_difference_extract(f: Callable[[tuple], object], monomial: Sequence[int],
                              total_degree: int):
    """Exact coefficient of a top-degree monomial in a black-box polynomial f:
    the weighted sum of f over finite_difference_stencil(monomial,
    total_degree).  f maps integer tuples to values in any Q-vector space
    (Fraction, MultiPoly or TautClass); it is assumed to be a polynomial of
    total degree at most total_degree."""
    acc = None
    for offsets, weight in finite_difference_stencil(monomial, total_degree):
        piece = f(offsets) * weight
        acc = piece if acc is None else acc + piece
    return acc
