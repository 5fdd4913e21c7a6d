"""Pixton's double ramification cycle class.

For a ramification vector A summing to zero, the class on the moduli of
stable curves is assembled as a sum over stable graphs together with
weightings modulo r of the half-edges: each leg carries exp(a_i^2 psi_i / 2),
each edge the series (1 - exp(-w(h) w(h') (psi' + psi'') / 2)) / (psi' + psi'').
The resulting stratum coefficients are polynomials in r for large r; the
class itself is the constant term, recovered here by exact interpolation over
two disjoint sample sets that must agree.

A weighting modulo r is fixed by its residues on the h1 edges off a spanning
tree; each tree edge carries the leg charge on one side of it plus a signed
sum of them.  That affine map (weighting_map) is built and checked once per
graph and serves every modulus.

Only the weightings depend on r.  Expanding each edge series to order j_e,
a graph contributes, for each vector j of edge orders, the scalar

    S_j(r) = sum over weightings w of prod_e u_e^(j_e + 1) / r^h1,
    u_e = w(h) w(h') / 2,

times an r-independent combination of strata: the leg series, the binomial
splits of (psi' + psi'')^j_e and (-1)^j_e / (j_e + 1)! (the graph's layout).
So each graph's layout is built once, and only the scalars are sampled.
Janda-Pandharipande-Pixton-Zvonkine ("Double ramification cycles on the
moduli spaces of curves", Publ. IHES 2017) prove that each S_j, for fixed
graph and j, is a polynomial in r for large r.

In degree <= d every S_j has degree <= 2d in r: u_e is quadratic in (w, r),
the orders satisfy sum(j_e + 1) <= d, and summing over the r^h1 weightings
raises the degree by h1, which the factor 1 / r^h1 takes back.  Each window
holds 2d + 1 moduli.  For every scalar, the interpolant through the first
window must reproduce each sample of the second, which proves it right for
any true degree up to 4d + 1; otherwise the bound is enlarged and the
sampling retried.  Every stratum coefficient of the class is an
r-independent linear combination of the scalars, so agreement of all scalars
implies agreement of the classes: the check is at least as strict as
comparing the interpolated classes.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .algebra import InterpolationError, bounded_tuples, lagrange_weights
from .graphs import StableGraph, enumerate_stable_graphs, automorphism_count, \
    union_find
from .strata import TautClass, canonical_term


class WeightingSystemError(RuntimeError):
    """Internal defect: the weighting system on a graph was inconsistent."""


def validate_ramification(A) -> tuple:
    A = tuple(int(a) for a in A)
    if sum(A) != 0:
        raise ValueError(f"ramification vector {A} does not sum to zero")
    return A


def weighting_map(graph: StableGraph, A) -> tuple:
    """The weightings modulo r of the graph, for every r, as one affine map
    (h1, rows): free residues x_0..x_{h1-1} sit on the edges off a spanning
    tree, and edge e carries w(e, 0) = (c_e + sum s x_k) mod r, with
    rows[e] = (c_e, ((k, s), ...)).  A tree edge's row sums the vertex
    conditions over the component of (tree - e) at its side-0 end: c_e is
    minus the leg charge there, and the signs s do not depend on A.  The map
    is checked once to satisfy every vertex condition identically in the x."""
    A = validate_ramification(A)
    if len(A) != graph.n_legs:
        raise ValueError("ramification vector length differs from leg count")
    nv = graph.n_vertices
    _, tree = union_find(nv, graph.edges)
    free = [e for e in range(graph.n_edges) if e not in tree]
    # per vertex, [constant, coefficient of each x] of its legs and free
    # half-edges, w(e, 0) = x_k and w(e, 1) = -x_k
    forms = [[0] * (len(free) + 1) for _ in range(nv)]
    for a, v in zip(A, graph.legs):
        forms[v][0] += a
    rows = [None] * graph.n_edges
    for k, e in enumerate(free):
        a, b = graph.edges[e]
        forms[a][k + 1] += 1
        forms[b][k + 1] -= 1
        rows[e] = (0, ((k, 1),))
    # a tree edge, once added, cancels in every later component sum: the
    # component of (tree - e') holds both its ends
    for e in tree:
        a, b = graph.edges[e]
        find, _ = union_find(nv, [graph.edges[t] for t in tree if t != e])
        row = [-sum(column) for column in
               zip(*[forms[v] for v in range(nv) if find(v) == find(a)])]
        rows[e] = (row[0], tuple((k, s) for k, s in enumerate(row[1:]) if s))
        for i, s in enumerate(row):
            forms[a][i] += s
            forms[b][i] -= s
    if any(map(any, forms)):
        raise WeightingSystemError("vertex condition violated")
    return len(free), tuple(rows)


def enumerate_weightings(wmap, r: int):
    """All r**h1 weightings modulo r of a weighting_map, as the tuples of
    residues w(e, 0) on the edges' side 0."""
    if r < 1:
        raise ValueError("modulus must be >= 1")
    h1, rows = wmap
    for x in itertools.product(range(r), repeat=h1):
        yield tuple((c + sum(s * x[k] for k, s in terms)) % r for c, terms in rows)


def _graph_layout(graph: StableGraph, A, max_degree: int, orders) -> dict:
    """The r-independent part of a graph's terms: for each vector j of edge
    series orders in orders, the list of (canonical stratum, coefficient)
    that S_j(r) multiplies.  The coefficients fold in the leg series
    exp(a_i^2 psi_i / 2), the binomial splits of (psi' + psi'')^j_e and
    (-1)^j_e / (j_e + 1)!."""
    budget = max_degree - graph.n_edges
    leg_series = [[Fraction(a * a, 2) ** k / math.factorial(k)
                   for k in range(budget + 1)] for a in A]
    layout = {}
    for js in orders:
        edge_coeff = Fraction(1)
        for j in js:
            edge_coeff *= Fraction((-1) ** j, math.factorial(j + 1))
        room = budget - sum(js)
        terms: dict = {}
        for split in itertools.product(*[range(j + 1) for j in js]):
            psi_edge = {}
            split_coeff = edge_coeff
            for e, (j, s) in enumerate(zip(js, split)):
                if s:
                    psi_edge[(e, 0)] = s
                if j - s:
                    psi_edge[(e, 1)] = j - s
                split_coeff *= math.comb(j, s)
            for leg_exps in bounded_tuples(graph.n_legs, room):
                coeff = split_coeff
                for series, k in zip(leg_series, leg_exps):
                    coeff *= series[k]
                if coeff == 0:
                    continue
                psi_leg = {lab: k for lab, k in enumerate(leg_exps, start=1) if k}
                term = canonical_term(graph, {}, psi_leg, psi_edge)
                if term is not None:
                    terms[term] = terms.get(term, 0) + coeff
        layout[js] = [(term, coeff) for term, coeff in terms.items() if coeff != 0]
    return layout


def _edge_orders(graph: StableGraph, max_degree: int) -> tuple:
    """Every vector j of edge series orders that fits in max_degree."""
    return tuple(bounded_tuples(graph.n_edges, max_degree - graph.n_edges))


def _weighting_sums(wmap, r: int, orders) -> list:
    """For each order vector j in orders, the integer
    T_j(r) = sum over weightings w of prod_e (w(h) w(h'))^(j_e + 1),
    so that S_j(r) = T_j(r) / (2^sum(j_e + 1) r^h1); an edge with residue
    x != 0 at side 0 carries r - x at side 1."""
    totals = [0] * len(orders)
    for w in enumerate_weightings(wmap, r):
        if 0 in w:
            continue
        products = [x * (r - x) for x in w]
        for i, js in enumerate(orders):
            term = 1
            for p, j in zip(products, js):
                term *= p ** (j + 1)
            totals[i] += term
    return totals


def _add_graph(out: TautClass, graph: StableGraph, A, max_degree: int,
               values: dict):
    """Add the graph's terms to out in place: the layout of each order
    vector j in values, weighted by values[j] = S_j."""
    if not values:
        return
    aut = automorphism_count(graph)
    for js, entries in _graph_layout(graph, A, max_degree, values).items():
        value = values[js] / aut
        for term, coeff in entries:
            out._accumulate(term, coeff * value)


def omega_r(g: int, A, r: int, max_degree: int) -> TautClass:
    """The modulus-r class, truncated to total degree max_degree."""
    A = validate_ramification(A)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    out = TautClass(g, len(A))
    for graph in enumerate_stable_graphs(g, len(A), max_degree):
        orders = _edge_orders(graph, max_degree)
        totals = _weighting_sums(weighting_map(graph, A), r, orders)
        values = {js: Fraction(t, 2 ** (sum(js) + graph.n_edges) * r ** graph.h1)
                  for js, t in zip(orders, totals) if t}
        _add_graph(out, graph, A, max_degree, values)
    return out


def minimum_modulus(A) -> int:
    """Smallest safe sampling modulus: r > sum |a_i| / 2 bounds every subset
    sum, which keeps all edge residues in their eventual linear regime."""
    return sum(abs(a) for a in A) // 2 + 2


# Enlargements of the degree bound tried after the two sample sets disagree.
_MAX_RETRIES = 2


def omega_constant_term(g: int, A, max_degree: int) -> TautClass:
    """Constant term in r of the modulus-r class.

    The per-graph weighting sums have degree <= 2*max_degree in r (see the
    module docstring), so they are sampled at two disjoint windows of
    2*max_degree + 1 consecutive moduli from minimum_modulus(A).  For each
    sum, the first window's interpolant gives the constant term and must
    reproduce the second window's samples: that is the same as the two
    windows' interpolants agreeing, and certifies any true degree up to
    4*max_degree + 1.  On disagreement the bound is enlarged and the
    sampling retried.
    """
    A = validate_ramification(A)
    r_min = minimum_modulus(A)
    degree_bound = 2 * max_degree
    for attempt in range(_MAX_RETRIES + 1):
        m = degree_bound + 1
        first = [r_min + i for i in range(m)]
        second = [r_min + m + i for i in range(m)]
        try:
            return _interpolated_constant_term(g, A, max_degree, first, second)
        except InterpolationError:
            if attempt == _MAX_RETRIES:
                raise
            degree_bound = 2 * degree_bound + 2
            r_min = 2 * r_min
    raise InterpolationError("unreachable")


def omega_constant_term_from_samples(g: int, A, max_degree: int,
                                     r_samples) -> TautClass:
    """Constant term using caller-provided moduli: an even number of distinct
    moduli, none below minimum_modulus(A), split in half into the two
    consistency windows."""
    A = validate_ramification(A)
    r_samples = sorted(set(int(r) for r in r_samples))
    if len(r_samples) < 2 or len(r_samples) % 2 == 1:
        raise ValueError("need an even number, at least two, of distinct "
                         f"sample moduli; got {len(r_samples)}")
    r_min = minimum_modulus(A)
    if r_samples[0] < r_min:
        raise ValueError(f"sample modulus {r_samples[0]} is below the minimum "
                         f"{r_min} for ramification {A}")
    half = len(r_samples) // 2
    return _interpolated_constant_term(g, A, max_degree, r_samples[:half],
                                       r_samples[half:])


def _integer_weights(points, at, h1: int):
    """Lagrange weights at `at` for samples T[i] / points[i]**h1, over one
    common denominator: (numerators, denominator) such that
    sum(numerators[i] * T[i]) / denominator is the interpolated value."""
    weights = [w / p ** h1 for w, p in zip(lagrange_weights(points, at), points)]
    den = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


def _interpolated_constant_term(g, A, max_degree, first, second) -> TautClass:
    """Per graph, sample every weighting sum S_j at both windows.  Lagrange
    weights from the first window, at r = 0 and at each second-window
    modulus, serve every scalar: the constant term of S_j is its first-window
    interpolant at 0, and that interpolant must reproduce S_j at every
    second-window modulus.  The weights are folded with 1 / r^h1 once per
    cycle rank, so the check runs on the integer sums T_j.  The class is
    assembled once, as layout times constant term."""
    windows = {}
    out = TautClass(g, len(A))
    for graph in enumerate_stable_graphs(g, len(A), max_degree):
        h1 = graph.h1
        if h1 not in windows:
            windows[h1] = [_integer_weights(first, at, h1) for at in [0] + second]
        (zero_num, zero_den), *checks = windows[h1]
        orders = _edge_orders(graph, max_degree)
        wmap = weighting_map(graph, A)
        columns = list(zip(*[_weighting_sums(wmap, r, orders) for r in first]))
        for (num, den), r in zip(checks, second):
            actual = _weighting_sums(wmap, r, orders)
            for column, total in zip(columns, actual):
                if sum(map(operator.mul, num, column)) * r ** h1 != den * total:
                    raise InterpolationError(
                        "disjoint sample sets disagree; enlarge the degree bound")
        values = {}
        for js, column in zip(orders, columns):
            total = sum(map(operator.mul, zero_num, column))
            if total:
                values[js] = Fraction(total, zero_den * 2 ** (sum(js) + graph.n_edges))
        _add_graph(out, graph, A, max_degree, values)
    return out
