"""Pixton's double ramification cycle class.

For a ramification vector A summing to zero, the class on the moduli of
stable curves is assembled as a sum over stable graphs together with
weightings modulo r of the half-edges: each leg carries exp(a_i^2 psi_i / 2),
each edge the series (1 - exp(-w(h) w(h') (psi' + psi'') / 2)) / (psi' + psi'').
The resulting stratum coefficients are polynomials in r for large r; the
class itself is the constant term.

A weighting modulo r is fixed by its residues on the h1 edges off a spanning
tree; each tree edge carries the leg charge on one side of it plus a signed
sum of them.  That affine map (weighting_map) is built and checked once per
graph and vertex charges (see below) and serves every modulus.

Only the weightings depend on r.  Expanding each edge series to order j_e,
a graph contributes, for each vector j of edge orders, the scalar

    S_j(r) = sum over weightings w of prod_e u_e^(j_e + 1) / r^h1,
    u_e = w(h) w(h') / 2,

times the leg factor prod_i (a_i^2 / 2)^k_i / k_i! of each vector k of leg
exponents, times a combination of strata that depends on neither r nor A:
the binomial splits of (psi' + psi'')^j_e with (-1)^j_e / (j_e + 1)! (the
graph's layout).  So the strata are built once per graph and (j, k), and
only scalars are computed per modulus or per A.  Janda-Pandharipande-
Pixton-Zvonkine ("Double ramification cycles on the moduli spaces of
curves", Publ. IHES 2017) prove that each S_j, for fixed graph and j, is a
polynomial in r for large r; write F_j for its constant term.

On a tree the one weighting puts c_e mod r on edge e, c_e the leg charge on
one side, so F_j = prod_e (-c_e^2)^(j_e + 1) / 2^sum(j_e + 1) in closed form.
On a graph with cycles F_j is interpolated.  In degree <= d every S_j has
degree <= 2d in r: u_e is quadratic in (w, r), the orders satisfy
sum(j_e + 1) <= d, and summing over the r^h1 weightings raises the degree by
h1, which the factor 1 / r^h1 takes back.  Each window holds 2d + 1 moduli.
For every scalar, the interpolant through the first window must reproduce
each sample of the second, which proves it right for any true degree up to
4d + 1; otherwise the bound is enlarged and that graph alone is sampled
again.  _sampled_constant_terms walks this schedule of window pairs and is
the one owner of sampling, checking and retrying, per graph, for every
caller: a --r-samples run hands it a one-pair schedule.
Every stratum coefficient of the class is a linear combination of the
scalars, so agreement of all scalars implies agreement of the classes: the
check is at least as strict as comparing the interpolated classes.

The scalars see a graph only through its labeled skeleton (vertex count and
edges: weighting_map reads the legs only through the vertex charges, and
the edge orders depend only on the edge count) and A only through the
vertex charges.  So a linear combination of constant-term classes over
several A (weighted_constant_term, which the finite differences of the
relations layer use, and dr_relation at one A) takes F_j once per
(skeleton, charges) key, shared by every graph and point that reach it, and
sums the scalars before any stratum is built.  The windows of a key come
from the first A that reaches it; F_j is exact and certified on any pair of
windows, so which A that is changes no value.  A memoized F_j list is only
read, never mutated, and no class and no scalar outlives the call that
computed it.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .algebra import InterpolationError, bounded_tuples, lagrange_weights
from .graphs import StableGraph, graph_classes, union_find
from .strata import TautClass, canonical_term


class WeightingSystemError(RuntimeError):
    """Internal defect: the weighting system on a graph was inconsistent."""


def validate_ramification(A) -> tuple:
    A = tuple(A)
    if any(type(a) is not int for a in A) or sum(A) != 0:
        raise ValueError(f"ramification vector {A} is not ints summing to zero")
    return A


def _require_int(value, least: int, name: str) -> None:
    """A degree or modulus must be an int of at least `least`: a bool or
    float is refused, not read as the int it equals."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


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


def _edge_orders(graph: StableGraph, max_degree: int) -> tuple:
    """Every vector j of edge series orders that fits in max_degree."""
    return tuple(bounded_tuples(graph.n_edges, max_degree - graph.n_edges))


def _edge_splits(js) -> list:
    """The layout of the edge series of orders js: (psi_edge, coefficient)
    for each binomial split of (psi' + psi'')^j_e, psi_edge holding the
    per-edge pairs (s_e, j_e - s_e), with the coefficient
    prod_e (-1)^j_e / (j_e + 1)! * binomial(j_e, s_e)."""
    edge_coeff = Fraction(1)
    for j in js:
        edge_coeff *= Fraction((-1) ** j, math.factorial(j + 1))
    splits = []
    for split in itertools.product(*[range(j + 1) for j in js]):
        coeff = edge_coeff
        for j, s in zip(js, split):
            coeff *= math.comb(j, s)
        splits.append((tuple((s, j - s) for j, s in zip(js, split)), coeff))
    return splits


def _leg_powers(A, max_degree: int) -> list:
    """Per leg, the integers a_i^(2k) up to k = max_degree: the leg factor
    of exponents k is prod_i a_i^(2 k_i) / (2^sum(k) prod_i k_i!)."""
    return [[a ** (2 * k) for k in range(max_degree + 1)] for a in A]


def _add_graph(out: TautClass, graph: StableGraph, aut: int, points, scalars,
               orders, degrees: range):
    """Add to out, in place, the terms of total degree in `degrees` of the
    graph with aut automorphisms, summed over points (weight, leg powers of
    A), scalars[p][i] being the scalar of orders[i] at the p-th point.  For
    each edge orders j and leg exponents k the points' weight * leg factor *
    scalar are summed first, over one common denominator; the strata of
    (j, k) are built only where that sum is nonzero."""
    ne = graph.n_edges
    kappa = ((),) * graph.n_vertices
    budget = degrees[-1] - ne
    for i, js in enumerate(orders):
        column = [(weight * values[i], powers)
                  for (weight, powers), values in zip(points, scalars) if values[i]]
        if not column:
            continue
        den = math.lcm(*(f.denominator for f, _ in column))
        column = [(f.numerator * (den // f.denominator), powers)
                  for f, powers in column]
        splits = None
        for leg_exps in bounded_tuples(graph.n_legs, budget - sum(js)):
            if ne + sum(js) + sum(leg_exps) not in degrees:
                continue
            total = sum(c * math.prod(map(operator.getitem, powers, leg_exps))
                        for c, powers in column)
            if not total:
                continue
            value = Fraction(total, den * aut * 2 ** sum(leg_exps)
                             * math.prod(map(math.factorial, leg_exps)))
            splits = splits or _edge_splits(js)
            for psi_edge, coeff in splits:
                term = canonical_term(graph, kappa, leg_exps, psi_edge)
                if term is not None:
                    out._accumulate(term, coeff * value)


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


def omega_r(g: int, A, r: int, max_degree: int) -> TautClass:
    """The modulus-r class, truncated to total degree max_degree."""
    A = validate_ramification(A)
    _require_int(r, 1, "modulus")
    _require_int(max_degree, 0, "max_degree")
    out = TautClass(g, len(A))
    points = [(1, _leg_powers(A, max_degree))]
    for graph, aut in graph_classes(g, len(A), max_degree):
        orders = _edge_orders(graph, max_degree)
        totals = _weighting_sums(weighting_map(graph, A), r, orders)
        values = [Fraction(t, 2 ** (sum(js) + graph.n_edges) * r ** graph.h1)
                  for js, t in zip(orders, totals)]
        _add_graph(out, graph, aut, points, [values], orders, range(max_degree + 1))
    return out


def minimum_modulus(A) -> int:
    """Smallest safe sampling modulus: r > sum |a_i| / 2 bounds every subset
    sum, which keeps all edge residues in their eventual linear regime."""
    return sum(abs(a) for a in A) // 2 + 2


# Enlargements of the degree bound tried after the two sample sets disagree.
_MAX_RETRIES = 2


def _windows(r_min: int, max_degree: int) -> list:
    """The sampling schedule: pairs of disjoint windows of 2b + 1
    consecutive moduli from r_min on, for a degree bound b of 2*max_degree;
    each retry enlarges b to 2b + 2 and doubles r_min."""
    schedule = []
    bound = 2 * max_degree
    for _ in range(_MAX_RETRIES + 1):
        m = bound + 1
        schedule.append((range(r_min, r_min + m), range(r_min + m, r_min + 2 * m)))
        bound, r_min = 2 * bound + 2, 2 * r_min
    return schedule


def omega_constant_term(g: int, A, max_degree: int) -> TautClass:
    """Constant term in r of the modulus-r class, in every degree up to
    max_degree.  Graphs with cycles are sampled at two disjoint windows of
    2*max_degree + 1 consecutive moduli from minimum_modulus(A) (see the
    module docstring); a graph whose check fails is retried on its own with
    an enlarged bound, by _sampled_constant_terms."""
    _require_int(max_degree, 0, "degree")
    return _graph_sums(g, [(validate_ramification(A), 1)], range(max_degree + 1))


def omega_constant_term_from_samples(g: int, A, max_degree: int,
                                     r_samples) -> TautClass:
    """Constant term using caller-provided moduli: an even number of distinct
    int moduli, none below minimum_modulus(A), split in half into the two
    consistency windows."""
    _require_int(max_degree, 0, "degree")
    A = validate_ramification(A)
    r_samples = list(r_samples)
    if (any(type(r) is not int for r in r_samples) or len(r_samples) < 2
            or len(r_samples) % 2 == 1 or len(set(r_samples)) < len(r_samples)):
        raise ValueError("need an even number, at least two, of distinct int "
                         f"sample moduli; got {r_samples}")
    r_samples.sort()
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


def _tree_constant_terms(wmap, orders) -> list:
    """F_j for every j in orders on a tree: its one weighting carries
    x = c_e mod r on edge e, and x (r - x) has constant term -c_e^2 for every
    r > |c_e|."""
    squares = [c * c for c, _ in wmap[1]]
    return [Fraction(math.prod((-s) ** (j + 1) for s, j in zip(squares, js)),
                     2 ** (sum(js) + len(js))) for js in orders]


def _sampled_constant_terms(wmap, orders, lagrange: dict, schedule) -> list:
    """F_j for every j in orders on a graph with cycles: the one owner of
    sampling, checking and retrying.  At each pair of windows of the
    schedule in turn, Lagrange weights from the first window, at r = 0 and
    at each second-window modulus, serve every scalar: F_j is the first
    window's interpolant at 0, and that interpolant must reproduce T_j at
    every second-window modulus.  The first pair that passes gives F_j; a
    mismatch moves on to the next pair, and after the last it raises
    InterpolationError.  The weights are folded with 1 / r^h1, so the check
    runs on the integer sums T_j; lagrange keeps them per (windows, h1) for
    the caller."""
    h1 = wmap[0]
    for first, second in schedule:
        key = (tuple(first), tuple(second), h1)
        if key not in lagrange:
            lagrange[key] = [_integer_weights(first, at, h1) for at in [0, *second]]
        (zero_num, zero_den), *checks = lagrange[key]
        columns = list(zip(*[_weighting_sums(wmap, r, orders) for r in first]))
        if all(sum(map(operator.mul, num, column)) * r ** h1 == den * total
               for (num, den), r in zip(checks, second)
               for column, total in zip(columns, _weighting_sums(wmap, r, orders))):
            return [Fraction(sum(map(operator.mul, zero_num, column)),
                             zero_den * 2 ** (sum(js) + len(js)))
                    for js, column in zip(orders, columns)]
    raise InterpolationError("disjoint sample sets disagree; enlarge the degree bound")


def _interpolated_constant_term(g, A, max_degree, first, second) -> TautClass:
    """The constant-term class in every degree up to max_degree, with every
    graph with cycles sampled at this one pair of windows."""
    return _graph_sums(g, [(A, 1)], range(max_degree + 1), [(first, second)])


def weighted_constant_term(g: int, points, degree: int) -> TautClass:
    """sum_p w_p times the degree-`degree` part of
    omega_constant_term(g, A_p, degree), for points (A_p, w_p) with A_p of
    one common length, without building a class per point."""
    _require_int(degree, 0, "degree")
    points = [(validate_ramification(A), weight) for A, weight in points]
    if len({len(A) for A, _ in points}) != 1:
        raise ValueError("points must be a nonempty list of ramification "
                         "vectors of one common length")
    return _graph_sums(g, points, range(degree, degree + 1))


def _graph_sums(g: int, points, degrees: range, schedule=None) -> TautClass:
    """sum_p w_p times the part in `degrees` of the constant-term class at
    A_p, over points (A_p, w_p).  F_j is taken once per key (labeled
    skeleton (n_vertices, edges), vertex charges), in a memo local to this
    call: in closed form on a tree, and on a graph with cycles by
    _sampled_constant_terms, for the first graph and point A to reach the
    key, on the given schedule of window pairs or else on
    _windows(minimum_modulus(A), top degree).  Another A with the same
    charges may have another minimum modulus, but F_j is exact on either
    schedule, and _add_graph only reads the shared lists.
    Trees and cycle graphs never share a key: h1 follows from the skeleton.
    Then each graph's strata are built once, for the (j, k) whose weighted
    sum over the points is nonzero."""
    top = degrees.stop - 1
    n = len(points[0][0])
    legs = [(weight, _leg_powers(A, top)) for A, weight in points]
    out = TautClass(g, n)
    lagrange: dict = {}
    skeletons: dict = {}
    for graph, aut in graph_classes(g, n, top):
        orders = _edge_orders(graph, top)
        by_charges = skeletons.setdefault((graph.n_vertices, graph.edges), {})
        scalars = []
        for A, _ in points:
            charges = [0] * graph.n_vertices
            for a, v in zip(A, graph.legs):
                charges[v] += a
            charges = tuple(charges)
            if charges not in by_charges:
                wmap = weighting_map(graph, A)
                if graph.h1:
                    by_charges[charges] = _sampled_constant_terms(
                        wmap, orders, lagrange,
                        schedule or _windows(minimum_modulus(A), top))
                else:
                    by_charges[charges] = _tree_constant_terms(wmap, orders)
            scalars.append(by_charges[charges])
        _add_graph(out, graph, aut, legs, scalars, orders, degrees)
    return out
