"""Pixton's double ramification cycle class.

For a ramification vector A summing to zero, the class on the moduli of
stable curves is assembled as a sum over stable graphs together with
weightings modulo r of the half-edges: each leg carries exp(a_i^2 psi_i / 2),
each edge the series (1 - exp(-w(h) w(h') (psi' + psi'') / 2)) / (psi' + psi'').
The resulting stratum coefficients are polynomials in r for large r; the
class itself is the constant term, recovered here by exact interpolation over
two disjoint sample sets that must agree.

In degree <= d a coefficient has degree <= 2d in r: an edge whose series is
taken to order j contributes u^(j+1) with u = w(h) w(h') / 2 quadratic in
(w, r), the orders satisfy sum(j_e + 1) <= d, and summing over the r^h1
weightings raises the degree by h1, which the factor 1 / r^h1 takes back.
Each window holds 2d + 1 moduli.  The interpolant through the first window
must reproduce every sample of the second, which proves it right for any
true degree up to 4d + 1; otherwise the bound is enlarged and the sampling
retried.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebra import InterpolationError, bounded_tuples, lagrange_weights
from .graphs import StableGraph, enumerate_stable_graphs, vertex_attachments, \
    automorphism_count, union_find
from .strata import TautClass, canonical_term


class WeightingSystemError(RuntimeError):
    """Internal defect: the weighting system on a graph was inconsistent."""


def validate_ramification(A) -> tuple:
    A = tuple(int(a) for a in A)
    if sum(A) != 0:
        raise ValueError(f"ramification vector {A} does not sum to zero")
    return A


def _spanning_tree(graph: StableGraph):
    """Edge indices of a spanning tree (loops and extra edges excluded)."""
    _, tree = union_find(graph.n_vertices, graph.edges)
    rest = [e for e in range(graph.n_edges) if e not in tree]
    return tree, rest


def enumerate_weightings(graph: StableGraph, A, r: int):
    """All weightings modulo r: legs carry the residues of A, edge halves sum
    to zero over each edge and around every vertex.  Exactly r**h1 of them,
    generated lazily from free residues on the complement of a spanning tree.
    """
    A = validate_ramification(A)
    if len(A) != graph.n_legs:
        raise ValueError("ramification vector length differs from leg count")
    if r < 1:
        raise ValueError("modulus must be >= 1")
    tree, rest = _spanning_tree(graph)
    leg_w = {}
    for lab, v in enumerate(graph.legs, start=1):
        leg_w[lab] = A[lab - 1] % r

    # Peel the spanning tree from the leaves inward: each step determines the
    # weight on one tree edge from the vertex condition.
    order = []
    remaining = set(tree)
    degree = {v: 0 for v in range(graph.n_vertices)}
    incident = {v: [] for v in range(graph.n_vertices)}
    for e in tree:
        a, b = graph.edges[e]
        degree[a] += 1
        degree[b] += 1
        incident[a].append(e)
        incident[b].append(e)
    leaves = [v for v in range(graph.n_vertices) if degree[v] == 1]
    seen_edges = set()
    while leaves:
        v = leaves.pop()
        live = [e for e in incident[v] if e in remaining]
        if not live:
            continue
        e = live[0]
        order.append((v, e))
        remaining.discard(e)
        a, b = graph.edges[e]
        other = b if a == v else a
        degree[a] -= 1
        degree[b] -= 1
        if degree[other] == 1:
            leaves.append(other)
    if remaining:
        raise WeightingSystemError("spanning tree peel failed")

    for free in itertools.product(range(r), repeat=len(rest)):
        w = {}
        for lab, v in enumerate(graph.legs, start=1):
            w[("l", lab)] = leg_w[lab]
        for e, value in zip(rest, free):
            w[("h", e, 0)] = value
            w[("h", e, 1)] = (-value) % r
        for v, e in order:
            total = 0
            for tag in vertex_attachments(graph, v):
                if tag == ("h", e, 0) or tag == ("h", e, 1):
                    continue
                if tag in w:
                    total += w[tag]
            a, b = graph.edges[e]
            side = 0 if a == v else 1
            w[("h", e, side)] = (-total) % r
            w[("h", e, 1 - side)] = total % r
        # final consistency at every vertex
        for v in range(graph.n_vertices):
            total = sum(w[tag] for tag in vertex_attachments(graph, v))
            if total % r != 0:
                raise WeightingSystemError("vertex condition violated")
        yield w


def omega_r(g: int, A, r: int, max_degree: int) -> TautClass:
    """The modulus-r class, truncated to total degree max_degree."""
    A = validate_ramification(A)
    n = len(A)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    out = TautClass(g, n)
    for graph in enumerate_stable_graphs(g, n, max_degree):
        _graph_contribution(graph, A, r, max_degree, out)
    return out


def _graph_contribution(graph: StableGraph, A, r: int, max_degree: int,
                        out: TautClass):
    """Add the graph's terms of the modulus-r class to out, in place."""
    n = graph.n_legs
    ne = graph.n_edges
    budget = max_degree - ne
    if budget < 0:
        return

    # Accumulate, over all weightings, the coefficient of each vector of edge
    # series orders; weightings are never materialized as a list.
    edge_orders: dict = {}
    order_vectors = list(bounded_tuples(ne, budget))
    for w in enumerate_weightings(graph, A, r):
        u = [Fraction(w[("h", e, 0)] * w[("h", e, 1)], 2) for e in range(ne)]
        if any(x == 0 for x in u):
            continue
        for orders in order_vectors:
            coeff = Fraction(1)
            for ue, j in zip(u, orders):
                coeff *= (-1) ** j * ue ** (j + 1) / math.factorial(j + 1)
            edge_orders[orders] = edge_orders.get(orders, Fraction(0)) + coeff

    scale = Fraction(1, automorphism_count(graph) * r ** graph.h1)

    # Leg factor exp(a_i^2 psi_i / 2), truncated.
    leg_series = []
    for lab in range(1, n + 1):
        base = Fraction(A[lab - 1] ** 2, 2)
        leg_series.append([base ** k / math.factorial(k) for k in range(budget + 1)])

    for orders, ocoeff in edge_orders.items():
        if ocoeff == 0:
            continue
        room = budget - sum(orders)
        # split each edge's (psi'+psi'')^j binomially
        per_edge = []
        for e, j in enumerate(orders):
            per_edge.append([(s, j - s, Fraction(math.comb(j, s))) for s in range(j + 1)])
        for split in itertools.product(*per_edge):
            base_psi_edge = {}
            bcoeff = ocoeff
            for e, (s0, s1, c) in enumerate(split):
                if s0:
                    base_psi_edge[(e, 0)] = s0
                if s1:
                    base_psi_edge[(e, 1)] = s1
                bcoeff *= c
            for leg_exps in bounded_tuples(n, room):
                coeff = bcoeff
                skip = False
                psi_leg = {}
                for lab, k in enumerate(leg_exps, start=1):
                    if k:
                        c = leg_series[lab - 1][k]
                        if c == 0:
                            skip = True
                            break
                        coeff *= c
                        psi_leg[lab] = k
                if skip or coeff == 0:
                    continue
                term = canonical_term(graph, {}, psi_leg, base_psi_edge)
                if term is not None:
                    out._accumulate(term, coeff * scale)


def minimum_modulus(A) -> int:
    """Smallest safe sampling modulus: r > sum |a_i| / 2 bounds every subset
    sum, which keeps all edge residues in their eventual linear regime."""
    return sum(abs(a) for a in A) // 2 + 2


# Enlargements of the degree bound tried after the two sample sets disagree.
_MAX_RETRIES = 2


def omega_constant_term(g: int, A, max_degree: int) -> TautClass:
    """Constant term in r of the modulus-r class, stratum by stratum.

    Coefficients have degree <= 2*max_degree in r (see the module docstring),
    so they are sampled at two disjoint windows of 2*max_degree + 1
    consecutive moduli from minimum_modulus(A).  The first window's
    interpolant gives the constant term and must reproduce the second
    window's samples: that is the same as the two windows' interpolants
    agreeing, and certifies any true degree up to 4*max_degree + 1.  On
    disagreement the bound is enlarged and the sampling retried.
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


def _interpolated_constant_term(g, A, max_degree, first, second) -> TautClass:
    """Lagrange weights from the first window, at r = 0 and at each
    second-window modulus, serve every stratum: the constant term is
    sum(w0[i] * omega_r(first[i])), and sum(w[k][i] * omega_r(first[i]))
    must equal omega_r(second[k])."""
    n = len(A)
    at_zero = lagrange_weights(first, 0)
    at_second = [lagrange_weights(first, s) for s in second]
    out = TautClass(g, n)
    predicted = [TautClass(g, n) for _ in second]
    for i, r in enumerate(first):
        for term, coeff in omega_r(g, A, r, max_degree).terms.items():
            out._accumulate(term, at_zero[i] * coeff)
            for cls, weights in zip(predicted, at_second):
                cls._accumulate(term, weights[i] * coeff)
    for cls, r in zip(predicted, second):
        if cls != omega_r(g, A, r, max_degree):
            raise InterpolationError(
                "disjoint sample sets disagree; enlarge the degree bound")
    return out
