import itertools
import math
from fractions import Fraction

import pytest

from tautring import pixton
from tautring.algebra import (
    InterpolationError,
    bounded_tuples,
    finite_difference_extract,
    finite_difference_stencil,
    lagrange_interpolate,
    lagrange_weights,
)
from tautring.graphs import (
    automorphism_count,
    enumerate_stable_graphs,
    stable_graph,
)
from tautring.pixton import (
    WeightingSystemError,
    enumerate_weightings,
    minimum_modulus,
    omega_constant_term,
    omega_constant_term_from_samples,
    omega_r,
    validate_ramification,
    weighting_map,
)
from tautring.relations import dr_relation_coefficient
from tautring.strata import TautClass, bare, boundary_divisor_class, canonical_term

from dict_decoration import decorated


def loop_stratum_class(g, n):
    return boundary_divisor_class(g, n, ("irr",)) * 2


def test_ramification_must_sum_to_zero():
    with pytest.raises(ValueError):
        validate_ramification((1, 2))
    assert validate_ramification((3, -1, -2)) == (3, -1, -2)


def test_ramification_entries_must_be_ints():
    # int() would truncate (1.5, -1.5) to (1, -1) and read ("2", "-2")
    for A in ((1.5, -1.5), ("2", "-2"), (True, -1), (2.0, -2)):
        with pytest.raises(ValueError):
            validate_ramification(A)
    with pytest.raises(ValueError):
        omega_constant_term(1, (1.5, -1.5), 1)


def test_tree_has_unique_weighting():
    tree = stable_graph((1, 0), (1, 1), ((0, 1),))
    for r in (2, 5, 9):
        assert len(list(enumerate_weightings(weighting_map(tree, (1, -1)), r))) == 1


@pytest.mark.parametrize("r", [True, 2.0, 0])
def test_enumerate_weightings_checks_its_modulus_at_the_call(r):
    # as a generator it raised only at the first next(), far from the call
    loop = weighting_map(stable_graph((0,), (0,), ((0, 0),)), (0,))
    with pytest.raises(ValueError, match="modulus"):
        enumerate_weightings(loop, r)


def test_loop_weightings_indexed_by_half_edge_value():
    loop = stable_graph((0,), (0,), ((0, 0),))
    ws = list(enumerate_weightings(weighting_map(loop, (0,)), 5))
    assert len(ws) == 5
    assert sorted(w[0] for w in ws) == list(range(5))


def test_banana_weightings_match_exhaustive_filter():
    banana = stable_graph((0, 0), (0, 1), ((0, 1), (0, 1)))
    r = 7
    A = (2, -2)
    ws = list(enumerate_weightings(weighting_map(banana, A), r))
    assert len(ws) == 7
    # brute force over all half-edge assignments
    count = 0
    tags = [("h", 0, 0), ("h", 0, 1), ("h", 1, 0), ("h", 1, 1)]
    for values in itertools.product(range(r), repeat=4):
        w = dict(zip(tags, values))
        w[("l", 1)] = A[0] % r
        w[("l", 2)] = A[1] % r
        if (w[("h", 0, 0)] + w[("h", 0, 1)]) % r:
            continue
        if (w[("h", 1, 0)] + w[("h", 1, 1)]) % r:
            continue
        if (w[("l", 1)] + w[("h", 0, 0)] + w[("h", 1, 0)]) % r:
            continue
        if (w[("l", 2)] + w[("h", 0, 1)] + w[("h", 1, 1)]) % r:
            continue
        count += 1
    assert count == 7


def _brute_force_weightings(graph, A, r):
    """Every assignment of residues to the half-edges that sums to zero over
    each edge and around each vertex, projected onto its side-0 residues (the
    projection is injective: side 1 is minus side 0)."""
    halves = [("h", e, s) for e in range(graph.n_edges) for s in (0, 1)]
    legs = {("l", lab): a % r for lab, a in enumerate(A, start=1)}
    tags_at = [[("l", lab) for lab, w in enumerate(graph.legs, start=1) if w == v]
               + [("h", e, s) for e, ends in enumerate(graph.edges)
                  for s in (0, 1) if ends[s] == v]
               for v in range(graph.n_vertices)]
    found = set()
    for values in itertools.product(range(r), repeat=len(halves)):
        w = dict(legs)
        w.update(zip(halves, values))
        if any((w[("h", e, 0)] + w[("h", e, 1)]) % r for e in range(graph.n_edges)):
            continue
        if any(sum(w[tag] for tag in tags) % r for tags in tags_at):
            continue
        found.add(tuple(w[("h", e, 0)] for e in range(graph.n_edges)))
    return found


@pytest.mark.parametrize("g,n,A", [(1, 3, (2, -1, -1)), (2, 1, (0,))])
def test_weightings_match_exhaustive_filter_on_whole_spaces(g, n, A):
    for graph in enumerate_stable_graphs(g, n, 3):
        wmap = weighting_map(graph, A)
        for r in (2, 3, 4):
            ws = list(enumerate_weightings(wmap, r))
            assert len(ws) == len(set(ws)) == r ** graph.h1, (graph, r)
            assert set(ws) == _brute_force_weightings(graph, A, r), (graph, r)


@pytest.mark.parametrize("g,n,A", [(1, 1, (0,)), (1, 2, (1, -1)), (2, 0, ())])
def test_weighting_counts_scale_with_cycle_rank(g, n, A):
    for graph in enumerate_stable_graphs(g, n, 2):
        for r in (3, 5, 8):
            ws = list(enumerate_weightings(weighting_map(graph, A), r))
            assert len(ws) == r ** graph.h1, (graph, r)


def _side_charge(graph, A, e):
    """Sum of A over the legs on the side-0 end of the tree edge e, by a
    breadth-first search on the tree minus e."""
    reached = {graph.edges[e][0]}
    queue = [graph.edges[e][0]]
    while queue:
        v = queue.pop(0)
        for f, (a, b) in enumerate(graph.edges):
            if f != e and v in (a, b):
                w = b if v == a else a
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
    return sum(a for a, v in zip(A, graph.legs) if v in reached)


@pytest.mark.parametrize("g,A,d", [
    (0, (3, 1, -2, -2, 0), 2),
    (0, (1, 1, 1, -1, -2), 2),
    (1, (2, -1, -1), 3),
    (1, (3, 0, -3), 3),
    (2, (1, -1), 3),
    (2, (4, -4), 3),
])
def test_tree_weighting_sums_have_closed_form_constant_terms(g, A, d):
    # on a tree, T_j(r) = prod_e (s_e (r - s_e))^(j_e + 1) with s_e the leg
    # charge on one side of e, for every r above minimum_modulus; its
    # constant term in r is prod_e (-s_e^2)^(j_e + 1)
    moduli = [minimum_modulus(A) + i for i in range(2 * d + 1)]
    weights = lagrange_weights(moduli, 0)
    trees = [graph for graph in enumerate_stable_graphs(g, len(A), d) if graph.h1 == 0]
    assert len(trees) > 1
    for graph in trees:
        charges = [_side_charge(graph, A, e) for e in range(graph.n_edges)]
        orders = pixton._edge_orders(graph, d)
        wmap = weighting_map(graph, A)
        samples = [pixton._weighting_sums(wmap, r, orders) for r in moduli]
        for i, js in enumerate(orders):
            constant = sum(w * sample[i] for w, sample in zip(weights, samples))
            expected = 1
            for s, j in zip(charges, js):
                expected *= (-s * s) ** (j + 1)
            assert constant == expected, (graph, js)


def test_corrupted_spanning_tree_is_caught(monkeypatch):
    # dropping one tree edge leaves an edge free that the vertex conditions
    # fix, so the map cannot satisfy them identically
    real = pixton.union_find

    def short(nv, edges):
        find, tree = real(nv, edges)
        return find, tree[1:]

    graphs = [graph for graph in enumerate_stable_graphs(1, 3, 3)
              if graph.n_vertices > 1]
    assert graphs
    monkeypatch.setattr(pixton, "union_find", short)
    for graph in graphs:
        with pytest.raises(WeightingSystemError):
            weighting_map(graph, (3, -1, -2))


def test_omega_r_degree_zero_is_fundamental():
    for r in (3, 7):
        c = omega_r(1, (2, -2), r, 1)
        assert c.degree_part(0) == TautClass.fundamental(1, 2)


def test_omega_r_loop_coefficient_matches_direct_sum():
    loop_term = next(iter(loop_stratum_class(1, 1).terms))
    for r in (3, 5, 7, 11):
        c = omega_r(1, (0,), r, 1)
        direct = Fraction(sum(Fraction(w * (r - w), 2) for w in range(r)), 2 * r)
        assert c.coefficient(loop_term) == direct
        assert direct == Fraction(r * r - 1, 24)


def test_omega_zero_edge_weight_contributes_nothing():
    # with A = (1,-1) on (1,2), the one-edge tree carries weight zero on its
    # edge, so its stratum is absent in every degree
    c = omega_r(1, (1, -1), 7, 2)
    tree = stable_graph((1, 0), (1, 1), ((0, 1),))
    tree_class = TautClass(1, 2).add_term(tree, *bare(tree), Fraction(1))
    tree_term = next(iter(tree_class.terms))
    assert c.coefficient(tree_term) == 0


def _reference_omega_r(g, A, r, max_degree):
    """The modulus-r class assembled weighting by weighting, stratum by
    stratum, independently of the layout and the weighting sums."""
    out = TautClass(g, len(A))
    n = len(A)
    for graph in enumerate_stable_graphs(g, n, max_degree):
        ne = graph.n_edges
        budget = max_degree - ne
        edge_orders = {}
        order_vectors = list(bounded_tuples(ne, budget))
        for w in enumerate_weightings(weighting_map(graph, A), r):
            u = [Fraction(x * ((-x) % r), 2) for x in w]
            if any(x == 0 for x in u):
                continue
            for orders in order_vectors:
                coeff = Fraction(1)
                for ue, j in zip(u, orders):
                    coeff *= (-1) ** j * ue ** (j + 1) / math.factorial(j + 1)
                edge_orders[orders] = edge_orders.get(orders, Fraction(0)) + coeff
        scale = Fraction(1, automorphism_count(graph) * r ** graph.h1)
        leg_series = []
        for lab in range(1, n + 1):
            base = Fraction(A[lab - 1] ** 2, 2)
            leg_series.append([base ** k / math.factorial(k)
                               for k in range(budget + 1)])
        for orders, ocoeff in edge_orders.items():
            if ocoeff == 0:
                continue
            room = budget - sum(orders)
            per_edge = [[(s, j - s, Fraction(math.comb(j, s))) for s in range(j + 1)]
                        for j in orders]
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
                    psi_leg = {}
                    for lab, k in enumerate(leg_exps, start=1):
                        if k:
                            coeff *= leg_series[lab - 1][k]
                            psi_leg[lab] = k
                    if coeff == 0:
                        continue
                    term = canonical_term(*decorated(graph, {}, psi_leg, base_psi_edge))
                    if term is not None:
                        out._accumulate(term, coeff * scale)
    return out


@pytest.mark.parametrize("g,A,r,d", [
    (1, (0,), 5, 1),
    (1, (2, -1, -1), 7, 2),
    (1, (3, -1, -1, -1, 0), 9, 2),
    (2, (1, -1), 4, 2),
    (2, (2, -2), 5, 3),  # includes graphs with h1 = 2
    (0, (1, 2, -3, 0), 4, 1),
])
def test_omega_r_matches_per_weighting_assembly(g, A, r, d):
    expected = _reference_omega_r(g, A, r, d)
    assert not expected.is_zero()
    assert omega_r(g, A, r, d) == expected


def _reference_constant_term(g, A, d):
    """Frozen per-point route: every graph's weighting sums, trees included,
    sampled at the two windows from minimum_modulus(A), checked, taken at
    r = 0, and assembled with a layout built for this A."""
    r0 = minimum_modulus(A)
    first = list(range(r0, r0 + 2 * d + 1))
    second = list(range(r0 + 2 * d + 1, r0 + 4 * d + 2))
    zero = lagrange_weights(first, 0)
    out = TautClass(g, len(A))
    for graph in enumerate_stable_graphs(g, len(A), d):
        ne, h1 = graph.n_edges, graph.h1
        budget = d - ne
        orders = list(bounded_tuples(ne, budget))
        wmap = weighting_map(graph, A)

        def sums(r):
            totals = [0] * len(orders)
            for w in enumerate_weightings(wmap, r):
                if 0 not in w:
                    products = [x * (r - x) for x in w]
                    for i, js in enumerate(orders):
                        totals[i] += math.prod(p ** (j + 1) for p, j in zip(products, js))
            return [Fraction(t, r ** h1) for t in totals]

        samples = [sums(r) for r in first]
        for r in second:
            at = lagrange_weights(first, r)
            for i, value in enumerate(sums(r)):
                assert sum(w * s[i] for w, s in zip(at, samples)) == value
        leg_series = [[Fraction(a * a, 2) ** k / math.factorial(k)
                       for k in range(budget + 1)] for a in A]
        aut = automorphism_count(graph)
        for i, js in enumerate(orders):
            constant = sum(w * s[i] for w, s in zip(zero, samples))
            if constant == 0:
                continue
            constant /= 2 ** (sum(js) + ne) * aut
            edge_coeff = Fraction(1)
            for j in js:
                edge_coeff *= Fraction((-1) ** j, math.factorial(j + 1))
            for split in itertools.product(*[range(j + 1) for j in js]):
                psi_edge = {}
                coeff = edge_coeff
                for e, (j, s0) in enumerate(zip(js, split)):
                    if s0:
                        psi_edge[(e, 0)] = s0
                    if j - s0:
                        psi_edge[(e, 1)] = j - s0
                    coeff *= math.comb(j, s0)
                for leg_exps in bounded_tuples(graph.n_legs, budget - sum(js)):
                    leg_coeff = coeff
                    for series, k in zip(leg_series, leg_exps):
                        leg_coeff *= series[k]
                    psi_leg = {lab: k for lab, k in enumerate(leg_exps, start=1) if k}
                    term = canonical_term(*decorated(graph, {}, psi_leg, psi_edge))
                    if term is not None:
                        out._accumulate(term, leg_coeff * constant)
    return out


@pytest.mark.parametrize("g,A,d", [
    (0, (3, 1, -2, -2, 0), 2),
    (0, (1, 1, 1, -1, -2), 3),
    (1, (2, -1, -1), 3),
    (1, (3, 0, -2, -1), 3),
    (2, (1, -1), 2),
    (2, (4, -4), 3),
])
def test_constant_term_matches_sampled_reference(g, A, d):
    # the trees take the closed form, which the reference samples
    assert any(graph.h1 == 0 and graph.n_edges > 0
               for graph in enumerate_stable_graphs(g, len(A), d))
    assert omega_constant_term(g, A, d) == _reference_constant_term(g, A, d)


def test_dr_coefficients_match_reference_finite_differences():
    # the class-level route: (g+1)! times the degree-2 part of the reference
    # class at every stencil point, differenced
    classes = {}

    def dr_class(point):
        A = point + (-sum(point),)
        if A not in classes:
            classes[A] = _reference_constant_term(1, A, 2).degree_part(2) * 2
        return classes[A]

    for monomial in [(4, 0, 0, 0), (3, 1, 0, 0), (1, 1, 1, 1), (2, 1, 1, 0)]:
        expected = finite_difference_extract(dr_class, monomial, 4)
        assert not expected.is_zero()
        assert dr_relation_coefficient(1, monomial) == expected, monomial


def test_weighted_constant_term_keeps_vertex_charges_apart():
    # the points permute one vector, so a graph's vertex charges at two of
    # them can be the same multiset in another order, which the sums on a
    # graph with cycles tell apart
    points = [((1, 2, -3, 0), 1), ((2, 1, -3, 0), 2)]
    expected = TautClass(1, 4)
    for A, weight in points:
        expected._add_in_place(_reference_constant_term(1, A, 3).degree_part(3) * weight)
    assert not expected.is_zero()
    assert pixton.weighted_constant_term(1, points, 3) == expected


@pytest.mark.parametrize("points", [
    # a trailing zero keeps the sum, so only the length tells them apart
    [((2, -1, -1), 1), ((2, -1, -1, 0), 1)],
    [((2, -1, -1, 0), 1), ((2, -1, -1), 1)],
    [((1, -1), 1), ((2, -1, -1), 1), ((1, -1), 1)],
    # no point at all
    [],
])
def test_weighted_constant_term_needs_points_of_one_length(points):
    with pytest.raises(ValueError, match="nonempty list .* of one common length"):
        pixton.weighted_constant_term(1, points, 2)


def test_sampling_runs_once_per_skeleton_and_charges(monkeypatch):
    # a graph's F_j depends only on its vertex count, its edges and its
    # vertex charges, so the stencil of a DR coefficient is sampled once
    # per such key across all graphs and points
    g, d = 1, 2
    stencil = [(point + (-sum(point),), weight) for point, weight
               in finite_difference_stencil((3, 1, 0, 0), 4)]
    pairs, keys, cycle_keys = 0, set(), set()
    for graph in enumerate_stable_graphs(g, 5, d):
        for A, _ in stencil:
            charges = tuple(sum(a for a, v in zip(A, graph.legs) if v == u)
                            for u in range(graph.n_vertices))
            key = (graph.n_vertices, graph.edges, charges)
            pairs += 1
            keys.add(key)
            if graph.h1:
                cycle_keys.add(key)
    assert cycle_keys and len(keys) < pairs
    calls = {"_sampled_constant_terms": 0, "weighting_map": 0}

    def counted(name):
        original = getattr(pixton, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(pixton, name, wrapper)

    counted("_sampled_constant_terms")
    counted("weighting_map")
    pixton.weighted_constant_term(g, stencil, d)
    assert calls == {"_sampled_constant_terms": len(cycle_keys),
                     "weighting_map": len(keys)}


def test_omega_constant_term_loop_value():
    ct = omega_constant_term(1, (0,), 1)
    loop_term = next(iter(loop_stratum_class(1, 1).terms))
    assert ct.coefficient(loop_term) == Fraction(-1, 24)
    assert ct == TautClass.fundamental(1, 1) + \
        boundary_divisor_class(1, 1, ("irr",)) * Fraction(-1, 12)


def test_omega_constant_term_interpolant_agrees_on_disjoint_samples():
    # the two disjoint sample windows must produce identical polynomials;
    # verified here explicitly for the loop coefficient
    loop_term = next(iter(loop_stratum_class(1, 1).terms))
    samples1 = [(r, omega_r(1, (0,), r, 1).coefficient(loop_term))
                for r in range(4, 11)]
    samples2 = [(r, omega_r(1, (0,), r, 1).coefficient(loop_term))
                for r in range(11, 18)]
    assert lagrange_interpolate(samples1, 6) == lagrange_interpolate(samples2, 6)


def test_omega_constant_term_from_custom_samples():
    direct = omega_constant_term(1, (1, -1), 1)
    via_cli_path = omega_constant_term_from_samples(1, (1, -1), 1,
                                                    list(range(3, 17)))
    assert direct == via_cli_path


def test_custom_samples_must_be_an_even_count_of_safe_moduli():
    # an odd count would leave one modulus unused
    with pytest.raises(ValueError):
        omega_constant_term_from_samples(1, (1, -1), 1, list(range(3, 16)))
    # minimum_modulus((1, -1)) is 3
    with pytest.raises(ValueError):
        omega_constant_term_from_samples(1, (1, -1), 1, list(range(1, 11)))
    with pytest.raises(ValueError):
        omega_constant_term_from_samples(1, (1, -1), 1, list(range(2, 16)))


def test_custom_samples_must_be_distinct_ints():
    # int() would truncate 3.5 to 3 and 16.9 to 16 and read "3", and a set
    # would drop the repeated 3 and 4: each run would use other moduli than
    # those given
    rest = list(range(4, 16))
    for r_samples in ([3.5, *rest, 16], [3, *rest, 16.9], ["3", *rest, 16],
                      [True, *rest, 16], [3, 3, 4, *rest, 16, 17]):
        with pytest.raises(ValueError):
            omega_constant_term_from_samples(1, (1, -1), 1, r_samples)


def test_custom_samples_too_few_for_the_degree_are_refused():
    # windows {3, 4} and {5, 6} fit lines, but the degree-1 coefficients are
    # quadratic in r, so the first line misses the second window
    with pytest.raises(InterpolationError):
        omega_constant_term_from_samples(1, (1, -1), 1, [3, 4, 5, 6])


def test_scalar_check_catches_a_wrong_sample(monkeypatch):
    # windows 4..8 and 9..13; at r = 11 every weighting is counted twice
    original = pixton.enumerate_weightings

    def doubled(wmap, r):
        for w in original(wmap, r):
            yield w
            if r == 11:
                yield w

    monkeypatch.setattr(pixton, "enumerate_weightings", doubled)
    with pytest.raises(InterpolationError):
        omega_constant_term_from_samples(1, (2, -1, -1), 2, range(4, 14))


def test_omega_marking_symmetry():
    # permuting the markings together with the ramification vector relabels
    # the class
    A = (2, -1, -1)
    perm = {1: 2, 2: 3, 3: 1}
    permuted_A = (-1, 2, -1)  # entry at new position perm[i] is a_i
    lhs = omega_constant_term(0, permuted_A, 1)
    rhs = omega_constant_term(0, A, 1).relabel_legs(perm)
    assert lhs == rhs


def test_minimum_modulus_covers_subset_sums():
    A = (3, -1, -2)
    r0 = minimum_modulus(A)
    for size in range(4):
        for P in itertools.combinations(range(3), size):
            assert abs(sum(A[i] for i in P)) < r0


def test_negative_degree_is_refused():
    with pytest.raises(ValueError, match="degree must be >= 0"):
        omega_constant_term(1, (0,), -1)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        omega_constant_term_from_samples(1, (0,), -1, [3, 4])
    with pytest.raises(ValueError, match="degree must be >= 0"):
        pixton.weighted_constant_term(1, [((0,), 1)], -1)


@pytest.mark.parametrize("bad", [True, 1.0, 2.0, 5.0])
def test_non_int_degree_or_modulus_is_refused(bad):
    # a bool was read as 1, and a float raised TypeError
    for f, args in ((omega_constant_term, (1, (0,), bad)),
                    (omega_constant_term_from_samples, (1, (0,), bad, [3, 4])),
                    (pixton.weighted_constant_term, (1, [((0,), 1)], bad)),
                    (omega_r, (1, (0,), bad, 1)), (omega_r, (1, (0,), 5, bad))):
        with pytest.raises(ValueError, match="must be an int"):
            f(*args)


def test_failed_check_retries_the_graph_on_the_next_windows(monkeypatch):
    # the check weights of every first pair of windows of the schedule are
    # made wrong, so each graph with cycles fails its check there and must
    # be sampled again at the second pair
    g, d = 1, 2
    points = [((2, -1, -1), 1), ((4, -1, -3), -2)]
    expected_class = omega_constant_term(g, points[0][0], d)
    expected_sum = pixton.weighted_constant_term(g, points, d)
    schedules = [pixton._windows(minimum_modulus(A), d) for A, _ in points]
    first_windows = {tuple(schedule[0][0]) for schedule in schedules}
    second_moduli = {r for schedule in schedules for window in schedule[1]
                     for r in window}
    integer_weights, weighting_sums = pixton._integer_weights, pixton._weighting_sums
    sampled = set()

    def wrong_checks(first, at, h1):
        num, den = integer_weights(first, at, h1)
        if at != 0 and tuple(first) in first_windows:
            num = [n + 1 for n in num]
        return num, den

    def recorded(wmap, r, orders):
        sampled.add(r)
        return weighting_sums(wmap, r, orders)

    monkeypatch.setattr(pixton, "_integer_weights", wrong_checks)
    monkeypatch.setattr(pixton, "_weighting_sums", recorded)
    assert omega_constant_term(g, points[0][0], d) == expected_class
    assert pixton.weighted_constant_term(g, points, d) == expected_sum
    assert second_moduli <= sampled
