import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tautring import algebra, cli, graphs, pixton, relations, strata
from tautring.graphs import (
    InvalidGraphError,
    StableGraph,
    _canonical_search,
    automorphism_count,
    canonical_graph,
    contract_edge,
    edge_profile,
    enumerate_stable_graphs,
    graph_classes,
    graph_from_json,
    graph_to_json,
    is_stable_pair,
    one_edge_degenerations,
    relabel_legs,
    stable_graph,
    trivial_graph,
    vertex_split_options,
)

import reference_canonical


def test_validate_examples():
    g = stable_graph((1,), (0,), ())
    assert g.genus == 1 and g.n_legs == 1
    loop = stable_graph((0,), (0,), ((0, 0),))
    assert loop.genus == 1
    with pytest.raises(InvalidGraphError):
        stable_graph((0,), (0, 0), ())


def test_validate_rejects_disconnected():
    with pytest.raises(InvalidGraphError):
        stable_graph((1, 1), (0, 1, 1), ())


def test_enumerate_small_spaces():
    assert len(enumerate_stable_graphs(0, 3, 5)) == 1
    assert len(enumerate_stable_graphs(1, 1, 1)) == 2
    assert len(enumerate_stable_graphs(0, 4, 1)) == 4
    with pytest.raises(InvalidGraphError):
        enumerate_stable_graphs(0, 2, 1)


def test_enumerate_deterministic_order():
    first = enumerate_stable_graphs(1, 2, 2)
    second = enumerate_stable_graphs(1, 2, 2)
    assert first == second
    edge_counts = [g.n_edges for g in first]
    assert edge_counts == sorted(edge_counts)


def _reference_enumeration(g, n, limit):
    """Reference enumeration: every candidate validated and labeled by the
    frozen reference search, each level sorted by canonical key."""
    start = reference_canonical.canonical_search(trivial_graph(g, n))[0]
    levels = [{reference_canonical.encoding_key(start): start}]
    for _ in range(limit):
        nxt: dict = {}
        for encoding in levels[-1].values():
            for candidate, _e in one_edge_degenerations(StableGraph(*encoding)):
                checked = stable_graph(candidate.genera, candidate.legs,
                                       candidate.edges)
                canon = reference_canonical.canonical_search(checked)[0]
                nxt.setdefault(reference_canonical.encoding_key(canon), canon)
        if not nxt:
            break
        levels.append(nxt)
    out = []
    for level in levels:
        out.extend(StableGraph(*level[k]) for k in sorted(level))
    return out


@pytest.mark.parametrize("g,n,limit", [(0, 7, 4), (2, 3, 3), (3, 2, 3),
                                       (3, 3, 3)])
def test_enumeration_matches_reference_order(g, n, limit):
    assert enumerate_stable_graphs(g, n, limit) == _reference_enumeration(g, n, limit)


def _relabeled(graph, rng):
    """The graph under a random vertex permutation, edge order and edge
    flips: the same class, presented as enumeration never does."""
    perm = list(range(graph.n_vertices))
    rng.shuffle(perm)
    genera = [0] * graph.n_vertices
    for old, new in enumerate(perm):
        genera[new] = graph.genera[old]
    edges = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a])
             for a, b in graph.edges]
    rng.shuffle(edges)
    return stable_graph(genera, tuple(perm[v] for v in graph.legs), edges)


@pytest.mark.parametrize("g,n,limit,most", [(0, 7, 4, 1), (2, 3, 3, 2),
                                            (3, 3, 3, 6), (3, 4, 3, 6)])
def test_canonical_search_matches_frozen_reference(g, n, limit, most):
    rng = random.Random(1000 * g + n)
    most_orders = 0
    for graph in enumerate_stable_graphs(g, n, limit):
        for presented in (graph, _relabeled(graph, rng), _relabeled(graph, rng)):
            encoding, orders = reference_canonical.canonical_search(presented)
            assert _canonical_search(presented) == (encoding, len(orders))
            most_orders = max(most_orders, len(orders))
    # the most canonical orderings any graph of the space has
    assert most_orders == most


KAPPA_MONOMIALS = ((), ((1, 1),), ((1, 2),), ((2, 1),), ((1, 1), (2, 1)))


@pytest.mark.parametrize("g,n,limit", [(0, 5, 2), (1, 3, 3), (2, 2, 3), (2, 1, 4),
                                       (3, 0, 3), (1, 4, 3)])
def test_canonical_term_matches_frozen_two_stage_choice(g, n, limit):
    # strata._canonical_term labels graph and decoration in one pass; the
    # reference finds the canonical graph first and then the least
    # decoration.  Random presentations and decorations exercise loops and
    # parallel edges, whose psi pairs may flip and permute.  The dimension
    # filter of canonical_term is skipped so that every decoration counts.
    rng = random.Random(100 * g + n)
    for graph in enumerate_stable_graphs(g, n, limit):
        for _ in range(4):
            presented = _relabeled(graph, rng)
            kappa = tuple(rng.choice(KAPPA_MONOMIALS) for _ in presented.genera)
            psi_leg = tuple(rng.randint(0, 1) for _ in presented.legs)
            psi_edge = tuple((rng.randint(0, 2), rng.randint(0, 2))
                             for _ in presented.edges)
            term = strata._canonical_term(presented, kappa, psi_leg, psi_edge)
            encoding, canon_kappa, canon_psi_edge = \
                reference_canonical.canonical_decoration(presented, kappa, psi_edge)
            assert (term.graph, term.kappa, term.psi_leg, term.psi_edge) == \
                (StableGraph(*encoding), canon_kappa, psi_leg, canon_psi_edge), presented


def _revalidates(graph):
    return stable_graph(graph.genera, graph.legs, graph.edges) == graph


@pytest.mark.parametrize("g,n,limit", [(0, 6, 3), (1, 4, 4), (2, 2, 4),
                                       (3, 0, 6)])
def test_enumerated_graphs_are_valid_canonical_representatives(g, n, limit):
    # enumeration and surgery build StableGraph unchecked (module docstring):
    # this is the independent check that every graph enumeration returns,
    # and each of its degenerations and contractions, is stable, connected
    # and held in tuples, and that enumeration returns canonical
    # representatives
    assert _revalidates(trivial_graph(g, n))
    for graph in enumerate_stable_graphs(g, n, limit):
        assert _revalidates(graph) and canonical_graph(graph) == graph
        for degen, e in one_edge_degenerations(graph):
            assert e == graph.n_edges and _revalidates(degen), (graph, degen)
        for e in range(graph.n_edges):
            contracted, _ = contract_edge(graph, e)
            assert _revalidates(contracted), (graph, e)


def _one_object_per_value(values) -> bool:
    return len({id(value) for value in values}) == len(set(values))


@pytest.mark.parametrize("g,n,limit", [(0, 7, 4), (1, 4, 4), (2, 3, 3),
                                       (3, 0, 6)])
def test_enumerated_graphs_share_each_distinct_tuple(g, n, limit):
    # enumeration takes each graph's tuples from the pool (graphs.shared):
    # equal genera, legs or edges tuples are one object, and a graph has
    # slots, not a per-instance dict
    found = enumerate_stable_graphs(g, n, limit)
    assert len({graph.genera for graph in found}) < len(found)
    for field in ("genera", "legs", "edges"):
        assert _one_object_per_value([getattr(graph, field) for graph in found]), field
    assert not hasattr(found[0], "__dict__")


def test_canonical_term_shares_the_enumerated_graphs_tuples():
    # a relabeled presentation's canonical graph is built from the pool, so
    # it holds the enumerated graph's own tuples; so do the canonical kappa
    # and edge-psi tuples of different terms with equal values
    rng = random.Random(7)
    terms = []
    for graph in enumerate_stable_graphs(2, 2, 3):
        presented = _relabeled(graph, rng)
        term = strata.canonical_term(presented, *strata.bare(presented))
        terms.append(term)
        if presented == graph:
            continue
        assert term.graph == graph
        assert term.graph.edges is graph.edges and term.graph.legs is graph.legs
        assert term.graph.genera is graph.genera
    assert sum(1 for term in terms if term.graph.n_edges) > 30
    assert _one_object_per_value([term.kappa for term in terms])
    assert _one_object_per_value([term.psi_edge for term in terms])


def _package_caches():
    """Every lru_cache of the package, by qualified name."""
    return {f"{module.__name__}.{name}": fn
            for module in (algebra, cli, graphs, pixton, relations, strata)
            for name, fn in vars(module).items()
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__}


def test_graph_layer_fills_only_its_own_caches():
    # every cache key stays alive with its cache: enumeration and
    # automorphism counts must leave no throwaway candidate in any other
    # lru_cache of the package, and the graph layer memoizes only
    # enumerations, also when pixton sums over graphs
    caches = _package_caches()
    assert "tautring.strata.canonical_term" in caches
    for fn in caches.values():
        fn.cache_clear()
    for space in ((1, 4, 3), (2, 3, 4)):
        counts = [automorphism_count(graph) for graph in enumerate_stable_graphs(*space)]
        assert len(counts) > 0 and min(counts) >= 1
    own = {"tautring.graphs._enumerate_cached", "tautring.graphs._split_patterns"}
    filled = {name for name, fn in caches.items() if fn.cache_info().currsize}
    assert filled <= own, filled
    pixton.weighted_constant_term(1, [((2, -1, -1), 1), ((1, 1, -2), 3)], 2)
    filled = {name for name, fn in caches.items() if fn.cache_info().currsize}
    assert filled <= own | {"tautring.strata.canonical_term"}, filled


def test_dr_coefficient_on_an_enumerated_space_searches_no_graph(monkeypatch):
    # enumeration hands pixton each class's automorphism count, and
    # canonical_term labels strata without _canonical_search: once the
    # spaces are enumerated, a DR coefficient searches no graph
    relations.dr_relation_coefficient(1, (2, 1, 1, 0))
    for name, fn in _package_caches().items():
        if name != "tautring.graphs._enumerate_cached":
            fn.cache_clear()
    searches = []
    search = graphs._canonical_search
    monkeypatch.setattr(graphs, "_canonical_search",
                        lambda graph: searches.append(graph) or search(graph))
    rel = relations.dr_relation_coefficient(1, (2, 1, 1, 0), {2: 1, 3: 1, 4: 1},
                                            (2, 3, 4, 5))
    assert rel.terms and searches == []


def _connected(nv, edges):
    """Breadth-first search from vertex 0, independent of graphs.union_find."""
    adjacent = [[] for _ in range(nv)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen = {0}
    queue = [0]
    while queue:
        for w in adjacent[queue.pop()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == nv


def _brute_force_graphs(g, n, max_edges, max_vertices):
    """Directly generate every labeled stable graph; exponential, test-only.

    The edge count is forced: E = g - sum(genera) + V - 1.  Connectivity
    depends on the edges alone, so disconnected edge multisets are dropped
    before the leg assignments; stable_graph still validates every other
    candidate."""
    found = {}
    for nv in range(1, max_vertices + 1):
        slots = [(a, b) for a in range(nv) for b in range(a, nv)]
        for genera in itertools.product(range(g + 1), repeat=nv):
            ne = g - sum(genera) + nv - 1
            if ne < 0 or ne > max_edges:
                continue
            combos = [combo for combo in
                      itertools.combinations_with_replacement(slots, ne)
                      if _connected(nv, combo)]
            for legs in itertools.product(range(nv), repeat=n):
                for combo in combos:
                    try:
                        graph = stable_graph(genera, legs, combo)
                    except InvalidGraphError:
                        continue
                    found[graph.canonical_key()] = graph
    return found


@pytest.mark.parametrize("g,n", [(0, 4), (1, 1), (0, 5), (1, 2), (2, 0),
                                 (0, 6), (1, 3), (2, 1), (1, 4)])
def test_enumeration_complete_against_brute_force(g, n):
    dim = 3 * g - 3 + n
    enumerated = {gr.canonical_key() for gr in enumerate_stable_graphs(g, n, dim)}
    brute = _brute_force_graphs(g, n, dim, dim + 1)
    assert set(brute) == enumerated


def test_known_stratum_counts():
    assert len(enumerate_stable_graphs(2, 0, 3)) == 7
    assert len(enumerate_stable_graphs(1, 2, 2)) == 5


def test_canonical_separates_leg_splits():
    k = {}
    for pair in ((1, 2), (1, 3), (1, 4)):
        legs = tuple(0 if i in pair else 1 for i in range(1, 5))
        k[pair] = stable_graph((0, 0), legs, ((0, 1),)).canonical_key()
    assert len(set(k.values())) == 3


def test_canonical_loop_presentation_invariance():
    a = stable_graph((0,), (0,), ((0, 0),))
    assert a.canonical_key() == canonical_graph(a).canonical_key()


def test_canonical_random_relabeling_oracle():
    rng = random.Random(41)
    base = stable_graph((0, 1, 1), (0, 0, 1), ((0, 1), (0, 2), (1, 2), (0, 0)))
    key = base.canonical_key()
    for _ in range(100):
        assert _relabeled(base, rng).canonical_key() == key


def _brute_force_automorphisms(graph):
    """Count (vertex, half-edge) permutations preserving everything; only for
    graphs with few half-edges."""
    halves = [(e, s) for e in range(graph.n_edges) for s in (0, 1)]
    count = 0
    for image in itertools.permutations(halves):
        mapping = dict(zip(halves, image))
        ok = True
        vertex_map = {}
        for (e, s), (e2, s2) in mapping.items():
            # involution equivariance
            if mapping[(e, 1 - s)] != (e2, 1 - s2):
                ok = False
                break
            src = graph.edges[e][s]
            dst = graph.edges[e2][s2]
            if vertex_map.setdefault(src, dst) != dst:
                ok = False
                break
        if not ok:
            continue
        # extend over leg-only vertices; legs force the identity there
        for v in graph.legs:
            vertex_map.setdefault(v, v)
        if len(set(vertex_map.values())) != len(vertex_map):
            continue
        if any(vertex_map.get(v, v) != v for v in graph.legs):
            continue
        if any(graph.genera[src] != graph.genera[dst]
               for src, dst in vertex_map.items()):
            continue
        # leg multisets must be carried along
        legs_at = {v: tuple(lab for lab, w in enumerate(graph.legs, start=1)
                            if w == v)
                   for v in range(graph.n_vertices)}
        if any(legs_at[src] != legs_at[dst] for src, dst in vertex_map.items()):
            continue
        count += 1
    return count


def test_automorphism_examples():
    assert automorphism_count(trivial_graph(1, 1)) == 1
    loop = stable_graph((0,), (0,), ((0, 0),))
    assert automorphism_count(loop) == 2
    banana = stable_graph((0, 0), (1, 1, 1, 1, 0), ((0, 1), (0, 1)))
    assert automorphism_count(banana) == 2


def test_automorphisms_match_brute_force():
    # the count enumeration hands out, the one search of automorphism_count
    # on that presentation and on a random one, and the brute-force oracle
    rng = random.Random(7)
    for g, n in [(1, 1), (1, 2), (2, 0), (0, 4), (0, 5), (2, 1),
                 (1, 3), (3, 0), (0, 6), (2, 2)]:
        classes = list(graph_classes(g, n, 3 * g - 3 + n))
        assert [graph for graph, _ in classes] == \
            enumerate_stable_graphs(g, n, 3 * g - 3 + n)
        for graph, aut in classes:
            assert aut == automorphism_count(graph) == \
                automorphism_count(_relabeled(graph, rng)), graph
            if 2 * graph.n_edges <= 6:
                assert aut == _brute_force_automorphisms(graph), graph


def test_automorphism_divides_half_edge_bound():
    import math
    for graph in enumerate_stable_graphs(2, 0, 3):
        bound = math.factorial(2 * graph.n_edges)
        assert bound % automorphism_count(graph) == 0


def test_contract_examples():
    d12 = stable_graph((0, 0), (0, 0, 1, 1), ((0, 1),))
    contracted, _ = contract_edge(d12, 0)
    assert contracted.canonical_key() == trivial_graph(0, 4).canonical_key()
    loop = stable_graph((0,), (0,), ((0, 0),))
    contracted, _ = contract_edge(loop, 0)
    assert contracted.canonical_key() == trivial_graph(1, 1).canonical_key()


def test_contract_returns_vertex_remap():
    # chain 0 - 1 - 2 with a loop at 2: contracting the middle-to-end edge
    # merges vertex 2 into 1, and the other edges keep their order
    chain = stable_graph((0, 1, 0), (0, 0, 2), ((0, 1), (1, 2), (2, 2)))
    contracted, remap = contract_edge(chain, 1)
    assert remap == (0, 1, 1)
    assert contracted == stable_graph((0, 1), (0, 0, 1), ((0, 1), (1, 1)))
    contracted, remap = contract_edge(chain, 2)
    assert remap == (0, 1, 2)
    assert contracted == stable_graph((0, 1, 1), (0, 0, 2), ((0, 1), (1, 2)))


def test_negative_genus_or_markings_are_not_stable_pairs():
    assert is_stable_pair(0, 3) and is_stable_pair(2, 0)
    for g, n in [(-1, 5), (2, -1), (0, 2), (1, 0)]:
        assert not is_stable_pair(g, n)
        with pytest.raises(InvalidGraphError):
            trivial_graph(g, n)
        with pytest.raises(InvalidGraphError):
            enumerate_stable_graphs(g, n, 1)


def test_contract_preserves_genus_on_one_edge_graphs():
    for graph in enumerate_stable_graphs(2, 0, 1):
        for e in range(graph.n_edges):
            contracted, _ = contract_edge(graph, e)
            assert contracted.genus == graph.genus
            assert contracted.n_legs == graph.n_legs


def test_degeneration_examples():
    assert len(one_edge_degenerations(trivial_graph(1, 1))) == 1
    assert len(one_edge_degenerations(trivial_graph(0, 4))) == 3
    assert len(one_edge_degenerations(trivial_graph(2, 0))) == 2


def test_degeneration_contract_round_trip():
    for g, n in [(1, 2), (2, 0), (0, 5)]:
        for graph in enumerate_stable_graphs(g, n, 2):
            for degen, e in one_edge_degenerations(graph):
                back, _ = contract_edge(degen, e)
                assert back.canonical_key() == graph.canonical_key()


def test_edge_profile():
    d12 = stable_graph((0, 0), (0, 0, 1, 1), ((0, 1),))
    assert edge_profile(d12, 0) == ("sep", 0, (1, 2))
    loop = stable_graph((0,), (0,), ((0, 0),))
    assert edge_profile(loop, 0) == ("irr",)
    # side data includes cycle rank: a loop on one side adds genus; the
    # canonical side is the lexicographically smaller (genus, legs) pair
    g = stable_graph((0, 1), (0, 0), ((0, 0), (0, 1)))
    assert edge_profile(g, 1) == ("sep", 1, ())


def test_relabel_legs():
    d12 = stable_graph((0, 0), (0, 0, 1, 1), ((0, 1),))
    moved = relabel_legs(d12, {1: 3, 2: 4, 3: 1, 4: 2})
    d34 = stable_graph((0, 0), (1, 1, 0, 0), ((0, 1),))
    assert moved.canonical_key() == d34.canonical_key()


@pytest.mark.parametrize("perm", [{True: 2, 2: 1, 3: 3, 4: 4}, {1.0: 2, 2: 1, 3: 3, 4: 4},
                                  {1: 2.0, 2: 1, 3: 3, 4: 4}])
def test_relabel_legs_refuses_non_int_labels(perm):
    # a bool label was read as 1, and a float one raised TypeError
    with pytest.raises(InvalidGraphError):
        relabel_legs(stable_graph((0, 0), (0, 0, 1, 1), ((0, 1),)), perm)
    with pytest.raises(InvalidGraphError):
        strata.TautClass.psi(0, 4, 1).relabel_legs(perm)


def test_graph_json_round_trip():
    for graph in enumerate_stable_graphs(1, 2, 2):
        data = graph_to_json(graph)
        back = graph_from_json(data)
        assert back.canonical_key() == graph.canonical_key()


def test_graph_from_json_rejects_malformed_edges_and_legs():
    two_vertices = {"vertices": [0, 0], "legs": [[1, 0], [2, 0], [3, 1], [4, 1]],
                    "edges": [[[0, 0], [1, 0]]]}
    assert graph_from_json(two_vertices) == stable_graph((0, 0), (0, 0, 1, 1),
                                                         ((0, 1),))
    # an edge with a third half-edge is not cut to its first two
    three_halves = {**two_vertices, "edges": [[[0, 0], [1, 0], [1, 1]]]}
    with pytest.raises(InvalidGraphError, match="edge 0 has 3 half-edges"):
        graph_from_json(three_halves)
    # a duplicate or a missing leg label, rather than a bare KeyError
    for legs in ([[1, 0], [2, 0], [2, 1], [4, 1]], [[1, 0], [2, 0], [4, 1]],
                 [[1, 0], [1, 0], [2, 0], [3, 1], [4, 1]]):
        with pytest.raises(InvalidGraphError, match="leg labels"):
            graph_from_json({**two_vertices, "legs": legs})


def test_canonical_key_is_hex():
    key = trivial_graph(1, 1).canonical_key()
    assert set(key) <= set("0123456789abcdef")


def _reference_split_options(gv, tags):
    """Reference split generator: both sides built for every bit pattern,
    then ordered and stability-checked."""
    for g1 in range(gv + 1):
        for bits in itertools.product((0, 1), repeat=len(tags)):
            side1 = tuple(t for t, b in zip(tags, bits) if b)
            side2 = tuple(t for t, b in zip(tags, bits) if not b)
            if (g1, side1) > (gv - g1, side2):
                continue
            if 2 * g1 - 2 + len(side1) + 1 <= 0:
                continue
            if 2 * (gv - g1) - 2 + len(side2) + 1 <= 0:
                continue
            yield g1, side2


_TAGS = st.one_of(st.tuples(st.just("l"), st.integers(1, 9)),
                  st.tuples(st.just("h"), st.integers(0, 8), st.integers(0, 1)))


@settings(max_examples=100, deadline=None)
@given(gv=st.integers(0, 3), tags=st.lists(_TAGS, max_size=8, unique=True))
def test_split_options_match_reference(gv, tags):
    assert list(vertex_split_options(gv, tags)) == \
        list(_reference_split_options(gv, tags))
