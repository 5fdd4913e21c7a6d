import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tautring import graphs, strata
from tautring.algebra import MultiPoly
from tautring.graphs import (
    StableGraph,
    enumerate_stable_graphs,
    graph_to_json,
    stable_graph,
    trivial_graph,
)
from tautring.strata import (
    AmbientMismatchError,
    TautClass,
    bare,
    boundary_divisor_class,
    canonical_term,
    gluing_pushforward,
    mul_divisor_sum,
    normalize_divisor,
)

from ci_checks import digest
from dict_decoration import decorated
from reference_divisor import hand_built_divisor_class
from reference_gluing import offset_map_gluing_pushforward


def psi(g, n, i, c=1):
    return TautClass.psi(g, n, i, Fraction(c))


def kappa(g, n, a):
    return TautClass.kappa(g, n, a)


def loop_stratum(g, n):
    return boundary_divisor_class(g, n, ("irr",)) * 2


# -- normalization -----------------------------------------------------------

def test_normalize_merges_like_terms():
    assert psi(1, 1, 1) + psi(1, 1, 1) == psi(1, 1, 1, 2)


def test_class_compares_unequal_to_a_non_class():
    assert TautClass(0, 3) != 0
    assert not TautClass(0, 3) == 0
    assert TautClass.fundamental(0, 3) != "1"


def test_normalize_drops_over_dimension():
    # codimension 2 on the 4-marked genus-0 space (dimension 1)
    assert psi(0, 4, 1).mul_psi(2).is_zero()


def test_incidence_tables_match_per_vertex_definition():
    # attachments(), valences() and the decoration degrees behind the
    # dimension check, against per-vertex scans of legs and edges
    rng = random.Random(6)

    def exponent():
        # mostly zero, so that about a quarter of the decorations fit
        return rng.choice((0,) * 17 + (1, 2))

    for g, n in [(0, 6), (1, 4), (2, 2)]:
        for graph in enumerate_stable_graphs(g, n, 3 * g - 3 + n):
            tags_at = [[("l", lab) for lab, w in enumerate(graph.legs, start=1)
                        if w == v]
                       + [("h", e, s) for e, ends in enumerate(graph.edges)
                          for s in (0, 1) if ends[s] == v]
                       for v in range(graph.n_vertices)]
            assert graph.attachments() == tags_at
            assert graph.valences() == [len(tags) for tags in tags_at]
            for _ in range(3):
                kappa = tuple(tuple((a, x) for a, x in ((1, exponent()),
                                                        (2, exponent())) if x)
                              for _ in graph.genera)
                psi_leg = tuple(exponent() for _ in graph.legs)
                psi_edge = tuple((exponent(), exponent()) for _ in graph.edges)
                degrees = [
                    sum(a * x for a, x in kappa[v])
                    + sum(psi_leg[tag[1] - 1] if tag[0] == "l"
                          else psi_edge[tag[1]][tag[2]] for tag in tags_at[v])
                    for v in range(graph.n_vertices)]
                assert strata._vertex_degrees(graph, kappa, psi_leg,
                                              psi_edge) == degrees
                fits = all(degrees[v] <= 3 * graph.genera[v] - 3 + len(tags_at[v])
                           for v in range(graph.n_vertices))
                assert strata._local_dim_ok(graph, kappa, psi_leg, psi_edge) == fits
                term = canonical_term(graph, kappa, psi_leg, psi_edge)
                assert (term is not None) == fits
                if term is not None:
                    assert sorted(term.vertex_degrees()) == sorted(degrees)


def test_canonical_term_takes_the_stored_decoration_form():
    # the decoration goes in as a StrataTerm holds it; anything else is a
    # ValueError, not a silently different stratum
    graph = stable_graph((1, 0), (0, 1, 1), ((0, 1),))
    kappa, psi_leg, psi_edge = (((1, 1),), ()), (1, 0, 0), ((0, 0),)
    term = canonical_term(graph, kappa, psi_leg, psi_edge)
    assert term.degree == 3 and term.psi_leg == psi_leg
    assert canonical_term(graph, *bare(graph)) is not None
    bad = {
        "one kappa monomial short": (kappa[:1], psi_leg, psi_edge),
        "a leg too many": (kappa, psi_leg + (0,), psi_edge),
        "an edge too many": (kappa, psi_leg, psi_edge + ((0, 0),)),
        "negative leg psi": (kappa, (0, -1, 0), psi_edge),
        "negative edge psi": (kappa, psi_leg, ((0, -1),)),
        "negative kappa exponent": ((((1, -1),), ()), psi_leg, psi_edge),
        "zero kappa exponent": ((((1, 0),), ()), psi_leg, psi_edge),
        "kappa index zero": ((((0, 1),), ()), psi_leg, psi_edge),
        "decreasing kappa indices": ((((2, 1), (1, 1)), ()), psi_leg, psi_edge),
        "repeated kappa index": ((((1, 1), (1, 1)), ()), psi_leg, psi_edge),
    }
    for decoration in bad.values():
        with pytest.raises(ValueError):
            canonical_term(graph, *decoration)
        with pytest.raises(ValueError):
            TautClass(1, 3).add_term(graph, *decoration, Fraction(1))


def test_one_canonical_search_per_new_term(monkeypatch):
    # canonical_term is the memo: each new key is checked and filtered by
    # dimension once, and each memoized stratum other than None makes one
    # labeling pass over the vertex orderings, which gives both the
    # canonical graph and the decoration on it; no other labeling pass runs
    calls, filtered = [], []
    orders, dim_ok = graphs._candidate_orders, strata._local_dim_ok

    def ordering(graph):
        calls.append(graph)
        return orders(graph)

    def filtering(*key):
        fits = dim_ok(*key)
        if not fits:
            filtered.append(key)
        return fits

    monkeypatch.setattr(graphs, "_candidate_orders", ordering)
    monkeypatch.setattr(strata, "_candidate_orders", ordering)
    monkeypatch.setattr(strata, "_local_dim_ok", filtering)
    strata.canonical_term.cache_clear()
    c = psi(2, 2, 1).mul_boundary(("irr",)).mul_boundary(("irr",)) \
        .mul_boundary(("sep", 1, ()))
    c = c + c.forget_pushforward().forget_pullback()
    assert TautClass.from_json(c.to_json()) == c
    info = strata.canonical_term.cache_info()
    assert info.hits > 0 and len(calls) == info.misses - len(filtered) > 0
    assert max(term.graph.h1 for term in c.terms) == 2
    # an out-of-dimension key is filtered once; asked again, the memo
    # answers None without the filter
    over = (trivial_graph(0, 4), ((),), (1, 1, 0, 0), ())
    before = len(filtered)
    assert canonical_term(*over) is None and canonical_term(*over) is None
    assert filtered[before:] == [over]
    assert strata.canonical_term.cache_info().misses == info.misses + 1


def test_non_int_decoration_is_refused_and_memoizes_nothing():
    # a bool or float exponent or kappa index is a ValueError that leaves
    # no entry behind, so no later int key is served a term holding True
    # or 1.0 (which to_json would write as `true` or `1.0`)
    strata.canonical_term.cache_clear()
    graph = trivial_graph(0, 4)
    for kappa, psi_leg in ((((),), (0, 0, 0, True)), (((),), (0, 0, 0, 1.0)),
                           ((((1, True),),), (0, 0, 0, 0)),
                           ((((1.0, 1),),), (0, 0, 0, 0))):
        with pytest.raises(ValueError):
            canonical_term(graph, kappa, psi_leg, ())
    loop = stable_graph((0,), (0,), ((0, 0),))
    with pytest.raises(ValueError):
        canonical_term(loop, ((),), (0,), ((False, 0),))
    # so is a genus, leg vertex or edge end of a graph built unchecked:
    # canonical graphs take their tuples from a pool that holds ints only
    # (graphs.shared), and a graph already in canonical form is kept as built
    for zero, one in ((False, True), (0.0, 1.0)):
        for built in (StableGraph((one, 0), (0, 1, 1), ((0, 1),)),
                      StableGraph((0,), (zero,) * 3, ()),
                      StableGraph((0, 0), (0, 0, one, 1), ((0, 1),)),
                      StableGraph((0, 0), (0, 0, 1, 1), ((zero, 1),))):
            with pytest.raises(ValueError, match="genera"):
                canonical_term(built, *bare(built))
    assert strata.canonical_term.cache_info().currsize == 0
    for bad in ({4: 1.0}, {4: True}):
        with pytest.raises(ValueError):
            TautClass.monomial(0, 4, bad)
    with pytest.raises(ValueError):
        TautClass.monomial(0, 4, kappas={1: 1.0})
    assert TautClass.psi(0, 4, 4).to_json()["terms"][0]["decoration"]["psi_legs"] \
        == [0, 0, 0, 1]
    # served, not refused: a key equal to a memoized int key gets its term
    served = canonical_term(graph, ((),), (0, 0, 0, True), ())
    assert [type(x) for x in served.psi_leg] == [int] * 4


def test_psi_label_outside_the_markings_is_rejected():
    for i in (0, 2, -1):
        with pytest.raises(ValueError):
            TautClass.psi(1, 1, i)
    with pytest.raises(ValueError):
        TautClass.monomial(0, 4, psi_exps={5: 1, 1: 1})
    # a zero exponent names no class, wherever its label
    assert TautClass.monomial(0, 4, psi_exps={5: 0, 1: 1}) == psi(0, 4, 1)


@pytest.mark.parametrize("label", [True, 4.0])
def test_monomial_refuses_a_non_int_psi_label(label):
    # True == 1 and 4.0 == 4: {True: 1} gave psi1 and {4.0: 1} psi4
    with pytest.raises(ValueError, match="must be ints"):
        TautClass.monomial(0, 4, {label: 1})


@pytest.mark.parametrize("label", [True, 2.0])
def test_mul_psi_refuses_a_non_int_label(label):
    # mul_psi(True) multiplied by psi1, and mul_psi(2.0) raised TypeError
    with pytest.raises(ValueError, match="no leg labeled"):
        TautClass.fundamental(0, 4).mul_psi(label)


def test_mul_kappa_refuses_a_non_int_index_on_any_class():
    # on a nonzero class canonical_term refused the (True, 1) pair; the zero
    # class, which builds no term, returned zero
    with pytest.raises(ValueError, match="not an int"):
        TautClass(0, 4).mul_kappa(True)


def test_normalize_identifies_isomorphic_presentations():
    banana_a = stable_graph((0, 0), (0, 1), ((0, 1), (0, 1)))
    banana_b = stable_graph((0, 0), (1, 0), ((1, 0), (0, 1)))
    c = TautClass(1, 2).add_term(banana_a, *bare(banana_a), Fraction(1)) \
        .add_term(banana_b, *bare(banana_b), Fraction(1))
    assert len(c.terms) == 1
    assert next(iter(c.terms.values())) == 2


def test_normalize_rejects_mixed_ambient():
    with pytest.raises(AmbientMismatchError):
        psi(1, 1, 1) + psi(1, 2, 1)
    with pytest.raises(AmbientMismatchError):
        TautClass(0, 4).add_term(trivial_graph(0, 5), *bare(trivial_graph(0, 5)),
                                 Fraction(1))
    # a serialized class whose stratum has more legs than the class declares
    data = boundary_divisor_class(1, 2, ("irr",)).to_json()
    data["n"] = 1
    with pytest.raises(AmbientMismatchError):
        TautClass.from_json(data)


def test_negative_genus_or_markings_are_rejected():
    for g, n in [(-1, 5), (2, -1)]:
        with pytest.raises(AmbientMismatchError):
            TautClass(g, n)


# -- products with generators -------------------------------------------------

def test_mul_psi_fundamental():
    assert TautClass.fundamental(1, 1).mul_psi(1) == psi(1, 1, 1)


def test_mul_psi_kills_small_genus_zero_side():
    # two psi-classes on a three-marked genus-0 boundary piece vanish
    d23 = boundary_divisor_class(1, 5, ("sep", 0, (2, 3)))
    assert d23.mul_psi(2).mul_psi(3).is_zero()


def test_mul_kappa_on_irreducible_divisor():
    c = boundary_divisor_class(1, 1, ("irr",)).mul_kappa(1)
    loop = stable_graph((0,), (0,), ((0, 0),))
    expected = TautClass(1, 1).add_term(*decorated(loop, {0: {1: 1}}, {}, {}),
                                        Fraction(1, 2))
    assert c == expected


def test_unstable_divisor_conventions():
    assert normalize_divisor(2, 3, ("sep", 0, ())) == ("zero",)
    assert normalize_divisor(2, 3, ("sep", 2, (1, 2, 3))) == ("zero",)
    assert normalize_divisor(2, 3, ("sep", 0, (2,))) == ("psi", 2)
    assert normalize_divisor(2, 3, ("sep", 2, (1, 3))) == ("psi", 2)
    # multiplying by an unstable divisor is psi-multiplication with a sign
    c = TautClass.fundamental(1, 2).mul_boundary(("sep", 0, (1,)))
    assert c == -psi(1, 2, 1)


def test_divisor_double_description_same_class():
    a = boundary_divisor_class(1, 5, ("sep", 0, (1, 2)))
    b = boundary_divisor_class(1, 5, ("sep", 1, (3, 4, 5)))
    assert a == b


@pytest.mark.parametrize("g, n, divisor", [
    (1, 2, ("sep", True, (1,))), (0, 5, ("sep", 0.0, (1, 2))), (0, 5, ("sep", 0, (1.0, 2))),
    (0, 5, ("sep", 0, (True, 2))), (0, 5, ("sep", 0, (1, 1)))])
def test_divisor_spec_refuses_bools_floats_and_repeated_legs(g, n, divisor):
    # each was read as the int spec it equals, a repeated leg as one leg
    with pytest.raises(ValueError):
        normalize_divisor(g, n, divisor)
    with pytest.raises(ValueError):
        boundary_divisor_class(g, n, divisor)
    with pytest.raises(ValueError):
        TautClass.fundamental(g, n).mul_boundary(divisor)


def test_divisor_class_is_the_product_with_the_fundamental_class():
    # boundary_divisor_class, the product of the fundamental class with the
    # divisor, writes the bytes of the hand-built divisor class on every
    # divisor spec, including the loop and the attachment-free symmetric
    # split (unmarked genus 2 and 4), each 2:1 onto its divisor: weight 1/2
    spaces = [(0, n) for n in range(3, 9)] + [(1, n) for n in range(1, 6)] \
        + [(2, n) for n in range(5)] + [(3, n) for n in range(5)] + [(4, 0), (4, 1)]
    for g, n in spaces:
        divisors = [("irr",)] + [
            ("sep", h, P) for h in range(g + 1) for size in range(n + 1)
            for P in itertools.combinations(range(1, n + 1), size)]
        for d in divisors:
            assert boundary_divisor_class(g, n, d).to_json() == \
                hand_built_divisor_class(g, n, d).to_json(), (g, n, d)
    symmetric = boundary_divisor_class(2, 0, ("sep", 1, ()))
    assert list(symmetric.terms.values()) == [Fraction(1, 2)]


@pytest.mark.parametrize("divisor", [
    ("irr", "junk"), ("sep", 0, (1, 2), "extra"), ("sep", 0), ("sep",), ("psi", 1, 2)])
def test_divisor_spec_refuses_a_malformed_spec(divisor):
    # normalize_divisor read only the first elements: ("irr", "junk") was
    # ("irr",), the extra entry was ignored, and ("sep", 0) raised IndexError
    if divisor[0] != "psi":
        with pytest.raises(ValueError, match="unknown divisor"):
            normalize_divisor(0, 5, divisor)
        with pytest.raises(ValueError, match="unknown divisor"):
            boundary_divisor_class(0, 5, divisor)
    with pytest.raises(ValueError, match="unknown divisor"):
        mul_divisor_sum(TautClass.fundamental(0, 5), [(divisor, Fraction(1))])


@pytest.mark.parametrize("make", [
    pytest.param(lambda: TautClass.fundamental(0, 4) * 0.1, id="mul"),
    pytest.param(lambda: 0.1 * TautClass.fundamental(0, 4), id="rmul"),
    pytest.param(lambda: TautClass.fundamental(0, 4) * True, id="mul-bool"),
    pytest.param(lambda: TautClass.monomial(0, 4, {1: 1}, coeff=0.1), id="monomial"),
    pytest.param(lambda: mul_divisor_sum(TautClass.fundamental(0, 5),
                                         [(("sep", 0, (1, 2)), 0.1)]), id="divisor-sum")])
def test_float_and_bool_scalars_are_refused(make):
    # each kept the float, and True was read as 1: fundamental(0, 4) * 0.1
    # wrote the coefficient "3602879701896397/36028797018963968"
    with pytest.raises(ValueError, match="not an int, Fraction or MultiPoly"):
        make()


def test_exact_scalars_are_accepted():
    for scalar in (3, Fraction(1, 3), MultiPoly.variable(("a1",), "a1")):
        for c in (TautClass.fundamental(0, 4) * scalar,
                  TautClass.monomial(0, 4, {1: 1}, coeff=scalar),
                  mul_divisor_sum(TautClass.fundamental(0, 5), [(("sep", 0, (1, 2)), scalar)])):
            assert list(c.terms.values()) == [scalar]


def test_boundary_product_empty_intersection():
    d12 = boundary_divisor_class(0, 4, ("sep", 0, (1, 2)))
    assert d12.mul_boundary(("sep", 0, (1, 3))).is_zero()


def test_boundary_self_product_excess():
    d12 = boundary_divisor_class(0, 5, ("sep", 0, (1, 2)))
    sq = d12.mul_boundary(("sep", 0, (1, 2)))
    graph = stable_graph((0, 0), (0, 0, 1, 1, 1), ((0, 1),))
    expected = TautClass(0, 5).add_term(*decorated(graph, {}, {}, {(0, 1): 1}),
                                        Fraction(-1))
    # the node psi on the three-marked side dies; only the five-marked side
    # survives, and there are no compatible degenerations
    assert sq == expected
    # on the 7-marked space, a stratum of D = delta_0,{1,2,3} whose node
    # carries psi on the four-marked side only: the excess -psi' - psi''
    # raises each side of the pair (0, 1) once, and both terms fit
    graph = stable_graph((0, 0), (0, 0, 0, 1, 1, 1, 1), ((0, 1),))
    c = TautClass(0, 7).add_term(*decorated(graph, {}, {}, {(0, 1): 1}), Fraction(1))
    expected = TautClass(0, 7).add_term(
        *decorated(graph, {}, {}, {(0, 0): 1, (0, 1): 1}), Fraction(-1)) \
        .add_term(*decorated(graph, {}, {}, {(0, 1): 2}), Fraction(-1))
    assert c.mul_boundary(("sep", 0, (1, 2, 3))) == expected


def test_boundary_product_transverse():
    d12 = boundary_divisor_class(0, 5, ("sep", 0, (1, 2)))
    prod = d12.mul_boundary(("sep", 0, (3, 4)))
    chain = stable_graph((0, 0, 0), (0, 0, 1, 1, 2), ((0, 2), (1, 2)))
    expected = TautClass(0, 5).add_term(chain, *bare(chain), Fraction(1))
    assert prod == expected


def test_boundary_product_commutes():
    for g, n in [(1, 2), (0, 5)]:
        divisors = [("irr",)]
        for h in range(g + 1):
            for size in range(n + 1):
                for P in itertools.combinations(range(1, n + 1), size):
                    if normalize_divisor(g, n, ("sep", h, P))[0] == "sep":
                        divisors.append(normalize_divisor(g, n, ("sep", h, P)))
        divisors = list(dict.fromkeys(divisors))
        base = TautClass.fundamental(g, n)
        for d1, d2 in itertools.combinations(divisors, 2):
            lhs = base.mul_boundary(d1).mul_boundary(d2)
            rhs = base.mul_boundary(d2).mul_boundary(d1)
            assert lhs == rhs, (g, n, d1, d2)


def test_irr_self_product_multiplicity():
    # frozen value: the self-intersection of the irreducible divisor on the
    # two-marked genus-1 space is -psi-on-the-loop plus the double-edge
    # stratum; its zero-cycle degree (both strata integrate to 1) cancels,
    # matching the vanishing of the square of a divisor pulled back from the
    # one-marked space
    dirr = boundary_divisor_class(1, 2, ("irr",))
    sq = dirr.mul_boundary(("irr",))
    loop = stable_graph((0,), (0, 0), ((0, 0),))
    banana = stable_graph((0, 0), (0, 1), ((0, 1), (0, 1)))
    expected = TautClass(1, 2).add_term(*decorated(loop, {}, {}, {(0, 1): 1}),
                                        Fraction(-1)) \
        + TautClass(1, 2).add_term(banana, *bare(banana), Fraction(1))
    assert sq == expected


# -- gluing -------------------------------------------------------------------

def test_glue_fundamental_loop_gives_irr_stratum():
    L = stable_graph((0,), (0,), ((0, 0),))
    glued = gluing_pushforward(L, [TautClass.fundamental(0, 3)])
    assert glued == loop_stratum(1, 1)


def test_glue_decorated_tree():
    T1 = stable_graph((1, 0), (1, 1), ((0, 1),))
    glued = gluing_pushforward(T1, [psi(1, 1, 1), TautClass.fundamental(0, 3)])
    expected = TautClass(1, 2).add_term(*decorated(T1, {}, {}, {(0, 0): 1}),
                                        Fraction(1))
    assert glued == expected


def test_glue_rejects_wrong_vertex_space():
    T1 = stable_graph((1, 0), (1, 1), ((0, 1),))
    m12, m03 = TautClass.fundamental(1, 2), TautClass.fundamental(0, 3)
    for classes in ([m03, m03], [m12], [m12, m03, m03]):
        with pytest.raises(AmbientMismatchError):
            gluing_pushforward(T1, classes)


def test_glue_two_stage_matches_direct():
    # degenerate one vertex of a glued graph and compare with gluing the
    # composite graph in a single step
    ambient = stable_graph((1, 1), (0,), ((0, 1),))
    inner = loop_stratum(1, 1)  # the loop stratum as a class on (1,1)
    staged = gluing_pushforward(ambient, [TautClass.fundamental(1, 2), inner])
    direct_graph = stable_graph((1, 0), (0,), ((0, 1), (1, 1)))
    direct = TautClass(2, 1).add_term(direct_graph, *bare(direct_graph), Fraction(1))
    assert staged == direct

    # same with a separating degeneration inside a two-marked genus-1 vertex:
    # the marked vertex of a two-component graph degenerates into a chain
    ambient2 = stable_graph((1, 1), (0,), ((0, 1),))
    inner_graph = stable_graph((1, 0), (1, 1), ((0, 1),))
    inner2 = TautClass(1, 2).add_term(inner_graph, *bare(inner_graph), Fraction(1))
    staged2 = gluing_pushforward(ambient2, [inner2, TautClass.fundamental(1, 1)])
    direct_graph2 = stable_graph((1, 0, 1), (1,), ((0, 1), (1, 2)))
    direct2 = TautClass(2, 1).add_term(direct_graph2, *bare(direct_graph2), Fraction(1))
    assert staged2 == direct2


def test_projection_formula_psi_through_glue():
    # psi at a leg commutes with gluing, for graphs with <= 2 edges in genus <= 2
    for g, n in [(1, 2), (2, 1)]:
        for ambient in enumerate_stable_graphs(g, n, 2):
            if ambient.n_edges == 0:
                continue
            attachments = ambient.attachments()
            classes = [TautClass.fundamental(ambient.genera[u], len(attachments[u]))
                       for u in range(ambient.n_vertices)]
            glued = gluing_pushforward(ambient, classes)
            for lab in range(1, n + 1):
                v = ambient.legs[lab - 1]
                rank = attachments[v].index(("l", lab)) + 1
                inner = list(classes)
                inner[v] = classes[v].mul_psi(rank)
                lhs = glued.mul_psi(lab)
                rhs = gluing_pushforward(ambient, inner)
                assert lhs == rhs, (g, n, ambient, lab)


def _reference_gluing_pushforward(ambient, vertex_classes):
    """Frozen reference: the hand-indexed gluing, one pass each for vertex
    offsets, local kappa and edges, ambient legs by rank, and ambient edges
    by the rank of each half-edge among its vertex's attachments."""
    g, n = ambient.genus, ambient.n_legs
    markings = ambient.attachments()
    out = TautClass(g, n)
    for combo in itertools.product(*[cls.sorted_terms() for cls in vertex_classes]):
        coeff = Fraction(1)
        offsets = []
        total = 0
        for term, c in combo:
            coeff = coeff * c if offsets else c
            offsets.append(total)
            total += term.graph.n_vertices
        genera = []
        for term, _ in combo:
            genera.extend(term.graph.genera)
        legs = [None] * n
        psi_leg = {}
        edges = []
        psi_edge = {}
        kappa = {}
        for v, (term, _) in enumerate(combo):
            off = offsets[v]
            for w, vk in enumerate(term.kappa):
                if vk:
                    kappa[off + w] = {a: x for a, x in vk}
            for e, (a, b) in enumerate(term.graph.edges):
                idx = len(edges)
                edges.append((off + a, off + b))
                p, q = term.psi_edge[e]
                if p:
                    psi_edge[(idx, 0)] = p
                if q:
                    psi_edge[(idx, 1)] = q
        for v, (term, _) in enumerate(combo):
            off = offsets[v]
            for rank, tag in enumerate(markings[v]):
                if tag[0] != "l":
                    continue
                lab = tag[1]
                legs[lab - 1] = off + term.graph.legs[rank]
                y = term.psi_leg[rank]
                if y:
                    psi_leg[lab] = y
        for e, (a, b) in enumerate(ambient.edges):
            ra = markings[a].index(("h", e, 0))
            rb = markings[b].index(("h", e, 1))
            term_a = combo[a][0]
            term_b = combo[b][0]
            idx = len(edges)
            edges.append((offsets[a] + term_a.graph.legs[ra],
                          offsets[b] + term_b.graph.legs[rb]))
            ya = term_a.psi_leg[ra]
            yb = term_b.psi_leg[rb]
            if ya:
                psi_edge[(idx, 0)] = ya
            if yb:
                psi_edge[(idx, 1)] = yb
        out.add_term(*decorated(stable_graph(genera, legs, edges), kappa, psi_leg,
                                psi_edge), coeff)
    return out


def _random_vertex_class(rng, g, n, coefficient, max_edges=1):
    """Three seeded terms on (g, n): strata with at most max_edges edges,
    random kappa, leg and edge psi decorations, and coefficient(rng) each."""
    candidates = enumerate_stable_graphs(g, n, max_edges)
    out = TautClass(g, n)
    for _ in range(3):
        graph = rng.choice(candidates)
        out.add_term(*decorated(graph, *_random_decoration(rng, graph)),
                     coefficient(rng))
    return out


def _random_fraction(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))


def test_glue_matches_hand_indexed_reference():
    # every ambient graph with one or two edges, with seeded vertex classes
    # of several terms; the glued classes must agree to the byte
    rng = random.Random(16)
    checked = 0
    for g, n in [(0, 5), (0, 6), (1, 3), (1, 4), (2, 2), (2, 3)]:
        for ambient in enumerate_stable_graphs(g, n, 2):
            if ambient.n_edges == 0:
                continue
            classes = [_random_vertex_class(rng, gv, len(tags), _random_fraction)
                       for gv, tags in zip(ambient.genera, ambient.attachments())]
            glued = gluing_pushforward(ambient, classes)
            assert glued.to_json() == \
                _reference_gluing_pushforward(ambient, classes).to_json(), ambient
            checked += not glued.is_zero()
    assert checked > 200


def test_glue_matches_hand_indexed_reference_with_polynomial_coefficients():
    variables = ("a1", "a2")
    a1, a2 = (MultiPoly.variable(variables, v) for v in variables)
    rng = random.Random(7)

    def polynomial(rng):
        return a1 * _random_fraction(rng) + a2 * a2 * _random_fraction(rng)

    ambient = stable_graph((1, 0), (0, 1, 1, 1), ((0, 1), (0, 1)))
    classes = [_random_vertex_class(rng, gv, len(tags), polynomial)
               for gv, tags in zip(ambient.genera, ambient.attachments())]
    glued = gluing_pushforward(ambient, classes)
    assert not glued.is_zero()
    assert glued.to_json() == _reference_gluing_pushforward(ambient, classes).to_json()


def test_glue_matches_frozen_offset_map_gluing():
    # gluing_pushforward splices each vertex's term into the bare ambient
    # graph; the frozen reference concatenates the vertex graphs at offsets.
    # The ambient graphs carry loops, parallel edges, legless and
    # positive-genus vertices, and so do the seeded vertex classes
    rng = random.Random(29)
    seen, checked = set(), 0
    for g, n in [(2, 0), (2, 1), (1, 2), (1, 3), (0, 6)]:
        for ambient in enumerate_stable_graphs(g, n, 3):
            if ambient.n_edges == 0:
                continue
            tags = ambient.attachments()
            seen.update(feature for feature, present in (
                ("loop", any(a == b for a, b in ambient.edges)),
                ("parallel", len(set(ambient.edges)) < ambient.n_edges),
                ("legless", any(not any(t[0] == "l" for t in ts) for ts in tags)),
                ("positive genus", max(ambient.genera) > 0)) if present)
            classes = [_random_vertex_class(rng, gv, len(ts), _random_fraction, 2)
                       for gv, ts in zip(ambient.genera, tags)]
            glued = gluing_pushforward(ambient, classes)
            assert glued.to_json() == \
                offset_map_gluing_pushforward(ambient, classes).to_json(), ambient
            checked += not glued.is_zero()
    assert seen == {"loop", "parallel", "legless", "positive genus"} and checked > 250


# -- forgetful maps -----------------------------------------------------------

def test_pullback_psi_examples():
    c = psi(0, 4, 1).forget_pullback()
    assert c == psi(0, 5, 1) - boundary_divisor_class(0, 5, ("sep", 0, (1, 5)))
    c = kappa(1, 1, 1).forget_pullback()
    assert c == kappa(1, 2, 1) - psi(1, 2, 2)
    assert TautClass(1, 1).forget_pullback().is_zero()


def test_pullback_then_multiply_then_push_is_kappa():
    # pi_*(pullback(c) * psi_new^{k+1}) = c * kappa_k on monomials, degree <= 4
    for monomial in [{}, {1: 1}, {1: 2}]:
        for k in range(0, 3):
            c = TautClass.monomial(1, 2, psi_exps=monomial)
            up = c.forget_pullback()
            for _ in range(k + 1):
                up = up.mul_psi(3)
            down = up.forget_pushforward()
            if k >= 1:
                assert down == c.mul_kappa(k), (monomial, k)
            else:
                assert down == c * Fraction(2 * 1 - 2 + 2), monomial


def test_pushforward_psi_power_examples():
    for g, n in [(1, 1), (2, 1)]:
        for k in range(1, 5):
            if k > 3 * g - 3 + n:
                continue
            c = TautClass.monomial(g, n + 1, psi_exps={n + 1: k + 1})
            assert c.forget_pushforward() == kappa(g, n, k), (g, n, k)


def test_pushforward_of_one_vanishes():
    assert TautClass.fundamental(1, 2).forget_pushforward().is_zero()
    assert TautClass.fundamental(2, 1).forget_pushforward().is_zero()


def _faber_pushforward(g, m, ks):
    """Symmetric-group oracle for pushing prod psi_{m+i}^{k_i + 1}."""
    out = TautClass(g, m)
    size = len(ks)
    kappa0 = Fraction(2 * g - 2 + m)
    for perm in itertools.permutations(range(size)):
        seen = [False] * size
        cycles = []
        for start in range(size):
            if seen[start]:
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = perm[x]
            cycles.append(sum(ks[i] for i in cycle))
        coeff = Fraction(1)
        kappas = {}
        for total in cycles:
            if total == 0:
                coeff *= kappa0
            else:
                kappas[total] = kappas.get(total, 0) + 1
        out = out + TautClass.monomial(g, m, kappas=kappas, coeff=coeff)
    return out


@pytest.mark.parametrize("g,m,ks", [
    (1, 1, (0, 0)), (1, 1, (1, 0)), (1, 2, (0, 0)), (2, 1, (1, 1)),
    (1, 1, (2, 1)), (2, 1, (0, 0, 0)), (1, 1, (1, 1, 0)),
])
def test_pushforward_matches_permutation_formula(g, m, ks):
    n = m + len(ks)
    exps = {m + i + 1: k + 1 for i, k in enumerate(ks)}
    pushed = TautClass.monomial(g, n, psi_exps=exps).pushforward_to(m)
    assert pushed == _faber_pushforward(g, m, ks)


def test_two_point_pushforward_value():
    pushed = TautClass.monomial(1, 3, psi_exps={2: 1, 3: 1}).pushforward_to(1)
    k0 = Fraction(2 * 1 - 2 + 1)
    assert pushed == TautClass.fundamental(1, 1) * (k0 * k0 + k0)
    pushed = TautClass.monomial(2, 3, psi_exps={2: 1, 3: 1}).pushforward_to(1)
    k0 = Fraction(2 * 2 - 2 + 1)
    assert pushed == TautClass.fundamental(2, 1) * (k0 * k0 + k0)


def test_pushforward_boundary_stratum_stabilizes():
    # the two parallel edges fuse into a loop once the middle bubble loses
    # its marking
    banana = stable_graph((0, 0), (0, 0, 0, 0, 1), ((0, 1), (0, 1)))
    c = TautClass(1, 5).add_term(banana, *bare(banana), Fraction(1))
    c = c.mul_psi(2).mul_psi(3).mul_psi(4)
    assert c.pushforward_to(1) == loop_stratum(1, 1) * 6


def test_pushforward_fuses_bridge_keeping_half_edge_psi():
    # A(1,2,3) - v(7) - B(4,5,6): forgetting 7 fuses the two edges into one
    # A - B edge, and the psi on A's half-edge stays on A's side
    bridge = stable_graph((0, 0, 0), (0, 0, 0, 2, 2, 2, 1), ((0, 1), (1, 2)))
    c = TautClass(0, 7).add_term(*decorated(bridge, {}, {}, {(0, 0): 1}), Fraction(1))
    ab = stable_graph((0, 0), (0, 0, 0, 1, 1, 1), ((0, 1),))
    expected = TautClass(0, 6).add_term(*decorated(ab, {}, {}, {(0, 0): 1}),
                                        Fraction(1))
    assert not expected.is_zero()
    assert c.forget_pushforward() == expected


def _reference_push_unstable_vertex(term, v, tags, lab):
    """The hand-built stabilization of a genus-0 vertex v left with two
    special points once leg lab is forgotten: delete v, re-index vertices
    and edges, then a leg slides onto the neighbor or two edges fuse into
    one, and psi decorations ride along.  Returns (kind, graph, kappa,
    psi_leg, psi_edge) as dicts for decorated."""
    graph = term.graph
    kappa = {u: dict(vk) for u, vk in enumerate(term.kappa)}
    psi_leg = {i + 1: x for i, x in enumerate(term.psi_leg) if x}
    psi_edge = {(e, s): x for e, pair in enumerate(term.psi_edge)
                for s, x in enumerate(pair) if x}
    assert term.psi_leg[lab - 1] == 0 and not kappa.get(v)
    others = [t for t in tags if not (t[0] == "l" and t[1] == lab)]
    assert len(others) == 2
    tags_h = [t for t in others if t[0] == "h"]
    tags_l = [t for t in others if t[0] == "l"]
    if len(tags_h) == 1 and len(tags_l) == 1:
        (_, e, s) = tags_h[0]
        (_, moved) = tags_l[0]
        other_side = 1 - s
        y = term.psi_edge[e][other_side]
        w = graph.edges[e][other_side]
        genera, edges, vmap, emap = _reference_delete_vertex(graph, v, (e,))
        legs = [vmap[w] if label == moved else vmap[graph.legs[label - 1]]
                for label in range(1, graph.n_legs)]
        new_psi_leg = {l: x for l, x in psi_leg.items() if l not in (lab, moved)}
        if y:
            new_psi_leg[moved] = y
        new_psi_edge = {}
        for (e2, s2), x in psi_edge.items():
            if e2 == e:
                continue
            new_psi_edge[(emap[e2], s2)] = x
        new_kappa = {vmap[u]: kappa[u] for u in kappa if u != v}
        return ("slide", stable_graph(genera, legs, edges), new_kappa,
                new_psi_leg, new_psi_edge)
    assert len(tags_h) == 2
    (_, e1, s1), (_, e2, s2) = tags_h
    assert e1 != e2
    o1, o2 = 1 - s1, 1 - s2
    w1, w2 = graph.edges[e1][o1], graph.edges[e2][o2]
    y1, y2 = term.psi_edge[e1][o1], term.psi_edge[e2][o2]
    genera, edges, vmap, emap = _reference_delete_vertex(graph, v, (e1, e2))
    legs = [vmap[graph.legs[label - 1]] for label in range(1, graph.n_legs)]
    edges = list(edges) + [(vmap[w1], vmap[w2])]
    new_e = len(edges) - 1
    new_psi_edge = {}
    for (e3, s3), x in psi_edge.items():
        if e3 in (e1, e2):
            continue
        new_psi_edge[(emap[e3], s3)] = x
    if y1:
        new_psi_edge[(new_e, 0)] = y1
    if y2:
        new_psi_edge[(new_e, 1)] = y2
    new_psi_leg = {l: x for l, x in psi_leg.items() if l != lab}
    new_kappa = {vmap[u]: kappa[u] for u in kappa if u != v}
    return ("loop fuse" if w1 == w2 else "fuse", stable_graph(genera, legs, edges),
            new_kappa, new_psi_leg, new_psi_edge)


def _reference_delete_vertex(graph, v, drop_edges):
    """Remove vertex v and the listed edges; legs are the caller's problem."""
    vmap = {}
    genera = []
    for u in range(graph.n_vertices):
        if u == v:
            continue
        vmap[u] = len(genera)
        genera.append(graph.genera[u])
    emap = {}
    edges = []
    for e, (a, b) in enumerate(graph.edges):
        if e in drop_edges:
            continue
        emap[e] = len(edges)
        edges.append((vmap[a], vmap[b]))
    return tuple(genera), tuple(edges), vmap, emap


def _random_decoration(rng, graph):
    """Random psi and kappa decorations within each vertex's dimension."""
    kappa, psi_leg, psi_edge = {}, {}, {}
    for u, (gu, tags) in enumerate(zip(graph.genera, graph.attachments())):
        budget = rng.randint(0, 3 * gu - 3 + len(tags))
        while budget:
            slot = rng.choice(tags + [("k", 1), ("k", 2)])
            if slot[0] == "k":
                if slot[1] > budget:
                    continue
                vk = kappa.setdefault(u, {})
                vk[slot[1]] = vk.get(slot[1], 0) + 1
                budget -= slot[1]
                continue
            if slot[0] == "l":
                psi_leg[slot[1]] = psi_leg.get(slot[1], 0) + 1
            else:
                psi_edge[slot[1:]] = psi_edge.get(slot[1:], 0) + 1
            budget -= 1
    return kappa, psi_leg, psi_edge


def test_pushforward_at_unstable_vertex_matches_hand_built_reference():
    # every stratum whose last leg sits on a trivalent genus-0 vertex, with
    # four seeded decorations each (repeated terms are checked once)
    rng = random.Random(14)
    kinds = {"slide": 0, "fuse": 0, "loop fuse": 0}
    seen = set()
    for g, n in [(0, 5), (0, 6), (0, 7), (1, 3), (1, 4), (2, 2), (2, 3)]:
        for graph in enumerate_stable_graphs(g, n, 3 * g - 3 + n):
            v = graph.legs[n - 1]
            if 2 * graph.genera[v] - 2 + graph.valences()[v] != 1:
                continue
            for _ in range(4):
                c = TautClass(g, n).add_term(
                    *decorated(graph, *_random_decoration(rng, graph)), Fraction(1))
                (term,) = c.terms
                if term in seen:
                    continue
                seen.add(term)
                v = term.graph.legs[n - 1]
                kind, *stabilized = _reference_push_unstable_vertex(
                    term, v, term.graph.attachments()[v], n)
                kinds[kind] += 1
                expected = TautClass(g, n - 1).add_term(*decorated(*stabilized),
                                                        Fraction(1))
                assert c.forget_pushforward() == expected, (g, n, term)
    assert min(kinds.values()) > 0, kinds


# -- loci and filtration ------------------------------------------------------

def test_restrict_examples():
    assert boundary_divisor_class(1, 1, ("irr",)).restrict("compact-type").is_zero()
    assert psi(1, 1, 1).restrict("open") == psi(1, 1, 1)
    sep = boundary_divisor_class(2, 1, ("sep", 1, (1,)))
    assert sep.restrict("rational-tails").is_zero()
    assert not sep.restrict("compact-type").is_zero()


def test_restrict_is_multiplicative_for_surviving_products():
    d12 = boundary_divisor_class(0, 5, ("sep", 0, (1, 2)))
    prod = d12.mul_boundary(("sep", 0, (3, 4)))
    assert prod.restrict("compact-type") == \
        d12.restrict("compact-type").mul_boundary(("sep", 0, (3, 4)))


def test_degree_part():
    c = TautClass.fundamental(1, 1) + psi(1, 1, 1)
    assert c.degree_part(0) == TautClass.fundamental(1, 1)
    assert c.degree_part(1) == psi(1, 1, 1)
    assert c.degree_part(5).is_zero()


def test_json_round_trip():
    dirr = boundary_divisor_class(1, 2, ("irr",))
    c = dirr.mul_boundary(("irr",)) + psi(1, 2, 1) * Fraction(3, 7)
    back = TautClass.from_json(c.to_json())
    assert back == c


_RELABELING_CASES = [
    # parallel edges whose decorations differ, with kappa at the genus-1 vertex
    (2, 4, ((0, 1, 0), (0, 0, 2, 2), ((0, 1), (0, 2), (0, 2))),
     {1: {1: 1}}, {1: 1}, {(1, 1): 1, (2, 0): 1}),
    # two loops and a pair of parallel edges, swapped by a vertex automorphism
    (3, 0, ((0, 0), (), ((0, 0), (0, 1), (0, 1), (1, 1))),
     {}, {}, {(0, 1): 1, (2, 1): 1}),
]


def test_decorated_canonicalization_is_relabeling_invariant():
    for case in _RELABELING_CASES:
        _check_relabeling_invariance(*case)


def _check_relabeling_invariance(g, n, graph, kappa, psi_leg, psi_edge):
    # transporting decorations along a random relabeling of the presentation
    # must produce the identical class, and the class is not zero
    import random
    rng = random.Random(99)
    base_graph = stable_graph(*graph)
    reference = TautClass(g, n).add_term(
        *decorated(base_graph, kappa, psi_leg, psi_edge), Fraction(1))
    assert not reference.is_zero()
    nv = base_graph.n_vertices
    for _ in range(100):
        perm = list(range(nv))
        rng.shuffle(perm)
        genera = [0] * nv
        for old, new in enumerate(perm):
            genera[new] = base_graph.genera[old]
        legs = tuple(perm[v] for v in base_graph.legs)
        edge_order = list(range(base_graph.n_edges))
        rng.shuffle(edge_order)
        edges = []
        new_psi_edge = {}
        for slot, e in enumerate(edge_order):
            a, b = base_graph.edges[e]
            pa, pb = psi_edge.get((e, 0), 0), psi_edge.get((e, 1), 0)
            if rng.random() < 0.5:
                edges.append((perm[a], perm[b]))
                sides = (pa, pb)
            else:
                edges.append((perm[b], perm[a]))
                sides = (pb, pa)
            if sides[0]:
                new_psi_edge[(slot, 0)] = sides[0]
            if sides[1]:
                new_psi_edge[(slot, 1)] = sides[1]
        relabeled = stable_graph(genera, legs, edges)
        new_kappa = {perm[v]: dict(k) for v, k in kappa.items()}
        moved = TautClass(g, n).add_term(
            *decorated(relabeled, new_kappa, psi_leg, new_psi_edge), Fraction(1))
        assert moved == reference


def test_vanishing_lemma_formally():
    # products delta_0^I * prod psi with #{j : i_j in I} >= #I - 1 normalize
    # to zero, over the 5-marked genus-1 and genus-0 spaces
    for g in (0, 1):
        n = 5
        for size in (2, 3):
            for I in itertools.combinations(range(1, n + 1), size):
                base = boundary_divisor_class(g, n, ("sep", 0, I))
                if base.is_zero():
                    continue
                for picks in itertools.combinations(I, size - 1):
                    c = base
                    for i in picks:
                        c = c.mul_psi(i)
                    assert c.is_zero(), (g, I, picks)


# -- properties of the decoration transport -----------------------------------

_PROPERTY_SPACES = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3)]


@st.composite
def _relabeled_classes(draw, slack=0):
    """A small class with random psi/kappa decorations (total degree at most
    the dimension minus slack), a leg permutation sigma as {old: new}, and a
    leg."""
    g, n = draw(st.sampled_from(
        [(g, n) for g, n in _PROPERTY_SPACES if 3 * g - 3 + n >= slack]))
    dim = 3 * g - 3 + n - slack
    graphs = enumerate_stable_graphs(g, n, dim)
    c = TautClass(g, n)
    for _ in range(draw(st.integers(1, 3))):
        graph = draw(st.sampled_from(graphs))
        slots = [("l", i) for i in range(1, n + 1)]
        slots += [("h", e, s) for e in range(graph.n_edges) for s in (0, 1)]
        slots += [("k", v, a) for v in range(graph.n_vertices) for a in (1, 2)]
        kappa, psi_leg, psi_edge = {}, {}, {}
        for _ in range(draw(st.integers(0, dim - graph.n_edges))):
            slot = draw(st.sampled_from(slots))
            if slot[0] == "l":
                psi_leg[slot[1]] = psi_leg.get(slot[1], 0) + 1
            elif slot[0] == "h":
                psi_edge[slot[1:]] = psi_edge.get(slot[1:], 0) + 1
            else:
                vk = kappa.setdefault(slot[1], {})
                vk[slot[2]] = vk.get(slot[2], 0) + 1
        coeff = Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
        c = c + TautClass(g, n).add_term(*decorated(graph, kappa, psi_leg, psi_edge),
                                         coeff)
    sigma = dict(zip(range(1, n + 1), draw(st.permutations(range(1, n + 1)))))
    return c, sigma, draw(st.integers(1, n))


@settings(max_examples=60, deadline=None)
@given(_relabeled_classes())
def test_json_round_trip_property(case):
    c, _, _ = case
    assert TautClass.from_json(c.to_json()) == c


@settings(max_examples=60, deadline=None)
@given(_relabeled_classes())
def test_relabel_legs_inverse_property(case):
    c, sigma, _ = case
    inverse = {new: old for old, new in sigma.items()}
    assert c.relabel_legs(sigma).relabel_legs(inverse) == c


@settings(max_examples=60, deadline=None)
@given(_relabeled_classes())
def test_mul_psi_commutes_with_relabeling_property(case):
    c, sigma, i = case
    assert c.mul_psi(i).relabel_legs(sigma) == c.relabel_legs(sigma).mul_psi(sigma[i])


@settings(max_examples=60, deadline=None)
@given(_relabeled_classes())
def test_add_in_place_matches_add_property(case):
    c, sigma, _ = case
    other = c.relabel_legs(sigma)
    before = dict(c.terms), dict(other.terms)
    acc = TautClass(c.g, c.n)
    acc._add_in_place(c)
    acc._add_in_place(other)
    # same terms in the same order as the copying sum; addends untouched
    assert list(acc.terms.items()) == list((c + other).terms.items())
    assert (dict(c.terms), dict(other.terms)) == before
    acc._add_in_place(-(c + other))
    assert acc.is_zero()


@settings(max_examples=60, deadline=None)
@given(_relabeled_classes())
def test_projection_formula_property(case):
    # pi_*(psi_{n+1} * pi^* c) = (2g - 2 + n) c, pi the forgetful map
    c, _, _ = case
    pulled = c.forget_pullback()
    assert pulled.mul_psi(c.n + 1).forget_pushforward() == c * (2 * c.g - 2 + c.n)
    # with 1 in place of psi_{n+1}: a pullback pushes forward to zero
    assert pulled.forget_pushforward().is_zero()


@settings(max_examples=60, deadline=None)
@given(_relabeled_classes(slack=2))
def test_boundary_products_commute_property(case):
    # slack 2 leaves room for both divisors below the dimension; d2 puts
    # legs i and n on a rational bubble (it is -psi_n when i = n)
    c, _, i = case
    d1 = ("irr",) if c.g >= 1 else ("sep", 0, (1, 2))
    d2 = ("sep", 0, tuple(sorted({i, c.n})))
    assert c.mul_boundary(d1).mul_boundary(d2) == c.mul_boundary(d2).mul_boundary(d1)


@settings(max_examples=60, deadline=None)
@given(_relabeled_classes(slack=1), st.data())
def test_divisor_sum_is_the_sum_of_its_one_divisor_products_property(case, data):
    # psi generators, delta_irr, separating divisors given by their
    # complement side, specs that normalize to psi or to zero, and a
    # repeated divisor, each generator with a coefficient of its own
    c, _, i = case
    legs = range(1, c.n + 1)
    sides = [(h, P) for h in range(c.g + 1) for k in range(c.n + 1)
             for P in itertools.combinations(legs, k)]
    specs = [("psi", i), ("irr",), ("sep", 0, (i,)), ("sep", c.g, tuple(legs)), ("psi", c.n)]
    drawn = data.draw(st.lists(st.sampled_from(sides), min_size=1, max_size=4))
    for h, P in drawn:
        specs.append(("sep", c.g - h, tuple(lab for lab in legs if lab not in P)))
    specs.append(("sep",) + drawn[-1])
    gens = [(spec, Fraction(k + 2, 3)) for k, spec in enumerate(specs)]
    expected = TautClass(c.g, c.n)
    for spec, coeff in gens:
        product = c.mul_psi(spec[1]) if spec[0] == "psi" else c.mul_boundary(spec)
        expected = expected + product * coeff
    assert mul_divisor_sum(c, gens) == expected


# -- golden surgery battery -----------------------------------------------------

_GOLDEN_SPACES = [(0, 5), (0, 6), (1, 2), (1, 3), (2, 1)]


def _golden_class(rng, g, n):
    """Five seeded terms on (g, n), decoded from JSON: strata with at most
    two edges, kappa_1/kappa_2 at vertices and psi at legs and half-edges,
    each vertex decorated to its dimension or up to two degrees below."""
    graphs = enumerate_stable_graphs(g, n, 2)
    terms = []
    for _ in range(5):
        n_edges = rng.choice((0, 1, 1, 2))
        graph = rng.choice([gr for gr in graphs if gr.n_edges == n_edges])
        kappa = [{} for _ in graph.genera]
        psi_legs = [0] * n
        psi_edges = [[0, 0] for _ in graph.edges]
        for v, (gv, tags) in enumerate(zip(graph.genera, graph.attachments())):
            dim = 3 * gv - 3 + len(tags)
            budget = rng.randint(max(0, dim - 2), dim)
            while budget:
                slot = rng.choice(tags + [("k", 1), ("k", 2)])
                if slot[0] == "k" and slot[1] > budget:
                    continue
                if slot[0] == "k":
                    kappa[v][str(slot[1])] = kappa[v].get(str(slot[1]), 0) + 1
                elif slot[0] == "l":
                    psi_legs[slot[1] - 1] += 1
                else:
                    psi_edges[slot[1]][slot[2]] += 1
                budget -= slot[1] if slot[0] == "k" else 1
        terms.append({"graph": graph_to_json(graph),
                      "decoration": {"kappa": kappa, "psi_legs": psi_legs,
                                     "psi_edges": psi_edges},
                      "coeff": str(_random_fraction(rng))})
    return TautClass.from_json({"g": g, "n": n, "terms": terms})


def _golden_surgery(c):
    """Each surgery op of the battery applied to c, by name."""
    g, n = c.g, c.n
    sep = ("sep", 1, (1,)) if g == 2 else ("sep", 0, (1, 2))
    cycle = {i: (i % min(n, 3) + 1 if i <= 3 else i) for i in range(1, n + 1)}
    bridge = stable_graph((g, 0), (0,) * (n - 1) + (1, 1), ((0, 1),))
    out = {
        "input": c,
        "mul_psi": c.mul_psi(1),
        "mul_kappa": c.mul_kappa(1),
        "mul_boundary_irr": c.mul_boundary(("irr",)),
        "mul_boundary_sep": c.mul_boundary(sep),
        "forget_pullback": c.forget_pullback(),
        "forget_pushforward": c.forget_pushforward(),
        "relabel_legs": c.relabel_legs(cycle),
        "gluing_bridge": gluing_pushforward(bridge,
                                            [c, TautClass.fundamental(0, 3)]),
        "from_json": TautClass.from_json(c.to_json()),
    }
    if n >= 2:
        loop = stable_graph((g,), (0,) * (n - 2), ((0, 0),))
        out["gluing_loop"] = gluing_pushforward(loop, [c])
    return out


# SHA-256 of the canonical JSON of the list, over the battery's spaces, of
# each op's result; first computed before the decoration form changed
_GOLDEN_SURGERY_DIGESTS = {
    "input":
        "6c9eaf668ef9effa22592bf0b5b5f4a879151e5453ed6960d24591a3f6f12d16",
    "mul_psi":
        "9a53635b7d2bc3b30a6f988dbf0d6cc9b6e2d0417812e8b0e108380146319f9c",
    "mul_kappa":
        "8b1591a61ddad696e0130af4c2d7fc80bdf1f165ede4a8154d0c2d7de9579ebe",
    "mul_boundary_irr":
        "f086afd3159e1afd664706b7dcd16b4000407f50cc0bae0e9f2a78f4493a21f7",
    "mul_boundary_sep":
        "35201a3d3e556e1972ace1ffb7cd83b21db2b628926d249e265e49a06ec682d3",
    "forget_pullback":
        "b563507ee5eb21c36afdd6b0ad6d27764f2192dc7751f51d1c380b41ca97e4b6",
    "forget_pushforward":
        "447cc3e271f62d669fc67fe7ca0e796df315cc68d5a13ae796dded53ffee6f49",
    "relabel_legs":
        "c490093e9d5b4a7bb1b2b279da5bb70f0fdef1f09a65c713d39c119f19601286",
    "gluing_bridge":
        "b70a117ffcd6afbb3d6ebb9e7c7844f459c05e447c3b0b500e8931cc1c8c9b7a",
    "from_json":
        "6c9eaf668ef9effa22592bf0b5b5f4a879151e5453ed6960d24591a3f6f12d16",
    "gluing_loop":
        "da907c0974c68da9a37a7508fc7c2ffc561b23d32bf5cedf61dddba96a2266f9",
}


def test_surgery_golden_battery():
    rng = random.Random(18)
    results = {}
    for g, n in _GOLDEN_SPACES:
        for name, cls in _golden_surgery(_golden_class(rng, g, n)).items():
            results.setdefault(name, []).append(cls)
    inputs = [term for c in results["input"] for term in c.terms]
    assert any(any(t.kappa) for t in inputs)
    assert any(any(t.psi_leg) for t in inputs)
    assert any(any(map(any, t.psi_edge)) for t in inputs)
    digests = {}
    for name, classes in results.items():
        assert any(not c.is_zero() for c in classes), name
        digests[name] = digest([c.to_json() for c in classes])
    assert digests == _GOLDEN_SURGERY_DIGESTS


def test_surgery_term_graphs_revalidate(monkeypatch):
    # mul_boundary, the forgetful maps and gluing build their graphs
    # unchecked (graphs module docstring): this is the independent check that
    # every graph the battery hands to canonical_term, before its dimension
    # filter can drop a term, and every graph in its results is stable,
    # connected and held in tuples
    graphs = set()
    inner = strata.canonical_term

    def recording(graph, *decoration):
        graphs.add(graph)
        return inner(graph, *decoration)

    monkeypatch.setattr(strata, "canonical_term", recording)
    rng = random.Random(18)
    for g, n in _GOLDEN_SPACES:
        for cls in _golden_surgery(_golden_class(rng, g, n)).values():
            graphs.update(term.graph for term in cls.terms)
    assert max(graph.n_edges for graph in graphs) >= 3
    for graph in graphs:
        assert stable_graph(graph.genera, graph.legs, graph.edges) == graph, graph


@settings(max_examples=60, deadline=None)
@given(_relabeled_classes(slack=2), st.sampled_from((1, 2)))
def test_kappa_commutes_with_boundary_property(case, a):
    # kappa_a restricts to a boundary stratum as the sum of the kappa_a of
    # its vertices, so a vertex split shares out the vertex's kappa monomial;
    # d is the irreducible divisor or puts legs i and n on a rational bubble
    c, _, i = case
    for d in (("irr",), ("sep", 0, tuple(sorted({i, c.n})))):
        assert c.mul_kappa(a).mul_boundary(d) == c.mul_boundary(d).mul_kappa(a), d
