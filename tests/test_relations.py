import copy
import hashlib
import itertools
import json
import math
import shutil
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tautring import relations
from tautring.algebra import MultiPoly
from tautring.graphs import enumerate_stable_graphs, stable_graph, trivial_graph
from tautring.pixton import omega_constant_term
from tautring.relations import (
    BoundaryExpression,
    CacheConsistencyError,
    CacheIntegrityError,
    RelationDatabase,
    RelationPipelineError,
    boundary_expression,
    dr_relation,
    dr_relation_coefficient,
    has_property_star,
    monomial_class,
    monomial_key,
    open_monomial_decomposition,
    parse_monomial,
    psi_boundary_lemma,
    solve_monomial_relations,
    theorem_star_reduce,
    theta_divisor,
    theta_generators,
    theta_power_relation,
    trr_report,
    _canonical,
    _formal_monomial_pullback,
    _record_hash,
    _solve_for_target,
    _text_hash,
    _vertex_monomial,
)
from tautring.strata import (
    TautClass,
    _kappa_splits,
    bare,
    boundary_divisor_class,
)

from ci_checks import GENUS_TWO_RECORDS, count_coefficients, digest, genus_two_checks
from dict_decoration import decorated
from reference_gluing import offset_map_gluing_pushforward
from star_census import decorated_strata, star_census


def dirr(g, n):
    return boundary_divisor_class(g, n, ("irr",))


# -- theta --------------------------------------------------------------------

def test_theta_zero_vector_vanishes():
    assert theta_divisor(1, 2, (0, 0)).is_zero()


def test_theta_one_nonzero_entry_rejected():
    with pytest.raises(ValueError):
        theta_divisor(1, 2, (1, 0))


def test_theta_on_two_marked_genus_one():
    th = theta_divisor(1, 2, (3, -3))
    expected = TautClass.psi(1, 2, 1, Fraction(9, 2)) + \
        TautClass.psi(1, 2, 2, Fraction(9, 2))
    assert th == expected


def test_theta_power_relation_degree():
    power = theta_power_relation(1, 2, (1, -1))
    assert power == power.degree_part(2)


def test_theta_power_m03_coefficient_forces_psi_vanishing():
    # the two-variable coefficient of the symbolic power on the three-marked
    # genus-0 space is a nonzero multiple of a single psi-class, which the
    # relation therefore kills
    power = theta_power_relation(0, 3)
    third = MultiPoly(("a1", "a2", "a3"))
    for name in ("a1", "a2"):
        third = third - MultiPoly.variable(("a1", "a2", "a3"), name)
    constrained = power.map_coefficients(lambda p: p.substitute({"a3": third}))
    coefficient = constrained.map_coefficients(
        lambda p: p.coefficient((1, 1, 0)))
    assert coefficient == TautClass.psi(0, 3, 3)
    # ... and psi_3 on the three-marked space is already zero in normal form
    assert TautClass.psi(0, 3, 3).is_zero()
    assert coefficient.is_zero()


def test_theta_generators_match_class():
    A = (1, 2, -3)
    gens = theta_generators(0, 3, A)
    rebuilt = TautClass(0, 3)
    for key, coeff in gens:
        if key[0] == "psi":
            rebuilt = rebuilt + TautClass.psi(0, 3, key[1], coeff)
        else:
            rebuilt = rebuilt + boundary_divisor_class(0, 3, key) * coeff
    assert rebuilt == theta_divisor(0, 3, A)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_theta_generators_evaluate_the_symbolic_ones(data):
    g = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(3 if g == 0 else 1, 5))
    head = data.draw(st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1))
    A = tuple(head) + (-sum(head),)
    values = {f"a{i}": a for i, a in enumerate(A, start=1)}
    evaluated = {key: coeff.evaluate(values)
                 for key, coeff in theta_generators(g, n)}
    assert dict(theta_generators(g, n, A)) == \
        {key: c for key, c in evaluated.items() if c != 0}


# -- double-ramification relations ---------------------------------------------

def test_dr_relation_monomial_validation():
    with pytest.raises(ValueError):
        dr_relation_coefficient(1, (1, 1, 1))        # wrong arity
    with pytest.raises(ValueError):
        dr_relation_coefficient(1, (1, 1, 1, 0))     # degree 3 != 4
    with pytest.raises(ValueError):
        dr_relation_coefficient(1, (1, 1, 1, 1), {2: 1}, (3, 5))  # not top labels
    with pytest.raises(ValueError):
        # forgetting leg 3 requires psi_3 in the multiplier
        dr_relation_coefficient(1, (1, 1, 1, 1), {2: 1, 4: 1}, (2, 3, 4, 5))


def test_dr_relation_coefficient_refuses_non_int_inputs():
    # a bool or a float equals an int: each would silently compute the
    # coefficient of a1a2a3a4, or forget leg 5
    for monomial in ((True,) * 4, (1.0, 1, 1, 1), (-1, 3, 1, 1)):
        with pytest.raises(ValueError, match="non-negative integers"):
            dr_relation_coefficient(1, monomial)
    with pytest.raises(ValueError, match="int labels"):
        dr_relation_coefficient(1, (1, 1, 1, 1), forget=(5.0,))


def test_dr_relation_coefficient_checks_the_multiplier_before_upstairs(monkeypatch):
    # a bad psi multiplier used to fail only in mul_psi, after the whole
    # upstairs coefficient was computed (18 s for a1^6 on genus 2)
    def upstairs(*args):
        raise AssertionError("the upstairs coefficient was computed")

    monkeypatch.setattr(relations, "weighted_constant_term", upstairs)
    for mult, match in (({2.0: 1}, "labels"), ({9: 1}, "labels"), ({0: 1}, "labels"),
                        ({2: -1}, "non-negative"), ({2: True}, "non-negative"),
                        ({2: 1.5}, "non-negative")):
        with pytest.raises(ValueError, match=match):
            dr_relation_coefficient(1, (1, 1, 1, 1), mult)
    with pytest.raises(AssertionError, match="upstairs"):
        dr_relation_coefficient(1, (1, 1, 1, 1), {5: 1})


def test_kappa_pipeline_endpoint():
    rel = dr_relation_coefficient(1, (1, 1, 1, 1), {2: 1, 3: 1, 4: 1},
                                  (2, 3, 4, 5))
    expected = TautClass.kappa(1, 1, 1) * 144 - dirr(1, 1) * 12
    assert rel == expected


def test_psi_pipeline_endpoint():
    rel = dr_relation_coefficient(1, (2, 1, 1, 0), {2: 1, 3: 1, 4: 1},
                                  (2, 3, 4, 5))
    expected = TautClass.kappa(1, 1, 1) * 72 + TautClass.psi(1, 1, 1) * 24 \
        - dirr(1, 1) * 8
    assert rel == expected
    # normalized form: 9 kappa + 3 psi = delta
    assert rel == (TautClass.kappa(1, 1, 1) * 9 + TautClass.psi(1, 1, 1) * 3
                   - dirr(1, 1)) * 8


def _per_point_coefficient(g, a_monomial, mult, target_n):
    """Frozen reference for dr_relation_coefficient: multiply and push the DR
    relation at every stencil point, then take Delta^m / m! downstairs."""
    total = TautClass(g, target_n)
    for offsets in itertools.product(*[range(m + 1) for m in a_monomial]):
        weight = Fraction((-1) ** (sum(a_monomial) - sum(offsets)))
        for m, j in zip(a_monomial, offsets):
            weight *= Fraction(math.comb(m, j), math.factorial(m))
        rel = dr_relation(g, offsets + (-sum(offsets),))
        total._add_in_place(
            rel.mul_monomial(psi_exps=mult).pushforward_to(target_n) * weight)
    return total


@pytest.mark.parametrize("a_monomial", [(4, 0, 0, 0), (3, 1, 0, 0),
                                        (1, 1, 1, 1), (2, 1, 1, 0)])
def test_coefficient_upstairs_matches_per_point_route(a_monomial):
    mult = {2: 1, 3: 1, 4: 1}
    rel = dr_relation_coefficient(1, a_monomial, mult, (2, 3, 4, 5))
    assert rel == _per_point_coefficient(1, a_monomial, mult, 1)


def test_coefficient_without_multiplier_is_a_fresh_class():
    # the first stencil point has weight 1, where sharing is most tempting
    expected = _per_point_coefficient(1, (1, 1, 1, 1), {}, 5)
    rel = dr_relation_coefficient(1, (1, 1, 1, 1))
    assert rel == expected
    # the result must not share storage with anything a later call reads
    rel._add_in_place(rel * 3)
    rel.terms.clear()
    assert dr_relation_coefficient(1, (1, 1, 1, 1)) == expected


def _permuted(vector, perm):
    """The vector whose entry at perm[i] is the entry at i (labels from 1)."""
    out = [None] * len(vector)
    for old, new in perm.items():
        out[new - 1] = vector[old - 1]
    return tuple(out)


# 3-cycles, where a permutation and its inverse differ, and transpositions
_DR_SYMMETRY_CASES = [
    (0, (3, 1, -2, -2), {1: 2, 2: 3, 3: 1, 4: 4}),
    (0, (2, 1, 1, -1, -3), {1: 3, 2: 5, 3: 1, 4: 4, 5: 2}),
    (1, (2, -1, -1), {1: 3, 2: 1, 3: 2}),
    (1, (3, 1, 0, -4), {1: 2, 2: 4, 3: 3, 4: 1}),
    (1, (2, 1, -1, 0, -2), {1: 2, 2: 3, 3: 1, 4: 5, 5: 4}),
]


@pytest.mark.parametrize("g,A,perm", _DR_SYMMETRY_CASES)
def test_dr_relation_is_equivariant_and_even(g, A, perm):
    rel = dr_relation(g, A)
    assert not rel.is_zero()
    assert dr_relation(g, _permuted(A, perm)) == rel.relabel_legs(perm)
    assert dr_relation(g, tuple(-a for a in A)) == rel


@pytest.mark.parametrize("monomial,perm", [
    ((2, 1, 1, 0), {1: 2, 2: 3, 3: 1, 4: 4, 5: 5}),
    ((3, 1, 0, 0), {1: 3, 2: 4, 3: 2, 4: 1, 5: 5}),
    ((2, 2, 0, 0), {1: 1, 2: 3, 3: 2, 4: 4, 5: 5}),
])
def test_dr_coefficient_is_equivariant(monomial, perm):
    # a permutation fixing the eliminated leg 5 moves the monomial with it
    rel = dr_relation_coefficient(1, monomial)
    on_monomial = {i: perm[i] for i in range(1, 5)}
    permuted = dr_relation_coefficient(1, _permuted(monomial, on_monomial))
    assert permuted == rel.relabel_legs(perm)
    assert permuted != rel


@pytest.mark.parametrize("g,A", [
    (0, (2, 1, -1, -2)),
    (1, (2, -1, -1)),
    (1, (3, 1, 0, -4)),
    (2, (2, -2)),
    (2, (2, 1, 1, -4)),
])
def test_dr_relation_is_the_top_part_of_the_constant_term(g, A):
    rel = dr_relation(g, A)
    assert not rel.is_zero()
    assert rel == omega_constant_term(g, A, g + 1).degree_part(g + 1) \
        * math.factorial(g + 1)


def test_one_loop_graph_contributes_nothing_to_top_monomial():
    # the one-vertex loop summand depends on the ramification only through a
    # quadratic, so the four-variable monomial coefficient it contributes is 0
    loop = stable_graph((0,), (0, 0, 0, 0, 0), ((0, 0),))
    probe = TautClass(1, 5).add_term(loop, *bare(loop), Fraction(1))
    loop_terms = set(probe.terms)

    def f(point):
        A = point + (-sum(point),)
        rel = dr_relation(1, A)
        return TautClass(1, 5, {t: c for t, c in rel.terms.items()
                                if t.graph.n_edges == 1 and t in loop_terms})

    from tautring.algebra import finite_difference_extract
    assert finite_difference_extract(f, (1, 1, 1, 1), 4).is_zero()


def test_dr_coefficient_boundary_control():
    # with nothing forgotten the coefficient is the multiplied class upstairs:
    # its boundary part must push to classes supported on the boundary
    upstairs = dr_relation_coefficient(1, (1, 1, 1, 1), {2: 1, 3: 1, 4: 1})
    assert (upstairs.g, upstairs.n) == (1, 5)
    leak = (upstairs - upstairs.restrict("open")).pushforward_to(1)
    assert leak.restrict("open").is_zero()
    assert upstairs.pushforward_to(1) == \
        TautClass.kappa(1, 1, 1) * 144 - dirr(1, 1) * 12


def test_claim_three_pushforward_shape():
    # the kappa-producing pushforward has a nonzero integer pivot
    for k in (1,):
        c = TautClass.monomial(1, 5, psi_exps={2: k + 1, 3: 1, 4: 1, 5: 1})
        pushed = c.pushforward_to(1)
        assert pushed == TautClass.kappa(1, 1, k) * 24


def test_geometric_emptiness_short_circuit():
    # two non-nested genus-zero pieces both holding the last marking cannot
    # coexist: the product of the corresponding divisors is formally zero
    d_a = boundary_divisor_class(1, 5, ("sep", 0, (1, 2, 5)))
    assert d_a.mul_boundary(("sep", 0, (3, 4, 5))).is_zero()
    # nested pieces do coexist
    assert not d_a.mul_boundary(("sep", 0, (1, 2, 3, 5))).is_zero()


def test_dr_compact_type_restriction_is_theta_power():
    # two fully independent routes to the same compact-type class: the
    # weighting graph sum with constant-term interpolation, and repeated
    # divisor multiplication of the theta pullback
    for g, n, A in [(1, 2, (2, -2)), (0, 4, (1, 2, -1, -2)),
                    (0, 5, (1, 1, 1, -1, -2))]:
        lhs = dr_relation(g, A).restrict("compact-type")
        rhs = theta_power_relation(g, n, A)
        assert lhs == rhs, (g, n, A)


@pytest.mark.parametrize("g, n, A, terms, sha", [
    (2, 5, (2, 1, -2, 1, -2), 2569,
     "7d2c3bb845557d21cfca8648e8afb88fbde3ab4f536801356a345cb27f4821ea"),
    (1, 5, None, 297, "6930ec229c35fdd3d571d793190e05a25d3a9378c65c5306f94ea7d7419c5939")])
def test_theta_power_digest(g, n, A, terms, sha):
    # an integer and a symbolic theta power: each factor is one mul_divisor_sum
    power = theta_power_relation(g, n, A)
    assert (len(power.terms), digest(power.to_json())) == (terms, sha)


def test_theta_route_agrees_with_full_pipeline():
    # the compact-type route: square the symbolic theta pullback on the
    # 5-marked space, multiply by psi2 psi3 psi4, push down, and read the
    # same ramification coefficients as the full constant-term pipeline
    power = theta_power_relation(1, 5)
    pushed = power.mul_psi(2).mul_psi(3).mul_psi(4) \
        .restrict("compact-type").pushforward_to(1)
    variables = tuple(f"a{i}" for i in range(1, 6))
    last = MultiPoly(variables)
    for i in range(1, 5):
        last = last - MultiPoly.variable(variables, f"a{i}")
    constrained = pushed.map_coefficients(lambda p: p.substitute({"a5": last}))
    kappa_pivot = constrained.map_coefficients(
        lambda p: p.coefficient((1, 1, 1, 1, 0)))
    assert kappa_pivot == TautClass.kappa(1, 1, 1) * Fraction(1, 4) * 24 ** 2
    psi_pivot = constrained.map_coefficients(
        lambda p: p.coefficient((2, 1, 1, 0, 0)))
    assert psi_pivot == TautClass.kappa(1, 1, 1) * 72 + TautClass.psi(1, 1, 1) * 24


# -- elimination lemma ----------------------------------------------------------

def test_psi_boundary_lemma_genus_zero_trivial():
    results = psi_boundary_lemma(0)
    assert set(results) == {"psi1", "psi2", "psi3"}
    assert all(be.value.is_zero() for be in results.values())


def test_psi_boundary_lemma_genus_one():
    db = RelationDatabase()
    results = psi_boundary_lemma(1, db)
    assert len(results) == 15
    for key, be in results.items():
        assert all(t.graph.n_edges >= 1 for t in be.value.terms), key
        assert be.provenance


def test_psi_boundary_lemma_genus_one_golden_digest():
    # values and provenance, bit for bit as first computed
    results = psi_boundary_lemma(1)
    assert digest({key: [be.value.to_json(), be.provenance]
                   for key, be in results.items()}) == \
        "f5b461b1449032a0ea9cd1840bee1be9afffb60f4927fb728b774a0b43368364"


def test_psi_boundary_lemma_substitution_is_formal_zero():
    from tautring.relations import _compositions, _elimination_monomial
    results = psi_boundary_lemma(1)
    monomials = {(1, 1, 1, 1)}
    for k in range(2, 0, -1):
        for K in _compositions(2 - (k - 1), 4):
            monomials.add(_elimination_monomial(1, K, k))
    for m in sorted(monomials):
        rel = dr_relation_coefficient(1, m)
        open_part, boundary = open_monomial_decomposition(rel)
        acc = boundary
        for mkey, coeff in open_part.items():
            acc = acc + results[mkey].value * coeff
        assert acc.is_zero(), m


@pytest.fixture
def coefficient_calls(monkeypatch):
    """The monomials of every dr_relation_coefficient call made by relations."""
    return count_coefficients(monkeypatch.setattr)


GENUS_ONE_LEMMA_SHA256 = \
    "26bbf982da7aaaef72b8a2625cc905469f42f5c26453652e6d7a03c35d380452"


def _genus_one_lemma_lines(path):
    psi_boundary_lemma(1, RelationDatabase(str(path)))
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == GENUS_ONE_LEMMA_SHA256
    return data.splitlines(keepends=True)


@pytest.mark.parametrize("kept", [1, 7, 14])
def test_truncated_lemma_database_resumes_to_the_same_bytes(tmp_path, kept,
                                                           coefficient_calls):
    lines = _genus_one_lemma_lines(tmp_path / "full.jsonl")
    assert len(lines) == 15 and len(coefficient_calls) == 15
    path = tmp_path / "cut.jsonl"
    path.write_bytes(b"".join(lines[:kept]))
    coefficient_calls.clear()
    psi_boundary_lemma(1, RelationDatabase(str(path)))
    assert len(coefficient_calls) == 15 - kept
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GENUS_ONE_LEMMA_SHA256


def test_lemma_refuses_a_record_another_route_wrote():
    # genus-1 requests never take the elimination, and their psi1^2 on
    # (1,5) is another expression than the lemma's: the lemma must not
    # build on it
    db = RelationDatabase()
    boundary_expression(1, 5, "psi1^2", db)
    with pytest.raises(CacheConsistencyError, match=r"psi1\^2"):
        psi_boundary_lemma(1, db)


def test_request_refuses_a_record_the_lemma_wrote():
    # and the other way round: a genus-1 request does not return the lemma's
    # record, which holds another expression than its own route gives
    db = RelationDatabase()
    psi_boundary_lemma(1, db)
    with pytest.raises(CacheConsistencyError, match=r"psi1\^2"):
        boundary_expression(1, 5, "psi1^2", db)
    # genus 0: both routes write the same zero record, with no provenance
    db = RelationDatabase()
    psi_boundary_lemma(0, db)
    assert boundary_expression(0, 3, "psi1", db).value.is_zero()


def test_genus_two_elimination_monomial_is_asked_of_the_lemma(monkeypatch):
    # one writer per key: the pullback route would store another expression
    # under a key the elimination also writes
    asked = []

    def lemma(g, exps, db):
        asked.append((g, exps))
        return db.store(g, 7, "psi1^3", BoundaryExpression(
            TautClass(g, 7), ["dr-coefficient g=2 stub"]))
    monkeypatch.setattr(relations, "_lemma_record", lemma)
    boundary_expression(2, 7, "psi1^3", RelationDatabase())
    assert asked == [(2, (3, 0, 0, 0, 0, 0, 0))]


# -- boundary expressions --------------------------------------------------------

@pytest.fixture
def no_elimination_lemma(monkeypatch):
    """Genus-0/1 boundary expressions never take the (2g+3)-marked
    elimination: every route there is a base case, a pullback or a product."""
    def refuse(g, exps, db):
        raise AssertionError(f"_lemma_record({g}, {exps}) ran")
    monkeypatch.setattr(relations, "_lemma_record", refuse)


def test_boundary_expression_m04_psi(no_elimination_lemma):
    be = boundary_expression(0, 4, "psi1")
    assert be.value == boundary_divisor_class(0, 4, ("sep", 0, (1, 4)))


def test_trr_discrepancy_reported(no_elimination_lemma):
    rep = trr_report(4)
    assert rep["fixed_matches_derived"] is True
    assert rep["literal_matches_derived"] is False


def test_boundary_expression_m11(no_elimination_lemma):
    db = RelationDatabase()
    twelfth = dirr(1, 1) * Fraction(1, 12)
    assert boundary_expression(1, 1, "psi1", db).value == twelfth
    assert boundary_expression(1, 1, "kappa1", db).value == twelfth


def test_boundary_expression_beyond_dimension_is_zero(no_elimination_lemma):
    assert boundary_expression(1, 1, "psi1^2").value.is_zero()
    assert boundary_expression(0, 4, "kappa1^2").value.is_zero()


def test_boundary_expression_below_threshold_refused():
    with pytest.raises(ValueError):
        boundary_expression(2, 1, "psi1")


@pytest.mark.parametrize("monomial", [({True: 1}, {}), ({2.0: 1}, {}),
                                      ({1: 1}, {True: 1}), ({1: 1}, {1.0: 1})])
def test_non_int_label_or_kappa_index_is_refused_before_any_record(tmp_path, monomial):
    # True == 1 and 2.0 == 2: such a psi label stored three genus-0 records
    # keyed psiTrue or psi2.0, and such a kappa index was refused only
    # after the route had written records
    path = tmp_path / "db.jsonl"
    with pytest.raises(ValueError, match="must be ints"):
        boundary_expression(0, 5, monomial, RelationDatabase(str(path)))
    assert not path.exists()


def test_exponents_must_be_non_negative_ints(tmp_path, no_elimination_lemma):
    # a negative exponent would store a record under the key of the
    # monomial with that factor dropped, here psi1*psi2*psi3^2, whose degree
    # 4 exceeds the dimension 3 of the six-marked genus-0 space
    path = tmp_path / "db.jsonl"
    db = RelationDatabase(str(path))
    for monomial in (({1: 1, 2: -1, 3: 2}, {}), ({1: 1}, {1: -1}),
                     ({1: 2.0}, {}), ({1: 1}, {1: True})):
        with pytest.raises(ValueError, match="non-negative integers"):
            boundary_expression(0, 6, monomial, db)
    # so would a genus or marking count that is a float or a bool: the key
    # it stored is one the next open refuses
    for g, n in ((0.0, 6), (0, 6.0), (False, 6)):
        with pytest.raises(ValueError, match="not a stable pair"):
            boundary_expression(g, n, "psi1^2", db)
    assert not path.exists()
    assert boundary_expression(0, 6, "psi1*psi2*psi3^2", db).value.is_zero()
    for exps in ({"psi_exps": {2: -1}}, {"kappas": {1: -1}}, {"psi_exps": {2: 1.0}}):
        with pytest.raises(ValueError):
            TautClass.psi(0, 5, 1).mul_monomial(**exps)


def test_boundary_expression_genus_zero_kappa(no_elimination_lemma):
    db = RelationDatabase()
    be = boundary_expression(0, 4, "kappa1", db)
    # kappa_1 on the four-marked genus-0 space has degree 1 (the square of
    # the universal cotangent class on one more marking integrates to 1), so
    # its boundary representative is a single boundary point; the recursion
    # lands on the (1,4)-bubble
    assert be.value == boundary_divisor_class(0, 4, ("sep", 0, (1, 4)))
    assert sum(be.value.terms.values()) == 1


def test_boundary_expression_deeper_marked_spaces(no_elimination_lemma):
    # kappa1 = delta_irr/6 + delta_0,{1,2} (Mumford's kappa1 = 12 lambda -
    # delta + psi with psi_i = lambda + delta_0,{1,2} and 12 lambda =
    # delta_irr), the loop stratum being twice delta_irr; its route solves
    # the pulled-back relation for kappa1 with psi2 substituted.  kappa1 psi2
    # integrates to 1/24 + 1/24 = <tau_0 tau_1 tau_2>_1 = 1/12
    loop = stable_graph((0,), (0, 0), ((0, 0),))
    bridge = stable_graph((0, 1), (0, 0), ((0, 1),))
    expected = {
        "kappa1": TautClass(1, 2).add_term(loop, *bare(loop), Fraction(1, 12))
        .add_term(bridge, *bare(bridge), Fraction(1)),
        "kappa1*psi2": TautClass(1, 2).add_term(*decorated(loop, {0: {1: 1}}, {}, {}),
                                                Fraction(1, 24))
        .add_term(*decorated(bridge, {1: {1: 1}}, {}, {}), Fraction(1)),
    }
    db = RelationDatabase()
    for key in ("psi1*psi2", "kappa1", "psi1^2", "kappa1*psi2"):
        be = boundary_expression(1, 2, key, db)
        assert all(t.graph.n_edges >= 1 for t in be.value.terms)
        if key in expected:
            assert be.value == expected[key], key


def test_genus_one_pullback_route_golden_digest(no_elimination_lemma):
    # kappa1^2 on (1,3) is pulled back twice, each time solving for the
    # target with kappa1*psi_n and psi_n^2 open; value and provenance, bit
    # for bit as first computed
    be = boundary_expression(1, 3, "kappa1^2")
    assert digest(be.to_json()) == \
        "53cb6c1c71a1eda48d221477f5a3b686f1d505da1afe02c8998a629aaff8d301"


def test_one_marked_genus_one_is_history_independent(no_elimination_lemma):
    # kappa1 on the one-marked genus-one space comes from the base system
    # whether or not psi1 was asked first, and a request stores only its own
    # record and those of what it asked for
    fresh = boundary_expression(1, 1, "kappa1", RelationDatabase())
    assert fresh.provenance == ["coefficient a1a2a3a4 of the pushed relation"]
    db = RelationDatabase()
    boundary_expression(1, 1, "psi1", db)
    # psi1 is solved from a1^2a2a3, which also holds kappa1: it asks for it
    assert set(db.records) == {(1, 1, "psi1"), (1, 1, "kappa1")}
    after = boundary_expression(1, 1, "kappa1", db)
    assert after.to_json() == fresh.to_json()
    # a deeper request after kappa1 matches the same request made fresh
    upstairs = boundary_expression(1, 5, "psi1^2", db)
    assert upstairs.to_json() == \
        boundary_expression(1, 5, "psi1^2", RelationDatabase()).to_json()
    assert {key for key in db.records if key[1] == 5} == \
        {(1, 5, "psi1"), (1, 5, "psi1^2")}


def test_one_marked_genus_one_takes_one_coefficient_per_record(coefficient_calls):
    # psi1 computes its own coefficient and asks for kappa1, which computes
    # the other; kappa1 asked afterwards is read, and equals a fresh one
    db = RelationDatabase()
    psi1 = boundary_expression(1, 1, "psi1", db)
    kappa1 = boundary_expression(1, 1, "kappa1", db)
    assert coefficient_calls == [(2, 1, 1, 0), (1, 1, 1, 1)]
    assert psi1.provenance == ["coefficient a1^2a2a3 of the pushed relation",
                               "coefficient a1a2a3a4 of the pushed relation"]
    assert kappa1.to_json() == \
        boundary_expression(1, 1, "kappa1", RelationDatabase()).to_json()


def test_pushforward_route_agrees_with_the_base_system(tmp_path, coefficient_calls):
    # only genus >= 2 requests take the pushed-core route, so it is run
    # directly here: on the one-marked genus-one space, where the degree-one
    # boundary classes are multiples of delta_irr, both give kappa1 exactly
    path = tmp_path / "core.jsonl"
    db = RelationDatabase(str(path))
    pushed = relations._p_route(1, 1, {}, {1: 1}, db, set())
    assert pushed.provenance[0].startswith("dr-coefficient g=1")
    # the core psi2*psi5 needs its own coefficient and that of the one open
    # monomial it holds, psi5^2, not the whole lemma
    assert coefficient_calls == [(1, 2, 1, 0), (1, 1, 1, 1)]
    # and stores them as the full lemma does, byte for byte
    core_lines = path.read_bytes().splitlines(keepends=True)
    assert len(core_lines) == 2
    assert set(core_lines) <= set(_genus_one_lemma_lines(tmp_path / "full.jsonl"))
    assert pushed.value == boundary_expression(1, 1, "kappa1", db).value


# -- genus-2 golden records ---------------------------------------------------

def _golden_genus_two(tmp_path):
    # a copy: star reduction appends the genus-1 records it asks for
    path = tmp_path / "genus2.jsonl"
    shutil.copyfile(GENUS_TWO_RECORDS, path)
    return RelationDatabase(str(path))


def test_genus_two_golden_records(tmp_path, coefficient_calls):
    # the checks of the genus2 CI job, on the records it recomputes: every
    # genus-2 coefficient is read, and kappa1 is asked first at genus 1
    assert list(genus_two_checks(_golden_genus_two(tmp_path), coefficient_calls, 0)) == []


def _assert_memory_matches_file(db):
    reopened = RelationDatabase(db.path)
    assert set(reopened.records) == set(db.records)
    for key in db.records:
        assert db.get(*key).to_json() == reopened.get(*key).to_json(), key


def test_substituted_records_stay_as_stored(tmp_path):
    # every solve adds the fetched records into a class of its own: a record
    # once stored is never changed in memory
    db = RelationDatabase(str(tmp_path / "round-trip.jsonl"))
    boundary_expression(0, 6, "psi1^2*kappa1", db)
    _assert_memory_matches_file(db)
    db = _golden_genus_two(tmp_path)
    for key in ("psi1^2", "kappa2", "psi1*kappa1"):
        theorem_star_reduce(monomial_class(2, 1, key), db)
        _assert_memory_matches_file(db)


# -- substitution soundness: the produced expressions satisfy the pullback
#    recursion they were built from ------------------------------------------

def _reference_formal_pullback(g, n, psi, kappa):
    """Frozen reference: the pullback expansion of an edgeless monomial from
    n-1 to n markings, written out from the exponents."""
    out = TautClass(g, n)
    for kept, moved, mult in _kappa_splits(sorted(kappa.items())):
        kept, moved = dict(kept), dict(moved)
        exps = dict(psi)
        j_total = sum(a * j for a, j in moved.items())
        if j_total:
            exps[n] = exps.get(n, 0) + j_total
        out.add_term(*decorated(trivial_graph(g, n), {0: kept}, exps, {}),
                     (-1) ** sum(moved.values()) * mult)
    for i, y in psi.items():
        if y == 0:
            continue
        graph = stable_graph((g, 0),
                             tuple(1 if lab in (i, n) else 0
                                   for lab in range(1, n + 1)),
                             ((0, 1),))
        rest = {j: e for j, e in psi.items() if j != i}
        out.add_term(*decorated(graph, {0: dict(kappa)}, rest,
                                {(0, 0): y - 1} if y > 1 else {}), Fraction(-1))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_formal_pullback_matches_frozen_expansion(data):
    # psi_1 carries an exponent >= 2, so the bubble keeps a psi on its edge
    g = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(4 if g == 0 else 2, 5))
    psi = {1: data.draw(st.integers(2, 4))}
    for i in range(2, n):
        psi[i] = data.draw(st.integers(0, 2))
    kappa = data.draw(st.dictionaries(st.integers(1, 3), st.integers(0, 2),
                                      max_size=3))
    expected = _reference_formal_pullback(g, n, psi, kappa)
    assert _formal_monomial_pullback(g, n, psi, kappa) == expected


def test_psi_expression_consistent_with_pullback(no_elimination_lemma):
    db = RelationDatabase()
    be2 = boundary_expression(1, 2, "psi1", db)
    be1 = boundary_expression(1, 1, "psi1", db)
    rebuilt = be1.value.forget_pullback() + \
        boundary_divisor_class(1, 2, ("sep", 0, (1, 2)))
    assert be2.value == rebuilt


# -- property-star reduction ------------------------------------------------------

def test_star_reduce_identity_on_star_classes():
    c = dirr(1, 1)  # undecorated boundary stratum already satisfies the bound
    assert theorem_star_reduce(c) == c


def test_star_reduce_psi_on_m11(no_elimination_lemma):
    db = RelationDatabase()
    reduced = theorem_star_reduce(TautClass.psi(1, 1, 1), db)
    assert reduced == dirr(1, 1) * Fraction(1, 12)
    term = next(iter(reduced.terms))
    assert sum(1 for gv in term.graph.genera if gv == 0) >= 1


def test_star_reduce_census_battery(no_elimination_lemma):
    db = RelationDatabase()
    battery = []
    # two-marked genus-1 inputs of codimension 2
    battery.append(TautClass.monomial(1, 2, psi_exps={1: 1, 2: 1}))
    battery.append(TautClass.monomial(1, 2, psi_exps={2: 1}, kappas={1: 1}))
    battery.append(TautClass.monomial(1, 2, kappas={1: 2}))
    # one-marked genus-1 input of codimension 1
    battery.append(TautClass.kappa(1, 1, 1))
    # one-marked genus-2 inputs of codimension >= 2 whose decorated vertices
    # have genus at most 1
    two_ones = stable_graph((1, 1), (0,), ((0, 1),))
    battery.append(TautClass(2, 1).add_term(*decorated(two_ones, {}, {1: 1}, {}),
                                            Fraction(1)))
    battery.append(TautClass(2, 1).add_term(*decorated(two_ones, {1: {1: 1}}, {}, {}),
                                            Fraction(1)))
    loop_g1 = stable_graph((1,), (0,), ((0, 0),))
    battery.append(TautClass(2, 1).add_term(*decorated(loop_g1, {0: {1: 1}}, {}, {}),
                                            Fraction(1)))
    digests = []
    for c in battery:
        g = c.g
        reduced = theorem_star_reduce(c, db)
        for term in reduced.terms:
            assert has_property_star(term)
            k = term.degree
            rational = sum(1 for gv in term.graph.genera if gv == 0)
            assert rational >= k - g + 1, (c, term)
        digests.append(digest(reduced.to_json()))
    # the reduced values, bit for bit as first computed
    assert digests == [
        "60f7933ee06c13b8a00b48af0fb49981054b3227bb0a0e90fa31276791de2675",
        "a29e8a52025da3a71fcd92b6522b3a37e0bcfdcb66dbe37ef82b7605c2ff3aca",
        "ded6750f1c45debb17f5a8d901881f1fc1d8e21a5cd7413581cddd7e4844645b",
        "91ad65065a0012b1bae0406b24766911d469e20618aaaf482849253e4e321695",
        "c225d1dd6663e69fb950fe51d85f413b0b88dfe70423021ed4b5ae8ba7965937",
        "993599a8d0f85d8070aabc17341e5b0ab18bdd76cd251289c446e62530f2e9fc",
        "b040327d5e5c83975d679999796fde2b5f74ccc69967adbd94273142df0aabbb",
    ]


@pytest.mark.parametrize("g,n,count,digest", [
    (0, 4, 8, "20fa9a074d02c292e001c93aaec463454fde807cd8d2e8c17923c0aa04149763"),
    (0, 5, 103, "706e2d97aad0dad09a1afd323d26d51872674755adfc5684cc24084e3587f600"),
    (0, 6, 1658, "e291875bf8c2cc2cea40a876a6dfac6c3933a6ed52ae7d85f6b4e74a56a52072"),
    (1, 1, 3, "b1b627a5975faa3802952f3843ae826af1cf76291a1b39509b0f7b91c0921d66"),
    (1, 2, 20, "51f895ef4ef61da97bf78542e482f56e8156fb7bc60c130eafe79a280b9dc30e"),
    (1, 3, 166, "beb23a4178fea6f209046c6851ce08e041d794cdb5da81268a4e426fea9fe9f3"),
    (1, 4, 2021, "6fcd75a69b83ff207415fdf028f1c9f2eb70f6f070cabb6102782f4636a1b600"),
])
def test_star_census(g, n, count, digest, no_elimination_lemma):
    # Theorem star on every decorated stratum of codimension >= max(g, 1):
    # star_census checks property star and the rational-vertex count of
    # every output term; the count and the digest of the reductions are
    # those first computed
    assert star_census(g, n, RelationDatabase()) == (count, digest)


def test_rewrite_vertex_matches_frozen_gluing(no_elimination_lemma):
    # one star step splices the vertex's boundary expression into its
    # stratum; the frozen route glued that expression at the vertex with
    # the monomial of every other vertex.  Every rewritable vertex of every
    # census stratum: loops, parallel edges, legless and positive-genus
    # vertices among them
    db = RelationDatabase()
    checked = 0
    for g, n in [(0, 5), (0, 6), (1, 2), (1, 3)]:
        for term in decorated_strata(g, n, max(g, 1)):
            graph, tags = term.graph, term.graph.attachments()
            for v, (d, gv) in enumerate(zip(term.vertex_degrees(), graph.genera)):
                if d <= max(gv - 1, 0):
                    continue
                local = boundary_expression(gv, len(tags[v]),
                                            _vertex_monomial(term, v, tags[v]), db)
                classes = [local.value if u == v else
                           TautClass.monomial(gu, len(tags[u]),
                                              *_vertex_monomial(term, u, tags[u]))
                           for u, gu in enumerate(graph.genera)]
                assert relations._rewrite_vertex(term, v, db).to_json() == \
                    offset_map_gluing_pushforward(graph, classes).to_json(), (term, v)
                checked += 1
    assert checked > 1500


# -- database -----------------------------------------------------------------

def test_database_round_trip_and_memoization(tmp_path):
    path = tmp_path / "relations.jsonl"
    db = RelationDatabase(str(path))
    be = boundary_expression(0, 4, "psi1", db)
    again = RelationDatabase(str(path))
    cached = again.get(0, 4, "psi1")
    assert cached is not None
    assert json.dumps(cached.to_json()) == json.dumps(be.to_json())
    # recomputation against the loaded store must agree bit-exactly
    assert boundary_expression(0, 4, "psi1", again).value == be.value


def test_database_detects_corruption(tmp_path):
    path = tmp_path / "relations.jsonl"
    db = RelationDatabase(str(path))
    boundary_expression(0, 4, "psi1", db)
    text = path.read_text()
    path.write_text(text.replace('"psi1"', '"psi2"', 1))
    with pytest.raises(CacheIntegrityError):
        RelationDatabase(str(path))


def test_database_rejects_conflicting_store(tmp_path):
    path = tmp_path / "relations.jsonl"
    db = RelationDatabase(str(path))
    be = boundary_expression(0, 4, "psi1", db)
    wrong = BoundaryExpression(be.value * 2, ["bogus"])
    with pytest.raises(CacheConsistencyError):
        db.store(0, 4, "psi1", wrong)


def _divisor_on(n):
    return boundary_divisor_class(0, n, ("sep", 0, (1, 2)))


@pytest.mark.parametrize("key,expression", [
    ((0, 5, "psi1"), BoundaryExpression(_divisor_on(5), [1])),
    ((0.0, 5, "psi1"), BoundaryExpression(_divisor_on(5), ["hand-made"])),
    ((0, 5, "psi1"), BoundaryExpression(_divisor_on(4), ["hand-made"])),
], ids=["provenance not strings", "float genus", "class on another space"])
def test_database_refuses_a_record_the_reader_would_refuse(tmp_path, key, expression):
    # such a line would make every later open, or the key's get, fail: it
    # is refused before it is kept, in memory as on file
    path = tmp_path / "relations.jsonl"
    for db in (RelationDatabase(), RelationDatabase(str(path))):
        with pytest.raises(ValueError):
            db.store(*key, expression)
        assert db.records == {}
    assert not path.exists()
    db = RelationDatabase(str(path))
    db.store(0, 5, "psi1", BoundaryExpression(_divisor_on(5), ["hand-made"]))
    assert RelationDatabase(str(path)).get(0, 5, "psi1").value == _divisor_on(5)


def _hashed_line(key, value):
    key_json = dict(zip(("g", "n", "monomial"), key))
    return json.dumps({"key": key_json, "value": value,
                       "provenance": ["hand-made"],
                       "sha256": _record_hash(key_json, value)}) + "\n"


def test_database_reads_v1_records_and_appends_v2(tmp_path):
    path = tmp_path / "relations.jsonl"
    computed = RelationDatabase()
    boundary_expression(0, 5, "psi1^2", computed)
    values = {key: computed.get(*key).value for key in computed.records}
    v1 = "".join(_hashed_line(key, value.to_json())
                 for key, value in values.items())
    path.write_text(v1)
    db = RelationDatabase(str(path))
    assert set(db.records) == set(values) and (0, 4, "psi2") not in values
    for key, value in values.items():
        assert db.get(*key).value == value
        assert db.get(*key).provenance == ["hand-made"]
    db.store(0, 4, "psi2", boundary_expression(0, 4, "psi2", RelationDatabase()))
    text = path.read_text()
    assert text.startswith(v1)
    assert json.loads(text[len(v1):])["v"] == 2
    reopened = RelationDatabase(str(path))
    assert reopened.get(0, 4, "psi2").value == db.get(0, 4, "psi2").value
    # a v1 record is still verified against its hash on open
    bad = json.loads(v1.splitlines()[-1])
    bad["sha256"] = bad["sha256"][::-1]
    path.write_text(v1 + json.dumps(bad) + "\n")
    with pytest.raises(CacheIntegrityError):
        RelationDatabase(str(path))


def test_database_rejects_one_key_with_two_values(tmp_path):
    path = tmp_path / "relations.jsonl"
    boundary_expression(0, 4, "psi1", RelationDatabase(str(path)))
    good = path.read_text()
    (line,) = [line for line in good.splitlines() if '"psi1", "n": 4' in line]
    record = json.loads(line)
    value = json.loads(record["value"])
    assert value["terms"]
    other = copy.deepcopy(value)
    for term in other["terms"]:
        term["coeff"] = "7"
    other_text = _canonical(other)
    rehashed = {**record, "value": other_text,
                "sha256": _text_hash(record["key"], record["provenance"], other_text)}
    key = (0, 4, "psi1")
    v1, v1_other = _hashed_line(key, value), _hashed_line(key, other)
    # v2 lines compare value texts, v1 lines their values, whatever the
    # provenance, a v2 against a v1 line included
    for text in (good + json.dumps(rehashed) + "\n", v1 + v1_other,
                 good + v1_other):
        path.write_text(text)
        with pytest.raises(CacheIntegrityError, match="another value"):
            RelationDatabase(str(path))
    # agreeing lines are accepted, and the first line of the key is kept
    for text in (good + line + "\n", v1 + v1, good + v1):
        path.write_text(text)
        db = RelationDatabase(str(path))
        keys = [json.loads(entry)["key"] for entry in text.splitlines()]
        assert len(db.records) == len(keys) - 1
        assert db.records[key][0] == keys.index(record["key"]) + 1
        assert db.get(*key).value.to_json() == value


def test_database_verifies_every_hash_on_open(tmp_path):
    path = tmp_path / "relations.jsonl"
    boundary_expression(0, 4, "psi1", RelationDatabase(str(path)))
    # a mismatched record under a key that nothing ever reads
    bad = json.loads(_hashed_line((0, 5, "psi2"), dirr(0, 4).to_json()))
    bad["sha256"] = "0" * 64
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(bad) + "\n")
    with pytest.raises(CacheIntegrityError):
        RelationDatabase(str(path))


def test_database_decodes_a_record_on_first_read(tmp_path):
    path = tmp_path / "relations.jsonl"
    written = RelationDatabase(str(path))
    boundary_expression(0, 4, "psi1", written)
    good_keys = list(written.records)
    zero_denominator = dirr(1, 1).to_json()
    zero_denominator["terms"][0]["coeff"] = "1/0"
    broken, foreign = (1, 1, "kappa1"), (1, 1, "psi1")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(_hashed_line(broken, zero_denominator))
        handle.write(_hashed_line(foreign, dirr(0, 4).to_json()))
    n_lines = len(path.read_text().splitlines())
    # correctly hashed records malformed deeper down do not stop the open
    db = RelationDatabase(str(path))
    for key in good_keys:
        assert db.get(*key).to_json() == written.get(*key).to_json()
    with pytest.raises(CacheIntegrityError, match=f"line {n_lines - 1} "):
        db.get(*broken)
    with pytest.raises(CacheIntegrityError, match=f"line {n_lines} "):
        db.get(*foreign)
    with pytest.raises(CacheIntegrityError, match=f"line {n_lines - 1} "):
        db.store(*broken, BoundaryExpression(dirr(1, 1), ["recomputed"]))


def test_database_open_decodes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "relations.jsonl"
    boundary_expression(0, 5, "psi1^2", RelationDatabase(str(path)))
    n_lines = len(path.read_text().splitlines())
    decode = BoundaryExpression.from_json
    calls = []

    def decoding(data):
        calls.append(data)
        return decode(data)

    # a v2 value is hashed as its stored text: opening serializes the small
    # key and provenance headers, never a class
    dumps = json.dumps
    dumped = []

    def serializing(obj, *args, **kwargs):
        dumped.append(obj)
        return dumps(obj, *args, **kwargs)

    def holds_class(obj):
        if isinstance(obj, dict):
            return "terms" in obj or any(map(holds_class, obj.values()))
        return isinstance(obj, list) and any(map(holds_class, obj))

    monkeypatch.setattr(BoundaryExpression, "from_json", staticmethod(decoding))
    monkeypatch.setattr(json, "dumps", serializing)
    db = RelationDatabase(str(path))
    monkeypatch.setattr(json, "dumps", dumps)
    assert calls == []
    assert len(dumped) == n_lines
    assert not any(map(holds_class, dumped))
    assert len(db.records) == n_lines
    key = next(iter(db.records))
    first = db.get(*key)
    assert db.get(*key) is first
    assert len(calls) == 1


_DB_SPACES = ((0, 4), (0, 5), (1, 1), (1, 2))


@st.composite
def _boundary_records(draw):
    """Nonzero boundary-supported classes with provenance, keyed by space."""
    g, n = draw(st.sampled_from(_DB_SPACES))
    divisors = [graph for graph in enumerate_stable_graphs(g, n, 1)
                if graph.n_edges == 1]
    value = TautClass(g, n)
    for graph in draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3)):
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        value.add_term(graph, *bare(graph), coeff)
    if draw(st.booleans()):
        value = value.mul_psi(1)
    if value.is_zero():
        value = TautClass(g, n).add_term(divisors[0], *bare(divisors[0]), Fraction(1))
    monomial = draw(st.sampled_from(("psi1", "kappa1", "psi1*kappa1")))
    provenance = draw(st.lists(st.text(min_size=1, max_size=12),
                               min_size=1, max_size=3))
    return (g, n, monomial), BoundaryExpression(value, provenance)


@settings(max_examples=30, deadline=None)
@given(st.lists(_boundary_records(), min_size=1, max_size=4,
                unique_by=lambda record: record[0]))
def test_database_round_trip_property(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/relations.jsonl"
        db = RelationDatabase(path)
        for key, be in records:
            db.store(*key, be)
        reopened = RelationDatabase(path)
        for key, be in records:
            got = reopened.get(*key)
            assert got.value == be.value
            assert got.provenance == be.provenance
        with open(path, "rb") as handle:
            before = handle.read()
        for key, be in records:
            reopened.store(*key, BoundaryExpression(be.value, be.provenance))
        with open(path, "rb") as handle:
            assert handle.read() == before
        for key, be in records:
            with pytest.raises(CacheConsistencyError):
                reopened.store(*key, BoundaryExpression(be.value * 2, ["other"]))


def test_boundary_expression_never_stores_open_strata():
    with pytest.raises(RelationPipelineError):
        BoundaryExpression(TautClass.psi(1, 1, 1), ["x"])
    with pytest.raises(RelationPipelineError):
        BoundaryExpression(dirr(1, 1), [])


# -- monomial helpers ------------------------------------------------------------

def test_monomial_parse_and_key():
    psi, kappa = parse_monomial("psi1^2*kappa1*psi3")
    assert psi == {1: 2, 3: 1} and kappa == {1: 1}
    assert monomial_key(psi, kappa) == "psi1^2*psi3*kappa1"
    assert parse_monomial("1") == ({}, {})
    with pytest.raises(ValueError):
        parse_monomial("lambda1")


def test_monomial_class_round_trip():
    c = monomial_class(1, 2, "psi1*kappa1")
    opened, boundary = open_monomial_decomposition(c)
    assert boundary.is_zero()
    assert opened == {"psi1*kappa1": Fraction(1)}


def test_solve_for_target_substitutes_the_other_open_monomials():
    # 2 psi1^2 - 3 psi2*psi3 + B = 0 solves to psi1^2 = -(B - 3 BE(psi2*psi3)) / 2,
    # with the provenance of BE(psi2*psi3) after the relation's own
    db = RelationDatabase()
    other = boundary_expression(0, 5, "psi2*psi3", db)
    assert other.provenance and not other.value.is_zero()
    B = boundary_divisor_class(0, 5, ("sep", 0, (1, 2))).mul_psi(3)
    relation = (monomial_class(0, 5, "psi1^2") * 2
                - monomial_class(0, 5, "psi2*psi3") * 3 + B)
    provenance = ["relation"]
    solved = _solve_for_target(*open_monomial_decomposition(relation), "psi1^2",
                               lambda key: boundary_expression(0, 5, key, db),
                               provenance)
    assert solved == (B - other.value * 3) * Fraction(-1, 2)
    assert provenance == ["relation"] + other.provenance
    with pytest.raises(RelationPipelineError):
        _solve_for_target(*open_monomial_decomposition(B), "psi1^2",
                          lambda key: boundary_expression(0, 5, key, db), ["relation"])


def test_solve_monomial_relations_fills_in_and_back_substitutes():
    # rows a + 2b + B1, 3a + c + B2, b + c + B3 (a < b < c as keys): a is
    # eliminated first and fills b into the second row, b second, so a and b
    # are resolved through the later pivots with nonzero coefficients
    a, b, c = "psi1*psi2", "psi1^2", "psi2^2"
    B1 = boundary_divisor_class(0, 5, ("sep", 0, (1, 2))).mul_psi(3)
    B2 = boundary_divisor_class(0, 5, ("sep", 0, (1, 3))).mul_psi(2)
    B3 = boundary_divisor_class(0, 5, ("sep", 0, (2, 4))).mul_psi(1)
    rows = {"R1": ({a: 1, b: 2}, B1), "R2": ({a: 3, c: 1}, B2),
            "R3": ({b: 1, c: 1}, B3)}
    solved = solve_monomial_relations([
        (sum((monomial_class(0, 5, m) * x for m, x in coeffs.items()), boundary),
         label) for label, (coeffs, boundary) in rows.items()])
    assert set(solved) == {a, b, c}
    # formal-zero back-substitution: every row vanishes term by term
    for label, (coeffs, boundary) in rows.items():
        back = sum((solved[m].value * x for m, x in coeffs.items()), boundary)
        assert back.is_zero(), label
    assert solved[b].value == (B2 - B1 * 3 - B3) * Fraction(1, 7)
    # provenance: a pivot row's own history, then that of every monomial
    # it was resolved through, in pivot order
    assert solved[c].provenance == ["R3", "R2", "R1"]
    assert solved[b].provenance == ["R2", "R1", "R3", "R2", "R1"]
    assert solved[a].provenance == ["R1", "R2", "R1", "R3", "R2", "R1"]
