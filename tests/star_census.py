"""The Theorem-star census: every decorated stratum of a moduli space of
codimension at least max(g, 1), each reduced by theorem_star_reduce.

Tier-1 runs it on (0,4)...(0,6) and (1,1)...(1,4); the genus2 CI job on
(2,0)...(2,2), importing this module from tests/.  The digest of a space is
the SHA-256 of one line per stratum, in sort_key order: the canonical JSON
of {"input": the stratum as a class, "reduced": its reduction}."""

import hashlib
import itertools
import json
from fractions import Fraction

from tautring.graphs import enumerate_stable_graphs
from tautring.relations import has_property_star, theorem_star_reduce
from tautring.strata import StrataTerm, TautClass, canonical_term


def _kappa_monomials(degree, least=1):
    """Kappa monomials of the given degree as (index, exponent) pairs with
    increasing indices, every index at least `least`."""
    if degree == 0:
        yield ()
        return
    for a in range(least, degree + 1):
        for x in range(1, degree // a + 1):
            for rest in _kappa_monomials(degree - a * x, a + 1):
                yield ((a, x),) + rest


def _compositions(total, width):
    """Tuples of `width` non-negative ints summing to total."""
    if width == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(total + width - 1), width - 1):
        bounds = (-1,) + cuts + (total + width - 1,)
        yield tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


def _vertex_decorations(genus, valence):
    """(degree, kappa, psi per attachment) for every decoration of a vertex
    of that genus and valence within the dimension of its moduli."""
    for degree in range(3 * genus - 3 + valence + 1):
        for k in range(degree + 1):
            for kappa in _kappa_monomials(k):
                for psi in _compositions(degree - k, valence):
                    yield degree, kappa, psi


def _choices(per_vertex, budget):
    """One decoration per vertex, of total degree at most budget."""
    if not per_vertex:
        yield ()
        return
    for option in per_vertex[0]:
        if option[0] <= budget:
            for rest in _choices(per_vertex[1:], budget - option[0]):
                yield (option,) + rest


def decorated_strata(g, n, min_degree):
    """Every canonical decorated stratum of (g, n) whose degree (edges plus
    decoration) is at least min_degree, sorted by StrataTerm.sort_key."""
    dim = 3 * g - 3 + n
    found = set()
    for graph in enumerate_stable_graphs(g, n, dim):
        tags = graph.attachments()
        per_vertex = [list(_vertex_decorations(gv, len(t)))
                      for gv, t in zip(graph.genera, tags)]
        for choice in _choices(per_vertex, dim - graph.n_edges):
            if graph.n_edges + sum(d for d, _, _ in choice) < min_degree:
                continue
            psi_leg = [0] * n
            psi_edge = [[0, 0] for _ in graph.edges]
            for (_, _, psi), vertex_tags in zip(choice, tags):
                for tag, y in zip(vertex_tags, psi):
                    if tag[0] == "l":
                        psi_leg[tag[1] - 1] = y
                    else:
                        psi_edge[tag[1]][tag[2]] = y
            term = canonical_term(graph, tuple(kappa for _, kappa, _ in choice),
                                  tuple(psi_leg), tuple(map(tuple, psi_edge)))
            if term is not None:
                found.add(term)
    return sorted(found, key=StrataTerm.sort_key)


def star_census(g, n, db):
    """Reduce every decorated stratum of (g, n) of codimension at least
    max(g, 1) against db.  Every output term must have property star and at
    least codim - g + 1 genus-zero vertices, else AssertionError naming the
    stratum.  Returns (number of strata, SHA-256 of the census lines)."""
    digest = hashlib.sha256()
    strata = decorated_strata(g, n, max(g, 1))
    for term in strata:
        stratum = TautClass(g, n, {term: Fraction(1)})
        reduced = theorem_star_reduce(stratum, db)
        for out in reduced.terms:
            rational = sum(1 for gv in out.graph.genera if gv == 0)
            assert has_property_star(out), (term, out)
            assert rational >= out.degree - g + 1, (term, out)
        line = {"input": stratum.to_json(), "reduced": reduced.to_json()}
        digest.update(json.dumps(line, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
    return len(strata), digest.hexdigest()
