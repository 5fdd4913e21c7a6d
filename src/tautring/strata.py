"""The strata algebra of the moduli of stable curves.

A tautological class is a finite linear combination of decorated strata: a
stable graph with a kappa-monomial at each vertex and a psi-power at each
half-edge and leg, representing the pushforward of that decoration along the
gluing map.  A decoration has one form, the tuples a StrataTerm holds: per
vertex the kappa monomial as (index, exponent) pairs in increasing index
order, per leg label its psi exponent, and per edge the (side 0, side 1)
pair of psi exponents.  Every surgery op edits those tuples and hands them
to canonical_term as they are.  Coefficients are exact (Fraction) or
polynomials in ramification variables (MultiPoly).  Every class is kept in
normal form: strata are replaced by canonical representatives with the
decoration transported along the canonicalizing isomorphism, like terms
merged, zeros dropped, and any stratum carrying a decoration that exceeds
the dimension of one of its vertex moduli discarded (such a decoration
already vanishes on the vertex factor).  The canonical form is the least
(graph encoding, kappa, edge psi) over the graph's vertex orderings: one pass.
canonical_term is the one memo of this layer: each key is checked, filtered
by dimension and labeled once, and the out-of-dimension answer None is
memoized like a term.  Gluing is one operation, _splice, which puts a local
stratum in place of one vertex; gluing_pushforward and the star reduction
both use it.

Products are supported against the codimension-one generators (psi, kappa and
boundary divisors); that is exactly what the theta-power and coefficient
extraction pipelines need.  mul_divisor_sum is the one divisor product: one
pass over a class's terms multiplies by a sum of psi classes and boundary
divisors, and it alone builds a divisor stratum and applies the 1/2 weight of
a divisor whose stratum covers it 2:1.  TautClass.mul_psi,
TautClass.mul_boundary and boundary_divisor_class are its one-generator
cases, and _generator_sums is the one normalization of a generator sum.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .algebra import MultiPoly
from .graphs import (
    StableGraph,
    _candidate_orders,
    _leg_sources,
    _positions,
    contract_edge,
    edge_profile,
    graph_from_json,
    graph_to_json,
    is_stable_pair,
    one_edge_degenerations,
    separating_spec,
    shared,
    split_vertex,
    trivial_graph,
)


class AmbientMismatchError(ValueError):
    """Operands live on different moduli spaces."""


# ---------------------------------------------------------------------------
# Canonical decorated strata
# ---------------------------------------------------------------------------

class StrataTerm:
    """Canonical decorated stratum; construct only through canonical_term
    (relations._formal_monomial_pullback skips its dimension filter)."""

    __slots__ = ("graph", "kappa", "psi_leg", "psi_edge", "_hash")

    def __init__(self, graph, kappa, psi_leg, psi_edge):
        self.graph = graph
        self.kappa = kappa          # per vertex: (index, exponent), index increasing
        self.psi_leg = psi_leg      # exponent per leg label 1..n
        self.psi_edge = psi_edge    # per edge: (exp at side 0, exp at side 1)
        self._hash = hash((graph, kappa, psi_leg, psi_edge))

    def __eq__(self, other):
        return (self.graph == other.graph and self.kappa == other.kappa
                and self.psi_leg == other.psi_leg and self.psi_edge == other.psi_edge)

    def __hash__(self):
        return self._hash

    @property
    def degree(self) -> int:
        dec = sum(a * x for vk in self.kappa for a, x in vk)
        dec += sum(self.psi_leg) + sum(p + q for p, q in self.psi_edge)
        return dec + self.graph.n_edges

    def vertex_degrees(self) -> list:
        return _vertex_degrees(self.graph, self.kappa, self.psi_leg, self.psi_edge)

    def psi_at(self, tag) -> int:
        """Psi exponent at an attachment tag of StableGraph.attachments."""
        if tag[0] == "l":
            return self.psi_leg[tag[1] - 1]
        return self.psi_edge[tag[1]][tag[2]]

    def sort_key(self):
        return (self.graph.n_edges, self.degree, self.graph.genera,
                self.graph.legs, self.graph.edges, self.kappa,
                self.psi_leg, self.psi_edge)

    def __repr__(self):
        bits = []
        for lab, e in enumerate(self.psi_leg, start=1):
            if e:
                bits.append(f"psi{lab}" + (f"^{e}" if e > 1 else ""))
        for v, vk in enumerate(self.kappa):
            for a, x in vk:
                bits.append(f"kappa{a}[v{v}]" + (f"^{x}" if x > 1 else ""))
        for e, (p, q) in enumerate(self.psi_edge):
            if p or q:
                bits.append(f"psiE{e}:{p},{q}")
        dec = "*".join(bits) or "1"
        if self.graph.n_edges == 0:
            return dec
        return f"[{self.graph.genera};{self.graph.legs};{self.graph.edges}]({dec})"


def _vertex_degrees(graph: StableGraph, kappa, psi_leg, psi_edge) -> list:
    """Per vertex, the degree of its decoration: kappa, leg psi and
    half-edge psi, in one pass over legs and edges."""
    degrees = [sum(a * x for a, x in vk) for vk in kappa]
    for v, y in zip(graph.legs, psi_leg):
        degrees[v] += y
    for (a, b), (p, q) in zip(graph.edges, psi_edge):
        degrees[a] += p
        degrees[b] += q
    return degrees


def _local_dim_ok(graph: StableGraph, kappa, psi_leg, psi_edge) -> bool:
    return all(d <= 3 * gv - 3 + val for d, gv, val in zip(
        _vertex_degrees(graph, kappa, psi_leg, psi_edge), graph.genera,
        graph.valences()))


def _canonical_term(graph: StableGraph, kappa, psi_leg, psi_edge):
    # the least (encoding, kappa, edge psi) over the vertex orderings, each
    # edge read from its lower end (a loop from the end with the lesser psi),
    # fixes the canonical graph first, then the least decoration on it
    def labeling(order):
        pos = _positions(order)
        slots = []
        for (a, b), pair in zip(graph.edges, psi_edge):
            a, b = pos[a], pos[b]
            # an unflipped pair is the caller's tuple: cached terms share it
            if (a, pair[0]) > (b, pair[1]):
                a, b, pair = b, a, (pair[1], pair[0])
            slots.append(((a, b), pair))
        slots.sort()
        return ((tuple([graph.genera[old] for old in order]),
                 tuple([pos[v] for v in graph.legs]), tuple([e for e, _ in slots])),
                tuple([kappa[old] for old in order]), tuple([pq for _, pq in slots]))

    encoding, canon_kappa, canon_psi_edge = min(map(labeling, _candidate_orders(graph)))
    # a graph already in canonical form is kept: the memo key holds it
    # anyway; a new one, and the canonical decoration, come from the pool
    if encoding != (graph.genera, graph.legs, graph.edges):
        graph = StableGraph(*map(shared, encoding))
    return StrataTerm(graph, shared(canon_kappa), psi_leg, shared(canon_psi_edge))


@lru_cache(maxsize=None)
def canonical_term(graph: StableGraph, kappa, psi_leg, psi_edge):
    """Canonical representative of a decorated stratum, or None when the
    decoration exceeds the dimension of some vertex moduli (the class is 0).

    The decoration is given as a StrataTerm holds it, tuples throughout:
    kappa, per vertex, (index, exponent) pairs of ints with increasing
    indices >= 1 and exponents >= 1; psi_leg, the int exponent per leg label
    1..n; psi_edge, per edge, the (side 0, side 1) pair of int exponents.
    Any other shape, or a bool or float anywhere (the graph's genera, leg
    vertices and edge ends included), is a ValueError.  A new term's
    canonical graph, kappa and edge-psi tuples come from the graphs
    module's pool (graphs.shared).

    This function is the memo: the shape check, the dimension filter and
    the labeling run once per key, and None is memoized like a term.  A
    refused key memoizes nothing.  A key equal to a memoized one is served
    its term unchecked, so a bool or float key equal to a memoized int key
    (True for 1, 1.0 for 1) gets that key's int-valued term."""
    if (len(kappa), len(psi_leg), len(psi_edge)) != \
            (graph.n_vertices, graph.n_legs, graph.n_edges):
        raise ValueError("decoration does not fit the graph")
    if any(type(x) is not int
           for x in itertools.chain(graph.genera, graph.legs, *graph.edges)):
        raise ValueError(f"genera, leg vertices or edge ends of {graph!r} are not ints")
    for vk in kappa:
        # each index exceeds the one before it, and the first exceeds 0
        if any(type(a) is not int or type(x) is not int or x < 1 or a <= before
               for (before, _), (a, x) in zip(((0, 1),) + vk, vk)):
            raise ValueError(f"kappa monomial {vk!r} is not increasing "
                             "(index, exponent) pairs of positive integers")
    check_exponents(psi_leg)
    check_exponents([x for p, q in psi_edge for x in (p, q)])
    if not _local_dim_ok(graph, kappa, psi_leg, psi_edge):
        return None
    return _canonical_term(graph, kappa, psi_leg, psi_edge)


def check_exponents(exponents) -> None:
    """ValueError unless every exponent is a non-negative int (not a bool)."""
    if any(type(x) is not int or x < 0 for x in exponents):
        raise ValueError("exponents must be non-negative integers")


def check_monomial(n: int, psi_exps: dict, kappas: dict) -> None:
    """ValueError unless a psi/kappa monomial {label: d}, {a: x} on n
    markings has int labels and indices, exponents that check_exponents
    accepts, and each nonzero exponent on a label in 1..n or an index >= 1.
    A bool or float label would pass for the int it equals (True == 1)."""
    check_exponents([*psi_exps.values(), *kappas.values()])
    if any(type(k) is not int for k in itertools.chain(psi_exps, kappas)):
        raise ValueError(f"psi labels {list(psi_exps)} and kappa indices "
                         f"{list(kappas)} must be ints")
    if any(d and not 1 <= i <= n for i, d in psi_exps.items()):
        raise ValueError(f"psi labels {sorted(psi_exps)} outside 1..{n}")
    if any(x and a < 1 for a, x in kappas.items()):
        raise ValueError("kappa index must be >= 1")


def _check_exact(scalar) -> None:
    """ValueError unless a scalar or coefficient is exact: an int (not a
    bool), a Fraction or a MultiPoly.  A float would make an inexact class."""
    if not (type(scalar) is int or isinstance(scalar, (Fraction, MultiPoly))):
        raise ValueError(f"scalar {scalar!r} is not an int, Fraction or MultiPoly")


def bare(graph: StableGraph) -> tuple:
    """The empty decoration of a graph: (kappa, psi_leg, psi_edge)."""
    return ((),) * graph.n_vertices, (0,) * graph.n_legs, ((0, 0),) * graph.n_edges


def _put(entries: tuple, i: int, value) -> tuple:
    """The tuple with entry i replaced by value."""
    return entries[:i] + (value,) + entries[i + 1:]


def _kappa_times(vk: tuple, a: int) -> tuple:
    """The kappa monomial vk times kappa_a."""
    exps = dict(vk)
    exps[a] = exps.get(a, 0) + 1
    return tuple(sorted(exps.items()))


def _set_psi(psi_leg, psi_edge, tag, exponent):
    """(psi_leg, psi_edge) with the psi exponent at an attachment tag set."""
    if tag[0] == "l":
        return _put(psi_leg, tag[1] - 1, exponent), psi_edge
    _, e, s = tag
    return psi_leg, _put(psi_edge, e, _put(psi_edge[e], s, exponent))


# ---------------------------------------------------------------------------
# Tautological classes
# ---------------------------------------------------------------------------

class TautClass:
    """Formal linear combination of canonical decorated strata on one
    moduli space, with Fraction or MultiPoly coefficients."""

    __slots__ = ("g", "n", "terms")

    def __init__(self, g: int, n: int, terms=None):
        if not is_stable_pair(g, n):
            raise AmbientMismatchError(f"(g, n) = ({g}, {n}) is not a stable pair")
        self.g = g
        self.n = n
        self.terms = {}
        if terms:
            for term, coeff in terms.items():
                if coeff != 0:
                    self.terms[term] = coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def fundamental(cls, g, n):
        return cls.monomial(g, n)

    @classmethod
    def psi(cls, g, n, i, coeff=Fraction(1)):
        return cls.monomial(g, n, {i: 1}, coeff=coeff)

    @classmethod
    def kappa(cls, g, n, a, coeff=Fraction(1)):
        return cls.monomial(g, n, kappas={a: 1}, coeff=coeff)

    @classmethod
    def monomial(cls, g, n, psi_exps=None, kappas=None, coeff=Fraction(1)):
        """Edgeless class psi1^d1...psin^dn * prod kappa_a^x, from
        {label: d} and {a: x} that check_monomial accepts; zero exponents
        are dropped."""
        psi_exps, kappas = psi_exps or {}, kappas or {}
        check_monomial(n, psi_exps, kappas)
        _check_exact(coeff)
        kappa = tuple(sorted((a, x) for a, x in kappas.items() if x))
        psi_leg = tuple(psi_exps.get(i, 0) for i in range(1, n + 1))
        return cls(g, n).add_term(trivial_graph(g, n), (kappa,), psi_leg, (), coeff)

    def add_term(self, graph, kappa, psi_leg, psi_edge, coeff):
        """Add coeff times the canonical form of the decorated stratum to this
        class in place (nothing if the decoration exceeds the dimension of a
        vertex moduli) and return this class, so constructors can chain.
        The arguments are those of canonical_term."""
        if (graph.genus, graph.n_legs) != (self.g, self.n):
            raise AmbientMismatchError("stratum does not live on the ambient space")
        term = canonical_term(graph, kappa, psi_leg, psi_edge)
        if term is not None:
            self._accumulate(term, coeff)
        return self

    def _accumulate(self, term, coeff):
        if coeff == 0:
            return
        current = self.terms.get(term)
        total = coeff if current is None else current + coeff
        if total == 0:
            self.terms.pop(term, None)
        else:
            self.terms[term] = total

    # -- linear structure ---------------------------------------------------

    def _check(self, other):
        if (self.g, self.n) != (other.g, other.n):
            raise AmbientMismatchError("classes live on different moduli spaces")

    def _add_in_place(self, other):
        """Add other to this class; for sums built up over a loop, which
        would copy the partial sum at every step with +."""
        self._check(other)
        for term, coeff in other.terms.items():
            self._accumulate(term, coeff)

    def __add__(self, other):
        out = TautClass(self.g, self.n, self.terms)
        out._add_in_place(other)
        return out

    def __neg__(self):
        return TautClass(self.g, self.n, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        _check_exact(scalar)
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        return TautClass(self.g, self.n,
                         {t: c * scalar for t, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TautClass):
            return NotImplemented
        return (self.g, self.n) == (other.g, other.n) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, term: StrataTerm):
        return self.terms.get(term, Fraction(0))

    def map_coefficients(self, fn) -> "TautClass":
        out = TautClass(self.g, self.n)
        for term, coeff in self.terms.items():
            out._accumulate(term, fn(coeff))
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({coeff})*{term!r}" for term, coeff in self.sorted_terms())

    # -- filtration and loci -------------------------------------------------

    def degree_part(self, d: int) -> "TautClass":
        if d < 0:
            raise ValueError("degree must be non-negative")
        return TautClass(self.g, self.n,
                         {t: c for t, c in self.terms.items() if t.degree == d})

    def restrict(self, locus: str) -> "TautClass":
        if locus == "open":
            keep = lambda t: t.graph.n_edges == 0
        elif locus == "compact-type":
            keep = lambda t: t.graph.is_tree()
        elif locus == "rational-tails":
            def keep(t):
                if not t.graph.is_tree():
                    return False
                if self.g == 0:
                    return True
                return sum(1 for gv in t.graph.genera if gv == self.g) == 1
        else:
            raise ValueError(f"unknown locus {locus!r}")
        return TautClass(self.g, self.n,
                         {t: c for t, c in self.terms.items() if keep(t)})

    def relabel_legs(self, perm: dict) -> "TautClass":
        """Relabel legs by a permutation {old label: new label}, checked once."""
        sources = _leg_sources(self.n, perm)
        out = TautClass(self.g, self.n)
        for term, coeff in self.terms.items():
            graph = term.graph
            out.add_term(StableGraph(graph.genera, tuple(graph.legs[i] for i in sources),
                                     graph.edges),
                         term.kappa, tuple(term.psi_leg[i] for i in sources),
                         term.psi_edge, coeff)
        return out

    # -- products with codimension-one generators ----------------------------

    def mul_psi(self, i: int) -> "TautClass":
        """Multiply by psi_i: mul_divisor_sum's one-psi case."""
        if type(i) is not int or not 1 <= i <= self.n:
            raise ValueError(f"no leg labeled {i!r}")
        return mul_divisor_sum(self, [(("psi", i), Fraction(1))])

    def mul_kappa(self, a: int) -> "TautClass":
        if type(a) is not int or a < 1:
            raise ValueError(f"kappa index {a!r} is not an int >= 1")
        out = TautClass(self.g, self.n)
        for term, coeff in self.terms.items():
            for v, vk in enumerate(term.kappa):
                out.add_term(term.graph, _put(term.kappa, v, _kappa_times(vk, a)),
                             term.psi_leg, term.psi_edge, coeff)
        return out

    def mul_monomial(self, psi_exps=None, kappas=None) -> "TautClass":
        psi_exps, kappas = psi_exps or {}, kappas or {}
        check_monomial(self.n, psi_exps, kappas)
        out = self
        for i, d in psi_exps.items():
            for _ in range(d):
                out = out.mul_psi(i)
        for a, x in kappas.items():
            for _ in range(x):
                out = out.mul_kappa(a)
        return out

    def mul_boundary(self, divisor) -> "TautClass":
        """Multiply by a boundary divisor ("irr",) or ("sep", h, legs), excess
        intersection included, with delta_0^{i} = -psi_i and delta_0^{} = 0:
        mul_divisor_sum's one-divisor case."""
        if divisor[0] == "psi":
            raise ValueError(f"unknown divisor {divisor!r}")
        return mul_divisor_sum(self, [(divisor, Fraction(1))])

    # -- forgetful maps ------------------------------------------------------

    def forget_pullback(self) -> "TautClass":
        """Pull back along the map forgetting a new last marked point."""
        new_n = self.n + 1
        out = TautClass(self.g, new_n)
        for term, coeff in self.terms.items():
            graph = term.graph
            for v, tags in enumerate(graph.attachments()):
                placed = StableGraph(graph.genera,
                                     graph.legs + (v,), graph.edges)
                # kappa corrections (kappa_a - psi_new^a)^x at the vertex
                # acquiring the point
                for kept, moved, mult in _kappa_splits(term.kappa[v]):
                    psi_new = sum(a * j for a, j in moved)
                    out.add_term(placed, _put(term.kappa, v, kept),
                                 term.psi_leg + (psi_new,), term.psi_edge,
                                 coeff * ((-1) ** sum(j for _, j in moved) * mult))
                # bubble corrections, one per decorated marking at v: the
                # marking and the new point move to a genus-0 bubble, joined
                # by a new last edge whose side 0 is at v
                for tag in tags:
                    y = term.psi_at(tag)
                    if y == 0:
                        continue
                    bubbled, _ = split_vertex(placed, v, graph.genera[v],
                                              (tag, ("l", new_n)))
                    psi_leg, psi_edge = _set_psi(term.psi_leg + (0,),
                                                 term.psi_edge, tag, 0)
                    out.add_term(bubbled, term.kappa + ((),), psi_leg,
                                 psi_edge + ((y - 1, 0),), -coeff)
        return out

    def forget_pushforward(self) -> "TautClass":
        """Push forward along the map forgetting the last marked point."""
        if 2 * self.g - 2 + (self.n - 1) <= 0:
            raise AmbientMismatchError("no stable target after forgetting")
        lab = self.n
        out = TautClass(self.g, self.n - 1)
        for term, coeff in self.terms.items():
            graph = term.graph
            v = graph.legs[lab - 1]
            k = term.psi_leg[lab - 1]
            tags = graph.attachments()[v]
            if 2 * graph.genera[v] - 2 + len(tags) - 1 > 0:
                _push_stable_vertex(out, term, coeff, v, tags, lab, k)
            else:
                _push_unstable_vertex(out, term, coeff, v, tags, lab)
        return out

    def pushforward_to(self, m: int) -> "TautClass":
        out = self
        while out.n > m:
            out = out.forget_pushforward()
        return out

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for term, coeff in self.sorted_terms():
            terms.append({
                "graph": graph_to_json(term.graph),
                "decoration": {
                    "kappa": [{str(a): x for a, x in vk} for vk in term.kappa],
                    "psi_legs": list(term.psi_leg),
                    "psi_edges": [list(p) for p in term.psi_edge],
                },
                "coeff": encode_coeff(coeff),
            })
        return {"g": self.g, "n": self.n, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "TautClass":
        out = cls(data["g"], data["n"])
        for item in data["terms"]:
            dec = item["decoration"]
            kappa = tuple(tuple(sorted((int(a), x) for a, x in vk.items()))
                          for vk in dec["kappa"])
            psi_leg, psi_edge = tuple(dec["psi_legs"]), tuple(map(tuple, dec["psi_edges"]))
            check_exponents([*(x for vk in kappa for _, x in vk), *psi_leg,
                             *itertools.chain.from_iterable(psi_edge)])
            out.add_term(graph_from_json(item["graph"]), kappa, psi_leg, psi_edge,
                         decode_coeff(item["coeff"]))
        return out


def encode_coeff(coeff) -> object:
    if isinstance(coeff, MultiPoly):
        return {"vars": list(coeff.variables), "poly": coeff.to_text()}
    return str(Fraction(coeff))


def decode_coeff(data) -> Fraction:
    """Read encode_coeff's Fraction text back; stored classes hold rational
    coefficients only, so any other form is a ValueError or TypeError."""
    if type(data) is not str:
        raise TypeError(f"coefficient {data!r} is not Fraction text")
    value = Fraction(data)
    if str(value) != data:
        raise ValueError(f"coefficient {data!r} is not Fraction text")
    return value


# ---------------------------------------------------------------------------
# Normalization of boundary divisors and divisor classes
# ---------------------------------------------------------------------------

def normalize_divisor(g: int, n: int, divisor):
    """Resolve a boundary divisor through the unstable conventions.

    A divisor is exactly ('irr',) or ('sep', h, legs); anything else is a
    ValueError.  Returns ('irr',), ('sep', h, legs), ('psi', i) standing for
    -psi_i, or ('zero',)."""
    if len(divisor) == 1 and divisor[0] == "irr":
        return ("irr",) if g >= 1 else ("zero",)
    if len(divisor) != 3 or divisor[0] != "sep":
        raise ValueError(f"unknown divisor {divisor!r}")
    h, legs = divisor[1], tuple(divisor[2])
    if type(h) is not int or not 0 <= h <= g:
        raise ValueError(f"separating genus {h!r} is not an int in 0..{g}")
    if any(type(lab) is not int or not 1 <= lab <= n for lab in legs) \
            or len(set(legs)) != len(legs):
        raise ValueError(f"divisor legs {legs!r} are not distinct int labels in 1..{n}")
    legs = frozenset(legs)
    for hh, part in ((h, legs), (g - h, frozenset(range(1, n + 1)) - legs)):
        if hh == 0 and len(part) == 0:
            return ("zero",)
        if hh == 0 and len(part) == 1:
            return ("psi", next(iter(part)))
    return separating_spec(g, n, h, legs)


def boundary_divisor_class(g: int, n: int, divisor) -> TautClass:
    """The divisor as a tautological class (reduced boundary class):
    mul_divisor_sum's one-divisor case on the fundamental class."""
    return TautClass.fundamental(g, n).mul_boundary(divisor)


def _generator_sums(g: int, n: int, generators) -> tuple:
    """(psis, divisors) for the sum of coeff * generator over (generator,
    coeff) pairs on the (g, n) space, keyed ("psi", i) for +psi_i and by the
    stable divisors of normalize_divisor: a divisor equal to -psi_i moves to
    the psi part with its sign, a zero one is dropped, and repeated ones add
    up.  Each coefficient must pass _check_exact."""
    psis, divisors = {}, {}
    for key, coeff in generators:
        _check_exact(coeff)
        if key[0] == "psi" and len(key) == 2:
            check_monomial(n, {key[1]: 1}, {})
        else:
            key = normalize_divisor(g, n, key)
            coeff = -coeff if key[0] == "psi" else coeff
        if key[0] != "zero":
            acc = psis if key[0] == "psi" else divisors
            acc[key] = acc[key] + coeff if key in acc else coeff
    return psis, divisors


def mul_divisor_sum(c: TautClass, generators) -> TautClass:
    """c times the sum of coeff * generator over (generator, coeff) pairs, in
    one pass over c's terms: the one divisor product.  A generator is
    ("psi", i) for +psi_i or a divisor of normalize_divisor, summed by
    _generator_sums.  A term's edge on a divisor gives the excess
    -psi' - psi'' at its node, and a one-edge degeneration on a divisor gives
    its stratum; a loop, or an attachment-free symmetric split, is 2:1 onto
    its divisor: weight 1/2."""
    psis, divisors = _generator_sums(c.g, c.n, generators)
    out, half = TautClass(c.g, c.n), Fraction(1, 2)
    for term, coeff in c.terms.items():
        graph, kappa, psi_leg, psi_edge = term.graph, term.kappa, term.psi_leg, term.psi_edge
        for (_, i), a in psis.items():
            out.add_term(graph, kappa, _put(psi_leg, i - 1, psi_leg[i - 1] + 1), psi_edge,
                         a * coeff)
        if not divisors:
            continue
        for e, ((x, y), (p, q)) in enumerate(zip(graph.edges, psi_edge)):
            a = divisors.get(("irr",) if x == y else edge_profile(graph, e))
            for pair in ((p + 1, q), (p, q + 1)) if a is not None else ():
                out.add_term(graph, kappa, psi_leg, _put(psi_edge, e, pair), -a * coeff)
        grown = psi_edge + ((0, 0),)  # the new edge comes last, a split's new vertex too
        for degen, e in one_edge_degenerations(graph):
            v, w = degen.edges[e]
            a = divisors.get(("irr",) if v == w else edge_profile(degen, e))
            if a is not None and v == w:
                out.add_term(degen, kappa, psi_leg, grown, a * half * coeff)
            elif a is not None:
                # only the trivial graph of an unmarked space has an attachment-free vertex
                weight = half if not (graph.edges or c.n) and 2 * degen.genera[v] == c.g else 1
                for kept, moved, mult in _kappa_splits(kappa[v]):
                    out.add_term(degen, _put(kappa, v, kept) + (moved,), psi_leg, grown,
                                 a * (weight * mult) * coeff)
    return out


def _kappa_splits(vertex_kappa):
    """Binomial splits of a kappa monomial prod kappa_a^{x_a}, given as
    (a, x_a) pairs: yields kappa monomials (kept, moved), in the same form,
    with kept[a] + moved[a] = x_a, and the multiplicity prod C(x_a, moved[a])
    as a Fraction.

    A vertex split sends `moved` to the new vertex (kappa classes restrict
    additively to a boundary gluing).  The forgetful pullback expands
    prod (kappa_a - psi_new^a)^{x_a}: `moved` becomes psi_new^(sum a*j) with
    sign (-1)^(sum j)."""
    for picks in itertools.product(*[range(x + 1) for _, x in vertex_kappa]):
        pairs = tuple(zip(vertex_kappa, picks))
        yield (tuple((a, x - j) for (a, x), j in pairs if x - j),
               tuple((a, j) for (a, _), j in pairs if j),
               Fraction(math.prod(math.comb(x, j) for (_, x), j in pairs)))


# ---------------------------------------------------------------------------
# Pushforward along the last forgetful map
# ---------------------------------------------------------------------------

def _push_stable_vertex(out: TautClass, term: StrataTerm, coeff, v: int,
                        tags, lab: int, k: int):
    """Fiber integration at a vertex v, with attachment tags, that stays
    stable: expand kappa over the pullback basis, integrate psi_new powers,
    collect bubble terms."""
    graph = term.graph
    target = StableGraph(graph.genera, graph.legs[:-1], graph.edges)
    psi_leg = term.psi_leg[:-1]
    kappa0 = 2 * graph.genera[v] - 2 + (len(tags) - 1)
    for kept, moved, mult in _kappa_splits(term.kappa[v]):
        # conversion kappa_a -> psi_new^a carries no sign on pushforward
        k_total = k + sum(a * j for a, j in moved)
        if k_total >= 1:
            # psi_new^(d+1) integrates to kappa_d; kappa_0 is the scalar 2g-2+n
            drop = k_total - 1
            scale = Fraction(1)
            if drop == 0:
                scale = Fraction(kappa0)
            else:
                kept = _kappa_times(kept, drop)
            out.add_term(target, _put(term.kappa, v, kept), psi_leg,
                         term.psi_edge, coeff * mult * scale)
        else:
            # k_total == 0 happens only for the pure pullback piece (nothing
            # moved, kept is the whole monomial); it integrates to the
            # bubble sum over decorated markings at v
            for tag in tags:
                if tag[0] == "l" and tag[1] == lab:
                    continue
                y = term.psi_at(tag)
                if y == 0:
                    continue
                out.add_term(target, term.kappa,
                             *_set_psi(psi_leg, term.psi_edge, tag, y - 1), coeff)


def _push_unstable_vertex(out: TautClass, term: StrataTerm, coeff, v: int,
                          tags, lab: int):
    """Stabilize a genus-0 vertex v, with attachment tags, left with two
    special points: contract one of its edges, and the vertex's other
    attachment takes the psi power from the far side of that edge.  So a
    leg slides onto the neighbor, or two edges fuse into one."""
    if term.psi_leg[lab - 1] != 0:
        raise AssertionError("decorated point on a dimension-zero vertex")
    others = [t for t in tags if not (t[0] == "l" and t[1] == lab)]
    if len(others) != 2:
        raise AssertionError("unstable vertex with unexpected valence")
    if term.kappa[v]:
        raise AssertionError("kappa decoration on a dimension-zero vertex")
    # legs come before half-edges and edges are in order, so contracting
    # the later attachment's edge keeps the index of the other attachment
    other, last = others
    if last[0] != "h":
        raise AssertionError("cannot stabilize: two legs on an unstable vertex")
    _, e, s = last
    if other[:2] == ("h", e):
        raise AssertionError("loop on an unstable vertex cannot occur here")
    contracted, remap = contract_edge(term.graph, e)
    # v merges into its neighbor, whose kappa monomial it takes
    kappa = [()] * contracted.n_vertices
    for u, vk in enumerate(term.kappa):
        if u != v:
            kappa[remap[u]] = vk
    psi_leg, psi_edge = _set_psi(term.psi_leg[:-1],
                                 term.psi_edge[:e] + term.psi_edge[e + 1:],
                                 other, term.psi_edge[e][1 - s])
    target = StableGraph(contracted.genera, contracted.legs[:-1], contracted.edges)
    out.add_term(target, tuple(kappa), psi_leg, psi_edge, coeff)


# ---------------------------------------------------------------------------
# Gluing pushforward
# ---------------------------------------------------------------------------

def _splice(graph: StableGraph, decoration, v: int, local: StrataTerm) -> tuple:
    """(graph, kappa, psi_leg, psi_edge) with vertex v of the decorated
    stratum replaced by the stratum `local` on the moduli of v, whose
    markings are the attachments of v ranked as in StableGraph.attachments.
    Local vertex 0 takes index v, the other local vertices and the local
    edges are appended, and each attachment of v moves to the local vertex
    of its marking with that marking's psi; every other vertex, leg and edge
    keeps its index and decoration, and v's own decoration is dropped."""
    kappa, psi_leg, psi_edge = decoration
    local_graph = local.graph
    nv = graph.n_vertices
    where = (v, *range(nv, nv + local_graph.n_vertices - 1))
    markings = zip(local_graph.legs, local.psi_leg)   # by rank, in attachment order
    legs, psi_leg = list(graph.legs), list(psi_leg)
    for i, u in enumerate(graph.legs):
        if u == v:
            w, psi_leg[i] = next(markings)
            legs[i] = where[w]
    edges, psi_edge = list(graph.edges), list(psi_edge)
    for e, ends in enumerate(graph.edges):
        for s in (0, 1):
            if ends[s] == v:
                w, y = next(markings)
                edges[e] = _put(edges[e], s, where[w])
                psi_edge[e] = _put(psi_edge[e], s, y)
    edges.extend((where[a], where[b]) for a, b in local_graph.edges)
    genera = graph.genera[:v] + local_graph.genera[:1] + graph.genera[v + 1:] \
        + local_graph.genera[1:]
    return (StableGraph(genera, tuple(legs), tuple(edges)),
            _put(kappa, v, local.kappa[0]) + local.kappa[1:], tuple(psi_leg),
            tuple(psi_edge) + local.psi_edge)


def gluing_pushforward(ambient: StableGraph, vertex_classes) -> TautClass:
    """Assemble per-vertex classes along a stable graph.

    vertex_classes[v] lives on the moduli of the v-th vertex; its markings
    1..n(v) correspond to the attachments of v in the order given by
    StableGraph.attachments (legs by label, then half-edges).  Each product
    of one term per vertex, in the order of itertools.product over the
    classes' sorted terms, is spliced into the bare ambient graph from the
    last vertex down (_splice), the coefficients multiplied in vertex order."""
    g, n = ambient.genus, ambient.n_legs
    markings = ambient.attachments()
    if len(vertex_classes) != ambient.n_vertices:
        raise AmbientMismatchError(
            f"{len(vertex_classes)} vertex classes for {ambient.n_vertices} vertices")
    for v, cls in enumerate(vertex_classes):
        expected = (ambient.genera[v], len(markings[v]))
        if (cls.g, cls.n) != expected:
            raise AmbientMismatchError(
                f"vertex {v} class lives on {(cls.g, cls.n)}, expected {expected}")
    out = TautClass(g, n)
    for combo in itertools.product(*[cls.sorted_terms() for cls in vertex_classes]):
        coeff = combo[0][1]
        for _, c in combo[1:]:
            coeff = coeff * c
        stratum = (ambient, *bare(ambient))
        for v in reversed(range(ambient.n_vertices)):
            stratum = _splice(stratum[0], stratum[1:], v, combo[v][0])
        out.add_term(*stratum, coeff)
    return out
