"""Stable graphs (dual graphs of stable curves).

A stable graph is stored as a tuple of vertex genera, a tuple assigning each
leg label 1..n to a vertex, and a tuple of edges, each an ordered pair of
vertex indices.  Half-edges are addressed as (edge index, side) with side 0
or 1; side s of edge e sits on vertex edges[e][s].  Legs are always fixed
pointwise by isomorphisms, so two graphs are isomorphic exactly when some
relabeling of vertices and edges carries one presentation to the other while
keeping every leg label on a matching vertex.

Canonical labeling is by exhaustive search over vertex orderings refined by
(genus, attached legs, valence, loops) invariants, read in one pass over legs
and edges; graphs at desk scale have at most a handful of vertices, so
certified exactness is cheap.  The search gives the least encoding and how
many orderings reach it; strata labels a decorated stratum in one pass over
the same orderings.  Caching: the strata layer memoizes canonical terms, and
this module memoizes only enumerations, with each class's automorphism count.
Kept canonical objects share their tuples: an enumerated graph's genera,
legs and edges, and a new canonical_term's graph, kappa and edge-psi
tuples, come from one pool (shared), a dict from each distinct tuple value
to its first object.  The pool holds tuples of ints only, never a graph:
the 60,242 graphs of genus 2 with 7 legs and at most 3 edges hold 7,045
distinct tuples.

Graphs are validated where they enter the program: stable_graph checks the
graphs that callers build and graph_from_json reads.  Every operation on
stable graphs, here and in the strata layer, builds StableGraph directly:
surgery, gluing and relabeling of stable graphs give stable graphs, and
tests check their results with stable_graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache


class InvalidGraphError(ValueError):
    """The candidate data do not describe a connected stable graph."""


@dataclass(frozen=True, slots=True)
class StableGraph:
    """A stable graph, unchecked: operations on stable graphs build it
    directly, and data from outside go through stable_graph."""

    genera: tuple
    legs: tuple
    edges: tuple

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_legs(self) -> int:
        return len(self.legs)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def h1(self) -> int:
        return self.n_edges - self.n_vertices + 1

    @property
    def genus(self) -> int:
        # h1 + sum of vertex genera, without the property calls: every
        # TautClass.add_term checks it
        return len(self.edges) - len(self.genera) + 1 + sum(self.genera)

    def attachments(self) -> list:
        """Per vertex, its attachment tags: ('l', label) legs by label, then
        ('h', edge, side) half-edges by edge and side.  Local markings are
        ranked in this order (strata.gluing_pushforward).  One pass over
        legs and edges, not cached: cached graphs (enumerations and
        canonical-term keys) would keep every table alive."""
        tags = [[] for _ in self.genera]
        for i, v in enumerate(self.legs):
            tags[v].append(("l", i + 1))
        for e, (a, b) in enumerate(self.edges):
            tags[a].append(("h", e, 0))
            tags[b].append(("h", e, 1))
        return tags

    def valences(self) -> list:
        """Per vertex, the number of legs and half-edges attached there."""
        count = [0] * len(self.genera)
        for v in self.legs:
            count[v] += 1
        for a, b in self.edges:
            count[a] += 1
            count[b] += 1
        return count

    def is_tree(self) -> bool:
        return self.h1 == 0

    def canonical_key(self) -> str:
        return _encode_hex(_canonical_search(self)[0])

    def __repr__(self):
        return f"StableGraph(genera={self.genera}, legs={self.legs}, edges={self.edges})"


def stable_graph(genera, legs, edges) -> StableGraph:
    """Validate and build a stable graph of ints; raises InvalidGraphError.
    The check for graphs entering the program, not for results of operations
    on stable graphs (module docstring)."""
    graph = StableGraph(tuple(genera), tuple(legs), tuple(tuple(e) for e in edges))
    nv = graph.n_vertices
    if nv == 0:
        raise InvalidGraphError("graph has no vertices")
    ends = list(itertools.chain(graph.legs, *graph.edges))
    if any(type(x) is not int for x in [*graph.genera, *ends]):
        raise InvalidGraphError("genera, leg vertices and edge ends must be ints")
    if any(g < 0 for g in graph.genera):
        raise InvalidGraphError("negative genus")
    if not all(0 <= v < nv for v in ends):
        raise InvalidGraphError("leg or edge attached to a missing vertex")
    # connectivity: a spanning forest is a tree exactly when it has nv - 1 edges
    _, tree = union_find(nv, graph.edges)
    if len(tree) != nv - 1:
        raise InvalidGraphError("graph is not connected")
    # after the range checks: a negative index would count silently
    for v, (gv, val) in enumerate(zip(graph.genera, graph.valences())):
        if 2 * gv - 2 + val <= 0:
            raise InvalidGraphError(f"vertex {v} is unstable")
    return graph


def union_find(nv: int, edges):
    """Join vertices 0..nv-1 along the given (a, b) edges.

    Returns (find, tree): find maps a vertex to the root of its component,
    and tree lists the indices of the edges that joined two components, i.e.
    a spanning forest; the other edges close cycles."""
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for i, (a, b) in enumerate(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.append(i)
    return find, tree


def is_stable_pair(g: int, n: int) -> bool:
    """Whether the moduli of genus-g curves with n markings is a stable
    moduli space: g and n ints (not bools), g >= 0, n >= 0, 2g - 2 + n > 0."""
    return type(g) is type(n) is int and g >= 0 and n >= 0 and 2 * g - 2 + n > 0


def trivial_graph(g: int, n: int) -> StableGraph:
    if not is_stable_pair(g, n):
        raise InvalidGraphError(f"(g, n) = ({g}, {n}) is not a stable pair")
    return StableGraph((g,), (0,) * n, ())


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------

# Each distinct tuple value of the canonical graphs and decorations kept so
# far, mapped to its first object (module docstring).  Only tuples of ints
# enter: True == 1 and 1.0 == 1, so a bool or float value would stand in for
# an equal int one, and no result may depend on what the pool held.
_TUPLES: dict = {}


def shared(values: tuple) -> tuple:
    """The pooled tuple equal to values, a tuple of ints (or of tuples of
    ints): the first object with that value, pooled if new."""
    return _TUPLES.setdefault(values, values)


def _candidate_orders(graph: StableGraph):
    """Vertex orderings consistent with the sorted refinement by the vertex
    invariant (genus, attached legs, valence, loops), read in one pass over
    legs and edges.  Distinct vertices carry disjoint leg sets, so a
    vertex's least leg label, 0 for none, orders them as the sets do."""
    genera, legs = graph.genera, graph.legs
    nv = len(genera)
    least = [0] * nv
    valence = [0] * nv
    loops = [0] * nv
    for label in range(len(legs), 0, -1):
        v = legs[label - 1]
        least[v] = label
        valence[v] += 1
    for a, b in graph.edges:
        valence[a] += 1
        valence[b] += 1
        if a == b:
            loops[a] += 1
    invariant = list(zip(genera, least, valence, loops))
    # a stable sort: each invariant class stays in increasing vertex order
    order = sorted(range(nv), key=invariant.__getitem__)
    if len(set(invariant)) == nv:
        # every invariant class has one vertex: one ordering
        yield tuple(order)
        return
    blocks = [tuple(block) for _, block in
              itertools.groupby(order, key=invariant.__getitem__)]
    for perm_blocks in itertools.product(*map(itertools.permutations, blocks)):
        yield tuple(itertools.chain.from_iterable(perm_blocks))


def _positions(order) -> list:
    """pos[old vertex] = its index in the ordering."""
    pos = [0] * len(order)
    for new, old in enumerate(order):
        pos[old] = new
    return pos


def _canonical_search(graph: StableGraph):
    """Minimal encoding and the number of vertex orderings achieving it.
    Under an ordering the encoding is (genera, leg vertices, sorted edge
    pairs), each pair (lower end, upper end); lower is canonical."""
    best = None
    count = 0
    for order in _candidate_orders(graph):
        pos = _positions(order)
        pairs = []
        for a, b in graph.edges:
            a, b = pos[a], pos[b]
            pairs.append((a, b) if a <= b else (b, a))
        pairs.sort()
        encoding = (tuple([graph.genera[old] for old in order]),
                    tuple([pos[v] for v in graph.legs]), tuple(pairs))
        if best is None or encoding < best:
            best, count = encoding, 1
        elif encoding == best:
            count += 1
    return best, count


def _encode_hex(encoding) -> str:
    genera, legs, edges = encoding
    text = "g:" + ",".join(map(str, genera)) + \
        ";l:" + ",".join(map(str, legs)) + \
        ";e:" + ",".join(f"{a}-{b}" for a, b in edges)
    return text.encode().hex()


def canonical_graph(graph: StableGraph) -> StableGraph:
    return StableGraph(*_canonical_search(graph)[0])


def _automorphisms(encoding, orderings: int) -> int:
    """Order of the automorphism group (vertex and half-edge permutations
    preserving incidence, involution and genera, fixing legs pointwise) of
    the graph with this canonical encoding, reached by `orderings` orderings.

    Every vertex automorphism preserves the refinement invariants, so the
    orderings achieving the canonical encoding are exactly one coset of the
    vertex automorphism group; each vertex automorphism lifts to the
    half-edges in a fixed number of ways: parallel edges, adjacent among the
    sorted edges, permute, and loops flip."""
    for (a, b), run in itertools.groupby(encoding[2]):
        m = sum(1 for _ in run)
        orderings *= math.factorial(m) * (2 ** m if a == b else 1)
    return orderings


def automorphism_count(graph: StableGraph) -> int:
    """_automorphisms of any presentation, by one canonical search."""
    return _automorphisms(*_canonical_search(graph))


# ---------------------------------------------------------------------------
# Surgery: contraction, splitting, degeneration
# ---------------------------------------------------------------------------

def contract_edge(graph: StableGraph, e: int) -> tuple:
    """Contract edge e: merge its endpoints (genus adds) or, for a loop,
    remove it and raise the vertex genus by one.  Returns (graph', remap),
    where remap[v] is the new index of vertex v; the other edges keep their
    order and the legs their labels."""
    a, b = graph.edges[e]
    genera = list(graph.genera)
    if a == b:
        remap = tuple(range(len(genera)))
        genera[a] += 1
    else:
        keep, drop = min(a, b), max(a, b)
        remap = tuple(keep if v == drop else v - (v > drop)
                      for v in range(len(genera)))
        genera[keep] += genera.pop(drop)
    legs = tuple(remap[v] for v in graph.legs)
    edges = tuple((remap[x], remap[y]) for i, (x, y) in enumerate(graph.edges) if i != e)
    return StableGraph(tuple(genera), legs, edges), remap


def edge_profile(graph: StableGraph, e: int):
    """Isomorphism type of the one-edge graph obtained by contracting every
    edge except e: ('irr',) for a non-separating edge, else the
    separating_spec of the side of the edge's first end."""
    nv = graph.n_vertices
    find, _ = union_find(nv, graph.edges[:e] + graph.edges[e + 1:])
    a, b = graph.edges[e]
    root = find(a)
    if root == find(b):
        return ("irr",)
    verts = [v for v in range(nv) if find(v) == root]
    inner = sum(1 for i, (x, y) in enumerate(graph.edges)
                if i != e and find(x) == root)
    h = sum(graph.genera[v] for v in verts) + inner - len(verts) + 1
    legs = [i + 1 for i, v in enumerate(graph.legs) if find(v) == root]
    return separating_spec(graph.genus, graph.n_legs, h, legs)


def separating_spec(g: int, n: int, h: int, legs) -> tuple:
    """Canonical ('sep', h, legs) key for the divisor with a genus-h side
    carrying the given legs (the complementary description is identified)."""
    legs = tuple(sorted(legs))
    other = (g - h, tuple(sorted(set(range(1, n + 1)) - set(legs))))
    return ("sep",) + min((h, legs), other)


def split_vertex(graph: StableGraph, v: int, g1: int, moved) -> tuple:
    """Split v into genus g1, keeping index v and the attachments not in
    `moved`, and a fresh vertex of genus g(v)-g1 carrying the tags in
    `moved`, joined by a new edge.  Returns (graph', new_edge_index).  Leg
    and edge identifiers are stable."""
    nv = len(graph.genera)
    genera = graph.genera[:v] + (g1,) + graph.genera[v + 1:] + \
        (graph.genera[v] - g1,)
    legs = list(graph.legs)
    edges = list(graph.edges)
    for tag in moved:
        if tag[0] == "l":
            legs[tag[1] - 1] = nv
        else:
            a, b = edges[tag[1]]
            edges[tag[1]] = (nv, b) if tag[2] == 0 else (a, nv)
    edges.append((v, nv))
    return StableGraph(genera, tuple(legs), tuple(edges)), graph.n_edges


def add_loop(graph: StableGraph, v: int) -> tuple:
    """Genus-reducing loop at v (inverse of loop contraction)."""
    genera = graph.genera[:v] + (graph.genera[v] - 1,) + graph.genera[v + 1:]
    return StableGraph(genera, graph.legs, graph.edges + ((v, v),)), graph.n_edges


@lru_cache(maxsize=None)
def _split_patterns(n: int) -> tuple:
    """(bits, complement, sum of bits) per 0/1 pattern of length n."""
    patterns = list(itertools.product((0, 1), repeat=n))
    # product() counts in binary, so reading it backwards gives complements
    return tuple(zip(patterns, reversed(patterns), map(sum, patterns)))


def vertex_split_options(gv: int, tags):
    """Labeled separating splits of a genus-gv vertex with attachment tags,
    both sides stable, one per unordered split: (g1, moved_tags) for
    split_vertex.  Multiplicities matter for divisor products, so no
    isomorphism deduplication happens here."""
    n = len(tags)
    # each unordered split is listed once, from its side of lower
    # (genus, tags), so g1 never exceeds gv - g1
    for g1 in range(gv // 2 + 1):
        g2 = gv - g1
        for bits, rest, k1 in _split_patterns(n):
            # each side also gets the new edge's half-edge
            if 2 * g1 - 1 + k1 <= 0 or 2 * g2 - 1 + n - k1 <= 0:
                continue
            side2 = tuple(itertools.compress(tags, rest))
            if g1 == g2 and tuple(itertools.compress(tags, bits)) > side2:
                continue
            yield g1, side2


def one_edge_degenerations(graph: StableGraph):
    """Every labeled (graph', new_edge) whose contraction at new_edge returns
    the input: a loop at each vertex of positive genus, then one split per
    labeled unordered split of each vertex (vertex_split_options).  Pairs
    may be isomorphic; callers that need classes dedup by canonical key."""
    found = []
    for v, tags in enumerate(graph.attachments()):
        if graph.genera[v] >= 1:
            found.append(add_loop(graph, v))
        for g1, moved_tags in vertex_split_options(graph.genera[v], tags):
            found.append(split_vertex(graph, v, g1, moved_tags))
    return found


def graph_classes(g: int, n: int, max_edges: int):
    """Every isomorphism class of genus-g, n-leg stable graphs with at most
    max_edges edges, ordered by edge count then canonical key, as an iterator
    of (graph, automorphism count) pairs, found by one search per class."""
    if not is_stable_pair(g, n):
        raise InvalidGraphError(f"(g, n) = ({g}, {n}) is not a stable pair")
    if max_edges < 0:
        raise InvalidGraphError("max_edges must be non-negative")
    return zip(*_enumerate_cached(g, n, min(max_edges, 3 * g - 3 + n)))


def enumerate_stable_graphs(g: int, n: int, max_edges: int):
    """The graphs of graph_classes(g, n, max_edges), in its order."""
    return [graph for graph, _aut in graph_classes(g, n, max_edges)]


@lru_cache(maxsize=None)
def _enumerate_cached(g: int, n: int, limit: int) -> tuple:
    candidates = [trivial_graph(g, n)]
    graphs, auts = [], []
    for edges in range(limit + 1):
        # a level maps the canonical encodings of its candidates, one search
        # each, to their orderings; a new encoding's tuples come from the
        # pool (genera of ints: they grow from trivial_graph's by surgery)
        level = {}
        for candidate in candidates:
            encoding, orderings = _canonical_search(candidate)
            if encoding not in level:
                level[tuple(map(shared, encoding))] = orderings
        # the canonical key is the hex of the text form, where "10" < "2",
        # so encodings are not sorted as tuples
        encodings = sorted(level, key=_encode_hex)
        parents = [StableGraph(*encoding) for encoding in encodings]
        graphs.extend(parents)
        auts.extend(_automorphisms(encoding, level[encoding]) for encoding in encodings)
        if edges == limit:
            break
        candidates = (candidate for parent in parents
                      for candidate, _e in one_edge_degenerations(parent))
    return tuple(graphs), tuple(auts)


def relabel_legs(graph: StableGraph, perm: dict) -> StableGraph:
    """Relabel legs by a permutation {old label: new label}.  A bool or
    float label is refused, not read as the int it equals."""
    labels = list(range(1, graph.n_legs + 1))
    if any(type(label) is not int for label in itertools.chain(perm, perm.values())) \
            or sorted(perm) != labels or sorted(perm.values()) != labels:
        raise InvalidGraphError("leg relabeling is not a permutation of the int labels 1..n")
    legs = [0] * graph.n_legs
    for old, new in perm.items():
        legs[new - 1] = graph.legs[old - 1]
    return StableGraph(graph.genera, tuple(legs), graph.edges)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def graph_to_json(graph: StableGraph) -> dict:
    local_index: dict = {}
    halves = []
    for e, (a, b) in enumerate(graph.edges):
        pair = []
        for s, v in enumerate((a, b)):
            idx = local_index.get(v, 0)
            local_index[v] = idx + 1
            pair.append([v, idx])
        halves.append(pair)
    return {
        "vertices": list(graph.genera),
        "legs": [[i + 1, v] for i, v in enumerate(graph.legs)],
        "edges": halves,
    }


def graph_from_json(data: dict) -> StableGraph:
    """Read graph_to_json's form back; a leg labeling other than the ints
    1..n once each, or an edge that is not two half-edges, is InvalidGraphError."""
    genera = tuple(data["vertices"])
    labels = sorted(label for label, _ in data["legs"])
    if any(type(label) is not int for label in labels) or \
            labels != list(range(1, len(labels) + 1)):
        raise InvalidGraphError(f"leg labels {labels} are not 1..{len(labels)} "
                                "once each")
    legs_map = dict(data["legs"])
    legs = tuple(legs_map[i + 1] for i in range(len(labels)))
    for e, pair in enumerate(data["edges"]):
        if len(pair) != 2:
            raise InvalidGraphError(f"edge {e} has {len(pair)} half-edges, not 2")
    edges = tuple((pair[0][0], pair[1][0]) for pair in data["edges"])
    return stable_graph(genera, legs, edges)
