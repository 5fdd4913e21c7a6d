"""Frozen reference canonical labeling: the vertex-ordering search as it
stood before enumeration stopped building throwaway tag tables and slot
lists, and the two-stage choice of a canonical decorated stratum (the
canonical graph first, then the least decoration over the orderings that
reach it).  Tests compare graphs._canonical_search and
strata._canonical_term against it, and the reference enumeration labels its
candidates with it."""

import itertools


def candidate_orders(graph):
    """Vertex orderings consistent with the sorted refinement by the vertex
    invariant (genus, attached legs, valence, loops)."""
    loops = [0] * graph.n_vertices
    for a, b in graph.edges:
        if a == b:
            loops[a] += 1
    groups: dict = {}
    for v, tags in enumerate(graph.attachments()):
        legs = tuple(tag[1] for tag in tags if tag[0] == "l")
        groups.setdefault((graph.genera[v], legs, len(tags), loops[v]),
                          []).append(v)
    keys = sorted(groups)
    for perm_blocks in itertools.product(
            *[itertools.permutations(groups[k]) for k in keys]):
        order = []
        for block in perm_blocks:
            order.extend(block)
        yield tuple(order)


def relabel_encoding(graph, order):
    """Encoding of the graph under the vertex ordering; lower is canonical.
    Also returns the (vertex pair, old edge, flipped) slots, by pair and
    then by edge."""
    pos = [0] * graph.n_vertices
    for new, old in enumerate(order):
        pos[old] = new
    genera = tuple(graph.genera[old] for old in order)
    legs = tuple(pos[v] for v in graph.legs)
    slots = []
    for e, (a, b) in enumerate(graph.edges):
        na, nb = pos[a], pos[b]
        slots.append(((na, nb), e, False) if na <= nb else ((nb, na), e, True))
    slots.sort()
    return (genera, legs, tuple(slot[0] for slot in slots)), slots


def canonical_search(graph):
    """Minimal encoding plus every vertex ordering achieving it."""
    best = None
    best_orders = []
    for order in candidate_orders(graph):
        encoding, _ = relabel_encoding(graph, order)
        if best is None or encoding < best:
            best = encoding
            best_orders = [order]
        elif encoding == best:
            best_orders.append(order)
    return best, tuple(best_orders)


def canonical_decoration(graph, kappa, psi_edge):
    """(canonical encoding, kappa, edge psi) of a decorated stratum: per
    ordering reaching the canonical encoding, the edge psi pairs are carried
    to their slots, flipped with their edge, and a run of parallel edges or
    loops takes the least arrangement (loops ascending); the least
    (kappa, edge psi) over those orderings wins."""
    encoding, orders = canonical_search(graph)
    best = None
    for order in orders:
        moved = []
        for ends, e, flip in relabel_encoding(graph, order)[1]:
            pair = psi_edge[e]
            if flip or (ends[0] == ends[1] and pair[0] > pair[1]):
                pair = (pair[1], pair[0])
            moved.append((ends, pair))
        moved.sort()
        cand = (tuple(kappa[old] for old in order), tuple(pair for _, pair in moved))
        if best is None or cand < best:
            best = cand
    return (encoding,) + best


def encoding_key(encoding) -> str:
    """The canonical key of an encoding: hex of its text form."""
    genera, legs, edges = encoding
    text = "g:" + ",".join(map(str, genera)) + \
        ";l:" + ",".join(map(str, legs)) + \
        ";e:" + ",".join(f"{a}-{b}" for a, b in edges)
    return text.encode().hex()
