"""Frozen reference gluing: strata.gluing_pushforward as it stood before it
became splices.  Each product of vertex terms is concatenated at vertex
offsets, the vertex graphs' edges first, and each attachment tag is mapped
to its glued vertex and psi exponent; the ambient legs and edges are then
read off that map.  Tests compare gluing_pushforward and one star-reduction
step (relations._rewrite_vertex) against it."""

import itertools

from tautring.graphs import StableGraph
from tautring.strata import TautClass


def offset_map_gluing_pushforward(ambient, vertex_classes):
    g, n = ambient.genus, ambient.n_legs
    markings = ambient.attachments()
    out = TautClass(g, n)
    for combo in itertools.product(*[cls.sorted_terms() for cls in vertex_classes]):
        coeff = combo[0][1]
        for _, c in combo[1:]:
            coeff = coeff * c
        genera, kappa, edges, psi_edge = [], [], [], []
        at = {}     # attachment tag -> (glued vertex, psi exponent there)
        for tags, (term, _) in zip(markings, combo):
            off = len(genera)
            genera.extend(term.graph.genera)
            kappa.extend(term.kappa)
            for a, b in term.graph.edges:
                edges.append((off + a, off + b))
            psi_edge.extend(term.psi_edge)
            for tag, w, y in zip(tags, term.graph.legs, term.psi_leg):
                at[tag] = (off + w, y)
        legs, psi_leg = [], []
        for lab in range(1, n + 1):
            w, y = at[("l", lab)]
            legs.append(w)
            psi_leg.append(y)
        for e in range(ambient.n_edges):
            (a, p), (b, q) = at[("h", e, 0)], at[("h", e, 1)]
            edges.append((a, b))
            psi_edge.append((p, q))
        out.add_term(StableGraph(tuple(genera), tuple(legs), tuple(edges)),
                     tuple(kappa), tuple(psi_leg), tuple(psi_edge), coeff)
    return out
