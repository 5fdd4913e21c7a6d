"""Decorations written as dicts, in the tuple form canonical_term takes."""


def decorated(graph, kappa, psi_leg, psi_edge):
    """(graph, kappa, psi_leg, psi_edge) for canonical_term and add_term,
    from {vertex: {index: exponent}}, {label: exponent} and
    {(edge, side): exponent}: absent entries and zero exponents are 0."""
    return (graph,
            tuple(tuple(sorted((a, x) for a, x in kappa.get(v, {}).items() if x))
                  for v in range(graph.n_vertices)),
            tuple(psi_leg.get(lab, 0) for lab in range(1, graph.n_legs + 1)),
            tuple((psi_edge.get((e, 0), 0), psi_edge.get((e, 1), 0))
                  for e in range(graph.n_edges)))
