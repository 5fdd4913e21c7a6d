"""Frozen reference divisor classes: strata.boundary_divisor_class as it
stood when it built each divisor stratum by hand.  The divisor is resolved
through normalize_divisor; a loop on the trivial graph has weight 1/2, a
split of the trivial graph has weight 1/2 when it is attachment-free and
symmetric (n = 0 and 2h = g), else 1; an unstable divisor is -psi_i, and an
empty one is zero.  Tests compare boundary_divisor_class against it."""

from fractions import Fraction

from tautring.graphs import add_loop, split_vertex, trivial_graph
from tautring.strata import TautClass, bare, normalize_divisor


def hand_built_divisor_class(g, n, divisor):
    kind = normalize_divisor(g, n, divisor)
    if kind[0] == "zero":
        return TautClass(g, n)
    if kind[0] == "psi":
        return -TautClass.psi(g, n, kind[1])
    if kind[0] == "irr":
        graph, _ = add_loop(trivial_graph(g, n), 0)
        return TautClass(g, n).add_term(graph, *bare(graph), Fraction(1, 2))
    _, h, legs = kind
    moved = [("l", lab) for lab in range(1, n + 1) if lab not in legs]
    graph, _ = split_vertex(trivial_graph(g, n), 0, h, moved)
    weight = Fraction(1, 2) if n == 0 and 2 * h == g else Fraction(1)
    return TautClass(g, n).add_term(graph, *bare(graph), weight)
