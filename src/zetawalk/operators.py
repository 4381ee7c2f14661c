"""Exact-rational walk operators on a graph and its arc space.

Vertex-indexed operators: adjacency A, degree D, simple-random-walk
transition P, combinatorial Laplacian D - A. Arc-indexed operators: the
flip-flop shift S, the Grover coin C, the Grover matrix U = S C, and
positive supports. The Grover coin is the only coin: its projector
|a_u><a_u| has entries 1/deg(u), so C and U are exactly rational even
though a_u itself contains 1/sqrt(deg). C is written straight into its
rows, and since S is the arc-reversal permutation, U is C with its rows
permuted: no rational product is formed. A, P and S are written straight
into their rows as well, so no entry is converted twice.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import ArcSpace, Graph
from .rational import RatMatrix, positive_support

__all__ = [
    "adjacency",
    "degree_matrix",
    "transition",
    "laplacian",
    "shift",
    "coin",
    "grover",
    "grover_positive_support",
    "positive_support",
]


def adjacency(graph: Graph) -> RatMatrix:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""
    one = Fraction(1)
    out = RatMatrix(graph.num_vertices, graph.num_vertices)
    out._rowdata = [dict.fromkeys(neighbors, one) for neighbors in graph.adjacency]
    return out


def degree_matrix(graph: Graph) -> RatMatrix:
    """Diagonal matrix of vertex degrees."""
    return RatMatrix.diagonal([Fraction(d) for d in graph.degree_profile])


def transition(graph: Graph) -> RatMatrix:
    """Simple-random-walk matrix: P[u, v] = 1/deg(u) on arcs, rows sum to 1."""
    out = RatMatrix(graph.num_vertices, graph.num_vertices)
    out._rowdata = [
        dict.fromkeys(neighbors, Fraction(1, degree))
        for neighbors, degree in zip(graph.adjacency, graph.degree_profile)
    ]
    return out


def laplacian(graph: Graph) -> RatMatrix:
    """Combinatorial Laplacian D - A; for (q+1)-regular graphs equals (q+1)(I - P)."""
    return degree_matrix(graph) - adjacency(graph)


def shift(arcs: ArcSpace) -> RatMatrix:
    """Flip-flop shift: the permutation swapping every arc with its inverse."""
    one = Fraction(1)
    out = RatMatrix(arcs.num_arcs, arcs.num_arcs)
    out._rowdata = [{f: one} for f in arcs.inverse]
    return out


def coin(graph: Graph, arcs: ArcSpace) -> RatMatrix:
    """Grover coin C = 2 * sum_u |a_u><a_u| - I, a_u uniform on the arcs into u.

    C[e, f] = 2/deg(u) - [e == f] for arcs e, f into u, and 0 between arcs
    into different vertices. The diagonal is 0 at degree 2 and is not stored.
    """
    n = arcs.num_arcs
    incoming: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for e, (_, t) in enumerate(arcs.arcs):
        incoming[t].append(e)

    out = RatMatrix(n, n)
    for u, block in enumerate(incoming):
        w = Fraction(2, graph.degree_profile[u])
        diagonal = w - 1
        for e in block:
            row = out._rowdata[e] = dict.fromkeys(block, w)
            if diagonal:
                row[e] = diagonal
            else:
                del row[e]
    return out


def grover(graph: Graph, arcs: ArcSpace) -> RatMatrix:
    """Grover walk evolution U = S C with the Grover coin.

    S swaps every arc with its inverse, so (S C)[e, :] = C[inverse(e), :]:
    row e of U is row inverse(e) of C, taken without any arithmetic.
    Entrywise: U[e, f] = 2/deg(t(f)) - [f == inverse(e)] when t(f) = o(e),
    zero otherwise. Real orthogonal since S and C are symmetric involutions.
    """
    return coin(graph, arcs).permute_rows(arcs.inverse)


def grover_positive_support(graph: Graph, arcs: ArcSpace) -> RatMatrix:
    """Positive support of the Grover matrix.

    For graphs of minimum degree >= 2 this is the non-backtracking
    (Hashimoto) arc operator up to transposition: the inverse-arc entry
    2/deg - 1 survives only at degree-1 vertices.
    """
    return positive_support(grover(graph, arcs))
