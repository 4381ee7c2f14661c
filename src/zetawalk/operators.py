"""Exact-rational walk operators on a graph and its arc space.

Vertex-indexed operators: adjacency A, degree D, simple-random-walk
transition P, combinatorial Laplacian D - A. Arc-indexed operators: the
flip-flop shift S, the coin C, the Grover matrix U = S C, and positive
supports. The Grover coin projector |a_u><a_u| has entries 1/deg(u), so C
and U are exactly rational even though a_u itself contains 1/sqrt(deg).
Since S is the arc-reversal permutation, U is C with its rows permuted and
is assembled with no rational product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import CoinError
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
    entries = []
    for i, neighbors in enumerate(graph.adjacency):
        for j in neighbors:
            entries.append((i, j, one))
    return RatMatrix(graph.num_vertices, graph.num_vertices, entries)


def degree_matrix(graph: Graph) -> RatMatrix:
    """Diagonal matrix of vertex degrees."""
    return RatMatrix.diagonal([Fraction(d) for d in graph.degree_profile])


def transition(graph: Graph) -> RatMatrix:
    """Simple-random-walk matrix: P[u, v] = 1/deg(u) on arcs, rows sum to 1."""
    entries = []
    for u, neighbors in enumerate(graph.adjacency):
        w = Fraction(1, graph.degree_profile[u])
        for v in neighbors:
            entries.append((u, v, w))
    return RatMatrix(graph.num_vertices, graph.num_vertices, entries)


def laplacian(graph: Graph) -> RatMatrix:
    """Combinatorial Laplacian D - A; for (q+1)-regular graphs equals (q+1)(I - P)."""
    return degree_matrix(graph) - adjacency(graph)


def shift(arcs: ArcSpace) -> RatMatrix:
    """Flip-flop shift: the permutation swapping every arc with its inverse."""
    one = Fraction(1)
    entries = [(e, arcs.inverse[e], one) for e in range(arcs.num_arcs)]
    return RatMatrix(arcs.num_arcs, arcs.num_arcs, entries)


def coin(
    graph: Graph,
    arcs: ArcSpace,
    alphas: Sequence[Mapping[int, Fraction] | Sequence[Fraction]] | None = None,
) -> RatMatrix:
    """Coin operator C = 2 * sum_u |a_u><a_u| - I on the arc space.

    Each a_u must be supported exactly on the arcs terminating at u and have
    unit squared norm; both are checked exactly for supplied rational
    vectors. With alphas omitted, the Grover coin is used: the projector
    block at u is the all-(1/deg u) matrix, giving entries 2/deg(u) - delta.
    """
    n = arcs.num_arcs
    incoming: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for e, (_, t) in enumerate(arcs.arcs):
        incoming[t].append(e)

    entries: dict[tuple[int, int], Fraction] = {}
    if alphas is None:
        for u, block in enumerate(incoming):
            w = Fraction(2, graph.degree_profile[u])
            for e in block:
                for f in block:
                    entries[(e, f)] = w
    else:
        if len(alphas) != graph.num_vertices:
            raise CoinError(
                f"expected one coin vector per vertex ({graph.num_vertices}), got {len(alphas)}"
            )
        for u, alpha in enumerate(alphas):
            vec = _normalize_alpha(alpha, n)
            support = set(vec)
            allowed = set(incoming[u])
            if not support:
                raise CoinError(f"coin vector at vertex {u} is zero")
            if not support <= allowed:
                bad = sorted(support - allowed)[0]
                raise CoinError(
                    f"coin vector at vertex {u} has weight on arc {bad}, "
                    f"which does not terminate at {u}"
                )
            norm = sum(value * value for value in vec.values())
            if norm != 1:
                raise CoinError(f"coin vector at vertex {u} has squared norm {norm}, expected 1")
            for e, a in vec.items():
                for f, b in vec.items():
                    entries[(e, f)] = entries.get((e, f), Fraction(0)) + 2 * a * b

    for e in range(n):
        entries[(e, e)] = entries.get((e, e), Fraction(0)) - 1
    return RatMatrix(n, n, ((i, j, value) for (i, j), value in entries.items()))


def _normalize_alpha(alpha, num_arcs: int) -> dict[int, Fraction]:
    if isinstance(alpha, Mapping):
        return {int(e): Fraction(v) for e, v in alpha.items() if Fraction(v)}
    if len(alpha) != num_arcs:
        raise CoinError(f"coin vector given as a sequence must have length {num_arcs}")
    return {e: Fraction(v) for e, v in enumerate(alpha) if Fraction(v)}


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
