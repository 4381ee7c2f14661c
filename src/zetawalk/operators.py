"""Walk operators on a graph and its arc space, each built once as an
exact matrix.

Vertex-indexed operators: adjacency A, degree D, simple-random-walk
transition P, combinatorial Laplacian D - A, and the Bass companion
[[A, I - D], [I, 0]]. Arc-indexed operators: the flip-flop shift S, the
Grover coin C, the Grover matrix U = S C, and its positive support U+. The
Grover coin is the only coin: its projector |a_u><a_u| has entries
1/deg(u), so C and U are exactly rational even though a_u itself contains
1/sqrt(deg).

Each operator M has one builder, which writes its `rational.RatMatrix`
straight from the int64 arc arrays that `ArcSpace` makes once: L, the lcm
of the reduced denominators of M, the nonzero entries of L*M as int64
arrays (int64 or exact Python ints for the values), and the place of each
state on the graph: a vertex operator's state v is vertex v
(`_vertex_states`), an arc operator's state e is the arc e from its origin
to its terminus (`_arc_states`), and the Bass companion has the vertices
twice, in two halves. The builder is the one place that fixes the states
of its operator, and it stores the graph's cover (D, built without the arc
space, has none), so the exact kernels route the matrix by the matrix
alone (`polynomials._operator`). L comes from the distinct degrees, so it
is the L that `RatMatrix` finds from the entries. S is the arc-reversal
permutation and U is C with its rows permuted, so both are written
straight into their rows: no rational product is formed. U+ is read off U
by `_positive_support`, the one positive support, which keeps the entries
with L*M > 0. A, P and D - A, whose public builders take no arc space,
are built by `_adjacency`, `_transition` and `_laplacian` from one the
caller already has; the Bass companion has no public builder.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .graphs import ArcSpace, Graph, arc_space
from .rational import RatMatrix, _integers

__all__ = [
    "adjacency",
    "degree_matrix",
    "transition",
    "laplacian",
    "shift",
    "coin",
    "grover",
    "grover_positive_support",
]


def _vertex_states(graph: Graph, halves: int = 1) -> np.ndarray:
    """The states h nu + v, vertex v in half h, as rows of half, origin and terminus."""
    nu = graph.num_vertices
    v = np.tile(np.arange(nu), halves)
    return np.stack([np.repeat(np.arange(halves), nu), v, v])


def _arc_states(arcs: ArcSpace) -> np.ndarray:
    """The states e, the arc e in `ArcSpace` order, as rows of half, origin and terminus."""
    return np.stack([np.zeros(arcs.num_arcs, dtype=np.int64), arcs.origins, arcs.termini])


def _ones(count: int) -> np.ndarray:
    return np.ones(count, dtype=np.int64)


def _adjacency(graph: Graph, arcs: ArcSpace) -> RatMatrix:
    """A: a 1 at (o, t) for every arc (o, t)."""
    ones = _ones(arcs.num_arcs)
    return RatMatrix._record(1, _vertex_states(graph), arcs.cover, arcs.origins, arcs.termini, ones)


def adjacency(graph: Graph) -> RatMatrix:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""
    return _adjacency(graph, arc_space(graph))


def degree_matrix(graph: Graph) -> RatMatrix:
    """Diagonal matrix of vertex degrees: deg(v) at (v, v). It is built
    without the arc space, so it has no cover."""
    v = np.arange(graph.num_vertices)
    degrees = np.array(graph.degree_profile, dtype=np.int64)
    return RatMatrix._record(1, _vertex_states(graph), None, v, v, degrees)


def _transition(graph: Graph, arcs: ArcSpace) -> RatMatrix:
    """P: 1/deg(o) at (o, t) for every arc, so L is the lcm of the degrees."""
    scale = math.lcm(*set(graph.degree_profile))
    per_vertex = _integers([scale // d for d in graph.degree_profile])
    states, values = _vertex_states(graph), per_vertex[arcs.origins]
    return RatMatrix._record(scale, states, arcs.cover, arcs.origins, arcs.termini, values)


def transition(graph: Graph) -> RatMatrix:
    """Simple-random-walk matrix: P[u, v] = 1/deg(u) on arcs, rows sum to 1."""
    return _transition(graph, arc_space(graph))


def _laplacian(graph: Graph, arcs: ArcSpace) -> RatMatrix:
    """D - A: deg(v) at (v, v) and -1 at (o, t) for every arc."""
    v = np.arange(graph.num_vertices)
    degrees = np.array(graph.degree_profile, dtype=np.int64)
    return RatMatrix._record(
        1,
        _vertex_states(graph),
        arcs.cover,
        np.concatenate([arcs.origins, v]),
        np.concatenate([arcs.termini, v]),
        np.concatenate([-_ones(arcs.num_arcs), degrees]),
    )


def laplacian(graph: Graph) -> RatMatrix:
    """Combinatorial Laplacian D - A; for (q+1)-regular graphs equals (q+1)(I - P)."""
    return _laplacian(graph, arc_space(graph))


def _bass_companion(graph: Graph, arcs: ArcSpace) -> RatMatrix:
    """The companion [[A, I - D], [I, 0]] of the Bass form, an integer matrix.

    Its state v is vertex v in the first half, and nu + v vertex v in the
    second. The entry 1 - deg(v) is 0 at a leaf and is not stored.
    """
    n = graph.num_vertices
    v = np.arange(n)
    degrees = np.array(graph.degree_profile, dtype=np.int64)
    return RatMatrix._record(
        1,
        _vertex_states(graph, 2),
        arcs.cover,
        np.concatenate([arcs.origins, v, n + v]),
        np.concatenate([arcs.termini, n + v, v]),
        np.concatenate([_ones(arcs.num_arcs), 1 - degrees, _ones(n)]),
    )


def shift(arcs: ArcSpace) -> RatMatrix:
    """Flip-flop shift: the permutation swapping every arc with its inverse,
    a 1 at (e, inverse(e)) for every arc e."""
    e, ones = np.arange(arcs.num_arcs), _ones(arcs.num_arcs)
    return RatMatrix._record(1, _arc_states(arcs), arcs.cover, e, arcs.inverses, ones)


def _in_blocks(
    graph: Graph, arcs: ArcSpace, vertex: np.ndarray, marked: np.ndarray
) -> RatMatrix:
    """The arc matrix whose row e holds 2/deg(u) at every arc into the vertex
    u = vertex[e], less 1 at the arc marked[e], and 0 elsewhere.

    The arcs out of u are consecutive, and their inverses are the arcs into
    u in ascending order, so each row is one slice of `inverses`. 2/deg(u)
    and 2/deg(u) - 1 have the same reduced denominator, so L is the lcm of
    those of 2/deg over the degrees; 2/deg(u) - 1 is 0 at degree 2 and is
    not stored.
    """
    degrees = np.array(graph.degree_profile, dtype=np.int64)
    scale = math.lcm(*{Fraction(2, d).denominator for d in graph.degree_profile})
    first_out = np.cumsum(degrees) - degrees
    widths = degrees[vertex]
    rows = np.repeat(np.arange(len(vertex)), widths)
    within = np.arange(len(rows)) - np.repeat(np.cumsum(widths) - widths, widths)
    cols = arcs.inverses[np.repeat(first_out[vertex], widths) + within]
    off = _integers([2 * scale // d for d in graph.degree_profile])
    on = _integers([2 * scale // d - scale for d in graph.degree_profile])
    u = vertex[rows]
    values = np.where(cols == marked[rows], on[u], off[u])
    return RatMatrix._record(scale, _arc_states(arcs), arcs.cover, rows, cols, values)


def coin(graph: Graph, arcs: ArcSpace) -> RatMatrix:
    """Grover coin C = 2 * sum_u |a_u><a_u| - I, a_u uniform on the arcs into u.

    C[e, f] = 2/deg(u) - [e == f] for arcs e, f into u, and 0 between arcs
    into different vertices: row e holds 2/deg(t(e)) at the arcs into t(e),
    less 1 at e itself. The diagonal is 0 at degree 2 and is not stored.
    """
    return _in_blocks(graph, arcs, arcs.termini, np.arange(arcs.num_arcs))


def grover(graph: Graph, arcs: ArcSpace) -> RatMatrix:
    """Grover walk evolution U = S C with the Grover coin.

    S swaps every arc with its inverse, so (S C)[e, :] = C[inverse(e), :]:
    row e of U is row inverse(e) of C, taken without any arithmetic; it
    holds 2/deg(o(e)) at the arcs into o(e), less 1 at inverse(e).
    Entrywise: U[e, f] = 2/deg(t(f)) - [f == inverse(e)] when t(f) = o(e),
    zero otherwise. Real orthogonal since S and C are symmetric involutions.
    """
    return _in_blocks(graph, arcs, arcs.origins, arcs.inverses)


def _positive_support(matrix: RatMatrix) -> RatMatrix:
    """The 0/1 matrix of the strictly positive entries, L*M > 0 where M > 0,
    on the states and the cover of M."""
    keep = matrix._a > 0
    rows, cols = matrix._i[keep], matrix._j[keep]
    return RatMatrix._record(1, matrix._states, matrix._cover, rows, cols, _ones(len(rows)))


def grover_positive_support(graph: Graph, arcs: ArcSpace) -> RatMatrix:
    """Positive support of the Grover matrix.

    For graphs of minimum degree >= 2 this is the non-backtracking
    (Hashimoto) arc operator up to transposition: the inverse-arc entry
    2/deg - 1 survives only at degree-1 vertices.
    """
    return _positive_support(grover(graph, arcs))
