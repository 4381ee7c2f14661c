"""Independent oracles for cross-checking the package's routines.

Everything here is deliberately naive: plain fraction Gaussian elimination
instead of the package's multi-modular kernel, dense fraction matrix
products instead of its integer trace powers, list convolutions instead of
the Poly class, and every grid point listed instead of the value classes of
the torus means. Slower, but sharing no code with the implementations under
test beyond the vertex factor line and the prefactor. The one exception is
`quadratic_pencil_det`, the 2n x 2n companion route that the Konno-Sato
right sides took before they were read off the vertex characteristic
polynomial; it runs the package kernel on a different matrix. It also
builds the Frucht graph, which a false vertex_transitive flag cannot pass
off as vertex-transitive. `residue_stack` is the whole matrix mod each
prime, the stack that the kernel's trivial-group block must reproduce.
`entrywise_operators` writes every walk operator entry by entry from its
definition as a list of entries, the oracle of the package's builders, U+
through the oracle `positive_support`; `integer_form` reads L and L*M off
the Fractions of a matrix; `edge_walk` lists the edges of a graph from its
neighbor tuples; and
`naive_det_i_minus_u` interpolates det(I - tM) from textbook elimination.
`FAMILIES` and `RANDOM_GRAPHS` are the small graphs the operator tests run
on. `oracle_graph_from_edges` and `oracle_load_graph` validate edge by edge
with Python sets and a breadth-first search, the oracles of the array
validation in `graphs`. `FAMILY_EDGES` writes the edges of each built-in
family by hand, and `FAMILY_COVERS` its group and fibers, the oracles of the
one cover generator.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict, deque
from fractions import Fraction
from pathlib import Path

import numpy as np

from zetawalk import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GraphFormatError,
    LoopEdgeError,
    RatMatrix,
    complete_graph,
    cycle_graph,
    det_i_minus_u,
    graph_from_edges,
    petersen_graph,
    torus_graph,
    torus_prefactor,
)
from zetawalk.graphs import ArcSpace, Graph
from zetawalk.limits import vertex_factor

# grid points per row block of the full-grid quadrature
FULL_GRID_BLOCK_POINTS = 2**15


def dense(matrix: RatMatrix) -> list[list[Fraction]]:
    return [
        [matrix[i, j] for j in range(matrix.cols)] for i in range(matrix.rows)
    ]


def integer_form(matrix: RatMatrix) -> tuple[int, list[tuple[int, int, int]]]:
    """L, the lcm of the reduced denominators of M, and the nonzero entries
    of L*M as (i, j, integer), read off the Fractions of M."""
    items = list(matrix.nonzero_items())
    scale = math.lcm(1, *(value.denominator for _, _, value in items))
    return scale, [(i, j, int(value * scale)) for i, j, value in items]


def edge_walk(graph: Graph) -> list[tuple[int, int]]:
    """The edges (i, j) with i < j, walked off the sorted neighbor tuples."""
    return [(i, j) for i, neighbors in enumerate(graph.adjacency) for j in neighbors if i < j]


def positive_support(matrix: RatMatrix) -> RatMatrix:
    """0/1 matrix marking the strictly positive entries of ``matrix``."""
    ones = [(i, j, 1) for i, j, value in matrix.nonzero_items() if value > 0]
    return RatMatrix(matrix.rows, matrix.cols, ones)


def gauss_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by textbook fraction Gaussian elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        pivot = a[k][k]
        det *= pivot
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor:
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return det


def det_i_minus_t_times(matrix: RatMatrix, t: Fraction) -> Fraction:
    """Exact det(I - t*M) through the naive elimination above."""
    a = dense(matrix)
    n = len(a)
    for i in range(n):
        for j in range(n):
            a[i][j] = (Fraction(1) if i == j else Fraction(0)) - t * a[i][j]
    return gauss_det(a)


def naive_det_i_minus_u(matrix: RatMatrix) -> list[Fraction]:
    """The coefficients of det(I - uM), ascending, trailing zeros dropped:
    the Lagrange interpolation of det(I - tM) at t = 0..n."""
    n = matrix.rows
    values = [det_i_minus_t_times(matrix, Fraction(t)) for t in range(n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    for k, value in enumerate(values):
        basis, denominator = [Fraction(1)], 1
        for j in range(n + 1):
            if j != k:
                basis = poly_mul(basis, [Fraction(-j), Fraction(1)])
                denominator *= k - j
        for i, b in enumerate(basis):
            coeffs[i] += value * b / denominator
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def naive_trace_powers(matrix: RatMatrix, r_max: int) -> tuple[Fraction, ...]:
    """Tr M^r for r = 1..r_max by textbook products of dense fraction lists."""
    m = dense(matrix)
    n = len(m)
    # the nonzero (column, value) pairs of each row of M, so a product
    # skips the zero entries of M
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in m]
    power = m
    traces = []
    for r in range(1, r_max + 1):
        if r > 1:
            product = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for k in range(n):
                    a = power[i][k]
                    if a:
                        for j, x in nonzero[k]:
                            product[i][j] += a * x
            power = product
        traces.append(sum((power[i][i] for i in range(n)), Fraction(0)))
    return tuple(traces)


def quadratic_pencil_det(b1, b2):
    """det(I + u B1 + u^2 B2) as det(I - uC) of the 2n x 2n companion matrix,
    B1 and B2 given as n x n lists or object arrays of rationals.

    C = [[-B1, -B2], [I, 0]]; the Schur complement of the lower-right block
    of I - uC is I + u B1 + u^2 B2, so the two determinants are equal.
    """
    n = len(b1)
    square = [(i, j) for i in range(n) for j in range(n)]
    entries = [(i, j, -b1[i][j]) for i, j in square]
    entries += [(i, n + j, -b2[i][j]) for i, j in square]
    entries += [(n + i, i, 1) for i in range(n)]
    return det_i_minus_u(RatMatrix(2 * n, 2 * n, entries))


def coefficient_bounds(n: int, entries: list[tuple[int, int, int]]) -> list[int]:
    """Integers B_k >= |c_k| for the coefficients c_k of det(xI - A), k = 0..n.

    A is the n x n integer matrix with the given nonzero entries. The row-sum
    norm rho bounds every eigenvalue, so |c_k| <= C(n, k) rho^k. Schur's
    inequality sum |lam|^2 <= ||A||_F^2, the power mean inequality and
    Maclaurin's inequality give |c_k| <= C(n, k) (||A||_F^2 / n)^(k/2). B_k is
    the smaller of the two, with the square root rounded up in integers,
    formed for every k.
    """
    row_sums = [0] * n
    frobenius = 0
    for i, _, value in entries:
        row_sums[i] += abs(value)
        frobenius += value * value
    rho = max(row_sums)
    bounds = []
    # at step k, ceil((||A||_F^2 / n)^k) = ceil(num / den) and rho_k = rho^k
    num = den = rho_k = 1
    for k in range(n + 1):
        mean_power = -(-num // den)
        root = math.isqrt(mean_power)
        root += root * root < mean_power
        bounds.append(math.comb(n, k) * min(rho_k, root))
        num, den, rho_k = num * frobenius, den * n, rho_k * rho
    return bounds


def residue_stack(n: int, entries: list[tuple[int, int, int]], primes: list[int]) -> np.ndarray:
    """The (K, n, n) int64 residues mod each of the K primes of the n x n
    integer matrix with the given nonzero entries."""
    a = np.zeros((len(primes), n, n), dtype=np.int64)
    rows = [i for i, _, _ in entries]
    cols = [j for _, j, _ in entries]
    a[:, rows, cols] = [[value % p for _, _, value in entries] for p in primes]
    return a


def product_mod(polys: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The product of the M polynomials polys[q, :] mod p[q], for each row q.

    polys is a (K, M, L) int64 array of coefficient lists in [0, p), lowest
    degree first, and p a (K, 1) array of primes below 2^31. A schoolbook
    product tree pairs neighbours until one polynomial is left, with the
    constant 1 padding a level of odd length; coefficients past the true
    degree come out 0. Each product is reduced mod p before it is added,
    and a sum of at most L terms below 2^31 fits in int64.
    """
    p3 = p[:, :, None]
    while polys.shape[1] > 1:
        k, m, length = polys.shape
        if m % 2:
            one = np.zeros((k, 1, length), dtype=np.int64)
            one[:, :, 0] = 1
            polys = np.concatenate((polys, one), axis=1)
        left, right = polys[:, 0::2], polys[:, 1::2]
        product = np.zeros((k, left.shape[1], 2 * length - 1), dtype=np.int64)
        for i in range(length):
            product[:, :, i : i + length] += left[:, :, i, None] * right % p3
        polys = product % p3
    return polys[:, 0]


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """List convolution; inputs and output in ascending degree."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_pow(base: list[Fraction], k: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(k):
        out = poly_mul(out, base)
    return out


def random_rational(rng: random.Random, num_bound: int = 9, den_bound: int = 7) -> Fraction:
    den = rng.randint(1, den_bound)
    return Fraction(rng.randint(-num_bound, num_bound), den)


def random_rat_matrix(rng: random.Random, n: int, sparsity: float = 0.5) -> RatMatrix:
    entries = []
    for i in range(n):
        for j in range(n):
            if rng.random() < sparsity:
                value = random_rational(rng)
                if value:
                    entries.append((i, j, value))
    return RatMatrix(n, n, entries)


def full_grid_sums(d: int, g: int) -> np.ndarray:
    """sum_j cos(2 pi k_j / g) at every k in {0..g-1}^d, in lexicographic order."""
    axis = np.cos(2.0 * np.pi * np.arange(g) / g)
    total = np.zeros(1)
    for _ in range(d):
        total = (total[:, None] + axis).reshape(-1)
    return total


def full_grid_log_mean(d: int, u: float, which: str, grid: int) -> float:
    """The torus limit log mean from every grid point.

    The heads of the first d - 1 axes are all listed; each head's row of
    `grid` points along the last axis is summed by numpy, in blocks of rows,
    and all the row sums by `math.fsum`.
    """
    a, b = vertex_factor(u, 2 * d - 1, which)
    heads = full_grid_sums(d - 1, grid)
    axis = full_grid_sums(1, grid)
    rows = max(1, FULL_GRID_BLOCK_POINTS // grid)
    row_sums = np.empty(heads.size)
    for start in range(0, heads.size, rows):
        lams = (heads[start:start + rows, None] + axis) / d
        row_sums[start:start + rows] = np.log(a + b * lams).sum(axis=1)
    return math.fsum(row_sums) / float(grid**d)


def full_grid_finite_torus(d: int, n: int, u: float, which: str) -> float:
    """The side-n torus reciprocal from `math.fsum` over the log of every eigenvalue."""
    a, b = vertex_factor(u, 2 * d - 1, which)
    lams = full_grid_sums(d, n) / d
    mean_log = math.fsum(np.log(a + b * lams)) / float(n**d)
    return torus_prefactor(d, u) * math.exp(mean_log)


# the Frucht graph in LCF notation: cubic, and its only automorphism is the
# identity
FRUCHT_LCF = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)


def frucht_graph() -> Graph:
    """The Frucht graph, falsely flagged vertex-transitive."""
    n = len(FRUCHT_LCF)
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    edges |= {tuple(sorted((i, (i + step) % n))) for i, step in enumerate(FRUCHT_LCF)}
    return graph_from_edges(n, sorted(edges), family="frucht", vertex_transitive=True)


def entrywise_operators(graph: Graph, arcs: ArcSpace) -> dict[str, RatMatrix]:
    """Every walk operator of the graph, built from its entries written one
    by one from its definition: A, D, P, D - A, S, the Grover coin C,
    U = S @ C, U+ and the Bass companion [[A, I - D], [I, 0]]."""
    n, size = graph.num_vertices, arcs.num_arcs
    degree = graph.degree_profile
    pairs = list(zip(arcs.origins.tolist(), arcs.termini.tolist()))
    termini = arcs.termini.tolist()
    diagonal = list(zip(range(n), range(n), degree))
    shift = RatMatrix(size, size, [(e, f, 1) for e, f in enumerate(arcs.inverses.tolist())])
    coin = RatMatrix(size, size, [
        (e, f, Fraction(2, degree[termini[e]]) - (e == f))
        for e in range(size)
        for f in range(size)
        if termini[e] == termini[f]
    ])
    grover = shift @ coin
    bass = [(i, j, 1) for i, j in pairs]
    bass += [(v, n + v, 1 - d) for v, d in enumerate(degree)]
    bass += [(n + v, v, 1) for v in range(n)]
    return {
        "A": RatMatrix(n, n, [(i, j, 1) for i, j in pairs]),
        "D": RatMatrix(n, n, diagonal),
        "P": RatMatrix(n, n, [(i, j, Fraction(1, degree[i])) for i, j in pairs]),
        "D-A": RatMatrix(n, n, diagonal + [(i, j, -1) for i, j in pairs]),
        "S": shift,
        "C": coin,
        "U": grover,
        "U+": positive_support(grover),
        "bass": RatMatrix(2 * n, 2 * n, bass),
    }


FAMILIES = [
    cycle_graph(3),
    cycle_graph(5),
    complete_graph(4),
    petersen_graph(),
    torus_graph(2, 3),
    graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),  # diamond
    graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),  # paw, has a leaf
]


def random_connected_graph(seed: int) -> Graph:
    """A random tree with a few chords, and a pendant path of two vertices.

    The path's middle vertex has degree 2 and its end is a leaf, the two
    degrees at which a Grover coin entry 2/deg - 1 is 0 or 1.
    """
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    edges |= {(rng.randrange(n), n), (n, n + 1)}
    return graph_from_edges(n + 2, sorted(edges))


RANDOM_GRAPHS = [random_connected_graph(seed) for seed in range(8)]


def oracle_graph_from_edges(num_vertices, edges, family=None, vertex_transitive=False) -> Graph:
    """`graphs.graph_from_edges` edge by edge: the same refusals, with the
    same messages, for the first edge in input order that breaks a rule."""
    if num_vertices < 1:
        raise GraphFormatError(f"vertex count must be positive, got {num_vertices}")
    seen = set()
    neighbor_sets = defaultdict(set)
    for edge in edges:
        i, j = int(edge[0]), int(edge[1])
        if not (0 <= i < num_vertices and 0 <= j < num_vertices):
            raise GraphFormatError(f"edge ({i}, {j}) references a vertex outside 0..{num_vertices - 1}")
        if i == j:
            raise LoopEdgeError(f"loop edge ({i}, {j}) is not allowed in a simple graph")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdgeError(f"edge {key} appears more than once")
        seen.add(key)
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    if not seen:
        raise GraphFormatError("the graph has no edges; at least one is required")
    reached = {0}
    queue = deque([0])
    while queue:
        for w in neighbor_sets.get(queue.popleft(), ()):
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != num_vertices:
        raise DisconnectedGraphError(
            f"graph is not connected: reached {len(reached)} of {num_vertices} vertices"
        )
    adjacency = tuple(tuple(sorted(neighbor_sets[v])) for v in range(num_vertices))
    degrees = tuple(len(s) for s in adjacency)
    return Graph(
        num_vertices=num_vertices,
        adjacency=adjacency,
        num_edges=len(seen),
        degree_profile=degrees,
        regular_degree=degrees[0] if len(set(degrees)) == 1 else None,
        family=family,
        claimed_vertex_transitive=vertex_transitive,
    )


def oracle_load_graph(path) -> Graph:
    """`graphs.load_graph` entry by entry, through `oracle_graph_from_edges`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GraphFormatError("top-level JSON value must be an object")
    if "vertices" not in payload or "edges" not in payload:
        raise GraphFormatError('missing required keys "vertices" and "edges"')
    vertices = payload["vertices"]
    edges = payload["edges"]
    if not isinstance(vertices, int) or isinstance(vertices, bool):
        raise GraphFormatError('"vertices" must be an integer')
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list of [i, j] pairs')
    checked = []
    for entry in edges:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise GraphFormatError(f"edge entry {entry!r} is not an [i, j] integer pair")
        i, j = entry
        if i > j:
            raise GraphFormatError(f"edge [{i}, {j}] must be written with i < j")
        checked.append((i, j))
    family = payload.get("family")
    if family is not None and not isinstance(family, str):
        raise GraphFormatError('"family" must be a string or null')
    vertex_transitive = payload.get("vertex_transitive", False)
    if not isinstance(vertex_transitive, bool):
        raise GraphFormatError('"vertex_transitive" must be a boolean')
    return oracle_graph_from_edges(vertices, checked, family=family, vertex_transitive=vertex_transitive)


# -- the family edges, written one family at a time --------------------------
# Each builds the edges of its family by hand, as an (m, 2) int64 array, for
# valid parameters; `FAMILY_COVERS` gives (d, side, fibers), the group
# Z_side^d of each family and its fibers, under the labelling that vertex v
# is element v mod side^d in fiber v div side^d. They are the oracles of the
# one cover generator of `graphs`.


def cycle_edges(n: int) -> np.ndarray:
    """The edges i ~ i + 1 mod n of the cycle."""
    ring = np.arange(n)
    return np.stack([ring, (ring + 1) % n], axis=1)


def torus_edges(d: int, n: int) -> np.ndarray:
    """The edges v ~ v + e_j of the torus, one per vertex and axis; vertex v
    has the base-n digits of v, least significant first, as coordinates."""
    v = np.arange(n**d)
    ends = []
    for axis in range(d):
        stride = n**axis
        digit = v // stride % n
        ends.append(v + ((digit + 1) % n - digit) * stride)
    return np.stack([np.tile(v, d), np.concatenate(ends)], axis=1)


def complete_edges(n: int) -> np.ndarray:
    """Every pair i < j of the n vertices."""
    return np.stack(np.triu_indices(n, 1), axis=1)


def generalized_petersen_edges(n: int, k: int) -> np.ndarray:
    """The outer cycle i ~ i + 1 on 0..n-1, the inner star polygon n + i ~
    n + (i + k) mod n on n..2n-1, and the spokes i ~ n + i."""
    i = np.arange(n)
    return np.stack(
        [np.concatenate([i, n + i, i]), np.concatenate([(i + 1) % n, n + (i + k) % n, n + i])],
        axis=1,
    )


def hypercube_edges(d: int) -> np.ndarray:
    """The edges v ~ v xor 2^b with v < v xor 2^b."""
    v = np.arange(1 << d)
    edges = np.concatenate([np.stack([v, v ^ (1 << b)], axis=1) for b in range(d)])
    return edges[edges[:, 0] < edges[:, 1]]


FAMILY_EDGES = {
    "cycle": cycle_edges,
    "torus": torus_edges,
    "complete": complete_edges,
    "petersen": lambda: generalized_petersen_edges(5, 2),
    "hypercube": hypercube_edges,
    "gp": generalized_petersen_edges,
}

FAMILY_COVERS = {
    "cycle": lambda n: (1, n, 1),
    "torus": lambda d, n: (d, n, 1),
    "complete": lambda n: (1, n, 1),
    "hypercube": lambda d: (d, 2, 1),
    "petersen": lambda: (1, 5, 2),
    "gp": lambda n, k: (1, n, 2),
}
