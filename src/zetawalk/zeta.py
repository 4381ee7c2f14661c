"""Zeta reciprocals, Konno-Sato factorizations, and cycle-count series.

Three exact routes to a reciprocal zeta polynomial: the arc characteristic
polynomial det(I - uU) of the Grover matrix, the edge route det(I - uU+)
through the positive support, and the Ihara-Bass vertex form
(1 - u^2)^(m - nu) det(I - uA + u^2 (D - I)). For regular graphs the
Konno-Sato theorem factors the two arc determinants through the transition
or Laplacian spectrum; `konno_sato_check` verifies all four identities as
exact polynomial equalities. Its right sides come from one characteristic
polynomial per route: det(I - xM) = sum_k c_k x^k of the nu x nu vertex
operator M gives det(s I + t M) = sum_k c_k (-t)^k s^(nu-k), which is
evaluated at the vertex factor line s = 1 + a1 u + a2 u^2, t = b u in
integers. The Bass form and the Konno-Sato sides multiply by the cocycle
(1 - u^2)^(m - nu) in integers before the one division. Each of the three
public reciprocals builds its operator and calls the kernel in one step,
and the command line's charpoly calls them as they are. Every function
here that builds an operator of a graph builds it with a builder of
`operators`, from the graph's arc space, as a `RatMatrix` that carries its
states and the graph's cover, and routes it in one call,
`_operator(builder(graph, arc_space(graph)))`. So on a verified free
abelian cover of the table `graphs._COVERS` (torus, cycle, complete graph,
hypercube, Petersen, gp: the group Z_side^d) the determinant comes from
side^d Fourier blocks, for U, U+, P, D - A and the Bass companion alike;
every other matrix is the one block of the trivial group. No Konno-Sato
formula enters the kernel, so on such a graph the check still compares the
arc determinant with a vertex side computed apart from it. Cycle counts are
exact traces of operator powers (`polynomials._traces`, pairings of the
powers of the integer matrix L*M up to half the order, block by block on the
same route, modulo primes chosen from a bound on every trace and combined
by CRT), with an independent brute-force oracle for cross-checking, and
the generalized zeta (the nu-th root normalization) is evaluated
numerically from vertex spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import (
    NonRegularGraphError,
    NotVertexTransitiveError,
    OracleGuardError,
    TreeGraphError,
    ZetaDomainError,
    ZetawalkError,
)
from .graphs import Graph, _arc_arrays, arc_space
from .limits import (
    _check_dense,
    _prefactor,
    graph_spectrum,
    to_double,
    vertex_factor,
    vertex_factor_coefficients,
)
from .operators import (
    _bass_companion,
    _laplacian,
    _positive_support,
    _transition,
    grover,
    grover_positive_support,
)
from .polynomials import (
    Poly,
    _charpolys,
    _operator,
    _times_one_minus_u_squared,
    _Torus,
    _traces,
    _unscaled,
    _whole,
    log_series,
)

__all__ = [
    "SeriesCoefficients",
    "SeriesConsistencyReport",
    "IdentityCheck",
    "KonnoSatoReport",
    "grover_zeta_reciprocal",
    "ihara_reciprocal_edge",
    "ihara_reciprocal_bass",
    "konno_sato_check",
    "weighted_cycle_counts",
    "reduced_cycle_counts",
    "rooted_cycle_counts",
    "cycle_oracle",
    "zeta_series_consistency",
    "spectral_zeta_reciprocal",
    "charpoly_zeta_reciprocal",
]

ORACLE_STATE_BOUND = 10**8
SERIES_ORDER_CAP = 12


@dataclass(frozen=True)
class SeriesCoefficients:
    """Cycle counts N_1..N_r for one counting convention.

    kind is "weighted" (trace powers of the Grover matrix), "reduced"
    (trace powers of its positive support), or "rooted" (weighted counts
    divided by the vertex count).
    """

    kind: str
    counts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("weighted", "reduced", "rooted"):
            raise ZetawalkError(f"unknown series kind {self.kind!r}")

    @property
    def order(self) -> int:
        return len(self.counts)

    def count(self, r: int) -> Fraction:
        """N_r for 1 <= r <= order."""
        if not 1 <= r <= len(self.counts):
            raise IndexError(f"count index {r} outside 1..{len(self.counts)}")
        return self.counts[r - 1]


@dataclass(frozen=True)
class SeriesConsistencyReport:
    """Comparison of log-series coefficients against scaled trace counts.

    Truthiness follows the check, so the report doubles as the boolean
    answer while keeping both coefficient sequences for diagnostics.
    """

    order: int
    log_coefficients: tuple[Fraction, ...]
    scaled_counts: tuple[Fraction, ...]

    @property
    def holds(self) -> bool:
        return self.log_coefficients == self.scaled_counts

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class IdentityCheck:
    tag: str
    holds: bool
    lhs: Poly
    rhs: Poly


@dataclass(frozen=True)
class KonnoSatoReport:
    """Outcome of the four Konno-Sato determinant identities on one graph."""

    graph_summary: str
    regular_degree: int
    identities: tuple[IdentityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in self.identities)

    def failing(self) -> tuple[IdentityCheck, ...]:
        return tuple(check for check in self.identities if not check.holds)


def grover_zeta_reciprocal(graph: Graph) -> Poly:
    """Arc characteristic polynomial det(I - uU) of the Grover matrix.

    This is the reciprocal of the weighted zeta; its degree is twice the
    edge count.
    """
    return _reciprocal(_operator(grover(graph, arc_space(graph))), 0)


def ihara_reciprocal_edge(graph: Graph) -> Poly:
    """Ihara zeta reciprocal via the positive support: det(I - uU+).

    Agrees with the Bass form exactly when the minimum degree is at least
    two; at degree-1 vertices the positive support keeps a backtracking
    entry that the edge-matrix derivation of the zeta excludes. Trees are
    rejected because their zeta is identically 1 while this determinant
    is not.
    """
    _reject_tree(graph)
    return _reciprocal(_operator(grover_positive_support(graph, arc_space(graph))), 0)


def ihara_reciprocal_bass(graph: Graph) -> Poly:
    """Ihara zeta reciprocal in Bass form.

    Returns (1 - u^2)^(m - nu) * det(I - uA + u^2 (D - I)) with m edges and
    nu vertices; the exponent m - nu is the Betti number minus one. The
    determinant is det(I - uC) of the 2nu x 2nu companion matrix
    C = [[A, I - D], [I, 0]]: the Schur complement of the lower-right block
    of I - uC is the pencil. C has integer entries, so its scale L is 1 and
    the cocycle multiplies integer coefficients.
    """
    _reject_tree(graph)
    operator = _operator(_bass_companion(graph, arc_space(graph)))
    return _reciprocal(operator, graph.num_edges - graph.num_vertices)


def _reciprocal(operator: _Torus, exponent: int) -> Poly:
    """det(I - uM) (1 - u^2)^exponent from the kernel's C_k of L*M.

    A nonzero exponent comes only with the integer Bass companion (L = 1),
    so the cocycle multiplies the integer coefficients.
    """
    coeffs = _charpolys([operator])[0]
    if exponent:
        return Poly(_times_one_minus_u_squared(coeffs, exponent))
    return _unscaled(operator.scale, coeffs)


def _reject_tree(graph: Graph) -> None:
    if graph.num_edges == graph.num_vertices - 1:
        raise TreeGraphError(
            "the Ihara zeta of a tree is identically 1; "
            "no reciprocal polynomial is produced"
        )


def konno_sato_check(graph: Graph) -> KonnoSatoReport:
    """Verify the four Konno-Sato identities as exact polynomial equalities.

    For a (q+1)-regular graph with nu vertices and m edges, the left sides
    are det(I - uU) (grover kind) and det(I - uU+) (ihara kind) on the arc
    space. Each right side is (1 - u^2)^(m - nu) det(s I + t M), with
    s = 1 + a1 u + a2 u^2 and t = b u taken from
    `limits.vertex_factor_coefficients`, where M is the transition matrix P
    or the Laplacian D - A of the route. The kernel runs once per route, on
    M itself: if det(I - xM) = sum_k c_k x^k, then
    det(s I + t M) = sum_k c_k (-t)^k s^(nu-k) for any matrix, so both kinds
    are read off the same c_k (`_vertex_side`). The graph's cover is
    verified once, by its arc space, each operator takes its route from that
    cover on its own states, and all four go to one kernel call, which
    stacks U with U+ and P with D - A. Trees (m < nu) are rejected before
    any determinant.
    """
    _require_regular(graph, "Konno-Sato factorization")
    q = graph.regular_degree - 1
    exponent = graph.num_edges - graph.num_vertices
    if exponent < 0:
        raise TreeGraphError(
            f"Konno-Sato factorization requires a cycle; on a tree the factor "
            f"(1 - u^2)^(m - nu) has exponent {exponent}"
        )

    arcs = arc_space(graph)
    u_mat = grover(graph, arcs)
    matrices = [u_mat, _positive_support(u_mat), _transition(graph, arcs), _laplacian(graph, arcs)]
    operators = [_operator(matrix) for matrix in matrices]
    sides = list(zip(operators, _charpolys(operators)))
    left_sides = {
        which: _unscaled(mat.scale, coeffs)
        for which, (mat, coeffs) in zip(("grover", "ihara"), sides)
    }
    checks = []
    for route, (mat, coeffs) in zip(("transition", "laplacian"), sides[2:]):
        for which, lhs in left_sides.items():
            factor = vertex_factor_coefficients(q, which, route)
            rhs = _vertex_side(mat.scale, coeffs, factor, exponent)
            tag = f"{which}-{route}"
            checks.append(IdentityCheck(tag=tag, holds=lhs == rhs, lhs=lhs, rhs=rhs))
    return KonnoSatoReport(
        graph_summary=graph.summary(),
        regular_degree=graph.regular_degree,
        identities=tuple(checks),
    )


def _vertex_side(
    scale: int, coeffs: list[int], factor: tuple[int, int, int, int], exponent: int
) -> Poly:
    """(1 - u^2)^exponent det(s I + t M) from det(I - uM) = sum_k C_k u^k / L^k.

    factor is (a1, a2, b_num, b_den): s = 1 + a1 u + a2 u^2, t = (b_num/b_den) u.
    With D = L b_den, D^nu det(s I + t M) = sum_k C_k (-b_num u)^k (D s)^(nu-k),
    which Horner's rule builds in integers: R <- R (D s) + C_k (-b_num)^k u^k.
    Only the final coefficients are divided by D^nu.
    """
    a1, a2, b_num, b_den = factor
    d = scale * b_den
    # D s = s0 + s1 u + s2 u^2
    s0, s1, s2 = d, d * a1, d * a2
    acc = [coeffs[0]]
    for k, c in enumerate(coeffs[1:], start=1):
        nxt = [0] * (len(acc) + 2)
        for i, r in enumerate(acc):
            nxt[i] += r * s0
            nxt[i + 1] += r * s1
            nxt[i + 2] += r * s2
        nxt[k] += c * (-b_num) ** k
        acc = nxt
    denominator = d ** (len(coeffs) - 1)
    return Poly(Fraction(r, denominator) for r in _times_one_minus_u_squared(acc, exponent))


def weighted_cycle_counts(graph: Graph, r_max: int) -> SeriesCoefficients:
    """Exact weighted counts N_r = Tr U^r for r = 1..r_max."""
    if r_max < 1:
        raise ZetawalkError("r_max must be at least 1")
    counts = _traces(_operator(grover(graph, arc_space(graph))), r_max)
    return SeriesCoefficients(kind="weighted", counts=counts)


def reduced_cycle_counts(graph: Graph, r_max: int) -> SeriesCoefficients:
    """Counts of cyclically non-backtracking closed arc walks, Tr (U+)^r."""
    if r_max < 1:
        raise ZetawalkError("r_max must be at least 1")
    counts = _traces(_operator(grover_positive_support(graph, arc_space(graph))), r_max)
    return SeriesCoefficients(kind="reduced", counts=counts)


def rooted_cycle_counts(graph: Graph, r_max: int) -> SeriesCoefficients:
    """Per-root weighted counts N_r / nu for vertex-transitive graphs.

    Vertex transitivity makes the count independent of the chosen root, so
    dividing the total by the vertex count is meaningful; the graph must
    carry the vertex_transitive flag.
    """
    _require_vertex_transitive(graph, "rooted counting")
    total = weighted_cycle_counts(graph, r_max)
    nu = graph.num_vertices
    return SeriesCoefficients(
        kind="rooted", counts=tuple(c / nu for c in total.counts)
    )


def cycle_oracle(graph: Graph, r_max: int, kind: str = "weighted") -> SeriesCoefficients:
    """Brute-force cycle counts by enumerating closed arc sequences.

    Independent of the matrix-power route: step weights are recomputed from
    the Grover entry case analysis, and closed sequences of length r are
    enumerated by depth-first search including the wrap-around step. The
    state space is capped at (2m)^r_max <= 10^8 sequences; 2m >= 2, so an
    r_max of 27 or more is refused without forming the power.
    """
    if r_max < 1:
        raise ZetawalkError("r_max must be at least 1")
    if kind not in ("weighted", "reduced"):
        raise ZetawalkError(f"cycle oracle supports weighted or reduced, not {kind!r}")
    arcs = arc_space(graph)
    n_arcs = arcs.num_arcs
    if r_max >= ORACLE_STATE_BOUND.bit_length() or n_arcs**r_max > ORACLE_STATE_BOUND:
        raise OracleGuardError(
            f"brute-force enumeration of {n_arcs}^{r_max} arc sequences "
            f"exceeds the 10^8 guard; lower r_max"
        )

    # successor[x] lists (y, weight) with weight = U[x, y] != 0, derived
    # from the entry rules rather than the assembled matrix
    successor: list[list[tuple[int, Fraction]]] = [[] for _ in range(n_arcs)]
    into: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for e, t in enumerate(arcs.termini.tolist()):
        into[t].append(e)
    for x, (ox, back) in enumerate(zip(arcs.origins.tolist(), arcs.inverses.tolist())):
        for y in into[ox]:
            w = Fraction(2, graph.degree_profile[ox])
            if y == back:
                w -= 1
            if kind == "reduced":
                w = Fraction(1) if w > 0 else Fraction(0)
            if w:
                successor[x].append((y, w))

    counts = []
    for r in range(1, r_max + 1):
        total = Fraction(0)

        def extend(start: int, current: int, depth: int, weight: Fraction) -> Fraction:
            if depth == r - 1:
                acc = Fraction(0)
                for y, w in successor[current]:
                    if y == start:
                        acc += weight * w
                return acc
            acc = Fraction(0)
            for y, w in successor[current]:
                acc += extend(start, y, depth + 1, weight * w)
            return acc

        for a0 in range(n_arcs):
            total += extend(a0, a0, 0, Fraction(1))
        counts.append(total)
    return SeriesCoefficients(kind=kind, counts=tuple(counts))


def zeta_series_consistency(graph: Graph, order: int) -> SeriesConsistencyReport:
    """Check that log 1/det(I - uU) has coefficients N_r / r exactly.

    U is built once for both sides. The determinant takes the route of U,
    Fourier blocks on a verified cover, and the traces take U whole
    (`_whole`), as `trace_powers` would, so the Fourier blocks enter only
    one side.
    The order is capped at 12 because both sides grow combinatorially and
    the check is meant as a series-level sanity gate, not a production
    computation.
    """
    if order < 1:
        raise ZetawalkError("order must be at least 1")
    if order > SERIES_ORDER_CAP:
        raise OracleGuardError(
            f"series consistency order {order} exceeds the cap of "
            f"{SERIES_ORDER_CAP}"
        )
    u_mat = grover(graph, arc_space(graph))
    logs = log_series(_reciprocal(_operator(u_mat), 0), order)
    scaled = tuple(c / r for r, c in enumerate(_traces(_whole(u_mat), order), start=1))
    return SeriesConsistencyReport(
        order=order, log_coefficients=logs, scaled_counts=scaled
    )


def spectral_zeta_reciprocal(
    graph: Graph, u: float, which: str = "grover", route: str = "transition"
) -> float:
    """Reciprocal of the generalized zeta via the vertex spectrum.

    Computes (1 - u^2)^((q-1)/2) * exp((1/nu) * sum_lam log arg(lam)) where
    arg is the Konno-Sato vertex factor for the chosen kind ("grover" or
    "ihara") and route ("transition" or "laplacian"). The refusals come
    cheapest first: a graph that is not regular; a dense spectrum form of
    more than `limits._MAX_POINTS` entries (ZetawalkError); a graph not
    flagged vertex-transitive, or flagged but refuted by walk-regularity,
    which costs a pass over the 2-paths; then u beyond the double range, an
    unknown kind or route, and ZetaDomainError when 1 - u^2 or any factor
    is not strictly positive.
    """
    _require_regular(graph, "generalized zeta evaluation")
    _check_dense(graph.num_vertices)
    _require_vertex_transitive(graph, "generalized zeta evaluation")
    q = graph.regular_degree - 1
    u = to_double(u)
    a, b = vertex_factor(u, q, which, route)
    prefactor = _prefactor(q, u)
    spectrum = graph_spectrum(graph, route)
    factors = [a + b * lam for lam in spectrum]
    for lam, factor in zip(spectrum, factors):
        if factor <= 0.0:
            raise ZetaDomainError(
                f"determinant factor {factor} is not positive at eigenvalue "
                f"{lam} for u = {u} ({which}, {route})"
            )
    mean_log = math.fsum(math.log(f) for f in factors) / graph.num_vertices
    return prefactor * math.exp(mean_log)


def charpoly_zeta_reciprocal(graph: Graph, u: Fraction, which: str = "grover") -> float:
    """Reciprocal of the generalized zeta via the exact arc determinant.

    Evaluates det(I - uU) (or det(I - uU+) for the Ihara kind) exactly at
    the rational point u and returns the positive real nu-th root. Raises
    ZetaDomainError when the determinant value is not strictly positive or
    the root is beyond the double range.
    """
    _require_regular(graph, "generalized zeta evaluation")
    _require_vertex_transitive(graph, "generalized zeta evaluation")
    vertex_factor_coefficients(graph.regular_degree - 1, which)  # rejects an unknown kind
    reciprocal = grover_zeta_reciprocal if which == "grover" else ihara_reciprocal_edge
    value = reciprocal(graph).eval_exact(Fraction(u))
    if value <= 0:
        # neither value nor u is written out: either may have more digits
        # than str() converts
        sign = "zero" if value == 0 else "negative"
        raise ZetaDomainError(
            f"determinant value at this u is {sign}, not positive; "
            f"no positive real root exists"
        )
    # float(value) underflows (or overflows) outside about 1e-308..1e308;
    # such values are first brought near 1 by an exact power of two
    e = value.numerator.bit_length() - value.denominator.bit_length()
    shift = e if abs(e) > 1000 else 0
    log_value = math.log(value / Fraction(2) ** shift) + shift * math.log(2)
    try:
        return math.exp(log_value / graph.num_vertices)
    except OverflowError:
        raise ZetaDomainError("the nu-th root at this u is beyond the double range") from None


def _require_regular(graph: Graph, purpose: str) -> None:
    if not graph.is_regular:
        degrees = sorted(set(graph.degree_profile))
        raise NonRegularGraphError(
            f"{purpose} requires a regular graph; degrees present: {degrees}"
        )


def _require_vertex_transitive(graph: Graph, purpose: str) -> None:
    """Require the vertex_transitive flag, and check it by walk-regularity.

    A vertex-transitive graph has the same number of closed walks of each
    length at every vertex; a flag the counts of length 2, 3 or 4 refute
    raises NotVertexTransitiveError naming the length.
    """
    if not graph.claimed_vertex_transitive:
        raise NotVertexTransitiveError(
            f"{purpose} divides by the vertex count, which is only meaningful "
            f"for vertex-transitive graphs; the graph does not carry the "
            f"vertex_transitive flag"
        )
    for length, counts in _closed_walk_counts(graph):
        low, high = int(counts.min()), int(counts.max())
        if low != high:
            raise NotVertexTransitiveError(
                f"{purpose} requires a vertex-transitive graph, but the graph "
                f"flagged vertex_transitive has from {low} to {high} closed "
                f"walks of length {length} at a vertex"
            )


# the most 2-paths formed at once by `_closed_walk_counts`, unless one
# vertex starts more; bounds memory, does not change the counts
_PATHS_PER_CHUNK = 2**18


def _closed_walk_counts(graph: Graph) -> Iterator[tuple[int, np.ndarray]]:
    """(length, closed walks of that length at each vertex, as int64) for
    lengths 2, 3, 4.

    diag A^2 is the degree sequence; the caller asks for more only when it
    is constant. The rest works on the graph's arcs, in chunks of origin
    vertices with at most `_PATHS_PER_CHUNK` 2-paths between them: every
    2-path v -> w -> x is keyed v nu + x, and the keys are sorted and counted,
    which gives the entries A^2_vx. Then diag A^3_v = sum_x A^2_vx A_xv adds
    the counts of the keys whose reverse (x, v) is an arc, and
    diag A^4_v = sum_x (A^2_vx)^2, in exact integers.
    """
    nu = graph.num_vertices
    degrees = np.array(graph.degree_profile, dtype=np.int64)
    yield 2, degrees
    origins, termini = _arc_arrays(graph)
    arc_keys = origins * nu + termini
    first_arc = degrees.cumsum() - degrees
    # the 2-paths through each arc, and from each vertex: every vertex of a
    # connected graph with an edge starts an arc
    fanout = degrees[termini]
    paths_to = np.add.reduceat(fanout, first_arc).cumsum()
    threes = np.zeros(nu, dtype=np.int64)
    fours = np.zeros(nu, dtype=np.int64)
    low = 0
    while low < nu:
        before = paths_to[low - 1] if low else 0
        high = max(low + 1, int(paths_to.searchsorted(before + _PATHS_PER_CHUNK, "right")))
        arcs = slice(first_arc[low], first_arc[high - 1] + degrees[high - 1])
        counts = fanout[arcs]
        # the second arc of each 2-path runs over the arcs out of the first's terminus
        offsets = (first_arc[termini[arcs]] - (counts.cumsum() - counts)).repeat(counts)
        keys = origins[arcs].repeat(counts) * nu + termini[np.arange(len(offsets)) + offsets]
        keys.sort()
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        walks = np.bincount(first.cumsum() - 1)
        v, x = np.divmod(keys[first], nu)
        reverse = x * nu + v
        # the last arc key at most the reverse; below every key, index -1
        # reads the largest, which differs
        closing = arc_keys[arc_keys.searchsorted(reverse, "right") - 1] == reverse
        np.add.at(threes, v, walks * closing)
        np.add.at(fours, v, walks * walks)
        low = high
    yield 3, threes
    yield 4, fours
