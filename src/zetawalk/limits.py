"""Vertex spectra, Konno-Sato vertex factors, and torus limit values.

The discrete torus of dimension d and side N is 2d-regular with explicit
transition eigenvalues (1/d) sum_j cos(2 pi k_j / N) over lattice points k.
As N grows, the generalized zeta reciprocal converges to

    (1 - u^2)^(d - 1) * exp( integral over [0, 2 pi]^d of log arg(theta) )

with the integral taken against the uniform product measure. The quadrature
here is the periodic trapezoid rule, which for these integrands is a plain
average over a uniform grid; on grid G it reproduces the side-G torus value
exactly, because the grid eigenvalue multiset is the side-G spectrum.

Every float route, here and in `zeta.spectral_zeta_reciprocal`, has one
domain: 1 - u^2 > 0 and every vertex factor positive. `_prefactor` refuses
the base and returns (1 - u^2)^((q-1)/2); `_check_domain` refuses a torus
factor at the spectrum endpoints. Inside that domain no value overflows.

One enumerator, `_grid_sums`, lists sum_j cos(2 pi k_j / G) over the grid
in lexicographic order of k, adding the axis terms in axis order; the
closed-form spectra take it over all d axes. Most of those sums repeat bit
for bit, so the torus values work on value classes instead: `_grid_classes`
builds the distinct sums and their multiplicities one axis at a time, with
the same operands in the same order, so every class value is bitwise one of
the enumerated sums and the G^k points are never listed. The finite torus
takes the log of each distinct eigenvalue once. The quadrature takes the
classes of the first d - 1 axes and adds the last axis in fixed blocks of
rows: each row of G points is summed by numpy, as for the full grid. A
mean is then the exact sum of each log (or row sum) times its multiplicity,
rounded once by `_weighted_fsum`; `math.fsum` over the full list rounds the
same exact sum once, so the values are bitwise those of the full
enumeration, and they do not depend on the block size.

There is no cap on d; the torus parameters d >= 1 and side >= 3 are
checked by `graphs.check_torus`, as for the torus graph. What bounds
memory is the number of grid points formed at once: `_grid_sums` checks
G^j for each axis j and each axis step of `_grid_classes` checks the
classes so far times G, both before they allocate, and a step above
`_MAX_POINTS` is refused with ZetawalkError; no guard forms a power of G
larger than the one it refuses. A step holds about 24 bytes per point at
its peak: the summed bits, their sort order and the sorted copy. The same
bound refuses a `graph_spectrum` whose dense n x n form is larger.

`vertex_factor_coefficients` is the one table of the four Konno-Sato
vertex factors, in exact integers; the float line `vertex_factor` and the
exact check `zeta.konno_sato_check` both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ZetaDomainError, ZetawalkError
from .graphs import Graph, _arc_arrays, check_torus

__all__ = [
    "ConvergenceRow",
    "ConvergenceStudy",
    "graph_spectrum",
    "vertex_factor_coefficients",
    "vertex_factor",
    "to_double",
    "torus_spectrum",
    "torus_prefactor",
    "finite_torus_zeta_reciprocal",
    "torus_limit_log_mean",
    "torus_limit_zeta_reciprocal",
    "torus_limit_terms",
    "convergence_study",
    "MIN_GRID",
]

MIN_GRID = 8
# grid points per quadrature block; bounds memory, does not change the result
_BLOCK_POINTS = 2**15
# the most grid points formed at once, or entries of a dense spectrum
# matrix; a larger grid or graph is refused before it is allocated (d = 6
# on grid 64 forms 26.1M points and peaks at 656 MiB RSS)
_MAX_POINTS = 2**25
# how far one absolute error may exceed the one before it and still count
# as not increasing in `ConvergenceStudy.errors_monotone`
_MONOTONE_SLACK = 1e-12


def _normalized(origins: np.ndarray, termini: np.ndarray, degrees: np.ndarray) -> tuple:
    """D^-1/2 A D^-1/2, the symmetric form of the transition matrix: s_i s_j
    on the arc (i, j), s = 1 / sqrt(deg), and 0 on the diagonal."""
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return inv_sqrt[origins] * inv_sqrt[termini], 0.0


# vertex operator -> (its symmetric form, for `graph_spectrum`: the value on
# each arc (i, j) and on the diagonal, from the arcs' origins and termini
# and the degrees; its torus eigenvalue from the grid sum
# sum_j cos(2 pi k_j / n) and the dimension d, for `torus_spectrum`)
_OPERATORS = {
    "adjacency": (lambda origins, termini, degrees: (1.0, 0.0), lambda total, d: 2.0 * total),
    "transition": (_normalized, lambda total, d: total / d),
    "laplacian": (
        lambda origins, termini, degrees: (-1.0, degrees),
        lambda total, d: 2.0 * (d - total),
    ),
}


def _operator(name: str) -> tuple:
    """The `_OPERATORS` entry of a vertex operator; ZetawalkError for an unknown name."""
    if name not in _OPERATORS:
        raise ZetawalkError(f"unknown operator {name!r}; pick one of {tuple(_OPERATORS)}")
    return _OPERATORS[name]


def graph_spectrum(graph: Graph, operator: str = "transition") -> tuple[float, ...]:
    """Ascending eigenvalues of the adjacency, transition, or Laplacian matrix.

    The transition matrix D^-1 A is similar to the symmetric normalization
    D^-1/2 A D^-1/2, so its spectrum is real and is computed from the
    symmetric form. The form is written only at its nonzeros, the arcs and
    the diagonal, into a zeroed n x n array. ZetawalkError, before any array
    is made, when its n^2 entries are more than `_MAX_POINTS`.
    """
    symmetric_form, _ = _operator(operator)
    n = graph.num_vertices
    if n * n > _MAX_POINTS:
        raise ZetawalkError(
            f"the spectrum of {n:,} vertices needs a dense {n:,} x {n:,} matrix, "
            f"more than the {_MAX_POINTS:,} entries allowed"
        )
    origins, termini = _arc_arrays(graph)
    on_arcs, on_diagonal = symmetric_form(
        origins, termini, np.array(graph.degree_profile, dtype=float)
    )
    sym = np.zeros((n, n), dtype=float)
    sym[origins, termini] = on_arcs
    sym[np.arange(n), np.arange(n)] = on_diagonal
    return tuple(np.linalg.eigvalsh(sym).tolist())


def torus_spectrum(d: int, n: int, operator: str = "transition") -> tuple[float, ...]:
    """Closed-form spectrum of the side-n d-dimensional discrete torus.

    Values are listed in lexicographic order of the lattice point
    k in {0..n-1}^d: the adjacency eigenvalue at k is
    2 * sum_j cos(2 pi k_j / n), the transition eigenvalue is that divided
    by the degree 2d, and the Laplacian eigenvalue is 2d minus it.
    ZetawalkError when the n^d values are more than the grid points formed
    at once.
    """
    _, eigenvalue = _operator(operator)
    check_torus(d, n)
    return tuple(eigenvalue(_grid_sums(d, n), d).tolist())


def _axis_terms(g: int) -> np.ndarray:
    """cos(2 pi k / g) for k = 0..g-1, the terms of one grid axis."""
    return np.cos(2.0 * np.pi * np.arange(g) / g)


def _grid_sums(d: int, g: int) -> np.ndarray:
    """sum_j cos(2 pi k_j / g) over k in {0..g-1}^d, flat in lexicographic order.

    The axis terms are added in axis order; d = 0 gives the one empty sum 0.
    Every axis step is checked before the first is formed, and the first
    step past the bound is refused, so no power of g above it is formed.
    """
    points = 1
    for _ in range(d):
        points *= g
        _check_points(points, d, g)
    axis = _axis_terms(g)
    total = np.zeros(1)
    for _ in range(d):
        total = (total[:, None] + axis).reshape(-1)
    return total


def _check_points(points: int, d: int, g: int) -> None:
    """ZetawalkError when a grid step would form more than `_MAX_POINTS` points."""
    if points > _MAX_POINTS:
        raise ZetawalkError(
            f"dimension {d} on grid {g} would form {points:,} grid points at "
            f"once, more than the {_MAX_POINTS:,} allowed; use a smaller grid"
        )


def _grid_classes(k: int, g: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of `_grid_sums(k, g)` and how often each occurs.

    Built one axis at a time: the classes so far plus each axis term, added
    as `_grid_sums` adds them, then sorted and merged by bit pattern. Each
    sum is its prefix sum plus one axis term, so prefixes with equal bits
    give equal sums and merging them loses no value; the g^k points are
    never listed. Values come sorted by their bits read as int64, counts as
    int64; ZetawalkError, naming the torus dimension d, when g^k does not fit
    that count or a step would form more than `_MAX_POINTS` points. With
    g >= 2, every k >= 63 is refused without forming g^k.
    """
    if k >= 63 or g**k >= 2**63:
        raise ZetawalkError(
            f"a grid of {g}^{k} points has more points than a 64-bit count holds"
        )
    values = np.zeros(1)
    counts = np.ones(1, dtype=np.int64)
    for _ in range(k):
        _check_points(values.size * g, d, g)
        # the axis is formed after the check, so a refused grid allocates none
        bits = (values[:, None] + _axis_terms(g)).reshape(-1).view(np.int64)
        order = np.argsort(bits)
        bits = bits[order]
        first = np.empty(bits.size, dtype=bool)
        first[0] = True
        np.not_equal(bits[1:], bits[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        values = bits[starts].view(np.float64)
        # freed before the counts are gathered, to keep the step's peak low
        del bits, first
        # point i * g + j of the step has the count of class i
        order //= g
        counts = np.add.reduceat(counts[order], starts)
    return values, counts


_HALF_BITS = 26
# Veltkamp's splitter: x * (2^27 + 1) leaves a double in halves of 26 bits
_SPLITTER = 2.0 ** (_HALF_BITS + 1) + 1.0


def _weighted_fsum(values: np.ndarray, counts: np.ndarray) -> float:
    """sum_i values[i] * counts[i], exact before its one final rounding.

    Each value splits into 26-bit halves (Veltkamp; Dekker, Numer. Math. 18
    (1971) 224) and each int64 count into 26-bit limbs, so every product of
    a half with a limb scaled by its power of two is exact; `math.fsum`
    rounds their sum correctly, so the result equals `math.fsum` over the
    values repeated counts times. Values must stay below about 2^900 so the
    split and the products do not overflow.
    """
    scaled = values * _SPLITTER
    high = scaled - (scaled - values)
    low = values - high
    products = []
    scale = 1.0
    while counts.any():
        limb = (counts & (2**_HALF_BITS - 1)).astype(np.float64) * scale
        products += [high * limb, low * limb]
        counts = counts >> _HALF_BITS
        scale *= 2.0**_HALF_BITS
    return math.fsum(np.concatenate(products))


def vertex_factor_coefficients(
    q: int, which: str, route: str = "transition"
) -> tuple[int, int, int, int]:
    """The Konno-Sato vertex factor of a (q+1)-regular graph, in integers.

    Returns (a1, a2, b_num, b_den): at an eigenvalue lam of the route's
    operator (the transition matrix P or the Laplacian D - A) the factor is
    1 + a1 u + a2 u^2 + (b_num / b_den) u lam. Konno & Sato, Quantum Inf.
    Process. 11 (2012) 341.
    """
    if which not in ("grover", "ihara"):
        raise ZetawalkError(f"kind must be grover or ihara, not {which!r}")
    if route not in ("transition", "laplacian"):
        raise ZetawalkError(f"route must be transition or laplacian, not {route!r}")
    return {
        ("grover", "transition"): (0, 1, -2, 1),
        ("grover", "laplacian"): (-2, 1, 2, q + 1),
        ("ihara", "transition"): (0, q, -(q + 1), 1),
        ("ihara", "laplacian"): (-(q + 1), q, 1, 1),
    }[which, route]


def vertex_factor(
    u: float, q: int, which: str, route: str = "transition"
) -> tuple[float, float]:
    """The vertex factor of `vertex_factor_coefficients` as a float line (a, b).

    At an eigenvalue lam of the route's operator the factor is a + b * lam.
    A zero coefficient adds a signed zero and a unit one multiplies exactly,
    so a and b round exactly as the factors written out term by term do.
    """
    a1, a2, b_num, b_den = vertex_factor_coefficients(q, which, route)
    return 1.0 + a1 * u + a2 * u * u, b_num * u / b_den


def to_double(u: float | Fraction) -> float:
    """u as a double; ZetaDomainError when it is NaN or beyond the double range."""
    try:
        value = float(u)
    except OverflowError:
        x = Fraction(u)
        log2 = math.log2(abs(x.numerator)) - math.log2(x.denominator)
        raise ZetaDomainError(f"|u| is about 2^{log2:.1f}, outside the double range") from None
    if math.isnan(value):
        raise ZetaDomainError("u is NaN, not a number")
    return value


def torus_prefactor(d: int, u: float) -> float:
    """Factor (1 - u^2)^(d - 1) multiplying the spectral exponential.

    The exponent is (m - nu)/nu for the side-N torus, which equals d - 1
    independently of N. Raises ZetaDomainError unless 1 - u^2 > 0.
    """
    return _prefactor(2 * d - 1, to_double(u))


def _prefactor(q: int, u: float) -> float:
    """(1 - u^2)^((q - 1)/2) of a (q+1)-regular graph, at a u that is a double.

    The one rule for the prefactor base of every float route: ZetaDomainError
    unless 1 - u^2 > 0.
    """
    base = 1.0 - u * u
    if base <= 0.0:
        raise ZetaDomainError(f"prefactor base 1 - u^2 = {base} is not positive at u = {u}")
    return math.pow(base, (q - 1) / 2.0)


def _check_domain(d: int, u: float, which: str) -> tuple[float, float, float]:
    """The domain of the torus evaluations: 1 - u^2 > 0 and positive factors.

    Returns the vertex factor line (a, b) of the transition route and the
    torus prefactor. An unknown kind is refused first, then a prefactor base
    that is not positive, then a vertex factor that is not positive, all
    before any grid work.
    """
    a, b = vertex_factor(u, 2 * d - 1, which)
    prefactor = _prefactor(2 * d - 1, u)
    # the determinant factor is affine in the eigenvalue, so positivity on
    # the whole spectrum range [-1, 1] follows from the two endpoints. With
    # |u| < 1 and both endpoints positive, every factor lies in (0, 4]: the
    # mean log is finite, the prefactor is at most 1, and no value overflows
    for lam in (-1.0, 1.0):
        arg = a + b * lam
        if arg <= 0.0:
            raise ZetaDomainError(
                f"determinant factor {arg} at spectrum endpoint {lam} is not "
                f"positive for u = {u} ({which} kind, dimension {d})"
            )
    return a, b, prefactor


def finite_torus_zeta_reciprocal(d: int, n: int, u: float, which: str = "grover") -> float:
    """Generalized zeta reciprocal of the side-n torus from its closed-form spectrum.

    Computes (1 - u^2)^(d-1) * exp(mean over the n^d transition eigenvalues
    of log factor(lambda)) for the chosen kind. Raises ZetaDomainError
    outside the positivity domain or beyond the double range.
    """
    check_torus(d, n)
    u = to_double(u)
    a, b, prefactor = _check_domain(d, u, which)
    values, counts = _grid_classes(d, n, d)
    mean_log = _weighted_fsum(np.log(a + b * (values / d)), counts) / float(n**d)
    return prefactor * math.exp(mean_log)


def torus_limit_log_mean(d: int, u: float, which: str = "grover", grid: int = 64) -> float:
    """Quadrature value of the limit integral mean of log factor(lambda(theta)).

    lambda(theta) = (1/d) sum_j cos theta_j over [0, 2 pi]^d with the uniform
    product measure, integrated by the periodic trapezoid rule on a grid of
    `grid` points per axis. Periodicity makes the trapezoid rule a plain
    average over the grid, summed in blocks of rows along the last axis.
    Raises ZetaDomainError, before any grid work, where 1 - u^2 or a factor
    is not positive.
    """
    a, b, _ = _check_limit(d, u, which, grid)
    return _grid_log_mean(d, a, b, grid)


def _check_limit(d: int, u: float, which: str, grid: int) -> tuple[float, float, float]:
    """`_check_domain` of the torus limit, after its other checks.

    The one order of refusals of both limit entry points: u as a double
    (`to_double`), then d and the grid, then the domain.
    """
    u = to_double(u)
    check_torus(d)
    if grid < MIN_GRID:
        raise ZetawalkError(f"grid must be at least {MIN_GRID}, got {grid}")
    return _check_domain(d, u, which)


def _grid_log_mean(d: int, a: float, b: float, grid: int) -> float:
    """Mean of log(a + b * lambda) over the grid, one row per head value class.

    The heads are the classes of the first d - 1 axes; each class is one
    row of `grid` points along the last axis, evaluated in blocks of rows
    and summed by numpy exactly as the row of any head with that value
    would be. The row sums, weighted by their multiplicities, are summed
    exactly and rounded once, which is `math.fsum` over the rows of every
    head: the mean is bitwise that of the full grid.
    """
    heads, counts = _grid_classes(d - 1, grid, d)
    axis = _grid_sums(1, grid)
    rows = max(1, _BLOCK_POINTS // grid)
    row_sums = np.empty(heads.size)
    for start in range(0, heads.size, rows):
        lams = (heads[start:start + rows, None] + axis) / d
        row_sums[start:start + rows] = np.log(a + b * lams).sum(axis=1)
    return _weighted_fsum(row_sums, counts) / float(grid**d)


def torus_limit_zeta_reciprocal(
    d: int, u: float, which: str = "grover", grid: int = 64
) -> float:
    """Infinite-volume generalized zeta reciprocal of the d-dimensional torus.

    Assembles the prefactor (1 - u^2)^(d-1) with the exponential of the
    quadrature integral. On grid G this equals the side-G torus value,
    because the quadrature nodes reproduce its spectrum. Raises
    ZetaDomainError outside the positivity domain or beyond the double range.
    """
    return torus_limit_terms(d, u, which, grid)[0]


def torus_limit_terms(
    d: int, u: float, which: str = "grover", grid: int = 64
) -> tuple[float, float]:
    """`torus_limit_zeta_reciprocal` and its prefactor (1 - u^2)^(d-1), as a pair.

    u is converted, and the prefactor computed, once for both.
    """
    a, b, prefactor = _check_limit(d, u, which, grid)
    return prefactor * math.exp(_grid_log_mean(d, a, b, grid)), prefactor


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    value: float
    abs_error: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Finite torus values against a fine-grid reference as the side grows."""

    d: int
    u: float
    which: str
    reference_grid: int
    reference_value: float
    rows: tuple[ConvergenceRow, ...]

    def errors_monotone(self) -> bool:
        """True when the absolute errors never increase by more than 1e-12."""
        errs = [row.abs_error for row in self.rows]
        return all(b <= a + _MONOTONE_SLACK for a, b in zip(errs, errs[1:]))


def convergence_study(
    d: int,
    u: float,
    sides: Sequence[int],
    which: str = "grover",
    reference_grid: int | None = None,
) -> ConvergenceStudy:
    """Tabulate finite-torus values against a fine-grid limit reference.

    Sides must be strictly increasing, and each a valid torus side
    (`check_torus`), checked before the reference is computed. The
    reference grid must be at least four times the largest side (the
    default), so the reference is well past the tabulated resolutions.
    """
    sides = list(sides)
    if not sides:
        raise ZetawalkError("at least one torus side is required")
    if any(b <= a for a, b in zip(sides, sides[1:])):
        raise ZetawalkError(f"sides must be strictly increasing, got {sides}")
    if reference_grid is None:
        reference_grid = 4 * max(sides)
    if reference_grid < 4 * max(sides):
        raise ZetawalkError(
            f"reference grid {reference_grid} must be at least four times "
            f"the largest side ({4 * max(sides)})"
        )
    u = to_double(u)
    for n in sides:
        check_torus(d, n)
    reference = torus_limit_zeta_reciprocal(d, u, which, reference_grid)
    rows = []
    for n in sides:
        value = finite_torus_zeta_reciprocal(d, n, u, which)
        rows.append(ConvergenceRow(n=n, value=value, abs_error=abs(value - reference)))
    return ConvergenceStudy(
        d=d,
        u=u,
        which=which,
        reference_grid=reference_grid,
        reference_value=reference,
        rows=tuple(rows),
    )
