"""Independent oracles for cross-checking the package's exact routines.

Everything here is deliberately naive: plain fraction Gaussian elimination
instead of the package's multi-modular kernel, dense fraction matrix
products instead of its integer trace powers, list convolutions instead of
the Poly class. Slower, but sharing no code with the implementations under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from zetawalk import RatMatrix


def dense(matrix: RatMatrix) -> list[list[Fraction]]:
    return [
        [matrix[i, j] for j in range(matrix.cols)] for i in range(matrix.rows)
    ]


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
