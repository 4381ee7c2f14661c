"""Exact univariate polynomials over big rationals, and the two exact kernels.

Both kernels first scale a square rational matrix M to the integer matrix
L*M, with L the lcm of its denominators.

Every exact determinant in the package is det(I - u*M), computed by
`det_i_minus_u`: the characteristic polynomial of L*M is found modulo 31-bit
primes by Hessenberg reduction (Cohen, A Course in Computational Algebraic
Number Theory, GTM 138, section 2.2), and the residues are combined by the
Chinese remainder theorem with symmetric residues (von zur Gathen and
Gerhard, Modern Computer Algebra, chapter 5). An eigenvalue bound fixes the
number of primes, so the result is exact for every input.

Every trace Tr M^r is computed by `trace_powers` as Tr (L*M)^r / L^r from
integer powers of L*M; Python ints keep it exact with no bound needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .rational import RatMatrix


class Poly:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by degree with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        values = [Fraction(c) for c in coeffs]
        while values and not values[-1]:
            values.pop()
        self.coeffs = tuple(values)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, value in enumerate(b):
            out[k] += value
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
            return Poly(out)
        return Poly([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def eval_exact(self, u) -> Fraction:
        """Horner evaluation at a rational point."""
        u = Fraction(u)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*u^{k}" if k else f"{c}" for k, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


def one_minus_u_squared_pow(exponent: int) -> Poly:
    """(1 - u^2)^exponent expanded exactly."""
    return Poly((1, 0, -1)) ** exponent


def det_i_minus_u(matrix: RatMatrix) -> Poly:
    """Exact polynomial det(I - u*M) for a square rational matrix M.

    With L the lcm of the entry denominators, the coefficient of u^k is
    c_k / L^k, where x^n + c_1 x^(n-1) + ... + c_n = det(xI - L*M). The c_k
    are found modulo enough primes to pin them down and combined by CRT.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("det(I - u*M) requires a square matrix")
    n = matrix.rows
    scale, entries = _cleared(matrix)
    rows = np.array([i for i, _, _ in entries], dtype=np.intp)
    cols = np.array([j for _, j, _ in entries], dtype=np.intp)
    values = [value for _, _, value in entries]
    row_sums = [0] * n
    for i, _, value in entries:
        row_sums[i] += abs(value)
    # rho bounds every eigenvalue of L*M, so |c_k| <= C(n, k) * rho^k
    rho = max(row_sums)
    bound = max(math.comb(n, k) * rho**k for k in range(n + 1))
    primes = []
    modulus = 1
    while modulus <= 2 * bound:
        primes.append(_prime(len(primes)))
        modulus *= primes[-1]
    residues = []
    for p in primes:
        a = np.zeros((n, n), dtype=np.int64)
        a[rows, cols] = [value % p for value in values]
        residues.append(_charpoly_mod(a, p))
    return Poly(Fraction(c, scale**k) for k, c in enumerate(_crt(residues, primes, modulus)))


def trace_powers(matrix: RatMatrix, r_max: int) -> tuple[Fraction, ...]:
    """Exact traces Tr M^1, ..., Tr M^r_max of a square rational matrix M.

    With L the lcm of the entry denominators, Tr M^r = Tr (L*M)^r / L^r.
    The powers of L*M are taken with Python ints in sparse rows, each step
    multiplying the last power by L*M, so only the r_max traces are ever
    divided. Independent of `det_i_minus_u` and `log_series`, which give
    the same numbers through Newton's identities.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("trace powers require a square matrix")
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    scale, entries = _cleared(matrix)
    base: list[dict[int, int]] = [{} for _ in range(matrix.rows)]
    for i, j, value in entries:
        base[i][j] = value
    traces = []
    power = base
    for r in range(1, r_max + 1):
        if r > 1:
            power = [_row_times(row, base) for row in power]
        traces.append(Fraction(sum(row.get(i, 0) for i, row in enumerate(power)), scale**r))
    return tuple(traces)


def _row_times(row: dict[int, int], base: list[dict[int, int]]) -> dict[int, int]:
    """The sparse row vector ``row`` times the sparse matrix ``base``."""
    acc: dict[int, int] = {}
    for k, value in row.items():
        for j, w in base[k].items():
            acc[j] = acc.get(j, 0) + value * w
    return {j: value for j, value in acc.items() if value}


def _cleared(matrix: RatMatrix) -> tuple[int, list[tuple[int, int, int]]]:
    """The lcm L of the entry denominators, and the nonzero entries of L*M.

    Entries come as (i, j, integer) sorted by (i, j). This is the one place
    that clears a matrix to integers, for both exact kernels.
    """
    items = list(matrix.nonzero_items())
    scale = 1
    for _, _, value in items:
        scale = math.lcm(scale, value.denominator)
    return scale, [(i, j, value.numerator * (scale // value.denominator)) for i, j, value in items]


_PRIMES: list[int] = []


def _prime(index: int) -> int:
    """The index-th prime below 2^31, counting down; found once per process."""
    candidate = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
    while len(_PRIMES) <= index:
        if _is_prime(candidate):
            _PRIMES.append(candidate)
        candidate -= 2
    return _PRIMES[index]


def _is_prime(n: int) -> bool:
    # Miller-Rabin with bases 2, 3, 5, 7 is exact below 3,215,031,751
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _charpoly_mod(a: np.ndarray, p: int) -> list[int]:
    """Coefficients c_0..c_n of det(xI - A) mod p, with c_k on x^(n-k).

    A (entries in [0, p), p < 2^31) is brought to upper Hessenberg form by
    similarity transforms, then the characteristic polynomial follows from
    the Hessenberg recurrence (Cohen, GTM 138, Algorithm 2.2.9). Every
    product is reduced mod p before it is summed, so int64 cannot overflow.
    """
    n = a.shape[0]
    for m in range(1, n - 1):
        nonzero = np.flatnonzero(a[m:, m - 1])
        if not nonzero.size:
            continue
        i = m + int(nonzero[0])
        if i != m:
            a[[i, m], :] = a[[m, i], :]
            a[:, [i, m]] = a[:, [m, i]]
        factors = a[m + 1 :, m - 1] * pow(int(a[m, m - 1]), p - 2, p) % p
        # rows i > m lose factor_i times row m (left of column m - 1 both are
        # already zero); column m gains factor_i times column i, which keeps
        # the matrix similar
        a[m + 1 :, m - 1 :] = (a[m + 1 :, m - 1 :] - np.outer(factors, a[m, m - 1 :]) % p) % p
        a[:, m] = (a[:, m] + (a[:, m + 1 :] * factors % p).sum(axis=1)) % p
    # polys[m] holds the characteristic polynomial of the leading m x m
    # block, ascending in x
    sub = a.diagonal(-1).tolist()
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for m in range(1, n + 1):
        column = a[:m, m - 1].tolist()
        polys[m, 1:] = polys[m - 1, :-1]
        polys[m] = (polys[m] - polys[m - 1] * column[m - 1] % p) % p
        # polys[i] (degree i <= m - 2) enters with weight a[i, m-1] times
        # the subdiagonal product a[i+1, i] * ... * a[m-1, m-2]
        weights = [0] * (m - 1)
        t = 1
        for i in range(m - 2, -1, -1):
            t = t * sub[i] % p
            weights[i] = t * column[i] % p
        if weights:
            w = np.array(weights, dtype=np.int64)
            tail = (polys[: m - 1, : m - 1] * w[:, None] % p).sum(axis=0)
            polys[m, : m - 1] = (polys[m, : m - 1] - tail) % p
    return polys[n, ::-1].tolist()


def _crt(residues: list[list[int]], primes: list[int], modulus: int) -> list[int]:
    """Combine per-prime residue lists into symmetric residues mod the product."""
    weights = []
    for p in primes:
        rest = modulus // p
        weights.append(rest * pow(rest, -1, p))
    out = []
    for column in zip(*residues):
        c = sum(r * w for r, w in zip(column, weights)) % modulus
        out.append(c - modulus if 2 * c > modulus else c)
    return out


def log_series(p: Poly, order: int) -> tuple[Fraction, ...]:
    """Coefficients c_1..c_order of log(1/p(u)) as a formal power series.

    Requires p(0) = 1. Uses log(1/p)' = -p'/p: the series inverse of p is
    computed by the standard convolution recurrence and multiplied by -p'.
    """
    if p[0] != 1:
        raise ValueError("log series requires constant term 1")
    if order < 0:
        raise ValueError("order must be non-negative")
    # inv[k] with p * inv = 1 (mod u^order)
    inv = [Fraction(1)] + [Fraction(0)] * (order - 1) if order else []
    for k in range(1, order):
        acc = Fraction(0)
        for i in range(1, min(k, p.degree) + 1):
            ci = p[i]
            if ci:
                acc += ci * inv[k - i]
        inv[k] = -acc
    dp = p.derivative()
    out = []
    for r in range(1, order + 1):
        # coefficient of u^(r-1) in -p' * inv
        acc = Fraction(0)
        for i in range(0, r):
            a = dp[i]
            if a:
                acc += a * inv[r - 1 - i]
        out.append(-acc / r)
    return tuple(out)
