"""Exact univariate polynomials over big rationals, and the two exact kernels.

Both kernels read one record, `_Torus`: a square rational matrix M as the
integer matrix L*M, L the lcm of its reduced denominators, on its route.
`_operator(matrix)` is the one place that chooses the route. A
`rational.RatMatrix` already holds L and L*M, and a walk operator also
holds the place of its states on the graph and the graph's cover
(`operators`), so it routes itself. The public `det_i_minus_u` and
`trace_powers` take every matrix whole (`_whole`), even a walk operator,
so they stay the oracle of the routes.

Every exact determinant in the package is det(I - u*M), computed by
`_charpolys` as integer coefficients C_k of u^k / L^k and divided out by
`det_i_minus_u`; callers that go on in integers (the Bass form and the
Konno-Sato vertex sides) take the C_k and multiply by the cocycle
(1 - u^2)^e with `_times_one_minus_u_squared` before they divide; that
integer pass is the one way the package forms the cocycle. One call of
`_charpolys` takes several operators. The largest of the Frobenius bounds
C(n, k) (||L*M||_F^2 / n)^(k/2) on the coefficients, from the inequalities
of Schur, the power mean and Maclaurin, rounded up in integers, fixes the
number of 31-bit primes, so the result is exact for every input. The
residue kernels of `modular` find det(xI - L*M) modulo each prime, and the
residues are combined by the Chinese remainder theorem with symmetric
residues (von zur Gathen and Gerhard, Modern Computer Algebra, chapter 5).

There is one path to the residues. A graph's arc space verifies its cover
once (`graphs.ArcSpace.cover`, `graphs._abelian_cover`), and `_operator`
routes each operator built from it by that cover and its states. On
a family of `graphs.FAMILIES` the group Z_side^d acts freely on
the graph, which is then a cover of a base graph with F fibers: the Cayley
graphs torus(d, N), cycle(N), complete(n) and hypercube(d) of Z_side^d for
(d, side) = (d, N), (1, N), (1, n) and (d, 2), with F = 1, and gp(n, k)
and Petersen = gp(5, 2), with Z_n and F = 2. One rule (`_state_space`)
makes every state a pair (group element, kind): the element of its origin,
and the kind (half, fiber of the origin, fiber of the terminus, voltage),
so the kinds are the F fibers on the vertices, the 2F of the two halves of
the Bass companion, and the base arcs on the arcs, 2m / side^d of them. The
pairs are checked to be a bijection onto Z_side^d x kinds before any entry
is read. If L*M is invariant on its states, with entry t_ss'(h - g) from
state (g, s) to (h, s'), then modulo a prime p = 1 (mod side) with a
primitive side-th root of unity omega, det(xI - L*M) is the product over k
in Z_side^d of the characteristic polynomials of the w x w blocks
sum_z t_ss'(z) omega^(k.z), w the kinds. Every other matrix, every matrix
without states or cover, and every one of the public
`det_i_minus_u(matrix)`, is the one n x n block of the trivial group
(side 1, omega = 1, `_whole`) and takes the odd primes. The blocks of every
prime of the matrices of one width (U with U+, or P with D - A), or of one
whole matrix, form one int64 stack, run in chunks of rows where its arrays
would pass a fixed budget. Hessenberg reduction
(Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
section 2.2) and the Hessenberg recurrence run on the stack, and a product
tree multiplies the side^d polynomials of each row in O(n log^2 n) steps,
by outer products for short factors and floating-point FFT for long ones.

Every trace Tr M^r is computed by `_traces` as Tr (L*M)^r / L^r, by the
same multi-modular design and on the same route. A bound B on every
|Tr (L*M)^r| up to r_max, rho^(r-2) ||L*M||_F^2 from the row-sum norm rho
and Schur's inequality, fixes the primes, p = 1 (mod side). The Fourier
transform is a similarity over F_p, so Tr (L*M)^r mod p is the sum of the
traces of the r-th powers of the side^d blocks, and a whole matrix is its
one block. The powers of the blocks up to ceil(r_max / 2) form one
(K, side^d, w, w) int64 residue stack, each product a sum of gathers of
block rows, one per slot of the widest block row. Each higher trace is read
as a pairing Tr (A B) = sum_ij A[i][j] B[j][i] of two of them, summed over
the blocks, and the traces are combined by CRT. Every caller routes its
operator as `_operator(builder(graph, arc_space(graph)))`; the public
`trace_powers(matrix)` takes its matrix whole, and so does the trace side
of `zeta.zeta_series_consistency` (`_whole`), so in that check the Fourier
blocks enter only the determinant. Both bounds are read off the stencil
(`_norms`), the same numbers on both routes.

`log_series` expands log(1/p) for p(0) = 1 by Newton's identities, one
recurrence over the coefficients of p; for p = det(I - uM) its
coefficients are Tr M^r / r, which ties the two kernels together.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ZetawalkError
from .modular import _crt, _hessenberg_charpolys, _product_mod
from .rational import RatMatrix


class Poly:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by degree with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        # a Fraction is immutable and kept as it is: converting it again
        # costs more than the arithmetic that made it
        values = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
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

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*u^{k}" if k else f"{c}" for k, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


def _times_one_minus_u_squared(coeffs: list[int], exponent: int) -> list[int]:
    """Integer coefficients of (1 - u^2)^exponent times the given polynomial.

    Each factor 1 - u^2 is one pass of r_i -= r_(i-2), from the top down so
    that r_(i-2) is still the old value; the list grows by two per pass.
    """
    out = list(coeffs)
    for _ in range(exponent):
        out += [0, 0]
        for i in range(len(out) - 1, 1, -1):
            out[i] -= out[i - 2]
    return out


def det_i_minus_u(matrix: RatMatrix) -> Poly:
    """Exact polynomial det(I - u*M) for a square rational matrix M."""
    if matrix.rows != matrix.cols:
        raise ZetawalkError("det(I - u*M) requires a square matrix")
    return _unscaled(matrix.scale, _charpolys([_whole(matrix)])[0])


def _unscaled(scale: int, coeffs: list[int]) -> Poly:
    """det(I - u*M) = sum_k C_k u^k / L^k from L and the C_k."""
    return Poly(Fraction(c, scale**k) for k, c in enumerate(coeffs))


def _operator(matrix: RatMatrix) -> _Torus:
    """The route of the matrix: its stencil on the group of its cover
    (`_torus_stencil`), or else the whole matrix (`_whole`)."""
    return _torus_stencil(matrix) or _whole(matrix)


def _charpolys(operators: Sequence[_Torus]) -> list[list[int]]:
    """The coefficients C_0..C_n of det(xI - A), C_k on x^(n-k), for each A.

    Symmetric residues pin down every C_k once the modulus exceeds 2 |C_k|,
    so each A takes the fewest primes p = 1 (mod side) of its route whose
    product exceeds 2B, B its `_coefficient_bound`, and its residues are
    combined by CRT. Every A goes through `_fourier_charpolys` on the route
    its record holds. The Fourier matrices of one width share a stack; a
    whole matrix has its own, since slices that pivot apart each need their
    own swaps.
    """
    out: list[list[int]] = [[] for _ in operators]
    # stack key -> (index, torus, primes, modulus) of each matrix in the stack
    stacks: dict[object, list[tuple[int, _Torus, list[int], int]]] = {}
    for index, torus in enumerate(operators):
        primes, modulus = _primes_above(2 * _coefficient_bound(torus), torus.side)
        key = (torus.side, torus.width) if torus.side > 1 else index
        stacks.setdefault(key, []).append((index, torus, primes, modulus))
    for stack in stacks.values():
        indices, tori, primes, moduli = zip(*stack)
        residues = _fourier_charpolys(list(tori), list(primes))
        for index, rows, row_primes, modulus in zip(indices, residues, primes, moduli):
            out[index] = _crt(rows.tolist(), row_primes, modulus)
    return out


def _norms(torus: _Torus) -> tuple[int, int, int, int]:
    """n, ||A||_F^2, the row-sum norm rho and sum_i |A[i][i]| of the n x n
    matrix A of the stencil.

    Each stencil entry t_ss'(z) stands for side^d entries of A, one in each
    row of kind s, so every row of kind s sums the |t_ss'(z)| of its kind,
    and the Frobenius and diagonal sums are side^d times those of the
    stencil; the diagonal entries are those with s = s' and z = 0. A whole
    matrix is its own stencil (side^d = 1), so these are its entry sums.
    """
    order, width = len(torus.coords), torus.width
    row_sums = [0] * width
    frobenius = diagonal = 0
    # in exact Python ints: the square of an int64 entry may not fit
    for pair, z, t in zip(torus.pairs.tolist(), torus.steps.tolist(), torus.values.tolist()):
        s, s2 = divmod(pair, width)
        row_sums[s] += abs(t)
        frobenius += t * t
        if s == s2 and not z:
            diagonal += abs(t)
    return order * width, order * frobenius, max(row_sums, default=0), order * diagonal


def _coefficient_bound(torus: _Torus) -> int:
    """An integer B >= |c_k| for every coefficient c_k of det(xI - A).

    A is the n x n integer matrix of the stencil, and F = ||A||_F^2
    (`_norms`). Schur's inequality sum |lam|^2 <= F, the power mean
    inequality and Maclaurin's inequality give |c_k| <= b_k =
    C(n, k) (F / n)^(k/2), rounded up in integers to
    B_k = C(n, k) R_k with R_k = ceil(sqrt(ceil((F / n)^k))), and B is the
    largest B_k. The eigenvalue bound C(n, k) rho^k of the row-sum norm rho
    is never smaller: each row has sum_j a_ij^2 <= rho^2, so F <= n rho^2
    and R_k <= rho^k.

    The largest B_k is found near the mode of b_k, not from all n + 1 terms.
    If F <= n, R_k is 1 for every k (0 for k >= 1 when F = 0), so B is
    C(n, n // 2), or 1. Otherwise R_k grows with k and b_k is log-concave:
    it rises while (n - k)^2 F >= (k + 1)^2 n, which holds for every
    k < n / 2, and then falls. With b_k <= B_k < b_k + 2 C(n, k), B_k
    rises up to k = n // 2; from the mode up, b_k and C(n, k) both fall, so
    B_k + 2 C(n, k) bounds every later term; from the mode down to n // 2,
    b_k falls and C(n, k) <= C(n, n // 2), so B_k + 2 C(n, n // 2) bounds
    every earlier term. Each walk stops at the first such bound not above
    the largest term seen.
    """
    n, frobenius, _, _ = _norms(torus)
    if frobenius <= n:
        return math.comb(n, n // 2) if frobenius else 1

    def term(k: int) -> int:
        mean_power = -(-(frobenius**k) // n**k)
        root = math.isqrt(mean_power)
        return math.comb(n, k) * (root + (root * root < mean_power))

    mode = bisect.bisect_left(
        range(n), True, key=lambda k: (n - k) ** 2 * frobenius < (k + 1) ** 2 * n
    )
    best = term(mode)
    for k in range(mode + 1, n + 1):
        value = term(k)
        best = max(best, value)
        if value + 2 * math.comb(n, k) <= best:
            break
    middle = 2 * math.comb(n, n // 2)
    for k in range(mode - 1, n // 2 - 1, -1):
        value = term(k)
        best = max(best, value)
        if value + middle <= best:
            break
    return best


def trace_powers(matrix: RatMatrix, r_max: int) -> tuple[Fraction, ...]:
    """Exact traces Tr M^1, ..., Tr M^r_max of a square rational matrix M.

    With L the lcm of the entry denominators, Tr M^r = Tr A^r / L^r for the
    integer matrix A = L*M. Every |Tr A^r| is at most the `_trace_bound` B,
    so the traces are found modulo primes whose product exceeds 2B
    (`_trace_residues`), combined by CRT, and each divided once by L^r.
    Independent of `det_i_minus_u` and `log_series`, which give the same
    numbers through Newton's identities.
    """
    if matrix.rows != matrix.cols:
        raise ZetawalkError("trace powers require a square matrix")
    if r_max < 0:
        raise ZetawalkError("r_max must be non-negative")
    if r_max == 0:
        return ()
    return _traces(_whole(matrix), r_max)


def _traces(torus: _Torus, r_max: int) -> tuple[Fraction, ...]:
    """`trace_powers` of the matrix M of the route, for r_max >= 1.

    As in `_charpolys`, A = L*M goes on its route, with the primes
    p = 1 (mod side) of its group. The Fourier transform is a similarity
    over F_p, so Tr A^r mod p is the sum of the traces of the r-th powers
    of the blocks, and after CRT every trace is the same on both routes.
    """
    bound = _trace_bound(torus, r_max)
    if not bound:
        # A = 0, or r_max = 1 and a zero diagonal
        return (Fraction(0),) * r_max
    primes, modulus = _primes_above(2 * bound, torus.side)
    traces = _crt(_trace_residues(torus, primes, r_max), primes, modulus)
    return tuple(Fraction(t, torus.scale**r) for r, t in enumerate(traces, start=1))


def _trace_bound(torus: _Torus, r_max: int) -> int:
    """An integer B >= |Tr A^r| for r = 1..r_max, A the integer matrix of
    the stencil.

    |Tr A| <= sum_i |A[i][i]|. For r >= 2, |Tr A^r| <= sum |lam|^r, and the
    row-sum norm rho bounds every eigenvalue, so by Schur's inequality
    sum |lam|^2 <= ||A||_F^2 this is at most rho^(r-2) ||A||_F^2 (`_norms`).
    The eigenvalue bound n rho^r is never smaller: each row has
    sum_j A[i][j]^2 <= rho^2, so ||A||_F^2 <= n rho^2. The bound grows with
    r (rho >= 1 unless A = 0), and for integers ||A||_F^2 >= sum_i |A[i][i]|,
    so B is the bound at r_max.
    """
    _, frobenius, rho, diagonal = _norms(torus)
    if r_max < 2:
        return diagonal
    return rho ** (r_max - 2) * frobenius


_INT64_MAX = 2**63 - 1


def _trace_residues(torus: _Torus, primes: list[int], r_max: int) -> list[list[int]]:
    """Tr T^1..Tr T^r_max mod each prime p = 1 (mod side), T the matrix of
    the stencil; row q of the result is for primes[q].

    T is held as its side^d Fourier blocks T^(k) (`_fourier_sums`), w x w
    with w = `torus.width`; on the trivial group the one block is T. Only
    the powers P_a = T^a with a <= ceil(r_max / 2) are formed, block by
    block, as one (K, side^d, w, w) int64 stack of residues in [0, p) for
    the K primes. Since Tr (X Y) = sum_ij X[i][j] Y[j][i], summed over the
    blocks, Tr T^(2a-1) is the pairing of P_(a-1) with P_a and Tr T^(2a)
    the pairing of P_a with itself. The entries (s, s') of a block that the
    stencil reaches are the same for every k, so each block row is padded
    to the widest: slot t of row s holds one of them, with column cols[t][s]
    and the block's entry as a symmetric residue, or 0 with column 0. The
    product P_a = T P_(a-1) is then one gather of block rows of P_(a-1) per
    slot, each scaled by its slot and added up. The sum is reduced mod p
    only when its running bound would pass 2^63 - 1: once per product on a
    whole walk operator, whose entries are small, and every few slots when
    they are near p / 2, as Fourier blocks of a side above 2 are. Three
    stacks are alive at a time.
    """
    count, nu, width = len(primes), len(torus.coords), torus.width
    p1 = np.array(primes, dtype=np.int64)[:, None]
    p3 = p1[:, :, None]
    p4 = p3[:, :, :, None]
    keys, sums = _fourier_sums(torus, primes)
    sums -= np.where(2 * sums > p3, p3, 0)
    rows = keys // width
    slots = np.arange(len(keys)) - np.searchsorted(rows, np.arange(width))[rows]
    depth = int(slots.max()) + 1
    cols = np.zeros((depth, width), dtype=np.int64)
    cols[slots, rows] = keys % width
    weights = np.zeros((depth, count, nu, width, 1), dtype=np.int64)
    weights[slots, :, :, rows, 0] = sums.transpose(2, 0, 1)
    # |weight * residue| per slot, with the residues of P in [0, p)
    top = max(primes) - 1
    term_bounds = [int(b) * top for b in np.abs(weights).max(axis=(1, 2, 3, 4))]
    power = np.zeros((count, nu, width, width), dtype=np.int64)
    power[:, :, np.arange(width), np.arange(width)] = 1
    spare = np.empty_like(power)
    gathered = np.empty_like(power)
    traces = np.zeros((count, r_max), dtype=np.int64)
    for a in range(1, (r_max + 1) // 2 + 1):
        previous, power = power, spare
        np.take(previous, cols[0], axis=2, out=power, mode="clip")
        power *= weights[0]
        running = term_bounds[0]
        for t in range(1, depth):
            if running + term_bounds[t] > _INT64_MAX:
                power %= p4
                running = top
            np.take(previous, cols[t], axis=2, out=gathered, mode="clip")
            gathered *= weights[t]
            power += gathered
            running += term_bounds[t]
        power %= p4
        spare = previous
        traces[:, 2 * a - 2] = _pairing_mod(previous, power, p1, gathered)
        if 2 * a <= r_max:
            traces[:, 2 * a - 1] = _pairing_mod(power, power, p1, gathered)
    return traces.tolist()


def _pairing_mod(x: np.ndarray, y: np.ndarray, p1: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sum over the blocks b of Tr (X_b Y_b) mod p, with
    Tr (X Y) = sum_ij X[i][j] Y[j][i], for (K, B, w, w) stacks of B blocks
    of residues in [0, p).

    p1 holds the K primes as a (K, 1) array and `out` is a stack to write
    the products in. Each product is reduced before it is added, and each
    sum of w residues before the B w sums of a prime are added, so int64
    cannot overflow.
    """
    np.multiply(x, y.swapaxes(2, 3), out=out)
    # the rows of every block, one after another
    rows = out.reshape(len(out), -1, out.shape[3])
    rows %= p1[:, :, None]
    return (rows.sum(axis=2) % p1).sum(axis=1) % p1[:, 0]


# lcm(2, n) -> the primes = 1 (mod n) below 2^31 found so far, descending
_PRIMES: dict[int, list[int]] = {}


def _prime(index: int, n: int = 2) -> int:
    """The index-th prime p = 1 (mod n) below 2^31, counting down.

    Each list is found once per process. The default n = 2, and n = 1, give
    every odd prime below 2^31; the Fourier route asks for p = 1 (mod N), so
    that F_p holds the N-th roots of unity. Candidates step by lcm(2, n), so
    all are odd, and each list is kept under its step. When the candidates
    run out before the index-th prime, ZetawalkError names the step.
    """
    step = math.lcm(2, n)
    found = _PRIMES.setdefault(step, [])
    candidate = found[-1] - step if found else (2**31 - 2) // step * step + 1
    while len(found) <= index:
        if candidate < 2:
            raise ZetawalkError(
                f"only {len(found)} primes p = 1 (mod {step}) lie below 2^31, "
                f"and prime {index} was asked for"
            )
        if _is_prime(candidate):
            found.append(candidate)
        candidate -= step
    return found[index]


def _primes_above(limit: int, n: int = 2) -> tuple[list[int], int]:
    """The fewest leading `_prime(., n)`s whose product exceeds limit, and that product."""
    primes = []
    modulus = 1
    while modulus <= limit:
        primes.append(_prime(len(primes), n))
        modulus *= primes[-1]
    return primes, modulus


# (n, p) -> the primitive n-th root of unity modulo p that `_root_of_unity` found
_ROOTS: dict[tuple[int, int], int] = {}


def _root_of_unity(n: int, p: int) -> int:
    """A primitive n-th root of unity modulo a prime p = 1 (mod n).

    omega = g^((p-1)/n) for the least g >= 2 that gives it order exactly n:
    its order divides n, and it is n when omega^(n/r) != 1 for every prime
    factor r of n. Each root is found once per process.
    """
    if (n, p) in _ROOTS:
        return _ROOTS[n, p]
    factors = {r for r in range(2, n + 1) if n % r == 0 and all(r % f for f in range(2, r))}
    for g in range(2, p):
        omega = pow(g, (p - 1) // n, p)
        if all(pow(omega, n // r, p) != 1 for r in factors):
            _ROOTS[n, p] = omega
            return omega
    raise ZetawalkError(f"no primitive {n}-th root of unity modulo {p}")


def _is_prime(n: int) -> bool:
    """Whether n is prime, exactly for every n below 3,215,031,751, the
    least strong pseudoprime to the bases 2, 3, 5 and 7 (Pomerance,
    Selfridge and Wagstaff, Math. Comp. 35 (1980) 1003), so for every
    candidate of `_prime`.

    A base that divides n decides at once: n is prime only if it is that
    base. Otherwise n is odd and coprime to every base, and Miller-Rabin
    runs to each of them.
    """
    if n < 2:
        return False
    for base in (2, 3, 5, 7):
        if n % base == 0:
            return n == base
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


def _state_space(d: int, side: int, fibers: int, states: np.ndarray) -> tuple | None:
    """The group Z_side^d of a cover with `fibers` fibers, as `coords`, row
    h the d coordinates of the element with flat index h, and `place`, a
    step z having the flat index z . place; then the element and the kind,
    ranked 0..w-1, of each state, and w, when state -> (element, kind) is a
    bijection onto Z_side^d x kinds; else None.

    states holds the half, the origin and the terminus of each state
    (`rational.RatMatrix`). Vertex v is element v mod side^d in fiber
    v div side^d (`graphs._Base`); a state is the element of its origin,
    and its kind is (half, fiber of the origin, fiber of the terminus,
    voltage), the voltage being the step from the origin's element to the
    terminus's.
    """
    place = side ** np.arange(d)
    coords = np.arange(side**d)[:, None] // place % side
    order = len(coords)
    half, origin, terminus = states
    element = origin % order
    voltage = (coords[terminus % order] - coords[element]) % side @ place
    kind = ((half * fibers + origin // order) * fibers + terminus // order) * order + voltage
    _, kind = np.unique(kind, return_inverse=True)
    width = int(kind.max()) + 1
    if len(element) != order * width or np.bincount(element * width + kind).max() > 1:
        return None
    return coords, place, element, kind, width


class _Torus(NamedTuple):
    """The route of a square rational matrix M, the one record both kernels
    read: L = `scale` and A = L*M, translation invariant on Z_side^d.

    Its states are pairs (element g, kind s), `width` kinds per element, and
    its entry from (g, s) to (h, s') is t_ss'(h - g). The stencil is the
    nonzero t_ss'(z) as three arrays, sorted by (s, s') and then z: `pairs`
    holds s w + s', `steps` the flat index z of the step, and `values` the
    integer t (int64, or exact Python ints as in `rational.RatMatrix`);
    `coords[h]` are the d coordinates of the element with flat index h. A
    whole matrix is the one block of the trivial group (`_whole`).
    """

    scale: int
    side: int
    coords: np.ndarray
    width: int
    pairs: np.ndarray
    steps: np.ndarray
    values: np.ndarray


def _torus_stencil(matrix: RatMatrix) -> _Torus | None:
    """The stencil of the integer matrix A = L*M of the matrix, when it has one.

    The matrix must have states and a cover, and its states must be a free
    orbit of the cover's group (`_state_space`). The stencil is read off
    the rows of the states at element 0, each entry keyed by (s, s', z);
    every nonzero entry, from (g, s) to (h, s'), must then be t_ss'(h - g),
    and there must be side^d entries per stencil entry, so that none is
    missing. Both checks are array operations: the stencil keys are sorted
    once and every entry's key is found among them by bisection. Otherwise
    the answer is None, and the matrix is taken whole.
    """
    cover, states = matrix._cover, matrix._states
    if cover is None or states is None:
        return None
    placed = _state_space(*cover, states)
    if placed is None:
        return None
    coords, place, element, kind, width = placed
    side, order = cover[1], len(coords)
    rows, cols, values = matrix._i, matrix._j, matrix._a
    origins = element[rows]
    steps = (coords[element[cols]] - coords[origins]) % side @ place
    keys = (kind[rows] * width + kind[cols]) * order + steps
    at_zero = origins == 0
    if len(keys) != order * np.count_nonzero(at_zero):
        return None
    sorter = np.argsort(keys[at_zero])
    stencil_keys, stencil_values = keys[at_zero][sorter], values[at_zero][sorter]
    slots = np.minimum(np.searchsorted(stencil_keys, keys), len(stencil_keys) - 1)
    if not (
        np.array_equal(stencil_keys[slots], keys) and np.array_equal(stencil_values[slots], values)
    ):
        return None
    pairs, steps = stencil_keys // order, stencil_keys % order
    return _Torus(matrix.scale, side, coords, width, pairs, steps, stencil_values)


def _whole(matrix: RatMatrix) -> _Torus:
    """The n x n integer matrix A = L*M as the one block of the trivial
    group: side 1, one element with no coordinates, n kinds, and
    t_ij(0) = A[i][j]."""
    n, rows, coords = matrix.rows, matrix._i, np.zeros((1, 0), dtype=np.int64)
    pairs, steps = rows * n + matrix._j, np.zeros(len(rows), dtype=np.int64)
    return _Torus(matrix.scale, 1, coords, n, pairs, steps, matrix._a)


# about the most elements an array of one chunk of `_fourier_charpolys` holds
_FOURIER_BUDGET = 2**21


def _fourier_charpolys(tori: list[_Torus], primes: list[list[int]]) -> list[np.ndarray]:
    """det(xI - T) mod each of its primes p = 1 (mod side), for each matrix T.

    The matrices act on one group Z_side^d with one width, and primes[t]
    lists the primes of tori[t]. With omega a primitive side-th root of
    unity mod p (-1 for side 2), the vectors f(w, s') = omega^(k.w) a_s' for
    k in Z_side^d span F_p^n, and T maps those of one k among themselves
    through the width x width block T^(k)_ss' = sum_z t_ss'(z) omega^(k.z).
    So det(xI - T) is the product over k of det(xI - T^(k)) mod p. On the
    trivial group (side 1, omega = 1) the one block is T itself. The
    blocks of every (matrix, prime) row form one stack for
    `_hessenberg_charpolys`, and `_product_mod` multiplies the side^d block
    polynomials of each row. A stack whose arrays would pass
    `_FOURIER_BUDGET` elements runs in chunks of rows, so memory stays
    bounded. The coefficients come as c_0..c_n, with c_k on x^(n-k), which
    is also the coefficient of u^k in det(I - uT); the block polynomials
    are multiplied in that reading, where 1 is (1, 0, ..., 0). Row q of the
    (K, n + 1) int64 result of a matrix is for its prime q.
    """
    nu, width = len(tori[0].coords), tori[0].width
    rows = [(t, p) for t, row_primes in enumerate(primes) for p in row_primes]
    # a row takes nu w^2 elements in its blocks, nu E in the terms of its E
    # stencil entries, fewer than 64 nu w in an outer product of its tree
    # and about 16 nu w in an FFT level
    per_vertex = max(width * max(width, 64), *(len(torus.values) for torus in tori))
    chunk = max(1, _FOURIER_BUDGET // (nu * per_vertex))
    residues = np.empty((len(rows), nu * width + 1), dtype=np.int64)
    for start in range(0, len(rows), chunk):
        part = rows[start : start + chunk]
        blocks = np.concatenate(
            [
                _fourier_blocks(tori[t], [p for _, p in run])
                for t, run in itertools.groupby(part, key=lambda row: row[0])
            ]
        )
        part_primes = [p for _, p in part]
        charpolys = _hessenberg_charpolys(
            blocks.reshape(len(part) * nu, width, width), np.repeat(part_primes, nu).tolist()
        )
        p = np.array(part_primes, dtype=np.int64)[:, None]
        product = _product_mod(charpolys.reshape(len(part), nu, width + 1), p)
        residues[start : start + len(part)] = product[:, : nu * width + 1]
    return np.split(residues, np.cumsum([len(row_primes) for row_primes in primes])[:-1])


def _fourier_blocks(torus: _Torus, primes: list[int]) -> np.ndarray:
    """The (K, side^d, w, w) int64 blocks T^(k) of the matrix mod each of K
    primes, the sums of `_fourier_sums` scattered into zeroed blocks."""
    order, width = len(torus.coords), torus.width
    keys, sums = _fourier_sums(torus, primes)
    blocks = np.zeros((len(primes), order, width * width), dtype=np.int64)
    blocks[:, :, keys] = sums
    return blocks.reshape(len(primes), order, width, width)


def _fourier_sums(torus: _Torus, primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the blocks T^(k) that the stencil reaches, mod each of
    K primes: their R keys s w + s', ascending, and a (K, side^d, R) int64
    array of residues in [0, p), the same keys for every k.

    The terms t_ss'(z) omega^(k.z) of the E stencil entries form one
    (K, side^d, E) array, in which the terms of one block entry (s, s') are
    a run, and `np.add.reduceat` sums each run: at most side^d residues
    below 2^31. When every run has one term, as on U and U+, the terms are
    the sums.
    """
    _, side, coords, _, keys, steps, values = torus
    p = np.array(primes, dtype=np.int64)[:, None, None]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))[: len(keys)])
    # residues of exact Python ints are taken in Python ints
    moduli = np.array(primes, dtype=values.dtype)[:, None]
    terms = (values % moduli).astype(np.int64)[:, None]
    # on the trivial group every phase is 0, and omega^0 = 1
    if side > 1:
        # omega^e mod p for e = 0..side-1, one row per prime
        powers = np.ones((len(primes), side), dtype=np.int64)
        roots = np.array([_root_of_unity(side, q) for q in primes], dtype=np.int64)
        for e in range(1, side):
            powers[:, e] = powers[:, e - 1] * roots % p[:, 0, 0]
        # k.z mod side for each k and each stencil step z
        phases = coords @ coords[steps].T % side
        terms = powers[:, phases] * terms
        terms %= p
    if len(starts) < len(keys):
        terms = np.add.reduceat(terms, starts, axis=2)
        terms %= p
    return keys[starts], terms


def log_series(p: Poly, order: int) -> tuple[Fraction, ...]:
    """Coefficients c_1..c_order of log(1/p(u)) as a formal power series.

    Requires p(0) = 1. Since log(1/p)' = -p'/p, the sums s_r = r c_r satisfy
    -p' = p * sum_r s_r u^(r-1), whose coefficient of u^(r-1) is Newton's
    identity s_r = -r p_r - sum_(k=1)^(min(r-1, deg p)) p_k s_(r-k).
    """
    if p[0] != 1:
        raise ZetawalkError("log series requires constant term 1")
    if order < 0:
        raise ZetawalkError("order must be non-negative")
    sums: list[Fraction] = []
    for r in range(1, order + 1):
        acc = -r * p[r]
        # p_k pairs with s_(r-k) for k = 1..min(r-1, deg p)
        for c, s in zip(p.coeffs[1:r], reversed(sums)):
            if c:
                acc -= c * s
        sums.append(acc)
    return tuple(s / r for r, s in enumerate(sums, start=1))
