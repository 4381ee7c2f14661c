"""Kernels on residues modulo primes below 2^31, for the exact kernels of
`polynomials`.

They know nothing of graphs, rational matrices or polynomials over Q:
characteristic polynomials of a stack of int64 residue matrices by
Hessenberg reduction (`_hessenberg_charpolys`), the product of stacks of
residue polynomials by a product tree (`_product_mod`, with `_outer_mod`
for short factors and `_fft_mod` for long ones), and the Chinese remainder
theorem with symmetric residues (`_crt`). `polynomials` describes how the
kernels use them.
"""

from __future__ import annotations

import numpy as np


def _hessenberg_charpolys(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """For each slice a[b] of a (B, n, n) stack, det(xI - a[b]) mod primes[b].

    Row b of the (B, n + 1) int64 result holds c_0..c_n, with c_k on
    x^(n-k). Each slice holds residues in [0, p) for its own prime p < 2^31;
    a prime may serve several slices. The stack is brought to upper
    Hessenberg form by similarity transforms, after which the characteristic
    polynomials follow from the Hessenberg recurrence (Cohen, GTM 138,
    Algorithm 2.2.9). Each step runs once for the whole stack and touches
    only the rows and columns whose multiplier is nonzero for some slice.
    Products are reduced mod p before two of them are added, so int64
    cannot overflow. The stack is overwritten.
    """
    slices, n = a.shape[:2]
    # the primes shaped to broadcast over (B, .) and (B, ., .) arrays
    p1 = np.array(primes, dtype=np.int64)[:, None]
    p2 = p1[:, :, None]
    for m in range(1, n - 1):
        nonzero = a[:, m:, m - 1] != 0
        live = np.flatnonzero(nonzero.any(axis=0))
        if not live.size:
            continue
        # one swap for the stack brings the first row that is nonzero for
        # some slice to the pivot; a permutation of rows and columns >= m
        # keeps the Hessenberg columns < m - 1, so it is harmless for every
        # slice. The slices whose residue there is 0 then swap their own
        # first nonzero row to the pivot, all at once.
        i = m + int(live[0])
        if i != m:
            a[:, [i, m], :] = a[:, [m, i], :]
            a[:, :, [i, m]] = a[:, :, [m, i]]
        q = np.flatnonzero(~nonzero[:, i - m] & nonzero.any(axis=1))
        if q.size:
            j = m + np.argmax(a[q, m:, m - 1] != 0, axis=1)
            a[q, m, :], a[q, j, :] = a[q, j, :], a[q, m, :]
            a[q, :, m], a[q, :, j] = a[q, :, j], a[q, :, m]
        # the swaps leave nonzero entries below row m only in rows after the
        # first live one; a slice whose column is already zero gets inverse
        # 0, so its multipliers are 0 and it is left unchanged
        hit = m + live[1:]
        if not hit.size:
            continue
        pivots = a[:, m, m - 1].tolist()
        inverses = [pow(x, -1, p) if x else 0 for x, p in zip(pivots, primes)]
        f = a[:, hit, m - 1] * np.array(inverses, dtype=np.int64)[:, None] % p1
        # rows in `hit` lose factor times row m (left of column m - 1 both
        # are already zero, and column m - 1 cancels); column m gains factor
        # times each column in `hit`, which keeps the matrix similar. A
        # difference of an entry and one product stays above -2^62.
        updated = f[:, :, None] * a[:, None, m, m - 1 :]
        np.subtract(a[:, hit, m - 1 :], updated, out=updated)
        updated %= p2
        a[:, hit, m - 1 :] = updated
        gathered = a.take(hit, axis=2)
        gathered *= f[:, None, :]
        gathered %= p2
        a[:, :, m] = (a[:, :, m] + gathered.sum(axis=2)) % p1
    # polys[:, m] holds the characteristic polynomial of the leading m x m
    # block, ascending in x; polys[:, i] (degree i <= m - 2) enters it with
    # weight a[i, m-1] times the subdiagonal product a[i+1, i] ... a[m-1, m-2],
    # kept in runs[:, i]. Below the last subdiagonal entry that is zero for
    # every slice (`top`) every such product is 0, so those weights are skipped.
    sub = a.diagonal(-1, axis1=1, axis2=2)
    polys = np.zeros((slices, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    runs = np.zeros((slices, n), dtype=np.int64)
    top = 0
    for m in range(1, n + 1):
        polys[:, m, 1 : m + 1] = polys[:, m - 1, :m]
        polys[:, m, :m] = (polys[:, m, :m] - polys[:, m - 1, :m] * a[:, m - 1, m - 1, None]) % p1
        if m < 2:
            continue
        if not sub[:, m - 2].any():
            top = m - 1
            continue
        runs[:, m - 2] = 1
        runs[:, top : m - 1] = runs[:, top : m - 1] * sub[:, m - 2, None] % p1
        weights = runs[:, top : m - 1] * a[:, top : m - 1, m - 1] % p1
        hit = np.flatnonzero(weights.any(axis=0))
        if hit.size:
            tail = polys[:, top + hit, : m - 1]
            tail *= weights[:, hit, None]
            tail %= p2
            polys[:, m, : m - 1] = (polys[:, m, : m - 1] - tail.sum(axis=1)) % p1
    return polys[:, n, ::-1]


# `_product_mod` multiplies factors of up to _OUTER_LENGTH coefficients, or
# levels of up to _OUTER_TERMS terms a_i b_j in all, by `_outer_mod`, and
# the others by `_fft_mod`
_OUTER_LENGTH = 32
_OUTER_TERMS = 2**16


def _product_mod(polys: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The product of the M polynomials polys[q, :] mod p[q], for each row q.

    polys is a (K, M, L) int64 array of coefficient lists in [0, p), lowest
    degree first, and p a (K, 1) array of primes below 2^31. A product tree
    pairs neighbours until one polynomial is left, with the constant 1
    padding a level of odd length; coefficients past the true degree come
    out 0. Each level multiplies all its pairs at once: by the outer product
    (`_outer_mod`) while they have at most `_OUTER_LENGTH` coefficients or
    the level has at most `_OUTER_TERMS` terms, and by floating-point FFT
    (`_fft_mod`) above that, where the L^2 terms per pair dominate. The
    switch is measured: the two take about the same time at 33 coefficients
    on hundreds of pairs, and at 65 to 257 on a few, where the FFT's fixed
    cost of about forty array calls counts; the outer product also holds a
    (pairs, L, 2L) array, which the length limit bounds.
    """
    count = polys.shape[0]
    while polys.shape[1] > 1:
        _, m, length = polys.shape
        if m % 2:
            one = np.zeros((count, 1, length), dtype=np.int64)
            one[:, :, 0] = 1
            polys = np.concatenate((polys, one), axis=1)
        pairs = polys.shape[1] // 2
        outer = length <= _OUTER_LENGTH or count * pairs * length**2 <= _OUTER_TERMS
        multiply = _outer_mod if outer else _fft_mod
        product = multiply(
            polys[:, 0::2].reshape(-1, length),
            polys[:, 1::2].reshape(-1, length),
            np.repeat(p, pairs, axis=0),
        )
        polys = product.reshape(count, pairs, 2 * length - 1)
    return polys[:, 0]


def _outer_mod(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The products a[q] * b[q] mod p[q] of (B, L) residue rows, p a (B, 1) array.

    The terms a_i b_j, reduced mod p, fill the left half of row i of a
    (B, L, 2L) array of zeros. Read in rows of 2L - 1, the same memory holds
    a_i b_j in column i + j of row i, so one sum over the rows gives every
    coefficient; a sum of L residues below 2^31 fits in int64.
    """
    rows, length = a.shape
    outer = np.zeros((rows, length, 2 * length), dtype=np.int64)
    terms = outer[:, :, :length]
    np.multiply(a[:, :, None], b[:, None, :], out=terms)
    np.remainder(terms, p[:, :, None], out=terms)
    skew = outer.reshape(rows, 2 * length * length)[:, : length * (2 * length - 1)]
    out = skew.reshape(rows, length, 2 * length - 1).sum(axis=1)
    out %= p
    return out


# `_fft_mod` splits each residue below 2^31 into three limbs below 2^11
_LIMB_BITS = 11
_LIMBS = 3


def _fft_mod(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The products a[q] * b[q] mod p[q] of (B, L) residue rows, by FFT.

    Each residue is r = sum_i r_i 2^(11 i) with limbs 0 <= r_i < 2^11. The
    limb products of weight s, z_s = sum_(i+j=s) a_i * b_j, are integer
    convolutions below 3 L 2^22, found from float64 real FFTs of length
    N >= 2L - 1: six forward transforms, one pointwise sum of products per s
    and five inverse transforms. Percival's bound (Brent and Zimmermann,
    Modern Computer Arithmetic, section 3.3.1) puts the error of a
    convolution of x and y below ||x|| ||y|| (13 log2(N) + 3) 2^-53 for a
    radix-2 FFT with twiddle factors accurate to 2^-53, so that of z_s
    below 0.1 while L <= 2^18, and rounding gives z_s exactly. numpy's FFT
    is mixed-radix, so the rounding is checked too: a value further than
    1/4 from an integer raises rather than give a wrong residue. The
    product sum_s z_s 2^(11 s) is reduced by Horner's rule mod p; each step
    stays below 2^63.
    """
    rows, length = a.shape
    size = 2 * length - 1
    n = 1 << (size - 1).bit_length()
    mask = (1 << _LIMB_BITS) - 1
    fa = [np.fft.rfft(a >> (_LIMB_BITS * i) & mask, n) for i in range(_LIMBS)]
    fb = [np.fft.rfft(b >> (_LIMB_BITS * i) & mask, n) for i in range(_LIMBS)]
    out = np.zeros((rows, size), dtype=np.int64)
    for s in range(2 * _LIMBS - 2, -1, -1):
        low = max(0, s - _LIMBS + 1)
        spectrum = fa[low] * fb[s - low]
        for i in range(low + 1, min(s, _LIMBS - 1) + 1):
            spectrum += fa[i] * fb[s - i]
        z = np.fft.irfft(spectrum, n)[:, :size]
        rounded = np.rint(z)
        if np.abs(z - rounded).max() > 0.25:
            raise ArithmeticError("the floating-point convolution is not within 1/4 of an integer")
        out <<= _LIMB_BITS
        out += rounded.astype(np.int64)
        out %= p
    return out


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
