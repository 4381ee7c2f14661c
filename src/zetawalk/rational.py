"""Exact matrices over big rationals, and their integer records.

Matrices are stored sparsely (one dict of nonzero entries per row) and are
immutable by convention: all operations return new matrices. Neither
determinants nor traces are taken here: the exact kernels in `polynomials`
work on a matrix M cleared to integers, the record `_Cleared` of L and the
nonzero entries of L*M as arrays. The walk operators are built as such
records (`operators`), each with the place of its states on the graph and
the graph's cover, which together route it, and `_Cleared.matrix` is their
RatMatrix view. The product `@` stays as the tests' oracle for operator
assembly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class RatMatrix:
    """Dense-shaped, sparsely stored matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_rowdata")

    def __init__(self, rows: int, cols: int, entries: Iterable[tuple[int, int, Fraction]] = ()):
        if rows <= 0 or cols <= 0:
            raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._rowdata: list[dict[int, Fraction]] = [{} for _ in range(rows)]
        for i, j, value in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside {rows}x{cols} matrix")
            value = Fraction(value)
            if value:
                self._rowdata[i][j] = value
            else:
                self._rowdata[i].pop(j, None)

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RatMatrix":
        rows = len(data)
        cols = len(data[0])
        m = cls(rows, cols)
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            rd = m._rowdata[i]
            for j, value in enumerate(row):
                value = Fraction(value)
                if value:
                    rd[j] = value
        return m

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        m = cls(n, n)
        one = Fraction(1)
        for i in range(n):
            m._rowdata[i][i] = one
        return m

    @classmethod
    def diagonal(cls, values: Sequence) -> "RatMatrix":
        n = len(values)
        m = cls(n, n)
        for i, value in enumerate(values):
            value = Fraction(value)
            if value:
                m._rowdata[i][i] = value
        return m

    # -- access ---------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self._rowdata[i].get(j, Fraction(0))

    def nonzero_items(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yield (i, j, value) sorted by (i, j)."""
        for i, rd in enumerate(self._rowdata):
            for j in sorted(rd):
                yield i, j, rd[j]

    def num_nonzero(self) -> int:
        return sum(len(rd) for rd in self._rowdata)

    # -- algebra --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._rowdata == other._rowdata
        )

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        out = RatMatrix(self.rows, self.cols)
        for i in range(self.rows):
            rd = dict(self._rowdata[i])
            for j, value in other._rowdata[i].items():
                s = rd.get(j, Fraction(0)) + value
                if s:
                    rd[j] = s
                else:
                    rd.pop(j, None)
            out._rowdata[i] = rd
        return out

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (other * Fraction(-1))

    def __neg__(self) -> "RatMatrix":
        return self * Fraction(-1)

    def __mul__(self, scalar) -> "RatMatrix":
        scalar = Fraction(scalar)
        out = RatMatrix(self.rows, self.cols)
        if scalar:
            for i, rd in enumerate(self._rowdata):
                out._rowdata[i] = {j: value * scalar for j, value in rd.items()}
        return out

    __rmul__ = __mul__

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = RatMatrix(self.rows, other.cols)
        for i, rd in enumerate(self._rowdata):
            acc: dict[int, Fraction] = {}
            for k, value in rd.items():
                for j, w in other._rowdata[k].items():
                    prod = value * w
                    s = acc.get(j)
                    acc[j] = prod if s is None else s + prod
            out._rowdata[i] = {j: value for j, value in acc.items() if value}
        return out

    def transpose(self) -> "RatMatrix":
        out = RatMatrix(self.cols, self.rows)
        for i, rd in enumerate(self._rowdata):
            for j, value in rd.items():
                out._rowdata[j][i] = value
        return out

    def row_sums(self) -> list[Fraction]:
        return [sum(rd.values(), Fraction(0)) for rd in self._rowdata]

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        for i, rd in enumerate(self._rowdata):
            for j, value in rd.items():
                if self._rowdata[j].get(i, Fraction(0)) != value:
                    return False
        return True

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, {self.num_nonzero()} nonzero)"

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def positive_support(matrix: RatMatrix) -> RatMatrix:
    """0/1 matrix marking the strictly positive entries of ``matrix``."""
    out = RatMatrix(matrix.rows, matrix.cols)
    one = Fraction(1)
    # a Fraction's sign is its numerator's, read without a Fraction comparison
    for i, rd in enumerate(matrix._rowdata):
        out._rowdata[i] = {j: one for j, value in rd.items() if value.numerator > 0}
    return out


def _integers(values: Sequence[int]) -> np.ndarray:
    """The integers as an int64 array, or as exact Python ints in an object
    array when one of them does not fit in int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class _Cleared(NamedTuple):
    """A square rational matrix M as the integer matrix A = L*M.

    `scale` is L, the lcm of the reduced denominators of the entries of M,
    and `size` is n. The nonzero entries of A are `values[k]` at
    (`rows[k]`, `cols[k]`), sorted by (row, column): rows and cols are int64
    arrays, and values is int64 when every entry fits, else an object array
    of exact Python ints (`_integers`). `states`, on the records of the
    walk operators, says where each of the n states sits on the graph: a
    (3, n) int64 array of its half, its origin and its terminus vertex (a
    vertex state has one vertex as both, and only the Bass companion has a
    second half). `cover` is the graph's (d, side, fibers), or None, as its
    arc space found it (`graphs.ArcSpace.cover`). A record made from a bare
    matrix has neither.
    """

    scale: int
    size: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    states: np.ndarray | None = None
    cover: tuple[int, int, int] | None = None

    def entries(self) -> list[tuple[int, int, int]]:
        """The nonzero entries of A as (i, j, integer), sorted by (i, j)."""
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist()))

    def matrix(self) -> RatMatrix:
        """M as a RatMatrix, its entries Fraction(a, L); each distinct value
        of A is made a Fraction once."""
        entries = self.entries()
        fractions = {a: Fraction(a, self.scale) for a in {a for _, _, a in entries}}
        out = RatMatrix(self.size, self.size)
        for i, j, a in entries:
            out._rowdata[i][j] = fractions[a]
        return out
