"""Exact rational matrices as read-only views of their integer records.

A RatMatrix stores its nonzero entries sparsely (one dict per row) and is
only read: by index, by its nonzero entries in order, and by equality. Its
one piece of algebra, the product `@`, has no caller in the library. The
walk operators are built as integer records `_Cleared` (`operators`): L
and the nonzero entries of L*M as arrays, with the place of each state on
the graph and the graph's cover, which together route the record, and
`_Cleared.matrix` is their RatMatrix view. Neither determinants nor traces
are taken here: the exact kernels in `polynomials` read a record, and
clear a RatMatrix handed to them into one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class RatMatrix:
    """Read-only, sparsely stored matrix with exact rational entries."""

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._rowdata == other._rowdata
        )

    # no library code multiplies matrices; `@` stays only because the
    # benchmark tracer (perfbench/tracer.py) wraps it by name at install
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

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, {self.num_nonzero()} nonzero)"


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
