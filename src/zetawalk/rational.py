"""Exact rational matrices, each held as its integer record.

A RatMatrix M stores L, the lcm of the reduced denominators of its
entries, and the nonzero entries of the integer matrix L*M as read-only
arrays sorted by (row, column). It is only read: by index, by its nonzero
entries in order, and by equality. Its one piece of algebra, the product
`@`, has no caller in the library. The walk operators of `operators` are
built straight into this form, each with the place of every state on the
graph and the graph's cover, which together route the matrix in the exact
kernels of `polynomials`; a matrix built from its entries has neither, and
the kernels take it whole. Neither determinants nor traces are taken here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np


def _integers(values: Sequence[int]) -> np.ndarray:
    """The integers as an int64 array, or as exact Python ints in an object
    array when one of them does not fit in int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class RatMatrix:
    """Read-only matrix with exact rational entries, held as L and L*M.

    `scale` is L. The nonzero entries of L*M are `_a[k]` at (`_i[k]`,
    `_j[k]`), sorted by (row, column): `_i` and `_j` are int64 arrays, and
    `_a` is int64 when every entry fits, else an object array of exact
    Python ints (`_integers`). L is the lcm of the reduced denominators, so
    two equal matrices hold the same L and the same arrays. `_states`, on
    the walk operators, says where each state sits on the graph: a (3, n)
    int64 array of its half, its origin and its terminus vertex (a vertex
    state has one vertex as both, and only the Bass companion has a second
    half). `_cover` is the graph's (d, side, fibers), or None, as its arc
    space found it (`graphs.ArcSpace.cover`). Equality ignores both.
    """

    __slots__ = ("rows", "cols", "scale", "_i", "_j", "_a", "_states", "_cover")

    def __init__(self, rows: int, cols: int, entries: Iterable[tuple[int, int, Fraction]] = ()):
        """The matrix with these (i, j, value) entries: a later value at the
        same place replaces an earlier one, and zeros are not stored. L is
        one lcm over the distinct denominators, and each entry of L*M is its
        numerator times the factor L / q of its denominator q."""
        if rows <= 0 or cols <= 0:
            raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
        last: dict[tuple[int, int], Fraction] = {}
        for i, j, value in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside {rows}x{cols} matrix")
            last[i, j] = Fraction(value)
        places = sorted(place for place, value in last.items() if value)
        ratios = [last[place].as_integer_ratio() for place in places]
        denominators = {q for _, q in ratios}
        scale = math.lcm(*denominators)
        factors = {q: scale // q for q in denominators}
        self._hold(
            rows,
            cols,
            scale,
            np.array([i for i, _ in places], dtype=np.int64),
            np.array([j for _, j in places], dtype=np.int64),
            _integers([num * factors[q] for num, q in ratios]),
        )

    @classmethod
    def _record(
        cls,
        scale: int,
        states: np.ndarray,
        cover: tuple[int, int, int] | None,
        i: np.ndarray,
        j: np.ndarray,
        a: np.ndarray,
    ) -> "RatMatrix":
        """The square matrix M on its states and cover from L = scale and
        the entries a of L*M at (i, j): the zeros dropped, the rest sorted.
        L must be the lcm of the reduced denominators of M."""
        size = states.shape[1]
        keep = a != 0
        i, j, a = i[keep], j[keep], a[keep]
        order = np.argsort(i * size + j)
        out = cls.__new__(cls)
        out._hold(size, size, scale, i[order], j[order], a[order], states, cover)
        return out

    def _hold(self, rows, cols, scale, i, j, a, states=None, cover=None) -> None:
        for array in (i, j, a, states):
            if array is not None:
                array.flags.writeable = False
        self.rows, self.cols, self.scale = rows, cols, scale
        self._i, self._j, self._a = i, j, a
        self._states, self._cover = states, cover

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        start, stop = np.searchsorted(self._i, [i, i + 1])
        k = start + np.searchsorted(self._j[start:stop], j)
        if k < stop and self._j[k] == j:
            return Fraction(int(self._a[k]), self.scale)
        return Fraction(0)

    def nonzero_items(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yield (i, j, value) sorted by (i, j); each distinct value is made
        a Fraction once."""
        values = self._a.tolist()
        fractions = {a: Fraction(a, self.scale) for a in set(values)}
        return zip(self._i.tolist(), self._j.tolist(), map(fractions.__getitem__, values))

    def num_nonzero(self) -> int:
        return len(self._a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.scale) == (other.rows, other.cols, other.scale) and all(
            np.array_equal(x, y)
            for x, y in ((self._i, other._i), (self._j, other._j), (self._a, other._a))
        )

    # no library code multiplies matrices; `@` stays only because the
    # benchmark tracer (perfbench/tracer.py) wraps it by name at install
    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # (L M)(L' M') = L L' (M M'), summed in integers
        row_of: dict[int, list[tuple[int, int]]] = {}
        for k, j, b in zip(other._i.tolist(), other._j.tolist(), other._a.tolist()):
            row_of.setdefault(k, []).append((j, b))
        sums: dict[tuple[int, int], int] = {}
        for i, k, a in zip(self._i.tolist(), self._j.tolist(), self._a.tolist()):
            for j, b in row_of.get(k, ()):
                sums[i, j] = sums.get((i, j), 0) + a * b
        scale = self.scale * other.scale
        entries = ((i, j, Fraction(s, scale)) for (i, j), s in sums.items())
        return RatMatrix(self.rows, other.cols, entries)

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, {self.num_nonzero()} nonzero)"
