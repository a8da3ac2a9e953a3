"""Exact integer matrix routines: Smith normal form, rank, determinant.

Everything here is over the integers with arbitrary precision, so ranks
and torsion coefficients are exact.  Matrices are sparse: the input is a
mapping ``(row, col) -> value`` plus a shape.  Pivots are unit entries
(±1) taken from a shortest row, found through an index of rows by
length, so picking one costs no pass over the matrix; on the
incidence-style matrices this package produces nearly every pivot is a
unit.  Only the residue with no unit entry left is searched with the
Markowitz scan (smallest absolute value, then least fill).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
class SmithResult:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    ``rank`` is r; ``invariant_factors`` lists the di in divisibility
    order, all positive.  ``torsion`` is the sublist with di > 1.
    """

    rank: int
    invariant_factors: tuple[int, ...]

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d > 1)


def _build_sparse(entries: Mapping[tuple[int, int], int]):
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if not v:
            continue
        rows.setdefault(r, {})[c] = int(v)
        cols.setdefault(c, set()).add(r)
    return rows, cols


class _LengthIndex:
    """Rows that may hold a ±1 entry, bucketed by their current length.

    Every row is filed again whenever it changes.  A row searched and
    found to hold no unit entry leaves the buckets until it changes, so
    each row is searched at most once per change.
    """

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols
        self.buckets: dict[int, set[int]] = {}
        self.length: dict[int, int] = {}
        for r in rows:
            self.file(r)

    def file(self, r: int) -> None:
        self.drop(r)
        n = len(self.rows[r])
        self.buckets.setdefault(n, set()).add(r)
        self.length[r] = n

    def drop(self, r: int) -> None:
        n = self.length.pop(r, None)
        if n is not None:
            bucket = self.buckets[n]
            bucket.discard(r)
            if not bucket:
                del self.buckets[n]

    def unit_pivot(self):
        """A ±1 entry of a shortest row, in its shortest column, or None."""
        while self.buckets:
            r = next(iter(self.buckets[min(self.buckets)]))
            units = [c for c, v in self.rows[r].items() if v == 1 or v == -1]
            if units:
                return r, min(units, key=lambda c: len(self.cols[c]))
            self.drop(r)
        return None


def _markowitz_pivot(rows, cols):
    """Entry of least (|v|, row length * column length) over the matrix."""
    best = None
    best_key = None
    for r, rowd in rows.items():
        rl = len(rowd)
        for c, v in rowd.items():
            key = (abs(v), rl * len(cols[c]))
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
    return best


def smith_normal_form(entries: Mapping[tuple[int, int], int]) -> SmithResult:
    """Invariant factors of the integer matrix with the given entries.

    Zero entries in the mapping are ignored; absent entries are zero.
    The shape is irrelevant beyond the support, so it is not passed.

    >>> smith_normal_form({(0, 0): 2, (1, 1): 4})
    SmithResult(rank=2, invariant_factors=(2, 4))
    >>> smith_normal_form({(0, 0): 2, (1, 1): 3}).invariant_factors
    (1, 6)
    >>> smith_normal_form({})
    SmithResult(rank=0, invariant_factors=())
    """
    rows, cols = _build_sparse(entries)
    index = _LengthIndex(rows, cols)
    diag: list[int] = []

    while rows:
        pivot = index.unit_pivot()
        r, c = pivot if pivot else _markowitz_pivot(rows, cols)
        while True:
            v = rows[r][c]
            # row operations: kill the rest of column c
            for r2 in list(cols[c]):
                if r2 == r:
                    continue
                v2 = rows[r2][c]
                q = v2 // v
                if q:
                    rowd = rows[r]
                    row2 = rows[r2]
                    for cc, vv in rowd.items():
                        nv = row2.get(cc, 0) - q * vv
                        if nv:
                            row2[cc] = nv
                            cols[cc].add(r2)
                        elif cc in row2:
                            del row2[cc]
                            cols[cc].discard(r2)
                    if row2:
                        index.file(r2)
                    else:
                        del rows[r2]
                        index.drop(r2)
            if len(cols[c]) > 1:
                # a remainder smaller than |v| is sitting in column c
                r = min(
                    (r2 for r2 in cols[c] if r2 != r),
                    key=lambda r2: abs(rows[r2][c]),
                )
                continue
            # column operations: reduce the rest of row r mod v; column c
            # is clean, so only row r changes
            v = rows[r][c]
            rowd = rows[r]
            for c2 in list(rowd):
                if c2 == c:
                    continue
                rem = rowd[c2] % v
                if rem:
                    rowd[c2] = rem
                else:
                    del rowd[c2]
                    cols[c2].discard(r)
            if len(rowd) == 1:
                break
            index.file(r)
            # gcd not reached yet: restart from the smallest entry
            c = min((cc for cc in rowd if cc != c), key=lambda cc: abs(rowd[cc]))
        diag.append(abs(rows[r][c]))
        del rows[r]
        index.drop(r)
        cols[c].discard(r)
        if not cols[c]:
            del cols[c]

    # enforce d1 | d2 | ... with gcd/lcm exchanges
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    diag.sort()
    return SmithResult(rank=len(diag), invariant_factors=tuple(diag))


def integer_rank(entries: Mapping[tuple[int, int], int]) -> int:
    return smith_normal_form(entries).rank


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix, fraction free.

    >>> bareiss_determinant([[2, -1], [-1, 2]])
    3
    >>> bareiss_determinant([])
    1
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matrix_entries(
    dense: Sequence[Sequence[int]],
) -> dict[tuple[int, int], int]:
    """Convert a dense row-major matrix to the sparse mapping form."""
    out = {}
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            if v:
                out[(i, j)] = int(v)
    return out
