"""Exact integer matrix routines: chain complex reduction, Smith normal
form (with the rank), determinant.

Everything here is over the integers with arbitrary precision, so ranks
and torsion coefficients are exact.  Matrices are sparse.
``smith_normal_form`` takes a mapping ``(row, col) -> value``, absent
entries zero.  ``reduce_chain_complex`` takes each boundary map by
column, the ``(row, coefficient)`` pairs of each cell, which it reads
straight into the per-cell maps it works on, and gives its residue
back as mappings.

Unit pivots come from one place.  ``reduce_chain_complex`` removes
pairs of cells joined by a ±1 coefficient over all degrees at once, in
one sweep from the top level down, so homology eliminates each cell
once rather than as a column of d_q and again as a row of d_{q+1}.
Smith normal form groups its entries by column and runs the same
reduction on them as a two-level complex, counts each pair as an
invariant factor 1, and eliminates the residue densely: homology hands
it residues as small as the homology allows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress
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


def _dense_diagonal(entries: Mapping[tuple[int, int], int]) -> list[int]:
    """|pivot| of each row and column that dense elimination clears."""
    rows = sorted({r for r, _ in entries})
    cols = sorted({c for _, c in entries})
    m = [[entries.get((r, c), 0) for c in cols] for r in rows]
    diag: list[int] = []
    while True:
        pivots = [(abs(v), i, j) for i, r in enumerate(m) for j, v in enumerate(r) if v]
        if not pivots:
            return diag
        # reduce the column, then the row, of an entry of least |v| mod it
        _, i, j = min(pivots)
        top = m[i]
        p = top[j]
        for k, row in enumerate(m):
            if k != i and row[j]:
                q = row[j] // p
                m[k] = [a - q * b for a, b in zip(row, top)]
        for col, v in enumerate(top):
            if col != j and v:
                q = v // p
                for row in m:
                    row[col] -= q * row[j]
        # a remainder left is smaller than |p|, so a later round takes it
        if sum(map(bool, top)) == 1 == sum(bool(row[j]) for row in m):
            diag.append(abs(p))
            del m[i]
            for row in m:
                del row[j]


def smith_normal_form(entries: Mapping[tuple[int, int], int]) -> SmithResult:
    """Invariant factors of the integer matrix with the given entries.

    Zero entries are ignored and absent ones are zero; a value that
    ``operator.index`` refuses raises ``TypeError``.  The shape is
    irrelevant beyond the support, so it is not passed.  The support's
    rows and columns are numbered densely and its entries, grouped by
    column, reduced as a two-level chain complex, each pair an
    invariant factor 1.  The residue is eliminated densely, least
    absolute value first.  Dense is enough: homology reduces its whole
    complex first, so the residue is as small as the homology allows.

    One unit pivot, then the residue [-2] by elimination:

    >>> smith_normal_form({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})
    SmithResult(rank=2, invariant_factors=(1, 2))
    >>> smith_normal_form({(0, 0): 2, (1, 1): 4})
    SmithResult(rank=2, invariant_factors=(2, 4))
    >>> smith_normal_form({(0, 0): 2, (1, 1): 3}).invariant_factors
    (1, 6)
    >>> smith_normal_form({})
    SmithResult(rank=0, invariant_factors=())
    """
    support: dict[tuple[int, int], int] = {}
    for key, v in entries.items():
        try:
            v = operator.index(v)
        except TypeError:
            raise TypeError(f"entry {key}: {v!r} is not an integer") from None
        if v:
            support[key] = v
    row_of = {r: i for i, r in enumerate(sorted({r for r, _ in support}))}
    col_of = {c: j for j, c in enumerate(sorted({c for _, c in support}))}
    columns: list[list[tuple[int, int]]] = [[] for _ in col_of]
    for (r, c), v in support.items():
        columns[col_of[c]].append((row_of[r], v))
    (n_rows, _), (_, residue) = reduce_chain_complex(
        [len(row_of), len(col_of)], [(), columns]
    )
    diag = [1] * (len(row_of) - n_rows) + _dense_diagonal(residue)

    # enforce d1 | d2 | ... with gcd/lcm exchanges; the factors are
    # positive, so that also sorts them
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return SmithResult(rank=len(diag), invariant_factors=tuple(diag))


def reduce_chain_complex(
    sizes: Sequence[int],
    boundaries: Iterable[Iterable[Iterable[tuple[int, int]]]],
) -> tuple[list[int], list[dict[tuple[int, int], int]]]:
    """A smaller chain complex with the same integral homology.

    ``sizes[q]`` counts the q-cells, and the q-th of ``boundaries``
    lists d_q by column: for each q-cell in order, its ``(row,
    coefficient)`` pairs, rows indexing the (q-1)-cells.  Repeated rows
    are summed and rows that sum to zero dropped, so a Delta-complex
    cell can be given as its faces with alternating signs.  The 0-th
    level is ignored, and levels past the last given have no boundary.
    Everything is read once, in order, so levels and listings may be
    iterators.  Returns the residue with each d_q as a sparse matrix
    ``(row, col) -> value``, cells renumbered in their old order within
    each level.

    A cell a with a face b of coefficient ±1 is a reduction pair: a and
    b go, and every other coface c of b becomes
    c - <dc, b> <da, b> da, which leaves the homology, torsion included,
    unchanged (Kaczynski-Mrozek-Slusarek 1998).  Pairing has one rule:
    the levels are swept once from the top down, each in order of
    boundary length, and each cell is paired with its unit face of
    shortest coboundary.  What is left is the residue.  Smith normal
    form is exact on any residue, and on every complex the tests and
    the benchmark build the residue is as small as the homology allows.

    A circle as one vertex and one loop, whose two ends cancel; and a
    2-cell glued to a circle of two edges, which collapses to a point:

    >>> reduce_chain_complex([1, 1], [[], [[(0, 1), (0, -1)]]])
    ([1, 1], [{}, {}])
    >>> reduce_chain_complex(
    ...     [2, 2, 1], [[], [[(0, -1), (1, 1)], [(0, -1), (1, 1)]],
    ...                 [[(0, 1), (1, -1)]]])
    ([1, 0, 0], [{}, {}, {}])
    """
    start = [0]
    for n in sizes:
        start.append(start[-1] + n)
    # one int object per cell, shared by every map that names it
    ids = list(range(start[-1]))
    bd: list[dict[int, int]] = [{} for _ in ids]
    # coboundaries are dicts used as ordered sets, which are smaller
    cobd: list[dict[int, None]] = [{} for _ in ids]
    for q, level in enumerate(boundaries):
        if not q:
            continue
        below = ids[start[q - 1] : start[q]]
        for a, listing in zip(ids[start[q] : start[q + 1]], level):
            da = bd[a]
            for r, v in listing:
                b = below[r]
                if b in da:
                    v += da[b]
                    if v:
                        da[b] = v
                    else:
                        del da[b]
                        del cobd[b][a]
                elif v:
                    da[b] = v
                    cobd[b][a] = None
    alive = [True] * len(ids)

    def pair(a: int, b: int) -> None:
        da = bd[a]
        u = da.pop(b)
        alive[a] = alive[b] = False
        cb = cobd[b]
        del cb[a]
        for c in cb:
            dc = bd[c]
            k = dc.pop(b) * u
            for f, v in da.items():
                old = dc.get(f)
                if old is None:
                    dc[f] = -k * v
                    cobd[f][c] = None
                elif old == k * v:
                    del dc[f]
                    del cobd[f][c]
                else:
                    dc[f] = old - k * v
        db = bd[b]
        for g in db:
            del cobd[g][b]
        for f in da:
            del cobd[f][a]
        ca = cobd[a]
        for c in ca:
            del bd[c][a]
        # free the dead cells' maps
        da.clear()
        db.clear()
        ca.clear()
        cb.clear()

    # each cell here lives to its turn: its cofaces' level was swept first
    for q in reversed(range(1, len(sizes))):
        span = slice(start[q], start[q + 1])
        cells = sorted(
            compress(ids[span], alive[span]), key=lambda a: len(bd[a])
        )
        for a in cells:
            # the first unit face of shortest coboundary
            face = None
            for f, v in bd[a].items():
                if v == 1 or v == -1:
                    n = len(cobd[f])
                    if face is None or n < shortest:
                        face, shortest = f, n
            if face is not None:
                pair(a, face)

    res_sizes: list[int] = []
    res_bds: list[dict[tuple[int, int], int]] = []
    local: dict[int, int] = {}
    for q in range(len(sizes)):
        span = slice(start[q], start[q + 1])
        cells = list(compress(ids[span], alive[span]))
        local.update(zip(cells, range(len(cells))))
        res_sizes.append(len(cells))
        res_bds.append(
            {(local[f], local[a]): v for a in cells for f, v in bd[a].items()}
        )
    return res_sizes, res_bds


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
