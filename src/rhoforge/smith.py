"""Exact integer matrix routines: chain complex reduction, Smith normal
form (with the rank), determinant.

Everything here is over the integers with arbitrary precision, so ranks
and torsion coefficients are exact.  Matrices are sparse: a mapping
``(row, col) -> value``, absent entries zero.

Unit pivots come from one place.  ``reduce_chain_complex`` removes
pairs of cells joined by a ±1 coefficient over all degrees at once, so
homology eliminates each cell once rather than as a column of d_q and
again as a row of d_{q+1}.  Smith normal form runs the same reduction on
its matrix as a two-level complex, counts each pair as an invariant
factor 1, and eliminates the residue with the Markowitz pivot (smallest
absolute value, then least fill), which still takes a ±1 entry first
when elimination creates one.
"""

from __future__ import annotations

import math
from collections import deque
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
    """Row dicts and column sets of a matrix with no zero entries."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    return rows, cols


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
    Rows and columns of the support are numbered densely and reduced as
    a two-level chain complex; each reduction pair is a unit pivot, so
    an invariant factor 1.  The residue is eliminated with the Markowitz
    pivot, the entry of least absolute value and then least fill, so a
    unit the reduction left or a gcd step made still goes first.

    One unit pivot, then the residue [-2] by the scan:

    >>> smith_normal_form({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})
    SmithResult(rank=2, invariant_factors=(1, 2))
    >>> smith_normal_form({(0, 0): 2, (1, 1): 4})
    SmithResult(rank=2, invariant_factors=(2, 4))
    >>> smith_normal_form({(0, 0): 2, (1, 1): 3}).invariant_factors
    (1, 6)
    >>> smith_normal_form({})
    SmithResult(rank=0, invariant_factors=())
    """
    support = {key: int(v) for key, v in entries.items() if v}
    row_of = {r: i for i, r in enumerate(sorted({r for r, _ in support}))}
    col_of = {c: j for j, c in enumerate(sorted({c for _, c in support}))}
    (n_rows, _), (_, residue) = reduce_chain_complex(
        [len(row_of), len(col_of)],
        [{}, {(row_of[r], col_of[c]): v for (r, c), v in support.items()}],
    )
    diag = [1] * (len(row_of) - n_rows)
    rows, cols = _build_sparse(residue)

    while rows:
        r, c = _markowitz_pivot(rows, cols)
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
                    if not row2:
                        del rows[r2]
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
            # gcd not reached yet: restart from the smallest entry
            c = min((cc for cc in rowd if cc != c), key=lambda cc: abs(rowd[cc]))
        diag.append(abs(rows[r][c]))
        del rows[r]
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


def reduce_chain_complex(
    sizes: Sequence[int],
    boundaries: Iterable[Mapping[tuple[int, int], int]],
) -> tuple[list[int], list[dict[tuple[int, int], int]]]:
    """A smaller chain complex with the same integral homology.

    ``sizes[q]`` counts the q-cells and the q-th of ``boundaries``
    holds d_q, rows indexed by (q-1)-cells and columns by q-cells; the
    0-th is ignored.  Each is read once, in order, so they may come
    from a generator.  Returns the residue in the same form,
    cells renumbered in their old order within each level.

    A cell a with a face b of coefficient ±1 is a reduction pair: a and
    b go, and every other coface c of b becomes
    c - <dc, b> <da, b> da, which leaves the homology, torsion included,
    unchanged (Kaczynski-Mrozek-Slusarek 1998).  Two kinds cost no fill
    and are drained first from queues: coreductions, where da = ±b
    (Mrozek-Batko 2009), and free faces, where a is the only coface of
    b.  When both queues are empty, the levels are swept once from the
    top down, each in order of boundary length, pairing a cell with its
    unit face of shortest coboundary and draining the queues after each
    pair.  What is left is the residue.  Smith normal form is exact on
    any residue, and on every complex the tests and the benchmark build
    the residue is as small as the homology allows.

    A circle as one vertex and one loop, and a 2-cell glued to a circle
    of two edges, which collapses to a point:

    >>> reduce_chain_complex([1, 1], [{}, {}])
    ([1, 1], [{}, {}])
    >>> reduce_chain_complex(
    ...     [2, 2, 1], [{}, {(0, 0): -1, (1, 0): 1, (0, 1): -1, (1, 1): 1},
    ...                 {(0, 0): 1, (1, 0): -1}])
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
    for q, entries in enumerate(boundaries):
        if not q:
            continue
        lo, hi = start[q - 1], start[q]
        for (r, c), v in entries.items():
            if v:
                a, b = ids[hi + c], ids[lo + r]
                bd[a][b] = v
                cobd[b][a] = None
        del entries  # freed before the next matrix is built
    alive = [True] * len(ids)
    # candidates by length only; the unit coefficient is checked on pop
    coreducible = deque(a for a, da in enumerate(bd) if len(da) == 1)
    free = deque(b for b, cb in enumerate(cobd) if len(cb) == 1)

    def pair(a: int, b: int) -> None:
        da = bd[a]
        u = da.pop(b)
        alive[a] = alive[b] = False
        for c in cobd[b]:
            if c == a:
                continue
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
            if len(dc) == 1:
                coreducible.append(c)
        for g in bd[b]:
            cg = cobd[g]
            del cg[b]
            if len(cg) == 1:
                free.append(g)
        for f in da:
            cf = cobd[f]
            del cf[a]
            if len(cf) == 1:
                free.append(f)
        for c in cobd[a]:
            dc = bd[c]
            del dc[a]
            if len(dc) == 1:
                coreducible.append(c)
        # a dead cell has no boundary and no coboundary, so it is never
        # taken from a queue again
        for cells in (da, bd[b], cobd[a], cobd[b]):
            cells.clear()

    def drain() -> None:
        while coreducible or free:
            if coreducible:
                a = coreducible.popleft()
                da = bd[a]
                if len(da) == 1:
                    ((b, v),) = da.items()
                    if v == 1 or v == -1:
                        pair(a, b)
            else:
                b = free.popleft()
                if len(cobd[b]) == 1:
                    (a,) = cobd[b]
                    v = bd[a][b]
                    if v == 1 or v == -1:
                        pair(a, b)

    drain()
    for q in reversed(range(1, len(sizes))):
        cells = sorted(
            (a for a in range(start[q], start[q + 1]) if alive[a]),
            key=lambda a: len(bd[a]),
        )
        for a in cells:
            if not alive[a]:
                continue
            units = [f for f, v in bd[a].items() if v == 1 or v == -1]
            if units:
                pair(a, min(units, key=lambda f: len(cobd[f])))
                drain()

    res_sizes: list[int] = []
    res_bds: list[dict[tuple[int, int], int]] = []
    local: dict[int, int] = {}
    for q in range(len(sizes)):
        cells = [a for a in range(start[q], start[q + 1]) if alive[a]]
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
