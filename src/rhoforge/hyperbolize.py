"""Complexes over a simplex, fiber products, and hyperbolized simplices.

A complex over the n-simplex assigns each cell a carrier, the smallest
target face containing its image.  When the structure map is simplicial
the carrier data refines to injective vertex colorings; the prism stages
of the hyperbolization are the reason plain colorings are not enough,
since the interval direction collapses.

The fiber product pairs a cell with every cell of the colored factor
whose color span equals its carrier, numbering the pairs by index
arithmetic; cell structure and face maps are validated on construction,
so the classical counts (hexagon, annulus, the 288-triangle surface)
come out of the machine checked rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cap import require_cells
from .delta import (
    DeltaComplex,
    barycentric,
    boundary_simplex,
    prism,
    simplex,
)

Carriers = tuple[tuple[frozenset, ...], ...]
Colors = tuple[tuple[tuple[int, ...], ...], ...]
CellRef = tuple[int, int]


class OverSimplexError(ValueError):
    pass


@dataclass(frozen=True)
class ComplexOverSimplex:
    """A Delta-complex with a combinatorial map to the n-simplex.

    ``carriers[q][c]`` is the target face (a vertex subset of the
    simplex) carrying cell c.  ``colors[q][c]``, when present, lists the
    target vertex of each cell vertex in order; the map is then
    simplicial and nondegenerate.  Fiber products store projections to
    their two factors (``proj_left`` by same-dimension index, then
    ``proj_right`` by (dimension, index) into the colored factor).

    Construction checks both shapes, then walks the cells once, reading
    each cell's faces once for its carrier and then its colors.
    """

    complex: DeltaComplex
    target_dim: int
    carriers: Carriers
    colors: Colors | None = None
    proj_left: tuple[tuple[int, ...], ...] | None = None
    proj_right: tuple[tuple[CellRef, ...], ...] | None = None

    def __post_init__(self):
        faces = self.complex.faces
        carriers, colors = self.carriers, self.colors
        shape = list(map(len, faces))
        for name, levels in (("carrier", carriers), ("color", colors)):
            if levels is not None and list(map(len, levels)) != shape:
                raise OverSimplexError(f"{name} shape does not match cells")
        allowed = frozenset(range(self.target_dim + 1))
        for q, level in enumerate(faces):
            for c, S in enumerate(carriers[q]):
                if not S or not S <= allowed:
                    raise OverSimplexError(
                        f"carrier of {q}-cell {c} is not a target face"
                    )
                if len(S) < q + 1:
                    raise OverSimplexError(
                        f"{q}-cell {c} is crushed below its dimension"
                    )
                cell_faces = level[c]
                for f in cell_faces:
                    if not carriers[q - 1][f] <= S:
                        raise OverSimplexError(
                            f"carrier not monotone at {q}-cell {c}"
                        )
                if colors is None:
                    continue
                cols = colors[q][c]
                if len(cols) != q + 1 or len(set(cols)) != q + 1:
                    raise OverSimplexError(
                        f"coloring of {q}-cell {c} is not injective"
                    )
                if frozenset(cols) != S:
                    raise OverSimplexError(
                        f"colors of {q}-cell {c} do not span its carrier"
                    )
                for i, f in enumerate(cell_faces):
                    if colors[q - 1][f] != cols[:i] + cols[i + 1 :]:
                        raise OverSimplexError(
                            f"colors not face-compatible at {q}-cell {c}"
                        )


def colored_over(K: DeltaComplex, colors) -> ComplexOverSimplex:
    """Structure map from explicit vertex colors; carriers are derived."""
    colors = tuple(tuple(tuple(c) for c in level) for level in colors)
    target = max(
        (v for level in colors for cell in level for v in cell), default=0
    )
    carriers = tuple(
        tuple(frozenset(cell) for cell in level) for level in colors
    )
    return ComplexOverSimplex(K, target, carriers, colors)


def simplex_over_itself(n: int) -> ComplexOverSimplex:
    """The identity structure on the n-simplex, the fiber-product unit;
    each cell's tag, its vertex subset, is its colors."""
    K = simplex(n)
    return colored_over(K, K.tags)


def degree_structure(K: DeltaComplex) -> ComplexOverSimplex:
    """Barycentric subdivision of K over the dim(K)-simplex.

    Each subdivision vertex is the barycenter of a cell and is colored
    by that cell's dimension; flags have strictly increasing dimensions,
    so the coloring is injective on every cell.
    """
    if K.dim < 0:
        raise OverSimplexError("degree structure needs a nonempty complex")
    B = barycentric(K)
    colors = [
        [[len(s) - 1 for s in flag] for *_, flag in level] for level in B.tags
    ]
    return colored_over(B, colors)


def colored_face(
    L: ComplexOverSimplex, q: int, c: int, keep: frozenset
) -> CellRef:
    """The face of a colored cell spanned by the colors in ``keep``."""
    colors = L.colors[q][c]
    return L.complex.iterated_face(
        q, c, [j for j, v in enumerate(colors) if v in keep]
    )


def fiber_product(
    X: ComplexOverSimplex, L: ComplexOverSimplex, what: str = "fiber product"
) -> ComplexOverSimplex:
    """Fiber product over the common target simplex.

    A q-cell of X with carrier S pairs with every L-cell whose color
    span is exactly S; the pair is a copy of the X-cell, and its i-th
    face pairs the i-th face of the X half with the L-face spanned by
    the smaller carrier.  L must be colored; X need not be.  ``what``
    names the result in a cell-cap error, raised before any face is
    computed.

    The pairs over one X-cell form a block, in the order of the L-cells
    of span S, so a pair's index is the block start of its X-cell plus
    the position of its L-cell among those of span S.  Face i of every
    pair over sigma lies in the block of face i of sigma; the position
    there of each L-face is looked up once per L-cell and kept carrier,
    through ``colored_face``.
    """
    if X.target_dim != L.target_dim:
        raise OverSimplexError("factors live over different simplices")
    if L.colors is None:
        raise OverSimplexError("right factor must be colored")
    by_span: dict[frozenset, list[int]] = {}
    position: list[list[int]] = []  # an L-cell's place among its span's
    for spans in L.carriers:
        level = []
        for c, S in enumerate(spans):
            span = by_span.setdefault(S, [])
            level.append(len(span))
            span.append(c)
        position.append(level)

    x_faces = X.complex.faces
    dims = len(x_faces)
    cells: list[list[tuple[int, CellRef]]] = [[] for _ in range(dims)]
    starts: list[list[int]] = []
    for q in range(dims):
        start = [0]
        for sigma, S in enumerate(X.carriers[q]):
            cells[q].extend((sigma, (len(S) - 1, tau)) for tau in by_span.get(S, ()))
            start.append(len(cells[q]))
        starts.append(start)
    require_cells(sum(map(len, cells)), what)

    moved: dict[tuple[frozenset, frozenset], np.ndarray] = {}
    faces = []
    for q in range(1, dims):
        out = np.empty((len(cells[q]), q + 1), dtype=np.int64)
        for sigma, cell in enumerate(x_faces[q]):
            S = X.carriers[q][sigma]
            if S not in by_span:
                continue
            rows = slice(starts[q][sigma], starts[q][sigma + 1])
            for i, fs in enumerate(cell):
                keep = X.carriers[q - 1][fs]
                if (S, keep) not in moved:
                    refs = [colored_face(L, len(S) - 1, t, keep) for t in by_span[S]]
                    moved[S, keep] = np.array([position[r][c] for r, c in refs])
                out[rows, i] = starts[q - 1][fs] + moved[S, keep]
        faces.append(out)
    F = DeltaComplex(len(cells[0]), faces)
    carriers = tuple(
        tuple(X.carriers[q][sigma] for sigma, _ in cells[q])
        for q in range(dims)
    )
    colors = None
    if X.colors is not None:
        colors = tuple(
            tuple(X.colors[q][sigma] for sigma, _ in cells[q])
            for q in range(dims)
        )
    return ComplexOverSimplex(
        F,
        X.target_dim,
        carriers,
        colors,
        proj_left=tuple(
            tuple(sigma for sigma, _ in cells[q]) for q in range(dims)
        ),
        proj_right=tuple(
            tuple(tau for _, tau in cells[q]) for q in range(dims)
        ),
    )


def williams(
    X: ComplexOverSimplex, K: DeltaComplex, what: str = "fiber product"
) -> ComplexOverSimplex:
    """Fiber product of X with the degree structure of K."""
    if K.dim != X.target_dim:
        raise OverSimplexError(
            f"complex of dimension {K.dim} cannot pair with a structure "
            f"over the {X.target_dim}-simplex"
        )
    return fiber_product(X, degree_structure(K), what)


# -- the hyperbolization tower ----------------------------------------


@dataclass(frozen=True)
class Hyperbolization:
    """One stage X^n; n is ``complex.dim``.

    ``over`` is the over-simplex structure needed to build the next
    sphere; it is present for n in {1, 2} and None for n = 3, where the
    construction stops because no further structure recipe is on record.
    """

    complex: DeltaComplex
    over: ComplexOverSimplex | None


def _anchor_subset(base: DeltaComplex, sub: DeltaComplex, ref: CellRef):
    """Vertex subset of the base cell anchoring a subdivision cell."""
    q, c = ref
    tag = sub.tags[q][c]
    _, aq, ac, _ = tag
    return frozenset(base.tags[aq][ac])


def _prism_structure(
    Y: ComplexOverSimplex, base: DeltaComplex, sub: DeltaComplex, what: str
) -> ComplexOverSimplex:
    """Prism over a sphere stage, over the next simplex up.

    ``sub`` is the barycentric subdivision of ``base`` that Y was
    fibered with.  End-layer cells inherit the carrier of the
    base-complex face their projection is anchored at; every cell
    touching the interior of the interval is carried by the whole
    simplex.
    """
    P = prism(Y.complex, what)
    target = Y.target_dim + 1
    full = frozenset(range(target + 1))
    carriers = []
    for q in range(len(P.faces)):
        level = []
        for c in range(P.n_cells(q)):
            _, bq, bc, chain = P.tags[q][c]
            levels = {l for _, l in chain}
            if len(levels) == 1:
                ref = Y.proj_right[bq][bc]
                level.append(_anchor_subset(base, sub, ref))
            else:
                level.append(full)
        carriers.append(tuple(level))
    return ComplexOverSimplex(P, target, tuple(carriers))


def hyperbolized_simplex(n: int) -> Hyperbolization:
    """X^n for n in {1, 2, 3}: interval, annulus, then prism over the
    288-triangle surface.  Each prism stage is the product of the
    previous hyperbolized sphere with an interval."""
    if n not in (1, 2, 3):
        raise OverSimplexError("only dimensions 1 through 3 are constructed")
    over: ComplexOverSimplex | None = simplex_over_itself(1)
    K = over.complex
    for m in range(1, n):
        base = boundary_simplex(m + 1)
        L = degree_structure(base)
        Y = fiber_product(over, L, f"hyperbolized Y{m} sphere")
        stage = f"hyperbolized X{m + 1} stage"
        if m + 1 == 3:
            K = prism(Y.complex, stage)
            over = None
        else:
            over = _prism_structure(Y, base, L.complex, stage)
            K = over.complex
    return Hyperbolization(K, over)


def hyperbolized_sphere(
    n: int, stage: Hyperbolization | None = None
) -> ComplexOverSimplex:
    """Y^n = X^n fibered with the boundary of the next simplex (n ≤ 2).

    ``stage`` is X^n when the caller has it already; it is built here
    otherwise.
    """
    if n not in (1, 2):
        raise OverSimplexError(
            "spheres stop at n = 2: no over-simplex structure is on "
            "record for X^3"
        )
    if stage is None:
        stage = hyperbolized_simplex(n)
    elif stage.complex.dim != n:
        raise OverSimplexError(
            f"Y^{n} needs the stage X^{n}, not X^{stage.complex.dim}"
        )
    return williams(
        stage.over, boundary_simplex(n + 1), f"hyperbolized Y{n} sphere"
    )


# -- counting ---------------------------------------------------------


def z_formula(n: int) -> int:
    """n! (n-1)!^2 ... (3!)^2 2!, the literal top-count pattern.

    Below n = 4 the pattern degenerates: z(3) = 3!·2!, z(2) = 2!.
    """
    if n < 2:
        raise OverSimplexError("the pattern starts at n = 2")
    if n == 2:
        return 2
    out = math.factorial(n) * 2
    for j in range(3, n):
        out *= math.factorial(j) ** 2
    return out


def construction_count(n: int) -> int:
    """Top cells of X^n by the exact recursion of the build:
    count(Y^m) = count(X^m)·(m+2)! and count(X^{m+1}) = count(Y^m)·(m+1)."""
    if n < 1:
        raise OverSimplexError("n must be >= 1")
    count = 1
    for m in range(1, n):
        count = count * math.factorial(m + 2) * (m + 1)
    return count


def z_comparison_table() -> list[dict]:
    """Side-by-side of the formula and the construction, n = 2..4, with ratios.

    The two disagree below the formula's stable range; the table is
    reported, never asserted (counts for n ≤ 3 are also verified against
    the built complexes elsewhere).
    """
    rows = []
    for n in range(2, 5):
        z = z_formula(n)
        c = construction_count(n)
        rows.append(
            {
                "n": n,
                "z_formula": z,
                "construction": c,
                "ratio": Fraction(c, z),
                "built": n <= 3,
            }
        )
    return rows


def relhyp_count(k: int, delta_m: int) -> int:
    """4k-simplices of the relative hyperbolization, 2·z(4k)·(4k+1)!·ΔM."""
    if k < 1:
        raise OverSimplexError("k must be >= 1")
    return 2 * z_formula(4 * k) * math.factorial(4 * k + 1) * delta_m


def thm12_constant(k: int) -> int:
    """(2/(2k+1))·C(4k+1, 2k+1)·2·z(4k)·(4k+1)!, exactly an integer."""
    if k < 1:
        raise OverSimplexError("k must be >= 1")
    value = (
        Fraction(2, 2 * k + 1)
        * math.comb(4 * k + 1, 2 * k + 1)
        * 2
        * z_formula(4 * k)
        * math.factorial(4 * k + 1)
    )
    assert value.denominator == 1
    return int(value)
