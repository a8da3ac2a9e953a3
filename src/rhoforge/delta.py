"""Delta-complexes: ordered cells with face maps, and the standard zoo.

Cells of dimension q carry q+1 ordered references to (q-1)-cells,
repeats allowed; the simplicial identities are checked on construction,
a level at a time as array comparisons, so every complex produced by
the builders here (joins, cones, prisms, barycentric subdivisions, free
quotients) is verified as it is built.  A level may be given as face
tuples or as an integer array of shape (n, q+1), which is checked as it
is and copied.  The int64 array the check makes of each level is the one
face table a complex stores, read-only; the face tuples of ``faces`` are
a view of it, built on first read.  The subset, join and subdivision
builders list their cells as keys with a face rule on keys, and
``keyed_complex`` numbers them; ``prism`` applies its face rule to whole
blocks of cells by index arithmetic instead and hands its arrays over,
as ``lens_complex`` and the fiber product of ``hyperbolize`` do.
Integral homology runs through unit reductions of the whole chain
complex, which reads a level's face array when its top-down sweep
reaches it, and Smith normal form of the residue; the combinatorial
torsion runs through the log pseudo-determinants of the boundary Gram
matrices, which give the Laplacian ones.  The Gram matrices are summed
from the face arrays, with no dense boundary built; the dense boundary
and ``laplacian`` stay as the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .cap import require_cells
from .smith import reduce_chain_complex, smith_normal_form

if TYPE_CHECKING:
    from .groups import FiniteAbelianGroup, GroupElement

Face = tuple[int, ...]


class DeltaComplexError(ValueError):
    pass


def _refuse_unlisted(q: int, level: object) -> None:
    """Raise naming level q of ``faces``, or its first cell, if either is
    not a list; called only once reading the level as lists has failed."""
    try:
        len(level)
        cells = list(level)
    except TypeError:
        raise DeltaComplexError(
            f"level {q} of faces is {level!r}, not a list of {q}-cells"
        ) from None
    for c, cell in enumerate(cells):
        try:
            iter(cell)
        except TypeError:
            raise DeltaComplexError(
                f"{q}-cell {c} is {cell!r}, not a list of faces"
            ) from None


def _check_level(
    q: int, level: Sequence[Sequence[int]] | np.ndarray, below: int
) -> np.ndarray:
    """The cells of a level as an int64 array ``(n, q+1)`` of its own.

    Each q-cell has q+1 faces, ints in range(below), the (q-1)-cells.
    An integer ndarray level is checked as it is, with numpy, and copied,
    so the caller's later writes do not reach the complex; any other
    level is checked through its tuples.  Only when the level fails is it
    scanned a cell at a time, as lists of Python scalars, for the first
    bad cell to name.
    """
    if isinstance(level, np.ndarray):
        if (
            level.dtype.kind in "iu"
            and level.ndim == 2
            and level.shape[1] == q + 1
            and (not level.size or 0 <= level.min() and level.max() < below)
        ):
            return level.astype(np.int64)
        level = level.tolist()
    try:
        cells = tuple(map(tuple, level))
    except TypeError:
        _refuse_unlisted(q, level)
        raise
    flat = list(chain.from_iterable(cells))
    if not (
        set(map(len, cells)) <= {q + 1}
        and set(map(type, flat)) <= {int}
        and (not flat or 0 <= min(flat) and max(flat) < below)
    ):
        for c, cell in enumerate(cells):
            if len(cell) != q + 1:
                raise DeltaComplexError(
                    f"{q}-cell {c} has {len(cell)} faces, wants {q + 1}"
                )
            if any(type(f) is not int or not 0 <= f < below for f in cell):
                raise DeltaComplexError(
                    f"{q}-cell {c} faces {cell!r} are not {q - 1}-cells"
                )
    return np.array(flat, dtype=np.int64).reshape(-1, q + 1)


def _check_simplicial(arrays: Sequence[np.ndarray]) -> None:
    """d_i d_j = d_{j-1} d_i for i < j, one array comparison a level.

    ``arrays[q - 1]`` holds the q-cells.  Pairs run j-major, as a
    per-cell loop over j then i would meet them, so the first failing
    cell and pair are the ones named.
    """
    for q, (lower, cells) in enumerate(zip(arrays, arrays[1:]), 2):
        j, i = np.array([(j, i) for j in range(1, q + 1) for i in range(j)]).T
        bad = lower[cells[:, j], i] != lower[cells[:, i], j - 1]
        if bad.any():
            c, pair = divmod(int(bad.argmax()), len(j))
            raise DeltaComplexError(
                f"simplicial identity fails at {q}-cell {c}, "
                f"faces ({i[pair]}, {j[pair]})"
            )


def _signed_faces(level: np.ndarray, signs: tuple[int, ...]):
    """Each cell of a face array as its faces with alternating signs; the
    array's ``tolist()`` runs at the first read, and its lists go with
    the last."""
    yield from map(zip, level.tolist(), repeat(signs))


class DeltaComplex:
    """Immutable Delta-complex.

    ``faces[q][c]`` is the ordered face tuple of q-cell c (empty for
    vertices), of ints.  ``tags[q][c]`` is an optional provenance token
    attached by the builders; tags never affect equality of structure,
    they only let later constructions find cells again.  A level of
    ``faces`` may also be an integer array of shape (n, q+1), as the
    array builders make; it is checked as it is.  Either way the complex
    stores one table per level, the int64 array the check builds,
    read-only, as ``_face_arrays[q]`` (shape (n, q+1), and (n, 0) for
    the vertices); counts, homology, torsion, JSON and ``prism`` read
    it.  ``faces`` is a view of those arrays as tuples of int tuples,
    built on its first read and kept.  Construction counts the cells
    against the cell cap before it checks them.
    """

    __slots__ = ("tags", "_face_arrays", "_faces", "_log_pdets")

    def __init__(
        self,
        vertices: int,
        faces: Sequence[Sequence[Sequence[int]] | np.ndarray] = (),
        tags: Sequence[Sequence[object]] | None = None,
    ):
        if type(vertices) is not int or vertices < 0:
            raise DeltaComplexError(f"vertex count {vertices!r} is not an int >= 0")
        try:
            levels = list(faces)  # read once: ``faces`` may be an iterator
        except TypeError:
            raise DeltaComplexError(
                f"faces {faces!r} is not a list of levels"
            ) from None
        try:
            count = sum(map(len, levels))
        except TypeError:
            for q, level in enumerate(levels, 1):
                _refuse_unlisted(q, level)
            raise
        require_cells(vertices + count, "Delta-complex")
        arrays = [np.empty((vertices, 0), dtype=np.int64)]
        for q, level in enumerate(levels, 1):
            arrays.append(_check_level(q, level, len(arrays[q - 1])))
        while len(arrays) > 1 and not len(arrays[-1]):
            arrays.pop()
        sizes = list(map(len, arrays))
        if tags is None:
            self.tags = tuple((None,) * n for n in sizes)
        else:
            norm = [tuple(level) for level in tags]
            norm.extend((None,) * n for n in sizes[len(norm) :])
            if list(map(len, norm[: len(sizes)])) != sizes:
                raise DeltaComplexError("tag shape does not match cells")
            self.tags = tuple(norm[: len(sizes)])
        _check_simplicial(arrays[1:])
        for array in arrays:
            array.flags.writeable = False
        self._face_arrays = tuple(arrays)
        self._faces: tuple[tuple[Face, ...], ...] | None = None
        self._log_pdets: dict[int, float] = {}

    @property
    def faces(self) -> tuple[tuple[Face, ...], ...]:
        """The face arrays as tuples of int tuples, built once, on first read."""
        if self._faces is None:
            self._faces = tuple(
                tuple(map(tuple, array.tolist())) for array in self._face_arrays
            )
        return self._faces

    # -- bookkeeping --------------------------------------------------

    @property
    def dim(self) -> int:
        if len(self._face_arrays) == 1 and not len(self._face_arrays[0]):
            return -1
        return len(self._face_arrays) - 1

    def n_cells(self, q: int) -> int:
        if 0 <= q < len(self._face_arrays):
            return len(self._face_arrays[q])
        return 0

    def f_vector(self) -> tuple[int, ...]:
        if self.dim < 0:
            return ()
        return tuple(map(len, self._face_arrays))

    def euler(self) -> int:
        return sum(
            (-1) ** q * n for q, n in enumerate(self.f_vector())
        )

    def total_cells(self) -> int:
        return sum(self.f_vector())

    def iterated_face(self, q: int, c: int, keep: Sequence[int]) -> tuple[int, int]:
        """The face of a q-cell spanned by the vertex positions ``keep``.

        Positions not kept are dropped highest first, so earlier drops
        never shift the remaining indices.  Returns (dimension, cell).
        """
        keep = set(keep)
        if not keep or not keep.issubset(range(q + 1)):
            raise DeltaComplexError("keep must be a nonempty subset of vertices")
        faces = self.faces
        cur_q, cur = q, c
        for t in range(q, -1, -1):
            if t not in keep:
                cur = faces[cur_q][cur][t]
                cur_q -= 1
        return cur_q, cur

    # -- homology -----------------------------------------------------

    def boundary_matrix(self, q: int) -> dict[tuple[int, int], int]:
        """Sparse integer matrix of the q-th boundary map, rows indexed
        by (q-1)-cells, columns by q-cells."""
        entries: dict[tuple[int, int], int] = {}
        if not 1 <= q < len(self._face_arrays):
            return entries
        for c, cell in enumerate(self.faces[q]):
            sign = 1
            for f in cell:
                key = (f, c)
                v = entries.get(key, 0) + sign
                if v:
                    entries[key] = v
                else:
                    del entries[key]
                sign = -sign
        return entries

    def homology(self) -> "HomologySummary":
        """Betti numbers and torsion by reduction, then elimination.

        The chain complex, augmented by one (-1)-cell under every
        vertex, is cut down by unit reductions over all degrees at
        once, so each cell is eliminated once rather than as a column
        of d_q and again as a row of d_{q+1}.  The reduction reads each
        cell's faces with alternating signs straight from the face
        arrays; a level's ``tolist()`` runs when the top-down sweep
        reaches it, so one level's lists are alive at a time, and the
        faces of a cell paired from above are never read.  No boundary
        matrix and no ``faces`` view is built.  Smith normal form then
        runs once per degree on the residue; the augmentation makes the
        residue's b_0 the reduced one, so 1 is added back.
        """
        if self.dim < 0:
            return HomologySummary((), ())
        sizes = [1, *self.f_vector(), 0]
        # alternating signs, enough for the widest cell
        signs = (1, -1) * (self.dim // 2 + 1)
        boundaries = [
            (),
            [((0, 1),)] * self.n_cells(0),
            *(_signed_faces(level, signs) for level in self._face_arrays[1:]),
        ]
        sizes, boundaries = reduce_chain_complex(sizes, boundaries)
        snf = [smith_normal_form(m) for m in boundaries[1:]]
        degrees = range(self.dim + 1)
        betti = tuple(
            sizes[q + 1] - snf[q].rank - snf[q + 1].rank + (q == 0)
            for q in degrees
        )
        return HomologySummary(betti, tuple(snf[q + 1].torsion for q in degrees))

    # -- combinatorial torsion ---------------------------------------

    def _dense_boundary(self, q: int) -> np.ndarray:
        mat = np.zeros((self.n_cells(q - 1), self.n_cells(q)))
        if 1 <= q < len(self._face_arrays):
            rows = self._face_arrays[q]
            cols = np.arange(len(rows))[:, None]
            np.add.at(mat, (rows, cols), (-1.0) ** np.arange(q + 1))
        return mat

    def laplacian(self, q: int) -> np.ndarray:
        down = self._dense_boundary(q)
        up = self._dense_boundary(q + 1)
        n = self.n_cells(q)
        lap = np.zeros((n, n))
        if up.size:
            lap += up @ up.T
        if down.size:
            lap += down.T @ down
        return lap

    def _boundary_gram(self, q: int) -> np.ndarray:
        """The smaller of d_q d_q^T and d_q^T d_q, summed from the face array.

        The i-th face of a q-cell enters d_q with sign (-1)^i.  An entry
        of d_q d_q^T sums s_i s_j over the (q+1)^2 face pairs (i, j) of
        every q-cell, at the two faces.  An entry of d_q^T d_q sums it
        over the pairs of incidences that share a (q-1)-cell, at the two
        q-cells; a stable argsort of the face column groups them.  One
        ``np.bincount`` sums either.  The entries are small integers,
        exact in float64, so the matrix is the dense product of
        ``_dense_boundary`` bit for bit, with no m x n boundary laid out
        and no matrix product run.  Its size^2 entries count against the
        cell cap before anything is allocated.
        """
        rows, cols = self.n_cells(q - 1), self.n_cells(q)
        size = min(rows, cols)
        require_cells(size * size, f"{size} x {size} Gram matrix of d_{q}")
        if not size:
            return np.zeros((size, size))
        faces = self._face_arrays[q]
        signs = 1.0 - 2.0 * (np.arange(q + 1) % 2)
        if rows <= cols:
            index = faces[:, :, None] * size + faces[:, None, :]
            weights = np.broadcast_to(np.outer(signs, signs), index.shape)
        else:
            flat = faces.ravel()
            order = np.argsort(flat, kind="stable")
            cells, signs = order // (q + 1), signs[order % (q + 1)]
            starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
            groups = np.diff(starts, append=order.size)
            # incidence p pairs with each of the width[p] incidences of
            # its group, listed from the group's start
            width = np.repeat(groups, groups)
            left = np.repeat(np.arange(order.size), width)
            shift = np.cumsum(width) - width - np.repeat(starts, groups)
            right = np.arange(left.size) - np.repeat(shift, width)
            index = cells[left] * size + cells[right]
            weights = signs[left] * signs[right]
        gram = np.bincount(index.ravel(), weights.ravel(), minlength=size * size)
        return gram.reshape(size, size)

    def _log_boundary_pdet(self, q: int) -> float:
        """log pdet(d_q d_q^T), cached; 0 where d_q is empty or zero.

        d_q d_q^T and d_q^T d_q share their nonzero spectrum, so the
        smaller of the two is solved, as ``_boundary_gram`` sums it from
        the face table; the dense ``_dense_boundary`` and ``laplacian``
        stay as the tests' oracle.  Zero means anything below 1e-9
        times that Gram matrix's spectral radius.
        """
        if q not in self._log_pdets:
            gram = self._boundary_gram(q)
            total = 0.0
            if gram.size:
                eigs = np.linalg.eigvalsh(gram)
                radius = float(np.max(np.abs(eigs)))
                total = float(np.sum(np.log(eigs[eigs > 1e-9 * radius])))
            self._log_pdets[q] = total
        return self._log_pdets[q]

    def laplacian_pseudodet(self, q: int) -> float:
        """Product of nonzero Laplacian eigenvalues; 1 for empty spectra.

        im d_{q+1} is orthogonal to im d_q^T, so the nonzero spectrum of
        L_q is that of d_q^T d_q together with that of d_{q+1} d_{q+1}^T,
        and the pseudodeterminant is the product of the two Gram
        pseudodeterminants.  Zero means anything below 1e-9 times the
        spectral radius of each boundary Gram matrix.  Raises
        OverflowError when the product is past float range.
        """
        return math.exp(
            self._log_boundary_pdet(q) + self._log_boundary_pdet(q + 1)
        )

    def laplacian_torsion(self) -> float:
        """exp of sum over q >= 1 of (-1)^(q+1) q log pdet L_q.

        With pdet L_q = pdet(d_q d_q^T) pdet(d_{q+1} d_{q+1}^T) the sum
        telescopes to sum (-1)^(q+1) log pdet(d_q d_q^T), which is
        summed in log space, so no pseudodeterminant is exponentiated.
        The triangle's is 9 = 3 * 3, the vertex count times its spanning
        trees:

        >>> round(ngon(3).laplacian_torsion(), 9)
        9.0
        """
        return math.exp(
            sum(
                (-1) ** (q + 1) * self._log_boundary_pdet(q)
                for q in range(1, self.dim + 1)
            )
        )

    # -- serialization -----------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": self.n_cells(0),
            "faces": [level.tolist() for level in self._face_arrays[1:]],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DeltaComplex":
        return cls(data["vertices"], data.get("faces", []))

    def __repr__(self) -> str:
        return f"DeltaComplex(f={self.f_vector()})"


@dataclass(frozen=True)
class HomologySummary:
    """Per dimension, the free rank and the torsion coefficients."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def group(self, q: int) -> str:
        parts = ["Z"] * self.betti[q]
        parts += [f"Z/{t}" for t in self.torsion[q]]
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return ", ".join(
            f"H_{q} = {self.group(q)}" for q in range(len(self.betti))
        )


# -- elementary builders ----------------------------------------------


def keyed_complex(
    levels: Sequence[Sequence],
    face: Callable,
    tags=None,
    what: str = "Delta-complex",
) -> DeltaComplex:
    """The complex whose q-cells are the keys ``levels[q]``, in that order.

    ``face(q, key, i)`` is the key, among ``levels[q - 1]``, of the i-th
    face of the q-cell ``key`` (q >= 1, i = 0..q).  The keys are counted
    against the cell cap first, under the name ``what``, so that an
    oversized build names its construction.  Keys are resolved through
    one index dict per level; the ``DeltaComplex`` constructor then
    checks ranges and the simplicial identities as for any complex.
    ``tags`` are passed through.  The boundary of a triangle from its
    vertex subsets:

    >>> from itertools import combinations
    >>> levels = [list(combinations(range(3), k)) for k in (1, 2)]
    >>> K = keyed_complex(levels, lambda q, s, i: s[:i] + s[i + 1 :])
    >>> K.faces[1]
    ((1, 0), (2, 0), (2, 1))
    >>> K.homology().betti
    (1, 1)
    """
    require_cells(sum(map(len, levels)), what)
    faces = []
    for q, (level, above) in enumerate(zip(levels, levels[1:]), 1):
        index = {key: i for i, key in enumerate(level)}
        faces.append(
            [tuple(index[face(q, key, i)] for i in range(q + 1)) for key in above]
        )
    return DeltaComplex(len(levels[0]) if levels else 0, faces, tags)


def point() -> DeltaComplex:
    return DeltaComplex(1)


def ngon(n: int) -> DeltaComplex:
    """Circle with n vertices and n edges; edge k runs k -> k+1 mod n."""
    if n < 1:
        raise DeltaComplexError("ngon needs at least one edge")
    require_cells(2 * n, f"{n}-gon")
    return DeltaComplex(n, [[((k + 1) % n, k) for k in range(n)]])


circle = ngon


def simplex(n: int) -> DeltaComplex:
    """The full n-simplex; each cell is tagged with its vertex subset."""
    if n < 0:
        raise DeltaComplexError("dimension must be >= 0")
    return _subset_complex(n, n + 1)


def boundary_simplex(n: int) -> DeltaComplex:
    """The boundary of the n-simplex (empty for n = 0)."""
    if n < 0:
        raise DeltaComplexError("dimension must be >= 0")
    return _subset_complex(n, n)


def _subset_complex(n: int, top: int) -> DeltaComplex:
    """Nonempty subsets of {0..n} of at most ``top`` elements, capped;
    ``top`` is n + 1 (2^(n+1) - 1 cells) or n (the boundary, one fewer).
    The count has at least ``top`` bits, so a large n is refused unformed."""
    what = f"{top - 1}-skeleton of the {n}-simplex"
    require_cells(lambda: (1 << (n + 1)) - 1 - (top == n), what, top)
    levels = [list(combinations(range(n + 1), q + 1)) for q in range(top)]
    return keyed_complex(levels, lambda q, s, i: s[:i] + s[i + 1 :], levels)


# -- join, cone --------------------------------------------------------


def _join_halves(K: DeltaComplex, L: DeltaComplex, q: int):
    """Cell pairs of join dimension q, K part first, then L part."""
    out = []
    for p in range(q, -2, -1):
        r = q - 1 - p
        left = [None] if p < 0 else [(p, i) for i in range(K.n_cells(p))]
        right = [None] if r < 0 else [(r, j) for j in range(L.n_cells(r))]
        if p < 0 and r < 0:
            continue
        for a in left:
            for b in right:
                out.append((a, b))
    return out


def join(K: DeltaComplex, L: DeltaComplex) -> DeltaComplex:
    """Join of two complexes: simplices are concatenated pairs.

    Cells are pairs (sigma, tau), either half possibly absent, with the
    K vertices ordered before the L vertices.
    """
    top = K.dim + L.dim + 1
    levels = [_join_halves(K, L, q) for q in range(top + 1)]
    k_faces, l_faces = K.faces, L.faces

    def face(q: int, cell, i: int):
        a, b = cell
        p = a[0] if a else -1
        if i <= p:
            return (None if p == 0 else (p - 1, k_faces[p][a[1]][i]), b)
        r, j = b
        return (a, None if r == 0 else (r - 1, l_faces[r][j][i - p - 1]))

    tags = [[("join", a, b) for a, b in level] for level in levels]
    return keyed_complex(levels, face, tags, "join")


def cone(K: DeltaComplex) -> DeltaComplex:
    """Cone on K; the apex is the last vertex."""
    return join(K, point())


# -- prism -------------------------------------------------------------

Chain = tuple[tuple[int, int], ...]


def _prism_chains(q: int) -> tuple[list[Chain], list[Chain]]:
    """Monotone chains in {0..q} x {0,1} covering every first coordinate:
    the level graphs (dimension q) and the once-doubled chains (q+1)."""
    flat: list[Chain] = []
    for split in range(q + 2):
        # levels jump from 0 to 1 after position split-1
        flat.append(
            tuple((i, 0 if i < split else 1) for i in range(q + 1))
        )
    flat.sort()
    doubled = [
        tuple((i, 0) for i in range(j + 1))
        + tuple((i, 1) for i in range(j, q + 1))
        for j in range(q + 1)
    ]
    return flat, doubled


def _chain_face(chain: Chain, i: int) -> tuple[int | None, Chain]:
    """Face i of a prism cell over a q-cell c, by its chain alone.

    Chain vertex i is dropped.  If the rest still covers first
    coordinate k = chain[i][0], the face lies over c itself and
    ``(None, rest)`` comes back; else it lies over face k of c, and
    ``(k, rest)`` comes back with first coordinates above k moved down.
    Over an edge:

    >>> _chain_face(((0, 0), (0, 1), (1, 1)), 0)
    (None, ((0, 1), (1, 1)))
    >>> _chain_face(((0, 0), (0, 1), (1, 1)), 2)
    (1, ((0, 0), (0, 1)))
    """
    k = chain[i][0]
    rest = chain[:i] + chain[i + 1 :]
    if any(a == k for a, _ in rest):
        return None, rest
    return k, tuple((a - 1 if a > k else a, l) for a, l in rest)


def prism(K: DeltaComplex, what: str = "prism") -> DeltaComplex:
    """K x [0,1] in the ordered triangulation; ends carry level tags.

    Each q-cell contributes q+2 cells of dimension q (the nondecreasing
    level graphs, the all-0 and all-1 ones forming the two copies of K)
    and q+1 cells of dimension q+1.  Level p lists the doubled chains of
    the (p-1)-cells, then the flat chains of the p-cells, each block
    cell-major in the order of ``_prism_chains``; every cell is tagged
    ``("prism", q, c, chain)``.  ``_chain_face`` runs once per chain and
    face, which gives a table of "chain t' over the same cell" or "chain
    t' over face k of the cell"; the table is applied to all cells of a
    block at once, as offset + cell * stride + t'.  The prism of an
    edge, whose vertices 0..3 are (vertex 0, level 0), (vertex 0, level
    1), (vertex 1, level 0) and (vertex 1, level 1):

    >>> P = prism(simplex(1))
    >>> P.faces[1]  # over vertex 0, over vertex 1; bottom, diagonal, top
    ((1, 0), (3, 2), (2, 0), (3, 0), (3, 1))
    >>> P.faces[2]  # (top, diagonal, over 0), (over 1, diagonal, bottom)
    ((4, 3, 0), (1, 3, 2))

    ``what`` names the result in a cell-cap error, raised before
    anything is built.
    """
    n = [K.n_cells(q) for q in range(K.dim + 1)]
    require_cells(sum(m * (2 * q + 3) for q, m in enumerate(n)), what)
    chains = [_prism_chains(q) for q in range(K.dim + 1)]

    def position(q: int, chain: Chain) -> tuple[int, int, int]:
        """(offset, stride, t): cell (q, c, chain) is offset + c * stride
        + t in its level."""
        flat, doubled = chains[q]
        if len(chain) == q + 1:
            return n[q - 1] * q if q else 0, q + 2, flat.index(chain)
        return 0, q + 1, doubled.index(chain)

    blocks: list[list[np.ndarray]] = [[] for _ in range(K.dim + 2)]
    tags: list[list] = [[] for _ in range(K.dim + 2)]
    for q in range(K.dim + 1):
        cells = np.arange(n[q])
        below = K._face_arrays[q]
        for p, block in zip((q, q + 1), chains[q]):
            tags[p].extend(("prism", q, c, ch) for c in range(n[q]) for ch in block)
            if p == 0:
                continue
            out = np.empty((n[q], len(block), p + 1), dtype=np.int64)
            for t, chain in enumerate(block):
                for i in range(p + 1):
                    k, rest = _chain_face(chain, i)
                    over = cells if k is None else below[:, k]
                    offset, stride, t2 = position(q if k is None else q - 1, rest)
                    out[:, t, i] = offset + over * stride + t2
            blocks[p].append(out.reshape(-1, p + 1))
    faces = [np.concatenate(level) for level in blocks[1:]]
    return DeltaComplex(len(tags[0]), faces, tags)


# -- barycentric subdivision ------------------------------------------

Flag = tuple[tuple[int, ...], ...]


def _flags_of(q: int) -> list[Flag]:
    """Strictly increasing chains of nonempty subsets ending at {0..q}."""
    return sorted(_flags_ending_at(tuple(range(q + 1))))


def _flags_ending_at(top: tuple[int, ...]) -> list[Flag]:
    # a module-level recursion: a nested one would be a reference cycle
    return [(top,)] + [
        flag + (top,)
        for size in range(1, len(top))
        for s in combinations(top, size)
        for flag in _flags_ending_at(s)
    ]


def barycentric(K: DeltaComplex) -> DeltaComplex:
    """Barycentric subdivision; vertices are barycenters of cells.

    A d-cell is a pair (anchor cell, flag of vertex subsets ending at
    the anchor's full vertex set); dropping the top subset re-anchors at
    the spanned face, which keeps the construction functorial in face
    maps even with repeated faces.
    """
    flags_by_dim: dict[int, list[Flag]] = {
        q: _flags_of(q) for q in range(K.dim + 1)
    }
    levels: list[list[tuple[int, int, Flag]]] = [
        [] for _ in range(K.dim + 1)
    ]
    for q in range(K.dim + 1):
        for c in range(K.n_cells(q)):
            for flag in flags_by_dim[q]:
                levels[len(flag) - 1].append((q, c, flag))
    for level in levels:
        level.sort()

    def face(d: int, cell: tuple[int, int, Flag], j: int):
        q, c, flag = cell
        if j < d:
            return q, c, flag[:j] + flag[j + 1 :]
        top = flag[-2]
        fq, fc = K.iterated_face(q, c, top)
        relabel = {v: t for t, v in enumerate(top)}
        new_flag = tuple(
            tuple(relabel[v] for v in s) for s in flag[:-1]
        )
        return fq, fc, new_flag

    tags = [
        [("bary", q, c, flag) for q, c, flag in level] for level in levels
    ]
    return keyed_complex(levels, face, tags, "barycentric subdivision")


# -- free actions and quotients ---------------------------------------


@dataclass(frozen=True)
class FreeAction:
    """Cell permutations, one per group element per dimension."""

    group: FiniteAbelianGroup
    perms: Mapping[GroupElement, tuple[tuple[int, ...], ...]]

    def validate(self, K: DeltaComplex) -> None:
        """Check that the permutations form a free action on K.

        Per element: present, a permutation of every dimension, and no
        fixed cell unless it is the identity (a free generator can have
        a power that is not free).  The group law is checked through
        the standard generators s: perms[e] is the identity and
        perms[g*s] = perms[s] o perms[g] for every g.  By induction on
        word length that gives perms[g*h] = perms[h] o perms[g] for all
        g, h, and with it the generator orders, and every perms[g] is a
        composite of generator perms, so face commutation is checked on
        the generators only.  The law costs O(|G| * k * cells) for k
        moduli, not O(|G|^2 * cells) as over all pairs.
        """
        e = self.group.identity
        faces = K.faces
        dims = len(faces)
        for g in self.group:
            if g not in self.perms:
                raise DeltaComplexError(f"action missing element {g!r}")
            pg = self.perms[g]
            if len(pg) != dims:
                raise DeltaComplexError("action has wrong number of dimensions")
            for q in range(dims):
                if sorted(pg[q]) != list(range(K.n_cells(q))):
                    raise DeltaComplexError(
                        f"action of {g!r} is not a permutation in dim {q}"
                    )
                if g != e and any(
                    pg[q][c] == c for c in range(K.n_cells(q))
                ):
                    raise DeltaComplexError(
                        f"fixed cell detected in dim {q}: action not free"
                    )
        if any(tuple(p) != tuple(range(len(p))) for p in self.perms[e]):
            raise DeltaComplexError("the identity does not act trivially")
        k = len(self.group.moduli)
        for i in range(k):
            s = self.group.element([int(i == j) for j in range(k)])
            ps = self.perms[s]
            for q in range(1, dims):
                for c, cell in enumerate(faces[q]):
                    image = faces[q][ps[q][c]]
                    if tuple(ps[q - 1][f] for f in cell) != image:
                        raise DeltaComplexError(
                            f"action of {s!r} does not commute with faces "
                            f"at {q}-cell {c}"
                        )
            for g in self.group:
                pg, pgs = self.perms[g], self.perms[g * s]
                for q in range(dims):
                    if tuple(map(ps[q].__getitem__, pg[q])) != tuple(pgs[q]):
                        raise DeltaComplexError(
                            "permutations do not compose as the group does"
                        )


def quotient(K: DeltaComplex, action: FreeAction) -> DeltaComplex:
    """Quotient by a free cell action; orbits keep their smallest member."""
    action.validate(K)
    k_faces = K.faces
    reps: list[list[int]] = []
    orbit_of: list[dict[int, int]] = []
    for q in range(len(k_faces)):
        seen: dict[int, int] = {}
        rep_list: list[int] = []
        for c in range(K.n_cells(q)):
            if c in seen:
                continue
            orbit = {
                action.perms[g][q][c] for g in action.group
            }
            rep = min(orbit)
            idx = len(rep_list)
            rep_list.append(rep)
            for m in orbit:
                seen[m] = idx
        reps.append(rep_list)
        orbit_of.append(seen)
    faces: list[list[Face]] = []
    for q in range(1, len(k_faces)):
        faces.append(
            [
                tuple(orbit_of[q - 1][f] for f in k_faces[q][rep])
                for rep in reps[q]
            ]
        )
    tags = [
        [K.tags[q][rep] for rep in reps[q]] for q in range(len(k_faces))
    ]
    return DeltaComplex(len(reps[0]), faces, tags)
