"""Signed simplicial cells glued along matching faces.

A polytope here is a purely combinatorial object: a list of signed
degree-n generators (cells) plus a set of gluings, each identifying two
faces that carry the same (n-1)-generator with opposite induced signs.
Glued faces cancel in the chain boundary, so a fully glued polytope
represents a cycle.  Vertices exist only as equivalence classes of
(cell, vertex index) pairs under the gluing closure.

The group-labeling condition (every edge loop evaluates to the identity)
is not enforced at construction, but it is decided there: the BFS over
the gluings that finds the components also labels each component from
the identity at its first cell and checks that every vertex class reads
one label.  :meth:`ColoredPolytope.check_coloring` reports that verdict,
and :meth:`ColoredPolytope.endow` translates the stored labels by its
base element when it holds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .bar import (
    BarChain,
    Gen,
    bar_to_hom,
    gen_boundary,
    hom_to_bar,
    refuse_malformed_gens,
)
from .groups import FiniteAbelianGroup, GroupElement, as_int, refuse_unlisted

FaceRef = tuple[int, int]  # (cell index, face index)


class PolytopeError(ValueError):
    pass


class NotACycleError(PolytopeError):
    """The input chain is not a cycle, so assembly guarantees fail."""


class ColoringError(PolytopeError):
    """A vertex labeling was requested but no consistent one exists."""


@dataclass(frozen=True)
class ColoredCell:
    """A signed generator: one oriented n-simplex of the decomposition.

    Identity entries (degenerate generators) are permitted; they arise
    naturally when a chain over a small group is decomposed cell by cell.
    """

    gen: Gen
    sign: int

    def __post_init__(self):
        if type(self.sign) is not int or self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")


def cells_from_json(group: FiniteAbelianGroup, entries) -> list[ColoredCell]:
    """Cells from their JSON form, a list of {"gen": [residues, ...],
    "sign": +1 or -1}; a malformed entry is a TypeError naming it."""
    try:
        return [
            ColoredCell(
                tuple(group.element(r) for r in entry["gen"]), entry["sign"]
            )
            for entry in entries
        ]
    except TypeError:
        refuse_malformed_gens(entries, "cells", "sign")
        raise


def _refuse_malformed_gluings(gluings) -> None:
    """Raise naming the first gluing, or face reference of one, that is
    not a pair; called only once reading ``gluings`` has failed."""
    refuse_unlisted(gluings, "gluings", "face pairs")

    def is_pair(value) -> bool:
        return isinstance(value, (list, tuple)) and len(value) == 2

    for k, pair in enumerate(gluings):
        if not is_pair(pair):
            raise TypeError(
                f"gluing {k} is {pair!r}, not a pair of face references"
            ) from None
        for j, ref in enumerate(pair):
            if not is_pair(ref):
                raise TypeError(
                    f"face {j} of gluing {k} is {ref!r}, not [cell, face]"
                ) from None


def _gen_key(gen: Gen) -> tuple[int, ...]:
    """The entries' indices, which order as their residue tuples do."""
    return tuple(map(int, gen))


class ColoredPolytope:
    """Cells plus face gluings, with vertices as glued equivalence classes.

    Construction validates structure: face references in range, each face
    in at most one gluing, and every gluing joining faces with equal
    generators and opposite induced signs (induced sign of face i of a
    cell = cell sign times the boundary formula's (-1)^i-pattern sign).
    """

    def __init__(
        self,
        group: FiniteAbelianGroup,
        degree: int,
        cells: Sequence[ColoredCell],
        gluings: Iterable[tuple[FaceRef, FaceRef]] = (),
    ):
        if degree < 1:
            raise ValueError("polytope degree must be >= 1")
        self.group = group
        self.degree = degree
        self.cells = tuple(cells)
        # per cell: list of (face generator, face formula sign); cells with
        # equal generators share one list, and a tower repeats its base cells
        faces_of: dict[Gen, list[tuple[Gen, int]]] = {}
        for cell in self.cells:
            if cell.gen in faces_of:
                continue
            if len(cell.gen) != degree:
                raise ValueError(
                    f"cell {cell!r} has degree {len(cell.gen)}, expected {degree}"
                )
            for el in cell.gen:
                if el.group is not group:
                    raise ValueError("cell generator not over the polytope group")
            faces_of[cell.gen] = gen_boundary(cell.gen)
        self._faces = [faces_of[cell.gen] for cell in self.cells]
        self.gluings = tuple(
            (a, b) if a <= b else (b, a) for a, b in gluings
        )
        ncells = len(self.cells)
        seen: set[FaceRef] = set()
        for a, b in self.gluings:
            for ref in (a, b):
                c, i = ref
                if not (0 <= c < ncells and 0 <= i <= degree):
                    raise PolytopeError(f"face reference {ref} out of range")
                if ref in seen:
                    raise PolytopeError(f"face {ref} appears in two gluings")
                seen.add(ref)
            face_a, sign_a = self._faces[a[0]][a[1]]
            face_b, sign_b = self._faces[b[0]][b[1]]
            if face_a != face_b:
                raise PolytopeError(f"gluing {a}-{b} joins unequal generators")
            if self.cells[a[0]].sign * sign_a == self.cells[b[0]].sign * sign_b:
                raise PolytopeError(
                    f"gluing {a}-{b} joins faces of equal induced sign"
                )
        self._glued: set[FaceRef] = seen
        self._build_vertices()
        self._label_components()

    # -- face data ---------------------------------------------------

    def face_gen(self, cell: int, i: int) -> Gen:
        return self._faces[cell][i][0]

    def induced_sign(self, cell: int, i: int) -> int:
        return self.cells[cell].sign * self._faces[cell][i][1]

    def unglued_faces(self) -> list[FaceRef]:
        return [
            (c, i)
            for c in range(len(self.cells))
            for i in range(self.degree + 1)
            if (c, i) not in self._glued
        ]

    # -- vertices ----------------------------------------------------

    def _build_vertices(self) -> None:
        # (cell, vertex) has the integer id cell * (n+1) + vertex, so ids
        # order like the pairs and a class's root is its smallest member
        n1 = self.degree + 1
        parent = list(range(len(self.cells) * n1))

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        # face j of face i corresponds to cell vertex j, skipping i
        for (c1, i1), (c2, i2) in self.gluings:
            for j in range(n1 - 1):
                r1 = find(c1 * n1 + (j if j < i1 else j + 1))
                r2 = find(c2 * n1 + (j if j < i2 else j + 1))
                if r1 != r2:
                    parent[max(r1, r2)] = min(r1, r2)

        # classes are numbered in the order of their smallest member; a
        # parent is always smaller than its child and in the same class
        vertex_of = [0] * len(parent)
        roots: list[int] = []
        for x, up in enumerate(parent):
            if up == x:
                vertex_of[x] = len(roots)
                roots.append(x)
            else:
                vertex_of[x] = vertex_of[up]
        self._vertex_of = vertex_of
        self._roots = tuple(roots)

    @property
    def vertex_count(self) -> int:
        return len(self._roots)

    def vertex_class(self, cell: int, v: int) -> int:
        return self._vertex_of[cell * (self.degree + 1) + v]

    def _label_components(self) -> None:
        """Find the components and their identity labeling in one BFS.

        A cell [g1..gn] whose vertex 0 carries b has vertex k labeled
        b*g1*...*gk, so the BFS carries one label per cell.  It starts each
        component at its first cell with the identity, and a gluing fixes
        the neighbour's label through the first vertex of the shared face:
        cell vertex 0, or vertex 1 when face 0 is glued.  Every member of a
        vertex class must then read one label; the first (cell, vertex)
        that does not is kept as the conflict, else None.
        """
        n1 = self.degree + 1
        e = self.group.identity
        # per cell: (first face vertex here, neighbour, its first face vertex)
        adj: list[list[tuple[int, int, int]]] = [[] for _ in self.cells]
        for (c1, i1), (c2, i2) in self.gluings:
            adj[c1].append((int(i1 == 0), c2, int(i2 == 0)))
            adj[c2].append((int(i2 == 0), c1, int(i1 == 0)))
        comp = [-1] * len(self.cells)
        comps: list[list[int]] = []
        # labels by (cell, vertex) id, as in _build_vertices
        at: list[GroupElement] = [e] * (len(self.cells) * n1)
        for start in range(len(self.cells)):
            if comp[start] >= 0:
                continue
            comp[start] = len(comps)
            members = []
            queue = deque([(start, e)])
            while queue:
                c, label = queue.popleft()
                members.append(c)
                row = bar_to_hom(self.cells[c].gen, label)
                at[c * n1 : c * n1 + n1] = row
                for v, d, w in adj[c]:
                    if comp[d] < 0:
                        comp[d] = comp[start]
                        queue.append(
                            (d, row[v] * ~self.cells[d].gen[0] if w else row[v])
                        )
            comps.append(sorted(members))
        self.components = tuple(tuple(m) for m in comps)
        labels = self._labels = tuple(at[root] for root in self._roots)
        vertex_of = self._vertex_of
        self._conflict: tuple[int, int] | None = next(
            (
                divmod(x, n1)
                for x, label in enumerate(at)
                if label != labels[vertex_of[x]]
            ),
            None,
        )

    # -- chain view --------------------------------------------------

    def chain(self) -> BarChain:
        return BarChain.from_terms(
            self.group, self.degree, ((c.gen, c.sign) for c in self.cells)
        )

    # -- labeling ----------------------------------------------------

    def check_coloring(self) -> bool:
        """True iff a consistent vertex labeling exists (loop condition);
        the verdict was reached at construction."""
        return self._conflict is None

    def endow(self, base: GroupElement) -> "VertexLabeling":
        """Label every vertex, the base vertex of each component by ``base``.

        The base vertex of a component is the class of (first cell, 0).
        The labeling is unique once the bases are fixed and the group is
        abelian, so it is the identity labeling found at construction
        times ``base``; the identity base takes the stored labels as
        they are.
        """
        if self._conflict is not None:
            raise ColoringError(
                f"no consistent labeling: contradiction at cell "
                f"{self._conflict[0]}, vertex {self._conflict[1]}"
            )
        if base is self.group.identity:
            return VertexLabeling(self, self._labels)
        return VertexLabeling(self, tuple(base * l for l in self._labels))

    # -- boundary pairing --------------------------------------------

    def boundary_pairs(self) -> list[tuple[FaceRef, FaceRef]]:
        """Pair the unglued faces: equal generator, opposite induced sign.

        Faces are matched in canonical reference order within each
        generator.  Raises NotACycleError when the counts do not balance,
        which happens exactly when the polytope's chain is not a cycle.
        """
        plus: dict[tuple, list[FaceRef]] = {}
        minus: dict[tuple, list[FaceRef]] = {}
        for ref in self.unglued_faces():
            key = _gen_key(self.face_gen(*ref))
            side = plus if self.induced_sign(*ref) > 0 else minus
            side.setdefault(key, []).append(ref)
        if sorted(plus) != sorted(minus) or any(
            len(plus[k]) != len(minus[k]) for k in plus
        ):
            raise NotACycleError(
                "unglued faces do not pair up; chain is not a cycle"
            )
        pairs = []
        for key in sorted(plus):
            pairs.extend(zip(plus[key], minus[key]))
        return pairs

    # -- serialization -----------------------------------------------

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "degree": self.degree,
            "cells": [
                {"gen": [list(e.residues) for e in cell.gen], "sign": cell.sign}
                for cell in self.cells
            ],
            "gluings": [[list(a), list(b)] for a, b in self.gluings],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ColoredPolytope":
        group = FiniteAbelianGroup.from_json(data["group"])
        cells = cells_from_json(group, data["cells"])
        raw = data.get("gluings", [])
        try:
            gluings = [
                tuple(tuple(as_int(x, "face reference") for x in ref) for ref in pair)
                for pair in raw
            ]
            return cls(group, as_int(data["degree"], "degree"), cells, gluings)
        except (TypeError, ValueError):
            _refuse_malformed_gluings(raw)
            raise

    def __repr__(self) -> str:
        return (
            f"ColoredPolytope(degree={self.degree}, cells={len(self.cells)}, "
            f"gluings={len(self.gluings)}, vertices={self.vertex_count})"
        )


@dataclass(frozen=True)
class VertexLabeling:
    """Group elements attached to the polytope's vertex classes.

    ``labels[i]`` belongs to vertex class i (classes are ordered by their
    smallest (cell, vertex) member).  Reading a cell's vertices through
    the labeling and folding consecutive quotients recovers the cell's
    generator; :meth:`cell_labels` exposes the per-cell view.
    """

    polytope: ColoredPolytope
    labels: tuple[GroupElement, ...]

    def cell_labels(self, cell: int) -> tuple[GroupElement, ...]:
        n1 = self.polytope.degree + 1
        labels = self.labels
        return tuple(
            labels[x] for x in self.polytope._vertex_of[cell * n1 : cell * n1 + n1]
        )

    def translate(self, k: GroupElement) -> "VertexLabeling":
        return VertexLabeling(self.polytope, tuple(k * l for l in self.labels))

    def check(self) -> bool:
        p = self.polytope
        return all(
            hom_to_bar(self.cell_labels(c)) == p.cells[c].gen
            for c in range(len(p.cells))
        )


# -- assembly ---------------------------------------------------------

CellsInput = Union[BarChain, Sequence[ColoredCell], Sequence[tuple[Gen, int]]]


def decomposition_degree(cells: Sequence[ColoredCell]) -> int:
    """The common degree of an explicit decomposition, read without
    sorting it: there is a cell, every cell has it, and it is >= 1."""
    degrees = {len(cell.gen) for cell in cells}
    if not degrees:
        raise ValueError("empty decomposition: degree unknown")
    if len(degrees) != 1:
        raise ValueError("mixed degrees in decomposition")
    (degree,) = degrees
    if degree == 0:
        raise ValueError("degree must be >= 1")
    return degree


def as_cells(C: CellsInput) -> tuple[FiniteAbelianGroup, int, list[ColoredCell]]:
    """Normalize a chain or explicit decomposition to a sorted cell list.

    A BarChain expands to |coef| copies of each generator; an explicit
    decomposition (sequence of ColoredCell or (gen, sign) pairs) is taken
    as given.  Cells are returned in canonical order: generator residues
    lexicographically, then sign (-1 before +1).
    """
    cells: list[ColoredCell] = []
    if isinstance(C, BarChain):
        group, degree = C.group, C.degree
        for gen, coef in C.sorted_terms():
            s = 1 if coef > 0 else -1
            cells.extend(ColoredCell(gen, s) for _ in range(abs(coef)))
    else:
        norm = []
        for item in C:
            if isinstance(item, ColoredCell):
                norm.append(item)
            else:
                gen, sign = item
                norm.append(ColoredCell(tuple(gen), sign))
        degree = decomposition_degree(norm)
        group = norm[0].gen[0].group
        cells = norm
    cells.sort(key=lambda cell: (_gen_key(cell.gen), cell.sign))
    return group, degree, cells


def assemble_polytopes(
    C: CellsInput, *, chain: BarChain | None = None
) -> list[ColoredPolytope]:
    """Glue a cycle's cells into polytopes, greedily and deterministically.

    Cells are taken in canonical order.  A polytope grows from a seed
    cell: its unglued faces are scanned oldest first, and each grabs the
    first unused cell carrying the same face generator with opposite
    induced sign.  Two faces of the growing polytope are never glued to
    each other (algebraic self-pairings stay on the boundary), so every
    gluing attaches a fresh cell and the gluing graph of each polytope is
    a tree.  When no face can grow, the polytope is closed off and the
    next unused cell seeds a new one.  The faces are indexed once by face
    generator and induced sign, so no search rescans the cells.

    The same index is the cycle check.  The boundary of the cells' sum is
    the sum of their faces with induced signs, so its coefficient at a
    face generator is the count of that generator's +1 faces minus the
    count of its -1 faces; C is a cycle exactly when every generator has
    as many of one as of the other.

    In degree 1 the faces are points and no gluing is performed; each
    cell becomes its own polytope and pairing is left to the boundary.
    Every degree-1 chain is a cycle, since the one vertex is the face of
    each cell twice, with opposite signs.

    A caller that has normalised C with :func:`as_cells` and summed its
    cells already passes that cell list as C and the sum as ``chain``;
    C is then taken as it is, with the group and degree of ``chain``.

    Raises NotACycleError unless the total chain boundary is exactly 0.
    """
    if chain is None:
        group, degree, cells = as_cells(C)
    else:
        group, degree, cells = chain.group, chain.degree, C
    if not cells:
        return []
    if degree == 1:
        return [ColoredPolytope(group, 1, [cell]) for cell in cells]

    faces_of = {gen: gen_boundary(gen) for gen in {cell.gen for cell in cells}}
    faces = [faces_of[cell.gen] for cell in cells]
    # (face generator, induced sign) -> its (cell, face) pairs in order;
    # pairs of used cells are dropped when met, so the first pair left
    # is the first unused cell and its first such face
    index: dict[tuple[Gen, int], deque[tuple[int, int]]] = {}
    for c, cell in enumerate(cells):
        for i, (fg, s) in enumerate(faces[c]):
            index.setdefault((fg, cell.sign * s), deque()).append((c, i))
    if any(
        len(refs) != len(index.get((fg, -s), ()))
        for (fg, s), refs in index.items()
    ):
        raise NotACycleError("input chain has nonzero boundary")

    used = [False] * len(cells)
    polytopes = []
    for seed in range(len(cells)):
        if used[seed]:
            continue
        used[seed] = True
        members = [seed]
        local = {seed: 0}
        gluings: list[tuple[FaceRef, FaceRef]] = []
        # each face enters the queue once, and the face a cell is glued
        # by never does, so every face popped is still unglued
        queue = deque((seed, i) for i in range(degree + 1))
        while queue:
            c, i = queue.popleft()
            fg, s = faces[c][i]
            waiting = index.get((fg, -cells[c].sign * s))
            while waiting and used[waiting[0][0]]:
                waiting.popleft()
            if not waiting:
                continue
            d, j = waiting.popleft()
            used[d] = True
            local[d] = len(members)
            members.append(d)
            gluings.append(((local[c], i), (local[d], j)))
            queue.extend((d, jj) for jj in range(degree + 1) if jj != j)
        polytopes.append(
            ColoredPolytope(
                group, degree, [cells[m] for m in members], gluings
            )
        )
    return polytopes


# -- the worked octagon ----------------------------------------------


def octagon_cells(
    a: GroupElement, b: GroupElement, c: GroupElement, d: GroupElement
) -> list[ColoredCell]:
    """The six signed triangles of the octagon disc decomposition."""
    ab = a * b
    bd = b * ~d
    return [
        ColoredCell((a, b), 1),
        ColoredCell((ab, c), 1),
        ColoredCell((ab, c), -1),
        ColoredCell((b, a), -1),
        ColoredCell((bd, d), -1),
        ColoredCell((d, bd), 1),
    ]


def octagon_polytope(
    a: GroupElement, b: GroupElement, c: GroupElement, d: GroupElement
) -> ColoredPolytope:
    """The octagon disc, pre-glued: a fan of six triangles.

    Perimeter reads a, b, c, c, a, d, b, d (with alternating directions),
    leaving boundary pairs +-a, +-b, +-c, +-d.  With the base vertex sent
    to the identity, the eight vertices in canonical order are labeled
    (e, a, ab, abc, ab, b, bd^-1, d^-1).
    """
    group = a.group
    cells = octagon_cells(a, b, c, d)
    gluings = [
        ((0, 1), (1, 2)),  # diagonal [ab], left
        ((1, 1), (2, 1)),  # diagonal [abc]
        ((2, 2), (3, 1)),  # diagonal [ab], right
        ((3, 2), (4, 1)),  # diagonal [b]
        ((4, 2), (5, 0)),  # diagonal [b d^-1]
    ]
    return ColoredPolytope(group, 2, cells, gluings)
