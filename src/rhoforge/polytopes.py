"""Signed simplicial cells glued along matching faces.

A polytope here is a purely combinatorial object: a list of signed
degree-n generators (cells) plus a set of gluings, each identifying two
faces that carry the same (n-1)-generator with opposite induced signs.
Glued faces cancel in the chain boundary, so a fully glued polytope
represents a cycle.  Vertices exist only as equivalence classes of
(cell, vertex index) pairs under the gluing closure.

The group-labeling condition (every edge loop evaluates to the identity)
is not enforced at construction; :meth:`ColoredPolytope.check_coloring`
tests it, and :meth:`ColoredPolytope.endow` produces an explicit vertex
labeling when it holds.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .bar import BarChain, Gen, bar_to_hom, gen_boundary, hom_to_bar
from .groups import FiniteAbelianGroup, GroupElement, as_int

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


def _gen_key(gen: Gen) -> tuple:
    return tuple(e.residues for e in gen)


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
        self._build_components()

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
        classes: list[list[tuple[int, int]]] = []
        for x, up in enumerate(parent):
            if up == x:
                vertex_of[x] = len(classes)
                classes.append([])
            else:
                vertex_of[x] = vertex_of[up]
            classes[vertex_of[x]].append(divmod(x, n1))
        self._vertex_of = vertex_of
        self.vertex_members: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(members) for members in classes
        )

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_members)

    def vertex_class(self, cell: int, v: int) -> int:
        return self._vertex_of[cell * (self.degree + 1) + v]

    def _build_components(self) -> None:
        adj: list[list[int]] = [[] for _ in self.cells]
        for (c1, _), (c2, _) in self.gluings:
            adj[c1].append(c2)
            adj[c2].append(c1)
        comp = [-1] * len(self.cells)
        comps: list[list[int]] = []
        for start in range(len(self.cells)):
            if comp[start] >= 0:
                continue
            label = len(comps)
            members = []
            stack = [start]
            comp[start] = label
            while stack:
                c = stack.pop()
                members.append(c)
                for d in adj[c]:
                    if comp[d] < 0:
                        comp[d] = label
                        stack.append(d)
            comps.append(sorted(members))
        self.cell_component = tuple(comp)
        self.components = tuple(tuple(m) for m in comps)

    # -- chain view --------------------------------------------------

    def chain(self) -> BarChain:
        return BarChain.from_terms(
            self.group, self.degree, ((c.gen, c.sign) for c in self.cells)
        )

    # -- labeling ----------------------------------------------------

    def _propagate(
        self, base: Mapping[int, GroupElement]
    ) -> tuple[list[GroupElement | None], FaceRef | None]:
        """BFS vertex labels from per-component base values.

        Constraint: in cell [g1..gn], label(v_k) * g_{k+1} == label(v_{k+1}).
        Returns (labels by vertex class, first contradicting (cell, k)) with
        the second entry None when the labeling is consistent.

        Edge (c, k) sits at position c*n + k of a sweep over all cells.  A
        label set at time t reaches an incident edge at the next time that
        edge's position comes round, and the BFS queue is a heap on that
        time.  So every edge is taken once, yet the labels and the first
        contradiction are those of sweeping all edges until nothing changes.
        """
        n, n1 = self.degree, self.degree + 1
        vertex_of = self._vertex_of
        sweep = len(self.cells) * n
        incident: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for c in range(len(self.cells)):
            for k in range(n):
                incident[vertex_of[c * n1 + k]].append(c * n + k)
                incident[vertex_of[c * n1 + k + 1]].append(c * n + k)
        labels: list[GroupElement | None] = [None] * self.vertex_count
        queue: list[int] = []
        done = bytearray(sweep)
        # label * entry products; a tower repeats a few of them many times
        products: dict[tuple[GroupElement, GroupElement], GroupElement] = {}

        def settle(x: int, label: GroupElement, t: int) -> None:
            labels[x] = label
            start = t - t % sweep
            for edge in incident[x]:
                if not done[edge]:
                    heapq.heappush(
                        queue,
                        start + edge if edge > t - start else start + sweep + edge,
                    )

        for comp_idx, members in enumerate(self.components):
            base_vertex = vertex_of[members[0] * n1]
            if labels[base_vertex] is None:
                settle(base_vertex, base[comp_idx], -1)
        while queue:
            t = heapq.heappop(queue)
            edge = t % sweep
            if done[edge]:
                continue
            done[edge] = 1
            c, k = divmod(edge, n)
            g = self.cells[c].gen[k]
            u, v = vertex_of[c * n1 + k], vertex_of[c * n1 + k + 1]
            lu, lv = labels[u], labels[v]
            if lu is None:
                settle(u, lv * ~g, t)
                continue
            step = products.get((lu, g))
            if step is None:
                step = products[(lu, g)] = lu * g
            if lv is None:
                settle(v, step, t)
            elif step != lv:
                return labels, (c, k)
        return labels, None

    def check_coloring(self) -> bool:
        """True iff a consistent vertex labeling exists (loop condition)."""
        e = self.group.identity
        base = {i: e for i in range(len(self.components))}
        _, conflict = self._propagate(base)
        return conflict is None

    def endow(
        self, base: Union[GroupElement, Mapping[int, GroupElement]]
    ) -> "VertexLabeling":
        """Label every vertex, fixing each component's base vertex.

        The base vertex of a component is the class of (first cell, 0).
        ``base`` is either one element (used for every component) or a
        mapping component index -> element.
        """
        if isinstance(base, GroupElement):
            base = {i: base for i in range(len(self.components))}
        labels, conflict = self._propagate(base)
        if conflict is not None:
            raise ColoringError(
                f"no consistent labeling: contradiction at cell {conflict[0]}, "
                f"edge {conflict[1]}"
            )
        assert all(l is not None for l in labels)
        return VertexLabeling(self, tuple(labels))  # type: ignore[arg-type]

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
        cells = [
            ColoredCell(
                tuple(group.element(r) for r in entry["gen"]), entry["sign"]
            )
            for entry in data["cells"]
        ]
        gluings = [
            tuple(tuple(as_int(x, "face reference") for x in ref) for ref in pair)
            for pair in data.get("gluings", [])
        ]
        return cls(group, as_int(data["degree"], "degree"), cells, gluings)

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
        items = list(C)
        if not items:
            raise ValueError("empty decomposition: degree unknown")
        norm = []
        for item in items:
            if isinstance(item, ColoredCell):
                norm.append(item)
            else:
                gen, sign = item
                norm.append(ColoredCell(tuple(gen), int(sign)))
        degrees = {len(c.gen) for c in norm}
        if len(degrees) != 1:
            raise ValueError("mixed degrees in decomposition")
        degree = degrees.pop()
        if degree == 0:
            raise ValueError("degree must be >= 1")
        group = norm[0].gen[0].group
        cells = norm
    cells.sort(key=lambda cell: (_gen_key(cell.gen), cell.sign))
    if not cells:
        group = C.group if isinstance(C, BarChain) else group
    return group, degree, cells


def assemble_polytopes(C: CellsInput) -> list[ColoredPolytope]:
    """Glue a cycle's cells into polytopes, greedily and deterministically.

    Cells are taken in canonical order.  A polytope grows from a seed
    cell: its unglued faces are scanned oldest first, and each grabs the
    first unused cell carrying the same face generator with opposite
    induced sign.  Two faces of the growing polytope are never glued to
    each other (algebraic self-pairings stay on the boundary), so every
    gluing attaches a fresh cell and the gluing graph of each polytope is
    a tree.  When no face can grow, the polytope is closed off and the
    next unused cell seeds a new one.

    In degree 1 the faces are points and no gluing is performed; each
    cell becomes its own polytope and pairing is left to the boundary.

    Raises NotACycleError unless the total chain boundary is exactly 0.
    """
    group, degree, cells = as_cells(C)
    if not cells:
        return []
    chain = BarChain.from_terms(group, degree, ((c.gen, c.sign) for c in cells))
    if not chain.boundary().is_zero():
        raise NotACycleError("input chain has nonzero boundary")
    if degree == 1:
        return [ColoredPolytope(group, 1, [cell]) for cell in cells]

    faces = [gen_boundary(cell.gen) for cell in cells]

    def ind(c: int, i: int) -> int:
        return cells[c].sign * faces[c][i][1]

    used = [False] * len(cells)
    polytopes = []
    for seed in range(len(cells)):
        if used[seed]:
            continue
        used[seed] = True
        members = [seed]
        local = {seed: 0}
        gluings: list[tuple[FaceRef, FaceRef]] = []
        glued: set[tuple[int, int]] = set()
        queue = deque((seed, i) for i in range(degree + 1))
        while queue:
            c, i = queue.popleft()
            if (c, i) in glued:
                continue
            fg = faces[c][i][0]
            fs = ind(c, i)
            hit = None
            for d in range(len(cells)):
                if used[d]:
                    continue
                for j in range(degree + 1):
                    if faces[d][j][0] == fg and ind(d, j) == -fs:
                        hit = (d, j)
                        break
                if hit:
                    break
            if hit is None:
                continue
            d, j = hit
            used[d] = True
            local[d] = len(members)
            members.append(d)
            gluings.append(((local[c], i), (local[d], j)))
            glued.add((c, i))
            glued.add((d, j))
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


def octagon_chain(
    a: GroupElement, b: GroupElement, c: GroupElement, d: GroupElement
) -> BarChain:
    return BarChain.from_terms(
        a.group,
        2,
        ((cell.gen, cell.sign) for cell in octagon_cells(a, b, c, d)),
    )


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
