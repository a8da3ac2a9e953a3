"""Coverings, towers of coverings, simplicial cylinders, and bounding chains.

A covering replaces a polytope by h chained copies, gluing the minus face
of each boundary pair on copy j to the plus face on copy j+1.  A tower
folds that over every boundary pair class in order; the result has
h_1 * h_2 * ... copies, and the key combinatorial fact (verified, not
assumed) is that each remaining dangling pair carries equal vertex labels
under any endowment, because the crossing holonomy of a pair raised to
the group order is the identity.  The covering steps pass plain cell and
gluing lists along, so a tower builds and validates one polytope, at the
end, and endows it once; that labeling travels with the tower.

A bounding chain needs only the tower's labeled cells, and those follow
from P itself: under the identity endowment every copy of the tower is P
labeled by one translation, the product of the pairs' crossing
holonomies raised to the copy's coordinates.  ``tower_labeled_cells``
gives that chain as P's labeled cells once per distinct translation,
each sign scaled by how many copies share it, so the bounding path never
builds the tower.

The cylinder turns a labeled signed cell into a degree n+1 prism chain
joining it to its fully degenerate shadow.  It is linear, so the signs of
equal labeled cells are summed first and each distinct one is taken once.
Summing scaled cylinders over towers of all the assembled polytopes of a
cycle produces an explicit chain u with boundary N * (C - E).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

from .bar import BarChain, Gen, hom_to_bar
from .groups import FiniteAbelianGroup, GroupElement
from .polytopes import (
    CellsInput,
    ColoredCell,
    ColoredPolytope,
    ColoringError,
    FaceRef,
    NotACycleError,
    VertexLabeling,
    as_cells,
    assemble_polytopes,
)

DEFAULT_CELL_CAP = 10_000_000


class ResourceCapError(RuntimeError):
    """A construction would exceed the configured cell cap."""


def cell_cap() -> int:
    """Cap on constructed cells; override with env RHOFORGE_CELL_CAP."""
    raw = os.environ.get("RHOFORGE_CELL_CAP")
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"RHOFORGE_CELL_CAP must be an integer, got {raw!r}"
        ) from None


def require_cells(count: int, what: str) -> None:
    """Raise ResourceCapError if ``what`` needs more than cell_cap() cells."""
    cap = cell_cap()
    if count > cap:
        raise ResourceCapError(f"{what} needs {count} cells, cap is {cap}")


PairClass = tuple[tuple[FaceRef, FaceRef], ...]  # (plus, minus) members


def _shift_ref(ref: FaceRef, copy: int, ncells: int) -> FaceRef:
    return (ref[0] + copy * ncells, ref[1])


Gluing = tuple[FaceRef, FaceRef]


def _covering_step(
    cells: list[ColoredCell],
    gluings: list[Gluing],
    classes: Sequence[PairClass],
    which: int,
    height: int,
) -> tuple[list[ColoredCell], list[Gluing], list[PairClass]]:
    """One covering: chain ``height`` copies of the cells along class ``which``.

    Every member pair of the class is glued in parallel: minus on copy j
    meets plus on copy j+1.  Other classes multiply into all copies; the
    glued class keeps one dangling (plus@first, minus@last) per member.
    The step works on plain lists and validates nothing: gluings are only
    ever added, so the one polytope built from the last step checks the
    gluings of every step.
    """
    ncells = len(cells)
    require_cells(height * ncells, "covering")
    new_gluings = [
        (_shift_ref(a, j, ncells), _shift_ref(b, j, ncells))
        for j in range(height)
        for a, b in gluings
    ]
    for plus, minus in classes[which]:
        for j in range(height - 1):
            new_gluings.append(
                (_shift_ref(minus, j, ncells), _shift_ref(plus, j + 1, ncells))
            )
    new_classes: list[PairClass] = []
    for r, cls in enumerate(classes):
        if r == which:
            new_classes.append(
                tuple(
                    (_shift_ref(plus, 0, ncells), _shift_ref(minus, height - 1, ncells))
                    for plus, minus in cls
                )
            )
        else:
            new_classes.append(
                tuple(
                    (_shift_ref(plus, j, ncells), _shift_ref(minus, j, ncells))
                    for j in range(height)
                    for plus, minus in cls
                )
            )
    return cells * height, new_gluings, new_classes


def covering(
    P: ColoredPolytope,
    pair: tuple[FaceRef, FaceRef],
    height: int | None = None,
) -> ColoredPolytope:
    """Covering of P with respect to one boundary pair.

    ``height`` defaults to the group order.  The result's chain is
    height times P's chain, and all other boundary pairs appear height
    times over.
    """
    if height is None:
        height = P.group.order
    if pair not in P.boundary_pairs():
        raise ValueError(f"{pair} is not a boundary pair of the polytope")
    cells, gluings, _ = _covering_step(
        list(P.cells), list(P.gluings), [(pair,)], 0, height
    )
    return ColoredPolytope(P.group, P.degree, cells, gluings)


def _canonical_pairs(P: ColoredPolytope) -> tuple[tuple[FaceRef, FaceRef], ...]:
    """P's boundary pairs sorted by plus-face generator, then reference."""

    def key(pair: tuple[FaceRef, FaceRef]):
        return (tuple(e.residues for e in P.face_gen(*pair[0])), pair)

    return tuple(sorted(P.boundary_pairs(), key=key))


@dataclass(frozen=True)
class Tower:
    """A finished tower of coverings.

    Every height is the group order, so ``copies`` = |G|^s with s the
    number of pair classes.  ``result`` is the one polytope built from
    the last covering step, and ``labeling`` its identity endowment,
    made once for the dangling-label check.  ``dangling`` lists the
    surviving boundary pairs of the result, per original class.
    """

    base: ColoredPolytope
    pair_sequence: tuple[tuple[FaceRef, FaceRef], ...]
    result: ColoredPolytope
    copies: int
    heights: tuple[int, ...]
    dangling: tuple[PairClass, ...]
    labeling: VertexLabeling


def _face_labels(
    Q: ColoredPolytope, labeling: VertexLabeling, ref: FaceRef
) -> list[GroupElement]:
    """Labels of a face's n vertices: the cell's, skipping vertex ref[1]."""
    cell, i = ref
    return [
        labeling.labels[Q.vertex_class(cell, j if j < i else j + 1)]
        for j in range(Q.degree)
    ]


def _pair_labels_agree(
    Q: ColoredPolytope, labeling: VertexLabeling, plus: FaceRef, minus: FaceRef
) -> bool:
    return _face_labels(Q, labeling, plus) == _face_labels(Q, labeling, minus)


def tower(
    P: ColoredPolytope,
    pairs: Sequence[tuple[FaceRef, FaceRef]] | None = None,
) -> Tower:
    """Tower of coverings of P over the given boundary pairs, in order.

    Pairs default to all of P's boundary pairs in canonical generator
    order, and every pair gets height |G|.  The covering steps chain
    plain cell and gluing lists; one polytope is built and validated at
    the end, and endowed once with identity base labels.  The crossing
    holonomy of a pair raised to |G| is the identity in an abelian
    group, so every dangling pair of the result carries equal vertex
    labels under that endowment; that is verified, and a mismatch raises
    ColoringError.  With no pairs the result is P itself, endowed.
    ``bounding_chain`` does not build towers; it takes the same labeled
    chain from ``tower_labeled_cells``.
    """
    pairs = _canonical_pairs(P) if pairs is None else tuple(pairs)
    e = P.group.identity
    if not pairs:
        return Tower(P, (), P, 1, (), (), P.endow(e))
    order = P.group.order
    cells, gluings = list(P.cells), list(P.gluings)
    classes: list[PairClass] = [(pair,) for pair in pairs]
    for r in range(len(pairs)):
        cells, gluings, classes = _covering_step(
            cells, gluings, classes, r, order
        )
    Q = ColoredPolytope(P.group, P.degree, cells, gluings)
    labeling = Q.endow(e)
    for r, cls in enumerate(classes):
        if not all(
            _pair_labels_agree(Q, labeling, plus, minus) for plus, minus in cls
        ):
            raise ColoringError(
                f"dangling labels of pair {r} disagree; coloring bug"
            )
    return Tower(
        base=P,
        pair_sequence=pairs,
        result=Q,
        copies=order ** len(pairs),
        heights=(order,) * len(pairs),
        dangling=tuple(classes),
        labeling=labeling,
    )


def tower_labeled_cells(
    P: ColoredPolytope,
) -> tuple[
    int,
    tuple[tuple[FaceRef, FaceRef], ...],
    list[tuple[tuple[GroupElement, ...], int]],
]:
    """The labeled chain of ``tower(P)``, from P alone.

    Returns (copies, pairs, cells): the tower's |G|^s copies, its pairs in
    canonical order, and (vertex labels, signed multiplicity) cells whose
    sums per label tuple are those of ``polytope_labeled_cells`` over the
    tower.  P must be connected, as every assembled polytope is.

    P is endowed once with identity base labels L.  Pair r crosses from
    its plus face to its minus face with holonomy hol_r = L(minus vertex)
    * L(plus vertex)^-1, the same at every face vertex; the tower's copy
    (j_1..j_s) is P labeled by t * L with t = hol_1^j_1 ... hol_s^j_s, and
    hol_r^|G| = e is the dangling-label fact ``tower`` verifies.  Both are
    checked here, and a failure raises ColoringError.  The multiplicity
    of t counts its copies, the convolution over the pairs of the powers
    hol_r^0..hol_r^(|G|-1).  Only the distinct translations are built, and
    they count against the cell cap as the tower's cells.

    >>> from rhoforge.groups import cyclic
    >>> from rhoforge.polytopes import octagon_polytope
    >>> g = cyclic(3).element([1])
    >>> copies, pairs, cells = tower_labeled_cells(octagon_polytope(g, g, g, g))
    >>> copies, len(pairs), len(cells)
    (81, 4, 18)
    >>> sorted({sign for _, sign in cells})
    [-27, 27]
    """
    if len(P.components) != 1:
        raise ValueError(
            f"tower_labeled_cells needs a connected polytope, got "
            f"{len(P.components)} components"
        )
    e, order = P.group.identity, P.group.order
    pairs = _canonical_pairs(P)
    labeling = P.endow(e)
    shifts = {e: 1}
    for r, (plus, minus) in enumerate(pairs):
        crossings = {
            lm * ~lp
            for lp, lm in zip(
                _face_labels(P, labeling, plus), _face_labels(P, labeling, minus)
            )
        }
        if len(crossings) != 1:
            raise ColoringError(
                f"pair {r} has no single crossing holonomy; coloring bug"
            )
        (hol,) = crossings
        if hol**order != e:
            raise ColoringError(
                f"dangling labels of pair {r} disagree; coloring bug"
            )
        powers = [hol**j for j in range(order)]
        convolved: dict[GroupElement, int] = {}
        for t, count in shifts.items():
            for h in powers:
                k = t * h
                convolved[k] = convolved.get(k, 0) + count
        shifts = convolved
    require_cells(len(shifts) * len(P.cells), "tower")
    base = [
        (labeling.cell_labels(c), cell.sign) for c, cell in enumerate(P.cells)
    ]
    cells = [
        (tuple(t * label for label in labels), sign * count)
        for t, count in shifts.items()
        for labels, sign in base
    ]
    return order ** len(pairs), pairs, cells


# -- simplicial cylinders ---------------------------------------------


@dataclass(frozen=True)
class CylinderResult:
    """Prism chain between a labeled chain and its degenerate shadow."""

    chain: BarChain  # degree n+1
    top: BarChain  # the labeled chain itself, degree n
    bottom: BarChain  # identity-labeled shadow, degree n


LabeledCells = Sequence[tuple[Sequence[GroupElement], int]]


def _cylinder_terms(cells: LabeledCells) -> Iterator[tuple[Gen, int]]:
    """Signed prism generators of every (vertex labels, sign) cell.

    Term i of labels (h_0, ..., h_n) is (e,)*i + (h_i,) + q[i:] with
    q = hom_to_bar(labels), so a cell costs n multiplications.
    """
    for labels, sign in cells:
        if not labels:
            raise ValueError("labels must cover at least one vertex")
        e = labels[0].group.identity
        q = hom_to_bar(labels)
        for i in range(len(labels)):
            yield (e,) * i + (labels[i],) + q[i:], sign if i % 2 == 0 else -sign


def cylinder_cell(labels: Sequence[GroupElement], sign: int = 1) -> BarChain:
    """Prism chain of one signed cell with ordered vertex labels.

    For labels (h_0, ..., h_n) the cylinder is the alternating sum over
    i of the simplex with vertex labels (e, ..., e, h_i, ..., h_n), the
    identity repeated i+1 times; via consecutive quotients that is the
    generator [e, ..., e, h_i, g_{i+1}, ..., g_n] of degree n+1.
    """
    labels = tuple(labels)
    terms = list(_cylinder_terms([(labels, sign)]))
    return BarChain.from_terms(labels[0].group, len(labels), terms)


def cylinder(cells: LabeledCells) -> CylinderResult:
    """Cylinder of a labeled chain: a list of (vertex labels, sign) cells.

    The cylinder is linear in the labeled chain, so the signs of equal
    label tuples are summed first and each distinct labeled cell is
    taken once; the cells of a tower repeat a few label tuples many
    times over.
    """
    summed: dict[tuple[GroupElement, ...], int] = {}
    for labels, sign in cells:
        labels = tuple(labels)
        summed[labels] = summed.get(labels, 0) + sign
    if not summed:
        raise ValueError("empty labeled chain")
    first = next(iter(summed))
    group, n = first[0].group, len(first) - 1
    distinct = [(labels, sign) for labels, sign in summed.items() if sign]
    chain = BarChain.from_terms(group, n + 1, _cylinder_terms(distinct))
    top = BarChain.from_terms(
        group, n, ((hom_to_bar(labels), sign) for labels, sign in distinct)
    )
    bottom_coef = sum(summed.values())
    bottom = BarChain(group, n, {(group.identity,) * n: bottom_coef})
    return CylinderResult(chain=chain, top=top, bottom=bottom)


def cell_face_labels(
    labels: Sequence[GroupElement], i: int
) -> tuple[GroupElement, ...]:
    """Labels inherited by face i: drop the i-th vertex."""
    return tuple(labels[:i]) + tuple(labels[i + 1 :])


def cylinder_boundary_defect(cells: LabeledCells) -> BarChain:
    """d(Cyl(P)) - (P - E - Cyl(dP with inherited labels)); zero when the
    prism identity holds.  Exposed so tests can assert exactness."""
    res = cylinder(cells)
    faces = (
        (cell_face_labels(labels, i), sign if i % 2 == 0 else -sign)
        for labels, sign in cells
        for i in range(len(labels))
    )
    face_cylinders = BarChain.from_terms(
        res.top.group, res.top.degree, _cylinder_terms(faces)
    )
    return res.chain.boundary() - (res.top - res.bottom - face_cylinders)


def polytope_labeled_cells(
    P: ColoredPolytope, labeling: VertexLabeling
) -> list[tuple[tuple[GroupElement, ...], int]]:
    return [
        (labeling.cell_labels(c), P.cells[c].sign) for c in range(len(P.cells))
    ]


def boundary_cylinder_sum(P: ColoredPolytope, labeling: VertexLabeling) -> BarChain:
    """Sum of face cylinders, the correction term of the prism identity.

    Each face of a labeled n-cell inherits n vertex labels, so its
    cylinder lives in degree n.  Over a full tower this sum vanishes
    identically: glued faces cancel in pairs because they share vertex
    classes, and dangling pairs cancel because their labels agree.
    """
    faces = (
        (cell_face_labels(labeling.cell_labels(c), i), P.induced_sign(c, i))
        for c, i in P.unglued_faces()
    )
    return BarChain.from_terms(P.group, P.degree, _cylinder_terms(faces))


# -- the bounding chain -----------------------------------------------


@dataclass(frozen=True)
class PolytopeReport:
    cells: int
    pair_count: int
    copies: int
    heights: tuple[int, ...]


@dataclass(frozen=True)
class BoundingResult:
    """Chain u with d(u) = multiplicity * (cycle - shadow), verified exactly.

    ``shadow`` is the sum of signs times the all-identity generator; it
    vanishes whenever the decomposition's signs cancel.  ``bound`` is the
    a-priori complexity bound (n+1) * |G|^((n+1)|C|/2) * |C|.
    """

    u: BarChain
    multiplicity: int
    cycle: BarChain
    shadow: BarChain
    cells: int
    bound: int
    complexity: int
    polytopes: tuple[PolytopeReport, ...] = field(default=())

    @property
    def verified(self) -> bool:
        return self.u.boundary() == self.multiplicity * (self.cycle - self.shadow)


def lemma_bound(n: int, group: Union[FiniteAbelianGroup, int], c_size: int) -> int:
    """(n+1) * |G|^((n+1)*|C|/2) * |C|; the exponent is always integral
    for cycles since their (n+1)*|C| faces pair up."""
    order = group if isinstance(group, int) else group.order
    total_faces = (n + 1) * c_size
    if total_faces % 2:
        raise ValueError("odd face count; |C| is not the size of a cycle")
    return (n + 1) * order ** (total_faces // 2) * c_size


def bounding_chain(C: CellsInput) -> BoundingResult:
    """Build u with d(u) = N * (C - E) by towers and cylinders.

    Pipeline: assemble the cycle's cells into polytopes; take each one's
    tower labeled chain from copy translations (``tower_labeled_cells``,
    which builds no tower: one endowment of the polytope, and its labeled
    cells once per distinct translation, counted against the cell cap);
    take the cylinder of each labeled chain, equal labeled cells summed
    first; rescale per-polytope cylinders to the common multiplicity
    N = lcm of the tower copy counts and sum.  The boundary identity is
    verified by exact chain arithmetic before returning (the ``verified``
    property re-runs it).
    """
    group, degree, cells = as_cells(C)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    cycle_chain = BarChain.from_terms(
        group, degree, ((cell.gen, cell.sign) for cell in cells)
    )
    if not cycle_chain.boundary().is_zero():
        raise NotACycleError("input chain has nonzero boundary")
    e = group.identity
    sign_total = sum(cell.sign for cell in cells)
    shadow = BarChain(
        group,
        degree,
        {(e,) * degree: sign_total} if sign_total else {},
        _validate=False,
    )
    if not cells:
        return BoundingResult(
            u=BarChain.zero(group, degree + 1),
            multiplicity=1,
            cycle=cycle_chain,
            shadow=shadow,
            cells=0,
            bound=0,
            complexity=0,
        )

    polys = assemble_polytopes(cells)
    chains = [tower_labeled_cells(P) for P in polys]
    multiplicity = math.lcm(*(copies for copies, _, _ in chains))
    terms: list[tuple[Gen, int]] = []
    for copies, _, labeled in chains:
        cyl = cylinder(labeled)
        scale = multiplicity // copies
        terms.extend((gen, scale * coef) for gen, coef in cyl.chain.terms.items())
    u = BarChain.from_terms(group, degree + 1, terms)
    reports = [
        PolytopeReport(
            cells=len(P.cells),
            pair_count=len(pairs),
            copies=copies,
            heights=(group.order,) * len(pairs),
        )
        for P, (copies, pairs, _) in zip(polys, chains)
    ]
    result = BoundingResult(
        u=u,
        multiplicity=multiplicity,
        cycle=cycle_chain,
        shadow=shadow,
        cells=len(cells),
        bound=lemma_bound(degree, group, len(cells)),
        complexity=u.complexity(),
        polytopes=tuple(reports),
    )
    if not result.verified:
        raise AssertionError(
            "bounding chain failed exact verification; construction bug"
        )
    return result


# -- headline constants ----------------------------------------------


@dataclass(frozen=True)
class Thm11Constant:
    """Catalan factor times group order, with the dimension constant left
    symbolic (the source never assigns it a value)."""

    k: int
    catalan: int
    group_order: int
    symbol: str

    @property
    def coefficient(self) -> int:
        return self.catalan * self.group_order

    def __str__(self) -> str:
        return f"{self.coefficient} * {self.symbol} * Delta(M)"


def catalan_number(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def thm11_constant(k: int, group: Union[FiniteAbelianGroup, int]) -> Thm11Constant:
    if k < 1:
        raise ValueError("k must be >= 1")
    order = group if isinstance(group, int) else group.order
    return Thm11Constant(
        k=k,
        catalan=catalan_number(k),
        group_order=order,
        symbol=f"C_{2 * k - 1}",
    )
