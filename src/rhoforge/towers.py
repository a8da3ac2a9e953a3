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
holonomies raised to the copy's coordinates.  The translations run over
the holonomy subgroup H those crossings generate, each hit by |G|^s/|H|
of the |G|^s copies, so ``tower_labeled_cells`` gives that chain as P's
labeled cells once per element of H, each sign times |G|^s/|H|, and the
bounding path never builds the tower.

The cylinder turns a labeled signed cell into a degree n+1 prism chain
joining it to its fully degenerate shadow.  It is linear, so the signs of
equal labeled cells are summed first and each distinct one is taken once.
A cycle's bounding chain is one cylinder: of the tower labeled chains of
all its assembled polytopes, concatenated, each sign scaled by N over
that polytope's copy count.  Its boundary is N * (C - E).  Assembly is
the one check that the input is a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

from .bar import BarChain, Gen, hom_to_bar
# its builders raise ResourceCapError, through require_cells, over the cap
from .cap import ResourceCapError, require_cells, within_cap
from .groups import FiniteAbelianGroup, GroupElement
from .polytopes import (
    CellsInput,
    ColoredCell,
    ColoredPolytope,
    ColoringError,
    FaceRef,
    VertexLabeling,
    as_cells,
    assemble_polytopes,
)

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
    labeling: VertexLabeling, ref: FaceRef
) -> tuple[GroupElement, ...]:
    """Labels of a face's n vertices: the cell's, skipping vertex ref[1]."""
    cell, i = ref
    labels = labeling.cell_labels(cell)
    return labels[:i] + labels[i + 1 :]


def _pair_labels_agree(
    labeling: VertexLabeling, plus: FaceRef, minus: FaceRef
) -> bool:
    return _face_labels(labeling, plus) == _face_labels(labeling, minus)


def tower(
    P: ColoredPolytope,
    pairs: Sequence[tuple[FaceRef, FaceRef]] | None = None,
) -> Tower:
    """Tower of coverings of P over the given boundary pairs, in order.

    Pairs default to all of P's boundary pairs in ``boundary_pairs``
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
    pairs = tuple(P.boundary_pairs() if pairs is None else pairs)
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
            _pair_labels_agree(labeling, plus, minus) for plus, minus in cls
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


def _holonomies(
    labeling: VertexLabeling,
    pairs: Sequence[tuple[FaceRef, FaceRef]],
) -> list[GroupElement]:
    """Each pair's crossing holonomy L(minus vertex) * L(plus vertex)^-1,
    read at the first face vertex."""
    return [
        _face_labels(labeling, minus)[0] * ~_face_labels(labeling, plus)[0]
        for plus, minus in pairs
    ]


def _coset_closure(
    identity: GroupElement, generators: Sequence[GroupElement]
) -> list[GroupElement]:
    """The subgroup H the generators span, grown by whole cosets.

    For each generator g not yet in H, H is followed by its cosets
    H*g, H*g^2, ... up to the first power of g that lies in H.  Every
    element of H but the identity costs one product, and nothing else
    does: |H| - 1 products in all.

    >>> from rhoforge.groups import cyclic
    >>> G = cyclic(6)
    >>> H = _coset_closure(G.identity, [G.element([2]), G.element([3])])
    >>> [t.residues[0] for t in H]
    [0, 2, 4, 3, 5, 1]
    """
    elements = [identity]
    members = {identity}
    for g in generators:
        rest = elements[1:]  # H before g, but its identity
        power = g
        while power not in members:
            coset = [power, *(t * power for t in rest)]
            elements.extend(coset)
            members.update(coset)
            power = power * g
    return elements


def _subgroup_order(
    group: FiniteAbelianGroup, generators: Sequence[GroupElement]
) -> int:
    """|H| for H spanned by ``generators``, without listing H.

    G is Z^k over the columns of diag(moduli), so G/H is Z^k over the
    columns of [diag(moduli) | generator residues], and its order is the
    product of that matrix's Smith invariants (Cohen, *A Course in
    Computational Algebraic Number Theory*, 1993, section 2.4).  The
    Smith form is pure Python and imported here, on the one path that
    needs it.
    """
    from .smith import smith_normal_form

    k = len(group.moduli)
    entries = {(i, i): m for i, m in enumerate(group.moduli)}
    for j, g in enumerate(generators):
        for i, r in enumerate(g.residues):
            entries[i, k + j] = r
    quotient = math.prod(smith_normal_form(entries).invariant_factors)
    return group.order // quotient


def tower_labeled_cells(
    P: ColoredPolytope,
) -> tuple[
    int,
    tuple[tuple[FaceRef, FaceRef], ...],
    list[tuple[tuple[GroupElement, ...], int]],
]:
    """The labeled chain of ``tower(P)``, from P alone.

    Returns (copies, pairs, cells): the tower's |G|^s copies, its pairs in
    ``boundary_pairs`` order, and (vertex labels, signed multiplicity)
    cells whose sums per label tuple are those of ``polytope_labeled_cells``
    over the tower.  P must be connected, as every assembled polytope is.

    P is endowed once with identity base labels L.  Pair r crosses from
    its plus face to its minus face with holonomy hol_r = L(minus vertex)
    * L(plus vertex)^-1, read at the first face vertex; the tower's copy
    (j_1..j_s) is P labeled by t * L with t = hol_1^j_1 ... hol_s^j_s.
    Those t run over the holonomy subgroup H = <hol_1, ..., hol_s>, each
    hit by |G|^s / |H| copies, so the cells are P's labeled cells once per
    element of H, each sign times |G|^s / |H|, in the order
    ``_coset_closure`` lists H.  That costs O(|H|·|C|) for |C| cells.

    H's elements count against the cell cap as the tower's cells, before
    H is built: when |G|·|C| is within the cap, H is too; otherwise |H|
    is counted from a Smith normal form (``_subgroup_order``).
    ``bounding_chain`` verifies the chain it builds from these cells
    exactly.

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
    group, ncells = P.group, len(P.cells)
    pairs = tuple(P.boundary_pairs())
    labeling = P.endow(group.identity)
    holonomies = _holonomies(labeling, pairs)
    if not within_cap(group.order * ncells):
        # H may be as large as G: count it before building it
        require_cells(_subgroup_order(group, holonomies) * ncells, "tower")
    subgroup = _coset_closure(group.identity, holonomies)
    copies = group.order ** len(pairs)
    count = copies // len(subgroup)
    base = polytope_labeled_cells(P, labeling)
    cells = [
        (tuple(t * label for label in labels), sign * count)
        for t in subgroup
        for labels, sign in base
    ]
    return copies, pairs, cells


# -- simplicial cylinders ---------------------------------------------


@dataclass(frozen=True)
class CylinderResult:
    """The prism chain alone; the benchmark's tracer reads ``.chain``."""

    chain: BarChain  # degree n+1


LabeledCells = Sequence[tuple[Sequence[GroupElement], int]]


def _prism_terms(
    labels: Sequence[GroupElement], sign: int
) -> Iterator[tuple[Gen, int]]:
    """Signed prism generators of one cell.

    The prism of labels (h_0, ..., h_n) is the alternating sum over i of
    the simplex labeled (e, ..., e, h_i, ..., h_n), e repeated i+1 times.
    Its term i is (e,)*i + (h_i,) + q[i:], where q = hom_to_bar(labels).
    """
    q = hom_to_bar(labels)
    e = labels[0].group.identity
    for i in range(len(labels)):
        yield (e,) * i + (labels[i],) + q[i:], sign if i % 2 == 0 else -sign


def cylinder(cells: LabeledCells) -> CylinderResult:
    """Cylinder of a labeled chain: a list of (vertex labels, sign) cells.

    The cylinder is linear in the labeled chain, so the signs of equal
    label tuples are summed first and each distinct labeled cell is
    taken once; the cells of a tower repeat a few label tuples many
    times over.  Only the prism chain is returned: no path reads the
    labeled chain or its shadow at the prism's two ends.
    """
    summed: dict[tuple[GroupElement, ...], int] = {}
    for labels, sign in cells:
        labels = tuple(labels)
        if not labels:
            raise ValueError("labels must cover at least one vertex")
        summed[labels] = summed.get(labels, 0) + sign
    if not summed:
        raise ValueError("empty labeled chain")
    first = next(iter(summed))
    chain = BarChain.from_terms(
        first[0].group,
        len(first),
        (
            term
            for labels, sign in summed.items()
            if sign
            for term in _prism_terms(labels, sign)
        ),
    )
    return CylinderResult(chain=chain)


def polytope_labeled_cells(
    P: ColoredPolytope, labeling: VertexLabeling
) -> list[tuple[tuple[GroupElement, ...], int]]:
    return [
        (labeling.cell_labels(c), P.cells[c].sign) for c in range(len(P.cells))
    ]


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
    ``identity_holds`` is the boundary identity as ``bounding_chain``
    decided it, from the one boundary of u it computes; ``verified``
    reads it and computes nothing.
    """

    u: BarChain
    multiplicity: int
    cycle: BarChain
    shadow: BarChain
    cells: int
    bound: int
    complexity: int
    identity_holds: bool
    polytopes: tuple[PolytopeReport, ...] = field(default=())

    @property
    def verified(self) -> bool:
        return self.identity_holds


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

    Pipeline: assemble the cycle's cells into polytopes, which is the
    check that C is a cycle; take each one's tower labeled chain from
    its holonomy subgroup (``tower_labeled_cells``, which builds no tower);
    scale each chain's signs by N / copies, with N = lcm of the tower
    copy counts; take one cylinder of the concatenated chain, equal
    labeled cells summed first.  A chain C expands to its complexity in
    cells, counted against the cell cap before the expansion.  The
    boundary identity is decided once, by exact chain arithmetic on the
    one boundary of u computed, and stored in the result, whose
    ``verified`` property reads it; a failure raises here.
    """
    if isinstance(C, BarChain):
        require_cells(C.complexity(), "cell decomposition")
    group, degree, cells = as_cells(C)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    cycle_chain = BarChain.from_terms(
        group, degree, ((cell.gen, cell.sign) for cell in cells)
    )
    sign_total = sum(cell.sign for cell in cells)
    shadow = BarChain(group, degree, {(group.identity,) * degree: sign_total})
    polys = assemble_polytopes(cells, chain=cycle_chain)
    chains = [tower_labeled_cells(P) for P in polys]
    # lcm() of nothing is 1: the empty cycle is bounded by u = 0
    multiplicity = math.lcm(*(copies for copies, _, _ in chains))
    scaled = [
        (labels, sign * (multiplicity // copies))
        for copies, _, labeled in chains
        for labels, sign in labeled
    ]
    u = cylinder(scaled).chain if scaled else BarChain(group, degree + 1)
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
        identity_holds=(
            u.boundary() == multiplicity * (cycle_chain - shadow)
        ),
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
