import math
import random
from collections import Counter

import pytest

from rhoforge.bar import BarChain, gen_boundary, hom_to_bar
from rhoforge.cap import ResourceCapError, cell_cap, require_cells, within_cap
from rhoforge.groups import FiniteAbelianGroup, GroupElement, cyclic
from rhoforge.polytopes import (
    ColoredCell,
    ColoredPolytope,
    ColoringError,
    NotACycleError,
    PolytopeError,
    as_cells,
    assemble_polytopes,
    octagon_cells,
    octagon_chain,
    octagon_polytope,
)
from rhoforge.towers import (
    _coset_closure,
    _covering_step,
    _face_labels,
    _holonomies,
    _subgroup_order,
    bounding_chain,
    catalan_number,
    cylinder,
    cylinder_cell,
    lemma_bound,
    polytope_labeled_cells,
    thm11_constant,
    tower,
    tower_labeled_cells,
)


# -- oracles: covering, face labels and prism identities ------------------
#
# Only tests use these; ``test_acceptance`` imports them from here.


def covering(P, pair, height=None):
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


def cell_face_labels(labels, i):
    """Labels inherited by face i: drop the i-th vertex."""
    return tuple(labels[:i]) + tuple(labels[i + 1 :])


def labeled_chain(cells):
    """The chain of (vertex labels, sign) cells: the cylinder's top end."""
    G, n = cells[0][0][0].group, len(cells[0][0]) - 1
    return BarChain.from_terms(
        G, n, ((hom_to_bar(labels), sign) for labels, sign in cells)
    )


def degenerate_shadow(cells):
    """The cylinder's bottom end: every cell relabeled by the identity."""
    G, n = cells[0][0][0].group, len(cells[0][0]) - 1
    return BarChain.from_terms(
        G, n, [((G.identity,) * n, sum(sign for _, sign in cells))]
    )


def cylinder_boundary_defect(cells):
    """d(Cyl(P)) - (P - E - Cyl(dP with inherited labels)); zero when the
    prism identity holds."""
    top, bottom = labeled_chain(cells), degenerate_shadow(cells)
    faces = (
        (cell_face_labels(labels, i), sign if i % 2 == 0 else -sign)
        for labels, sign in cells
        for i in range(len(labels))
    )
    face_cylinders = BarChain.from_terms(
        top.group, top.degree, old_cylinder_terms(faces)
    )
    return cylinder(cells).chain.boundary() - (top - bottom - face_cylinders)


def boundary_cylinder_sum(P, labeling):
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
    return BarChain.from_terms(P.group, P.degree, old_cylinder_terms(faces))


def z2_4_octagon():
    G = FiniteAbelianGroup([2, 2, 2, 2])
    a = G.element([1, 0, 0, 0])
    b = G.element([0, 1, 0, 0])
    c = G.element([0, 0, 1, 0])
    d = G.element([0, 0, 0, 1])
    return octagon_polytope(a, b, c, d)


class TestCovering:
    def test_cell_and_pair_counts(self):
        P = z2_4_octagon()
        pairs = P.boundary_pairs()
        assert len(pairs) == 4
        Q = covering(P, pairs[0], height=3)
        assert len(Q.cells) == 18
        assert Q.chain() == 3 * P.chain()
        assert Q.check_coloring()
        # covered pair survives once, the other three appear per copy
        assert len(Q.boundary_pairs()) == 1 + 3 * 3

    def test_default_height_is_group_order(self):
        G = cyclic(5)
        g = G.element([1])
        P = octagon_polytope(g, g**2, g**3, g**4)
        Q = covering(P, P.boundary_pairs()[0])
        assert len(Q.cells) == 30
        assert Q.chain() == 5 * P.chain()

    def test_rejects_non_boundary_pair(self):
        P = z2_4_octagon()
        with pytest.raises(ValueError):
            covering(P, ((0, 0), (1, 1)))

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "10")
        assert cell_cap() == 10
        P = z2_4_octagon()
        with pytest.raises(ResourceCapError):
            covering(P, P.boundary_pairs()[0], height=2)


class TestTower:
    def test_z2_tower(self):
        G = cyclic(2)
        g = G.element([1])
        (P,) = assemble_polytopes(octagon_cells(g, g, g, g))
        t = tower(P)
        assert t.heights == (2, 2, 2, 2)
        assert t.copies == 16
        assert len(t.result.cells) == 96
        assert sum(len(cls) for cls in t.dangling) == 4 * 2**3
        assert t.result.check_coloring()
        assert len(t.result.boundary_pairs()) == 32
        # the prism correction term vanishes on a full tower
        lab = t.result.endow(G.identity)
        assert boundary_cylinder_sum(t.result, lab).is_zero()

    def test_z3_tower_counts(self):
        G = cyclic(3)
        g = G.element([1])
        (P,) = assemble_polytopes(octagon_cells(g, g, g, g))
        t = tower(P)
        assert t.heights == (G.order,) * len(t.pair_sequence)
        assert t.copies == 81
        assert len(t.result.cells) == 486
        assert sum(len(cls) for cls in t.dangling) == 4 * 3**3
        assert t.result.chain() == 81 * P.chain()

    def test_dangling_refs_are_unglued(self):
        G = cyclic(2)
        g = G.element([1])
        (P,) = assemble_polytopes(octagon_cells(g, g, g, g))
        t = tower(P)
        unglued = set(t.result.unglued_faces())
        for cls in t.dangling:
            for plus, minus in cls:
                assert plus in unglued and minus in unglued
                assert t.result.face_gen(*plus) == t.result.face_gen(*minus)
                assert (
                    t.result.induced_sign(*plus)
                    == -t.result.induced_sign(*minus)
                    == 1
                )

    def test_empty_pair_selection(self):
        P = z2_4_octagon()
        t = tower(P, [])
        assert t.copies == 1
        assert t.result is P
        assert t.labeling.polytope is P
        assert t.labeling.check()

    def test_face_glued_twice(self):
        P = z2_4_octagon()
        pair = P.boundary_pairs()[0]
        with pytest.raises(PolytopeError, match="two gluings"):
            tower(P, [pair, pair])

    def test_inconsistent_coloring(self):
        # the two-triangle fixture of test_coloring_failure_fixture has one
        # boundary pair; its tower cannot be endowed
        G = cyclic(3)
        g = G.element([1])
        cells = [ColoredCell((g, g), 1), ColoredCell((g, g), -1)]
        P = ColoredPolytope(G, 2, cells, [((0, 0), (1, 2)), ((0, 2), (1, 0))])
        assert len(P.boundary_pairs()) == 1
        with pytest.raises(ColoringError, match="contradiction"):
            tower(P)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "10")
        with pytest.raises(ResourceCapError):
            tower(z2_4_octagon())


class TestCylinder:
    def test_degree_one_hand_value(self):
        G = cyclic(6)
        g = G.element([1])
        h, top = g**2, g**5
        chain = cylinder_cell((h, top))
        expected = BarChain.single(G, (h, g**3)) - BarChain.single(
            G, (G.identity, top)
        )
        assert chain == expected
        with pytest.raises(ValueError, match="at least one vertex"):
            cylinder_cell(())
        # an empty cell is refused first or later in the chain
        for cells in ([((), 1), ((h, top), 1)], [((h, top), 1), ((), -1)]):
            with pytest.raises(ValueError, match="at least one vertex"):
                cylinder(cells)

    def test_boundary_identity_hand_value(self):
        G = cyclic(6)
        g = G.element([1])
        res = cylinder([((g**2, g**5), 1)])
        lhs = res.chain.boundary()
        rhs = (
            BarChain.single(G, (g**3,))
            - BarChain.single(G, (G.identity,))
            - BarChain.single(G, (g**5,))
            + BarChain.single(G, (g**2,))
        )
        assert lhs == rhs

    def test_boundary_identity_seeded(self):
        G = cyclic(6)
        elems = list(G)
        rng = random.Random(4)
        for _ in range(50):
            degree = rng.choice([1, 2])
            cells = [
                (
                    tuple(rng.choice(elems) for _ in range(degree + 1)),
                    rng.choice([-1, 1]),
                )
                for _ in range(rng.randint(1, 4))
            ]
            assert cylinder_boundary_defect(cells).is_zero()

    def test_top_recovers_chain(self):
        # the prism's two ends over a polytope: its own chain, and a
        # shadow whose signs cancel
        G = cyclic(4)
        g = G.element([1])
        P = octagon_polytope(g, g, g**2, g**3)
        cells = polytope_labeled_cells(P, P.endow(G.identity))
        assert labeled_chain(cells) == P.chain()
        assert degenerate_shadow(cells).is_zero()

    def test_polytope_prism_identity(self):
        # d(Cyl P) = chain(P) - E - sum of unglued face cylinders; glued
        # faces cancel pairwise because they share vertex classes.
        G = cyclic(5)
        g = G.element([1])
        P = octagon_polytope(g, g**2, g**3, g**4)
        lab = P.endow(G.identity)
        res = cylinder(polytope_labeled_cells(P, lab))
        correction = boundary_cylinder_sum(P, lab)
        assert res.chain.boundary() == P.chain() - correction


class TestBoundingChain:
    def test_z2_octagon(self):
        G = cyclic(2)
        g = G.element([1])
        res = bounding_chain(octagon_cells(g, g, g, g))
        assert res.multiplicity == 16
        assert res.shadow.is_zero()
        assert res.cycle == octagon_chain(g, g, g, g)
        assert res.u.boundary() == 16 * res.cycle
        assert res.bound == 9216
        assert res.complexity <= res.bound
        assert len(res.polytopes) == 1
        assert res.polytopes[0].pair_count == 4
        assert res.polytopes[0].copies == 16

    def test_z3_octagon(self):
        G = cyclic(3)
        g = G.element([1])
        res = bounding_chain(octagon_cells(g, g, g, g))
        assert res.multiplicity == 81
        assert res.u.boundary() == 81 * res.cycle
        assert res.complexity <= res.bound == 3 * 3**9 * 6

    def test_degree_one_with_shadow(self):
        G = cyclic(4)
        g = G.element([1])
        res = bounding_chain([((g,), 1)])
        assert res.multiplicity == 4
        e = G.identity
        shadow = BarChain.single(G, (e,))
        assert res.shadow == shadow
        assert res.u.boundary() == 4 * (BarChain.single(G, (g,)) - shadow)

    def test_degree_one_cancelling_signs(self):
        G = cyclic(4)
        g = G.element([1])
        res = bounding_chain([((g,), 1), ((g**3,), -1)])
        assert res.multiplicity == 4
        assert res.shadow.is_zero()
        assert res.u.boundary() == 4 * res.cycle

    def test_rejects_non_cycle(self):
        G = cyclic(4)
        g = G.element([1])
        with pytest.raises(NotACycleError):
            bounding_chain([((g, g), 1)])

    def test_each_tower_endowed_once(self, monkeypatch):
        # the tower's labeled chain comes from the assembled polytope: one
        # endowment of its 6 cells, and no polytope larger than it is built
        calls, built = [], []
        endow, init = ColoredPolytope.endow, ColoredPolytope.__init__

        def counted(self, base):
            calls.append(len(self.cells))
            return endow(self, base)

        def recorded(self, group, degree, cells, gluings=()):
            built.append(len(cells))
            init(self, group, degree, cells, gluings)

        monkeypatch.setattr(ColoredPolytope, "endow", counted)
        monkeypatch.setattr(ColoredPolytope, "__init__", recorded)
        G = cyclic(3)
        g = G.element([1])
        res = bounding_chain(octagon_cells(g, g, g, g))
        assert calls == [6]
        assert built and max(built) == 6
        assert len(res.polytopes) == 1
        assert res.polytopes[0].copies == 3**4

    def test_degree_three_beyond_any_tower(self):
        # d[g|g|g|g] - d[g|g^2|g|g^3] over Z/4 assembles into one polytope of
        # 10 cells and 11 pairs; its tower would have 4^11 * 10 cells
        G = cyclic(4)
        g = G.element([1])
        cells = boundary_cells((g, g, g, g), (g, g**2, g, g**3))
        res = bounding_chain(cells)
        assert res.multiplicity == 4**11
        for P in assemble_polytopes(cells):
            assert as_multiset(tower_labeled_cells(P)) == as_multiset(
                convolved_tower_labeled_cells(P)
            )
        assert [(p.cells, p.pair_count) for p in res.polytopes] == [(10, 11)]
        assert res.u.boundary() == res.multiplicity * (res.cycle - res.shadow)

    def test_barchain_input(self):
        G = cyclic(2)
        g = G.element([1])
        C = octagon_chain(g, g, g, g)
        # collapsed input: only the two surviving generators assemble
        res = bounding_chain(C)
        assert res.cycle == C
        assert res.u.boundary() == res.multiplicity * C


class TestConstants:
    def test_lemma_bound_values(self):
        assert lemma_bound(2, 2, 6) == 3 * 2**9 * 6 == 9216
        assert lemma_bound(2, cyclic(3), 6) == 354294
        with pytest.raises(ValueError):
            lemma_bound(2, 2, 5)

    def test_catalan(self):
        assert [catalan_number(k) for k in range(1, 6)] == [1, 2, 5, 14, 42]

    def test_thm11(self):
        c = thm11_constant(1, cyclic(6))
        assert c.catalan == 1
        assert c.group_order == 6
        assert c.coefficient == 6
        assert c.symbol == "C_1"
        assert "C_1" in str(c)
        c2 = thm11_constant(3, 2)
        assert c2.catalan == 5
        assert c2.symbol == "C_5"
        with pytest.raises(ValueError):
            thm11_constant(0, 2)


# -- differential oracle: the per-step pipeline this module replaced ------
#
# Test-local copies of the earlier code: every covering step built and
# validated a full polytope, labels came from sweeping all edges until
# nothing changed, and the cylinder took every cell on its own, each prism
# term through hom_to_bar of n+2 labels.


def old_covering_step(P, classes, which, height):
    ncells = len(P.cells)

    def shift(ref, copy):
        return (ref[0] + copy * ncells, ref[1])

    cells = [cell for _ in range(height) for cell in P.cells]
    gluings = []
    for j in range(height):
        for a, b in P.gluings:
            gluings.append((shift(a, j), shift(b, j)))
    for plus, minus in classes[which]:
        for j in range(height - 1):
            gluings.append((shift(minus, j), shift(plus, j + 1)))
    Q = ColoredPolytope(P.group, P.degree, cells, gluings)
    new_classes = []
    for r, cls in enumerate(classes):
        if r == which:
            new_classes.append(
                tuple((shift(plus, 0), shift(minus, height - 1)) for plus, minus in cls)
            )
        else:
            new_classes.append(
                tuple(
                    (shift(plus, j), shift(minus, j))
                    for j in range(height)
                    for plus, minus in cls
                )
            )
    return Q, new_classes


def old_propagate(P, base):
    labels = [None] * P.vertex_count
    for comp_idx, members in enumerate(P.components):
        base_vertex = P.vertex_class(members[0], 0)
        if labels[base_vertex] is None:
            labels[base_vertex] = base[comp_idx]
    changed = True
    while changed:
        changed = False
        for c, cell in enumerate(P.cells):
            for k, g in enumerate(cell.gen):
                u = P.vertex_class(c, k)
                v = P.vertex_class(c, k + 1)
                lu, lv = labels[u], labels[v]
                if lu is not None and lv is None:
                    labels[v] = lu * g
                    changed = True
                elif lu is None and lv is not None:
                    labels[u] = lv * ~g
                    changed = True
                elif lu is not None and lv is not None:
                    if lu * g != lv:
                        return labels, (c, k)
    return labels, None


def old_components(P):
    """(components, cell_component) by a depth-first walk of the gluings."""
    adj = [[] for _ in P.cells]
    for (c1, _), (c2, _) in P.gluings:
        adj[c1].append(c2)
        adj[c2].append(c1)
    comp = [-1] * len(P.cells)
    comps = []
    for start in range(len(P.cells)):
        if comp[start] >= 0:
            continue
        comp[start] = len(comps)
        members, stack = [], [start]
        while stack:
            c = stack.pop()
            members.append(c)
            for d in adj[c]:
                if comp[d] < 0:
                    comp[d] = comp[start]
                    stack.append(d)
        comps.append(tuple(sorted(members)))
    return tuple(comps), tuple(comp)


def old_endow_labels(P):
    e = P.group.identity
    labels, conflict = old_propagate(P, {i: e for i in range(len(P.components))})
    assert conflict is None
    return tuple(labels)


def old_tower(P, pairs=None):
    """(result, dangling, identity labels) of the per-step tower."""
    if pairs is None:
        pairs = sorted(
            P.boundary_pairs(),
            key=lambda pr: (tuple(e.residues for e in P.face_gen(*pr[0])), pr),
        )
    Q = P
    classes = [(pair,) for pair in pairs]
    for r in range(len(pairs)):
        Q, classes = old_covering_step(Q, classes, r, P.group.order)
    labels = old_endow_labels(Q)
    n = Q.degree
    for cls in classes:
        for plus, minus in cls:
            for j in range(n):
                vp = j if j < plus[1] else j + 1
                vm = j if j < minus[1] else j + 1
                assert (
                    labels[Q.vertex_class(plus[0], vp)]
                    == labels[Q.vertex_class(minus[0], vm)]
                )
    return Q, tuple(classes), labels


def old_cylinder_terms(cells):
    for labels, sign in cells:
        e = labels[0].group.identity
        for i in range(len(labels)):
            yield (
                hom_to_bar((e,) * (i + 1) + tuple(labels[i:])),
                sign if i % 2 == 0 else -sign,
            )


def old_labeled_cells(Q, labels):
    n = Q.degree
    return [
        (tuple(labels[Q.vertex_class(c, v)] for v in range(n + 1)), cell.sign)
        for c, cell in enumerate(Q.cells)
    ]


def old_bounding_chain(C):
    """(u, multiplicity, per-polytope old_tower results)."""
    group, degree, _ = as_cells(C)
    polys = assemble_polytopes(C)
    towers = [old_tower(P) for P in polys]
    copies = [P.group.order ** len(P.boundary_pairs()) for P in polys]
    multiplicity = math.lcm(*copies)
    terms = []
    for (Q, _, labels), k in zip(towers, copies):
        chain = BarChain.from_terms(
            group, degree + 1, old_cylinder_terms(old_labeled_cells(Q, labels))
        )
        scale = multiplicity // k
        terms.extend((gen, scale * coef) for gen, coef in chain.terms.items())
    return BarChain.from_terms(group, degree + 1, terms), multiplicity, towers


GENERATOR_IMAGES = [
    (str(order), (x,))
    for order in range(2, 7)
    for x in range(1, order)
    if math.gcd(x, order) == 1
] + [("2,2", image) for image in ((1, 0), (0, 1), (1, 1))]


@pytest.mark.parametrize(
    "group,image", GENERATOR_IMAGES, ids=[f"{g}:{i}" for g, i in GENERATOR_IMAGES]
)
def test_bounding_chain_matches_per_step_pipeline(group, image):
    G = FiniteAbelianGroup([int(m) for m in group.split(",")])
    g = G.element(image)
    cells = octagon_cells(g, g, g, g)
    res = bounding_chain(cells)
    u, multiplicity, ((Q, dangling, labels),) = old_bounding_chain(cells)
    assert res.u.terms == u.terms
    assert res.multiplicity == multiplicity
    assert res.complexity == u.complexity()
    (P,) = assemble_polytopes(cells)
    t = tower(P)
    assert t.dangling == dangling
    assert t.labeling.labels == labels
    assert t.result.gluings == Q.gluings


def summed_by_labels(cells):
    summed = {}
    for labels, sign in cells:
        summed[tuple(labels)] = summed.get(tuple(labels), 0) + sign
    return summed


def boundary_cells(*gens):
    """Explicit cells of the alternating sum of the boundaries of ``gens``."""
    return [
        (face, s * (-1) ** k)
        for k, gen in enumerate(gens)
        for face, s in gen_boundary(gen)
    ]


def crossings(P, labeling, plus, minus):
    """Every L(minus vertex) * L(plus vertex)^-1 over the pair's face."""
    return {
        lm * ~lp
        for lp, lm in zip(
            _face_labels(labeling, plus), _face_labels(labeling, minus)
        )
    }


def convolved_tower_labeled_cells(P):
    """``tower_labeled_cells`` as it was before the holonomy subgroup:
    the copy count of every translation, convolved pair by pair over the
    powers hol^0..hol^(|G|-1) of the pair's one crossing holonomy.
    Returns (copies, pairs, cells, counts)."""
    e, order = P.group.identity, P.group.order
    pairs = tuple(P.boundary_pairs())
    labeling = P.endow(e)
    shifts = {e: 1}
    for plus, minus in pairs:
        (hol,) = crossings(P, labeling, plus, minus)
        convolved = {}
        for t, count in shifts.items():
            for h in (hol**j for j in range(order)):
                convolved[t * h] = convolved.get(t * h, 0) + count
        shifts = convolved
    base = polytope_labeled_cells(P, labeling)
    cells = [
        (tuple(t * label for label in labels), sign * count)
        for t, count in shifts.items()
        for labels, sign in base
    ]
    return order ** len(pairs), pairs, cells, shifts


def as_multiset(chain):
    """(copies, pairs, cells) of a tower labeled chain, its cells as a
    multiset: ``tower_labeled_cells`` lists H in coset order, which is
    not the order of the oracles, and no report shows the order."""
    copies, pairs, cells = chain[:3]
    return copies, pairs, Counter(cells)


def generated_subgroup(G, gens):
    """Closure of ``gens`` under multiplication, as a set."""
    H = {G.identity}
    frontier = list(H)
    while frontier:
        t = frontier.pop()
        for g in gens:
            if t * g not in H:
                H.add(t * g)
                frontier.append(t * g)
    return H


THEOREM_GROUPS = [[2], [3], [4], [5], [6], [2, 2], [2, 4], [3, 3]]


def test_holonomy_subgroup_replaces_the_copy_convolution():
    # boundaries of random chains assemble into polytopes on which every
    # boundary pair crosses by one translation h with h^|G| = e, so the
    # convolved copy counts are |G|^s / |H| on each element of
    # H = <hol_1, ..., hol_s> and nothing else
    rng = random.Random(16)
    polytopes = proper = 0
    for moduli in THEOREM_GROUPS:
        G = FiniteAbelianGroup(moduli)
        elems = list(G)
        for length in (3, 4):
            for _ in range(12):
                terms = [
                    (tuple(rng.choice(elems) for _ in range(length)),
                     rng.choice([-1, 1]))
                    for _ in range(rng.randint(1, 3))
                ]
                cells = [
                    (face, s * sign)
                    for gen, sign in terms
                    for face, s in gen_boundary(gen)
                ]
                for P in assemble_polytopes(cells):
                    polytopes += 1
                    labeling = P.endow(G.identity)
                    hols = []
                    for plus, minus in P.boundary_pairs():
                        (h,) = crossings(P, labeling, plus, minus)
                        assert h**G.order == G.identity
                        hols.append(h)
                    copies, pairs, labeled, counts = (
                        convolved_tower_labeled_cells(P)
                    )
                    H = generated_subgroup(G, hols)
                    assert set(counts) == H
                    proper += 1 < len(H) < G.order
                    assert set(counts.values()) == {copies // len(H)}
                    assert as_multiset(tower_labeled_cells(P)) == as_multiset(
                        (copies, pairs, labeled)
                    )
    assert polytopes >= 192 and proper > 0


@pytest.mark.parametrize("moduli", [[2], [3], [4], [5], [6], [2, 2], [3, 3]], ids=str)
def test_bounding_chain_meets_no_coloring_contradiction(moduli):
    # assembly glues each polytope as a tree, every gluing attaching a
    # fresh cell, so endow always finds a consistent labeling: seeded
    # random boundary cycles of degrees 2 and 3 are all bounded, and
    # none raises ColoringError
    G = FiniteAbelianGroup(moduli)
    elems = list(G)
    rng = random.Random(str(moduli))
    for degree in (2, 3):
        for _ in range(12):
            gens = [
                tuple(rng.choice(elems) for _ in range(degree + 1))
                for _ in range(rng.randint(1, 3))
            ]
            assert bounding_chain(boundary_cells(*gens)).verified


# -- the holonomy subgroup: coset closure and Smith count -----------------


def powers_subgroup(G, hols):
    """H as ``tower_labeled_cells`` built it before the coset closure:
    the |G| powers of every holonomy multiplied into H, one after another."""
    subgroup = {G.identity: None}
    for hol in hols:
        powers = [hol**j for j in range(G.order)]
        subgroup = dict.fromkeys(t * h for t in subgroup for h in powers)
    return list(subgroup)


def tower_translations(P):
    """The translations of ``tower_labeled_cells``' cells, in their order:
    P's cell 0 starts at its base vertex, which is labeled e."""
    _, _, cells = tower_labeled_cells(P)
    return [cells[k][0][0] for k in range(0, len(cells), len(P.cells))]


HOLONOMY_GROUPS = [[2], [3], [4], [5], [6], [7], [2, 2], [3, 3], [4, 2]]


@pytest.mark.parametrize("moduli", HOLONOMY_GROUPS, ids=str)
def test_coset_closure_matches_the_powers_construction(moduli):
    # octagons with seeded random letters, pairwise distinct where the
    # group has four elements: the coset closure lists the H of the
    # powers construction once each, in the order of the tower's cells,
    # and the Smith count gives its order
    G = FiniteAbelianGroup(moduli)
    elems = list(G)
    rng = random.Random(27)
    for _ in range(25):
        if G.order >= 4:
            letters = rng.sample(elems, 4)
        else:
            letters = rng.choices(elems, k=4)
        P = octagon_polytope(*letters)
        hols = _holonomies(P.endow(G.identity), P.boundary_pairs())
        H = _coset_closure(G.identity, hols)
        assert len(set(H)) == len(H)
        assert set(H) == set(powers_subgroup(G, hols))
        assert _subgroup_order(G, hols) == len(H)
        assert tower_translations(P) == H
    # and on any generators, proper subgroups among them
    proper = 0
    for _ in range(40):
        gens = rng.choices(elems, k=rng.randint(0, 3))
        H = _coset_closure(G.identity, gens)
        assert set(H) == generated_subgroup(G, gens) == set(powers_subgroup(G, gens))
        assert _subgroup_order(G, gens) == len(H) == len(set(H))
        proper += 1 < len(H) < G.order
    assert proper > 0 or G.order in (2, 3, 5, 7)


def test_coset_closure_order_is_pinned():
    # H grows by whole cosets for each holonomy not yet in it: the pairs
    # cross by (0,1), e, (3,0) and (0,1), so H is {e, (0,1)} followed by
    # its cosets by (3,0), (3,0)^2 and (3,0)^3
    G = FiniteAbelianGroup([4, 2])
    e, x, y = G.identity, G.element([0, 1]), G.element([1, 0])
    P = octagon_polytope(e, x, e, y)
    hols = _holonomies(P.endow(e), P.boundary_pairs())
    assert [h.residues for h in hols] == [(0, 1), (0, 0), (3, 0), (0, 1)]
    assert [t.residues for t in tower_translations(P)] == [
        (0, 0), (0, 1), (3, 0), (3, 1), (2, 0), (2, 1), (1, 0), (1, 1),
    ]


def test_coset_closure_costs_one_product_per_element(monkeypatch):
    # |H| - 1 products, however many generators repeat, where the powers
    # construction made |G| * |H| per holonomy
    G = cyclic(1000)
    g = G.element([1])
    gens = [g**2, g, g**500, g]
    calls = []
    mul = GroupElement.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(GroupElement, "__mul__", counted)
    H = _coset_closure(G.identity, gens)
    assert len(H) == 1000
    assert len(calls) == len(H) - 1


def test_subgroup_order_counts_beyond_the_cap(monkeypatch):
    # over the cap, |H| * |C| is counted from the Smith form before H is
    # listed, and the refusal names it; within the cap H is listed as is
    monkeypatch.delenv("RHOFORGE_CELL_CAP", raising=False)
    G = cyclic(99_999_999_999)
    g = G.element([1])
    P = octagon_polytope(g, g, g, g)
    with pytest.raises(ResourceCapError, match="tower needs 599999999994 cells"):
        tower_labeled_cells(P)
    H = cyclic(6)
    h = H.element([2])
    Q = octagon_polytope(h, h, h, h)
    monkeypatch.setenv("RHOFORGE_CELL_CAP", "18")
    assert len(tower_labeled_cells(Q)[2]) == 18
    monkeypatch.setenv("RHOFORGE_CELL_CAP", "17")
    with pytest.raises(ResourceCapError, match="tower needs 18 cells, cap is 17"):
        tower_labeled_cells(Q)


def test_within_cap_is_the_comparison_require_cells_makes(monkeypatch):
    # the tower's pre-check and every builder's refusal share one boundary
    monkeypatch.setenv("RHOFORGE_CELL_CAP", "10")
    assert within_cap(10) and not within_cap(11)
    require_cells(10, "x")
    with pytest.raises(ResourceCapError, match="x needs 11 cells, cap is 10"):
        require_cells(11, "x")


def _tower_chain_cases():
    for group, image in GENERATOR_IMAGES:
        G = FiniteAbelianGroup([int(m) for m in group.split(",")])
        g = G.element(image)
        yield f"octagon {group}:{image}", octagon_cells(g, g, g, g)
    G = cyclic(3)
    g = G.element([1])
    yield "degree 3 Z/3 d[g|g|g|g]", boundary_cells((g, g, g, g))
    yield "degree 3 Z/3 d[g|g2|g|g3]", boundary_cells((g, g**2, g, g**3))
    G = cyclic(4)
    yield "degree 1 Z/4", [((G.element([1]),), 1)]


TOWER_CHAIN_CASES = list(_tower_chain_cases())


@pytest.mark.parametrize(
    "cells", [c for _, c in TOWER_CHAIN_CASES], ids=[n for n, _ in TOWER_CHAIN_CASES]
)
def test_tower_labeled_cells_match_built_tower(cells):
    # the copy translations give the built tower's labeled chain, summed
    # per label tuple, with the same copies and pair order
    for P in assemble_polytopes(cells):
        copies, pairs, labeled = tower_labeled_cells(P)
        t = tower(P)
        assert copies == t.copies
        assert pairs == t.pair_sequence
        assert summed_by_labels(labeled) == summed_by_labels(
            polytope_labeled_cells(t.result, t.labeling)
        )
        assert len(labeled) <= P.group.order * len(P.cells)
        assert as_multiset((copies, pairs, labeled)) == as_multiset(
            convolved_tower_labeled_cells(P)
        )


@pytest.mark.parametrize(
    "cells", [c for _, c in TOWER_CHAIN_CASES], ids=[n for n, _ in TOWER_CHAIN_CASES]
)
def test_boundary_pairs_sorted_by_plus_face_generator(cells):
    # towers take this order as given: plus-face residues, then reference
    for P in assemble_polytopes(cells):
        pairs = P.boundary_pairs()
        assert pairs == sorted(
            pairs,
            key=lambda pr: (tuple(e.residues for e in P.face_gen(*pr[0])), pr),
        )


def test_bounding_chain_scales_each_polytope_to_the_common_multiplicity():
    # two polytopes with unequal copy counts: u is the sum of each one's
    # cylinder scaled by N / copies
    G = cyclic(3)
    g, e = G.element([1]), G.identity
    cells = boundary_cells((g, g**2, g, g), (g**2, g, g, g), (e, e, e, e))
    res = bounding_chain(cells)
    polys = assemble_polytopes(cells)
    chains = [tower_labeled_cells(P) for P in polys]
    assert [as_multiset(chain) for chain in chains] == [
        as_multiset(convolved_tower_labeled_cells(P)) for P in polys
    ]
    copies = sorted(c for c, _, _ in chains)
    assert len(polys) >= 2 and copies[0] != copies[-1]
    assert [(p.cells, p.pair_count, p.copies) for p in res.polytopes] == [
        (len(P.cells), len(pairs), c) for P, (c, pairs, _) in zip(polys, chains)
    ]
    expected = BarChain.zero(G, 4)
    for c, _, labeled in chains:
        expected = expected + (res.multiplicity // c) * cylinder(labeled).chain
    assert res.u.terms == expected.terms
    assert res.multiplicity == 177_147
    assert res.complexity == 1_299_078


def test_tower_labeled_cells_need_a_connected_polytope():
    G = cyclic(3)
    g = G.element([1])
    P = ColoredPolytope(G, 2, [ColoredCell((g, g), 1), ColoredCell((g, g), -1)])
    assert len(P.components) == 2
    with pytest.raises(ValueError, match="connected"):
        tower_labeled_cells(P)


@pytest.mark.parametrize("count", [1, 2])
def test_z2_4_tower_matches_per_step_pipeline(count):
    P = z2_4_octagon()
    pairs = P.boundary_pairs()[:count]
    t = tower(P, pairs)
    Q, dangling, labels = old_tower(P, pairs)
    assert len(t.result.cells) == 6 * 16**count
    assert t.dangling == dangling
    assert t.labeling.labels == labels
    cells = old_labeled_cells(Q, labels)
    assert polytope_labeled_cells(t.result, t.labeling) == cells
    G = P.group
    assert cylinder(cells).chain == BarChain.from_terms(
        G, 3, old_cylinder_terms(cells)
    )


def test_cylinder_matches_per_cell_terms():
    # the seeded labeled chains of test_boundary_identity_seeded
    G = cyclic(6)
    elems = list(G)
    rng = random.Random(4)
    for _ in range(50):
        degree = rng.choice([1, 2])
        cells = [
            (
                tuple(rng.choice(elems) for _ in range(degree + 1)),
                rng.choice([-1, 1]),
            )
            for _ in range(rng.randint(1, 4))
        ]
        assert cylinder(cells).chain == BarChain.from_terms(
            G, degree + 1, old_cylinder_terms(cells)
        )
        for labels, sign in cells:
            assert cylinder_cell(labels, sign) == BarChain.from_terms(
                G, degree + 1, old_cylinder_terms([(labels, sign)])
            )


def _random_glued_polytope(rng, G, degree, size):
    """Random cells glued along random matching faces; rarely colorable."""
    elems = list(G)
    cells = [
        ColoredCell(
            tuple(rng.choice(elems) for _ in range(degree)), rng.choice([-1, 1])
        )
        for _ in range(size)
    ]
    faces = [
        (c, i, face, cells[c].sign * s)
        for c in range(size)
        for i, (face, s) in enumerate(gen_boundary(cells[c].gen))
    ]
    rng.shuffle(faces)
    free = set(range(len(faces)))
    gluings = []
    for x in range(len(faces)):
        if x not in free:
            continue
        for y in range(x + 1, len(faces)):
            if y in free and faces[y][2] == faces[x][2] and faces[y][3] == -faces[x][3]:
                free -= {x, y}
                gluings.append((faces[x][:2], faces[y][:2]))
                break
    return ColoredPolytope(G, degree, cells, gluings)


def test_propagate_matches_repeated_sweeps():
    # with random bases per component, endow gives the labels of sweeping
    # all edges until nothing changes wherever the sweeps find no
    # contradiction, and the coloring fails exactly where they find one
    rng = random.Random(11)
    conflicts = 0
    for G in (cyclic(2), cyclic(3), FiniteAbelianGroup([2, 2])):
        elems = list(G)
        for _ in range(60):
            degree, size = rng.choice([1, 2, 3]), rng.randint(1, 12)
            P = _random_glued_polytope(rng, G, degree, size)
            assert (P.components, P.cell_component) == old_components(P)
            base = {i: rng.choice(elems) for i in range(len(P.components))}
            labels, conflict = old_propagate(P, base)
            assert P.check_coloring() is (conflict is None)
            if conflict is None:
                assert P.endow(base).labels == tuple(labels)
            else:
                conflicts += 1
                with pytest.raises(ColoringError, match="contradiction"):
                    P.endow(base)
    assert conflicts > 20
