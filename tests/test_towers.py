import random

import pytest

from rhoforge.bar import BarChain, hom_to_bar
from rhoforge.groups import FiniteAbelianGroup, cyclic
from rhoforge.polytopes import (
    NotACycleError,
    assemble_polytopes,
    octagon_cells,
    octagon_chain,
    octagon_polytope,
)
from rhoforge.towers import (
    ResourceCapError,
    boundary_cylinder_sum,
    bounding_chain,
    catalan_number,
    cell_cap,
    covering,
    cylinder,
    cylinder_boundary_defect,
    cylinder_cell,
    lemma_bound,
    polytope_labeled_cells,
    thm11_constant,
    tower,
)


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
        G = cyclic(4)
        g = G.element([1])
        P = octagon_polytope(g, g, g**2, g**3)
        lab = P.endow(G.identity)
        res = cylinder(polytope_labeled_cells(P, lab))
        assert res.top == P.chain()
        assert res.bottom.is_zero()

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
