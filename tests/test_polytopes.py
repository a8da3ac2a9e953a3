import random
import time
from collections import Counter, deque

import pytest

from rhoforge.bar import BarChain, gen_boundary, hom_to_bar
from rhoforge.groups import FiniteAbelianGroup, GroupElement, cyclic
from rhoforge.polytopes import (
    ColoredCell,
    ColoredPolytope,
    ColoringError,
    NotACycleError,
    assemble_polytopes,
    as_cells,
    octagon_cells,
    octagon_polytope,
)


def z2_4_generators():
    G = FiniteAbelianGroup([2, 2, 2, 2])
    return (
        G.element([1, 0, 0, 0]),
        G.element([0, 1, 0, 0]),
        G.element([0, 0, 1, 0]),
        G.element([0, 0, 0, 1]),
    )


def test_octagon_chain_is_cycle():
    a, b, c, d = z2_4_generators()
    C = octagon_polytope(a, b, c, d).chain()
    assert C.boundary().is_zero()


def test_octagon_polytope_structure():
    a, b, c, d = z2_4_generators()
    P = octagon_polytope(a, b, c, d)
    assert len(P.cells) == 6
    assert len(P.gluings) == 5
    assert P.vertex_count == 8
    assert len(P.components) == 1
    assert P.chain() == BarChain.from_terms(
        a.group, 2, ((cell.gen, cell.sign) for cell in octagon_cells(a, b, c, d))
    )


def test_octagon_coloring_and_labels():
    a, b, c, d = z2_4_generators()
    G = a.group
    P = octagon_polytope(a, b, c, d)
    assert P.check_coloring()
    lab = P.endow(G.identity)
    e = G.identity
    expected = (e, a, a * b, a * b * c, a * b, b, b * ~d, ~d)
    assert lab.labels == expected
    assert lab.check()


def test_octagon_labels_translate():
    a, b, c, d = z2_4_generators()
    G = a.group
    P = octagon_polytope(a, b, c, d)
    k = a * c
    shifted = P.endow(k)
    base = P.endow(G.identity)
    assert shifted.labels == base.translate(k).labels
    assert shifted.check()


@pytest.mark.parametrize("moduli", [[2], [3], [4], [5], [2, 2]])
def test_identity_endowment_takes_no_products(moduli, monkeypatch):
    G = FiniteAbelianGroup(moduli)
    g = G.element([1] + [0] * (len(moduli) - 1))
    P = octagon_polytope(g, g, g, g)
    # a mapping base translates each label: the product route
    translated = P.endow({0: G.identity}).labels
    calls = []
    mul = GroupElement.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(GroupElement, "__mul__", counted)
    lab = P.endow(P.group.identity)
    assert calls == []
    assert lab.labels == translated


def test_octagon_boundary_pairs():
    a, b, c, d = z2_4_generators()
    P = octagon_polytope(a, b, c, d)
    pairs = P.boundary_pairs()
    assert len(pairs) == 4
    labels = sorted(
        tuple(e.residues for e in P.face_gen(*plus)) for plus, _ in pairs
    )
    assert labels == sorted(
        tuple(e.residues for e in (g,)) for g in (a, b, c, d)
    )
    for plus, minus in pairs:
        assert P.face_gen(*plus) == P.face_gen(*minus)
        assert P.induced_sign(*plus) == 1
        assert P.induced_sign(*minus) == -1


def test_single_cell_labels():
    G = cyclic(7)
    g1, g2, g3 = G.element([1]), G.element([2]), G.element([3])
    P = ColoredPolytope(G, 3, [ColoredCell((g1, g2, g3), 1)])
    lab = P.endow(G.identity)
    e = G.identity
    assert lab.cell_labels(0) == (e, g1, g1 * g2, g1 * g2 * g3)
    assert hom_to_bar(lab.cell_labels(0)) == (g1, g2, g3)


def test_coloring_failure_fixture():
    # two triangles glued along both matching faces force g*g = e
    G = cyclic(3)
    g = G.element([1])
    cells = [ColoredCell((g, g), 1), ColoredCell((g, g), -1)]
    P = ColoredPolytope(G, 2, cells, [((0, 0), (1, 2)), ((0, 2), (1, 0))])
    assert not P.check_coloring()
    # vertex class {(0,0), (0,2), (1,1)} reads e at (0,0) but g*g at (0,2)
    with pytest.raises(ColoringError, match="at cell 0, vertex 2$"):
        P.endow(G.identity)


def test_gluing_validation():
    G = cyclic(3)
    g = G.element([1])
    cells = [ColoredCell((g, g), 1), ColoredCell((g, g), 1)]
    # equal induced signs cannot be glued
    with pytest.raises(ValueError):
        ColoredPolytope(G, 2, cells, [((0, 0), (1, 0))])
    # a face cannot be glued twice
    cells2 = [
        ColoredCell((g, g), 1),
        ColoredCell((g, g), -1),
        ColoredCell((g, g), -1),
    ]
    with pytest.raises(ValueError):
        ColoredPolytope(G, 2, cells2, [((0, 0), (1, 2)), ((0, 0), (2, 2))])


def test_assemble_octagon_over_z2():
    G = cyclic(2)
    g = G.element([1])
    cells = octagon_cells(g, g, g, g)
    polys = assemble_polytopes(cells)
    assert len(polys) == 1
    P = polys[0]
    assert len(P.cells) == 6
    assert len(P.gluings) == 5
    assert P.check_coloring()
    assert len(P.boundary_pairs()) == 4


def test_assemble_octagon_over_z3():
    G = cyclic(3)
    g = G.element([1])
    polys = assemble_polytopes(octagon_cells(g, g, g, g))
    assert len(polys) == 1
    assert len(polys[0].cells) == 6
    assert polys[0].check_coloring()
    assert len(polys[0].boundary_pairs()) == 4


def test_assemble_reassembly_oracle():
    # union of output polytope chains reproduces the input chain
    a, b, c, d = z2_4_generators()
    G = a.group
    for gens in [(a, b, c, d), (a, a, b, b), (a, b, a, b)]:
        C = octagon_polytope(*gens).chain()
        cells = octagon_cells(*gens)
        polys = assemble_polytopes(cells)
        total = BarChain(G, 2)
        for P in polys:
            total = total + P.chain()
        assert total == C
        for P in polys:
            assert P.check_coloring()


def scan_assembly(C):
    """The greedy gluing with a scan of every cell per face, as (cells, gluings)."""
    _, degree, cells = as_cells(C)
    faces = [gen_boundary(cell.gen) for cell in cells]

    def ind(c, i):
        return cells[c].sign * faces[c][i][1]

    used = [False] * len(cells)
    out = []
    for seed in range(len(cells)):
        if used[seed]:
            continue
        used[seed] = True
        members, local, gluings = [seed], {seed: 0}, []
        queue = deque((seed, i) for i in range(degree + 1))
        while queue:
            c, i = queue.popleft()
            fg, fs = faces[c][i][0], ind(c, i)
            hit = next(
                (
                    (d, j)
                    for d in range(len(cells))
                    if not used[d]
                    for j in range(degree + 1)
                    if faces[d][j][0] == fg and ind(d, j) == -fs
                ),
                None,
            )
            if hit is None:
                continue
            d, j = hit
            used[d] = True
            local[d] = len(members)
            members.append(d)
            gluings.append(((local[c], i), (local[d], j)))
            queue.extend((d, jj) for jj in range(degree + 1) if jj != j)
        out.append((tuple(cells[m] for m in members), tuple(gluings)))
    return out


def assembly_cases():
    a, b, c, d = z2_4_generators()
    for gens in [(a, b, c, d), (a, a, b, b), (a, b, a, b)]:
        yield octagon_cells(*gens)
        yield octagon_cells(*gens) + octagon_cells(a, a, b, b)
    for n in (2, 3, 4, 5):
        g = cyclic(n).element([1])
        yield octagon_cells(g, g, g, g)
        yield 3 * octagon_polytope(g, g, g, g).chain()
    g = cyclic(3).element([1])
    for k in (2, 5, 20):
        yield octagon_cells(g, g, g, g) * k
    G = cyclic(4)
    g, h = G.element([1]), G.element([2])
    yield octagon_cells(g, h, g, h) * 3 + octagon_cells(g, g, g, g) * 2


def test_assemble_matches_the_scan():
    for C in assembly_cases():
        polys = assemble_polytopes(C)
        assert [(P.cells, P.gluings) for P in polys] == scan_assembly(C)


def test_assemble_is_linear_in_the_cells():
    # the Z/3 octagon 320 times; a scan of every cell per face took 0.3 s
    g = cyclic(3).element([1])
    cells = octagon_cells(g, g, g, g) * 320
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        polys = assemble_polytopes(cells)
        best = min(best, time.perf_counter() - start)
    assert sum(len(P.cells) for P in polys) == 1920
    assert best < 0.05


def test_assemble_rejects_non_cycle():
    G = cyclic(5)
    g = G.element([1])
    with pytest.raises(NotACycleError):
        assemble_polytopes([ColoredCell((g, g), 1)])


def test_assemble_degree_one_leaves_cells_apart():
    G = cyclic(5)
    g = G.element([1])
    chain = BarChain(G, 1, {(g,): 1, (~g,): 1})
    # not a cycle? boundary of any degree-1 chain is zero, so it is
    polys = assemble_polytopes(chain)
    assert len(polys) == 2
    assert all(len(P.cells) == 1 and not P.gluings for P in polys)


def test_assemble_from_barchain_expands_coefficients():
    G = cyclic(2)
    e, g = G.identity, G.element([1])
    C = BarChain(G, 2, {(e, g): -2, (g, e): 2})
    assert C.boundary().is_zero()
    _, _, cells = as_cells(C)
    assert len(cells) == 4
    polys = assemble_polytopes(C)
    total = BarChain(G, 2)
    for P in polys:
        total = total + P.chain()
    assert total == C


@pytest.mark.parametrize("sign", [1.9, 1.0, -1.0, True, "1"])
def test_as_cells_takes_a_pair_sign_as_given(sign):
    # a (gen, sign) pair is refused as a ColoredCell with that sign is;
    # read as +1, the 1.9 cell would cancel the -1 one, and bounding_chain
    # would verify a chain that is not there
    g = cyclic(2).element([1])
    with pytest.raises(ValueError, match="sign must be"):
        as_cells([((g, g), sign), ((g, g), -1)])


def test_gluing_stability_of_coloring():
    # attaching a fresh matching cell to a colored polytope stays colored
    a, b, c, d = z2_4_generators()
    G = a.group
    P = octagon_polytope(a, b, c, d)
    plus, _ = P.boundary_pairs()[0]
    fg = P.face_gen(*plus)
    # new cell whose face 0 carries fg with induced sign -1
    x = fg[0]
    new = ColoredCell((c, x), -1)  # face 0 of -[c, x] is [x] with sign -1
    assert P.induced_sign(*plus) == 1
    Q = ColoredPolytope(
        G,
        2,
        list(P.cells) + [new],
        list(P.gluings) + [((plus[0], plus[1]), (6, 0))],
    )
    assert Q.check_coloring()


def test_polytope_json_round_trip():
    a, b, c, d = z2_4_generators()
    P = octagon_polytope(a, b, c, d)
    data = P.to_json()
    Q = ColoredPolytope.from_json(data)
    assert Q.to_json() == data
    assert Q.vertex_count == P.vertex_count
    # Q lives over a fresh group instance; compare through serialization
    assert Q.chain().to_json() == P.chain().to_json()


def test_face_index_cycle_check_matches_the_chain_boundary():
    # assembly decides "is a cycle" from its face index; the oracle is the
    # boundary of the summed chain.  Seeded signed decompositions: sums of
    # generator boundaries (cycles), with repeated generators, cancelling
    # pairs of one cell, and some with a cell dropped or its sign flipped
    rng = random.Random(27)
    verdicts = Counter()
    for G in (cyclic(2), cyclic(3), FiniteAbelianGroup([2, 2])):
        elems = list(G)
        for _ in range(80):
            degree = rng.choice([2, 3])
            gens = [
                tuple(rng.choice(elems) for _ in range(degree + 1))
                for _ in range(rng.randint(1, 3))
            ]
            gens += rng.sample(gens, rng.randint(0, len(gens)))
            cells = [
                (face, s * sign)
                for gen in gens
                for sign in [rng.choice([-1, 1])]
                for face, s in gen_boundary(gen)
            ]
            for _ in range(rng.randint(0, 2)):
                face = tuple(rng.choice(elems) for _ in range(degree))
                cells += [(face, 1), (face, -1)]
            if cells and rng.random() < 0.5:
                k = rng.randrange(len(cells))
                if rng.random() < 0.5:
                    del cells[k]
                else:
                    cells[k] = (cells[k][0], -cells[k][1])
            if not cells:
                continue
            rng.shuffle(cells)
            chain = BarChain.from_terms(G, degree, cells)
            cycle = chain.boundary().is_zero()
            try:
                assemble_polytopes(cells)
                assembled = True
            except NotACycleError:
                assembled = False
            _, _, sorted_cells = as_cells(cells)
            try:
                assemble_polytopes(sorted_cells, chain=chain)
                given = True
            except NotACycleError:
                given = False
            assert assembled == given == cycle
            verdicts[degree, cycle] += 1
    assert min(verdicts[d, c] for d in (2, 3) for c in (True, False)) >= 20
