"""Structure maps, fiber products, and the hyperbolization tower."""

import hashlib
import math
from fractions import Fraction

import pytest

from rhoforge import hyperbolize
from rhoforge.cap import ResourceCapError
from rhoforge.delta import (
    boundary_simplex,
    keyed_complex,
    prism,
    simplex,
)
from rhoforge.hyperbolize import (
    ComplexOverSimplex,
    OverSimplexError,
    colored_face,
    colored_over,
    construction_count,
    degree_structure,
    fiber_product,
    hyperbolized_simplex,
    hyperbolized_sphere,
    relhyp_count,
    simplex_over_itself,
    thm12_constant,
    williams,
    z_comparison_table,
    z_formula,
)


def top_cells_onto_target(X):
    """Cells of top dimension carried by the whole target simplex."""
    full = frozenset(range(X.target_dim + 1))
    return sum(1 for S in X.carriers[X.complex.dim] if S == full)


def digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# sha256 of repr((faces, tags)) of each stage, and for the spheres also
# of the projections, carriers (as sorted tuples) and colors, taken before
# fiber_product and the delta builders went through keyed_complex
STAGE_DIGESTS = {
    1: "1e5a4451996aa8d3393abafe77a8f674e0542881a3057ec72de751974508e4eb",
    2: "b45b6f370deb650a3940aacf76cc6856c6833b2e9fa358e7c42988c504e1d0a8",
    3: "2443d6809d18018aea58226247ac56dcedeff7ee3276327d36fd91d89e313674",
}
SPHERE_DIGESTS = {
    1: "19e1232e05e77192dc43df331dce313a20d708a2153e421cc1bddbb40047984f",
    2: "eb100af96887ee85ecd104dd621c9bdf5bc2f8ca4e0cf8659401f1d7aa77a276",
}


@pytest.mark.parametrize("n", sorted(STAGE_DIGESTS))
def test_stage_digest_pinned(n):
    K = hyperbolized_simplex(n).complex
    assert digest(K.faces, K.tags) == STAGE_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(SPHERE_DIGESTS))
def test_sphere_digest_pinned(n):
    Y = hyperbolized_sphere(n)
    carriers = tuple(
        tuple(tuple(sorted(S)) for S in level) for level in Y.carriers
    )
    assert digest(
        Y.complex.faces, Y.complex.tags, Y.proj_left, Y.proj_right,
        carriers, Y.colors,
    ) == SPHERE_DIGESTS[n]


class TestStructures:
    def test_simplex_over_itself(self):
        X = simplex_over_itself(2)
        assert X.target_dim == 2
        assert X.colors is not None
        # the top cell is colored by the identity
        assert X.colors[2][0] == (0, 1, 2)
        assert X.carriers[2][0] == frozenset({0, 1, 2})
        assert top_cells_onto_target(X) == 1

    def test_carrier_shape_mismatch_rejected(self):
        K = simplex(1)
        with pytest.raises(OverSimplexError):
            ComplexOverSimplex(K, 1, ((frozenset({0}),),))

    def test_crushed_cell_rejected(self):
        K = simplex(1)
        carriers = (
            (frozenset({0}), frozenset({0})),
            (frozenset({0}),),
        )
        with pytest.raises(OverSimplexError, match="crushed"):
            ComplexOverSimplex(K, 1, carriers)

    def test_non_monotone_carrier_rejected(self):
        K = simplex(1)
        carriers = (
            (frozenset({0}), frozenset({1})),
            (frozenset({0, 2}),),
        )
        with pytest.raises(OverSimplexError, match="monotone"):
            ComplexOverSimplex(K, 2, carriers)

    def test_bad_coloring_rejected(self):
        K = simplex(1)
        # a repeated color collapses the carrier below the cell dimension
        with pytest.raises(OverSimplexError, match="crushed"):
            colored_over(K, [[(0,), (0,)], [(0, 0)]])
        carriers = (
            (frozenset({0}), frozenset({1})),
            (frozenset({0, 1}),),
        )
        with pytest.raises(OverSimplexError, match="injective"):
            ComplexOverSimplex(
                K, 1, carriers, (((0,), (1,)), ((0, 0),))
            )
        # face-incompatible: edge colors disagree with vertex colors
        with pytest.raises(OverSimplexError, match="face-compatible"):
            colored_over(K, [[(0,), (1,)], [(1, 0)]])

    def test_refusals_name_the_cell(self):
        # the one walk over the cells keeps each refusal's message
        K = simplex(1)
        vertices = (frozenset({0}), frozenset({1}))
        edge = (frozenset({0, 1}),)
        with pytest.raises(
            OverSimplexError, match="^carrier of 0-cell 1 is not a target face$"
        ):
            ComplexOverSimplex(K, 1, ((frozenset({0}), frozenset({3})), edge))
        with pytest.raises(
            OverSimplexError, match="^color shape does not match cells$"
        ):
            ComplexOverSimplex(K, 1, (vertices, edge), (((0,), (1,)),))
        with pytest.raises(
            OverSimplexError,
            match="^colors of 1-cell 0 do not span its carrier$",
        ):
            ComplexOverSimplex(K, 2, (vertices, edge), (((0,), (1,)), ((0, 2),)))


class TestDegreeStructure:
    def test_interval(self):
        L = degree_structure(simplex(1))
        assert L.complex.f_vector() == (3, 2)
        assert all(cols == (0, 1) for cols in L.colors[1])

    def test_triangle_boundary(self):
        L = degree_structure(boundary_simplex(2))
        assert L.complex.f_vector() == (6, 6)
        assert sorted(c[0] for c in L.colors[0]).count(0) == 3
        assert all(cols == (0, 1) for cols in L.colors[1])

    def test_tetrahedron_boundary(self):
        L = degree_structure(boundary_simplex(3))
        assert L.complex.f_vector() == (14, 36, 24)
        vertex_colors = [c[0] for c in L.colors[0]]
        assert sorted(vertex_colors) == [0] * 4 + [1] * 6 + [2] * 4
        spans = [frozenset(c) for c in L.colors[1]]
        for pair in ({0, 1}, {0, 2}, {1, 2}):
            assert spans.count(frozenset(pair)) == 12
        assert all(cols == (0, 1, 2) for cols in L.colors[2])

    def test_colored_face_picks_spanned_face(self):
        L = degree_structure(boundary_simplex(3))
        q, c = 2, 5
        fq, fc = colored_face(L, q, c, frozenset({0, 2}))
        assert fq == 1
        assert L.colors[1][fc] == (0, 2)
        # singleton: the vertex of that color
        vq, vc = colored_face(L, q, c, frozenset({1}))
        assert vq == 0
        assert L.colors[0][vc] == (1,)


def assert_iso_via_right_projection(F, L):
    """F ≅ L cell-for-cell through proj_right, commuting with faces."""
    maps = []
    for q in range(len(F.complex.faces)):
        level = {}
        for c, (tq, tc) in enumerate(F.proj_right[q]):
            assert tq == q
            level[c] = tc
        assert sorted(level.values()) == list(range(L.complex.n_cells(q)))
        maps.append(level)
    for q in range(1, len(F.complex.faces)):
        for c, cell in enumerate(F.complex.faces[q]):
            image = tuple(maps[q - 1][f] for f in cell)
            assert image == L.complex.faces[q][maps[q][c]]


class TestFiberProduct:
    def test_unit_law_interval(self):
        X = simplex_over_itself(1)
        L = degree_structure(boundary_simplex(2))
        F = fiber_product(X, L)
        assert_iso_via_right_projection(F, L)

    def test_unit_law_triangle(self):
        X = simplex_over_itself(2)
        L = degree_structure(boundary_simplex(3))
        F = fiber_product(X, L)
        assert_iso_via_right_projection(F, L)

    def test_cell_cap(self, monkeypatch):
        X = simplex_over_itself(2)
        L = degree_structure(boundary_simplex(3))
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "73")
        with pytest.raises(
            ResourceCapError, match="^fiber product needs 74 cells, cap is 73$"
        ):
            fiber_product(X, L)

    def test_requires_colored_right_factor(self):
        Y = hyperbolized_simplex(2).over
        with pytest.raises(OverSimplexError, match="colored"):
            fiber_product(simplex_over_itself(2), Y)

    def test_target_mismatch_rejected(self):
        with pytest.raises(OverSimplexError):
            fiber_product(
                simplex_over_itself(1), degree_structure(boundary_simplex(3))
            )
        with pytest.raises(OverSimplexError, match="pair"):
            williams(simplex_over_itself(1), boundary_simplex(3))


def keyed_fiber_product(X, L, what="fiber product"):
    """The former fiber_product, kept as an oracle: the pairs are keys,
    and every (pair, face) resolves through one ``colored_face`` call."""
    by_span = {}
    for q in range(len(L.complex.faces)):
        for c in range(L.complex.n_cells(q)):
            by_span.setdefault(frozenset(L.colors[q][c]), []).append(c)
    dims = len(X.complex.faces)
    cells = [[] for _ in range(dims)]
    for q in range(dims):
        for sigma in range(X.complex.n_cells(q)):
            S = X.carriers[q][sigma]
            for tau in by_span.get(S, []):
                cells[q].append((sigma, (len(S) - 1, tau)))

    def face(q, cell, i):
        sigma, (tq, tc) = cell
        fs = X.complex.faces[q][sigma][i]
        return fs, colored_face(L, tq, tc, X.carriers[q - 1][fs])

    carriers = tuple(tuple(X.carriers[q][s] for s, _ in cells[q]) for q in range(dims))
    colors = None
    if X.colors is not None:
        colors = tuple(tuple(X.colors[q][s] for s, _ in cells[q]) for q in range(dims))
    return ComplexOverSimplex(
        keyed_complex(cells, face, what=what), X.target_dim, carriers, colors,
        proj_left=tuple(tuple(s for s, _ in level) for level in cells),
        proj_right=tuple(tuple(t for _, t in level) for level in cells),
    )


def over_simplex_parts(Y):
    return (
        Y.complex.faces, Y.complex.tags, Y.target_dim, Y.carriers, Y.colors,
        Y.proj_left, Y.proj_right,
    )


class TestFiberProductAgainstKeyedOracle:
    @pytest.mark.parametrize("name", ["Y1", "Y2", "unit:2", "unit:3"])
    def test_face_for_face(self, name):
        X, L = {
            "Y1": lambda: (
                simplex_over_itself(1), degree_structure(boundary_simplex(2))
            ),
            "Y2": lambda: (
                hyperbolized_simplex(2).over,
                degree_structure(boundary_simplex(3)),
            ),
            "unit:2": lambda: (
                simplex_over_itself(2), degree_structure(boundary_simplex(3))
            ),
            "unit:3": lambda: (
                simplex_over_itself(3), degree_structure(boundary_simplex(4))
            ),
        }[name]()
        got, want = fiber_product(X, L), keyed_fiber_product(X, L)
        assert over_simplex_parts(got) == over_simplex_parts(want)

    def test_x3_build(self, monkeypatch):
        got = hyperbolized_simplex(3)
        monkeypatch.setattr(hyperbolize, "fiber_product", keyed_fiber_product)
        want = hyperbolized_simplex(3)
        assert got.complex.f_vector() == want.complex.f_vector()
        assert (got.complex.faces, got.complex.tags) == (
            want.complex.faces, want.complex.tags,
        )

    def test_colored_face_once_per_cell_and_kept_carrier(self, monkeypatch):
        X = hyperbolized_simplex(2).over
        L = degree_structure(boundary_simplex(3))
        calls = []

        def counting(*args):
            calls.append(args[1:])
            return colored_face(*args)

        monkeypatch.setattr(hyperbolize, "colored_face", counting)
        F = fiber_product(X, L)
        assert len(calls) == len(set(calls))
        # the oracle makes one call per (cell, face): 1,728 for Y2
        f = F.complex.f_vector()
        per_face = sum((q + 1) * n for q, n in enumerate(f) if q)
        assert (per_face, len(calls)) == (1728, 276)


class TestStageReuse:
    @pytest.mark.parametrize("n", [1, 2])
    def test_given_stage_is_not_rebuilt(self, n, monkeypatch):
        stage = hyperbolized_simplex(n)
        want = hyperbolized_sphere(n)

        def no_rebuild(m):
            raise AssertionError("the stage was built again")

        monkeypatch.setattr(hyperbolize, "hyperbolized_simplex", no_rebuild)
        got = hyperbolized_sphere(n, stage)
        assert over_simplex_parts(got) == over_simplex_parts(want)

    def test_stage_of_another_dimension_rejected(self):
        with pytest.raises(
            OverSimplexError, match=r"^Y\^2 needs the stage X\^2, not X\^1$"
        ):
            hyperbolized_sphere(2, hyperbolized_simplex(1))


class TestTower:
    def test_first_sphere_is_hexagon(self):
        Y = hyperbolized_sphere(1)
        assert Y.complex.f_vector() == (6, 6)
        H = Y.complex.homology()
        assert H.betti == (1, 1)
        assert H.torsion == ((), ())

    def test_annulus(self):
        X = hyperbolized_simplex(2)
        assert X.complex.f_vector() == (12, 24, 12)
        assert X.complex.euler() == 0
        H = X.complex.homology()
        assert H.betti == (1, 1, 0)
        assert H.torsion == ((), (), ())

    def test_annulus_boundary_is_two_hexagons(self):
        X = hyperbolized_simplex(2)
        K = X.complex
        edge_use = [0] * K.n_cells(1)
        for cell in K.faces[2]:
            for f in cell:
                edge_use[f] += 1
        boundary = [e for e, n in enumerate(edge_use) if n == 1]
        assert len(boundary) == 12
        parent = list(range(K.n_cells(0)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in boundary:
            u, v = K.faces[1][e]
            parent[find(u)] = find(v)
        comps = {find(v) for e in boundary for v in K.faces[1][e]}
        assert len(comps) == 2
        # boundary cells are exactly the ones not carried by the full face
        full = frozenset({0, 1, 2})
        assert sorted(boundary) == sorted(
            e
            for e in range(K.n_cells(1))
            if X.over.carriers[1][e] != full
        )

    def test_annulus_carriers(self):
        X = hyperbolized_simplex(2).over
        sizes = sorted(len(S) for S in X.carriers[0])
        assert sizes == [1] * 6 + [2] * 6
        singletons = [S for S in X.carriers[0] if len(S) == 1]
        for i in range(3):
            assert singletons.count(frozenset({i})) == 2
        edge_spans = [S for S in X.carriers[1] if len(S) == 2]
        assert len(edge_spans) == 12
        for pair in ({0, 1}, {0, 2}, {1, 2}):
            assert edge_spans.count(frozenset(pair)) == 4
        assert top_cells_onto_target(X) == 12

    def test_closed_surface(self):
        Y = hyperbolized_sphere(2)
        K = Y.complex
        assert K.f_vector() == (100, 432, 288)
        assert K.euler() == -44
        edge_use = [0] * K.n_cells(1)
        for cell in K.faces[2]:
            for f in cell:
                edge_use[f] += 1
        assert all(n == 2 for n in edge_use)
        H = K.homology()
        assert H.betti == (1, 46, 1)
        assert H.torsion == ((), (), ())

    def test_top_stage(self):
        X = hyperbolized_simplex(3)
        assert X.complex.f_vector() == (200, 1396, 2016, 864)
        assert X.over is None
        # the complex really is the prism over the closed surface
        Y = hyperbolized_sphere(2)
        assert X.complex.f_vector() == prism(Y.complex).f_vector()

    def test_out_of_range(self):
        with pytest.raises(OverSimplexError):
            hyperbolized_simplex(4)
        with pytest.raises(OverSimplexError):
            hyperbolized_simplex(0)
        with pytest.raises(OverSimplexError):
            hyperbolized_sphere(3)


class TestCounts:
    def test_z_formula(self):
        assert z_formula(2) == 2
        assert z_formula(3) == 12
        assert z_formula(4) == 1728
        assert z_formula(5) == 4976640
        assert z_formula(5) == math.factorial(5) * 2 * (
            math.factorial(3) ** 2 * math.factorial(4) ** 2
        )
        with pytest.raises(OverSimplexError):
            z_formula(1)

    def test_construction_counts_match_builds(self):
        assert construction_count(1) == 1
        assert construction_count(2) == 12
        assert construction_count(3) == 864
        assert construction_count(4) == 414720
        for n in (1, 2, 3):
            stage = hyperbolized_simplex(n)
            assert stage.complex.f_vector()[-1] == construction_count(n)
        assert hyperbolized_sphere(1).complex.n_cells(1) == 6
        assert hyperbolized_sphere(2).complex.n_cells(2) == 288

    def test_comparison_table(self):
        rows = z_comparison_table()
        assert [r["n"] for r in rows] == [2, 3, 4]
        assert [r["ratio"] for r in rows] == [
            Fraction(6),
            Fraction(72),
            Fraction(240),
        ]
        assert [r["built"] for r in rows] == [True, True, False]

    def test_relhyp_count(self):
        assert relhyp_count(1, 10) == 4147200
        assert relhyp_count(1, 1) == 2 * 1728 * 120
        with pytest.raises(OverSimplexError):
            relhyp_count(0, 5)

    def test_thm12_constant(self):
        assert thm12_constant(1) == 2764800
        for k in (1, 2, 3):
            v = thm12_constant(k)
            assert isinstance(v, int) and v > 0
            lhs = v * (2 * k + 1)
            rhs = (
                2
                * math.comb(4 * k + 1, 2 * k + 1)
                * 2
                * z_formula(4 * k)
                * math.factorial(4 * k + 1)
            )
            assert lhs == rhs
