import functools
import hashlib
import math
import random
from collections import deque
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from rhoforge import delta
from rhoforge.cap import ResourceCapError
from rhoforge.cli import main
from rhoforge.delta import (
    DeltaComplex,
    DeltaComplexError,
    FreeAction,
    HomologySummary,
    barycentric,
    boundary_simplex,
    cone,
    empty_complex,
    join,
    keyed_complex,
    ngon,
    point,
    prism,
    quotient,
    simplex,
)
from rhoforge.groups import FiniteAbelianGroup, cyclic
from rhoforge.hyperbolize import (
    ComplexOverSimplex,
    degree_structure,
    fiber_product,
    hyperbolized_simplex,
    hyperbolized_sphere,
    simplex_over_itself,
)
from rhoforge.lens import LensSpec, lens_complex
from rhoforge.smith import (
    bareiss_determinant,
    reduce_chain_complex,
    smith_normal_form,
)


def orbit_action(group, generator_perms):
    """Action of a cyclic group from the permutation of one generator."""
    if len(group.moduli) != 1:
        raise DeltaComplexError("orbit_action wants a cyclic group")
    n = group.moduli[0]
    base = [tuple(p) for p in generator_perms]
    perms = {}
    current = [tuple(range(len(p))) for p in base]
    for k in range(n):
        perms[group.element([k])] = tuple(current)
        current = [
            tuple(b[c] for c in cur) for b, cur in zip(base, current)
        ]
    return FreeAction(group, perms)


def quadratic_validate(action, K):
    """The former FreeAction.validate, kept as an oracle: every check is
    made on every element, and the group law on all |G|^2 pairs."""
    e = action.group.identity
    dims = len(K.faces)
    for g in action.group:
        if g not in action.perms:
            raise DeltaComplexError(f"action missing element {g!r}")
        pg = action.perms[g]
        if len(pg) != dims:
            raise DeltaComplexError("action has wrong number of dimensions")
        for q in range(dims):
            if sorted(pg[q]) != list(range(K.n_cells(q))):
                raise DeltaComplexError("not a permutation")
            if g != e and any(pg[q][c] == c for c in range(K.n_cells(q))):
                raise DeltaComplexError("action not free")
            for c, cell in enumerate(K.faces[q]):
                if q == 0:
                    continue
                image = K.faces[q][pg[q][c]]
                if tuple(pg[q - 1][f] for f in cell) != image:
                    raise DeltaComplexError("does not commute with faces")
    for g in action.group:
        for h in action.group:
            gh = action.perms[g * h]
            for q in range(dims):
                pg, ph = action.perms[g][q], action.perms[h][q]
                if any(pg[ph[c]] != gh[q][c] for c in range(K.n_cells(q))):
                    raise DeltaComplexError("does not compose as the group")


def index_by_tag(K, q):
    """Tag -> cell index for dimension q of K (tags must be unique there)."""
    table = {}
    for c, tag in enumerate(K.tags[q] if 0 <= q < len(K.tags) else ()):
        if tag in table:
            raise DeltaComplexError(f"duplicate tag in dimension {q}: {tag!r}")
        table[tag] = c
    return table


def relabeled(K, perms):
    """K with cells renumbered, perms[q][old] = new; the dimensions past
    perms keep their numbering."""
    faces = K.faces
    perms = [list(p) for p in perms]
    while len(perms) < len(faces):
        perms.append(list(range(len(faces[len(perms)]))))
    for q, p in enumerate(perms[: len(faces)]):
        if sorted(p) != list(range(len(faces[q]))):
            raise DeltaComplexError(f"not a permutation in dimension {q}")
    new_faces = []
    new_tags = []
    for q in range(1, len(faces)):
        level = [()] * len(faces[q])
        tag_level = [None] * len(faces[q])
        for c, cell in enumerate(faces[q]):
            level[perms[q][c]] = tuple(perms[q - 1][f] for f in cell)
            tag_level[perms[q][c]] = K.tags[q][c]
        new_faces.append(level)
        new_tags.append(tag_level)
    vtags = [None] * len(faces[0])
    for c, tag in enumerate(K.tags[0]):
        vtags[perms[0][c]] = tag
    return DeltaComplex(len(faces[0]), new_faces, [vtags] + new_tags)


def join_rotation(J, kp, lp):
    """Diagonal action on a join, read off through the join tags."""

    def half(ref, perms):
        if ref is None:
            return None
        p, c = ref
        return p, perms[p][c]

    out = []
    for q in range(len(J.faces)):
        table = index_by_tag(J, q)
        out.append(
            tuple(
                table[("join", half(a, kp), half(b, lp))]
                for _, a, b in J.tags[q]
            )
        )
    return out


def joined_polygons(n, d):
    """The join of d N-gons and the cell perms of its diagonal rotation."""
    shift = tuple((k + 1) % n for k in range(n))
    K, perms = ngon(n), [shift, shift]
    for _ in range(d - 1):
        J = join(K, ngon(n))
        perms = join_rotation(J, perms, [shift, shift])
        K = J
    return K, perms


def reference_lens(n, d):
    """The lens space as built before orbit keys: the iterated join, its
    rotation, a validated action and the quotient keeping the smallest
    member of each orbit."""
    K, perms = joined_polygons(n, d)
    return quotient(K, orbit_action(cyclic(n), perms))


def prism_end(P, K, level):
    """Cell indices of the bottom (level 0) or top (level 1) copy of K."""
    out = []
    for q in range(K.dim + 1):
        chain = tuple((i, level) for i in range(q + 1))
        table = index_by_tag(P, q)
        out.append(
            [table[("prism", q, c, chain)] for c in range(K.n_cells(q))]
        )
    return out


def digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# sha256 of repr((faces, tags)) of each build, taken before the builders
# went through keyed_complex
PINNED = {
    "simplex(4)": (
        lambda: simplex(4),
        "0920bbc30a715aeee9a4cb64992b398121e8d0bfab9f9ffec1e62f4c51d3e256",
    ),
    "boundary_simplex(4)": (
        lambda: boundary_simplex(4),
        "79312964bd8a8843d8021c41b1390e94c4420eb419d55420307300d8c723b1ce",
    ),
    "join(ngon(4), simplex(2))": (
        lambda: join(ngon(4), simplex(2)),
        "932f08fc18012b3257eccd75fbad4a90650417c7ab990fe6f086a0c3e29ace9a",
    ),
    "cone(ngon(5))": (
        lambda: cone(ngon(5)),
        "4fae07427b10417dc330654514450b8f47a547f22b82462d5258f844245151d7",
    ),
    "prism(boundary_simplex(3))": (
        lambda: prism(boundary_simplex(3)),
        "c2dfe14cef28e6c397f90820783ab827869a63f256d46553aafb2e00a09103ee",
    ),
    "barycentric(simplex(3))": (
        lambda: barycentric(simplex(3)),
        "54cac755be5d5794ea4934e4f3bd9f65382fd8ad467592d2b8182d9cdc5b6b40",
    ),
}


def rotations(n, steps):
    """Perms of the n-gon rotated by each of ``steps``, vertices and edges."""
    return {
        g: ((tuple((c + k) % n for c in range(n)),) * 2)
        for g, k in steps.items()
    }


def shuffled(K, rng):
    """K with the cells of every dimension renumbered at random."""
    perms = []
    for q in range(K.dim + 1):
        p = list(range(K.n_cells(q)))
        rng.shuffle(p)
        perms.append(p)
    return relabeled(K, perms)


def edge_complex():
    return DeltaComplex(2, [[(1, 0)]])


def compose_sparse(a, b):
    """Entries of the matrix product a @ b from sparse dicts."""
    out = {}
    for (r1, c1), v1 in a.items():
        for (r2, c2), v2 in b.items():
            if c1 == r2:
                out[(r1, c2)] = out.get((r1, c2), 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


class TestConstruction:
    def test_simplex_counts(self):
        K = simplex(2)
        assert K.f_vector() == (3, 3, 1)
        assert K.euler() == 1
        assert boundary_simplex(3).f_vector() == (4, 6, 4)
        assert boundary_simplex(0).dim == -1

    def test_ngon(self):
        K = ngon(3)
        assert K.f_vector() == (3, 3)
        assert K.euler() == 0
        assert ngon(1).f_vector() == (1, 1)
        with pytest.raises(DeltaComplexError):
            ngon(0)

    def test_rejects_bad_faces(self):
        with pytest.raises(DeltaComplexError):
            DeltaComplex(2, [[(1, 0, 0)]])
        with pytest.raises(DeltaComplexError):
            DeltaComplex(2, [[(2, 0)]])

    def test_rejects_broken_simplicial_identity(self):
        # two triangles over the same three edges, one with twisted faces
        K = simplex(2)
        faces = [list(level) for level in K.faces[1:]]
        faces[1][0] = (0, 2, 1)  # wrong orientation of face references
        with pytest.raises(DeltaComplexError):
            DeltaComplex(3, faces)

    def test_boundary_squared_is_zero(self):
        K = prism(ngon(3))
        for q in range(1, K.dim + 1):
            prod = compose_sparse(K.boundary_matrix(q), K.boundary_matrix(q + 1))
            assert prod == {}

    def test_iterated_face_matches_subsets(self):
        K = simplex(3)
        top = index_by_tag(K, 3)[(0, 1, 2, 3)]
        fq, fc = K.iterated_face(3, top, [1, 3])
        assert fq == 1
        assert K.tags[1][fc] == (1, 3)

    def test_iterated_face_of_every_subset(self):
        # a face of the simplex is tagged by its vertices
        K = simplex(4)
        for q in range(5):
            for c, tag in enumerate(K.tags[q]):
                for r in range(1, q + 2):
                    for keep in combinations(range(q + 1), r):
                        fq, fc = K.iterated_face(q, c, keep[::-1])
                        assert fq == r - 1
                        assert K.tags[fq][fc] == tuple(tag[j] for j in keep)

    @pytest.mark.parametrize("keep", [[], [4], [0, -1], [0, 0.5]])
    def test_iterated_face_refuses_positions_not_of_the_cell(self, keep):
        with pytest.raises(DeltaComplexError, match="nonempty subset"):
            simplex(3).iterated_face(3, 0, keep)

    def test_json_round_trip(self):
        K = prism(ngon(4))
        K2 = DeltaComplex.from_json(K.to_json())
        assert K2.f_vector() == K.f_vector()
        assert K2.faces == K.faces

    def test_relabeled_preserves_structure(self):
        K = ngon(6)
        rng = random.Random(3)
        perms = []
        for q in range(K.dim + 1):
            p = list(range(K.n_cells(q)))
            rng.shuffle(p)
            perms.append(p)
        K2 = relabeled(K, perms)
        assert K2.f_vector() == K.f_vector()
        assert K2.homology() == K.homology()


class TestKeyedBuilders:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_digest(self, name):
        build, expected = PINNED[name]
        K = build()
        assert digest(K.faces, K.tags) == expected

    def test_keyed_complex_checks_identities(self):
        # a triangle whose faces 0 and 1 are swapped
        levels = [list(combinations(range(3), k)) for k in (1, 2, 3)]
        drop = {1: (0, 1), 2: (1, 0, 2)}
        with pytest.raises(DeltaComplexError, match="simplicial identity"):
            keyed_complex(
                levels, lambda q, s, i: s[: drop[q][i]] + s[drop[q][i] + 1 :]
            )
        assert keyed_complex([], None).dim == -1

    def test_simplex_cell_cap(self, monkeypatch):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "30")
        assert simplex(3).total_cells() == 15
        assert boundary_simplex(4).total_cells() == 30
        with pytest.raises(ResourceCapError, match="31 cells, cap is 30"):
            simplex(4)
        with pytest.raises(ResourceCapError, match="62 cells"):
            boundary_simplex(5)

    @pytest.mark.parametrize("build, what, cells", [
        (lambda: ngon(16), "16-gon", 32),
        (lambda: join(simplex(2), simplex(1)), "join", 31),
        (lambda: prism(simplex(2)), "prism", 31),
        (lambda: barycentric(boundary_simplex(3)), "barycentric subdivision", 74),
    ], ids=["ngon", "join", "prism", "barycentric"])
    def test_builder_cell_cap(self, monkeypatch, build, what, cells):
        # each builder names itself, not the bare "Delta-complex"
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "30")
        with pytest.raises(
            ResourceCapError, match=f"^{what} needs {cells} cells, cap is 30$"
        ):
            build()


class TestLensAgainstIteratedJoin:
    @pytest.mark.parametrize(
        "n, d",
        [(n, d) for n in range(3, 9) for d in (1, 2, 3)]
        + [(4, 4), (5, 4), (20, 2), (3, 5)],
    )
    def test_faces_match_the_quotient(self, n, d):
        K = lens_complex(LensSpec(n, d))
        assert K.faces == reference_lens(n, d).faces
        assert K.total_cells() == ((2 * n + 1) ** d - 1) // n

    def test_cell_cap(self, monkeypatch):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "3446")
        assert lens_complex(LensSpec(20, 3)).total_cells() == 3446
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "3445")
        with pytest.raises(ResourceCapError, match="3446 cells, cap is 3445"):
            lens_complex(LensSpec(20, 3))


class TestJoinAndCone:
    def test_point_join_point_is_edge(self):
        K = join(point(), point())
        assert K.f_vector() == (2, 1)

    @pytest.mark.parametrize("n", [3, 5])
    def test_ngon_join_counts(self, n):
        K = join(ngon(n), ngon(n))
        assert K.f_vector() == (2 * n, n * n + 2 * n, 2 * n * n, n * n)
        assert K.euler() == 0

    def test_join_is_three_sphere(self):
        H = join(ngon(3), ngon(3)).homology()
        assert H.betti == (1, 0, 0, 1)
        assert all(t == () for t in H.torsion)

    def test_join_with_empty(self):
        K = join(empty_complex(), ngon(4))
        assert K.f_vector() == ngon(4).f_vector()
        assert join(empty_complex(), empty_complex()).dim == -1

    def test_cone_contractible(self):
        for base in [ngon(4), boundary_simplex(2), prism(edge_complex())]:
            K = cone(base)
            assert K.euler() == 1
            H = K.homology()
            assert H.betti[0] == 1
            assert all(b == 0 for b in H.betti[1:])
            assert all(t == () for t in H.torsion)
        assert cone(empty_complex()).f_vector() == (1,)


class TestPrism:
    def test_edge_prism_is_square(self):
        K = prism(edge_complex())
        assert K.f_vector() == (4, 5, 2)
        assert K.euler() == 1

    def test_hexagon_prism(self):
        K = prism(ngon(6))
        assert K.f_vector() == (12, 24, 12)
        assert K.euler() == 0
        H = K.homology()
        assert H.betti == (1, 1, 0)

    def test_euler_preserved(self):
        for base in [ngon(5), simplex(2), boundary_simplex(2)]:
            assert prism(base).euler() == base.euler()

    def test_ends_are_copies(self):
        K = ngon(4)
        P = prism(K)
        for level in (0, 1):
            end = prism_end(P, K, level)
            # the end injects K cell-for-cell, commuting with faces
            assert all(
                len(set(ids)) == len(ids) for ids in end
            )
            for c in range(K.n_cells(1)):
                got = P.faces[1][end[1][c]]
                want = tuple(end[0][f] for f in K.faces[1][c])
                assert got == want


def frontier_flags(q):
    """Flags of {0..q} by a breadth-first search over proper subsets."""
    full = tuple(range(q + 1))
    subsets = [
        tuple(s)
        for size in range(1, q + 1)
        for s in combinations(range(q + 1), size)
    ]
    out = [(full,)]
    frontier = [(full,)]
    while frontier:
        nxt = []
        for flag in frontier:
            head = set(flag[0])
            for s in subsets:
                if len(s) < len(flag[0]) and set(s) < head:
                    nxt.append((s,) + flag)
        out.extend(nxt)
        frontier = nxt
    return sorted(out)


class TestBarycentric:
    @pytest.mark.parametrize(
        "q, count", [(0, 1), (1, 3), (2, 13), (3, 75), (4, 541), (5, 4683)]
    )
    def test_flags_match_frontier_search(self, q, count):
        flags = delta._flags_of(q)
        assert len(flags) == count
        assert flags == frontier_flags(q)

    def test_triangle(self):
        K = barycentric(simplex(2))
        assert K.f_vector() == (7, 12, 6)
        assert K.euler() == 1

    def test_boundary_tetrahedron(self):
        K = barycentric(boundary_simplex(3))
        assert K.f_vector() == (14, 36, 24)
        assert K.euler() == 2
        H = K.homology()
        assert H.betti == (1, 0, 1)
        assert all(t == () for t in H.torsion)

    def test_circle(self):
        K = barycentric(ngon(3))
        assert K.f_vector() == (6, 6)
        assert K.homology().betti == (1, 1)

    def test_euler_preserved(self):
        for base in [ngon(5), prism(ngon(3)), simplex(3)]:
            assert barycentric(base).euler() == base.euler()


class TestQuotient:
    def rotation(self, n):
        shift = [(k + 1) % n for k in range(n)]
        return orbit_action(cyclic(n), [shift, shift])

    def test_rotated_ngon(self):
        K = quotient(ngon(5), self.rotation(5))
        assert K.f_vector() == (1, 1)
        assert K.homology().betti == (1, 1)

    def test_counts_divide_exactly(self):
        K = ngon(6)
        Q = quotient(K, self.rotation(6))
        assert [a // 6 for a in K.f_vector()] == list(Q.f_vector())

    def test_non_free_action_rejected(self):
        n = 4
        ident = [list(range(n)), list(range(n))]
        G = cyclic(2)
        perms = {G.identity: tuple(tuple(p) for p in ident),
                 G.element([1]): tuple(tuple(p) for p in ident)}
        with pytest.raises(DeltaComplexError):
            quotient(ngon(n), FreeAction(G, perms))

    def test_non_equivariant_action_rejected(self):
        # vertex rotation paired with the identity on edges
        n = 4
        shift = [(k + 1) % n for k in range(n)]
        G = cyclic(4)
        perms = {}
        cur_v = list(range(n))
        for k in range(4):
            perms[G.element([k])] = (
                tuple(cur_v),
                tuple(range(n)) if k else tuple(range(n)),
            )
            cur_v = [shift[c] for c in cur_v]
        with pytest.raises(DeltaComplexError):
            quotient(ngon(n), FreeAction(G, perms))


class TestValidateThroughGenerators:
    def verdicts(self, action, K):
        out = []
        for check in (action.validate, lambda K: quadratic_validate(action, K)):
            try:
                check(K)
                out.append(True)
            except DeltaComplexError:
                out.append(False)
        return out

    @pytest.mark.parametrize("n, d", [(3, 2), (8, 3), (4, 4)])
    def test_agrees_on_lens_actions(self, n, d):
        K, perms = joined_polygons(n, d)
        assert self.verdicts(orbit_action(cyclic(n), perms), K) == [True, True]

    def test_agrees_on_a_two_generator_action(self):
        # Z/2 x Z/3 acts on the hexagon: (a, b) rotates by 3a + 2b
        G = FiniteAbelianGroup([2, 3])
        steps = {g: 3 * g.residues[0] + 2 * g.residues[1] for g in G}
        action = FreeAction(G, rotations(6, steps))
        assert self.verdicts(action, ngon(6)) == [True, True]
        steps[G.element([0, 1])], steps[G.element([0, 2])] = 4, 2
        action = FreeAction(G, rotations(6, steps))
        assert self.verdicts(action, ngon(6)) == [False, False]

    def test_swapped_perms_break_the_law(self):
        # free, face-commuting permutations that do not compose as Z/6
        G = cyclic(6)
        steps = {G.element([k]): k for k in range(6)}
        steps[G.element([1])], steps[G.element([2])] = 2, 1
        action = FreeAction(G, rotations(6, steps))
        assert self.verdicts(action, ngon(6)) == [False, False]
        with pytest.raises(DeltaComplexError, match="compose"):
            action.validate(ngon(6))

    def test_free_generator_with_a_fixed_power(self):
        # Z/4 acting on the 2-gon through its rotation: the generator is
        # free, its square is the identity permutation
        G = cyclic(4)
        action = FreeAction(G, rotations(2, {G.element([k]): k for k in range(4)}))
        assert self.verdicts(action, ngon(2)) == [False, False]
        with pytest.raises(DeltaComplexError, match="not free"):
            action.validate(ngon(2))

    def test_identity_must_act_trivially(self):
        # the identity rotating by 3 on the hexagon; every other element
        # is free and the law fails only through perms[e]
        G = cyclic(2)
        action = FreeAction(G, rotations(6, {G.identity: 3, G.element([1]): 3}))
        assert self.verdicts(action, ngon(6)) == [False, False]


# Complexes on which the Gram-spectrum torsion is checked against the
# dense Laplacian oracle; ngon:1 has a loop whose two vertex faces cancel.
TORSION_ZOO = {
    "ngon:1": lambda: ngon(1),
    "ngon:2": lambda: ngon(2),
    "ngon:7": lambda: ngon(7),
    "simplex:3": lambda: simplex(3),
    "boundary-simplex:4": lambda: boundary_simplex(4),
    "prism-ngon:4": lambda: prism(ngon(4)),
    "prism-ngon:4-relabeled": lambda: shuffled(prism(ngon(4)), random.Random(4)),
    "lens:5,2": lambda: lens_complex(LensSpec(5, 2)),
    "lens:8,3": lambda: lens_complex(LensSpec(8, 3)),
    "lens:3,3": lambda: lens_complex(LensSpec(3, 3)),
    "lens:4,3": lambda: lens_complex(LensSpec(4, 3)),
    "Y2": lambda: hyperbolized_sphere(2).complex,
}


def oracle_log_pdet(K, q):
    """log of the product of the eigenvalues of the dense L_q above
    1e-9 times its spectral radius."""
    lap = K.laplacian(q)
    if lap.size == 0:
        return 0.0
    eigs = np.linalg.eigvalsh(lap)
    radius = float(np.max(np.abs(eigs)))
    return float(np.sum(np.log(eigs[eigs > 1e-9 * radius])))


class TestLaplacianTorsion:
    def test_three_circle(self):
        K = ngon(3)
        assert K.laplacian_pseudodet(0) == pytest.approx(9.0, rel=1e-9)
        assert K.laplacian_pseudodet(1) == pytest.approx(9.0, rel=1e-9)
        assert K.laplacian_torsion() == pytest.approx(9.0, rel=1e-9)

    def test_point(self):
        assert point().laplacian_torsion() == 1.0

    @pytest.mark.parametrize("n", range(3, 11))
    def test_circle_matrix_tree(self, n):
        K = ngon(n)
        # spanning trees of the cycle graph, counted exactly by a minor
        lap = K.laplacian(0)
        reduced = [
            [int(round(lap[i][j])) for j in range(1, n)] for i in range(1, n)
        ]
        trees = bareiss_determinant(reduced)
        assert trees == n
        assert K.laplacian_pseudodet(0) == pytest.approx(n * trees, rel=1e-9)

    def test_permutation_invariance(self):
        K = prism(ngon(4))
        base = K.laplacian_torsion()
        rng = random.Random(10)
        for _ in range(5):
            assert shuffled(K, rng).laplacian_torsion() == pytest.approx(
                base, rel=1e-9
            )

    def test_log_growth_trend_on_circles(self):
        # monitored trend: log torsion stays within a linear envelope
        for n in range(3, 25):
            K = ngon(n)
            assert math.log(K.laplacian_torsion()) <= 1.0 * K.total_cells()

    @pytest.mark.parametrize("name", TORSION_ZOO)
    def test_matches_dense_laplacian_oracle(self, name):
        K = TORSION_ZOO[name]()
        logs = [oracle_log_pdet(K, q) for q in range(K.dim + 1)]
        for q, log_pdet in enumerate(logs):
            assert K.laplacian_pseudodet(q) == pytest.approx(
                math.exp(log_pdet), rel=1e-9
            )
        old = sum((-1) ** (q + 1) * q * logs[q] for q in range(1, K.dim + 1))
        assert K.laplacian_torsion() == pytest.approx(math.exp(old), rel=1e-9)

    @pytest.mark.parametrize("name", TORSION_ZOO)
    def test_dense_boundary_matches_sparse(self, name):
        K = TORSION_ZOO[name]()
        for q in range(K.dim + 2):
            dense = K._dense_boundary(q)
            assert dense.shape == (K.n_cells(q - 1), K.n_cells(q))
            expected = np.zeros(dense.shape)
            for (r, c), v in K.boundary_matrix(q).items():
                expected[r, c] = v
            assert np.array_equal(dense, expected)

    @pytest.mark.parametrize(
        "n, d", [(5, 2), (6, 2), (7, 2), (3, 3), (4, 3), (8, 3), (4, 4)]
    )
    def test_lens_torsion_is_vertex_over_top_cells(self, n, d):
        # L(N; 1, ..., 1): T = f_0 / f_top; (4, 4) has pseudodeterminants
        # near e^1064, past float range, and T = 1/16 all the same
        K = lens_complex(LensSpec(n, d))
        f = K.f_vector()
        assert K.laplacian_torsion() == pytest.approx(f[0] / f[-1], rel=1e-9)

    def test_pseudodet_past_float_range_raises(self):
        K = lens_complex(LensSpec(4, 4))
        with pytest.raises(OverflowError):
            [K.laplacian_pseudodet(q) for q in range(K.dim + 1)]


# The torsion zoo, the lens space whose pseudodeterminants overflow, and
# two complexes with repeated faces: a face pair that cancels in d_q
# must cancel in its Gram matrix too.
GRAM_ZOO = {
    **TORSION_ZOO,
    "lens:4,4": lambda: lens_complex(LensSpec(4, 4)),
    "rp2": lambda: rp2(),
    "dunce-hat": lambda: DeltaComplex(1, [[(0, 0)], [(0, 0, 0)]]),
}


def dense_gram(K, q):
    """The smaller boundary Gram matrix as the dense product."""
    d = K._dense_boundary(q)
    return d @ d.T if d.shape[0] <= d.shape[1] else d.T @ d


class TestBoundaryGram:
    @pytest.mark.parametrize("name", GRAM_ZOO)
    def test_equals_the_dense_product(self, name):
        K = GRAM_ZOO[name]()
        for q in range(K.dim + 2):
            gram = K._boundary_gram(q)
            assert gram.dtype == np.float64
            assert np.array_equal(gram, dense_gram(K, q)), q

    @pytest.mark.parametrize("name, degrees, rows_at_most_cols", [
        ("lens:4,4", range(1, 6), True),
        ("lens:8,3", (4, 5), False),
        ("Y2", (2,), False),
        ("rp2", (1,), True),
        ("rp2", (2,), False),
        ("dunce-hat", (2,), True),
    ])
    def test_both_products_are_covered(self, name, degrees, rows_at_most_cols):
        K = GRAM_ZOO[name]()
        for q in degrees:
            assert (K.n_cells(q - 1) <= K.n_cells(q)) == rows_at_most_cols, q
            assert K._boundary_gram(q).any(), q

    def test_repeated_faces_cancel(self):
        # d t1 = e1 for rp2's t1 = (e1, e2, e2); the dunce hat's loop has
        # zero boundary and its triangle (0, 0, 0) boundary e0
        assert rp2()._boundary_gram(2).tolist() == [[5.0, -1.0], [-1.0, 1.0]]
        hat = GRAM_ZOO["dunce-hat"]()
        assert hat._boundary_gram(1).tolist() == [[0.0]]
        assert hat._boundary_gram(2).tolist() == [[1.0]]

    @pytest.mark.parametrize("name", ["lens:8,3", "Y2"])
    def test_torsion_never_reads_the_dense_boundary(self, name, monkeypatch):
        K = TORSION_ZOO[name]()
        logs = [oracle_log_pdet(K, q) for q in range(K.dim + 1)]

        def refuse(self, q):
            raise AssertionError("the dense boundary was built")

        monkeypatch.setattr(DeltaComplex, "_dense_boundary", refuse)
        K = TORSION_ZOO[name]()
        for q, log_pdet in enumerate(logs):
            assert K.laplacian_pseudodet(q) == pytest.approx(
                math.exp(log_pdet), rel=1e-9
            )
        old = sum((-1) ** (q + 1) * q * logs[q] for q in range(1, K.dim + 1))
        assert K.laplacian_torsion() == pytest.approx(math.exp(old), rel=1e-9)


class TestFaceArrays:
    @pytest.mark.parametrize("name", TORSION_ZOO)
    def test_each_level_is_its_faces_read_only(self, name):
        K = TORSION_ZOO[name]()
        assert len(K._face_arrays) == len(K.faces)
        for q, array in enumerate(K._face_arrays):
            assert array.dtype == np.int64
            # a vertex has no faces
            assert array.shape == (K.n_cells(q), q + 1 if q else 0)
            if q:
                assert np.array_equal(array, np.array(K.faces[q])), q
            assert not array.flags.writeable, q
            with pytest.raises(ValueError):
                array[...] = 0

    def test_a_callers_array_is_copied(self):
        edges = np.array([[1, 0], [2, 1], [0, 2]], dtype=np.int64)
        K = DeltaComplex(3, [edges])
        edges[:] = 0
        assert edges.flags.writeable
        assert K._face_arrays[1].tolist() == [[1, 0], [2, 1], [0, 2]]
        assert K.faces[1] == ((1, 0), (2, 1), (0, 2))

    def test_trailing_empty_levels_are_dropped(self):
        K = DeltaComplex(2, [[(1, 0)], [], []])
        assert [a.shape for a in K._face_arrays] == [(2, 0), (1, 2)]


def stored_tuples(vertices, levels):
    """The face tuples the constructor stored before ``faces`` became a
    view: each level's cells as tuples, an ndarray level's from its
    ``tolist()``, with trailing empty levels dropped."""
    built = [((),) * vertices]
    for level in levels:
        if isinstance(level, np.ndarray):
            level = level.tolist()
        built.append(tuple(map(tuple, level)))
    while len(built) > 1 and not built[-1]:
        built.pop()
    return tuple(built)


LEVEL_FORMS = {
    "list": lambda lists: lists,
    "tuple": lambda lists: tuple(tuple(map(tuple, level)) for level in lists),
    "generator": lambda lists: (level for level in lists),
    "int32": lambda lists: [np.array(level, dtype=np.int32) for level in lists],
    "uint8": lambda lists: [np.array(level, dtype=np.uint8) for level in lists],
}
# every zoo complex in every form, but Y2 (432 edges) in no uint8
VIEW_CASES = [
    (name, form)
    for name in TORSION_ZOO
    for form in LEVEL_FORMS
    if (name, form) != ("Y2", "uint8")
]


class TestFacesView:
    """One face table a level: ``faces`` is a tuple view of the arrays,
    built on its first read and kept."""

    @pytest.mark.parametrize("name, form", VIEW_CASES)
    def test_same_tuples_as_the_constructor_stored(self, name, form):
        K = TORSION_ZOO[name]()
        n = K.n_cells(0)
        # with a trailing empty level, which the constructor drops
        lists = [a.tolist() for a in K._face_arrays[1:]] + [[]]
        want = stored_tuples(n, LEVEL_FORMS[form](lists))
        L = DeltaComplex(n, LEVEL_FORMS[form](lists))
        assert L._faces is None
        assert L.faces == want == K.faces
        assert {type(f) for level in L.faces for cell in level for f in cell} <= {int}

    @pytest.mark.parametrize("build", [
        lambda: lens_complex(LensSpec(5, 3)),
        lambda: prism(hyperbolized_sphere(1).complex),
        lambda: DeltaComplex.from_json(lens_complex(LensSpec(4, 2)).to_json()),
        lambda: DeltaComplex(3, [np.array([[1, 0], [2, 1], [2, 0]])]),
    ], ids=["lens", "prism", "json", "array"])
    def test_counts_homology_torsion_and_json_build_no_view(self, build):
        K = build()
        assert K._faces is None
        K.dim, K.f_vector(), K.euler(), K.n_cells(1), K.total_cells()
        K.homology(), K.laplacian_torsion(), K.to_json()
        assert K._faces is None
        view = K.faces
        assert view == stored_tuples(K.n_cells(0), K.to_json()["faces"])
        # a second read returns the same object
        assert K.faces is view

    def test_fiber_product_hands_over_a_complex_with_no_view(self, monkeypatch):
        # the check of the structure over the simplex is its first reader
        unread = []
        check = ComplexOverSimplex.__post_init__

        def recorded(self):
            unread.append(self.complex._faces is None)
            check(self)

        X, L = simplex_over_itself(2), degree_structure(boundary_simplex(3))
        monkeypatch.setattr(ComplexOverSimplex, "__post_init__", recorded)
        F = fiber_product(X, L)
        assert unread == [True]
        assert F.complex._faces is not None

    @pytest.mark.parametrize("argv", [
        ["lens", "--N", "5", "--d", "3"],
        ["fvector", "--builtin", "lens:8,3"],
        ["torsion", "--builtin", "lens:8,3"],
        ["homology", "--builtin", "lens:4,4"],
        ["homology", "--complex", "bench/data/x3.json"],
    ], ids=" ".join)
    def test_commands_never_read_faces(self, monkeypatch, capsys, argv):
        repo = Path(__file__).resolve().parents[1]
        argv = [str(repo / a) if a.startswith("bench/") else a for a in argv]
        reads = []
        view = DeltaComplex.faces
        monkeypatch.setattr(
            DeltaComplex, "faces",
            property(lambda K: reads.append(K.f_vector()) or view.fget(K)),
        )
        assert main(argv) == 0
        assert reads == []


def snf_homology(K):
    """homology() as it was before reductions, kept as the oracle: one
    Smith normal form per full boundary matrix."""
    if K.dim < 0:
        return HomologySummary((), ())
    snf = [smith_normal_form(K.boundary_matrix(q)) for q in range(K.dim + 2)]
    degrees = range(K.dim + 1)
    return HomologySummary(
        tuple(K.n_cells(q) - snf[q].rank - snf[q + 1].rank for q in degrees),
        tuple(snf[q + 1].torsion for q in degrees),
    )


def rp2():
    """RP^2 as two triangles: d t0 = 2 e0 - e1, and t1 = (e1, e2, e2),
    whose repeated faces cancel to d t1 = e1."""
    return DeltaComplex(2, [[(0, 0), (0, 0), (0, 1)], [(0, 1, 0), (1, 2, 2)]])


def dict_reduce_chain_complex(sizes, boundaries):
    """reduce_chain_complex as it was when each d_q came in as a
    ``(row, col) -> value`` dict and pairs also came from queues, kept
    as the oracle for the residue: the input is re-keyed into per-cell
    maps, and coreductions and free faces are drained from two queues
    before the library's top-down sweep and after each of its pairs."""
    start = [0]
    for n in sizes:
        start.append(start[-1] + n)
    ids = list(range(start[-1]))
    bd = [{} for _ in ids]
    cobd = [{} for _ in ids]
    for q, entries in enumerate(boundaries):
        if not q:
            continue
        lo, hi = start[q - 1], start[q]
        for (r, c), v in entries.items():
            if v:
                a, b = ids[hi + c], ids[lo + r]
                bd[a][b] = v
                cobd[b][a] = None
    alive = [True] * len(ids)
    coreducible = deque(a for a, da in enumerate(bd) if len(da) == 1)
    free = deque(b for b, cb in enumerate(cobd) if len(cb) == 1)

    def pair(a, b):
        da = bd[a]
        u = da.pop(b)
        alive[a] = alive[b] = False
        for c in cobd[b]:
            if c == a:
                continue
            dc = bd[c]
            k = dc.pop(b) * u
            for f, v in da.items():
                old = dc.get(f)
                if old is None:
                    dc[f] = -k * v
                    cobd[f][c] = None
                elif old == k * v:
                    del dc[f]
                    del cobd[f][c]
                else:
                    dc[f] = old - k * v
            if len(dc) == 1:
                coreducible.append(c)
        for g in bd[b]:
            cg = cobd[g]
            del cg[b]
            if len(cg) == 1:
                free.append(g)
        for f in da:
            cf = cobd[f]
            del cf[a]
            if len(cf) == 1:
                free.append(f)
        for c in cobd[a]:
            dc = bd[c]
            del dc[a]
            if len(dc) == 1:
                coreducible.append(c)
        for cells in (da, bd[b], cobd[a], cobd[b]):
            cells.clear()

    def drain():
        while coreducible or free:
            if coreducible:
                a = coreducible.popleft()
                da = bd[a]
                if len(da) == 1:
                    ((b, v),) = da.items()
                    if v == 1 or v == -1:
                        pair(a, b)
            else:
                b = free.popleft()
                if len(cobd[b]) == 1:
                    (a,) = cobd[b]
                    v = bd[a][b]
                    if v == 1 or v == -1:
                        pair(a, b)

    drain()
    for q in reversed(range(1, len(sizes))):
        cells = sorted(
            (a for a in range(start[q], start[q + 1]) if alive[a]),
            key=lambda a: len(bd[a]),
        )
        for a in cells:
            if not alive[a]:
                continue
            units = [f for f, v in bd[a].items() if v == 1 or v == -1]
            if units:
                pair(a, min(units, key=lambda f: len(cobd[f])))
                drain()

    res_sizes, res_bds, local = [], [], {}
    for q in range(len(sizes)):
        cells = [a for a in range(start[q], start[q + 1]) if alive[a]]
        local.update(zip(cells, range(len(cells))))
        res_sizes.append(len(cells))
        res_bds.append(
            {(local[f], local[a]): v for a in cells for f, v in bd[a].items()}
        )
    return res_sizes, res_bds


def dict_residue(K):
    """The residue of the augmented complex from the (row, col) front
    end: each d_q built by ``boundary_matrix``, then re-keyed."""
    sizes = [1, *K.f_vector(), 0]
    augmentation = {(0, v): 1 for v in range(K.n_cells(0))}
    boundaries = [{}, augmentation]
    boundaries += map(K.boundary_matrix, range(1, K.dim + 2))
    return dict_reduce_chain_complex(sizes, boundaries)


def face_listings(K):
    """Each d_q of K by column: a cell's faces with alternating signs."""
    return [
        [],
        *(
            [[(f, (-1) ** i) for i, f in enumerate(cell)] for cell in level]
            for level in K.faces[1:]
        ),
    ]


def ordered(residue):
    """A residue with the insertion order of its maps made visible."""
    sizes, boundaries = residue
    return sizes, [list(m.items()) for m in boundaries]


# Complexes on which homology() is checked against the per-degree SNF
# oracle: every builder, lens spaces, hyperbolized spheres and the edge
# cases of the reduction.
HOMOLOGY_ZOO = {
    "ngon:1": lambda: ngon(1),
    "ngon:2": lambda: ngon(2),
    "ngon:6": lambda: ngon(6),
    "simplex:0": lambda: simplex(0),
    "simplex:3": lambda: simplex(3),
    "boundary-simplex:0": lambda: boundary_simplex(0),
    "boundary-simplex:1": lambda: boundary_simplex(1),
    "boundary-simplex:4": lambda: boundary_simplex(4),
    "prism-ngon:4": lambda: prism(ngon(4)),
    "prism-boundary-simplex:3": lambda: prism(boundary_simplex(3)),
    "barycentric-simplex:3": lambda: barycentric(simplex(3)),
    "barycentric-ngon:3": lambda: barycentric(ngon(3)),
    "cone-ngon:5": lambda: cone(ngon(5)),
    "cone-boundary-simplex:3": lambda: cone(boundary_simplex(3)),
    "join-ngon:3-ngon:3": lambda: join(ngon(3), ngon(3)),
    "join-ngon:4-simplex:2": lambda: join(ngon(4), simplex(2)),
    "join-point-ngon:2": lambda: join(point(), ngon(2)),
    "lens:3,2": lambda: lens_complex(LensSpec(3, 2)),
    "lens:6,2": lambda: lens_complex(LensSpec(6, 2)),
    "lens:3,3": lambda: lens_complex(LensSpec(3, 3)),
    "lens:8,3": lambda: lens_complex(LensSpec(8, 3)),
    "lens:4,4": lambda: lens_complex(LensSpec(4, 4)),
    "Y1": lambda: hyperbolized_sphere(1).complex,
    "Y2": lambda: hyperbolized_sphere(2).complex,
    "Y2-relabeled": lambda: shuffled(
        hyperbolized_sphere(2).complex, random.Random(2)
    ),
    "vertices:1": lambda: DeltaComplex(1),
    "vertices:4": lambda: DeltaComplex(4),
    "dunce-cap": lambda: DeltaComplex(1, [[(0, 0)], [(0, 0, 0)]]),
    "rp2": rp2,
}


class TestHomologyByReduction:
    @pytest.mark.parametrize("name", HOMOLOGY_ZOO)
    def test_matches_per_degree_snf(self, name):
        K = HOMOLOGY_ZOO[name]()
        assert K.homology() == snf_homology(K)

    @pytest.mark.parametrize(
        "name, betti, torsion",
        [
            ("boundary-simplex:0", (), ()),
            ("vertices:4", (4,), ((),)),
            ("ngon:1", (1, 1), ((), ())),
            ("dunce-cap", (1, 0, 0), ((), (), ())),
            ("rp2", (1, 0, 0), ((), (2,), ())),
        ],
    )
    def test_edge_cases(self, name, betti, torsion):
        H = HOMOLOGY_ZOO[name]().homology()
        assert (H.betti, H.torsion) == (betti, torsion)

    def test_non_unit_pair_is_skipped(self):
        K = rp2()
        sizes, boundaries = reduce_chain_complex(
            [*K.f_vector()], face_listings(K)
        )
        # t1 and e1, then e2 and a vertex, go; 2 e0 stays for the SNF
        assert sizes == [1, 1, 1]
        assert boundaries == [{}, {}, {(0, 0): 2}]

    def test_smith_sees_one_small_residue_per_degree(self, monkeypatch):
        K = lens_complex(LensSpec(8, 3))
        seen = []

        def record(entries):
            seen.append(dict(entries))
            return smith_normal_form(entries)

        monkeypatch.setattr(delta, "smith_normal_form", record)
        H = K.homology()
        assert len(seen) == K.dim + 2
        assert all(len({c for _, c in m}) <= 1 for m in seen)
        assert H == snf_homology(K)

    def test_matches_oracle_on_drawn_relabelings(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        bases = {
            name: HOMOLOGY_ZOO[name]()
            for name in ("prism-ngon:4", "lens:3,3", "rp2", "dunce-cap",
                         "join-ngon:3-ngon:3", "cone-ngon:5")
        }
        expected = {name: snf_homology(K) for name, K in bases.items()}

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            name = data.draw(st.sampled_from(sorted(bases)))
            K = bases[name]
            perms = [
                data.draw(st.permutations(range(K.n_cells(q))))
                for q in range(K.dim + 1)
            ]
            assert relabeled(K, perms).homology() == expected[name]

        check()


RESIDUE_BUILDS = {
    "X3": lambda: hyperbolized_simplex(3).complex,
    "lens:5,2": lambda: lens_complex(LensSpec(5, 2)),
    "lens:5,4": lambda: lens_complex(LensSpec(5, 4)),
    "barycentric-lens:4,2": lambda: barycentric(
        lens_complex(LensSpec(4, 2))
    ),
    "prism-lens:5,2": lambda: prism(lens_complex(LensSpec(5, 2))),
    "join-ngon:5-lens:3,2": lambda: join(
        ngon(5), lens_complex(LensSpec(3, 2))
    ),
}


@functools.cache
def residue_complex(name):
    """The complexes whose residue is checked against the dict front end;
    ``<base>-relabeled:<seed>`` is a base complex shuffled by that seed."""
    base, _, seed = name.partition("-relabeled:")
    if seed:
        return shuffled(residue_complex(base), random.Random(int(seed)))
    if name in RESIDUE_BUILDS:
        return RESIDUE_BUILDS[name]()
    return HOMOLOGY_ZOO[name]()


RESIDUE_CASES = [
    "X3", *(f"X3-relabeled:{seed}" for seed in range(1, 7)),
    "Y2", *(f"Y2-relabeled:{seed}" for seed in range(3, 7)),
    "lens:4,4", "lens:8,3",
    *(name for name in RESIDUE_BUILDS if name != "X3"),
    *(
        name for name in HOMOLOGY_ZOO
        if name not in ("Y2", "lens:4,4", "lens:8,3")
    ),
]


def recorded_residue(K, monkeypatch):
    """K's homology and the residue its reduction left, or None."""
    seen = []

    def record(sizes, boundaries):
        seen.append(reduce_chain_complex(sizes, boundaries))
        return seen[-1]

    monkeypatch.setattr(delta, "reduce_chain_complex", record)
    H = K.homology()
    assert len(seen) == (K.dim >= 0)
    return H, (seen[0] if seen else None)


class TestResidueFromFaces:
    """homology() feeds the reduction each cell's faces with alternating
    signs; the residue must be the one the (row, col) dicts gave."""

    @pytest.mark.parametrize("name", RESIDUE_CASES)
    def test_same_residue_as_the_dict_front_end(self, name, monkeypatch):
        K = residue_complex(name)
        H, residue = recorded_residue(K, monkeypatch)
        if residue is None:
            return
        assert ordered(residue) == ordered(dict_residue(K))
        assert H == snf_homology(K)

    @pytest.mark.parametrize("name", RESIDUE_CASES)
    def test_residue_is_as_small_as_the_homology_allows(
        self, name, monkeypatch
    ):
        # each free summand of the reduced homology needs one cell, and
        # each torsion coefficient a cell and its boundary
        K = residue_complex(name)
        H, residue = recorded_residue(K, monkeypatch)
        if residue is None:
            return
        sizes, _ = residue
        torsion = sum(map(len, H.torsion))
        assert sum(sizes) == sum(H.betti) - 1 + 2 * torsion

    @pytest.mark.parametrize(
        "name, betti, torsion",
        [
            ("X3", (1, 46, 1, 0), ((), (), (), ())),
            (
                "lens:4,4",
                (1, 0, 0, 0, 0, 0, 0, 1),
                ((), (4,), (), (4,), (), (4,), (), ()),
            ),
        ],
    )
    def test_no_boundary_matrix_is_built(
        self, name, betti, torsion, monkeypatch
    ):
        K = residue_complex(name)

        def refuse(self, q):
            raise AssertionError("homology() built a boundary matrix")

        monkeypatch.setattr(DeltaComplex, "boundary_matrix", refuse)
        H = K.homology()
        assert (H.betti, H.torsion) == (betti, torsion)


# -- whole-level construction against the per-cell rules -----------------


def per_cell_complex(vertices, faces, tags=None):
    """The former DeltaComplex constructor checks, kept as an oracle: one
    cell at a time for lengths and ranges, then the simplicial identity
    cell by cell and pair by pair.  Returns the faces or raises."""
    built = [tuple(() for _ in range(vertices))]
    for q_minus_1, level in enumerate(faces):
        q = q_minus_1 + 1
        cells = tuple(map(tuple, level))
        for c, cell in enumerate(cells):
            if len(cell) != q + 1:
                raise DeltaComplexError(
                    f"{q}-cell {c} has {len(cell)} faces, wants {q + 1}"
                )
            below = len(built[q - 1])
            if any(type(f) is not int or not 0 <= f < below for f in cell):
                raise DeltaComplexError(
                    f"{q}-cell {c} faces {cell!r} are not {q - 1}-cells"
                )
        built.append(cells)
    while len(built) > 1 and not built[-1]:
        built.pop()
    if tags is not None:
        norm = [tuple(level) for level in tags]
        while len(norm) < len(built):
            norm.append(tuple(None for _ in built[len(norm)]))
        if any(len(norm[q]) != len(built[q]) for q in range(len(built))):
            raise DeltaComplexError("tag shape does not match cells")
    for q in range(2, len(built)):
        lower = built[q - 1]
        for c, cell in enumerate(built[q]):
            for j in range(1, q + 1):
                for i in range(j):
                    if lower[cell[j]][i] != lower[cell[i]][j - 1]:
                        raise DeltaComplexError(
                            f"simplicial identity fails at {q}-cell {c}, "
                            f"faces ({i}, {j})"
                        )
    return tuple(built)


def outcome(build, *args):
    try:
        return "ok", build(*args)
    except DeltaComplexError as exc:
        return "error", str(exc)


def same_outcome(vertices, faces, tags=None):
    want = outcome(per_cell_complex, vertices, faces, tags)
    got = outcome(lambda *a: DeltaComplex(*a).faces, vertices, faces, tags)
    assert got == want
    return got


def planted(K, rng, count):
    """K's face lists with ``count`` cells of dimension >= 2 given a
    random in-range face list, at seeded random cells."""
    faces = [list(level) for level in K.faces[1:]]
    for _ in range(count):
        q = rng.randrange(2, K.dim + 1)
        c = rng.randrange(K.n_cells(q))
        below = K.n_cells(q - 1)
        faces[q - 1][c] = tuple(rng.randrange(below) for _ in range(q + 1))
    return faces


def per_cell_prism(K):
    """The former prism: every (cell, face) through a key face rule."""

    def chain_face(d, cell, i):
        q, c, chain = cell
        k = chain[i][0]
        covered = (i > 0 and chain[i - 1][0] == k) or (
            i + 1 < len(chain) and chain[i + 1][0] == k
        )
        rest = chain[:i] + chain[i + 1 :]
        if covered:
            return q, c, rest
        shifted = tuple((a - 1 if a > k else a, l) for a, l in rest)
        return q - 1, K.faces[q][c][k], shifted

    levels = [[] for _ in range(K.dim + 2)]
    for q in range(K.dim + 1):
        flat, doubled = delta._prism_chains(q)
        for c in range(K.n_cells(q)):
            levels[q].extend((q, c, chain) for chain in flat)
            levels[q + 1].extend((q, c, chain) for chain in doubled)
    tags = [[("prism", q, c, chain) for q, c, chain in level] for level in levels]
    return keyed_complex(levels, chain_face, tags, "prism")


def per_cell_lens(n, d):
    """The former lens_complex: every (cell, face) through a key face rule."""
    levels = [[] for _ in range(2 * d)]
    for rev in product((-1, 0, 1), repeat=d):
        present = d - rev.count(-1)
        if present:
            dims = rev[::-1]
            levels[sum(dims) + d - 1].extend(
                (dims, (0,) + rest)
                for rest in product(range(n), repeat=present - 1)
            )

    def face(q, key, i):
        dims, idx = key
        j = 0
        for t, dt in enumerate(dims):
            if dt < 0:
                continue
            if i <= dt:
                break
            i -= dt + 1
            j += 1
        if dt == 0:
            idx = idx[:j] + idx[j + 1 :]
        else:
            idx = idx[:j] + ((idx[j] + 1 - i) % n,) + idx[j + 1 :]
        first = idx[0]
        if first:
            idx = tuple((k - first) % n for k in idx)
        return dims[:t] + (dt - 1,) + dims[t + 1 :], idx

    return keyed_complex(levels, face, levels)


class TestLevelChecks:
    def test_levels_from_a_generator(self):
        K = DeltaComplex(2, (level for level in [[(1, 0)]]))
        assert K.f_vector() == (2, 1)
        assert K.faces == edge_complex().faces

    @pytest.mark.parametrize("faces, message", [
        (5, "faces 5 is not a list of levels"),
        (None, "faces None is not a list of levels"),
        ([[0, 1]], "1-cell 0 is 0, not a list of faces"),
        ([[(1, 0)], 7], "level 2 of faces is 7, not a list of 2-cells"),
        ([[(1, 0)], [(0, 0, 0), None]], "2-cell 1 is None, not a list of faces"),
        ([np.array(5)], "level 1 of faces is array(5), not a list of 1-cells"),
        ([np.array([1, 0])], "1-cell 0 is 1, not a list of faces"),
    ])
    def test_unlisted_level_or_cell_is_named(self, faces, message):
        with pytest.raises(DeltaComplexError) as err:
            DeltaComplex(2, faces)
        assert str(err.value) == message

    @pytest.mark.parametrize("vertices, faces", [
        (2, [[(1, 0, 0)]]),
        (2, [[(1,)]]),
        (2, [[(1, 0), ()]]),
        (3, [[(1, 0), (2, 1)], [(0, 1)]]),
        (2, [[(True, 0)]]),
        (2, [[(1, False)]]),
        (2, [[(1.0, 0)]]),
        (2, [[(1, np.int64(0))]]),
        (2, [[(1, 0), (np.int32(1), 0)]]),
        (2, [[(1, 0), (None, 0)]]),
        (2, [[(2, 0)]]),
        (2, [[(1, -1)]]),
        (2, [[(1, 0), (1, 2**70)]]),
        (0, [[(0, 0)]]),
        (3, [[(1, 0), (2, 1), (2, 0)], [(0, 1, 5)]]),
        (3, [[(1, 0), (2, 1), (2, 0)], [(2, 2, 0)], [(0, 0, 0, 9)]]),
        (3, [[(1, 0), (2, 1), (2, 0)], [(1, 2, 0)]]),
        (3, [[(1, 0), (2, 1), (2, 0)], [(1, 2, 0), (1, 2, 0, 3)]]),
        (3, [[(1, 0), (2, 1), (2, 0)], [(1, 2, 0), (1, 0.5, 0)]]),
        (2, [[(1, 0)], []]),
        (1, [[], []]),
    ])
    def test_same_verdicts_as_the_per_cell_checks(self, vertices, faces):
        same_outcome(vertices, faces)

    def test_first_failing_pair_in_loop_order(self):
        # faces (1, 2) and (0, 3) both fail; a j-major scan meets (1, 2)
        K = simplex(3)
        faces = [list(level) for level in K.faces[1:]]
        faces[2] = [(3, 3, 1, 1)]
        verdict = same_outcome(4, faces)
        assert verdict == (
            "error", "simplicial identity fails at 3-cell 0, faces (1, 2)"
        )

    def test_tag_shape_is_checked_before_the_identities(self):
        faces = [[(1, 0), (2, 1), (2, 0)], [(1, 2, 0)]]
        verdict = same_outcome(3, faces, [[None] * 3, [None] * 2])
        assert verdict == ("error", "tag shape does not match cells")

    @pytest.mark.parametrize("name", ["X3", "lens:4,4"])
    @pytest.mark.parametrize("seed", range(6))
    def test_planted_identity_failures(self, name, seed):
        K = {
            "X3": lambda: hyperbolized_simplex(3).complex,
            "lens:4,4": lambda: lens_complex(LensSpec(4, 4)),
        }[name]()
        rng = random.Random(seed)
        verdict = same_outcome(K.n_cells(0), planted(K, rng, 1 + seed % 3))
        assert verdict[0] == "error"
        assert verdict[1].startswith("simplicial identity fails at ")

    def test_unplanted_builds_agree(self):
        K = lens_complex(LensSpec(4, 4))
        assert same_outcome(K.n_cells(0), K.faces[1:]) == ("ok", K.faces)


class TestArrayLevels:
    """An integer ndarray level is checked as it is; a bad one gets the
    message the same level gets as a list."""

    TRIANGLE_EDGES = [(1, 0), (2, 1), (2, 0)]

    @pytest.mark.parametrize("vertices, faces", [
        (2, [[(1, 0, 0)]]),  # too wide
        (2, [[(1,)]]),  # too narrow
        (2, [[(1, 0), (2, 0)]]),  # out of range
        (0, [[(0, 0)]]),
        (3, [TRIANGLE_EDGES, [(0, 1, 5)]]),
        (2, [[(1, 0), (1, -1)]]),  # negative
        (2, [[(1.0, 0.0)]]),  # float
        (3, [TRIANGLE_EDGES, [(1.0, 2.0, 0.5)]]),
        (2, [[(True, False)]]),  # bool
        (3, [TRIANGLE_EDGES, [(1, 2, 0), (2, 1, 0)]]),  # simplicial identity
        (4, [*map(list, simplex(3).faces[1:3]), [(3, 3, 1, 1)]]),
    ])
    def test_same_message_as_the_list(self, vertices, faces):
        arrays = [np.array(level) for level in faces]
        assert [a.tolist() for a in arrays] == [list(map(list, l)) for l in faces]
        with pytest.raises(DeltaComplexError) as as_list:
            DeltaComplex(vertices, faces)
        with pytest.raises(DeltaComplexError) as as_array:
            DeltaComplex(vertices, arrays)
        assert str(as_array.value) == str(as_list.value)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_stored_as_tuples_of_ints(self, dtype):
        K = simplex(3)
        arrays = [np.array(level, dtype=dtype) for level in K.faces[1:]]
        L = DeltaComplex(K.n_cells(0), arrays, K.tags)
        assert L.faces == K.faces
        entries = {type(f) for level in L.faces[1:] for cell in level for f in cell}
        assert entries == {int}

    def test_an_empty_level(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert DeltaComplex(3, [empty]).faces == DeltaComplex(3, [[]]).faces


class TestBuildersAgainstPerCellRules:
    @pytest.mark.parametrize("name", [
        "empty", "point", "ngon:1", "Y2", "boundary-simplex:3",
    ])
    def test_prism(self, name):
        K = {
            "empty": empty_complex,
            "point": point,
            "ngon:1": lambda: ngon(1),
            "Y2": lambda: hyperbolized_sphere(2).complex,
            "boundary-simplex:3": lambda: boundary_simplex(3),
        }[name]()
        got, want = prism(K), per_cell_prism(K)
        assert (got.faces, got.tags) == (want.faces, want.tags)

    @pytest.mark.parametrize(
        "n, d",
        [(n, d) for n in range(3, 9) for d in (1, 2, 3)]
        + [(4, 4), (3, 5), (20, 2)],
    )
    def test_lens(self, n, d):
        got, want = lens_complex(LensSpec(n, d)), per_cell_lens(n, d)
        assert (got.faces, got.tags) == (want.faces, want.tags)
