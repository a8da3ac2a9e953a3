import math
import random
from itertools import combinations

import pytest

from rhoforge import smith
from rhoforge.hyperbolize import hyperbolized_simplex
from rhoforge.lens import LensSpec, lens_complex
from rhoforge.smith import bareiss_determinant, smith_normal_form


def matrix_entries(dense):
    """Convert a dense row-major matrix to the sparse mapping form."""
    out = {}
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            if v:
                out[(i, j)] = int(v)
    return out


def integer_rank(entries):
    return smith_normal_form(entries).rank


def cofactor_det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def minor_gcd(m, k):
    """gcd of all k x k minors; 0 when every minor vanishes."""
    rows = range(len(m))
    cols = range(len(m[0]) if m else 0)
    g = 0
    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = [[m[i][j] for j in ci] for i in ri]
            g = math.gcd(g, cofactor_det(sub))
    return g


def snf_oracle(m):
    """Invariant factors via the minor-gcd characterization."""
    bound = min(len(m), len(m[0]) if m else 0)
    d = [1]
    for k in range(1, bound + 1):
        d.append(minor_gcd(m, k))
    rank = max((k for k in range(bound + 1) if d[k] != 0), default=0)
    return tuple(d[k] // d[k - 1] for k in range(1, rank + 1))


def _full_scan_pivot(rows, cols):
    best = None
    best_key = None
    for r, rowd in rows.items():
        rl = len(rowd)
        for c, v in rowd.items():
            key = (abs(v), rl * len(cols[c]))
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
                if key == (1, 1):
                    return best
    return best


def naive_smith(entries):
    """(rank, invariant factors) by elimination that scans every nonzero
    for each pivot, taking the least (|v|, row length * column length).

    The reference ``smith_normal_form`` is checked against: the same
    elimination on the whole matrix, without the unit reductions first.
    """
    rows, cols = {}, {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    diag = []
    while rows:
        r, c = _full_scan_pivot(rows, cols)
        while True:
            v = rows[r][c]
            for r2 in list(cols[c]):
                if r2 == r:
                    continue
                q = rows[r2][c] // v
                if q:
                    row2 = rows[r2]
                    for cc, vv in rows[r].items():
                        nv = row2.get(cc, 0) - q * vv
                        if nv:
                            row2[cc] = nv
                            cols[cc].add(r2)
                        elif cc in row2:
                            del row2[cc]
                            cols[cc].discard(r2)
                    if not row2:
                        del rows[r2]
            if len(cols[c]) > 1:
                r = min(
                    (r2 for r2 in cols[c] if r2 != r),
                    key=lambda r2: abs(rows[r2][c]),
                )
                continue
            v = rows[r][c]
            rowd = rows[r]
            for c2 in list(rowd):
                if c2 == c:
                    continue
                rem = rowd[c2] % v
                if rem:
                    rowd[c2] = rem
                else:
                    del rowd[c2]
                    cols[c2].discard(r)
            if len(rowd) == 1:
                break
            c = min((cc for cc in rowd if cc != c), key=lambda cc: abs(rowd[cc]))
        diag.append(abs(rows[r][c]))
        del rows[r]
        cols[c].discard(r)
        if not cols[c]:
            del cols[c]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return len(diag), tuple(sorted(diag))


def relabeled(K, rng):
    return K.relabeled(
        [rng.sample(range(K.n_cells(q)), K.n_cells(q)) for q in range(K.dim + 1)]
    )


def boundary_matrices(K):
    return [K.boundary_matrix(q) for q in range(1, K.dim + 1)]


class TestSmithNormalForm:
    def test_known_forms(self):
        assert smith_normal_form(matrix_entries([[2, 0], [0, 3]])).invariant_factors == (1, 6)
        assert smith_normal_form(matrix_entries([[2, 4], [4, 2]])).invariant_factors == (2, 6)
        assert smith_normal_form(matrix_entries([[2], [0]])).invariant_factors == (2,)
        assert smith_normal_form(matrix_entries([[1, 0], [0, 0]])).invariant_factors == (1,)

    def test_empty_and_zero(self):
        res = smith_normal_form({})
        assert res.rank == 0
        assert res.invariant_factors == ()
        assert res.torsion == ()
        assert smith_normal_form(matrix_entries([[0, 0], [0, 0]])).rank == 0

    def test_torsion_property(self):
        res = smith_normal_form(matrix_entries([[2, 0], [0, 3]]))
        assert res.torsion == (6,)
        res2 = smith_normal_form(matrix_entries([[1, 0], [0, 1]]))
        assert res2.torsion == ()

    def test_negative_entries_normalized(self):
        res = smith_normal_form(matrix_entries([[-3]]))
        assert res.invariant_factors == (3,)

    def test_divisibility_chain_seeded(self):
        rng = random.Random(7)
        for _ in range(40):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            factors = smith_normal_form(matrix_entries(m)).invariant_factors
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    def test_matches_minor_gcd_oracle_seeded(self):
        rng = random.Random(11)
        for _ in range(30):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
            res = smith_normal_form(matrix_entries(m))
            expected = snf_oracle(m)
            assert res.invariant_factors == expected
            assert res.rank == len(expected)

    def test_integer_rank(self):
        assert integer_rank(matrix_entries([[1, 2], [2, 4]])) == 1
        assert integer_rank(matrix_entries([[1, 0], [0, 5]])) == 2
        assert integer_rank({}) == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: relabeled(hyperbolized_simplex(3).complex, random.Random(5)),
            lambda: lens_complex(LensSpec(4, 4)),
            lambda: lens_complex(LensSpec(8, 3)),
        ],
        ids=["X3-relabeled", "lens4,4", "lens8,3"],
    )
    def test_matches_full_scan_on_boundary_matrices(self, build):
        for entries in boundary_matrices(build()):
            res = smith_normal_form(entries)
            assert (res.rank, res.invariant_factors) == naive_smith(entries)

    def test_markowitz_scan_takes_units_the_reduction_leaves(self, monkeypatch):
        markowitz = smith._markowitz_pivot
        scans = []

        def recorded(rows, cols):
            scans.append(len(rows))
            return markowitz(rows, cols)

        monkeypatch.setattr(smith, "_markowitz_pivot", recorded)
        for entries in boundary_matrices(lens_complex(LensSpec(4, 4))):
            smith_normal_form(entries)
        # the Z/4 torsion is the residue that reaches the scan
        assert scans
        # the single sweep can leave a unit, which the scan must then take
        rng = random.Random(1)
        found = 0
        for _ in range(5000):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            m = [[rng.choice([0, 0, 1, -1, 2, -2, 3]) for _ in range(c)]
                 for _ in range(r)]
            entries = matrix_entries(m)
            columns = [[] for _ in range(c)]
            for (i, j), v in entries.items():
                columns[j].append((i, v))
            _, (_, residue) = smith.reduce_chain_complex([r, c], [[], columns])
            if any(abs(v) == 1 for v in residue.values()):
                found += 1
                res = smith_normal_form(entries)
                assert (res.rank, res.invariant_factors) == naive_smith(entries)
        assert found >= 50

    def test_no_unit_entries(self):
        # every pivot comes from the Markowitz scan, and gcd steps create
        # units midway
        m = [[6, 10, 0], [4, 0, 15], [0, 9, 12]]
        res = smith_normal_form(matrix_entries(m))
        assert res.invariant_factors == snf_oracle(m)
        assert (res.rank, res.invariant_factors) == naive_smith(matrix_entries(m))

    def test_matches_sympy_on_random_matrices(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        any_entry = st.integers(-9, 9)
        no_unit = any_entry.filter(lambda v: abs(v) != 1)

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            entry = data.draw(st.sampled_from([any_entry, no_unit]))
            r = data.draw(st.integers(1, 5))
            c = data.draw(st.integers(1, 5))
            m = data.draw(
                st.lists(
                    st.lists(entry, min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
            d = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
            expected = sorted(
                abs(int(d[i, i])) for i in range(min(r, c)) if d[i, i]
            )
            res = smith_normal_form(matrix_entries(m))
            assert list(res.invariant_factors) == expected

        check()


class TestBareissDeterminant:
    def test_known_values(self):
        assert bareiss_determinant([]) == 1
        assert bareiss_determinant([[7]]) == 7
        assert bareiss_determinant([[2, -1], [-1, 2]]) == 3
        assert bareiss_determinant([[2, 4], [4, 2]]) == -12
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            bareiss_determinant([[1, 2, 3], [4, 5, 6]])

    def test_matches_cofactor_seeded(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(m) == cofactor_det(m)

    def test_pivot_swap_path(self):
        # leading zero forces a row swap
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([[0, 0], [0, 1]]) == 0

    def test_factor_product_matches_det(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            det = cofactor_det(m)
            if det == 0:
                continue
            factors = smith_normal_form(matrix_entries(m)).invariant_factors
            assert math.prod(factors) == abs(det)


class TestMatrixEntries:
    def test_sparse_conversion(self):
        assert matrix_entries([[0, 3], [0, 0]]) == {(0, 1): 3}
        assert matrix_entries([]) == {}
