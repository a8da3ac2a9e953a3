"""Lens quotients, rho sums, and the counting arithmetic."""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rhoforge import lens
from rhoforge.cap import ResourceCapError
from rhoforge.delta import DeltaComplex
from rhoforge.lens import (
    LensError,
    LensSpec,
    divisor_count,
    growth_exponent,
    homotopy_invariant_count,
    invariant_count,
    lens_complex,
    lens_count,
    rho_atiyah_bott,
    rho_exact,
    rho_lower_bound_check,
    rho_polynomial,
    thm13_lower,
)

COUNTEREXAMPLES = {(4, 4), (4, 6), (5, 6)}


class TestSpec:
    def test_validation(self):
        with pytest.raises(LensError):
            LensSpec(1, 2)
        with pytest.raises(LensError):
            LensSpec(5, 0)
        assert LensSpec(5, 3).dim == 5

    def test_n2_rejected_by_builder(self):
        for builder in (lens_complex, lens_count):
            with pytest.raises(LensError):
                builder(LensSpec(2, 2))


class TestComplex:
    def test_three_two(self):
        K = lens_complex(LensSpec(3, 2))
        assert K.f_vector() == (2, 5, 6, 3)
        H = K.homology()
        assert H.betti == (1, 0, 0, 1)
        assert H.torsion == ((), (3,), (), ())

    def test_circle_quotients(self):
        for n in (3, 5, 8):
            K = lens_complex(LensSpec(n, 1))
            assert K.f_vector() == (1, 1)

    def test_counts_are_join_counts_over_n(self):
        # join of two N-gons: (2N, N^2+2N, 2N^2, N^2)
        for n in (3, 4, 7):
            c = lens_count(LensSpec(n, 2))
            assert c.per_dim == (2, n + 2, 2 * n, n)
            assert c.total == 4 * n + 4
            assert c.top == n

    def test_closed_form_counts_match_the_built_complex(self):
        for n in range(3, 9):
            for d in range(1, 5):
                spec = LensSpec(n, d)
                c = lens_count(spec)
                assert c.per_dim == lens_complex(spec).f_vector()
                assert c.total == sum(c.per_dim) == lens_complex(spec).total_cells()

    def test_top_count_power_law(self):
        for d in (2, 3):
            for n in range(3, 9):
                assert lens_count(LensSpec(n, d)).top == n ** (d - 1)

    def test_euler_zero(self):
        for n, d in ((3, 2), (4, 2), (5, 2), (3, 3)):
            assert lens_complex(LensSpec(n, d)).euler() == 0

    def test_fundamental_torsion(self):
        for n in range(3, 13):
            H = lens_complex(LensSpec(n, 2)).homology()
            assert H.betti[0] == 1
            assert H.betti[1] == 0
            assert H.torsion[1] == (n,)


def pattern_lens_complex(spec):
    """The lens builder as it was before faces were batched by shape
    group: the same face rule, one numpy pass per ``dims`` pattern."""
    n, d = spec.n, spec.d
    levels = [[] for _ in range(2 * d)]
    patterns = [[] for _ in range(2 * d)]
    offset = {}
    for rev in product((-1, 0, 1), repeat=d):
        present = d - rev.count(-1)
        if present:
            dims = rev[::-1]
            q = sum(dims) + d - 1
            patterns[q].append(dims)
            offset[dims] = len(levels[q])
            levels[q].extend(
                (dims, (0,) + rest)
                for rest in product(range(n), repeat=present - 1)
            )
    faces = []
    for q in range(1, 2 * d):
        out = np.empty((len(levels[q]), q + 1), dtype=np.int64)
        for dims in patterns[q]:
            slots = [t for t, dt in enumerate(dims) if dt >= 0]
            p = len(slots)
            grid = np.indices((1,) + (n,) * (p - 1)).reshape(p, -1).T
            step, first, weights, base = [], [], [], []
            for j, t in enumerate(slots):
                kept = [s for s in range(p) if s != j or dims[t]]
                w = [0] * p
                for r, s in enumerate(reversed(kept[1:])):
                    w[s] = n**r
                face = offset[dims[:t] + (dims[t] - 1,) + dims[t + 1 :]]
                for v in range(dims[t] + 1):
                    step.append(
                        [1 - v if s == j and dims[t] else 0 for s in range(p)]
                    )
                    first.append(kept[0])
                    weights.append(w)
                    base.append(face)
            idx = grid + np.array(step)[:, None, :]
            idx -= idx[np.arange(len(first)), :, first][:, :, None]
            idx %= n
            rows = slice(offset[dims], offset[dims] + len(grid))
            out[rows] = np.einsum("fmp,fp->mf", idx, np.array(weights)) + base
        faces.append(out)
    return DeltaComplex(len(levels[0]), faces, levels)


class TestBatchedBuilder:
    """``lens_complex`` against the per-pattern builder it replaced."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_equal_to_the_per_pattern_builder(self, n):
        for d in range(1, 6):
            spec = LensSpec(n, d)
            ours, oracle = lens_complex(spec), pattern_lens_complex(spec)
            assert ours.faces == oracle.faces, (n, d)
            assert {t for level in ours.tags for t in level} == {None}
            assert len(ours._face_arrays) == len(oracle._face_arrays)
            for a, b in zip(ours._face_arrays, oracle._face_arrays):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b), (n, d)

    def test_cap_fires_before_any_array(self, monkeypatch):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "100")

        def refuse(*args, **kwargs):
            raise AssertionError("an array was built over the cap")

        for name in ("indices", "empty", "array", "einsum"):
            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(ResourceCapError, match="needs 266 cells, cap is 100"):
            lens_complex(LensSpec(5, 3))


class TestGrowth:
    def test_top_slope_is_exact(self):
        assert abs(growth_exponent(2) - 1.0) < 1e-9
        assert abs(growth_exponent(3, (3, 8)) - 2.0) < 1e-9
        assert abs(growth_exponent(1)) < 1e-9

    def test_total_slope_lags_for_small_n(self):
        # 4N+4 over [3,12] has not reached its asymptotic exponent yet
        slope = growth_exponent(2, (3, 12), counts="total")
        assert abs(slope - 0.8554) < 1e-2
        assert slope < 0.9

    def test_bad_arguments(self):
        with pytest.raises(LensError):
            growth_exponent(2, (2, 5))
        with pytest.raises(LensError):
            growth_exponent(2, (5, 5))
        with pytest.raises(LensError):
            growth_exponent(2, counts="median")


def paired_rho(spec):
    """The cotangent sum with each (k, N-k) pair summed term by term."""
    n, d = spec.n, spec.d
    terms = []
    for k in range(1, (n + 1) // 2):
        t = math.pi * k / n
        c = math.cos(t) / math.sin(t)
        terms.append(c**d)
        terms.append((-c) ** d)
    if n % 2 == 0:
        terms.append(0.0)
    return math.fsum(terms)


class TestRho:
    def test_exact_small_cases(self):
        # the float sum read 2.0000000000000027 and 13.600000000000003
        cases = {
            (4, 4): Fraction(2),
            (4, 6): Fraction(2),
            (5, 6): Fraction(68, 5),
            (2, 4): Fraction(0),
            (3, 4): Fraction(2, 9),
        }
        for (n, d), value in cases.items():
            assert rho_exact(LensSpec(n, d)) == value, (n, d)
        assert rho_atiyah_bott(LensSpec(4, 6)) == 2.0
        assert rho_atiyah_bott(LensSpec(5, 6)) == 13.6

    def test_closed_forms(self):
        for n in range(2, 401):
            assert rho_exact(LensSpec(n, 2)) == Fraction((n - 1) * (n - 2), 3)
            assert rho_exact(LensSpec(n, 4)) == Fraction(
                (n - 1) * (n - 2) * (n * n + 3 * n - 13), 45
            )

    def test_odd_d_is_exactly_zero(self):
        for n in range(2, 60):
            for d in (1, 3, 5, 7, 9):
                assert rho_exact(LensSpec(n, d)) == 0

    def test_float_is_the_rounded_exact_value(self):
        for d in (2, 3, 6, 10):
            for n in range(2, 200):
                spec = LensSpec(n, d)
                assert rho_atiyah_bott(spec) == float(rho_exact(spec))

    def test_agrees_with_pairing(self):
        for d in range(1, 11):
            for n in range(2, 600):
                rho = rho_atiyah_bott(LensSpec(n, d))
                oracle = paired_rho(LensSpec(n, d))
                assert abs(rho - oracle) <= 1e-12 * abs(oracle), (n, d)

    def test_square_case(self):
        assert abs(rho_atiyah_bott(LensSpec(4, 2)) - 2.0) < 1e-12

    def test_cotangent_square_identity(self):
        for n in range(3, 201):
            rho = rho_atiyah_bott(LensSpec(n, 2))
            expected = (n - 1) * (n - 2) / 3
            assert abs(rho - expected) <= 1e-9 * expected

    def test_odd_powers_vanish_exactly(self):
        for n in range(2, 21):
            for d in (1, 3, 5):
                assert rho_atiyah_bott(LensSpec(n, d)) == 0.0

    def test_two_term_cases(self):
        assert rho_atiyah_bott(LensSpec(2, 4)) == 0.0
        c = 1.0 / math.tan(math.pi / 3)
        assert abs(rho_atiyah_bott(LensSpec(3, 4)) - 2 * c**4) < 1e-15


def newton_rho(n, d):
    """rho(N, d) from the per-N integer recurrence of Newton's identities.

    The power sums of the roots cot(pi k / N) are P_k / N^k, with
    P_k = -2k E_k N^(k-1) - sum_{0<j<k} E_j P_{k-j} N^(j-1) and
    E_j = (-1)^j C(N, 2j+1); the odd ones vanish.
    """
    if d % 2:
        return Fraction(0)
    half = d // 2
    e = [(-1) ** j * math.comb(n, 2 * j + 1) for j in range(half + 1)]
    p = [n - 1]
    for k in range(1, half + 1):
        acc = 2 * k * e[k] * n ** (k - 1)
        for j in range(1, k):
            acc += e[j] * p[k - j] * n ** (j - 1)
        p.append(-acc)
    return Fraction(p[half], n**half)


class TestRhoPolynomial:
    def test_matches_the_newton_recurrence(self):
        for d in range(2, 31, 2):
            for n in range(2, 301):
                assert rho_exact(LensSpec(n, d)) == newton_rho(n, d), (n, d)

    def test_odd_d_is_the_zero_polynomial(self):
        for d in range(1, 31, 2):
            assert rho_polynomial(d) == ((0,), 1)
            for n in (2, 3, 4, 17, 300):
                assert rho_exact(LensSpec(n, d)) == 0 == newton_rho(n, d)

    def test_leading_coefficient_is_bernoulli(self):
        sympy = pytest.importorskip("sympy")
        for d in range(2, 31, 2):
            coeffs, den = rho_polynomial(d)
            assert len(coeffs) == d + 1
            b = sympy.bernoulli(d)
            bernoulli = abs(Fraction(int(b.p), int(b.q)))
            assert Fraction(coeffs[-1], den) == (
                2**d * bernoulli / math.factorial(d)
            ), d
        assert Fraction(rho_polynomial(6)[0][-1], rho_polynomial(6)[1]) == (
            Fraction(2, 945)
        )

    def test_lowest_terms(self):
        for d in range(2, 31, 2):
            coeffs, den = rho_polynomial(d)
            assert den > 0 and math.gcd(den, *coeffs) == 1

    def test_derivation_is_cheap(self):
        # a sweep pays this once per d
        rho_polynomial.cache_clear()
        for d in range(2, 41, 2):
            start = time.perf_counter()
            rho_polynomial(d)
            assert time.perf_counter() - start < 0.05, d

    def test_d_below_one_rejected(self):
        with pytest.raises(LensError):
            rho_polynomial(0)


class TestLowerBound:
    def test_four_two_holds(self):
        r = rho_lower_bound_check(LensSpec(4, 2))
        assert r.holds and bool(r)
        assert r.status == "ok"
        assert abs(r.bound - (4 / math.pi) ** 2) < 1e-12
        assert abs(r.rho - 2.0) < 1e-12

    def test_out_of_hypothesis_flag(self):
        assert rho_lower_bound_check(LensSpec(3, 2)).status == (
            "out_of_hypothesis"
        )
        assert rho_lower_bound_check(LensSpec(7, 3)).status == (
            "out_of_hypothesis"
        )

    def test_counterexample_set(self):
        # inside the stated hypothesis the inequality fails exactly here
        failures = set()
        for d in (2, 4, 6):
            for n in range(4, 51):
                if not rho_lower_bound_check(LensSpec(n, d)):
                    failures.add((n, d))
        assert failures == COUNTEREXAMPLES

    def test_certified_failures(self):
        # every row is decided by the integer comparison; none is undecided
        expected = {2: [], 4: [4], 6: [4, 5], 8: [4, 5, 6], 10: [4, 5, 6, 7]}
        for d, failures in expected.items():
            rows = [rho_lower_bound_check(LensSpec(n, d)) for n in range(4, 2001)]
            assert {r.status for r in rows} == {"ok"}
            assert [n for n, r in enumerate(rows, 4) if not r.holds] == failures

    def test_undecided_when_the_bracket_is_too_wide(self, wide_pi_bracket):
        r = rho_lower_bound_check(LensSpec(4, 2))
        assert r.status == "undecided"
        assert not r.holds and not r
        assert r.rho == 2.0 and r.bound == (4 / math.pi) ** 2
        # rho = 0 for odd d, which no bracket can lift over N^d
        odd = rho_lower_bound_check(LensSpec(4, 3))
        assert odd.status == "out_of_hypothesis" and not odd.holds

    def test_decision_matches_the_rational_comparison(self):
        lo, hi = lens.PI_BRACKET
        for d in (2, 3, 4, 6, 8, 30):
            for n in range(2, 200):
                rho = newton_rho(n, d)
                r = rho_lower_bound_check(LensSpec(n, d))
                assert r.holds == (n**d < rho * lo**d), (n, d)
                fails = n**d >= rho * hi**d
                assert (r.status == "undecided") == (not r.holds and not fails)
                assert r.rho == float(rho)

    def test_rebound_bracket_takes_effect_and_is_undone(self, monkeypatch):
        # the powers are raised from the bracket on each call
        assert rho_lower_bound_check(LensSpec(4, 2)).status == "ok"
        monkeypatch.setattr(lens, "PI_BRACKET", (Fraction(1), Fraction(4)))
        try:
            assert rho_lower_bound_check(LensSpec(4, 2)).status == "undecided"
        finally:
            monkeypatch.undo()
        assert rho_lower_bound_check(LensSpec(4, 2)).status == "ok"

    def test_overflow_is_an_overflow_error(self):
        with pytest.raises(OverflowError):
            rho_lower_bound_check(LensSpec(1990, 120))

    def test_result_fields_truth_and_immutability(self):
        r = rho_lower_bound_check(LensSpec(5, 6))
        assert lens.RhoBoundResult._fields == (
            "rho", "bound", "holds", "status"
        )
        assert r == (13.6, (5 / math.pi) ** 6, False, "ok")
        assert repr(r) == (
            "RhoBoundResult(rho=13.6, "
            f"bound={(5 / math.pi) ** 6!r}, holds=False, status='ok')"
        )
        # a nonempty tuple would be true; truth is ``holds``
        assert not r and bool(rho_lower_bound_check(LensSpec(4, 2)))
        with pytest.raises(AttributeError):
            r.holds = True
        with pytest.raises(TypeError):
            r[3] = True
        assert hash(r) == hash(tuple(r))

    def test_thm13_lower(self):
        assert thm13_lower(LensSpec(7, 3), 2) == 98
        assert thm13_lower(LensSpec(5, 1), 3.5) == 3.5


class TestInvariantCounts:
    def test_examples(self):
        assert invariant_count(5, 7) == 2
        assert invariant_count(6, 7) == 3
        assert invariant_count(2, 3) == 1
        assert invariant_count(7, 5) == 3

    def test_even_dim_rejected(self):
        with pytest.raises(LensError):
            invariant_count(5, 6)
        with pytest.raises(LensError):
            homotopy_invariant_count(5, 6)

    def test_divisors(self):
        assert divisor_count(6) == 4
        assert divisor_count(12) == 6
        assert divisor_count(1) == 1
        assert divisor_count(7) == 2
        assert divisor_count(36) == 9

    def test_homotopy_counts(self):
        assert homotopy_invariant_count(6, 7) == 3
        assert homotopy_invariant_count(5, 7) == 3
        assert homotopy_invariant_count(2, 3) == 2 - 2 + 1
