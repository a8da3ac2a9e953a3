"""Lens spaces as free cyclic quotients of joined polygons.

The standard lens space of dimension 2d-1 with fundamental group Z_N is
the quotient of a join of d copies of the N-gon circle by the diagonal
rotation.  The rotation shifts every polygon index by one, so each orbit
of join cells has exactly one member whose first present index is 0;
``lens_complex`` lists those representatives directly, without building
the join.  Cell counts of the quotient scale like N^(d-1); the rho
invariant of these spaces is a cotangent power sum, a polynomial in N
for each d, derived once from Newton's identities in integers and
evaluated exactly, together with the certified bound check and the
invariant-counting arithmetic built on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .cap import require_cells

if TYPE_CHECKING:
    from .delta import DeltaComplex


class LensError(ValueError):
    pass


@dataclass(frozen=True)
class LensSpec:
    """Parameters (N, d): fundamental group Z_N, dimension 2d-1."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 2:
            raise LensError("N must be at least 2")
        if self.d < 1:
            raise LensError("d must be at least 1")

    @property
    def dim(self) -> int:
        return 2 * self.d - 1


def lens_complex(spec: LensSpec) -> DeltaComplex:
    """Quotient of the join of d N-gons by the diagonal rotation.

    A cell is keyed, and tagged, by its orbit representative: per
    polygon -1 (absent), 0 (vertex k) or 1 (edge k -> k+1), the
    ``dims`` pattern, then the indices k of the present polygons, the
    first one 0.  Each dimension is numbered by ``(dims[::-1],
    indices)``, as the quotient of the iterated join
    ``join(...join(P, P)..., P)`` keeping each orbit's smallest member
    is: a pattern's p present polygons take a block of N^(p-1) cells,
    the indices after the first read as a mixed-radix number in base N.
    Face i drops vertex i of the concatenated vertex list (edge k keeps
    k+1 at position 0, k at position 1) and rotates the first index back
    to 0.  That rule is applied to whole grids of indices at once, and
    the result read back as block offset plus mixed-radix position.  The
    patterns of one dimension q with the same p share the grid
    ``np.indices((1,) + (N,) * (p - 1))`` and have q + 1 faces each, so
    each such group stacks its per-pattern step, first-slot, weight and
    offset tables and runs one einsum, its rows scattered to the
    patterns' blocks: at d = 4, 13 groups in place of 76 patterns with
    faces.  The ``lens_count`` total, ((2N+1)^d - 1) / N, is checked
    against the cell cap first.  Requires N >= 3; the construction is
    stated for rotations acting freely on a polygon with at least three
    sides.
    """
    import numpy as np

    from .delta import DeltaComplex

    n, d = spec.n, spec.d
    require_cells(lens_count(spec).total, f"lens complex ({n}, {d})")
    levels: list[list] = [[] for _ in range(2 * d)]
    # per level q, the patterns by their count p of present polygons
    groups: list[dict[int, list]] = [{} for _ in range(2 * d)]
    offset: dict[tuple[int, ...], int] = {}
    # rev = dims[::-1] runs in lex order, so each level comes out sorted
    for rev in product((-1, 0, 1), repeat=d):
        present = d - rev.count(-1)
        if present:
            dims = rev[::-1]
            q = sum(dims) + d - 1
            groups[q].setdefault(present, []).append(dims)
            offset[dims] = len(levels[q])
            levels[q].extend(
                (dims, (0,) + rest)
                for rest in product(range(n), repeat=present - 1)
            )
    faces = []
    for q in range(1, 2 * d):
        out = np.empty((len(levels[q]), q + 1), dtype=np.int64)
        for p, group in groups[q].items():
            grid = np.indices((1,) + (n,) * (p - 1)).reshape(p, -1).T
            # per pattern and face: the step on slot j, the slot that
            # becomes first, the mixed-radix weights of the slots left,
            # the block offset of the face's pattern
            step, first, weights, base = [], [], [], []
            for dims in group:
                slots = [t for t, dt in enumerate(dims) if dt >= 0]
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
            shape = (len(group), q + 1)
            # idx[g, f, m]: the indices of face f of cell m of pattern g
            idx = grid + np.array(step).reshape(shape + (1, p))
            idx -= np.take_along_axis(
                idx, np.array(first).reshape(shape + (1, 1)), axis=3
            )
            idx %= n
            cells = np.einsum(
                "gfmp,gfp->gmf", idx, np.array(weights).reshape(shape + (p,))
            )
            cells += np.array(base).reshape(shape)[:, None, :]
            rows = np.add.outer([offset[dims] for dims in group], range(len(grid)))
            out[rows.ravel()] = cells.reshape(-1, q + 1)
        faces.append(out)
    return DeltaComplex(len(levels[0]), faces, levels)


@dataclass(frozen=True)
class LensCount:
    per_dim: tuple[int, ...]
    total: int
    top: int


def lens_count(spec: LensSpec) -> LensCount:
    """The f-vector of ``lens_complex(spec)``, without building it.

    A cell with p present polygons, e of them edges, has dimension
    p + e - 1; there are C(d, p) C(p, e) such choices, each with N^(p-1)
    orbit representatives.  The total is ((2N+1)^d - 1) / N.
    """
    n, d = spec.n, spec.d
    if n < 3:
        raise LensError(
            "lens complexes need N >= 3 for the rotation action"
        )
    f = [0] * (2 * d)
    for p in range(1, d + 1):
        for e in range(p + 1):
            f[p + e - 1] += math.comb(d, p) * math.comb(p, e) * n ** (p - 1)
    return LensCount(tuple(f), sum(f), f[-1])


def growth_exponent(
    d: int,
    n_range: tuple[int, int] = (3, 12),
    counts: str = "top",
) -> float:
    """Least-squares slope of log(cell count) against log(N).

    Top-cell counts are exactly N^(d-1), so the default slope is the
    growth exponent on the nose; "total" fits the full cell count, which
    approaches the same exponent only as N grows.
    """
    lo, hi = n_range
    if lo < 3 or hi <= lo:
        raise LensError("range must hold at least two N >= 3")
    if counts not in ("top", "total"):
        raise LensError("counts must be 'top' or 'total'")
    xs, ys = [], []
    for n in range(lo, hi + 1):
        c = lens_count(LensSpec(n, d))
        xs.append(math.log(n))
        ys.append(math.log(c.top if counts == "top" else c.total))
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


# -- the rho invariant ------------------------------------------------


def _power_sum(n: int, half: int) -> int:
    """N^half times the sum of cot^(2 half)(pi k / N) over k = 1 .. N-1.

    The cotangents cot(pi k / N) are the roots of
    sum_j (-1)^j C(N, 2j+1) x^(N-1-2j), so their elementary symmetric
    functions are e_2j = E_j / N with E_j = (-1)^j C(N, 2j+1), and the
    odd ones vanish.  Writing the power sum of degree 2k as P_k / N^k,
    Newton's identities become the integer recurrence
    P_k = -2k E_k N^(k-1) - sum_{0<j<k} E_j P_{k-j} N^(j-1); this
    returns P_half.
    """
    e = [(-1) ** j * math.comb(n, 2 * j + 1) for j in range(half + 1)]
    p = [n - 1]  # P_0, the number of roots
    for k in range(1, half + 1):
        acc = 2 * k * e[k] * n ** (k - 1)
        for j in range(1, k):
            acc += e[j] * p[k - j] * n ** (j - 1)
        p.append(-acc)
    return p[half]


@functools.cache
def rho_polynomial(d: int) -> tuple[tuple[int, ...], int]:
    """Integers (A, D) with rho(N, d) = A(N) / D, D > 0 and gcd(D, *A) = 1.

    ``A`` lists the coefficients of N^0, N^1, ..., N^d.  For even d the
    cotangent power sum is a polynomial of degree d in N, with leading
    coefficient 2^d |B_d| / d! (Berndt and Yeap); for odd d it is 0, and
    so is ``A``.  The polynomial is interpolated through the values of
    ``_power_sum`` at N = 2 .. d+2: with the values scaled to integers
    by L = lcm(2 .. d+2)^(d/2), the Newton form on these unit-spaced
    nodes has forward differences as coefficients, and d! clears the
    k! under each.  The value at N = d+3 is checked against the
    recurrence.  Derived once per d and cached.

    >>> rho_polynomial(2)
    ((2, -3, 1), 3)
    >>> rho_polynomial(3)
    ((0,), 1)
    """
    if d < 1:
        raise LensError("d must be at least 1")
    if d % 2:
        return (0,), 1
    half = d // 2
    nodes = range(2, d + 3)
    scale = math.lcm(*nodes) ** half
    diffs = [_power_sum(n, half) * (scale // n**half) for n in nodes]
    coeffs = [0] * (d + 1)
    basis = [1]  # prod_{i<k} (N - nodes[i]), constant term first
    for k in range(d + 1):
        weight = diffs[0] * (math.factorial(d) // math.factorial(k))
        for i, b in enumerate(basis):
            coeffs[i] += weight * b
        basis = [0] + basis
        for i in range(len(basis) - 1):
            basis[i] -= nodes[k] * basis[i + 1]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    den = scale * math.factorial(d)
    g = math.gcd(den, *coeffs)
    coeffs = tuple(c // g for c in coeffs)
    den //= g
    n = d + 3
    if _horner(coeffs, n) * n**half != _power_sum(n, half) * den:
        raise ArithmeticError(f"rho polynomial for d = {d} misses N = {n}")
    return coeffs, den


def _horner(coeffs: tuple[int, ...], n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def rho_exact(spec: LensSpec) -> Fraction:
    """Sum of cot^d(pi k / N) over k = 1 .. N-1, as an exact rational.

    The cached ``rho_polynomial(d)`` evaluated at N by Horner's rule: a
    row costs O(d) integer operations, after a one-time derivation of
    O(d^3) per d.

    >>> rho_exact(LensSpec(5, 6))
    Fraction(68, 5)
    >>> rho_exact(LensSpec(4, 6)), rho_exact(LensSpec(7, 3))
    (Fraction(2, 1), Fraction(0, 1))
    """
    coeffs, den = rho_polynomial(spec.d)
    return Fraction(_horner(coeffs, spec.n), den)


def rho_atiyah_bott(spec: LensSpec) -> float:
    """``rho_exact`` correctly rounded to a float.

    Raises OverflowError when the value does not fit in a float.
    """
    return float(rho_exact(spec))


# Rational bounds on pi that certify the (N/pi)^d < rho decision.
PI_BRACKET = (
    Fraction(314159265358979, 10**14),
    Fraction(314159265358980, 10**14),
)


class RhoBoundResult(NamedTuple):
    """Outcome of the (N/pi)^d < rho comparison.

    Truthiness is the comparison itself, decided exactly: rho is the
    rational ``rho_exact`` and pi lies in ``PI_BRACKET``, so the bound
    holds if N^d < rho pi_lo^d and fails if N^d >= rho pi_hi^d.
    ``status`` is "undecided" when neither is true (``holds`` is then
    False), else it records whether the pair (N, d) sits inside the
    hypothesis of the stated bound (d even, N >= 4): "ok" or
    "out_of_hypothesis".  ``rho`` is the correctly rounded float and
    ``bound`` the float (N/pi)^d, for reports.  It is a named tuple, so
    it compares equal to the plain tuple of its fields.
    """

    spec: LensSpec
    rho: float
    bound: float
    holds: bool
    status: str

    def __bool__(self) -> bool:
        return self.holds


def rho_lower_bound_check(
    spec: LensSpec, by_power_sum: bool = False
) -> RhoBoundResult:
    """Decide (N/pi)^d < rho(N, d) in integers.

    With rho = A(N) / D from ``rho_polynomial``, pi_lo = a / b and
    pi_hi = a' / b', the bound holds if N^d D b^d < A(N) a^d and fails
    if N^d D b'^d >= A(N) a'^d; scaling both sides by the same positive
    integer changes neither comparison, so nothing is reduced.  The
    powers are raised from ``PI_BRACKET`` on each call, so a rebound
    bracket takes effect at once.  Raises OverflowError when rho or
    (N/pi)^d does not fit in a float.

    ``by_power_sum`` takes (A, D) for even d as ``_power_sum(N, d/2)``
    and N^(d/2) instead, the same rational unreduced, without deriving
    ``rho_polynomial(d)``: the route for fewer rows than the d + 1
    interpolation nodes.  ``a / den`` is correctly rounded, as
    float(Fraction) is, so both routes give the same result.

    >>> r = rho_lower_bound_check(LensSpec(5, 6))
    >>> r.holds, r.status, r.rho
    (False, 'ok', 13.6)
    >>> rho_lower_bound_check(LensSpec(5, 6), by_power_sum=True) == r
    True
    """
    n, d = spec.n, spec.d
    if by_power_sum and d % 2 == 0:
        half = d // 2
        a, den = _power_sum(n, half), n**half
    else:
        coeffs, den = rho_polynomial(d)
        a = _horner(coeffs, n)
    lo, hi = PI_BRACKET
    target = n**d * den
    holds = target * lo.denominator**d < a * lo.numerator**d
    fails = target * hi.denominator**d >= a * hi.numerator**d
    if not (holds or fails):
        status = "undecided"
    elif d % 2 == 0 and n >= 4:
        status = "ok"
    else:
        status = "out_of_hypothesis"
    return RhoBoundResult(spec, a / den, (n / math.pi) ** d, holds, status)


def thm13_lower(spec: LensSpec, constant):
    """Lower bound constant * N^(d-1) for the complexity of the space."""
    return constant * spec.n ** (spec.d - 1)


# -- invariant counting -----------------------------------------------


def _delta_term(n: int, dim: int) -> int:
    if dim % 2 == 0:
        raise LensError("the invariant counts apply to odd dimensions")
    return 1 if n % 2 == 0 and dim % 4 == 3 else 0


def divisor_count(n: int) -> int:
    if n < 1:
        raise LensError("divisor count needs n >= 1")
    out = 0
    for k in range(1, math.isqrt(n) + 1):
        if n % k == 0:
            out += 1 if k * k == n else 2
    return out


def invariant_count(n: int, dim: int) -> int:
    """floor((N-1)/2) + 1 when N is even and dim is 3 mod 4."""
    if n < 2:
        raise LensError("N must be at least 2")
    return (n - 1) // 2 + _delta_term(n, dim)


def homotopy_invariant_count(n: int, dim: int) -> int:
    """N - d(N) plus the same parity correction."""
    if n < 2:
        raise LensError("N must be at least 2")
    return n - divisor_count(n) + _delta_term(n, dim)
