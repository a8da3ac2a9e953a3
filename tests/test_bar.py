import random

import pytest

from rhoforge.bar import BarChain, bar_to_hom, gen_boundary, hom_to_bar
from rhoforge.groups import FiniteAbelianGroup, GroupMismatchError, cyclic


def random_chain(G, degree, rng, nterms=4, cmax=3):
    els = list(G)
    terms = {}
    for _ in range(nterms):
        gen = tuple(rng.choice(els) for _ in range(degree))
        terms[gen] = terms.get(gen, 0) + rng.randint(-cmax, cmax)
    return BarChain(G, degree, terms)


def test_boundary_degree2_formula():
    G = cyclic(7)
    g1 = G.element([1])
    g2 = G.element([3])
    c = BarChain.single(G, (g1, g2))
    b = c.boundary()
    assert b.terms == {(g2,): 1, (g1 * g2,): -1, (g1,): 1}


def test_boundary_degree3_formula():
    G = cyclic(11)
    g1, g2, g3 = (G.element([k]) for k in (1, 2, 4))
    b = BarChain.single(G, (g1, g2, g3)).boundary()
    assert b.terms == {
        (g2, g3): 1,
        (g1 * g2, g3): -1,
        (g1, g2 * g3): 1,
        (g1, g2): -1,
    }


def test_boundary_degree1_is_zero():
    # one vertex: both faces of an edge land on it
    G = cyclic(5)
    c = BarChain(G, 1, {(G.element([2]),): 3, (G.element([4]),): -1})
    assert c.boundary().is_zero()
    assert c.boundary().degree == 0


def test_boundary_degree0_is_zero():
    G = cyclic(5)
    c = BarChain(G, 0, {(): 2})
    assert c.boundary().is_zero()


def test_boundary_squares_to_zero_seeded():
    rng = random.Random(0)
    groups = [cyclic(2), cyclic(3), cyclic(6), FiniteAbelianGroup([2, 2])]
    for G in groups:
        for degree in range(1, 6):
            for _ in range(10):
                c = random_chain(G, degree, rng)
                assert c.boundary().boundary().is_zero()


def test_normalize_drops_identity_entries():
    G = cyclic(3)
    e = G.identity
    g = G.element([1])
    c = BarChain(G, 2, {(g, e): 5, (e, g): -2, (g, g): 7})
    assert c.normalize().terms == {(g, g): 7}


def test_gen_boundary_face_order():
    G = cyclic(9)
    g1, g2 = G.element([2]), G.element([5])
    faces = gen_boundary((g1, g2))
    assert faces == [((g2,), 1), ((g1 * g2,), -1), ((g1,), 1)]
    assert gen_boundary(()) == []


def test_worked_cycle_is_a_cycle():
    # four independent involutions; the classic six-term degree-2 cycle
    G = FiniteAbelianGroup([2, 2, 2, 2])
    a = G.element([1, 0, 0, 0])
    b = G.element([0, 1, 0, 0])
    c = G.element([0, 0, 1, 0])
    d = G.element([0, 0, 0, 1])
    ab = a * b
    bdinv = b * ~d
    C = (
        BarChain.single(G, (a, b))
        + BarChain.single(G, (ab, c))
        - BarChain.single(G, (ab, c))
        - BarChain.single(G, (b, a))
        - BarChain.single(G, (bdinv, d))
        + BarChain.single(G, (d, bdinv))
    )
    assert C.boundary().is_zero()
    assert C.is_cycle()


def test_commutativity_matters_for_the_worked_cycle():
    # the cancellation d([a,b]) - d([b,a]) = 0 uses ab == ba; check the
    # boundary really pairs [ab] against [ba]
    G = FiniteAbelianGroup([2, 2])
    a = G.element([1, 0])
    b = G.element([0, 1])
    C = BarChain.single(G, (a, b)) - BarChain.single(G, (b, a))
    assert C.boundary().is_zero()


def test_arithmetic():
    G = cyclic(4)
    g = G.element([1])
    h = G.element([2])
    x = BarChain(G, 1, {(g,): 2})
    y = BarChain(G, 1, {(g,): -2, (h,): 1})
    assert (x + y).terms == {(h,): 1}
    assert (x - x).is_zero()
    assert (3 * y).terms == {(g,): -6, (h,): 3}
    assert (0 * y).is_zero()
    assert (-y).terms == {(g,): 2, (h,): -1}


def test_complexity_and_support():
    G = cyclic(3)
    g = G.element([1])
    c = BarChain(G, 1, {(g,): -4, (g * g,): 2})
    assert c.complexity() == 6
    assert c.support_size() == 2
    assert BarChain(G, 2).complexity() == 0


def test_validation():
    G = cyclic(3)
    H = cyclic(3)
    g = G.element([1])
    with pytest.raises(ValueError):
        BarChain(G, 2, {(g,): 1})
    with pytest.raises(GroupMismatchError):
        BarChain(G, 1, {(H.element([1]),): 1})
    with pytest.raises(ValueError):
        BarChain(G, -1, {})
    x = BarChain(G, 1, {(g,): 1})
    y = BarChain(G, 2, {(g, g): 1})
    with pytest.raises(ValueError):
        x + y


def test_chains_combine_only_over_one_group_object():
    # equal moduli, distinct group objects: their elements never cancel,
    # so a sum would hold terms that print alike and stay apart
    G, H = cyclic(3), cyclic(3)
    g, h = G.element([1]), H.element([1])
    c = BarChain(G, 2, {(g, g): 1, (g, g * g): -2})
    d = -BarChain(H, 2, {(h, h): 1, (h, h * h): -2})
    assert G == H and repr(c) == repr(-d)
    assert c != -d
    assert c == -BarChain(G, 2, {(g, g): -1, (g, g * g): 2})
    with pytest.raises(GroupMismatchError):
        c + d
    with pytest.raises(GroupMismatchError):
        c - d
    assert (c - c).is_zero()


def test_from_terms_matches_repeated_addition_seeded():
    rng = random.Random(7)
    for G in [cyclic(2), cyclic(5), FiniteAbelianGroup([2, 3])]:
        els = list(G)
        for degree in range(0, 4):
            for _ in range(10):
                # few distinct generators, so terms merge and cancel
                pool = [
                    tuple(rng.choice(els) for _ in range(degree))
                    for _ in range(3)
                ]
                pairs = [
                    (rng.choice(pool), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 12))
                ]
                total = BarChain(G, degree)
                for gen, coef in pairs:
                    total = total + coef * BarChain.single(G, gen)
                assert BarChain.from_terms(G, degree, pairs) == total
                assert BarChain.from_terms(G, degree, iter(pairs)) == total


def test_from_terms_validates():
    G, H = cyclic(3), cyclic(3)
    g = G.element([1])
    with pytest.raises(ValueError):
        BarChain.from_terms(G, 2, [((g,), 1)])
    with pytest.raises(GroupMismatchError):
        BarChain.from_terms(G, 1, [((H.element([1]),), 1)])
    # coefficients go through int() one by one; a generator is checked
    # even when its coefficients cancel
    assert BarChain(G, 1, {(g,): 0.5}).is_zero()
    assert BarChain.from_terms(G, 1, [([g], 2.5), ((g,), 0.5)]).terms == {(g,): 2}
    with pytest.raises(ValueError):
        BarChain.from_terms(G, 1, [((g, g), 1), ((g, g), -1)])
    data = {"degree": 1, "terms": [{"gen": [[1], [1]], "coef": c} for c in (1, -1)]}
    with pytest.raises(ValueError):
        BarChain.from_json(G, data)


def test_arithmetic_results_are_clean_seeded():
    # chain arithmetic wraps the dict it builds without a second pass, so
    # every result must already have tuple keys and nonzero int values,
    # and equal the checked sum of its raw pairs
    rng = random.Random(16)
    for G in [cyclic(2), cyclic(5), FiniteAbelianGroup([2, 3])]:
        e = G.identity
        for degree in range(0, 4):
            for _ in range(10):
                x = random_chain(G, degree, rng)
                y = random_chain(G, degree, rng)
                k = rng.randint(-3, 3)
                cases = [
                    (x + y, degree, [*x.terms.items(), *y.terms.items()]),
                    (
                        x - y,
                        degree,
                        [*x.terms.items(), *((g, -c) for g, c in y.terms.items())],
                    ),
                    (-x, degree, [(g, -c) for g, c in x.terms.items()]),
                    (k * x, degree, [(g, k * c) for g, c in x.terms.items()]),
                    (
                        x.boundary(),
                        max(degree - 1, 0),
                        [
                            (face, s * c)
                            for g, c in x.terms.items()
                            for face, s in (gen_boundary(g) if degree else [])
                        ],
                    ),
                    (
                        x.normalize(),
                        degree,
                        [(g, c) for g, c in x.terms.items() if e not in g],
                    ),
                ]
                for result, d, raw in cases:
                    for gen, coef in result.terms.items():
                        assert type(gen) is tuple
                        assert type(coef) is int and coef != 0
                    assert result == BarChain.from_terms(G, d, raw)


def test_hom_bar_round_trip():
    G = FiniteAbelianGroup([4, 5])
    rng = random.Random(1)
    els = list(G)
    for _ in range(20):
        labels = tuple(rng.choice(els) for _ in range(4))
        gen = hom_to_bar(labels)
        assert bar_to_hom(gen, labels[0]) == labels
        # left translation fixes the generator tuple
        t = rng.choice(els)
        assert hom_to_bar(tuple(t * h for h in labels)) == gen


def test_json_round_trip_and_canonical_order():
    G = FiniteAbelianGroup([3, 3])
    a = G.element([2, 0])
    b = G.element([0, 1])
    c = BarChain(G, 2, {(a, b): 2, (b, a): -1, (b, b): 3})
    data = c.to_json()
    assert data["degree"] == 2
    gens = [entry["gen"] for entry in data["terms"]]
    assert gens == sorted(gens)
    assert BarChain.from_json(G, data) == c


def test_from_json_merges_duplicates():
    G = cyclic(2)
    data = {
        "degree": 1,
        "terms": [
            {"gen": [[1]], "coef": 2},
            {"gen": [[1]], "coef": -2},
        ],
    }
    assert BarChain.from_json(G, data).is_zero()
