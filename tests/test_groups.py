import itertools
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rhoforge import groups
from rhoforge.groups import (
    FiniteAbelianGroup,
    GroupMismatchError,
    as_int,
    cyclic,
)


def test_order_and_identity():
    G = FiniteAbelianGroup([2, 3, 4])
    assert G.order == 24
    assert G.identity.residues == (0, 0, 0)
    assert G.identity.is_identity


def test_trivial_group():
    G = FiniteAbelianGroup([])
    assert G.order == 1
    assert list(G) == [G.identity]
    assert G.identity * G.identity is G.identity


def test_reduction_and_interning():
    G = FiniteAbelianGroup([5])
    assert G.element([7]) is G.element([2])
    assert G.element([-1]) is G.element([4])


def test_group_laws():
    G = FiniteAbelianGroup([4, 6])
    els = list(G)
    assert len(els) == 24
    e = G.identity
    for a in els:
        assert a * ~a is e
        assert a * e is a
    a = G.element([1, 1])
    b = G.element([3, 2])
    c = G.element([2, 5])
    assert (a * b) * c is a * (b * c)
    assert a * b is b * a


def test_powers_and_element_order():
    G = FiniteAbelianGroup([4, 6])
    a = G.element([1, 1])
    assert a.order() == 12
    assert a ** 12 is G.identity
    assert a ** -1 is ~a
    assert G.exponent() == 12
    assert a ** G.exponent() is G.identity


def test_every_element_to_group_order_is_identity():
    # the fact the tower construction leans on
    for moduli in ([2], [3], [6], [2, 2], [2, 3, 4]):
        G = FiniteAbelianGroup(moduli)
        for g in G:
            assert g ** G.order is G.identity


def test_mismatch_raises():
    G = cyclic(3)
    H = cyclic(3)
    a = G.element([1])
    b = H.element([1])
    # equal groups but distinct instances: elements are not interchangeable
    with pytest.raises(GroupMismatchError):
        a * b


def test_bad_inputs():
    with pytest.raises(ValueError):
        FiniteAbelianGroup([0])
    G = FiniteAbelianGroup([2, 2])
    with pytest.raises(ValueError):
        G.element([1])


def test_ordering_is_lex_on_residues():
    G = FiniteAbelianGroup([3, 3])
    a = G.element([0, 2])
    b = G.element([1, 0])
    assert a < b
    assert sorted([b, a]) == [a, b]


def test_json_round_trip():
    G = FiniteAbelianGroup([2, 5])
    assert G.to_json() == {"moduli": [2, 5]}
    G2 = FiniteAbelianGroup.from_json(G.to_json())
    assert G2 == G
    a = G.element([1, 3])
    assert a.to_json() == {"residues": [1, 3]}
    assert G.element_from_json(a.to_json()) is a


# -- the mixed-radix elements against residue-tuple arithmetic ----------

ORACLE_GROUPS = [[1], [7], [2, 2], [2, 2, 2, 2], [3, 6]]


def oracle_mul(moduli, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def oracle_inv(moduli, a):
    return tuple(-x % m for x, m in zip(a, moduli))


def oracle_pow(moduli, a, n):
    out = (0,) * len(moduli)
    for _ in range(abs(n)):
        out = oracle_mul(moduli, out, a)
    return out if n >= 0 else oracle_inv(moduli, out)


def oracle_order(moduli, a):
    n, x = 1, a
    while any(x):
        x = oracle_mul(moduli, x, a)
        n += 1
    return n


def oracle_index(moduli, a):
    index = 0
    for x, m in zip(a, moduli):
        index = index * m + x
    return index


def residue_tuples(moduli):
    return list(itertools.product(*(range(m) for m in moduli)))


@pytest.mark.parametrize("moduli", ORACLE_GROUPS)
def test_products_inverses_powers_match_residue_arithmetic(moduli):
    G = FiniteAbelianGroup(moduli)
    tuples = residue_tuples(moduli)
    for a in tuples:
        x = G.element(a)
        assert (~x).residues == oracle_inv(moduli, a)
        assert ~~x is x
        assert x.order() == oracle_order(moduli, a)
        for n in range(-2 * G.order, 2 * G.order + 1):
            assert (x**n).residues == oracle_pow(moduli, a, n)
        for b in tuples:
            y = G.element(b)
            assert (x * y).residues == oracle_mul(moduli, a, b)
            # the memo answers the second time; it must agree
            assert x * y is G.element(oracle_mul(moduli, a, b))


@pytest.mark.parametrize("moduli", ORACLE_GROUPS)
def test_an_element_is_its_index(moduli):
    G = FiniteAbelianGroup(moduli)
    tuples = residue_tuples(moduli)
    els = [G.element(a) for a in tuples]
    assert [int(x) for x in els] == [oracle_index(moduli, a) for a in tuples]
    assert [int(x) for x in els] == list(range(G.order))
    assert list(G) == els
    for x in els:
        assert G.element(x.residues) is x
    shuffled = els[::-1]
    random.Random(5).shuffle(shuffled)
    assert [x.residues for x in sorted(shuffled)] == sorted(tuples)
    for x, y in itertools.product(els, repeat=2):
        assert (x < y) == (x.residues < y.residues)
        assert (x <= y) == (x.residues <= y.residues)
        assert (x > y) == (x.residues > y.residues)
        assert (x >= y) == (x.residues >= y.residues)
        assert (x == y) == (x.residues == y.residues) == (x is y)


def test_elements_are_not_integers():
    G = FiniteAbelianGroup([3, 6])
    for x in G:
        assert bool(x)
        assert x != int(x) and int(x) != x
        assert not (x == int(x)) and not (int(x) == x)
        assert x not in {int(x)} and int(x) not in {x}
        with pytest.raises(TypeError):
            as_int(x, "residue")
    assert bool(G.identity) and G.identity.is_identity
    with pytest.raises(TypeError):
        G.element([G.element([1, 1]), 0])


def test_mixing_group_objects_raises():
    G, H = FiniteAbelianGroup([2, 2]), FiniteAbelianGroup([2, 2])
    for x, y in zip(G, H):
        assert x != y and hash(x) == hash(y)
        for combine in (
            operator.mul, operator.lt, operator.le, operator.gt, operator.ge
        ):
            with pytest.raises(GroupMismatchError):
                combine(x, y)
        # memoised products of x must not answer for an element of H
        x * x
        with pytest.raises(GroupMismatchError):
            x * H.element(x.residues)
        with pytest.raises(GroupMismatchError):
            x * int(x)
        with pytest.raises(GroupMismatchError):
            int(x) * x


HASH_SCRIPT = (
    "from rhoforge.groups import FiniteAbelianGroup\n"
    "print([hash(x) for x in FiniteAbelianGroup([3, 6])],"
    " hash(tuple(FiniteAbelianGroup([2, 2]))))"
)


def test_hash_is_fixed_by_the_element():
    def hashes():
        return (
            [hash(x) for x in FiniteAbelianGroup([3, 6])],
            hash(tuple(FiniteAbelianGroup([2, 2]))),
        )

    ours = hashes()
    assert ours == hashes()
    assert ours[0] == list(range(18))
    env = dict(os.environ, PYTHONPATH=str(Path(groups.__file__).parents[1]))
    for seed in ("0", "1", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", HASH_SCRIPT],
            env=dict(env, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out == f"{ours[0]} {ours[1]}\n"
