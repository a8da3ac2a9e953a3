"""Finite abelian groups presented as products of cyclic factors.

A group is specified by its list of moduli ``[m1, ..., mk]`` and its
elements are residue tuples ``(r1, ..., rk)`` with ``0 <= ri < mi``.
Elements are interned per group, so equality is pointer equality and
hashes are precomputed.  This matters: the chain-complex code multiplies
and compares group elements in very tight loops.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Sequence


def as_int(value, what: str) -> int:
    """``value`` as an int; TypeError for floats, booleans and strings.

    Residues, moduli and the integer fields of input files are read
    through it, where ``int()`` would take 1.7, True or "1" for 1.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


class GroupMismatchError(ValueError):
    """Raised when elements of different groups are combined."""


class GroupElement:
    """An element of a :class:`FiniteAbelianGroup`.

    Supports ``*`` (group operation), ``~`` (inverse), ``**`` (integer
    powers), equality, hashing, and a total order given by the residue
    tuple.  Instances are interned; do not construct directly, use
    ``group.element(residues)``.

    >>> G = FiniteAbelianGroup([2, 3])
    >>> a = G.element([1, 2])
    >>> a * a
    GroupElement((0, 1))
    >>> ~a == a ** 5
    True
    >>> a ** 6 is G.identity
    True
    """

    __slots__ = ("group", "residues", "_hash")

    def __init__(self, group: "FiniteAbelianGroup", residues: tuple[int, ...]):
        self.group = group
        self.residues = residues
        self._hash = hash(residues)

    def __repr__(self) -> str:
        return f"GroupElement({self.residues!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group is other.group and self.residues == other.residues

    def __lt__(self, other: "GroupElement") -> bool:
        self._check(other)
        return self.residues < other.residues

    def __le__(self, other: "GroupElement") -> bool:
        self._check(other)
        return self.residues <= other.residues

    def _check(self, other: object) -> None:
        if not isinstance(other, GroupElement) or other.group is not self.group:
            raise GroupMismatchError(
                f"cannot combine {self!r} with {other!r}: different groups"
            )

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        g = self.group
        moduli = g.moduli
        a = self.residues
        b = other.residues
        return g._intern(
            tuple((a[i] + b[i]) % moduli[i] for i in range(len(moduli)))
        )

    def __invert__(self) -> "GroupElement":
        g = self.group
        moduli = g.moduli
        return g._intern(
            tuple((-r) % m for r, m in zip(self.residues, moduli))
        )

    def __pow__(self, n: int) -> "GroupElement":
        g = self.group
        return g._intern(
            tuple((r * n) % m for r, m in zip(self.residues, g.moduli))
        )

    @property
    def is_identity(self) -> bool:
        return self is self.group.identity

    def order(self) -> int:
        """Smallest n >= 1 with self**n the identity.

        >>> G = FiniteAbelianGroup([4, 6])
        >>> G.element([2, 3]).order()
        2
        """
        n = 1
        x = self
        e = self.group.identity
        while x is not e:
            x = x * self
            n += 1
        return n

    def to_json(self) -> dict:
        return {"residues": list(self.residues)}


class FiniteAbelianGroup:
    """Direct product of cyclic groups Z_m1 x ... x Z_mk.

    >>> G = FiniteAbelianGroup([2, 2])
    >>> G.order
    4
    >>> sorted(e.residues for e in G)
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    """

    __slots__ = ("moduli", "order", "identity", "_cache")

    def __init__(self, moduli: Sequence[int]):
        moduli = tuple(as_int(m, "modulus") for m in moduli)
        for m in moduli:
            if m < 1:
                raise ValueError(f"moduli must be positive, got {m}")
        self.moduli = moduli
        order = 1
        for m in moduli:
            order *= m
        self.order = order
        self._cache: dict[tuple[int, ...], GroupElement] = {}
        self.identity = self._intern((0,) * len(moduli))

    def _intern(self, residues: tuple[int, ...]) -> GroupElement:
        el = self._cache.get(residues)
        if el is None:
            el = GroupElement(self, residues)
            self._cache[residues] = el
        return el

    def element(self, residues: Sequence[int]) -> GroupElement:
        """Build an element, reducing each residue mod its modulus."""
        residues = tuple(as_int(r, "residue") for r in residues)
        if len(residues) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        return self._intern(
            tuple(r % m for r, m in zip(residues, self.moduli))
        )

    def __iter__(self) -> Iterator[GroupElement]:
        for combo in itertools.product(*(range(m) for m in self.moduli)):
            yield self._intern(combo)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.moduli)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteAbelianGroup):
            return NotImplemented
        return self is other or self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(("FiniteAbelianGroup", self.moduli))

    def exponent(self) -> int:
        """lcm of the moduli: every element to this power is identity."""
        import math

        out = 1
        for m in self.moduli:
            out = math.lcm(out, m)
        return out

    def to_json(self) -> dict:
        return {"moduli": list(self.moduli)}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteAbelianGroup":
        return cls(data["moduli"])

    def element_from_json(self, data: dict) -> GroupElement:
        return self.element(data["residues"])


def cyclic(n: int) -> FiniteAbelianGroup:
    """Shorthand for the cyclic group Z_n."""
    return FiniteAbelianGroup([n])
