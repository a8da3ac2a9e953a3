"""Finite abelian groups presented as products of cyclic factors.

A group is specified by its list of moduli ``[m1, ..., mk]``; an element
has residues ``(r1, ..., rk)`` with ``0 <= ri < mi`` and *is* its
mixed-radix index ``((r1 * m2 + r2) * m3 + ...) * mk + rk``: a
:class:`GroupElement` is an ``int`` subclass, first residue most
significant, so the int order is the lexicographic order of residues.

Elements are interned per group object, so equality is identity: an
element never equals a plain int, nor an element of another group
object, even one with the same moduli.  The hash is the index's own
``int`` hash, computed in C and fixed by the element (not by its address
or ``PYTHONHASHSEED``), which matters because the chain-complex code
hashes tuples of elements in very tight loops.  For the same reason
``*`` reads a product memo on the element and ``~`` a cached inverse;
both are filled from residue arithmetic on first use and hang off the
elements of one group object, so nothing is shared between groups.

``operator.index`` returns any int subclass as it is, without asking
``__index__``, so it takes an element for its index; :func:`as_int`
checks for elements by type and rejects them.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, Sequence


def as_int(value, what: str) -> int:
    """``value`` as an int; TypeError for floats, booleans, strings and
    group elements.

    Residues, moduli and the integer fields of input files are read
    through it, where ``int()`` would take 1.7, True or "1" for 1.
    """
    if not isinstance(value, (bool, GroupElement)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def refuse_unlisted(value, what: str, of: str) -> None:
    """Raise TypeError "<what> is <value>, not a list of <of>" unless
    ``value`` is a list or tuple.

    Readers of input files call it only once reading a field has failed,
    to name the field that is not a list, so well-formed input pays
    nothing for it.
    """
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{what} is {value!r}, not a list of {of}") from None


class GroupMismatchError(ValueError):
    """Raised when elements of different groups are combined."""


class GroupElement(int):
    """An element of a :class:`FiniteAbelianGroup`: its mixed-radix index.

    Supports ``*`` (group operation), ``~`` (inverse), ``**`` (integer
    powers), equality, hashing, and a total order given by the residue
    tuple.  Instances are interned; do not construct directly, use
    ``group.element(residues)``.  ``bool(e)`` is True for every element,
    the identity included; the int operators other than these work on
    the index, not in the group.

    >>> G = FiniteAbelianGroup([2, 3])
    >>> a = G.element([1, 2])
    >>> a * a
    GroupElement((0, 1))
    >>> ~a == a ** 5
    True
    >>> a ** 6 is G.identity
    True
    >>> int(a), a == 5
    (5, False)
    """

    __hash__ = int.__hash__

    def __new__(
        cls, group: "FiniteAbelianGroup", index: int, residues: tuple[int, ...]
    ) -> "GroupElement":
        self = super().__new__(cls, index)
        self.group = group
        self.residues = residues
        self._products: dict[GroupElement, GroupElement] = {}
        self._inverse: GroupElement | None = None
        return self

    def __repr__(self) -> str:
        return f"GroupElement({self.residues!r})"

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    def __lt__(self, other: "GroupElement") -> bool:
        self._check(other)
        return int.__lt__(self, other)

    def __le__(self, other: "GroupElement") -> bool:
        self._check(other)
        return int.__le__(self, other)

    def __gt__(self, other: "GroupElement") -> bool:
        self._check(other)
        return int.__gt__(self, other)

    def __ge__(self, other: "GroupElement") -> bool:
        self._check(other)
        return int.__ge__(self, other)

    def _check(self, other: object) -> None:
        if not isinstance(other, GroupElement) or other.group is not self.group:
            raise GroupMismatchError(
                f"cannot combine {self!r} with {other!r}: different groups"
            )

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        product = self._products.get(other)
        if product is None:
            self._check(other)
            g = self.group
            product = g._at(
                tuple(
                    (a + b) % m
                    for a, b, m in zip(self.residues, other.residues, g.moduli)
                )
            )
            self._products[other] = other._products[self] = product
        return product

    # an int on the left would otherwise multiply indices
    __rmul__ = __mul__

    def __invert__(self) -> "GroupElement":
        inverse = self._inverse
        if inverse is None:
            g = self.group
            inverse = self._inverse = g._at(
                tuple((-r) % m for r, m in zip(self.residues, g.moduli))
            )
            inverse._inverse = self
        return inverse

    def __pow__(self, n: int) -> "GroupElement":
        g = self.group
        return g._at(tuple((r * n) % m for r, m in zip(self.residues, g.moduli)))

    @property
    def is_identity(self) -> bool:
        return self is self.group.identity

    def order(self) -> int:
        """Smallest n >= 1 with self**n the identity.

        >>> G = FiniteAbelianGroup([4, 6])
        >>> G.element([2, 3]).order()
        2
        """
        return math.lcm(
            *(m // math.gcd(r, m) for r, m in zip(self.residues, self.group.moduli))
        )

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

    __slots__ = ("moduli", "order", "identity", "_elements")

    def __init__(self, moduli: Sequence[int]):
        moduli = tuple(as_int(m, "modulus") for m in moduli)
        for m in moduli:
            if m < 1:
                raise ValueError(f"moduli must be positive, got {m}")
        self.moduli = moduli
        self.order = math.prod(moduli)
        self._elements: dict[int, GroupElement] = {}
        self.identity = self._at((0,) * len(moduli))

    def _at(self, residues: tuple[int, ...]) -> GroupElement:
        """The interned element of reduced ``residues``."""
        index = 0
        for r, m in zip(residues, self.moduli):
            index = index * m + r
        el = self._elements.get(index)
        if el is None:
            el = self._elements[index] = GroupElement(self, index, residues)
        return el

    def element(self, residues: Sequence[int]) -> GroupElement:
        """Build an element, reducing each residue mod its modulus."""
        residues = tuple(as_int(r, "residue") for r in residues)
        if len(residues) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        return self._at(tuple(r % m for r, m in zip(residues, self.moduli)))

    def __iter__(self) -> Iterator[GroupElement]:
        for combo in itertools.product(*(range(m) for m in self.moduli)):
            yield self._at(combo)

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
        return math.lcm(*self.moduli)

    def to_json(self) -> dict:
        return {"moduli": list(self.moduli)}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteAbelianGroup":
        try:
            return cls(data["moduli"])
        except TypeError:
            if not isinstance(data, dict):
                raise TypeError(
                    f'group is {data!r}, not an object with "moduli"'
                ) from None
            refuse_unlisted(data["moduli"], "moduli", "integers")
            raise

    def element_from_json(self, data: dict) -> GroupElement:
        return self.element(data["residues"])


def cyclic(n: int) -> FiniteAbelianGroup:
    """Shorthand for the cyclic group Z_n."""
    return FiniteAbelianGroup([n])
