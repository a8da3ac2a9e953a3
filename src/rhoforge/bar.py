"""Integral chains on the standard one-vertex simplicial model of a group.

A degree-n generator is a tuple ``[g1|...|gn]`` of group elements; a
chain is a finite integer combination of generators.  The boundary of a
generator drops the first entry, merges each adjacent pair, and drops
the last entry, with alternating signs:

    d[g1|...|gn] = [g2|...|gn]
                   + sum_{i=1}^{n-1} (-1)^i [g1|...|g_i g_{i+1}|...|gn]
                   + (-1)^n [g1|...|g_{n-1}]

There is a single vertex, so the boundary of any degree-1 chain is zero.
Generators containing the identity are degenerate and can be deleted
without changing homology; :meth:`BarChain.normalize` does that.
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping, Sequence

from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    GroupMismatchError,
    as_int,
    refuse_unlisted,
)

Gen = tuple[GroupElement, ...]


def refuse_malformed_gens(entries, field: str, key: str) -> None:
    """Raise TypeError naming the first part of ``entries`` that is not
    in the shape of a JSON list of {"gen": [residues, ...], key: ...}.

    ``field`` is the entries' own key in the file, "cells" or "terms".
    Readers call it only once reading the entries has failed; if it
    finds nothing wrong with their shape, the reader's error stands.
    """
    item = field[:-1]
    refuse_unlisted(entries, field, f"{item}s")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise TypeError(
                f'{item} {i} is {entry!r}, not an object with "gen" and '
                f'"{key}"'
            ) from None
        gen = entry.get("gen", [])
        refuse_unlisted(gen, f"gen of {item} {i}", "group elements")
        for j, residues in enumerate(gen):
            refuse_unlisted(
                residues, f"element {j} of gen of {item} {i}", "residues"
            )


def gen_boundary(gen: Gen) -> list[tuple[Gen, int]]:
    """Signed faces of a single generator, in face order d0, d1, ..., dn.

    >>> from rhoforge.groups import cyclic
    >>> G = cyclic(5)
    >>> g = G.element([1]); h = G.element([2])
    >>> [(tuple(e.residues[0] for e in f), s) for f, s in gen_boundary((g, h))]
    [((2,), 1), ((3,), -1), ((1,), 1)]
    """
    n = len(gen)
    if n == 0:
        return []
    entries: list[tuple[Gen, int]] = [(gen[1:], 1)]
    s = 1
    for i in range(1, n):
        s = -s
        entries.append((gen[: i - 1] + (gen[i - 1] * gen[i],) + gen[i + 1 :], s))
    s = -s
    entries.append((gen[:-1], s))
    return entries


def _sum_terms(
    group: FiniteAbelianGroup,
    degree: int,
    pairs: Iterable[tuple[Sequence[GroupElement], int]],
) -> dict[Gen, int]:
    """Sum ``(generator, coefficient)`` pairs: the one place terms are checked.

    Each coefficient goes through ``int()``, and generators whose sum is 0
    are dropped.  Each distinct generator's length and group are checked
    once, whatever its sum, so no malformed generator passes by cancelling.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    summed: dict[Gen, int] = {}
    for gen, coef in pairs:
        gen = tuple(gen)
        summed[gen] = summed.get(gen, 0) + int(coef)
    clean: dict[Gen, int] = {}
    for gen, coef in summed.items():
        if len(gen) != degree:
            raise ValueError(
                f"generator {gen!r} has length {len(gen)}, expected {degree}"
            )
        for el in gen:
            if not isinstance(el, GroupElement) or el.group is not group:
                raise GroupMismatchError(
                    f"generator entry {el!r} is not in {group!r}"
                )
        if coef:
            clean[gen] = coef
    return clean


class BarChain:
    """An integer chain in a fixed degree.

    ``terms`` maps generator tuples to nonzero integer coefficients.
    Chains are immutable in spirit: all arithmetic returns new objects.

    >>> from rhoforge.groups import cyclic
    >>> G = cyclic(2)
    >>> g = G.element([1])
    >>> c = BarChain(G, 2, {(g, g): 1})
    >>> c.boundary()
    BarChain(degree=1, terms={((0,),): -1, ((1,),): 2})
    >>> c.boundary().normalize()
    BarChain(degree=1, terms={((1,),): 2})
    >>> c.boundary().boundary().is_zero()
    True
    """

    __slots__ = ("group", "degree", "terms")

    def __init__(
        self,
        group: FiniteAbelianGroup,
        degree: int,
        terms: Mapping[Gen, int] | None = None,
    ):
        self.group = group
        self.degree = degree
        self.terms = _sum_terms(group, degree, terms.items() if terms else ())

    @classmethod
    def _wrap(
        cls, group: FiniteAbelianGroup, degree: int, terms: dict[Gen, int]
    ) -> "BarChain":
        """A chain around a dict that already has tuple keys and nonzero
        int coefficients, as chain arithmetic builds it; nothing is checked."""
        chain = object.__new__(cls)
        chain.group, chain.degree, chain.terms = group, degree, terms
        return chain

    # -- constructors -------------------------------------------------

    @classmethod
    def single(
        cls, group: FiniteAbelianGroup, gen: Sequence[GroupElement], coef: int = 1
    ) -> "BarChain":
        return cls(group, len(gen), {tuple(gen): coef})

    @classmethod
    def from_terms(
        cls,
        group: FiniteAbelianGroup,
        degree: int,
        pairs: Iterable[tuple[Sequence[GroupElement], int]],
    ) -> "BarChain":
        """Sum ``(generator, coefficient)`` pairs into one chain.

        The pairs are added into a single dict, so summing m pairs costs
        O(m) rather than the O(m * support) of repeated ``+``.

        >>> from rhoforge.groups import cyclic
        >>> G = cyclic(3)
        >>> g = G.element([1])
        >>> BarChain.from_terms(G, 1, [((g,), 2), ((g * g,), 1), ((g,), -2)])
        BarChain(degree=1, terms={((2,),): 1})
        """
        return cls._wrap(group, degree, _sum_terms(group, degree, pairs))

    # -- arithmetic ---------------------------------------------------

    def _compat(self, other: "BarChain") -> None:
        # as in _sum_terms: elements of two group objects never cancel,
        # even where the moduli agree
        if self.group is not other.group:
            raise GroupMismatchError("chains over different group objects")
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )

    def __add__(self, other: "BarChain") -> "BarChain":
        self._compat(other)
        out = dict(self.terms)
        for gen, coef in other.terms.items():
            c = out.get(gen, 0) + coef
            if c:
                out[gen] = c
            elif gen in out:
                del out[gen]
        return BarChain._wrap(self.group, self.degree, out)

    def __sub__(self, other: "BarChain") -> "BarChain":
        return self + (-other)

    def __neg__(self) -> "BarChain":
        return BarChain._wrap(
            self.group, self.degree, {g: -c for g, c in self.terms.items()}
        )

    def __rmul__(self, k: int) -> "BarChain":
        k = operator.index(k)
        if not k:
            return BarChain(self.group, self.degree)
        return BarChain._wrap(
            self.group, self.degree, {g: k * c for g, c in self.terms.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BarChain):
            return NotImplemented
        return (
            self.group is other.group
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.degree, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- the differential ---------------------------------------------

    def boundary(self) -> "BarChain":
        """The boundary chain, one degree down.

        Degree-0 chains have zero boundary by convention.
        """
        if self.degree == 0:
            return BarChain(self.group, 0)
        out: dict[Gen, int] = {}
        for gen, coef in self.terms.items():
            for face, sign in gen_boundary(gen):
                c = out.get(face, 0) + sign * coef
                if c:
                    out[face] = c
                elif face in out:
                    del out[face]
        return BarChain._wrap(self.group, self.degree - 1, out)

    def is_cycle(self) -> bool:
        return self.boundary().normalize().is_zero()

    def normalize(self) -> "BarChain":
        """Drop degenerate generators (those containing the identity)."""
        e = self.group.identity
        out = {g: c for g, c in self.terms.items() if e not in g}
        return BarChain._wrap(self.group, self.degree, out)

    # -- size measures ------------------------------------------------

    def complexity(self) -> int:
        """Number of generators counted with multiplicity: sum |coef|.

        >>> from rhoforge.groups import cyclic
        >>> G = cyclic(3)
        >>> g = G.element([1])
        >>> BarChain(G, 1, {(g,): -4, (g * g,): 2}).complexity()
        6
        """
        return sum(abs(c) for c in self.terms.values())

    def support_size(self) -> int:
        return len(self.terms)

    # -- serialization ------------------------------------------------

    def sorted_terms(self) -> list[tuple[Gen, int]]:
        """Terms in a canonical order: lexicographic on residue tuples,
        which is the order of the entries' indices."""
        return sorted(self.terms.items(), key=lambda item: tuple(map(int, item[0])))

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [
                {"gen": [list(e.residues) for e in gen], "coef": coef}
                for gen, coef in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, group: FiniteAbelianGroup, data: dict) -> "BarChain":
        degree = as_int(data["degree"], "degree")
        terms = data["terms"]
        try:
            pairs = (
                (tuple(map(group.element, entry["gen"])), as_int(entry["coef"], "coef"))
                for entry in terms
            )
            return cls.from_terms(group, degree, pairs)
        except TypeError:
            refuse_malformed_gens(terms, "terms", "coef")
            raise

    def __repr__(self) -> str:
        parts = {
            tuple(e.residues for e in gen): coef
            for gen, coef in self.sorted_terms()
        }
        return f"BarChain(degree={self.degree}, terms={parts!r})"


# -- translation between vertex labelings and generator tuples --------


def hom_to_bar(labels: Sequence[GroupElement]) -> Gen:
    """Generator tuple of the simplex whose ordered vertices carry ``labels``.

    The i-th entry is ``labels[i-1]^-1 * labels[i]``, so the result is
    invariant under translating every label by a fixed element on the left.

    >>> from rhoforge.groups import cyclic
    >>> G = cyclic(7)
    >>> h = [G.element([2]), G.element([3]), G.element([0])]
    >>> tuple(e.residues[0] for e in hom_to_bar(h))
    (1, 4)
    """
    return tuple(~labels[i - 1] * labels[i] for i in range(1, len(labels)))


def bar_to_hom(
    gen: Sequence[GroupElement], base: GroupElement | None = None
) -> tuple[GroupElement, ...]:
    """Ordered vertex labels of a generator tuple, starting at ``base``.

    Inverse to :func:`hom_to_bar` once the first label is pinned.
    """
    if base is None:
        if not gen:
            raise ValueError("empty generator needs an explicit base label")
        base = gen[0].group.identity
    labels = [base]
    for g in gen:
        labels.append(labels[-1] * g)
    return tuple(labels)
