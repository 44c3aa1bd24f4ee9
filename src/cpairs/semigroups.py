"""Numerical semigroups of Z>=1 and finite unions thereof.

A `NumericalSemigroup` is the additive closure of a finite generator set
inside the positive integers (0 is never an element here; the classical
Frobenius convention still treats it as reachable, so frobenius(<1>) == -1).
Membership runs on the Apery set of the gcd-scaled semigroup with respect to
its smallest generator a1: Ap[r] is the least element congruent to r mod a1
(Ap[0] = 0), so n is in S exactly when n >= Ap[n mod a1].  The set is built
by the round-robin algorithm of Boecker and Liptak ("A fast and simple
algorithm for the money changing problem", Algorithmica 2007) in O(k * a1)
time and O(a1) memory for k generators, once per semigroup.

Text forms: "<a,b,c>" generated, "<m.." for everything >= m, "{}" empty,
"|" separates union blocks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]

    def __init__(self, generators: Iterable[int] = ()):
        gens = tuple(sorted(set(int(g) for g in generators)))
        for g in gens:
            if g < 1:
                raise ValueError(f"generators must be positive integers, got {g}")
        object.__setattr__(self, "generators", gens)

    # -- structure ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.generators

    @property
    def gcd(self) -> int:
        return math.gcd(*self.generators) if self.generators else 0

    def min_element(self) -> "int | None":
        return self.generators[0] if self.generators else None

    @cached_property
    def _scaled(self) -> tuple[int, list[int]]:
        """(gcd g of the generators, Apery set of S/g with respect to its smallest generator).

        Round-robin (Boecker-Liptak): add the generators one at a time; a new
        generator a walks each residue cycle r -> r + a (mod a1) from the
        cycle's least entry, lowering every entry it can reach more cheaply.
        """
        g = self.gcd
        a1, *rest = (x // g for x in self.generators)
        ap: list[int | None] = [0] + [None] * (a1 - 1)
        for a in rest:
            d = math.gcd(a1, a)
            for p in range(d):
                reached = [ap[r] for r in range(p, a1, d) if ap[r] is not None]
                if not reached:
                    continue
                n = min(reached)
                for _ in range(a1 // d - 1):
                    n += a
                    r = n % a1
                    if ap[r] is not None and ap[r] < n:
                        n = ap[r]
                    else:
                        ap[r] = n
        return g, ap

    # -- queries -----------------------------------------------------------

    def contains(self, n: int) -> bool:
        if n < 1:
            raise ValueError(f"membership is defined on Z>=1, got {n}")
        if self.is_empty:
            return False
        g, ap = self._scaled
        if n % g:
            return False
        n //= g
        return n >= ap[n % len(ap)]

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def elements_up_to(self, bound: int) -> list[int]:
        return [n for n in range(1, bound + 1) if self.contains(n)]

    def atoms(self) -> tuple[int, ...]:
        """Minimal generators: elements that are not a sum of two elements."""
        if self.is_empty:
            return ()
        g, ap = self._scaled
        a1 = len(ap)
        out = []
        for x in self.generators:
            a = x // g
            # both parts of a split a = f + (a - f) are elements, hence >= a1;
            # by symmetry the smaller part is at most a/2
            if not any(f >= ap[f % a1] and a - f >= ap[(a - f) % a1] for f in range(a1, a // 2 + 1)):
                out.append(x)
        return tuple(out)

    @property
    def is_cofinite(self) -> bool:
        """Finite complement in Z>=1, equivalently gcd(generators) == 1."""
        return self.gcd == 1

    def frobenius(self) -> int:
        """Largest integer outside the semigroup (-1 for <1>, classical convention)."""
        if not self.is_cofinite:
            raise ValueError("frobenius number requires a cofinite semigroup")
        _, ap = self._scaled
        return max(ap) - len(ap)

    @staticmethod
    def from_lower_bound(m: int) -> "NumericalSemigroup":
        """The set {m, m+1, m+2, ...}, generated by m..2m-1."""
        if m < 1:
            raise ValueError(f"lower bound must be >= 1, got {m}")
        return NumericalSemigroup(range(m, 2 * m))

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.generators)})"


@dataclass(frozen=True)
class SemigroupUnion:
    """Ordered finite union of numerical semigroups; block order and count are data.

    `is_cofinite` is the cofiniteness of the semigroup *generated by* the union
    (gcd of all generators equals 1), not of the union as a bare set: <2>|<3>
    misses every number = 1 or 5 mod 6 yet generates all of Z>=2.

    A union mixing an empty block with nonempty blocks is rejected as
    malformed; a union of only empty blocks (or of none) denotes the empty set.
    """

    blocks: tuple[NumericalSemigroup, ...]

    def __init__(self, blocks: Iterable[NumericalSemigroup] = ()):
        bs = tuple(blocks)
        for b in bs:
            if not isinstance(b, NumericalSemigroup):
                raise TypeError(f"blocks must be NumericalSemigroup, got {type(b).__name__}")
        if any(b.is_empty for b in bs) and any(not b.is_empty for b in bs):
            raise ValueError("union mixes an empty block with nonempty blocks")
        object.__setattr__(self, "blocks", bs)

    @property
    def is_empty(self) -> bool:
        return all(b.is_empty for b in self.blocks)

    def contains(self, n: int) -> bool:
        return any(b.contains(n) for b in self.blocks)

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def elements_up_to(self, bound: int) -> list[int]:
        return [n for n in range(1, bound + 1) if self.contains(n)]

    def min_element(self) -> "int | None":
        mins = [b.min_element() for b in self.blocks if not b.is_empty]
        return min(mins) if mins else None

    @property
    def is_cofinite(self) -> bool:
        gens = [g for b in self.blocks for g in b.generators]
        return math.gcd(*gens) == 1 if gens else False

    def atoms_per_block(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b.atoms() for b in self.blocks)

    def __repr__(self) -> str:
        return f"SemigroupUnion({list(self.blocks)})"


# -- text grammar ------------------------------------------------------------

_LOWER = re.compile(r"^<\s*(\d+)\s*\.\.$")
_GENS = re.compile(r"^<\s*(\d+(?:\s*,\s*\d+)*)\s*>$")


def parse_semigroup(text: str) -> NumericalSemigroup:
    """Parse one block: "<a,b,c>", "<m..", or "{}"."""
    s = text.strip()
    if s == "{}":
        return NumericalSemigroup()
    m = _LOWER.match(s)
    if m:
        return NumericalSemigroup.from_lower_bound(int(m.group(1)))
    m = _GENS.match(s)
    if m:
        return NumericalSemigroup(int(t) for t in m.group(1).split(","))
    raise ValueError(f"cannot parse semigroup: {text!r}")


def parse_union(text: str) -> SemigroupUnion:
    """Parse "|"-separated blocks into a SemigroupUnion."""
    parts = text.split("|")
    return SemigroupUnion(parse_semigroup(p) for p in parts)


def format_semigroup(s: NumericalSemigroup) -> str:
    if s.is_empty:
        return "{}"
    gens = s.generators
    m = gens[0]
    if gens == tuple(range(m, 2 * m)):
        return f"<{m}.."
    return "<" + ",".join(str(g) for g in gens) + ">"


def format_union(u: SemigroupUnion) -> str:
    if not u.blocks:
        return "{}"
    return "|".join(format_semigroup(b) for b in u.blocks)
