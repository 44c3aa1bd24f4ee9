"""Numerical semigroups of Z>=1 and finite unions thereof.

A `NumericalSemigroup` is the additive closure of a finite generator set
inside the positive integers (0 is never an element here; the classical
Frobenius convention still treats it as reachable, so frobenius(<1>) == -1).
An ordinary semigroup "<m.." = {n >= m} (Rosales and Garcia-Sanchez,
"Numerical Semigroups", 2009), or a multiple g*<m.. of one, is answered in
closed form: n is an element when g divides n and n/g >= m, the Frobenius
number is m - 1, and the atoms are the first m generators.  The generators
m..2m-1 of "<m.." itself are held as `range(m, 2m)`.  Every other semigroup
runs on the Apery set of the gcd-scaled semigroup with respect to its
smallest generator a1: Ap[r] is the least element congruent to r mod a1
(Ap[0] = 0), so n is in S exactly when n >= Ap[n mod a1].  The round-robin
algorithm of Boecker and Liptak ("A fast and simple algorithm for the money
changing problem", Algorithmica 2007) builds it once per semigroup in
O(k * a1) time and O(a1) memory for k generators.  Atoms test only splits
whose smaller part is a1 or an Apery element, so they cost nothing for
generators below 2*a1.

A parsed block, or a `from_lower_bound` semigroup, may have at most MAX_APERY
as a1 / gcd, the size of its Apery set (an ordinary one builds none); a
larger one is refused with ValueError before anything of its size is
allocated.

Text forms: "<a,b,c>" generated, "<m.." for everything >= m, "{}" empty,
"|" separates union blocks.
"""

from __future__ import annotations

import bisect
import math
import re
from functools import cached_property
from typing import Iterable, Sequence

from ._value import Value, exact_int

# The most Apery-set entries (a1 / gcd) a parsed block or a lower bound may ask
# for, and the most integers one command-line request may scan or list.
MAX_APERY = 10**7


class NumericalSemigroup(Value):
    # no __slots__: the cached `_scaled` lives in the instance dict
    _fields = ("generators",)
    generators: "tuple[int, ...] | range"  # sorted and distinct; range(m, 2m) for <m..

    def __init__(self, generators: Iterable[int] = ()):
        gens = generators
        if not (type(gens) is range and gens.step == 1 and gens.stop == 2 * gens.start > 0):
            gens = tuple(sorted({exact_int(g, "a generator") for g in generators}))
            if gens and gens[0] < 1:
                raise ValueError(f"generators must be positive integers, got {gens[0]}")
            if gens and len(gens) == gens[0] and gens[-1] == 2 * gens[0] - 1:  # exactly m..2m-1
                gens = range(gens[0], 2 * gens[0])
        object.__setattr__(self, "generators", gens)

    # -- structure ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.generators

    @property
    def gcd(self) -> int:
        return 1 if type(self.generators) is range else math.gcd(*self.generators) if self.generators else 0

    def min_element(self) -> "int | None":
        return self.generators[0] if self.generators else None

    @cached_property
    def _scaled(self) -> "tuple[int, int, list[int] | None]":
        """(gcd g of the generators, smallest generator a1 of S/g, Apery set of S/g
        with respect to a1, or None when S/g is ordinary, i.e. {n >= a1}).

        S/g is ordinary exactly when a1..2*a1-1 are all generators: each is an
        element, and none is a sum of two.  Sorted and distinct, they are then
        the first a1 generators, so the a1-th generator decides it.
        """
        gens, g = self.generators, self.gcd
        a1 = gens[0] // g
        if len(gens) >= a1 and gens[a1 - 1] // g == 2 * a1 - 1:
            return g, a1, None
        return g, a1, _round_robin(a1, [x // g for x in gens[1:]])

    # -- queries -----------------------------------------------------------

    def contains(self, n: int) -> bool:
        if n < 1:
            raise ValueError(f"membership is defined on Z>=1, got {n}")
        if self.is_empty:
            return False
        g, a1, ap = self._scaled
        if n % g:
            return False
        n //= g
        return n >= (a1 if ap is None else ap[n % a1])

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def elements_up_to(self, bound: int) -> list[int]:
        return [n for n in range(1, bound + 1) if self.contains(n)]

    def atoms(self) -> tuple[int, ...]:
        """Minimal generators: elements that are not a sum of two elements."""
        if self.is_empty:
            return ()
        g, a1, ap = self._scaled
        if ap is None:
            return tuple(self.generators[:a1])
        # In a split a = f + h with a1 <= f <= h, either f is an Apery element
        # or f - a1 is 0 or an element, and then a = a1 + (a - a1) is a split.
        # So the smaller parts worth testing are a1 and the Apery elements.
        parts = [a1, *sorted(ap)[1:]]
        out = []
        for x in self.generators:
            a = x // g
            if not any(a - f >= ap[(a - f) % a1] for f in parts[:bisect.bisect_right(parts, a // 2)]):
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
        _, a1, ap = self._scaled
        return (a1 - 1 if a1 > 1 else -1) if ap is None else max(ap) - a1

    @staticmethod
    def from_lower_bound(m: int) -> "NumericalSemigroup":
        """The set {m, m+1, m+2, ...}, generated by m..2m-1."""
        if m < 1:
            raise ValueError(f"lower bound must be >= 1, got {m}")
        _check_apery_size(m, f"<{m}..")
        return NumericalSemigroup(range(m, 2 * m))

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.generators)})"


def _check_apery_size(a1: int, text: str) -> None:
    if a1 > MAX_APERY:
        raise ValueError(f"{text} needs an Apery set of {a1} entries, over the limit of {MAX_APERY}")


def _round_robin(a1: int, rest: list[int]) -> list[int]:
    """Apery set w.r.t. a1 of the semigroup generated by a1 and `rest` (gcd 1), by
    Boecker-Liptak round-robin: add the generators one at a time; a new
    generator a walks each residue cycle r -> r + a (mod a1) from the cycle's
    least entry, lowering every entry it can reach more cheaply.
    """
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
    return ap


class SemigroupUnion(Value):
    """Ordered finite union of numerical semigroups; block order and count are data.

    `is_cofinite` is the cofiniteness of the semigroup *generated by* the union
    (gcd of all generators equals 1), not of the union as a bare set: <2>|<3>
    misses every number = 1 or 5 mod 6 yet generates all of Z>=2.

    A union mixing an empty block with nonempty blocks is rejected as
    malformed; a union of only empty blocks (or of none) denotes the empty set.
    """

    __slots__ = _fields = ("blocks",)
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
        return math.gcd(*(b.gcd for b in self.blocks)) == 1

    def atoms_per_block(self) -> tuple[Sequence[int], ...]:
        """Each block's atoms; those of an ordinary `<m..` are its generators, a range m..2m-1."""
        return tuple(b.generators if type(b.generators) is range else b.atoms() for b in self.blocks)

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
        sg = NumericalSemigroup(int(t) for t in m.group(1).split(","))
        _check_apery_size(sg.generators[0] // sg.gcd, s)
        return sg
    raise ValueError(f"cannot parse semigroup: {text!r}")


def parse_union(text: str) -> SemigroupUnion:
    """Parse "|"-separated blocks into a SemigroupUnion."""
    parts = text.split("|")
    return SemigroupUnion(parse_semigroup(p) for p in parts)


def format_semigroup(s: NumericalSemigroup) -> str:
    if s.is_empty:
        return "{}"
    if type(s.generators) is range:
        return f"<{s.generators[0]}.."
    return "<" + ",".join(map(str, s.generators)) + ">"


def format_union(u: SemigroupUnion) -> str:
    if not u.blocks:
        return "{}"
    return "|".join(format_semigroup(b) for b in u.blocks)
