"""Multiplicity conditions on divisors and point checks against them.

A pair assigns each divisor label one condition on intersection
multiplicities: `AtLeast(m)` (multiplicity at least m), `DivisibleBy(m)`,
`UnionCondition` (membership in a finite union of numerical semigroups,
with block structure retained for configuration checks), or `LOG`
(the point must stay away from the divisor entirely).

Points enter as valuation vectors: per divisor either "contained in the
divisor" or a finite map prime -> multiplicity >= 1.  Verdicts always carry
machine-readable witnesses (failing prime, support flags, block assignment).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from ._value import Value, exact_bool, exact_int
from .arith import INFINITY, is_probable_prime
from .semigroups import (
    NumericalSemigroup,
    SemigroupUnion,
    format_union,
    parse_union,
)


class AtLeast(Value):
    __slots__ = _fields = ("m",)
    m: int

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"AtLeast needs m >= 1, got {m}")
        object.__setattr__(self, "m", m)


class DivisibleBy(Value):
    __slots__ = _fields = ("m",)
    m: int

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"DivisibleBy needs m >= 1, got {m}")
        object.__setattr__(self, "m", m)


class UnionCondition(Value):
    __slots__ = _fields = ("union",)
    union: SemigroupUnion

    def __init__(self, union: SemigroupUnion):
        object.__setattr__(self, "union", union)


class LogCondition(Value):
    """Infinite multiplicity: the divisor must be avoided altogether."""

    __slots__ = ()


LOG = LogCondition()


def condition_element_union(cond) -> SemigroupUnion:
    """The set of accepted finite multiplicities, as a semigroup union."""
    if isinstance(cond, AtLeast):
        return SemigroupUnion([NumericalSemigroup.from_lower_bound(cond.m)])
    if isinstance(cond, DivisibleBy):
        return SemigroupUnion([NumericalSemigroup([cond.m])])
    if isinstance(cond, UnionCondition):
        return cond.union
    if isinstance(cond, LogCondition):
        return SemigroupUnion([NumericalSemigroup()])
    raise TypeError(f"not a multiplicity condition: {cond!r}")


def condition_inf(cond):
    """Smallest accepted finite multiplicity; INFINITY when none exists."""
    m = condition_element_union(cond).min_element()
    return INFINITY if m is None else m


def cpair_coefficient(cond) -> Fraction:
    """Coefficient 1 - 1/m of the associated divisor (1 when m is infinite)."""
    m = condition_inf(cond)
    if m is INFINITY:
        return Fraction(1)
    return 1 - Fraction(1, m)


# -- pair specifications -----------------------------------------------------


class CPairSpec(Value):
    """Ordered divisor labels, each with its multiplicity condition.

    `unions` holds each condition's element union, built once here (which
    also type-checks the condition) so that point checks reuse its
    membership structure, and `label_set` the labels that every valuation
    vector checked against the pair must carry; neither takes part in
    equality, hash or repr.
    """

    __slots__ = ("divisors", "unions", "label_set")
    _fields = ("divisors",)
    divisors: tuple[tuple[str, object], ...]
    unions: tuple[SemigroupUnion, ...]
    label_set: frozenset[str]

    def __init__(self, divisors: Iterable[tuple[str, object]]):
        entries = tuple((str(lbl), cond) for lbl, cond in divisors)
        seen, unions = set(), []
        for lbl, cond in entries:
            if lbl in seen:
                raise ValueError(f"duplicate divisor label {lbl!r}")
            seen.add(lbl)
            unions.append(condition_element_union(cond))
        object.__setattr__(self, "divisors", entries)
        object.__setattr__(self, "unions", tuple(unions))
        object.__setattr__(self, "label_set", frozenset(seen))

    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.divisors)

    def condition(self, label: str):
        for lbl, cond in self.divisors:
            if lbl == label:
                return cond
        raise KeyError(label)


def parse_condition(text: str):
    """Parse ">=m" | "div m" | "inf" | "union <...>|<...>"."""
    s = text.strip()
    if s == "inf":
        return LOG
    if s.startswith(">="):
        return AtLeast(int(s[2:].strip()))
    if s.startswith("div"):
        return DivisibleBy(int(s[3:].strip()))
    if s.startswith("union"):
        return UnionCondition(parse_union(s[5:].strip()))
    raise ValueError(f"cannot parse multiplicity condition: {text!r}")


def format_condition(cond) -> str:
    if isinstance(cond, LogCondition):
        return "inf"
    if isinstance(cond, AtLeast):
        return f">={cond.m}"
    if isinstance(cond, DivisibleBy):
        return f"div {cond.m}"
    if isinstance(cond, UnionCondition):
        return f"union {format_union(cond.union)}"
    raise TypeError(f"not a multiplicity condition: {cond!r}")


def parse_pair_spec(text: str) -> CPairSpec:
    """Parse "label: cond; label: cond" (semicolon-separated entries)."""
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        label, colon, cond = chunk.partition(":")
        if not colon:
            raise ValueError(f"pair entry needs 'label: condition', got {chunk!r}")
        entries.append((label.strip(), parse_condition(cond)))
    if not entries:
        raise ValueError("pair specification is empty")
    return CPairSpec(entries)


def format_pair_spec(spec: CPairSpec) -> str:
    return "; ".join(f"{lbl}: {format_condition(c)}" for lbl, c in spec.divisors)


# -- typed JSON readers ------------------------------------------------------
# A JSON argument is read by exact type, never coerced: true is not 1, 1.5 is
# not 1, "22" is not [2, 2] and ["x"] is not the id "['x']".  A shape is a
# type, matched exactly (so a bool is not an int), [shape] for a list of any
# length, or a tuple of shapes for a list of that length.

_REQUIRED = object()


def _has_shape(value, shape) -> bool:
    if isinstance(shape, type):
        return type(value) is shape
    if type(value) is not list:
        return False
    if isinstance(shape, list):
        return all(_has_shape(v, shape[0]) for v in value)
    return len(value) == len(shape) and all(map(_has_shape, value, shape))


def json_object(obj, what: str) -> Mapping:
    """obj if it is a JSON object, else ValueError "expected {what}"."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"expected {what}")
    return obj


def json_field(obj: Mapping, key: str, shape, what: str, default=_REQUIRED):
    """obj[key] if it has `shape`, else ValueError "'key' must be {what}"; `default` if absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"missing {key!r}")
        return default
    value = obj[key]
    if not _has_shape(value, shape):
        raise ValueError(f"{key!r} must be {what}")
    return value


# -- valuation vectors -------------------------------------------------------


class DivisorValuations(Value):
    """Local data of a point along one divisor.

    Either the point is contained in the divisor (`contained=True`, no finite
    multiplicities), or it meets the divisor with multiplicity mults[p] >= 1
    at finitely many primes p (primes with multiplicity 0 are omitted).

    The constructor validates its input (exact types, prime keys, no
    repeats, multiplicities >= 1), as JSON and library input need.
    `_of_factors` skips that for the prime-ascending tuple of (prime,
    exponent >= 1) pairs that `factor` produced, which already has that form.
    """

    __slots__ = _fields = ("contained", "mults")
    contained: bool
    mults: tuple[tuple[int, int], ...]

    def __init__(self, contained: bool = False, mults: Mapping[int, int] | Iterable = ()):
        items = mults.items() if isinstance(mults, Mapping) else mults
        pairs = tuple(sorted((exact_int(p, "a prime"), exact_int(m, "a multiplicity")) for p, m in items))
        if exact_bool(contained, "contained") and pairs:
            raise ValueError("a contained point carries no finite multiplicities")
        last = 1
        for p, m in pairs:
            if not is_probable_prime(p):
                raise ValueError(f"multiplicity key {p} is not prime")
            if p <= last:
                raise ValueError(f"duplicate prime {p} in valuation data")
            if m < 1:
                raise ValueError(f"multiplicities must be >= 1, got {m} at {p}")
            last = p
        object.__setattr__(self, "contained", contained)
        object.__setattr__(self, "mults", pairs)

    @classmethod
    def _of_factors(cls, mults: tuple[tuple[int, int], ...]) -> "DivisorValuations":
        """A point off the divisor with these multiplicities, taken as given: ascending
        primes, each exponent >= 1, as `factor` returns them with the primes of S left out."""
        dv = object.__new__(cls)
        object.__setattr__(dv, "contained", False)
        object.__setattr__(dv, "mults", mults)
        return dv

    def to_json_obj(self) -> dict:
        return {"contained": self.contained, "mults": [[p, m] for p, m in self.mults]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "DivisorValuations":
        """Inverse of to_json_obj; a malformed shape raises ValueError."""
        obj = json_object(obj, "an object with 'contained' and 'mults'")
        return cls(contained=json_field(obj, "contained", bool, "true or false", False),
                   mults=json_field(obj, "mults", [(int, int)],
                                    "a list of [prime, multiplicity] integer pairs", []))


def vector_to_json_obj(vec: Mapping[str, DivisorValuations]) -> dict:
    return {lbl: dv.to_json_obj() for lbl, dv in vec.items()}


def vector_from_json_obj(obj: Mapping) -> dict[str, DivisorValuations]:
    """Object of label -> valuation data; errors name the offending label."""
    vec = {}
    for lbl, dv in json_object(obj, "an object mapping divisor labels to valuation data").items():
        try:
            vec[str(lbl)] = DivisorValuations.from_json_obj(dv)
        except ValueError as e:
            raise ValueError(f"divisor {lbl!r}: {e}") from None
    return vec


# -- point verdicts ----------------------------------------------------------


class DivisorVerdict(NamedTuple):
    label: str
    passed: bool
    in_support: bool = False
    witness_prime: "int | None" = None


class PointVerdict(NamedTuple):
    accepted: bool
    divisors: tuple[DivisorVerdict, ...]

    @property
    def flags(self) -> tuple[str, ...]:
        return ("in_support",) if any(d.in_support for d in self.divisors) else ()

    def witness(self) -> "int | None":
        """Smallest failing prime across divisors, when one exists."""
        ps = [d.witness_prime for d in self.divisors if d.witness_prime is not None]
        return min(ps) if ps else None


def _check_divisor(label: str, cond, union: SemigroupUnion, data: DivisorValuations) -> DivisorVerdict:
    if data.contained:
        # supported convention: a point inside the divisor satisfies any finite
        # condition but not LOG, and the verdict is flagged so callers can filter it out
        return DivisorVerdict(label, passed=not isinstance(cond, LogCondition), in_support=True)
    # LOG's union is empty, so it refuses every multiplicity here
    for p, m in data.mults:
        if not union.contains(m):
            return DivisorVerdict(label, passed=False, witness_prime=p)
    return DivisorVerdict(label, passed=True)


def _check_point(spec: CPairSpec, vec: Mapping[str, DivisorValuations], allowed) -> PointVerdict:
    """Judge vec against every divisor of spec, whose conditions must be of the `allowed` kinds
    (or LOG; None allows any).  vec must carry exactly the pair's labels, compared with the
    spec's `label_set`; each divisor's data is judged by `_check_divisor`."""
    if vec.keys() != spec.label_set:
        raise ValueError(
            f"valuation vector labels {sorted(vec.keys())} do not match pair labels {sorted(spec.labels())}"
        )
    if allowed is not None:
        for lbl, cond in spec.divisors:
            if not isinstance(cond, (*allowed, LogCondition)):
                raise ValueError(f"divisor {lbl!r}: condition {format_condition(cond)!r} not allowed here")
    verdicts = tuple([_check_divisor(lbl, cond, union, vec[lbl])
                      for (lbl, cond), union in zip(spec.divisors, spec.unions)])
    return PointVerdict(all([v.passed for v in verdicts]), verdicts)


def check_campana_point(spec: CPairSpec, vec: Mapping[str, DivisorValuations]) -> PointVerdict:
    """Every finite condition must be AtLeast; multiplicities >= m at all primes."""
    return _check_point(spec, vec, allowed=(AtLeast,))


def check_darmon_point(spec: CPairSpec, vec: Mapping[str, DivisorValuations]) -> PointVerdict:
    """Every finite condition must be DivisibleBy; multiplicities divisible by m."""
    return _check_point(spec, vec, allowed=(DivisibleBy,))


def check_generalized_point_dedekind(spec: CPairSpec, vec: Mapping[str, DivisorValuations]) -> PointVerdict:
    """Multiplicities must lie in each condition's element set.

    On a Dedekind base, distinct primes are disjoint, so the block structure
    of a union is immaterial and membership in the element set is the whole
    condition.  Any condition kind is accepted; AtLeast/DivisibleBy behave as
    the unions they generate, which makes the campana/darmon agreement
    invariants directly testable.
    """
    return _check_point(spec, vec, allowed=None)


def cpair_divisor(spec: CPairSpec) -> list[tuple[str, Fraction]]:
    """Per-label coefficients 1 - 1/m of the associated orbifold divisor."""
    return [(lbl, cpair_coefficient(cond)) for lbl, cond in spec.divisors]


# -- divisor configurations (non-Dedekind bases) ------------------------------


class DivisorConfiguration(Value):
    """Finitely many prime-divisor components with multiplicities and crossings.

    Vertices are component ids with a multiplicity each; edges record which
    components intersect.  Self-loops are rejected; edges must reference
    declared ids.
    """

    __slots__ = _fields = ("components", "edges")
    components: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]

    def __init__(self, components: Iterable[tuple[str, int]], edges: Iterable[tuple[str, str]] = ()):
        comps = tuple((str(c), exact_int(m, "a multiplicity")) for c, m in components)
        ids = [c for c, _ in comps]
        if len(set(ids)) != len(ids):
            raise ValueError("component ids must be unique")
        for c, m in comps:
            if m < 1:
                raise ValueError(f"component {c!r} needs multiplicity >= 1, got {m}")
        known = set(ids)
        es = []
        for a, b in edges:
            a, b = str(a), str(b)
            if a == b:
                raise ValueError(f"self-loop at component {a!r}")
            if a not in known or b not in known:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown component")
            es.append((a, b))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "edges", tuple(es))

    def connected_components(self) -> list[tuple[str, ...]]:
        """Vertex sets of the intersection graph, each sorted, in first-seen order."""
        adj: dict[str, set[str]] = {c: set() for c, _ in self.components}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen: set[str] = set()
        out = []
        for c, _ in self.components:
            if c in seen:
                continue
            stack, comp = [c], []
            seen.add(c)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            out.append(tuple(sorted(comp)))
        return out

    def to_json_obj(self) -> dict:
        return {"components": [[c, m] for c, m in self.components],
                "edges": [[a, b] for a, b in self.edges]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "DivisorConfiguration":
        """Inverse of to_json_obj; a malformed shape raises ValueError."""
        obj = json_object(obj, "an object with 'components' and 'edges'")
        return cls(components=json_field(obj, "components", [(str, int)],
                                         "a list of [id, multiplicity] pairs of a string and an integer"),
                   edges=json_field(obj, "edges", [(str, str)], "a list of [id, id] string pairs", []))


class ConfigurationVerdict(NamedTuple):
    accepted: bool
    # (component vertex set, 1-based block index) for each connected component
    assignment: "tuple[tuple[tuple[str, ...], int], ...] | None" = None
    failing_component: "tuple[str, ...] | None" = None


def check_generalized_configuration(union: SemigroupUnion, cfg: DivisorConfiguration) -> ConfigurationVerdict:
    """Assign each connected component to a block containing all its multiplicities.

    Components are independent: blocks may be reused.  Accepted verdicts carry
    the assignment (first admissible block per component); rejections name the
    first component admitting no block.
    """
    assignment, mult = [], dict(cfg.components)
    for comp in cfg.connected_components():
        mults = [mult[c] for c in comp]
        block = None
        for i, b in enumerate(union.blocks, start=1):
            if all(b.contains(m) for m in mults):
                block = i
                break
        if block is None:
            return ConfigurationVerdict(accepted=False, failing_component=comp)
        assignment.append((comp, block))
    return ConfigurationVerdict(accepted=True, assignment=tuple(assignment))
