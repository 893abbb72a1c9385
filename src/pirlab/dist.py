"""Exact probability distributions over finite outcome tuples.

A law is held as non-negative integer counts over one common denominator,
so sums, marginals and total variation are exact integer arithmetic: a
distributional identity check means exact equality, never "close enough".
``fractions.Fraction`` appears only at the API: rational weights in, and
``items`` and total variation out. Floating point enters
only when a probability passes through ``log2``, which makes the information
measures (entropy and conditional entropy) floats. Each
probability there is ``count / total``, a correctly rounded integer division,
so it is bit for bit the float of the reduced ``Fraction``.

Outcomes are fixed-arity tuples of small hashable symbols (bits, query
labels, ``None`` as a null marker). A law's per-coordinate alphabets are the
symbols its support takes there; when two laws are compared, an outcome
missing from one support counts there as probability zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping


def _as_outcome(key) -> tuple:
    return key if isinstance(key, tuple) else (key,)


class ExactDist:
    """A probability mass function with exact rational weights.

    ``weights`` maps outcomes to probabilities; given ``total``, it maps
    them to integer counts out of ``total`` instead. Invariants enforced at
    construction, by bulk C-level calls when every key is a tuple and every
    count positive: all weights are non-negative, they sum to exactly 1 (the
    counts to ``total``), zero-weight entries are dropped, and every outcome
    has the same arity, which is kept. ``alphabets``, the symbols the support
    takes at each coordinate, is derived from the support each time it is read.
    """

    __slots__ = ("_counts", "_total", "_arity")

    def __init__(
        self,
        weights: Mapping[Hashable, Fraction | int],
        total: int | None = None,
    ):
        if total is None:
            # Rational weights become counts over the lcm of their denominators.
            weights = {key: Fraction(value) for key, value in dict(weights).items()}
            total = math.lcm(*(w.denominator for w in weights.values()))
            weights = {key: w.numerator * (total // w.denominator) for key, w in weights.items()}
        walk = set(map(type, weights)) != {tuple} or min(weights.values()) <= 0
        counts: dict[tuple, int] = {} if walk else dict(weights)
        for key, count in weights.items() if walk else ():
            if count < 0:
                raise ValueError(f"negative weight {Fraction(count, total)} for outcome {_as_outcome(key)!r}")
            if count:
                counts[key if isinstance(key, tuple) else (key,)] = count
        if not counts:
            raise ValueError("distribution must have non-empty support")
        arities = set(map(len, counts))
        if len(arities) != 1:
            raise ValueError(f"outcomes must share a single arity, got {sorted(arities)}")
        mass = sum(counts.values())
        if mass != total:
            raise ValueError(f"weights must sum to exactly 1, got {Fraction(mass, total)}")
        self._counts = counts
        self._total = total
        (self._arity,) = arities

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def alphabets(self) -> tuple[frozenset, ...]:
        return tuple(map(frozenset, zip(*self._counts)))

    @property
    def counts(self) -> Mapping[tuple, int]:
        """The support's integer weights; ``counts[o] / total`` is p(o)."""
        return MappingProxyType(self._counts)

    @property
    def total(self) -> int:
        return self._total

    def items(self) -> list[tuple[tuple, Fraction]]:
        return [(o, Fraction(c, self._total)) for o, c in self._counts.items()]

    def support(self) -> tuple[tuple, ...]:
        return tuple(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactDist):
            return NotImplemented
        mine, theirs = self._counts, other._counts
        t1, t2 = self._total, other._total
        return mine.keys() == theirs.keys() and all(c * t2 == theirs[o] * t1 for o, c in mine.items())

    def __hash__(self):
        # Equal laws may be held over different totals: hash the reduced counts.
        g = math.gcd(self._total, *self._counts.values())
        return hash((self._total // g, frozenset((o, c // g) for o, c in self._counts.items())))

    def __repr__(self) -> str:
        items = sorted(self.items(), key=lambda item: repr(item[0]))
        entries = ", ".join(f"{o!r}: {w}" for o, w in items)
        return f"ExactDist({{{entries}}})"


def _check_coords(coords, arity: int) -> tuple[int, ...]:
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise ValueError(f"duplicate coordinates in {coords}")
    for c in coords:
        if not (0 <= c < arity):
            raise ValueError(f"coordinate {c} out of range for arity {arity}")
    return coords


def _symbols_at(coords: tuple[int, ...]):
    """outcome -> its symbols at ``coords``: a tuple, or the lone symbol of one coordinate."""
    return itemgetter(*coords) if coords else lambda outcome: ()


def _plogp_sum(counts: Iterable[int], total: int) -> float:
    """-sum p log2 p over p = count / total, in the counts' order."""
    h = 0.0
    for count in counts:
        p = count / total
        h -= p * math.log2(p)
    return h


def entropy(d: ExactDist) -> float:
    """Shannon entropy of ``d`` in bits.

    Counts are exact; each probability becomes a float only inside its
    ``p * log2(p)`` term.
    """
    return _plogp_sum(d._counts.values(), d._total)


def marginal(d: ExactDist, coords: Iterable[int]) -> ExactDist:
    """Marginal distribution onto ``coords``, in the order given."""
    coords = _check_coords(coords, d.arity)
    symbols = _symbols_at(coords)
    collapsed: dict = {}
    for outcome, count in d._counts.items():
        key = symbols(outcome)
        collapsed[key] = collapsed.get(key, 0) + count
    if len(coords) == 1:
        collapsed = {(key,): count for key, count in collapsed.items()}
    return ExactDist(collapsed, total=d._total)


def conditional_entropy(d: ExactDist, given: Iterable[int], target: Iterable[int] | None = None) -> float:
    """H(target | given) in bits; the target defaults to every other coordinate.

    Groups ``d``'s counts by the ``given`` symbols and, within a group, by
    the ``target`` symbols, and returns sum_c p(c) * H(target | c), groups and
    their entries summed in first-occurrence order. An empty target gives 0.
    """
    given = tuple(given)
    target = tuple(c for c in range(d.arity) if c not in given) if target is None else tuple(target)
    _check_coords(given + target, d.arity)
    if not target:
        return 0.0
    key_of, value_of = _symbols_at(given), _symbols_at(target)
    groups: dict = {}
    for outcome, count in d._counts.items():
        key = key_of(outcome)
        bucket = groups.get(key)
        if bucket is None:
            bucket = groups[key] = {}
        value = value_of(outcome)
        bucket[value] = bucket.get(value, 0) + count
    result = 0.0
    for bucket in groups.values():
        group_total = sum(bucket.values())
        result += group_total / d._total * _plogp_sum(bucket.values(), group_total)
    return result


def conditional_mutual_information(
    d: ExactDist, a: tuple[int, ...], b: tuple[int, ...], c: tuple[int, ...]
) -> float:
    """I(A; B | C) = H(A | C) - H(A | B, C), all coordinates of one law."""
    return conditional_entropy(d, c, a) - conditional_entropy(d, b + c, a)


def total_variation(d1: ExactDist, d2: ExactDist) -> Fraction:
    """Exact total variation distance (1/2) sum |p1 - p2|.

    The sum runs over the union of both supports, so an outcome absent from
    one support counts there as probability zero; both laws must share one
    arity. Returns the rational 0 if and only if the distributions are
    identical.
    """
    if d1.arity != d2.arity:
        raise ValueError(f"total variation requires one arity, got {d1.arity} and {d2.arity}")
    c1, t1, c2, t2 = d1._counts, d1._total, d2._counts, d2._total
    acc = sum(abs(c * t2 - c2.get(o, 0) * t1) for o, c in c1.items())
    acc += sum(c * t1 for o, c in c2.items() if o not in c1)
    return Fraction(acc, 2 * t1 * t2)
