"""Exact probability distributions over finite outcome tuples.

Weights are ``fractions.Fraction`` throughout: sums, marginals and total
variation are computed with no rounding, so a distributional identity check
means exact equality, never "close enough". Floating point enters only when
a probability passes through ``log2``, which makes the information measures
(entropy, conditional entropy, mutual information) floats.

Outcomes are fixed-arity tuples of small hashable symbols (bits, query
labels, ``None`` as a null marker). Per-coordinate alphabets may be declared
explicitly so that outcomes missing from the support still count as
probability zero when two distributions are compared.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

Outcome = tuple


def _as_outcome(key) -> tuple:
    return key if isinstance(key, tuple) else (key,)


class ExactDist:
    """A probability mass function with exact rational weights.

    Invariants enforced at construction: all weights are non-negative
    rationals, they sum to exactly 1, zero-weight entries are dropped, and
    every outcome has the same arity. If ``alphabets`` is omitted it is
    inferred per coordinate from the support.
    """

    __slots__ = ("_weights", "_alphabets")

    def __init__(
        self,
        weights: Mapping[Hashable, Fraction | int],
        alphabets: Sequence[Iterable[Hashable]] | None = None,
    ):
        cleaned: dict[tuple, Fraction] = {}
        for key, value in dict(weights).items():
            outcome = _as_outcome(key)
            weight = Fraction(value)
            if weight < 0:
                raise ValueError(f"negative weight {weight} for outcome {outcome!r}")
            if weight == 0:
                continue
            cleaned[outcome] = weight
        if not cleaned:
            raise ValueError("distribution must have non-empty support")
        arities = {len(outcome) for outcome in cleaned}
        if len(arities) != 1:
            raise ValueError(f"outcomes must share a single arity, got {sorted(arities)}")
        (arity,) = arities
        total = sum(cleaned.values())
        if total != 1:
            raise ValueError(f"weights must sum to exactly 1, got {total}")
        if alphabets is None:
            alpha = tuple(
                frozenset(outcome[i] for outcome in cleaned) for i in range(arity)
            )
        else:
            alpha = tuple(frozenset(a) for a in alphabets)
            if len(alpha) != arity:
                raise ValueError(
                    f"declared {len(alpha)} alphabets for outcomes of arity {arity}"
                )
            for outcome in cleaned:
                for i, symbol in enumerate(outcome):
                    if symbol not in alpha[i]:
                        raise ValueError(
                            f"symbol {symbol!r} at coordinate {i} is outside the declared alphabet"
                        )
        self._weights = cleaned
        self._alphabets = alpha

    @classmethod
    def uniform(cls, outcomes: Iterable[Hashable]) -> "ExactDist":
        support = [_as_outcome(o) for o in outcomes]
        if not support:
            raise ValueError("uniform distribution needs at least one outcome")
        weight = Fraction(1, len(support))
        return cls({o: weight for o in support})

    @property
    def arity(self) -> int:
        return len(self._alphabets)

    @property
    def alphabets(self) -> tuple[frozenset, ...]:
        return self._alphabets

    def items(self):
        return self._weights.items()

    def support(self) -> tuple[tuple, ...]:
        return tuple(self._weights)

    def probability(self, outcome) -> Fraction:
        return self._weights.get(_as_outcome(outcome), Fraction(0))

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactDist):
            return NotImplemented
        return self._weights == other._weights

    def __hash__(self):
        return hash(frozenset(self._weights.items()))

    def __repr__(self) -> str:
        entries = ", ".join(f"{o!r}: {w}" for o, w in sorted_items(self))
        return f"ExactDist({{{entries}}})"


def sorted_items(d: ExactDist):
    """Support items in a stable order (sorted by repr of the outcome)."""
    return sorted(d.items(), key=lambda item: repr(item[0]))


def _check_coords(coords, arity: int, *, allow_empty: bool = True) -> tuple[int, ...]:
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise ValueError(f"duplicate coordinates in {coords}")
    for c in coords:
        if not (0 <= c < arity):
            raise ValueError(f"coordinate {c} out of range for arity {arity}")
    if not allow_empty and not coords:
        raise ValueError("coordinate set must be non-empty")
    return coords


def entropy(d: ExactDist) -> float:
    """Shannon entropy of ``d`` in bits.

    Probabilities are exact; they are converted to floats only inside the
    ``p * log2(p)`` terms.
    """
    total = 0.0
    for _, weight in d.items():
        p = float(weight)
        total -= p * math.log2(p)
    return total


def marginal(d: ExactDist, coords: Iterable[int]) -> ExactDist:
    """Marginal distribution onto ``coords``, in the order given."""
    coords = _check_coords(coords, d.arity)
    collapsed: dict[tuple, Fraction] = {}
    for outcome, weight in d.items():
        key = tuple(outcome[c] for c in coords)
        collapsed[key] = collapsed.get(key, Fraction(0)) + weight
    alphabets = tuple(d.alphabets[c] for c in coords)
    return ExactDist(collapsed, alphabets)


def conditional_entropy(d: ExactDist, condition_coords: Iterable[int]) -> float:
    """H(rest | condition coordinates) in bits.

    Groups the support by the conditioning coordinates and returns
    sum_c p(c) * H(rest | c). Conditioning on every coordinate gives 0.
    """
    cond = _check_coords(condition_coords, d.arity)
    rest = tuple(c for c in range(d.arity) if c not in cond)
    if not rest:
        return 0.0
    groups: dict[tuple, dict[tuple, Fraction]] = {}
    totals: dict[tuple, Fraction] = {}
    for outcome, weight in d.items():
        key = tuple(outcome[c] for c in cond)
        value = tuple(outcome[c] for c in rest)
        bucket = groups.setdefault(key, {})
        bucket[value] = bucket.get(value, Fraction(0)) + weight
        totals[key] = totals.get(key, Fraction(0)) + weight
    result = 0.0
    for key, bucket in groups.items():
        p_key = totals[key]
        inner = 0.0
        for weight in bucket.values():
            p = float(weight / p_key)
            inner -= p * math.log2(p)
        result += float(p_key) * inner
    return result


def mutual_information(
    d: ExactDist, coords_a: Iterable[int], coords_b: Iterable[int]
) -> float:
    """I(A; B) = H(A) + H(B) - H(A, B) in bits, marginalizing out the rest."""
    a = _check_coords(coords_a, d.arity)
    b = _check_coords(coords_b, d.arity)
    if set(a) & set(b):
        raise ValueError(f"coordinate sets overlap: {a} and {b}")
    return entropy(marginal(d, a)) + entropy(marginal(d, b)) - entropy(marginal(d, a + b))


def total_variation(d1: ExactDist, d2: ExactDist) -> Fraction:
    """Exact total variation distance (1/2) sum |p1 - p2|.

    Both distributions must be declared over the same alphabet; outcomes
    absent from one support count as probability zero. Returns the rational
    0 if and only if the distributions are identical.
    """
    if d1.alphabets != d2.alphabets:
        raise ValueError("total variation requires matching outcome alphabets")
    outcomes = set(d1.support()) | set(d2.support())
    acc = Fraction(0)
    for o in outcomes:
        acc += abs(d1.probability(o) - d2.probability(o))
    return acc / 2
