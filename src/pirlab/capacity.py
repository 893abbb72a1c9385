"""Closed-form capacity and storage-overhead oracles.

These formulas are evaluated exactly (capacity as a Fraction) so that
"measured rate equals capacity" style boundary checks need no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class PirParameters:
    """Protocol parameters: K messages, N databases, T-collusion, round count."""

    num_messages: int
    num_databases: int
    collusion: int = 1
    rounds: int = 1

    def __post_init__(self):
        if self.num_messages < 1:
            raise ValueError("num_messages must be at least 1")
        if self.num_databases < 1:
            raise ValueError("num_databases must be at least 1")
        if not (1 <= self.collusion <= self.num_databases):
            raise ValueError(
                f"collusion must satisfy 1 <= T <= N, got T={self.collusion}, N={self.num_databases}"
            )
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")


def mtpir_capacity(p: PirParameters) -> Fraction:
    """Retrieval capacity (1 + T/N + ... + (T/N)^(K-1))^-1, exact, from the
    geometric series' closed form (1 - r)/(1 - r^K) with r = T/N, or 1/K when
    r = 1.

    Independent of the round count.
    """
    ratio = Fraction(p.collusion, p.num_databases)
    if ratio == 1:
        return Fraction(1, p.num_messages)
    return (1 - ratio) / (1 - ratio**p.num_messages)


def storage_overhead(bits: Sequence[float], message_length: int, num_messages: int) -> float:
    """Total stored bits across databases divided by total message bits."""
    if any(b < 0 for b in bits):
        raise ValueError("storage entries must be non-negative")
    if message_length < 1:
        raise ValueError("message_length must be positive")
    if num_messages < 1:
        raise ValueError("num_messages must be at least 1")
    return sum(bits) / (num_messages * message_length)


def check_rate_admissible(rate: Fraction, p: PirParameters) -> bool:
    """True iff ``rate`` does not exceed the capacity for ``p``.

    Exact comparison; a rate equal to capacity passes (boundary case).
    """
    rate = Fraction(rate)
    if rate < 0:
        raise ValueError("rate must be non-negative")
    return rate <= mtpir_capacity(p)
