"""Uniform scheme descriptor consumed by the audit engine and combinators.

A descriptor bundles everything needed to exhaust a protocol: the message
and user-randomness spaces with their exact probabilities, the storage map,
and a deterministic session function. Messages are pairs of bit tuples
``(w1, w2)``; sessions are pure, so enumeration order never matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple

from .capacity import PirParameters

Message = tuple  # (w1 bits, w2 bits)


def check_theta(theta: int) -> None:
    """Refuse a desired index other than 1 or 2."""
    if theta not in (1, 2):
        raise ValueError("theta must be 1 or 2")


class SessionRecord(NamedTuple):
    """One retrieval session at the scheme's native block length.

    ``queries[n]`` and ``answers[n]`` are flat tuples of hashable symbols for
    database ``n`` (all rounds concatenated, fixed arity; ``None`` marks a
    position where nothing was sent). ``download_bits`` counts answer bits
    actually shipped, at symbol level, never query bits.
    """

    queries: tuple[tuple, ...]
    answers: tuple[tuple, ...]
    decoded: tuple[int, ...]
    download_bits: int


session_record = partial(tuple.__new__, SessionRecord)  # from one 4-tuple, in C: no generated __new__


class Product(NamedTuple):
    """Two independent copies of ``component``, played by ``built``: (message_space,
    randomness_space, store, run). Database n holds and answers the first copy's
    database n material, then the second copy's other-database material."""

    component: SchemeDescriptor
    built: tuple


@dataclass(frozen=True)
class SchemeDescriptor:
    """A protocol description: storage map, query/answer policies, decoder.

    ``message_space`` and ``randomness_space`` yield ``(value, probability)``
    pairs with exact Fraction probabilities summing to 1. ``store(msg)``
    returns one flat symbol tuple per database. ``run(msg, theta, f)``
    plays a full session deterministically. ``side_information(msg, f)``
    returns, per database, the symbols available to that database at
    answer time before consulting its storage (used for conditional-entropy
    storage accounting); the default is no side information.

    ``coded`` is the finite-length coded layer that concrete accounting
    follows: ``session(theta, L, seed, models)``, ``storage_bits(L, seed,
    codec, cell_model)`` and ``bin_failures(codec, blocks, seed)``. A scheme
    without one (None) is charged at face value.
    ``product`` declares a ``Product``; the audit then composes one pass
    over its component.
    """

    name: str
    params: PirParameters
    block_length: int
    message_space: Callable[[], Iterable[tuple[Message, Fraction]]]
    randomness_space: Callable[[], Iterable[tuple[Any, Fraction]]]
    store: Callable[[Message], tuple[tuple, ...]]
    run: Callable[[Message, int, Any], SessionRecord]
    side_information: Callable[[Message, Any], tuple[tuple, ...]] | None = None
    coded: Any = None
    product: Product | None = None

    def desired(self, msg: Message, theta: int) -> tuple[int, ...]:
        if not (1 <= theta <= self.params.num_messages):
            raise ValueError(f"theta must be in [1, {self.params.num_messages}]")
        return tuple(msg[theta - 1])
