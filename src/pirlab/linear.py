"""Single-round linear scheme on 4-bit blocks, a replicated baseline, and
the two-copy symmetrization combinator.

The linear scheme downloads three bits from each database per block. Which
three is set by a fair pattern coin and the desired index; either database
sees one of two equally likely selections no matter which message is wanted.
All sums are XOR.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product, repeat
from operator import itemgetter

from .capacity import PirParameters
from .descriptor import Message, Product, SchemeDescriptor, check_theta, session_record

PATTERNS = (1, 2)
# DB2's two possible answer selections, named by content, not by pattern:
# t1 = (a4, b2, a3+b1), t2 = (a2, b4, a1+b3).
TRIPLE_1 = "t1"
TRIPLE_2 = "t2"

BLOCK = 4
_BLOCKS = frozenset(product((0, 1), repeat=BLOCK))  # the 16 valid blocks


def _check_block(name: str, bits) -> None:
    try:
        valid = isinstance(bits, tuple) and bits in _BLOCKS
    except TypeError:  # an unhashable entry, such as a list
        valid = False
    if not valid:
        raise ValueError(f"{name} must be a {BLOCK}-bit tuple")


def linear_store(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Six stored bits per database, (s1, s2), for the 4-bit messages a and b."""
    _check_block("a", a)
    _check_block("b", b)
    s1 = (a[0], a[2], b[0], b[2], a[1] ^ b[1], a[3] ^ b[3])
    s2 = (a[1], a[3], b[1], b[3], a[2] ^ b[0], a[0] ^ b[2])
    return s1, s2


def _replicated_store(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both 4-bit messages, whole, at each database."""
    _check_block("a", a)
    _check_block("b", b)
    return a + b, a + b


def _toy_store(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both 4-bit messages, whole, at DB1; the linear scheme's six bits at DB2."""
    s2 = linear_store(a, b)[1]  # checks both blocks before they are joined
    return a + b, s2


def db2_selector(pattern: int, theta: int) -> str:
    return TRIPLE_1 if pattern == theta else TRIPLE_2


def db1_answer(pattern: int, s1: tuple[int, ...]) -> tuple[int, ...]:
    if pattern == 1:
        return (s1[0], s1[2], s1[4])  # a1, b1, a2+b2
    return (s1[1], s1[3], s1[5])  # a3, b3, a4+b4


def db2_answer(selector: str, s2: tuple[int, ...]) -> tuple[int, ...]:
    if selector == TRIPLE_1:
        return (s2[1], s2[2], s2[4])  # a4, b2, a3+b1
    return (s2[0], s2[3], s2[5])  # a2, b4, a1+b3


def linear_decode(
    theta: int, pattern: int, d1: tuple[int, ...], d2: tuple[int, ...]
) -> tuple[int, ...]:
    """XOR-cancel the interference to rebuild the desired 4-bit message."""
    if pattern == 1 and theta == 1:
        return (d1[0], d1[2] ^ d2[1], d2[2] ^ d1[1], d2[0])
    if pattern == 1 and theta == 2:
        return (d1[1], d1[2] ^ d2[0], d2[2] ^ d1[0], d2[1])
    if pattern == 2 and theta == 1:
        return (d2[2] ^ d1[1], d2[0], d1[0], d1[2] ^ d2[1])
    return (d2[2] ^ d1[0], d2[1], d1[1], d1[2] ^ d2[0])


def _linear_plan(theta: int, pattern: int) -> tuple:
    """The session's queries, each database's answer selection, read off
    ``db1_answer`` and ``db2_answer`` at the stored-bit indices, and the decoder."""
    selector = db2_selector(pattern, theta)
    d1, d2 = db1_answer(pattern, range(6)), db2_answer(selector, range(6))
    return ((pattern,), (selector,)), itemgetter(*d1), itemgetter(*d2), linear_decode


# Each scheme's plans[theta, f] = (queries, DB1 selection, DB2 selection, decoder).
_LINEAR_PLANS = {(theta, pattern): _linear_plan(theta, pattern) for theta in (1, 2) for pattern in PATTERNS}
_HALVES = {1: slice(0, BLOCK), 2: slice(BLOCK, 2 * BLOCK)}  # message theta, where DB1 holds both whole
# DB1 returns all 8 of its bits under a constant query; DB2 returns nothing.
_REPLICATED_PLANS = {
    (theta, 0): ((("all",), ()), tuple, itemgetter(slice(0)), lambda _theta, _f, d1, _d2, part=half: d1[part])
    for theta, half in _HALVES.items()
}
# DB1 returns the desired message, DB2 the coin's pair of its six bits.
_TOY_PLANS = {
    (theta, f): (((f"m{theta}",), (f"half{f}",)), itemgetter(half), itemgetter(2 * f, 2 * f + 1), lambda _theta, _f, d1, _d2: d1)
    for theta, half in _HALVES.items() for f in (0, 1)
}


def gf2_rank(rows: list[int]) -> int:
    """Rank of bitmask rows over GF(2)."""
    rank = 0
    basis: list[int] = []
    for row in rows:
        for pivot in basis:
            row = min(row, row ^ pivot)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


# Stored functionals as bitmasks over (a1..a4, b1..b4); bit i = a_{i+1}, bit 4+i = b_{i+1}.
_S1_MASKS = [0b00000001, 0b00000100, 0b00010000, 0b01000000, 0b00100010, 0b10001000]
_S2_MASKS = [0b00000010, 0b00001000, 0b00100000, 0b10000000, 0b00010100, 0b01000001]


def linear_storage_entropy_bits() -> tuple[float, float]:
    """H(S_n) per block under uniform messages, via GF(2) rank."""
    return float(gf2_rank(list(_S1_MASKS))), float(gf2_rank(list(_S2_MASKS)))


# The 256 equally likely message pairs (a, b), listed once with one shared
# weight: every listing yields the same objects, so a store-memo hit on a
# listed message compares its key by identity.
_UNIFORM_MESSAGES = tuple(
    zip(((bits[:BLOCK], bits[BLOCK:]) for bits in product((0, 1), repeat=2 * BLOCK)), repeat(Fraction(1, 256)))
)


def _planned_scheme(name: str, store, plans: dict, coin_error: str) -> SchemeDescriptor:
    """A single-round scheme on 4-bit blocks from its storage map ``store(a, b)``
    and ``plans[theta, f] = (queries, DB1 selection, DB2 selection, decoder)``,
    with equally likely coins. A decoder takes ``(theta, f, d1, d2)``, so one
    function serves every plan. Storage, checked and memoized, is read first;
    a (theta, f) without a plan refuses theta, then the coin."""
    memo = lru_cache(maxsize=None)(store)
    coins = dict.fromkeys(f for _, f in plans)
    randomness_space = partial(iter, [(f, Fraction(1, len(coins))) for f in coins])

    def stored(msg):
        try:
            return memo(*msg)
        except TypeError:
            # An unhashable block, such as a list, which store refuses by name,
            # or a message that is not a pair of blocks.
            try:
                a, b = msg
            except (TypeError, ValueError):
                raise ValueError(f"message must be a pair of blocks, got {msg!r}") from None
            return store(a, b)

    def run(msg, theta, f):
        s1, s2 = stored(msg)
        try:
            queries, select1, select2, decode = plans[theta, f]
        except (KeyError, TypeError):
            check_theta(theta)
            raise ValueError(coin_error) from None
        d1, d2 = select1(s1), select2(s2)
        return session_record((queries, (d1, d2), decode(theta, f, d1, d2)))

    return SchemeDescriptor(
        name=name,
        params=PirParameters(num_messages=2, num_databases=2, collusion=1, rounds=1),
        message_space=partial(iter, _UNIFORM_MESSAGES),
        randomness_space=randomness_space,
        store=stored,
        run=run,
    )


def linear_descriptor() -> SchemeDescriptor:
    return _planned_scheme("linear", linear_store, _LINEAR_PLANS, "pattern must be 1 or 2")


def replicated_descriptor() -> SchemeDescriptor:
    """Trivial baseline: download both messages from DB1 under a constant query."""
    return _planned_scheme("replicated", _replicated_store, _REPLICATED_PLANS, "coin must be 0")


def asymmetric_toy_descriptor() -> SchemeDescriptor:
    """Deliberately lopsided scheme for exercising the symmetrizer.

    DB1 stores both messages (8 bits) and serves the desired one outright;
    DB2 stores the linear scheme's 6 bits and serves 2 of them chosen by a
    user coin. Makes no privacy claim; rate 2/3, overhead 7/4, and the two
    databases' storage and answer entropies are intentionally unequal.
    """
    return _planned_scheme("asymmetric-toy", _toy_store, _TOY_PLANS, "coin must be 0 or 1")


def symmetrize(scheme: SchemeDescriptor) -> SchemeDescriptor:
    """Two independent copies with database roles swapped in the second.

    Messages, storage, queries and answers all double; the second copy's
    database 1 material lands on database 2 and vice versa, which equalizes
    per-database storage and answer entropies while leaving the rate and
    the storage overhead untouched. Only single-round two-message
    two-database schemes without side information are accepted. The result
    declares itself a ``Product`` of ``scheme``, which the audit composes.
    """
    p = scheme.params
    if (p.num_messages, p.num_databases, p.rounds) != (2, 2, 1) or scheme.side_information:
        raise ValueError(
            "symmetrize requires a single-round scheme, K = 2 messages, N = 2 databases, no side information"
        )
    half = scheme.block_length
    # Audits that enumerate the combined space (reports, views, replaced
    # fields) revisit each component (message, theta, randomness) triple many
    # times; memoizing the component's run keeps them linear in its state
    # space. Each shipped component memoizes its own store.
    component_run = lru_cache(maxsize=None)(scheme.run)

    def split(msg: Message):
        w1, w2 = msg
        return (w1[:half], w2[:half]), (w1[half:], w2[half:])

    def message_space():
        for first, p_first in scheme.message_space():
            for second, p_second in scheme.message_space():
                msg = (
                    tuple(first[0]) + tuple(second[0]),
                    tuple(first[1]) + tuple(second[1]),
                )
                yield msg, p_first * p_second

    def randomness_space():
        for f_first, p_first in scheme.randomness_space():
            for f_second, p_second in scheme.randomness_space():
                yield (f_first, f_second), p_first * p_second

    def store(msg):
        first, second = split(msg)
        s_first = scheme.store(first)
        s_second = scheme.store(second)
        return (s_first[0] + s_second[1], s_first[1] + s_second[0])

    def run(msg, theta, f):
        first, second = split(msg)
        a, b = component_run(first, theta, f[0]), component_run(second, theta, f[1])
        return session_record((
            (a.queries[0] + b.queries[1], a.queries[1] + b.queries[0]),
            (a.answers[0] + b.answers[1], a.answers[1] + b.answers[0]),
            a.decoded + b.decoded,
        ))

    return SchemeDescriptor(
        name=f"symmetric({scheme.name})",
        params=p,
        message_space=message_space,
        randomness_space=randomness_space,
        store=store,
        run=run,
        product=Product(scheme, (message_space, randomness_space, store, run)),
    )
