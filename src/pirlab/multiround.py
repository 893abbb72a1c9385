"""Two-round non-linear PIR for two messages on two databases.

Per position, the four cells partition the message pair:

    x1 = w1 AND w2          x2 = (NOT w1) AND (NOT w2)
    y1 = w1 AND (NOT w2)    y2 = (NOT w1) AND w2

DB1 stores the x cells, DB2 the y cells. Round 1 asks DB1 for x1 or x2 by a
private fair coin; an answer of 1 pins down both message bits and DB2 is not
contacted for that position (indicator u = 0). Otherwise round 2 fetches one
y cell from DB2, chosen so the desired bit is recovered exactly:

    asked x1, got 0  ->  (w1, w2) = (y1, y2)
    asked x2, got 0  ->  (w1, w2) = (NOT y2, NOT y1)

Decoding is symbol-exact: the protocol itself makes no errors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import NamedTuple, Sequence

from .capacity import PirParameters
from .coding import CodecConfig, SourceModel, check_ints, entropy_encode, stream_payload_bits, sw_bin_bits, sw_decode, sw_encode
from .descriptor import SchemeDescriptor, check_theta, session_record
from .seeds import derive_seed

ASK_X1 = "x1"
ASK_X2 = "x2"
ASK_Y1 = "y1"
ASK_Y2 = "y2"
NO_QUERY = None  # DB2 is not contacted at this position

# The kernel works on bitsets: a length-n bit sequence is an int whose n
# bits, most significant first, are the positions in order, so one int
# operation covers every position. The length is carried beside the int.
# _DIGITS spells bit bytes as digits and every other byte as a non-digit.
_DIGITS = bytes(48 + b if b < 2 else 120 for b in range(256))
_BITS = bytes.maketrans(b"01", b"\0\1")
# Entries equal to 0 or 1, as ``b in (0, 1)`` admits them (True, 1.0, ...).
_BIT_VALUES = {0: 0, 1: 1}
_Q1_CODES = {ASK_X1: 0, ASK_X2: 1}
# decode reads only whether DB2 was contacted, so both y queries share a code.
_Q2_CODES = {NO_QUERY: 0, ASK_Y1: 1, ASK_Y2: 1}
_A2_CODES = {None: 0, 0: 1, 1: 2}
# _WHERE[k] translates a code byte to b"1" where it equals k, else b"0".
_WHERE = tuple(bytes(48 + (code == k) for code in range(256)) for k in range(3))
# At most this many positions fit one byte of two-bit lanes. Bitsets that
# short are unpacked and spread by table lookup instead of a string round
# trip, and spelled from one byte of ``words`` instead of a chain.
_BYTE_POSITIONS = 4
_UNPACKED = tuple(tuple(product((0, 1), repeat=n)) for n in range(_BYTE_POSITIONS + 1))
_SPREAD = tuple(int(format(b, "b"), 4) for b in range(1 << _BYTE_POSITIONS))


def _words(values: tuple) -> tuple:
    """The values of four positions for each byte of base-4 codes; a byte
    holding a code with no value maps to ()."""
    return tuple(
        tuple(map(values.__getitem__, digits)) if max(digits) < len(values) else ()
        for digits in product(range(4), repeat=4)
    )


_Q1_WORDS = _words((ASK_X1, ASK_X2))
_Q2_WORDS = _words((NO_QUERY, ASK_Y1, ASK_Y2))
_A2_WORDS = _words((None, 0, 1))


def _pack(name: str, bits: tuple) -> int:
    """Bitset of ``bits``; raises unless every entry is a bit."""
    try:
        return int(b"0" + bytes(bits).translate(_DIGITS), 2)
    except (TypeError, ValueError):  # an entry such as 2, -1, None, "1" or 1.0
        pass
    try:
        return int(b"0" + bytes(map(_BIT_VALUES.__getitem__, bits)).translate(_DIGITS), 2)
    except (KeyError, TypeError):
        raise ValueError(f"{name} must contain only bits") from None


def _codes(name: str, entries: Sequence, codes: dict) -> bytes:
    """One code byte per entry; raises on an entry outside ``codes``."""
    try:
        return bytes(map(codes.__getitem__, entries))
    except (KeyError, TypeError):
        allowed = ", ".join(map(repr, codes))
        raise ValueError(f"{name} must contain only {allowed}") from None


def _where(codes: bytes, code: int) -> int:
    """Bitset of the positions holding ``code``."""
    return int(b"0" + codes.translate(_WHERE[code]), 2)


def _unpack(bitset: int, n: int) -> tuple[int, ...]:
    """The ``n`` bits of ``bitset`` in position order."""
    if n <= _BYTE_POSITIONS:
        return _UNPACKED[n][bitset]
    return tuple(format(bitset | 1 << n, "b").encode()[1:].translate(_BITS))


def _spread(bitset: int) -> int:
    """``bitset``'s binary digits read in base 4: one position per two-bit lane."""
    if bitset < len(_SPREAD):
        return _SPREAD[bitset]
    return int(bin(bitset)[2:], 4)


def _spell(words: tuple, n: int, codes: int) -> tuple:
    """Per position, the value indexed by its lane of ``codes``, a sum of spread
    bitsets; ``words`` maps each byte, four lanes, to their four values."""
    pad = -n % 4
    # One byte skips the chain: reproduce --mode ideal spells 3,648 times at
    # n <= 3, beside 2,488 table unpacks and 4,864 table spreads.
    if n <= _BYTE_POSITIONS:
        return words[codes][pad:]
    return tuple(chain.from_iterable(map(words.__getitem__, codes.to_bytes((n + pad) // 4, "big"))))[pad:]


def _check_bits(name: str, bits: Sequence[int]) -> tuple[tuple[int, ...], int]:
    bits = tuple(bits)
    return bits, _pack(name, bits)


@dataclass(frozen=True)
class MessagePair:
    """Two equal-length bit sequences."""

    w1: tuple[int, ...]
    w2: tuple[int, ...]

    def __post_init__(self):
        w1, packed1 = _check_bits("w1", self.w1)
        w2, packed2 = _check_bits("w2", self.w2)
        if len(w1) != len(w2):
            raise ValueError("messages must have equal length")
        if not w1:
            raise ValueError("messages must be non-empty")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "_packed", (packed1, packed2))

    @property
    def length(self) -> int:
        return len(self.w1)


def _cell_bits(m: MessagePair) -> tuple[int, int, int, int]:
    """The bitsets (x1, x2, y1, y2) of the four cell conjunctions."""
    w1, w2 = m._packed
    return w1 & w2, ((1 << m.length) - 1) & ~(w1 | w2), w1 & ~w2, w2 & ~w1


def _hits(coin: int, x1: int, x2: int) -> int:
    """DB1's round-1 answer: where the coin-selected x cell is 1 (u = 0)."""
    return (x1 & ~coin) | (x2 & coin)


class CellTable(NamedTuple):
    """Per-position stored cells: exactly one of (x1, x2, y1, y2) is 1 at
    every position."""

    x1: tuple[int, ...]
    x2: tuple[int, ...]
    y1: tuple[int, ...]
    y2: tuple[int, ...]


class Transcript(NamedTuple):
    """One retrieval session: queries, answers and the decoded output.

    ``a2`` carries ``None`` at positions where DB2 was not contacted. As a
    named tuple it equals the plain tuple of its fields.
    """

    theta: int
    coin: tuple[int, ...]
    q1: tuple[str, ...]
    a1: tuple[int, ...]
    q2: tuple[str | None, ...]
    a2: tuple[int | None, ...]
    decoded: tuple[int, ...] | None = None


def _check_coin(coin: Sequence[int], n: int) -> tuple[tuple[int, ...], int]:
    coin, packed = _check_bits("coin", coin)
    if len(coin) != n:
        raise ValueError("coin length must match message length")
    return coin, packed


def derive_cells(m: MessagePair) -> CellTable:
    """Evaluate the four cell conjunctions on every position at once."""
    n = m.length
    x1, x2, y1, y2 = _cell_bits(m)
    return CellTable(_unpack(x1, n), _unpack(x2, n), _unpack(y1, n), _unpack(y2, n))


def _indicator(m: MessagePair, coin: Sequence[int]) -> tuple[int, ...]:
    """The indicator u: 0 exactly where the coin-selected x cell is 1."""
    n = m.length
    x1, x2, _, _ = _cell_bits(m)
    return _unpack(((1 << n) - 1) & ~_hits(_check_coin(coin, n)[1], x1, x2), n)


def _round2(theta: int, asked_x2: int, hits: int, n: int) -> tuple[int, int]:
    """The user's round-2 query: bitsets of the positions that ask DB2 for
    y1 and for y2, from the coin and DB1's answer.

    Asking x1 and missing, the desired bit is the y cell of index theta;
    asking x2 and missing, it is the other one.
    """
    misses = ((1 << n) - 1) & ~hits
    want_y2 = misses & (asked_x2 if theta == 1 else ~asked_x2)
    return misses & ~want_y2, want_y2


def _answer(ask_y1: int, ask_y2: int, y1: int, y2: int) -> int:
    """DB2's round-2 answer: bitset of the asked y cells that are 1."""
    return (ask_y1 & y1) | (ask_y2 & y2)


def decode(theta: int, t: Transcript) -> tuple[int, ...]:
    """Recover the desired message bits from a complete transcript: check its
    queries and answers, then decode their bitsets with ``_decoded``."""
    check_theta(theta)
    if not (len(t.q1) == len(t.a1) == len(t.q2) == len(t.a2)):
        raise ValueError("incomplete transcript")
    asked_x2 = _where(_codes("q1", t.q1, _Q1_CODES), 1)
    hits = _pack("a1", tuple(t.a1))
    answers = _codes("a2", t.a2, _A2_CODES)
    if ~hits & (_where(_codes("q2", t.q2, _Q2_CODES), 0) | _where(answers, 0)):
        raise ValueError("incomplete transcript: missing round-2 answer")
    return _decoded(asked_x2, hits, _where(answers, 2), len(t.q1))


def _decoded(asked_x2: int, hits: int, ones: int, n: int) -> tuple[int, ...]:
    """The user's decoding from bitsets: where x2 was asked, a1 = 1 and a2 = 1.
    a1 = 1 pins both bits; otherwise the fetched y cell is the desired bit
    (asked x1) or its complement (asked x2)."""
    return _unpack((hits & ~asked_x2) | (~hits & (ones ^ asked_x2)), n)


def run_session(m: MessagePair, theta: int, coin: Sequence[int]) -> Transcript:
    """Play one full session; the decoded output always equals the desired message.

    Each party's step is one helper on bitsets: DB1 answers with ``_hits``,
    the user asks round 2 with ``_round2``, DB2 answers with ``_answer`` and
    the user decodes with ``_decoded``; ``_spell`` writes them out per position.
    """
    n = m.length
    coin, packed = _check_coin(coin, n)
    check_theta(theta)
    x1, x2, y1, y2 = _cell_bits(m)
    hits = _hits(packed, x1, x2)
    ask_y1, ask_y2 = _round2(theta, packed, hits, n)
    ones = _answer(ask_y1, ask_y2, y1, y2)
    asked = _spread(ask_y1 | ask_y2)
    q1 = _spell(_Q1_WORDS, n, _spread(packed))
    q2 = _spell(_Q2_WORDS, n, asked + _spread(ask_y2))
    a2 = _spell(_A2_WORDS, n, asked + _spread(ones))
    return Transcript(theta, coin, q1, _unpack(hits, n), q2, a2, _decoded(packed, hits, ones, n))


def _check_bias(bias: Fraction) -> Fraction:
    bias = Fraction(bias)
    if not (0 < bias < 1):
        raise ValueError("bias must be strictly between 0 and 1")
    return bias


def _draw(rng: random.Random, bias: Fraction, n: int) -> tuple[MessagePair, tuple[int, ...]]:
    """n positions: both messages' bits with the given bias, checked by the
    caller, then a fair coin."""
    bias = float(bias)
    w1 = tuple(1 if rng.random() < bias else 0 for _ in range(n))
    w2 = tuple(1 if rng.random() < bias else 0 for _ in range(n))
    coin = tuple(rng.getrandbits(1) for _ in range(n))
    return MessagePair(w1, w2), coin


def sw_failure_rate(
    codec: CodecConfig, blocks: int, seed: int, bias: Fraction = Fraction(1, 2)
) -> dict:
    """Empirical bin-decoding failure rate over blocks drawn from the scheme.

    Per position: message bits with the given bias, a fair coin, and the
    induced (y1, y2) pair and indicator. A failure is an ambiguous bin
    (two or more consistent candidates); this is the scheme's epsilon.
    """
    check_ints(blocks=blocks, seed=seed)
    if not isinstance(codec, CodecConfig):
        raise ValueError(f"codec must be a CodecConfig, got {codec!r}")
    if blocks < 1:
        raise ValueError(f"blocks must be at least 1, got {blocks}")
    bias = _check_bias(bias)
    rng = random.Random(derive_seed(seed, "sw-failure", blocks))
    n = codec.block_length
    failures = 0
    for _ in range(blocks):
        message, coin = _draw(rng, bias, n)
        cells = derive_cells(message)
        pairs = tuple(zip(cells.y1, cells.y2))
        decoded = sw_decode(sw_encode(pairs, codec), _indicator(message, coin), codec)
        if decoded != pairs:
            failures += 1
    return {
        "blocks": blocks,
        "failures": failures,
        "failure_rate": failures / blocks,
        "bin_bits": sw_bin_bits(codec),
        "bits_per_symbol": sw_bin_bits(codec) / n,
    }


@dataclass(frozen=True)
class CodedLayer:
    """The split scheme's coded layer at message bias ``bias``: DB1's cells and
    the answer streams arithmetic-coded, DB2's cells binned per codec block."""

    bias: Fraction

    def __post_init__(self):
        object.__setattr__(self, "bias", _check_bias(self.bias))

    def session(self, theta: int, L: int, seed: int, models: tuple[SourceModel, SourceModel]) -> dict:
        """One L-position session with its answer streams coded under ``models``."""
        message, coin = _draw(random.Random(seed), self.bias, L)
        transcript = run_session(message, theta, coin)
        stream1 = entropy_encode(transcript.a1, models[0])
        round2 = [a for a in transcript.a2 if a is not None]
        stream2 = entropy_encode(round2, models[1])
        bits1 = stream_payload_bits(stream1)
        bits2 = stream_payload_bits(stream2)
        return {
            "db1_bits": bits1,
            "db2_bits": bits2,
            "download_bits": bits1 + bits2,
            "round2_symbols": len(round2),
            "decode_errors": sum(
                1 for got, want in zip(transcript.decoded, message.w1 if theta == 1 else message.w2)
                if got != want
            ),
        }

    def storage_bits(self, L: int, seed: int, codec: CodecConfig, cell_model: SourceModel) -> tuple[int, int]:
        """DB1's coded cell bits and DB2's bin bits for one drawn L-position pair."""
        cells = derive_cells(_draw(random.Random(seed), self.bias, L)[0])
        db1_bits = stream_payload_bits(entropy_encode(list(zip(cells.x1, cells.x2)), cell_model))
        return db1_bits, (L + codec.block_length - 1) // codec.block_length * sw_bin_bits(codec)

    def bin_failures(self, codec: CodecConfig, blocks: int, seed: int) -> dict:
        return sw_failure_rate(codec, blocks, seed, self.bias)


def _bit_weight(bit: int, bias: Fraction) -> Fraction:
    return bias if bit == 1 else 1 - bias


def multiround_descriptor(
    bias: Fraction = Fraction(1, 2), storage: str = "split"
) -> SchemeDescriptor:
    """Native single-position descriptor for the audit engine.

    ``bias`` is the per-bit probability of 1 in each message (the protocol
    is unchanged; only the enumeration weights move). ``storage`` selects
    the honest split layout, or the deliberately privacy-breaking variant
    where DB2 keeps both raw messages. Only the split layout has a coded
    layer; the replicated variant's storage is charged at face value.
    """
    if storage not in ("split", "replicated"):
        raise ValueError("storage must be 'split' or 'replicated'")
    bias = _check_bias(bias)

    def message_space():
        for b1, b2 in product((0, 1), repeat=2):
            yield ((b1,), (b2,)), _bit_weight(b1, bias) * _bit_weight(b2, bias)

    def randomness_space():
        yield (0,), Fraction(1, 2)
        yield (1,), Fraction(1, 2)

    def store(msg):
        cells = derive_cells(MessagePair(*msg))
        if storage == "replicated":
            full = (msg[0][0], msg[1][0])
            return (full, full)
        return ((cells.x1[0], cells.x2[0]), (cells.y1[0], cells.y2[0]))

    def run(msg, theta, coin):
        # The audit checks the session the coded layer and criterion 2 run.
        t = run_session(MessagePair(*msg), theta, coin)
        return session_record(((t.q1, t.q2), (t.a1, t.a2), t.decoded))

    def side_information(msg, coin):
        return ((), _indicator(MessagePair(*msg), coin))

    name = "multiround"
    if storage == "replicated":
        name += "-replicated"
    if bias != Fraction(1, 2):
        name += f"-bias-{bias.numerator}-{bias.denominator}"
    return SchemeDescriptor(
        name=name,
        params=PirParameters(num_messages=2, num_databases=2, collusion=1, rounds=2),
        message_space=message_space,
        randomness_space=randomness_space,
        store=store,
        run=run,
        side_information=side_information,
        coded=CodedLayer(bias) if storage == "split" else None,
    )
