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

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .capacity import PirParameters
from .coding import CodecConfig, SourceModel, entropy_encode, stream_payload_bits, sw_bin_bits, sw_decode, sw_encode
from .descriptor import SchemeDescriptor, SessionRecord
from .seeds import derive_seed

ASK_X1 = "x1"
ASK_X2 = "x2"
ASK_Y1 = "y1"
ASK_Y2 = "y2"
NO_QUERY = None  # DB2 is not contacted at this position

Bits = tuple


def _check_bits(name: str, bits: Sequence[int]) -> tuple[int, ...]:
    bits = tuple(bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"{name} must contain only bits")
    return bits


@dataclass(frozen=True)
class MessagePair:
    """Two equal-length bit sequences."""

    w1: tuple[int, ...]
    w2: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "w1", _check_bits("w1", self.w1))
        object.__setattr__(self, "w2", _check_bits("w2", self.w2))
        if len(self.w1) != len(self.w2):
            raise ValueError("messages must have equal length")
        if not self.w1:
            raise ValueError("messages must be non-empty")

    @property
    def length(self) -> int:
        return len(self.w1)


@dataclass(frozen=True)
class CellTable:
    """Per-position stored cells; the indicator u is filled once a coin exists.

    Exactly one of (x1, x2, y1, y2) is 1 at every position, and u = 0 forces
    (y1, y2) = (0, 0).
    """

    x1: tuple[int, ...]
    x2: tuple[int, ...]
    y1: tuple[int, ...]
    y2: tuple[int, ...]
    u: tuple[int, ...] | None = None

    def __post_init__(self):
        for cells in zip(self.x1, self.x2, self.y1, self.y2):
            if sum(cells) != 1:
                raise ValueError(f"cells must partition the position, got {cells}")
        if self.u is not None:
            object.__setattr__(self, "u", _check_bits("u", self.u))
            if len(self.u) != len(self.x1):
                raise ValueError("u must match the cell length")
            for flag, a, b in zip(self.u, self.y1, self.y2):
                if flag == 0 and (a, b) != (0, 0):
                    raise ValueError("u = 0 requires (y1, y2) = (0, 0)")

    @property
    def length(self) -> int:
        return len(self.x1)


@dataclass(frozen=True)
class Transcript:
    """One retrieval session: queries, answers and the decoded output.

    ``a2`` carries ``None`` at positions where DB2 was not contacted.
    """

    theta: int
    coin: tuple[int, ...]
    q1: tuple[str, ...]
    a1: tuple[int, ...]
    q2: tuple[str | None, ...]
    a2: tuple[int | None, ...]
    decoded: tuple[int, ...] | None = None


def derive_cells(m: MessagePair, coin: Sequence[int] | None = None) -> CellTable:
    """Evaluate the four cell conjunctions position-wise.

    With ``coin`` given, also fills the indicator: u = 0 exactly where the
    coin-selected x cell equals 1 (no round-2 query needed there).
    """
    x1 = tuple(a & b for a, b in zip(m.w1, m.w2))
    x2 = tuple((1 - a) & (1 - b) for a, b in zip(m.w1, m.w2))
    y1 = tuple(a & (1 - b) for a, b in zip(m.w1, m.w2))
    y2 = tuple((1 - a) & b for a, b in zip(m.w1, m.w2))
    u = None
    if coin is not None:
        coin = _check_bits("coin", coin)
        if len(coin) != m.length:
            raise ValueError("coin length must match message length")
        u = tuple(
            0 if (c == 0 and xa == 1) or (c == 1 and xb == 1) else 1
            for c, xa, xb in zip(coin, x1, x2)
        )
    return CellTable(x1, x2, y1, y2, u)


def round1(coin: Sequence[int], cells: CellTable) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """DB1 round: query x1 on coin 0, x2 on coin 1; answer the stored cell."""
    coin = _check_bits("coin", coin)
    if len(coin) != cells.length:
        raise ValueError("coin length must match cell length")
    query = tuple(ASK_X1 if c == 0 else ASK_X2 for c in coin)
    answers = tuple(
        xa if q == ASK_X1 else xb for q, xa, xb in zip(query, cells.x1, cells.x2)
    )
    return query, answers


def round2_query(
    theta: int, q1: Sequence[str], a1: Sequence[int]
) -> tuple[str | None, ...]:
    """Pick the DB2 cell that reveals the desired bit; skip when a1 = 1."""
    if theta not in (1, 2):
        raise ValueError("theta must be 1 or 2")
    if len(q1) != len(a1):
        raise ValueError("q1 and a1 must have equal length")
    out = []
    for q, a in zip(q1, a1):
        if a == 1:
            out.append(NO_QUERY)
        elif q == ASK_X1:
            out.append(ASK_Y1 if theta == 1 else ASK_Y2)
        else:
            out.append(ASK_Y2 if theta == 1 else ASK_Y1)
    return tuple(out)


def db2_answer(
    q2: Sequence[str | None], y1: Sequence[int], y2: Sequence[int]
) -> tuple[int | None, ...]:
    """Answer the requested y cell; emit nothing (None) at skipped positions."""
    if not (len(q2) == len(y1) == len(y2)):
        raise ValueError("q2 and cell sequences must have equal length")
    return tuple(
        None if q is NO_QUERY else (a if q == ASK_Y1 else b)
        for q, a, b in zip(q2, y1, y2)
    )


def decode(theta: int, t: Transcript) -> tuple[int, ...]:
    """Recover the desired message bits from a complete transcript.

    a1 = 1 pins both bits. Otherwise the fetched y cell either equals the
    desired bit (asked x1) or its complement (asked x2).
    """
    if theta not in (1, 2):
        raise ValueError("theta must be 1 or 2")
    if not (len(t.q1) == len(t.a1) == len(t.q2) == len(t.a2)):
        raise ValueError("incomplete transcript")
    out = []
    for q1, a1, q2, a2 in zip(t.q1, t.a1, t.q2, t.a2):
        if a1 == 1:
            out.append(1 if q1 == ASK_X1 else 0)
            continue
        if q2 is NO_QUERY or a2 is None:
            raise ValueError("incomplete transcript: missing round-2 answer")
        out.append(a2 if q1 == ASK_X1 else 1 - a2)
    return tuple(out)


def run_session(m: MessagePair, theta: int, coin: Sequence[int]) -> Transcript:
    """Play one full session; the decoded output always equals the desired message."""
    cells = derive_cells(m, coin)
    q1, a1 = round1(coin, cells)
    q2 = round2_query(theta, q1, a1)
    a2 = db2_answer(q2, cells.y1, cells.y2)
    t = Transcript(theta=theta, coin=tuple(coin), q1=q1, a1=a1, q2=q2, a2=a2)
    return dataclasses.replace(t, decoded=decode(theta, t))


def _draw(rng: random.Random, bias: float, n: int) -> tuple[MessagePair, tuple[int, ...]]:
    """n positions: both messages' bits with the given bias, then a fair coin."""
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
    if blocks < 1:
        raise ValueError(f"blocks must be at least 1, got {blocks}")
    rng = random.Random(derive_seed(seed, "sw-failure", blocks))
    n = codec.block_length
    failures = 0
    for _ in range(blocks):
        cells = derive_cells(*_draw(rng, float(bias), n))
        pairs = tuple(zip(cells.y1, cells.y2))
        decoded = sw_decode(sw_encode(pairs, codec), cells.u, codec)
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

    def session(self, theta: int, L: int, seed: int, models: tuple[SourceModel, SourceModel]) -> dict:
        """One L-position session with its answer streams coded under ``models``."""
        message, coin = _draw(random.Random(seed), float(self.bias), L)
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
        cells = derive_cells(_draw(random.Random(seed), float(self.bias), L)[0])
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
    bias = Fraction(bias)
    if not (0 < bias < 1):
        raise ValueError("bias must be strictly between 0 and 1")

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
        t = run_session(MessagePair(*msg), theta, coin)
        download = 1 + sum(1 for a in t.a2 if a is not None)
        return SessionRecord(
            queries=(t.q1, t.q2),
            answers=(t.a1, t.a2),
            decoded=t.decoded,
            download_bits=download,
        )

    def side_information(msg, coin):
        cells = derive_cells(MessagePair(*msg), coin)
        return ((), cells.u)

    name = "multiround"
    if storage == "replicated":
        name += "-replicated"
    if bias != Fraction(1, 2):
        name += f"-bias-{bias.numerator}-{bias.denominator}"
    return SchemeDescriptor(
        name=name,
        params=PirParameters(num_messages=2, num_databases=2, collusion=1, rounds=2),
        block_length=1,
        message_space=message_space,
        randomness_space=randomness_space,
        store=store,
        run=run,
        side_information=side_information,
        coded=CodedLayer(bias) if storage == "split" else None,
    )
