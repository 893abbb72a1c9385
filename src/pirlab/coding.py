"""Lossless coding for protocol streams.

Two coders live here:

* an integer arithmetic coder driven by an exact symbol model, used to
  squeeze database answer streams down to their entropy, and
* a random-binning coder for DB2's storage: a block of (y1, y2) cell pairs
  is hashed to a short bin index at store time, and reconstructed at query
  time by searching the candidates consistent with the indicator side
  information for the unique one that lands in the bin.

Stream framing (stable interop format): a coded stream is

    [u64 BE: symbol count][u64 BE: payload bit count][payload bytes]

with payload bits packed big endian (first bit = most significant bit of
the first byte) and zero padding to a byte boundary.
"""

from __future__ import annotations

import math
import random
import struct
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, product, repeat
from numbers import Real
from operator import getitem, xor

from .seeds import derive_seed

_STATE_BITS = 32
_RANGE = 1 << _STATE_BITS
_HALF = _RANGE >> 1
_QUARTER = _HALF >> 1
_THREE_QUARTERS = _HALF | _QUARTER
_HEADER = struct.Struct(">QQ")
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_BITS = bytes.maketrans(b"01", b"\0\1")
_INITIAL = (0, _RANGE, 0)
_FLOAT_TOTAL = 1 << 21  # models below this total code on binary64 state (see _state_type)


@dataclass(frozen=True)
class SourceModel:
    """Finite alphabet with exact symbol probabilities (all positive, sum 1).

    When coding any one symbol from the coder's initial state returns it to
    that state, the arithmetic coder is a prefix code: a stream is its
    symbols' codewords joined. Such a model keeps those codewords (the
    dyadic, aligned models; Shannon–Fano–Elias), and the coder writes and
    reads them directly, bit for bit what the coding loop produces.
    """

    alphabet: tuple[Hashable, ...]
    probabilities: Mapping[Hashable, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        probs = {s: Fraction(p) for s, p in dict(self.probabilities).items()}
        object.__setattr__(self, "probabilities", probs)
        if set(probs) != set(self.alphabet):
            raise ValueError("probabilities must cover exactly the alphabet")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")
        if any(p <= 0 for p in probs.values()):
            raise ValueError("all probabilities must be positive")
        if sum(probs.values()) != 1:
            raise ValueError("probabilities must sum to exactly 1")
        denominator = math.lcm(*(p.denominator for p in probs.values()))
        if denominator >= _QUARTER:
            raise ValueError("probability denominators too large for the coder state")
        frequencies = [probs[s].numerator * (denominator // probs[s].denominator)
                       for s in self.alphabet]
        cumulative = [0]
        for f in frequencies:
            cumulative.append(cumulative[-1] + f)
        object.__setattr__(self, "_cumulative", tuple(cumulative))
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.alphabet)})
        codewords = {}
        for symbol in self.alphabet:
            bits, _, state = _arithmetic_bits((symbol,), self)
            if state != _INITIAL:
                codewords = None
                break
            codewords[symbol] = bits.translate(_DIGITS).decode()
        object.__setattr__(self, "_codewords", codewords)

    @cached_property
    def _byte_table(self) -> list:
        """The prefix code's decoder, built on the first decode: ``table[state][byte]`` is the
        symbols the byte completes and the next state, an unfinished codeword (the empty one first)."""
        symbol_of = {word: s for s, word in self._codewords.items()}
        if "" in symbol_of:  # one symbol, of probability 1, coded in no bits
            return [[((), 0)] * 256]
        index = {state: i for i, state in enumerate(sorted({w[:n] for w in symbol_of for n in range(len(w))}))}

        def step(word, byte):
            symbols = []
            for bit in format(byte, "08b"):
                word += bit
                if word in symbol_of:
                    symbols, word = symbols + [symbol_of[word]], ""
            return tuple(symbols), index[word]

        return [[step(state, byte) for byte in range(256)] for state in index]

    @classmethod
    def bernoulli(cls, p_one: Fraction) -> "SourceModel":
        p_one = Fraction(p_one)
        return cls((0, 1), {0: 1 - p_one, 1: p_one})


def _outside_alphabet(symbols: Sequence[Hashable], table: Mapping) -> ValueError:
    """The error for the first of ``symbols`` that ``table`` does not hold."""
    for symbol in symbols:
        try:
            table[symbol]
        except (KeyError, TypeError):
            return ValueError(f"symbol {symbol!r} outside the model alphabet")


def _state_type(total: int) -> type:
    """The number type of the coding loops' state and cumulative counts:
    float below a model total of ``2**21`` (the a1 and a2 answer models),
    else int (the a1 model at bias 1/1500). Every value the loops form is an
    integer. The largest is a span of at most ``2**32`` times a cumulative
    count other than the total, at most ``2**32 * (total - 1)``. The rest
    are below ``2**33``: a cut is at most the span, ``low + span`` at most
    ``2**32``, the decoder's ``v = code - low`` below the span, and so
    ``low + low``, ``span + span`` and ``v + v`` plus a code bit below
    ``2**33``. Below that total all are below ``2**53``, where binary64
    ``+``, ``-``, ``*``, ``//`` and comparisons are exact, and the only ints
    that enter the float arithmetic are code bits, 0 or 1. So both types
    code the same bits and decode the same symbols.
    """
    return float if total < _FLOAT_TOTAL else int


def _arithmetic_bits(symbols: Sequence[Hashable], model: SourceModel) -> tuple[bytearray, int, tuple[int, int, int]]:
    """The Witten–Neal–Cleary coding loop from the initial state, on
    ``(low, span)``: the interval is ``[low, low + span)``.

    Returns the settled code bits, one per byte, the symbol count and the
    final (low, span, pending) state. The closing bit is the caller's. The
    first symbol keeps ``low`` and the last keeps ``low + span``. An
    interval wider than the half fits in no half and no middle half, so a
    symbol that leaves ``span > half`` costs one comparison. Otherwise
    renormalisation compares the interval with the half and quarter points,
    each once: below or above the half a bit settles, within the middle half
    one more is pending, and an interval that straddles the half otherwise
    needs none. At ``span == half`` it still runs: ``[0, half)`` settles a
    0. The numbers are ``_state_type``'s, so the bits, and so the stream
    bytes and framing, are the int loop's.
    """
    number = _state_type(model._cumulative[-1])
    cumulative = tuple(map(number, model._cumulative))
    first, total = cumulative[1], cumulative[-1]
    last = len(cumulative) - 2
    half, quarter, three_quarters = map(number, (_HALF, _QUARTER, _THREE_QUARTERS))
    out = bytearray()
    append = out.append
    low, span, pending = number(0), number(_RANGE), 0
    try:
        for i in map(model._index.__getitem__, symbols):
            if i:
                cut = span * cumulative[i] // total
                low += cut
                span = (span * cumulative[i + 1] // total if i != last else span) - cut
            else:
                span = span * first // total
            while span <= half:
                if low + span <= half:
                    append(0)
                    if pending:
                        out += b"\1" * pending
                        pending = 0
                elif low >= half:
                    append(1)
                    if pending:
                        out += b"\0" * pending
                        pending = 0
                    low -= half
                elif low >= quarter and low + span <= three_quarters:
                    pending += 1
                    low -= quarter
                else:
                    break
                low += low
                span += span
    except (KeyError, TypeError):
        raise _outside_alphabet(symbols, model._index) from None
    return out, len(symbols), (int(low), int(span), pending)


def entropy_encode(symbols: Sequence[Hashable], model: SourceModel) -> bytes:
    """Arithmetic-code ``symbols`` under ``model`` into a framed stream."""
    codewords = model._codewords
    if codewords is None:
        bits, count, _ = _arithmetic_bits(symbols, model)
        digits = bits.translate(_DIGITS).decode()
    else:
        # str.join: bytes.join would hold a buffer view of every codeword.
        try:
            digits = "".join(map(codewords.__getitem__, symbols))
        except (KeyError, TypeError):
            raise _outside_alphabet(symbols, codewords) from None
        count = len(symbols)
    if count:
        digits += "1"
    # The leading "0" keeps int() defined for an empty payload.
    padded = "0" + digits + "0" * (-len(digits) % 8)
    return _HEADER.pack(count, len(digits)) + int(padded, 2).to_bytes(len(padded) // 8, "big")


def _parse_frame(data: bytes) -> tuple[int, int, bytes]:
    if len(data) < _HEADER.size:
        raise ValueError("truncated stream: missing header")
    count, bit_count = _HEADER.unpack_from(data)
    payload = data[_HEADER.size:]
    if len(payload) != (bit_count + 7) // 8:
        raise ValueError("truncated or corrupt stream: payload length mismatch")
    if (count == 0) != (bit_count == 0):
        raise ValueError(f"corrupt stream: {count} symbols in {bit_count} payload bits")
    if payload and payload[-1] & ((1 << (-bit_count % 8)) - 1):
        raise ValueError("corrupt stream: nonzero padding bits")
    return count, bit_count, payload


def stream_payload_bits(data: bytes) -> int:
    """Number of code bits in a framed stream (framing header excluded)."""
    return _parse_frame(data)[1]


def entropy_decode(data: bytes, model: SourceModel, count: int) -> list:
    """Exact inverse of :func:`entropy_encode` for the same model and count."""
    frame_count, bit_count, payload = _parse_frame(data)
    if count != frame_count:
        raise ValueError(f"count mismatch: stream holds {frame_count} symbols, asked for {count}")
    if model._codewords is None:
        return _arithmetic_decode(payload, model, count)
    table, state, out = model._byte_table, 0, []
    # Zeros past the payload finish a cut codeword, then parse as the first symbol's.
    for byte in payload + bytes(_STATE_BITS // 8):
        symbols, state = table[state][byte]
        out += symbols
    del out[count:]
    out += [model.alphabet[0]] * (count - len(out))
    return out


def _arithmetic_decode(payload: bytes, model: SourceModel, count: int) -> list:
    """The Witten–Neal–Cleary decoding loop over a frame's payload, on the
    encoder's ``(low, span)`` state and ``v = code - low``.

    The symbol is the number of cuts ``span * cumulative[s] // total``
    (s >= 1) at or below ``v``; the last one passed is added to ``low`` and
    taken from ``v``, and the span runs from it to the first cut not reached
    (or to the span, past the last cut). The loop writes symbol indices,
    mapped to the alphabet once at the end. Renormalisation is the
    encoder's, with its one-comparison skip, and doubles ``v`` and reads one
    code bit into it. The numbers are ``_state_type``'s, so the symbols
    decoded from any frame are the int loop's.
    """
    number = _state_type(model._cumulative[-1])
    cumulative = tuple(map(number, model._cumulative))
    first, rest, total = cumulative[1], cumulative[2:-1], cumulative[-1]
    half, quarter, three_quarters = map(number, (_HALF, _QUARTER, _THREE_QUARTERS))
    # One code bit per byte after the first _STATE_BITS. Padding bits are
    # zero, and reads past the payload see zeros too (the decoder's lookahead).
    head = _STATE_BITS // 8
    v = number(int.from_bytes(payload[:head].ljust(head, b"\0"), "big"))
    tail = payload[head:]
    bits = format(int.from_bytes(tail, "big"), f"0{8 * len(tail)}b").encode().translate(_BITS)
    read = chain(bits, repeat(0)).__next__
    low, span = number(0), number(_RANGE)
    out = []
    append = out.append
    for _ in range(count):
        cut = span * first // total
        if v < cut:
            span = cut
            append(0)
        else:
            s = 1
            for top in rest:
                top = span * top // total
                if v < top:
                    break
                cut = top
                s += 1
            else:
                top = span
            low += cut
            v -= cut
            span = top - cut
            append(s)
        while span <= half:
            if low + span <= half:
                pass  # a 0 settles: nothing to subtract
            elif low >= half:
                low -= half
            elif low >= quarter and low + span <= three_quarters:
                low -= quarter
            else:
                break
            low += low
            span += span
            v += v + read()
    alphabet = model.alphabet
    # In place, so that no second list of count items is built; indices
    # already are the symbols of an alphabet 0, 1, ... of ints.
    if alphabet != tuple(range(len(alphabet))) or any(type(symbol) is not int for symbol in alphabet):
        for k, i in enumerate(out):
            out[k] = alphabet[i]
    return out


# --- Random binning with decoder side information -------------------------

Y_PAIRS = ((0, 0), (1, 0), (0, 1))
_PAIR_TO_TRIT = {pair: i for i, pair in enumerate(Y_PAIRS)}


# The binning rate target per position: DB2's H(y1, y2 | u) for fair
# messages and a fair coin. u = 1 with probability 3/4, and then (y1, y2) is
# uniform over Y_PAIRS. Criterion 6c checks it against the audited storage.
_SIDE_INFO_BITS = 0.75 * math.log2(3)


def check_ints(**values) -> None:
    """Refuse, by keyword name, any value that is not an int; a bool is refused too."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")


def check_codec(name: str, value) -> None:
    """Refuse, by name, a value that is not a ``CodecConfig``."""
    if not isinstance(value, CodecConfig):
        raise ValueError(f"{name} must be a CodecConfig, got {value!r}")


@dataclass(frozen=True)
class CodecConfig:
    """Binning parameters: block length, per-symbol rate margin, hash seed."""

    block_length: int = 16
    rate_margin: float = 0.15
    seed: int = 0

    def __post_init__(self):
        check_ints(block_length=self.block_length, seed=self.seed)
        if self.block_length < 1:
            raise ValueError("block_length must be at least 1")
        margin = self.rate_margin
        if isinstance(margin, bool) or not (isinstance(margin, Real) and math.isfinite(margin) and margin > 0):
            raise ValueError(f"rate_margin must be finite and positive, got {margin!r}")
        # The bin size and the mask table depend only on these fields, so
        # they are built once here. The mask table is a position-wise
        # tabulation hash: XOR of one uniform mask per position and symbol.
        # Any two distinct blocks collide with probability 2**-bits.
        bits = math.ceil(self.block_length * (_SIDE_INFO_BITS + margin))
        rng = random.Random(derive_seed(self.seed, "sw-mask", self.block_length, bits))
        # The encoder reads the same masks by pair, one {pair: mask} table per position.
        masks = tuple(tuple(rng.getrandbits(bits) for _ in range(3)) for _ in range(self.block_length))
        object.__setattr__(self, "_bin_bits", bits)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_pair_masks", tuple(dict(zip(Y_PAIRS, row)) for row in masks))


@dataclass(frozen=True)
class SwBin:
    """Output of the binning encoder: a bin index of ``bin_bits`` bits."""

    bin_index: int
    bin_bits: int

    def __post_init__(self):
        check_ints(bin_index=self.bin_index, bin_bits=self.bin_bits)
        # By bit length, so that a huge bin_bits builds no 2**bin_bits.
        if self.bin_index < 0 or self.bin_index.bit_length() > self.bin_bits:
            raise ValueError("bin_index out of range for bin_bits")


def sw_bin_bits(cfg: CodecConfig) -> int:
    """ceil(n * (H(y1, y2 | u) + margin)) bits per block."""
    return cfg._bin_bits


def _to_trits(y_block: Sequence[tuple[int, int]], cfg: CodecConfig) -> list[int]:
    check_codec("cfg", cfg)
    if not isinstance(y_block, Sequence):
        raise ValueError(f"block must be a sequence, got {y_block!r}")
    if len(y_block) != cfg.block_length:
        raise ValueError(f"block must have length {cfg.block_length}, got {len(y_block)}")
    try:
        return [_PAIR_TO_TRIT[tuple(pair)] for pair in y_block]
    except (KeyError, TypeError):  # a pair outside Y_PAIRS, not iterable or unhashable
        raise ValueError("block contains a pair outside {(0,0), (1,0), (0,1)}") from None


def _masked_bin(index: int, cfg: CodecConfig) -> SwBin:
    """``SwBin(index, bits)`` built without re-running its check: an XOR of
    masks below ``2**bits`` is in range by construction. The fields are set
    as ``__init__`` sets them; writing through ``__dict__`` would give every
    bin a dict of its own, 64 bytes more."""
    sw_bin = object.__new__(SwBin)
    object.__setattr__(sw_bin, "bin_index", index)
    object.__setattr__(sw_bin, "bin_bits", cfg._bin_bits)
    return sw_bin


def sw_encode(y_block: Sequence[tuple[int, int]], cfg: CodecConfig) -> SwBin:
    """Hash a block of cell pairs into its bin. The encoder never sees u."""
    if isinstance(cfg, CodecConfig) and isinstance(y_block, Sequence) and len(y_block) == cfg.block_length:
        try:
            return _masked_bin(reduce(xor, map(getitem, cfg._pair_masks, y_block)), cfg)
        except (KeyError, TypeError):
            pass
    # A pair that no table holds as a key (a list, say), or a block that _to_trits refuses.
    pairs = map(Y_PAIRS.__getitem__, _to_trits(y_block, cfg))
    return _masked_bin(reduce(xor, map(getitem, cfg._pair_masks, pairs)), cfg)


def _check_decoder_input(sw_bin: SwBin, u_block: Sequence[int], cfg: CodecConfig) -> list[int]:
    if not isinstance(sw_bin, SwBin):
        raise ValueError(f"bin must be a SwBin, got {sw_bin!r}")
    check_codec("cfg", cfg)
    try:
        u_block = list(u_block)
    except TypeError:
        raise ValueError(f"side information must be a sequence, got {u_block!r}") from None
    if len(u_block) != cfg.block_length:
        raise ValueError(f"side information must have length {cfg.block_length}")
    if any(u not in (0, 1) for u in u_block):
        raise ValueError("side information must contain only bits")
    if sw_bin.bin_bits != cfg._bin_bits:
        raise ValueError(f"bin carries {sw_bin.bin_bits} bits, config implies {cfg._bin_bits}")
    return u_block


def sw_decode(
    sw_bin: SwBin, u_block: Sequence[int], cfg: CodecConfig
) -> tuple[tuple[int, int], ...] | None:
    """Reconstruct the unique candidate block in the bin, or None on ambiguity.

    Candidates are every block consistent with the side information: the
    pair is pinned to (0, 0) where u = 0 and ranges over three values where
    u = 1. The search is meet-in-the-middle over the XOR-decomposable hash,
    which returns exactly what a plain scan over all 3**k candidates would
    (see ``sw_decode_reference``), in O(3**(k/2)) time. A None result is the
    coder's decode failure: two or more candidates landed in the bin.
    """
    u_block = _check_decoder_input(sw_bin, u_block, cfg)
    masks = cfg._masks
    fixed = 0
    free: list[int] = []
    for position, u in enumerate(u_block):
        if u == 0:
            fixed ^= masks[position][0]
        else:
            free.append(position)

    left, right = free[: len(free) // 2], free[len(free) // 2 :]
    target = sw_bin.bin_index ^ fixed

    left_map: dict[int, list] = {}
    for combo in product((0, 1, 2), repeat=len(left)):
        h = 0
        for position, trit in zip(left, combo):
            h ^= masks[position][trit]
        entry = left_map.get(h)
        if entry is None:
            left_map[h] = [1, combo]
        else:
            entry[0] += 1

    matches = 0
    found = None
    for combo in product((0, 1, 2), repeat=len(right)):
        h = 0
        for position, trit in zip(right, combo):
            h ^= masks[position][trit]
        entry = left_map.get(target ^ h)
        if entry is not None:
            matches += entry[0]
            if found is None:
                found = (entry[1], combo)
            if matches > 1:
                return None
    if matches != 1:
        return None

    pairs = [(0, 0)] * cfg.block_length
    for position, trit in zip(free, found[0] + found[1]):
        pairs[position] = Y_PAIRS[trit]
    return tuple(pairs)


def sw_decode_reference(
    sw_bin: SwBin, u_block: Sequence[int], cfg: CodecConfig
) -> tuple[tuple[int, int], ...] | None:
    """Plain scan over every side-information-consistent candidate, each
    hashed by ``sw_encode`` itself.

    Exponential in the number of u = 1 positions; used as the independent
    oracle against the meet-in-the-middle decoder on small blocks.
    """
    u_block = _check_decoder_input(sw_bin, u_block, cfg)
    found = None
    for candidate in product(*(Y_PAIRS if u else Y_PAIRS[:1] for u in u_block)):
        if sw_encode(candidate, cfg) == sw_bin:
            if found is not None:
                return None
            found = candidate
    return found
