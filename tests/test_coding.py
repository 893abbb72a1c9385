"""Entropy coder round-trips, rate bands, and binning coder behavior."""

import copy
import hashlib
import itertools
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pirlab import coding, reproduce
from pirlab.coding import (
    CodecConfig,
    SourceModel,
    SwBin,
    Y_PAIRS,
    entropy_decode,
    entropy_encode,
    stream_payload_bits,
    sw_bin_bits,
    sw_decode,
    sw_decode_reference,
    sw_encode,
)
from pirlab.audit import answer_stream_models, measure_overhead
from pirlab.dist import ExactDist, entropy
from pirlab.multiround import multiround_descriptor, sw_failure_rate

F = Fraction

BERN_QUARTER = SourceModel.bernoulli(F(1, 4))
BERN_THIRD = SourceModel.bernoulli(F(1, 3))
FAIR = SourceModel.bernoulli(F(1, 2))
TERNARY = SourceModel(("a", "b", "c"), {"a": F(1, 2), "b": F(1, 3), "c": F(1, 6)})
# The likely middle symbol keeps the coder interval straddling the midpoint,
# so each repeat defers one more output bit.
CENTERED = SourceModel(("a", "b", "c"), {"a": F(1, 4), "b": F(1, 2), "c": F(1, 4)})
# The multiround scheme's DB1 cell pair (x1, x2) under fair messages.
CELLS = SourceModel(((0, 0), (0, 1), (1, 0)), {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 0): F(1, 4)})
# DB2's audited ideal storage per position, H(y1, y2 | u): the bin target.
AUDITED_DB2_BITS = measure_overhead(multiround_descriptor())["ideal_bits_per_block"][1]


def biased_bits():
    rng = random.Random(20240)
    return [1 if rng.random() < 0.25 else 0 for _ in range(100_000)]


def third_bits():
    rng = random.Random(20244)
    return [int(rng.randrange(3) == 0) for _ in range(100_000)]


def ternary_symbols():
    rng = random.Random(7)
    return rng.choices(("a", "b", "c"), weights=(3, 2, 1), k=500)


def fair_bits():
    rng = random.Random(20242)
    return [rng.getrandbits(1) for _ in range(1 << 12)]


def cell_symbols():
    rng = random.Random(20243)
    pairs = ((rng.getrandbits(1), rng.getrandbits(1)) for _ in range(1 << 12))
    return [(a & b, (1 - a) & (1 - b)) for a, b in pairs]


def pending_runs():
    """Runs of up to 79 deferred bits, longer than the 32-bit coder state."""
    rng = random.Random(5)
    symbols = []
    for _ in range(200):
        symbols.extend(["b"] * rng.randrange(1, 80))
        symbols.append(rng.choice("ac"))
    return symbols


class TestSourceModel:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SourceModel((0, 1), {0: F(1, 2), 1: F(1, 4)})

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            SourceModel((0, 1), {0: F(1), 1: F(0)})

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SourceModel((0, 1), {0: F(1, 2), 2: F(1, 2)})

    def test_entropy(self):
        assert entropy(ExactDist(BERN_QUARTER.probabilities)) == pytest.approx(
            2 - 0.75 * math.log2(3), abs=1e-9
        )


class TestEntropyCoder:
    def test_empty_sequence_empty_payload(self):
        stream = entropy_encode([], BERN_QUARTER)
        assert stream_payload_bits(stream) == 0
        assert entropy_decode(stream, BERN_QUARTER, 0) == []

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValueError, match="alphabet"):
            entropy_encode([2], BERN_QUARTER)
        with pytest.raises(ValueError, match=r"symbol \[0\] outside the model alphabet"):
            entropy_encode([0, 1, [0]], BERN_QUARTER)

    def test_all_zero_run_compresses(self):
        stream = entropy_encode([0] * 100, BERN_QUARTER)
        assert entropy_decode(stream, BERN_QUARTER, 100) == [0] * 100
        assert stream_payload_bits(stream) < 100

    def test_count_mismatch_rejected(self):
        stream = entropy_encode([0, 1, 0], BERN_QUARTER)
        with pytest.raises(ValueError, match="count mismatch"):
            entropy_decode(stream, BERN_QUARTER, 2)

    def test_truncated_stream_rejected(self):
        stream = entropy_encode([1, 0] * 50, BERN_QUARTER)
        with pytest.raises(ValueError, match="truncated"):
            entropy_decode(stream[:-1], BERN_QUARTER, 100)
        with pytest.raises(ValueError, match="header"):
            entropy_decode(stream[:7], BERN_QUARTER, 100)

    def test_symbols_without_payload_rejected(self):
        with pytest.raises(ValueError, match="corrupt"):
            entropy_decode(struct.pack(">QQ", 5, 0), BERN_QUARTER, 5)

    def test_payload_without_symbols_rejected(self):
        with pytest.raises(ValueError, match="corrupt"):
            entropy_decode(struct.pack(">QQ", 0, 3) + b"\xa0", BERN_QUARTER, 0)

    def test_nonzero_padding_rejected(self):
        stream = entropy_encode([1, 0, 0, 1, 0], BERN_QUARTER)
        assert stream_payload_bits(stream) % 8
        corrupted = stream[:-1] + bytes((stream[-1] | 1,))
        with pytest.raises(ValueError, match="padding"):
            entropy_decode(corrupted, BERN_QUARTER, 5)

    def test_symbol_count_in_frame(self):
        stream = entropy_encode([1, 1, 0], BERN_THIRD)
        assert struct.unpack_from(">Q", stream)[0] == 3

    def test_rate_band_biased_source(self):
        n = 100_000
        symbols = biased_bits()
        stream = entropy_encode(symbols, BERN_QUARTER)
        per_symbol = stream_payload_bits(stream) / n
        h = entropy(ExactDist(BERN_QUARTER.probabilities))
        assert h - 0.01 <= per_symbol <= h + 0.01
        assert entropy_decode(stream, BERN_QUARTER, n) == symbols

    def test_rate_band_fair_source(self):
        rng = random.Random(20241)
        n = 100_000
        symbols = [rng.getrandbits(1) for _ in range(n)]
        per_symbol = stream_payload_bits(entropy_encode(symbols, FAIR)) / n
        assert 1 - 0.01 <= per_symbol <= 1 + 0.01

    def test_ternary_alphabet_round_trip(self):
        symbols = ternary_symbols()
        stream = entropy_encode(symbols, TERNARY)
        assert entropy_decode(stream, TERNARY, 500) == symbols

    def test_long_pending_runs_round_trip(self):
        symbols = pending_runs()
        stream = entropy_encode(symbols, CENTERED)
        assert entropy_decode(stream, CENTERED, len(symbols)) == symbols
        # A run left pending at the end is never written: the decoder reads
        # a thousand lookahead zeros past a one-bit payload.
        stream = entropy_encode(["b"] * 1000, CENTERED)
        assert stream_payload_bits(stream) == 1
        assert entropy_decode(stream, CENTERED, 1000) == ["b"] * 1000

    # SHA-256 of framed streams recorded before the coder loops were
    # rewritten (fair and multiround-cells: before the prefix-code path was
    # added); the framing is a stable interop format.
    @pytest.mark.parametrize(
        "symbols, model, digest",
        [
            (biased_bits, BERN_QUARTER, "99ee4e3ec4158c65a0b94eb24d66279525809f89e4434cb443e5790969f9f6b7"),
            (third_bits, BERN_THIRD, "61c13cf3f87529602b9bd2c1363cf03f72eb6b10406f3df940001f8e60c697dd"),
            (ternary_symbols, TERNARY, "6a2ef8d5c6f6cb9c0db1a58fe8f79d512b6279935c71cea65435ab7ce45d1c8e"),
            (pending_runs, CENTERED, "a3b7611c34926d244671f4af88d69eda235324f492c7d6eae96b7abfddb237e8"),
            (fair_bits, FAIR, "a9cdfd64dd23a4428b6e8616219c872d6beaf96fa3691625a98147c14ecc67d2"),
            (cell_symbols, CELLS, "9854159e56c53f31f9a9900124f3563aaa1696a8f761c8642eb689ca4c6dc73b"),
        ],
        ids=["bernoulli-quarter", "bernoulli-third", "ternary", "pending-runs", "fair", "multiround-cells"],
    )
    def test_golden_stream(self, symbols, model, digest):
        stream = entropy_encode(symbols(), model)
        assert hashlib.sha256(stream).hexdigest() == digest

    def test_golden_decode_of_arbitrary_frames(self):
        # 200 seeded frames, each asked for one symbol fewer, as many and one
        # more than its header holds; reads past the payload see zeros, and
        # one padded frame in eight has a dirty padding bit. SHA-256 of the
        # outcomes recorded before the coder loops were rewritten.
        rng = random.Random(20245)
        outcomes = []
        for _ in range(200):
            count, bit_count = rng.randrange(81), rng.randrange(49)
            pad = -bit_count % 8
            payload = rng.getrandbits(bit_count) << pad | (pad > 0 and rng.randrange(8) == 0)
            frame = struct.pack(">QQ", count, bit_count) + payload.to_bytes((bit_count + pad) // 8, "big")
            for model in (BERN_QUARTER, BERN_THIRD, TERNARY, CENTERED):
                for asked in (count - 1, count, count + 1):
                    outcomes.append(outcome(entropy_decode, frame, model, max(asked, 0)))
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == "abdfdd88bc815baa4a38d0f050b270f0380a0236e5822cd9cae16752cd3084c0"


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from((0, 1)), max_size=200),
    st.integers(min_value=1, max_value=9),
)
def test_round_trip_any_bits_any_bernoulli(bits, numerator):
    model = SourceModel.bernoulli(F(numerator, 10))
    stream = entropy_encode(bits, model)
    assert entropy_decode(stream, model, len(bits)) == bits


def general_loop(model):
    """``model`` with its codewords dropped, so the coder runs its loops."""
    general = copy.copy(model)
    object.__setattr__(general, "_codewords", None)
    return general


@st.composite
def prefix_models(draw):
    """A dyadic model whose symbols, most likely first, tile [0, 1) with
    aligned intervals: the leaves of a random binary tree of 1-8 leaves."""
    depths = [0]
    for _ in range(draw(st.integers(0, 7))):
        depths.append(depths.pop(draw(st.integers(0, len(depths) - 1))) + 1)
        depths.append(depths[-1])
    depths.sort()
    alphabet = tuple(range(len(depths)))
    return SourceModel(alphabet, {s: F(1, 2**d) for s, d in zip(alphabet, depths)})


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as error:
        return f"ValueError: {error}"


class TestPrefixPath:
    def test_which_models_are_prefix_codes(self):
        assert CELLS._codewords == {(0, 0): "0", (0, 1): "10", (1, 0): "11"}
        assert FAIR._codewords == {0: "0", 1: "1"}
        # Not dyadic (a1 and a2 answer streams), or dyadic but not aligned.
        for model in (BERN_QUARTER, BERN_THIRD, TERNARY, CENTERED):
            assert model._codewords is None

    @settings(max_examples=200)
    @given(prefix_models(), st.data())
    def test_same_bytes_as_the_coding_loop(self, model, data):
        assert model._codewords is not None
        symbols = data.draw(st.lists(st.sampled_from(model.alphabet), max_size=60))
        stream = entropy_encode(symbols, model)
        assert stream == entropy_encode(symbols, general_loop(model))
        assert entropy_decode(stream, model, len(symbols)) == symbols

    @settings(max_examples=300)
    @given(
        prefix_models(),
        st.integers(0, 80),
        st.integers(0, 48),
        st.integers(0, 2**48 - 1),
        st.booleans(),
        st.integers(-1, 1),
    )
    def test_same_decode_of_any_frame(self, model, count, bit_count, bits, dirty, count_offset):
        # Any header over any payload: counts beyond the codewords present
        # read zeros past the end; ``dirty`` sets the last padding bit.
        pad = -bit_count % 8
        payload = (bits % 2**bit_count) << pad | (dirty and pad > 0)
        frame = struct.pack(">QQ", count, bit_count) + payload.to_bytes((bit_count + pad) // 8, "big")
        asked = max(count + count_offset, 0)
        assert outcome(entropy_decode, frame, model, asked) == outcome(
            entropy_decode, frame, general_loop(model), asked
        )

    def test_same_errors(self):
        for model in (FAIR, CELLS):
            symbols = list(model.alphabet) * 2
            stream = entropy_encode(symbols, model)
            assert stream_payload_bits(stream) % 8
            corrupted = stream[:-1] + bytes((stream[-1] | 1,))
            cases = [
                (entropy_encode, symbols + ["z"], model),
                (entropy_encode, symbols + [[0]], model),
                (entropy_decode, stream, model, len(symbols) + 1),
                (entropy_decode, corrupted, model, len(symbols)),
            ]
            for call, *args in cases:
                got = outcome(call, *args)
                assert got.startswith("ValueError")
                args[1] = general_loop(model)
                assert got == outcome(call, *args)


# Witten, Neal and Cleary, "Arithmetic coding for data compression" (CACM
# 1987), one bit per step, in shift-and-mask form: a bit settles when the top
# bits of low and high agree, and a bit is deferred when they read 01 and 10.
# Flipping the second bit and shifting out the top one subtracts the quarter
# point and doubles. The decoder finds the symbol from the scaled code value,
# as the paper does, rather than from cut points.
_TOP, _SECOND, _MASK = 1 << 31, 1 << 30, (1 << 32) - 1


def _reference_cumulative(model):
    total = math.lcm(*(p.denominator for p in model.probabilities.values()))
    cumulative = [0]
    for symbol in model.alphabet:
        cumulative.append(cumulative[-1] + model.probabilities[symbol] * total)
    return [int(c) for c in cumulative], total


def reference_encode(symbols, model):
    cumulative, total = _reference_cumulative(model)
    low, high, pending, out = 0, _MASK, 0, []
    for symbol in symbols:
        i = model.alphabet.index(symbol)
        span = high - low + 1
        low, high = low + span * cumulative[i] // total, low + span * cumulative[i + 1] // total - 1
        while True:
            if not (low ^ high) & _TOP:
                bit = low >> 31
                out += [bit] + [1 - bit] * pending
                pending = 0
            elif low & ~high & _SECOND:
                pending += 1
                low, high = low ^ _SECOND, high ^ _SECOND
            else:
                break
            low, high = (low << 1) & _MASK, ((high << 1) & _MASK) | 1
    if symbols:
        out.append(1)  # any point of the final interval; pending bits are left out
    payload = "".join(map(str, out)) + "0" * (-len(out) % 8)
    return struct.pack(">QQ", len(symbols), len(out)) + bytes(int(payload[k:k + 8], 2) for k in range(0, len(payload), 8))


def reference_decode(frame, model):
    """The symbols of a frame, as many as its header counts."""
    cumulative, total = _reference_cumulative(model)
    count, _, payload = coding._parse_frame(frame)
    bits = [int(b) for b in format(int.from_bytes(payload, "big"), f"0{8 * len(payload)}b")]
    # Reads past the payload see zeros. A symbol reads at most 32 bits: each
    # read doubles the interval, and one wider than the half needs no more.
    bits += [0] * (32 + 32 * count)
    code, pos = int("".join(map(str, bits[:32])), 2), 32
    low, high, out = 0, _MASK, []
    for _ in range(count):
        span = high - low + 1
        value = ((code - low + 1) * total - 1) // span
        i = max(k for k in range(len(model.alphabet)) if cumulative[k] <= value)
        out.append(model.alphabet[i])
        low, high = low + span * cumulative[i] // total, low + span * cumulative[i + 1] // total - 1
        while True:
            if (low ^ high) & _TOP:  # no bit settles
                if not low & ~high & _SECOND:
                    break
                low, high, code = low ^ _SECOND, high ^ _SECOND, code ^ _SECOND
            low, high = (low << 1) & _MASK, ((high << 1) & _MASK) | 1
            code = ((code << 1) & _MASK) | bits[pos]
            pos += 1
    return out


@st.composite
def coder_models(draw):
    """2-5 symbols with totals up to SourceModel's bound, below 2**30, drawn
    as often below 2**21 (the coder's float state) as at or above it (int
    state). Half of them are centred: one likely symbol in the middle (the
    last, for two symbols), whose runs keep the interval straddling the
    midpoint."""
    size = draw(st.integers(2, 5))
    total = draw(st.integers(size, 2**21 - 1) | st.integers(2**21, 2**30 - 1))
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=size - 1, max_size=size - 1)))
    else:
        side = max(total // 64, size)
        total = max(total, 2 * side)
        cuts = sorted(draw(st.sets(st.integers(1, side - 1), min_size=size // 2, max_size=size // 2)))
        cuts += sorted(total - c for c in draw(st.sets(
            st.integers(1, side - 1), min_size=(size - 1) - size // 2, max_size=(size - 1) - size // 2)))
    bounds = [0, *cuts, total]
    alphabet = tuple(f"s{k}" for k in range(size))
    return SourceModel(alphabet, {a: F(bounds[k + 1] - bounds[k], total) for k, a in enumerate(alphabet)})


class TestReferenceCoder:
    @settings(max_examples=200, deadline=None)
    @given(coder_models(), st.data())
    def test_same_bytes_as_the_reference(self, model, data):
        # Runs of one symbol: under a centred model, runs of the middle one
        # defer many bits.
        runs = data.draw(st.lists(st.tuples(st.sampled_from(model.alphabet), st.integers(1, 60)), max_size=30))
        symbols = [symbol for symbol, length in runs for _ in range(length)]
        general = general_loop(model)
        stream = entropy_encode(symbols, general)
        assert stream == reference_encode(symbols, model)
        assert entropy_decode(stream, general, len(symbols)) == symbols

    @settings(max_examples=300, deadline=None)
    @given(
        coder_models(),
        st.integers(0, 120),
        st.integers(0, 96),
        st.integers(0, 2**96 - 1),
        st.booleans(),
    )
    def test_same_decode_of_any_frame(self, model, count, bit_count, bits, dirty):
        pad = -bit_count % 8
        payload = (bits % 2**bit_count) << pad | (dirty and pad > 0)
        frame = struct.pack(">QQ", count, bit_count) + payload.to_bytes((bit_count + pad) // 8, "big")
        assert outcome(entropy_decode, frame, general_loop(model), count) == outcome(reference_decode, frame, model)

    def test_pinned_models_match_the_reference(self):
        for make, model in ((biased_bits, BERN_QUARTER), (third_bits, BERN_THIRD), (pending_runs, CENTERED)):
            symbols = make()[:20_000]
            stream = reference_encode(symbols, model)
            assert entropy_encode(symbols, model) == stream
            assert entropy_decode(stream, model, len(symbols)) == reference_decode(stream, model) == symbols

    @pytest.mark.parametrize("model", [
        *(SourceModel(("a", "b", "c"), {"a": F(1, total), "b": F(total // 2, total), "c": F(total - 1 - total // 2, total)})
          for total in (2**21 - 1, 2**21)),
        *(SourceModel.bernoulli(F(3, total)) for total in (2**21 - 1, 2**21)),
        *answer_stream_models(multiround_descriptor(bias=F(1, 1500))),
    ], ids=["ternary-2^21-1", "ternary-2^21", "bernoulli-2^21-1", "bernoulli-2^21", "a1-bias-1/1500", "a2-bias-1/1500"])
    def test_models_either_side_of_the_float_threshold(self, model):
        # The last float total, the first int total, and the a1 (int) and a2
        # (float) models of a heavily biased multiround scheme.
        rng = random.Random(model._cumulative[-1])
        weights = [float(model.probabilities[s]) for s in model.alphabet]
        # Rare symbols are forced in, so that every cut is crossed.
        symbols = rng.choices(model.alphabet, weights, k=6_000) + list(model.alphabet) * 20
        rng.shuffle(symbols)
        general = general_loop(model)
        stream = reference_encode(symbols, model)
        assert entropy_encode(symbols, general) == stream
        assert entropy_decode(stream, general, len(symbols)) == reference_decode(stream, model) == symbols

    def test_a_float_state_would_round_this_floor(self):
        # Pinned where a float state goes wrong: with this model coded on
        # floats, a span times a cumulative count passes 2**53, rounds, and
        # moves a floor, which changes both the bytes and the decode. The
        # random models above almost never come that close to an integer.
        model = SourceModel((0, 1), {0: F(536889882, 2**30 - 1), 1: 1 - F(536889882, 2**30 - 1)})
        symbols = [int(bit) for bit in "0101011100010001011011001010011000001110"]
        general = general_loop(model)
        stream = reference_encode(symbols, model)
        assert entropy_encode(symbols, general) == stream
        assert entropy_decode(stream, general, len(symbols)) == reference_decode(stream, model) == symbols


def bias_cells():
    """DB1's cell model at message bias 3/4, (0, 6, 7, 16) sixteenths: not a
    prefix code, so concrete audits at that bias code cells on the loop."""
    scheme = multiround_descriptor(bias=F(3, 4))
    weights = {}
    for msg, p in scheme.message_space():
        cell = scheme.store(msg)[0]
        weights[cell] = weights.get(cell, 0) + p
    return SourceModel(tuple(sorted(weights)), weights)


class TestSkipBoundary:
    # The loops skip renormalisation only while span > half. The fair
    # model's symbol 0 from the initial state leaves the span at exactly
    # 2**31 = half, [0, half), where a 0 must still settle; its symbol 1
    # leaves [half, 2**32). So skipping at span == half changes the bytes.
    @pytest.mark.parametrize(
        "model, longest", [(general_loop(FAIR), 10), (bias_cells(), 8)], ids=["fair", "cells-3/4"]
    )
    def test_every_short_sequence_matches_the_reference(self, model, longest):
        # Every sequence of 0 to ``longest`` symbols (the cells stop at 8:
        # 3**10 sequences would take seconds of reference coding).
        assert model._codewords is None
        for length in range(longest + 1):
            for symbols in itertools.product(model.alphabet, repeat=length):
                symbols = list(symbols)
                stream = reference_encode(symbols, model)
                assert entropy_encode(symbols, model) == stream
                assert entropy_decode(stream, model, length) == reference_decode(stream, model) == symbols

    def test_decoder_renormalises_at_span_half(self):
        # Both models above have power-of-2 totals, where a decoder that
        # put off one doubling would still cut in the same places. TERNARY's
        # total is 6: symbol a from the initial state leaves span = half,
        # and the next cut at 5/6 is floor(2**32 * 5 / 6) = 2 * 1789569706 + 1.
        # So the code 1789569706 followed by a 0 decodes a then b, where a
        # decoder still at span = half would cut at 1789569706 and read c.
        frame = struct.pack(">QQ", 2, 33) + (1789569706 << 8).to_bytes(5, "big")
        assert reference_decode(frame, TERNARY) == ["a", "b"]
        assert entropy_decode(frame, TERNARY, 2) == ["a", "b"]


class TestStateType:
    @staticmethod
    def exact_through(n):
        """Every integer from 0 to n is a binary64 value: n <= 2**53."""
        return all(int(float(k)) == k for k in (n - 1, n))

    def test_floats_only_where_every_product_is_exact(self):
        # The largest value the coding loops form is a span of at most 2**32
        # times a cumulative count of at most total - 1.
        totals = [1, 2, 3, 4, 16, 2**20, 2**21 - 1, 2**21, 2**21 + 1, 2**21 + 2, 2**21 + 3, 2**22, 2**29, 2**30 - 1]
        for total in totals:
            if coding._state_type(total) is float:
                assert self.exact_through(2**32 * (total - 1)), total
        assert self.exact_through(2**53) and not self.exact_through(2**53 + 1)
        assert coding._state_type(2**21 - 1) is float and coding._state_type(2**21) is int

    def test_which_models_take_floats(self):
        a1, a2 = answer_stream_models(multiround_descriptor())
        assert (a1._cumulative[-1], a2._cumulative[-1]) == (4, 3)
        scheme = multiround_descriptor(bias=F(3, 4))
        weights = {}
        for msg, p in scheme.message_space():
            cell = scheme.store(msg)[0]
            weights[cell] = weights.get(cell, 0) + p
        cells = SourceModel(tuple(sorted(weights)), weights)
        assert cells._cumulative[-1] == 16
        for model in (a1, a2, cells):
            assert coding._state_type(model._cumulative[-1]) is float
        biased_a1 = answer_stream_models(multiround_descriptor(bias=F(1, 1500)))[0]
        assert biased_a1._cumulative[-1] == 2_250_000
        assert coding._state_type(biased_a1._cumulative[-1]) is int


class TestBinSizing:
    @pytest.mark.parametrize(
        "margin, expected_bits",
        [(0.05, 20), (0.15, 22), (0.30, 24)],
    )
    def test_bin_bits_formula(self, margin, expected_bits):
        cfg = CodecConfig(block_length=16, rate_margin=margin)
        assert sw_bin_bits(cfg) == expected_bits
        assert sw_bin_bits(cfg) == math.ceil(16 * (AUDITED_DB2_BITS + margin))

    def test_conditional_entropy_target(self):
        # The codec's constant is the audited value bit for bit.
        assert coding._SIDE_INFO_BITS.hex() == AUDITED_DB2_BITS.hex()
        assert AUDITED_DB2_BITS == pytest.approx(0.75 * math.log2(3), abs=1e-12)

    def test_criterion_6c_fails_for_a_target_off_the_audit(self, monkeypatch):
        # 6c compares the codec's bins with DB2's audited storage, so a codec
        # built on any other target (here 1.0 bit, 19-bit bins) fails it.
        passes = reproduce.exact_passes()
        assert reproduce.criterion_sw_storage(passes, CodecConfig())["pass"]
        monkeypatch.setattr(coding, "_SIDE_INFO_BITS", 1.0)
        row = reproduce.criterion_sw_storage(passes, CodecConfig())
        assert (row["measured"]["bin_bits"], row["expected"]["bin_bits"]) == (19, 22)
        assert not row["pass"]

    def test_storage_saving_below_replication(self):
        cfg = CodecConfig(block_length=16, rate_margin=0.15)
        assert sw_bin_bits(cfg) / cfg.block_length < 1.5

    def test_invalid_config_rejected(self):
        for field, value in [
            ("block_length", 0),
            ("block_length", 2.5),
            ("block_length", True),
            ("seed", 1.0),
            ("seed", False),
            ("rate_margin", 0.0),
            ("rate_margin", -0.1),
            ("rate_margin", math.nan),
            ("rate_margin", math.inf),
            ("rate_margin", "0.15"),
            ("rate_margin", True),
        ]:
            with pytest.raises(ValueError, match=field):
                CodecConfig(**{field: value})

    def test_tables_built_once_per_config(self, monkeypatch):
        calls = {"derive_seed": 0}

        def counted(name):
            original = getattr(coding, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(coding, name, counted(name))
        cfg = CodecConfig(seed=9)
        rng = random.Random(12)
        for _ in range(200):
            pairs, u = random_block(rng, cfg.block_length)
            sw_decode(sw_encode(pairs, cfg), u, cfg)
        assert calls["derive_seed"] <= 1


def random_block(rng, n):
    """(pairs, u) drawn from the scheme's per-position law."""
    pairs = []
    u = []
    for _ in range(n):
        w1, w2, coin = rng.getrandbits(1), rng.getrandbits(1), rng.getrandbits(1)
        y = (w1 & (1 - w2), (1 - w1) & w2)
        asked = (w1 & w2) if coin == 0 else ((1 - w1) & (1 - w2))
        pairs.append(y)
        u.append(0 if asked else 1)
    return tuple(pairs), tuple(u)


class TestBinning:
    def test_encoder_deterministic(self):
        cfg = CodecConfig(seed=5)
        block = tuple([(0, 0)] * cfg.block_length)
        assert sw_encode(block, cfg) == sw_encode(block, cfg)

    def test_invalid_pair_rejected(self):
        cfg = CodecConfig()
        block = [(0, 0)] * 15 + [(1, 1)]
        with pytest.raises(ValueError, match="pair"):
            sw_encode(block, cfg)

    def test_wrong_length_rejected(self):
        cfg = CodecConfig()
        with pytest.raises(ValueError, match="length"):
            sw_encode([(0, 0)] * 3, cfg)

    def test_list_and_bool_pairs_bin_as_tuples(self):
        cfg = CodecConfig(seed=7)
        rng = random.Random(8)
        for _ in range(50):
            pairs, _ = random_block(rng, cfg.block_length)
            want = sw_encode(pairs, cfg)
            assert sw_encode([list(pair) for pair in pairs], cfg) == want
            assert sw_encode([(bool(y1), bool(y2)) for y1, y2 in pairs], cfg) == want
            assert sw_encode(pairs[:-1] + ([*pairs[-1]],), cfg) == want  # one list pair, last

    def test_single_position_changes_bin(self):
        # Expected collisions over 500 sampled single-position edits:
        # 500 * 2**-22, so none for this fixed seed.
        cfg = CodecConfig(seed=11)
        rng = random.Random(99)
        for _ in range(500):
            pairs, _ = random_block(rng, cfg.block_length)
            position = rng.randrange(cfg.block_length)
            alternative = next(
                p for p in Y_PAIRS if p != pairs[position]
            )
            edited = pairs[:position] + (alternative,) + pairs[position + 1 :]
            assert sw_encode(pairs, cfg) != sw_encode(edited, cfg)

    def test_all_zero_side_information_always_decodes(self):
        cfg = CodecConfig(seed=2)
        block = tuple([(0, 0)] * cfg.block_length)
        decoded = sw_decode(sw_encode(block, cfg), [0] * cfg.block_length, cfg)
        assert decoded == block

    def test_round_trip_when_unambiguous(self):
        cfg = CodecConfig(block_length=10, rate_margin=0.8, seed=3)
        rng = random.Random(31)
        successes = 0
        for _ in range(200):
            pairs, u = random_block(rng, cfg.block_length)
            decoded = sw_decode(sw_encode(pairs, cfg), u, cfg)
            if decoded is not None:
                assert decoded == pairs
                successes += 1
        assert successes > 150  # wide margin makes failures rare

    @pytest.mark.parametrize(
        "block, message",
        [
            ([5, (0, 0)], "pair outside"),
            ([([1], [0]), (0, 0)], "pair outside"),
            ([(0, 0, 0), (0, 0)], "pair outside"),
        ],
        ids=["int-entry", "unhashable-pair", "triple"],
    )
    def test_malformed_block_rejected(self, block, message):
        with pytest.raises(ValueError, match=message):
            sw_encode(block, CodecConfig(block_length=2))

    @pytest.mark.parametrize("decoder", [sw_decode, sw_decode_reference])
    @pytest.mark.parametrize(
        "u_block, message",
        [(5, "side information must be a sequence"), ([0, 2], "only bits"), ([0], "length 2")],
        ids=["int", "non-bit", "short"],
    )
    def test_malformed_side_information_rejected(self, decoder, u_block, message):
        cfg = CodecConfig(block_length=2)
        with pytest.raises(ValueError, match=message):
            decoder(sw_encode([(0, 0), (0, 0)], cfg), u_block, cfg)

    @pytest.mark.parametrize(
        "index, bits, message",
        [
            (0.5, 3, "bin_index must be an int"),
            ("a", 3, "bin_index must be an int"),
            (True, 3, "bin_index must be an int"),
            (0, 3.0, "bin_bits must be an int"),
            (0, -1, "out of range"),
            (8, 3, "out of range"),
            (-1, 3, "out of range"),
        ],
    )
    def test_malformed_bin_rejected(self, index, bits, message):
        with pytest.raises(ValueError, match=message):
            SwBin(index, bits)

    def test_wrong_type_arguments_rejected(self):
        cfg = CodecConfig(block_length=2)
        block, u_block = [(0, 0), (0, 0)], [0, 0]
        with pytest.raises(ValueError, match="block must be a sequence, got 5"):
            sw_encode(5, cfg)
        with pytest.raises(ValueError, match="cfg must be a CodecConfig, got 5"):
            sw_encode(block, 5)
        for decoder in (sw_decode, sw_decode_reference):
            with pytest.raises(ValueError, match="bin must be a SwBin, got 5"):
                decoder(5, u_block, cfg)
            with pytest.raises(ValueError, match="cfg must be a CodecConfig, got 5"):
                decoder(sw_encode(block, cfg), u_block, 5)

    def test_bin_bits_consistency_checked(self):
        cfg = CodecConfig()
        with pytest.raises(ValueError, match="bits"):
            sw_decode(SwBin(0, 5), [0] * cfg.block_length, cfg)

    @pytest.mark.parametrize(
        "cfg", [CodecConfig(), CodecConfig(block_length=8, rate_margin=0.5)], ids=["default", "n8-margin0.5"]
    )
    def test_encoder_bin_is_the_validated_bin(self, cfg):
        # sw_encode builds its bin without SwBin's range check; the result
        # must be the bin the checked constructor builds, equal and hashing alike.
        rng = random.Random(cfg.block_length)
        for _ in range(300):
            block = [rng.choice(Y_PAIRS) for _ in range(cfg.block_length)]
            got = sw_encode(block, cfg)
            checked = SwBin(got.bin_index, got.bin_bits)
            assert type(got) is SwBin and got == checked and hash(got) == hash(checked)
            assert vars(got) == vars(checked) == {"bin_index": got.bin_index, "bin_bits": sw_bin_bits(cfg)}
            assert 0 <= got.bin_index < 2**got.bin_bits
            # The same bin as the XOR of the mask table, read through trits.
            index = 0
            for position, pair in enumerate(block):
                index ^= cfg._masks[position][Y_PAIRS.index(pair)]
            assert got.bin_index == index

    def test_meet_in_middle_matches_reference(self):
        cfg = CodecConfig(block_length=9, rate_margin=0.3, seed=17)
        rng = random.Random(55)
        for _ in range(300):
            pairs, u = random_block(rng, cfg.block_length)
            sw = sw_encode(pairs, cfg)
            assert sw_decode(sw, u, cfg) == sw_decode_reference(sw, u, cfg)

    # SHA-256 of the concatenated 4-byte bin indices of 1,000 seeded blocks,
    # recorded before the mask tables moved into CodecConfig.
    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (CodecConfig(), "65656971767b55fdf5ddcce9e6e9673611485a954df2fe9517e393c250b192f9"),
            (CodecConfig(block_length=9, rate_margin=0.3, seed=17), "2ca212363b7298884be84cb56766c4efbfbf6e480de49f862a2d705a74f67f71"),
        ],
        ids=["default", "n9-margin-0.3-seed-17"],
    )
    def test_golden_bins(self, cfg, digest):
        rng = random.Random(2024)
        indices = b"".join(
            sw_encode(random_block(rng, cfg.block_length)[0], cfg).bin_index.to_bytes(4, "big")
            for _ in range(1000)
        )
        assert hashlib.sha256(indices).hexdigest() == digest

    def test_failure_rate_decreases_with_margin(self):
        rates = []
        for margin in (0.05, 0.15, 0.30):
            cfg = CodecConfig(block_length=16, rate_margin=margin, seed=41)
            stats = sw_failure_rate(cfg, blocks=1500, seed=41)
            rates.append(stats["failure_rate"])
        assert rates[0] > rates[1] > rates[2]
