"""Multiround scheme: cells, rounds, decoding, and exact scheme laws."""

import random
import re
from fractions import Fraction
from itertools import chain, product

import pytest
from hypothesis import given, settings, strategies as st

from pirlab import multiround
from pirlab.audit import measure_rate
from pirlab.coding import CodecConfig, SourceModel
from pirlab.multiround import (
    ASK_X1,
    ASK_X2,
    ASK_Y1,
    ASK_Y2,
    NO_QUERY,
    CodedLayer,
    MessagePair,
    Transcript,
    decode,
    derive_cells,
    multiround_descriptor,
    run_session,
    sw_failure_rate,
)

F = Fraction
SCHEME = multiround_descriptor()
# DB1's (x1, x2) cell pair takes three values; a model need not be exact to code them.
UNIFORM_CELLS = SourceModel(((0, 0), (0, 1), (1, 0)), dict.fromkeys(((0, 0), (0, 1), (1, 0)), F(1, 3)))


class TestCells:
    @pytest.mark.parametrize(
        "pair, cells",
        [
            ((1, 1), (1, 0, 0, 0)),
            ((0, 0), (0, 1, 0, 0)),
            ((1, 0), (0, 0, 1, 0)),
            ((0, 1), (0, 0, 0, 1)),
        ],
    )
    def test_single_position(self, pair, cells):
        table = derive_cells(MessagePair((pair[0],), (pair[1],)))
        assert (table.x1[0], table.x2[0], table.y1[0], table.y2[0]) == cells

    def test_cells_are_a_named_tuple_of_the_four_cells(self):
        table = derive_cells(MessagePair((1, 0, 0, 1), (1, 0, 1, 0)))
        assert table == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        assert table._fields == ("x1", "x2", "y1", "y2")

    def test_partition_invariant_everywhere(self):
        for w1 in product((0, 1), repeat=3):
            for w2 in product((0, 1), repeat=3):
                table = derive_cells(MessagePair(w1, w2))
                for cells in zip(table.x1, table.x2, table.y1, table.y2):
                    assert sum(cells) == 1

    def test_indicator_forces_empty_y(self):
        for w1, w2, coin in product((0, 1), repeat=3):
            m = MessagePair((w1,), (w2,))
            table = derive_cells(m)
            if multiround._indicator(m, (coin,))[0] == 0:
                assert (table.y1[0], table.y2[0]) == (0, 0)


def db1_round(msg, coin):
    """DB1's query and answer in the audited session record."""
    record = SCHEME.run(msg, 1, coin)
    return record.queries[0], record.answers[0]


class TestRounds:
    def test_round1_lookup(self):
        assert db1_round(((1,), (1,)), (0,)) == ((ASK_X1,), (1,))

    def test_round1_other_cell(self):
        assert db1_round(((0,), (0,)), (1,)) == ((ASK_X2,), (1,))

    def test_round1_from_cells(self):
        assert db1_round(((1,), (0,)), (1,)) == ((ASK_X2,), (0,))

    def test_round1_length_mismatch(self):
        with pytest.raises(ValueError, match="coin length must match message length"):
            run_session(MessagePair((1, 0), (0, 0)), 1, (0,))

    @pytest.mark.parametrize(
        "theta, q1, a1, expected",
        [
            (1, ASK_X1, 0, ASK_Y1),
            (2, ASK_X1, 0, ASK_Y2),
            (1, ASK_X2, 0, ASK_Y2),
            (2, ASK_X2, 0, ASK_Y1),
            (1, ASK_X1, 1, NO_QUERY),
            (2, ASK_X2, 1, NO_QUERY),
        ],
    )
    def test_round2_query_rules(self, theta, q1, a1, expected):
        # The coin picks q1; the message makes the asked x cell equal a1.
        coin = (0,) if q1 == ASK_X1 else (1,)
        msg = ((1,), (0,)) if a1 == 0 else ((1,), (1,)) if q1 == ASK_X1 else ((0,), (0,))
        record = SCHEME.run(msg, theta, coin)
        assert record.queries == ((q1,), (expected,))
        assert record.answers[0] == (a1,)

    def test_db2_answers_only_where_queried(self):
        # (y1, y2) per position: (1, 0), (0, 0) and (0, 1).
        record = SCHEME.run(((1, 1, 0), (0, 1, 1)), 1, (0, 0, 1))
        assert record.queries[1] == (ASK_Y1, NO_QUERY, ASK_Y2)
        assert record.answers[1] == (1, None, 1)


class TestDecode:
    def test_round1_hit_pins_both_bits(self):
        t = Transcript(
            theta=2, coin=(0,), q1=(ASK_X1,), a1=(1,), q2=(NO_QUERY,), a2=(None,)
        )
        assert decode(2, t) == (1,)

    def test_complement_branch(self):
        t = Transcript(
            theta=1, coin=(1,), q1=(ASK_X2,), a1=(0,), q2=(ASK_Y2,), a2=(1,)
        )
        assert decode(1, t) == (0,)

    def test_direct_branch(self):
        t = Transcript(
            theta=1, coin=(0,), q1=(ASK_X1,), a1=(0,), q2=(ASK_Y1,), a2=(1,)
        )
        assert decode(1, t) == (1,)

    def test_incomplete_transcript_rejected(self):
        t = Transcript(
            theta=1, coin=(0,), q1=(ASK_X1,), a1=(0,), q2=(ASK_Y1,), a2=(None,)
        )
        with pytest.raises(ValueError, match="incomplete"):
            decode(1, t)

    def test_theta_must_match_the_transcript(self):
        # Decoding reads only the transcript, which already answers its own
        # theta; asked for the other message, it would return this one.
        m = MessagePair((0, 1, 1), (1, 0, 1))
        t = run_session(m, 1, (0, 1, 1))
        assert decode(1, t) == m.w1
        assert decode(2, run_session(m, 2, (0, 1, 1))) == m.w2
        with pytest.raises(ValueError, match="^theta 2 does not match the transcript's theta 1$"):
            decode(2, t)


class TestWrongTypes:
    M = MessagePair((0, 1), (1, 1))
    T = run_session(M, 1, (0, 1))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda m, t: run_session(((0, 1), (1, 1)), 1, (0, 1)), "m must be a MessagePair"),
            (lambda m, t: derive_cells((0, 1)), "m must be a MessagePair"),
            (lambda m, t: run_session(m, 1, None), "coin must be a sequence of bits"),
            (lambda m, t: run_session(m, 1, 5), "coin must be a sequence of bits"),
            (lambda m, t: MessagePair(None, (1,)), "w1 must be a sequence of bits"),
            (lambda m, t: MessagePair(5, (1,)), "w1 must be a sequence of bits"),
            (lambda m, t: MessagePair((1,), None), "w2 must be a sequence of bits"),
            (lambda m, t: decode(1, tuple(t)), "t must be a Transcript"),
            (lambda m, t: decode(1, None), "t must be a Transcript"),
        ],
        ids=["run_session-m", "derive_cells-m", "coin-None", "coin-int", "w1-None", "w1-int", "w2-None",
             "t-tuple", "t-None"],
    )
    def test_refused_with_the_argument_named(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(self.M, self.T)

    def test_theta_checked_before_the_transcript(self):
        with pytest.raises(ValueError, match="^theta must be 1 or 2$"):
            decode(3, None)


class TestTranscript:
    def test_named_tuple_surface(self):
        t = Transcript(2, (0,), (ASK_X1,), (1,), (NO_QUERY,), (None,))
        assert t.decoded is None
        assert Transcript._fields == ("theta", "coin", "q1", "a1", "q2", "a2", "decoded")
        assert t == (2, (0,), (ASK_X1,), (1,), (NO_QUERY,), (None,), None)
        assert t._replace(decoded=(1,)) == (2, (0,), (ASK_X1,), (1,), (NO_QUERY,), (None,), (1,))
        with pytest.raises(AttributeError):
            t.decoded = (1,)

    def test_sessions_return_transcripts(self):
        t = run_session(MessagePair((1, 0), (0, 0)), 1, (0, 1))
        assert type(t) is Transcript
        assert t == (1, (0, 1), (ASK_X1, ASK_X2), (0, 1), (ASK_Y1, NO_QUERY), (1, None), (1, 0))


class TestSessions:
    def test_traced_example_skips_db2(self):
        t = run_session(MessagePair((1,), (1,)), theta=1, coin=(0,))
        assert t.q2 == (NO_QUERY,)
        assert t.decoded == (1,)

    def test_traced_example_uses_db2(self):
        t = run_session(MessagePair((0,), (1,)), theta=2, coin=(0,))
        assert t.q2 == (ASK_Y2,)
        assert t.a2 == (1,)
        assert t.decoded == (1,)

    def test_exhaustive_single_position(self):
        for w1, w2, coin in product((0, 1), repeat=3):
            for theta in (1, 2):
                t = run_session(MessagePair((w1,), (w2,)), theta, (coin,))
                assert t.decoded == ((w1,) if theta == 1 else (w2,))

    def test_indicator_matches_round1_answer(self):
        for w1, w2, coin in product((0, 1), repeat=3):
            t = run_session(MessagePair((w1,), (w2,)), 1, (coin,))
            u = multiround._indicator(MessagePair((w1,), (w2,)), (coin,))
            assert u[0] == (0 if t.a1[0] == 1 else 1)


@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda length: st.tuples(
            st.lists(st.integers(0, 1), min_size=length, max_size=length),
            st.lists(st.integers(0, 1), min_size=length, max_size=length),
            st.lists(st.integers(0, 1), min_size=length, max_size=length),
            st.sampled_from((1, 2)),
        )
    )
)
def test_random_sessions_decode_exactly(case):
    w1, w2, coin, theta = case
    t = run_session(MessagePair(tuple(w1), tuple(w2)), theta, tuple(coin))
    assert t.decoded == (tuple(w1) if theta == 1 else tuple(w2))


class TestExactLaws:
    def test_round1_answer_is_one_quarter(self):
        hits = F(0)
        for (msg, p_msg) in multiround_descriptor().message_space():
            for coin in ((0,), (1,)):
                t = run_session(MessagePair(*msg), 1, coin)
                if t.a1[0] == 1:
                    hits += p_msg * F(1, 2)
        assert hits == F(1, 4)

    def test_indicator_law(self):
        # Pr(u = 0) = 1/4 and, given u = 1, (y1, y2) uniform over three values.
        counts = {}
        u_zero = F(0)
        for w1, w2, coin in product((0, 1), repeat=3):
            m = MessagePair((w1,), (w2,))
            cells = derive_cells(m)
            if multiround._indicator(m, (coin,))[0] == 0:
                u_zero += F(1, 8)
            else:
                key = (cells.y1[0], cells.y2[0])
                counts[key] = counts.get(key, F(0)) + F(1, 8)
        assert u_zero == F(1, 4)
        total = sum(counts.values())
        assert {k: v / total for k, v in counts.items()} == {
            (0, 0): F(1, 3),
            (1, 0): F(1, 3),
            (0, 1): F(1, 3),
        }


class TestDescriptor:
    def test_split_storage_layout(self):
        scheme = multiround_descriptor()
        stored = scheme.store(((1,), (0,)))
        assert stored == ((0, 0), (1, 0))  # (x1, x2), (y1, y2)

    def test_replicated_storage_layout(self):
        scheme = multiround_descriptor(storage="replicated")
        stored = scheme.store(((1,), (0,)))
        assert stored == ((1, 0), (1, 0))

    def test_only_split_storage_declares_a_coded_layer(self):
        assert multiround_descriptor(bias=F(3, 4)).coded == CodedLayer(F(3, 4))
        assert multiround_descriptor(storage="replicated").coded is None

    @pytest.mark.parametrize("bias", [F(0), F(1), F(2), F(-1, 2)])
    def test_coded_layer_refuses_bias_outside_the_unit_interval(self, bias):
        # The descriptor's check, shared: at bias 0 or 1 every position would
        # have u = 0, so every bin would "decode".
        calls = [
            lambda: sw_failure_rate(CodecConfig(), 2, 0, bias),
            lambda: CodedLayer(bias).bin_failures(CodecConfig(), 2, 0),
            lambda: CodedLayer(bias).session(1, 16, 0, None),
            lambda: CodedLayer(bias).storage_bits(16, 0, CodecConfig(), None),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^bias must be strictly between 0 and 1$"):
                call()

    def test_bias_checked_once_per_call(self, monkeypatch):
        checks = []
        check = multiround._check_bias
        monkeypatch.setattr(multiround, "_check_bias", lambda bias: checks.append(bias) or check(bias))
        sw_failure_rate(CodecConfig(), 50, 0, F(3, 4))
        assert checks == [F(3, 4)]
        fair = SourceModel.bernoulli(F(1, 2))
        CodedLayer(F(3, 4)).session(1, 64, 0, (fair, fair))
        assert checks == [F(3, 4)] * 2

    @pytest.mark.parametrize(
        "call, rechecks",
        [
            (lambda layer, fair: layer.session(1, 64, 0, (fair, fair)), 0),
            (lambda layer, fair: layer.storage_bits(64, 0, CodecConfig(), UNIFORM_CELLS), 0),
            (lambda layer, fair: layer.bin_failures(CodecConfig(), 50, 0), 1),
        ],
        ids=["session", "storage_bits", "bin_failures"],
    )
    def test_coded_layer_draws_without_rechecking_the_bias(self, monkeypatch, call, rechecks):
        # A built layer's bias is already checked; only sw_failure_rate's
        # entry checks it again, once, and no drawn block or position does.
        layer, fair = CodedLayer(F(3, 4)), SourceModel.bernoulli(F(1, 2))
        checks = []
        check = multiround._check_bias
        monkeypatch.setattr(multiround, "_check_bias", lambda bias: checks.append(bias) or check(bias))
        call(layer, fair)
        assert checks == [F(3, 4)] * rechecks

    def test_bias_weights(self):
        scheme = multiround_descriptor(bias=F(3, 4))
        weights = dict(scheme.message_space())
        assert weights[((1,), (1,))] == F(9, 16)
        assert weights[((0,), (0,))] == F(1, 16)
        assert sum(weights.values()) == 1

    def test_invalid_bias_rejected(self):
        with pytest.raises(ValueError):
            multiround_descriptor(bias=F(1))

    def test_zero_bias_rejected(self):
        with pytest.raises(ValueError, match="^bias must be strictly between 0 and 1$"):
            multiround_descriptor(bias=0)

    def test_download_counts_answer_bits_only(self):
        # A skipped round 2 sends None, which the audit does not count: 1 bit
        # with probability 1/4, else 2, so 7/4 per position.
        scheme = multiround_descriptor()
        skip = scheme.run(((1,), (1,)), 1, (0,))
        fetch = scheme.run(((1,), (0,)), 1, (0,))
        assert skip.answers == ((1,), (None,))
        assert fetch.answers == ((0,), (1,))
        assert measure_rate(scheme)["expected_symbol_download_per_block"] == F(7, 4)


# --- Reference: the per-position kernel the bitset kernel replaced ---------
#
# Each function evaluates the scheme one position at a time, as the package
# did before its functions moved to bitsets. The package must return equal
# cells, transcripts and errors.


def ref_bits(name, bits):
    bits = tuple(bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"{name} must contain only bits")
    return bits


def ref_message(w1, w2):
    w1, w2 = ref_bits("w1", w1), ref_bits("w2", w2)
    if len(w1) != len(w2):
        raise ValueError("messages must have equal length")
    if not w1:
        raise ValueError("messages must be non-empty")
    return w1, w2


def ref_derive_cells(w1, w2, coin=None):
    x1 = tuple(a & b for a, b in zip(w1, w2))
    x2 = tuple((1 - a) & (1 - b) for a, b in zip(w1, w2))
    y1 = tuple(a & (1 - b) for a, b in zip(w1, w2))
    y2 = tuple((1 - a) & b for a, b in zip(w1, w2))
    u = None
    if coin is not None:
        coin = ref_bits("coin", coin)
        if len(coin) != len(w1):
            raise ValueError("coin length must match message length")
        u = tuple(
            0 if (c == 0 and xa == 1) or (c == 1 and xb == 1) else 1
            for c, xa, xb in zip(coin, x1, x2)
        )
    return x1, x2, y1, y2, u


def ref_round1(coin, x1, x2):
    coin = ref_bits("coin", coin)
    if len(coin) != len(x1):
        raise ValueError("coin length must match cell length")
    query = tuple(ASK_X1 if c == 0 else ASK_X2 for c in coin)
    return query, tuple(xa if q == ASK_X1 else xb for q, xa, xb in zip(query, x1, x2))


def ref_round2_query(theta, q1, a1):
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


def ref_db2_answer(q2, y1, y2):
    if not (len(q2) == len(y1) == len(y2)):
        raise ValueError("q2 and cell sequences must have equal length")
    return tuple(None if q is NO_QUERY else (a if q == ASK_Y1 else b) for q, a, b in zip(q2, y1, y2))


def ref_decode(theta, q1, a1, q2, a2):
    if theta not in (1, 2):
        raise ValueError("theta must be 1 or 2")
    if not (len(q1) == len(a1) == len(q2) == len(a2)):
        raise ValueError("incomplete transcript")
    out = []
    for x, a, q, b in zip(q1, a1, q2, a2):
        if a == 1:
            out.append(1 if x == ASK_X1 else 0)
            continue
        if q is NO_QUERY or b is None:
            raise ValueError("incomplete transcript: missing round-2 answer")
        out.append(b if x == ASK_X1 else 1 - b)
    return tuple(out)


def ref_session(w1, w2, theta, coin):
    w1, w2 = ref_message(w1, w2)
    x1, x2, y1, y2, _ = ref_derive_cells(w1, w2, coin)
    q1, a1 = ref_round1(coin, x1, x2)
    q2 = ref_round2_query(theta, q1, a1)
    a2 = ref_db2_answer(q2, y1, y2)
    return (theta, tuple(coin), q1, a1, q2, a2, ref_decode(theta, q1, a1, q2, a2))


def cell_fields(table, u=None):
    return (table.x1, table.x2, table.y1, table.y2, u)


def transcript_fields(t):
    return (t.theta, t.coin, t.q1, t.a1, t.q2, t.a2, t.decoded)


def record_fields(record):
    """A descriptor's session record in ``ref_session``'s layout."""
    (q1, q2), (a1, a2) = record.queries, record.answers
    return (q1, a1, q2, a2, record.decoded)


def assert_same_session(w1, w2, theta, coin):
    m = MessagePair(w1, w2)
    assert cell_fields(derive_cells(m)) == ref_derive_cells(w1, w2)
    _, u = SCHEME.side_information((w1, w2), coin)
    assert cell_fields(derive_cells(m), u) == ref_derive_cells(w1, w2, coin)
    t = run_session(m, theta, coin)
    want = ref_session(w1, w2, theta, coin)
    assert transcript_fields(t) == want
    assert record_fields(SCHEME.run((w1, w2), theta, coin)) == want[2:]
    assert decode(theta, t) == t.decoded


class TestBitsetKernelMatchesReference:
    def test_exhaustive_up_to_three_positions(self):
        for length in (1, 2, 3):
            for w1, w2, coin in product(product((0, 1), repeat=length), repeat=3):
                for theta in (1, 2):
                    assert_same_session(w1, w2, theta, coin)

    @settings(max_examples=60)
    @given(st.integers(1, 300), st.integers(0, 2**32), st.sampled_from((1, 2)))
    def test_random_lengths(self, length, seed, theta):
        rng = random.Random(seed)
        w1, w2, coin = ([rng.getrandbits(1) for _ in range(length)] for _ in range(3))
        assert_same_session(w1, w2, theta, coin)

    @pytest.mark.parametrize("length", [4, 5, 8, 9])
    @pytest.mark.parametrize("seed", range(3))
    def test_lengths_beside_the_one_byte_tables(self, length, seed):
        # Bitsets of at most _BYTE_POSITIONS positions are read from tables;
        # 4 and 8 fill their bytes, 5 and 9 spill into the next.
        assert multiround._BYTE_POSITIONS == 4
        rng = random.Random(seed)
        for theta in (1, 2):
            w1, w2, coin = ([rng.getrandbits(1) for _ in range(length)] for _ in range(3))
            assert_same_session(w1, w2, theta, coin)

    def test_tables_match_the_string_round_trip(self):
        for n in range(multiround._BYTE_POSITIONS + 2):
            for bitset in range(1 << n):
                bits = tuple(map(int, format(bitset | 1 << n, "b")[1:]))
                assert multiround._unpack(bitset, n) == bits
                assert multiround._spread(bitset) == int(bin(bitset)[2:], 4)

    @pytest.mark.parametrize(
        "scheme",
        [SCHEME, multiround_descriptor(storage="replicated"), multiround_descriptor(bias=F(3, 4))],
        ids=lambda scheme: scheme.name,
    )
    def test_audited_sessions_are_the_reference_sessions(self, scheme):
        triples = [
            (msg, theta, coin, p_msg * p_coin)
            for msg, p_msg in scheme.message_space()
            for theta in (1, 2)
            for coin, p_coin in scheme.randomness_space()
        ]
        assert len(triples) == 16
        download = 0
        for msg, theta, coin, p in triples:
            record = scheme.run(msg, theta, coin)
            want = ref_session(*msg, theta, coin)
            assert record_fields(record) == want[2:]
            if theta == 1:
                download += p * (len(want[3]) + sum(a is not None for a in want[5]))
        # The audit's download is the reference sessions' sent answer bits.
        assert measure_rate(scheme)["expected_symbol_download_per_block"] == download

    @pytest.mark.parametrize("entry", [2, -1, None, "1"])
    def test_same_error_for_non_bits(self, entry):
        def error(call, *args):
            with pytest.raises(ValueError) as raised:
                call(*args)
            return str(raised.value)

        good = (0, 1, 1)
        bad = (0, entry, 1)
        m = MessagePair(good, good)
        assert error(MessagePair, bad, good) == error(ref_message, bad, good)
        assert error(MessagePair, good, bad) == error(ref_message, good, bad)
        assert error(multiround._indicator, m, bad) == error(ref_derive_cells, good, good, bad)
        assert error(run_session, m, 1, bad) == error(ref_session, good, good, 1, bad)
        assert error(SCHEME.run, (good, good), 1, bad) == error(ref_session, good, good, 1, bad)

    def test_same_error_for_lengths_and_empty_messages(self):
        for bad_pair in (((0, 1), (0,)), ((), ())):
            with pytest.raises(ValueError) as want:
                ref_message(*bad_pair)
            with pytest.raises(ValueError, match=str(want.value)):
                MessagePair(*bad_pair)
        m = MessagePair((0, 1), (1, 1))
        t = run_session(m, 1, (0, 1))
        cases = [
            (lambda: multiround._indicator(m, (0,)), lambda: ref_derive_cells(m.w1, m.w2, (0,))),
            (lambda: run_session(m, 1, (0, 1, 1)), lambda: ref_session(m.w1, m.w2, 1, (0, 1, 1))),
            (lambda: run_session(m, 3, (0, 1)), lambda: ref_session(m.w1, m.w2, 3, (0, 1))),
            (lambda: decode(0, t), lambda: ref_decode(0, t.q1, t.a1, t.q2, t.a2)),
        ]
        short = Transcript(1, t.coin, t.q1, t.a1, t.q2[:1], t.a2)
        cases.append((lambda: decode(1, short), lambda: ref_decode(1, short.q1, short.a1, short.q2, short.a2)))
        for q2, a2 in (((ASK_Y1,), (None,)), ((NO_QUERY,), (1,))):
            missing = Transcript(1, (0,), (ASK_X1,), (0,), q2, a2)
            cases.append((lambda t=missing: decode(1, t), lambda q2=q2, a2=a2: ref_decode(1, (ASK_X1,), (0,), q2, a2)))
        for call, ref in cases:
            with pytest.raises(ValueError) as want:
                ref()
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value)

    def test_true_and_float_one_are_bits(self):
        # As with ``b in (0, 1)``, an entry equal to 0 or 1 is a bit: True
        # and 1.0 are accepted, and the session runs on their int values.
        m = MessagePair((True, 0.0), (1.0, False))
        assert m.w1 == (1, 0) and m.w2 == (1, 0)
        t = run_session(m, 2, (1.0, True))
        assert transcript_fields(t)[2:] == ref_session((1, 0), (1, 0), 2, (1, 1))[2:]

    def test_entries_outside_the_protocol_rejected(self):
        m = MessagePair((0, 1), (1, 1))
        t = run_session(m, 1, (0, 1))
        with pytest.raises(ValueError, match="q1 must contain only 'x1', 'x2'"):
            decode(1, Transcript(1, t.coin, ("x3", ASK_X1), t.a1, t.q2, t.a2))
        with pytest.raises(ValueError, match="a1 must contain only bits"):
            decode(1, Transcript(1, t.coin, t.q1, (2, 0), t.q2, t.a2))
        with pytest.raises(ValueError, match="q2 must contain only None, 'y1', 'y2'"):
            decode(1, Transcript(1, t.coin, t.q1, t.a1, ("x1", None), t.a2))
        with pytest.raises(ValueError, match="a2 must contain only None, 0, 1"):
            decode(1, Transcript(1, t.coin, t.q1, t.a1, t.q2, (2, None)))


class CountingDict(dict):
    def __init__(self, table):
        super().__init__(table)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


BIT_LIKE = (0, 1, False, True, 0.0, 1.0)
WORD_TABLES = [
    (multiround._Q1_WORDS, (ASK_X1, ASK_X2)),
    (multiround._Q2_WORDS, (NO_QUERY, ASK_Y1, ASK_Y2)),
    (multiround._A2_WORDS, (None, 0, 1)),
]


class TestTables:
    def test_packing_by_lookup_matches_pack(self):
        for n in range(multiround._BYTE_POSITIONS + 2):
            for bits in product(BIT_LIKE, repeat=n):
                got = multiround._check_bits("w1", bits)
                assert got == (bits, multiround._pack("w1", bits))
                assert got[0] is bits and type(got[1]) is int
                assert multiround._check_bits("w1", list(bits)) == got

    @pytest.mark.parametrize("entry", [2, -1, None, "1", [0]])
    @pytest.mark.parametrize("n", range(1, multiround._BYTE_POSITIONS + 2))
    def test_non_bits_keep_the_error_text(self, entry, n):
        bits = (1,) * (n - 1) + (entry,)
        with pytest.raises(ValueError) as want:
            ref_bits("coin", bits)
        with pytest.raises(ValueError, match="^coin must contain only bits$") as got:
            multiround._check_bits("coin", bits)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("words, values", WORD_TABLES, ids=["q1", "q2", "a2"])
    def test_spell_matches_the_chain_path(self, words, values):
        assert [len(table) for table in words] == [4**n for n in range(multiround._BYTE_POSITIONS + 1)]
        for n in range(multiround._BYTE_POSITIONS + 2):
            pad = -n % 4
            for digits in product(range(len(values)), repeat=n):
                codes = sum(d << 2 * (n - 1 - i) for i, d in enumerate(digits))
                by_chain = tuple(chain.from_iterable(
                    map(words[-1].__getitem__, codes.to_bytes((n + pad) // 4, "big"))
                ))[pad:]
                assert multiround._spell(words, n, codes) == by_chain == tuple(values[d] for d in digits)

    @pytest.mark.parametrize("length", [*range(1, 10), 2**17])
    def test_pair_stores_its_cell_bitsets(self, length):
        rng = random.Random(length)
        w1, w2 = (tuple(rng.getrandbits(1) for _ in range(length)) for _ in range(2))
        p1, p2 = multiround._pack("w1", w1), multiround._pack("w2", w2)
        full = (1 << length) - 1
        m = MessagePair(w1, w2)
        assert m._cells == (p1 & p2, full & ~p1 & ~p2, p1 & ~p2, full & ~p1 & p2)
        if length < 10:
            assert cell_fields(derive_cells(m)) == ref_derive_cells(w1, w2)

    def test_long_sequences_are_never_looked_up(self, monkeypatch):
        table = CountingDict(multiround._PACKED)
        monkeypatch.setattr(multiround, "_PACKED", table)
        run_session(MessagePair((0, 1, 1, 0), (1, 1, 0, 0)), 1, (0, 1, 0, 1))
        assert table.lookups == 3  # w1, w2 and the coin
        for length in (5, 2**17):
            table.lookups = 0
            rng = random.Random(length)
            w1, w2, coin = (tuple(rng.getrandbits(1) for _ in range(length)) for _ in range(3))
            run_session(MessagePair(w1, w2), 2, coin)
            assert table.lookups == 0
