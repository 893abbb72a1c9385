"""Multiround scheme: cells, rounds, decoding, and exact scheme laws."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pirlab.multiround import (
    ASK_X1,
    ASK_X2,
    ASK_Y1,
    ASK_Y2,
    NO_QUERY,
    CellTable,
    CodedLayer,
    MessagePair,
    Transcript,
    db2_answer,
    decode,
    derive_cells,
    multiround_descriptor,
    round1,
    round2_query,
    run_session,
)

F = Fraction


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

    def test_partition_invariant_everywhere(self):
        for w1 in product((0, 1), repeat=3):
            for w2 in product((0, 1), repeat=3):
                table = derive_cells(MessagePair(w1, w2))
                for cells in zip(table.x1, table.x2, table.y1, table.y2):
                    assert sum(cells) == 1

    def test_indicator_forces_empty_y(self):
        for w1, w2, coin in product((0, 1), repeat=3):
            table = derive_cells(MessagePair((w1,), (w2,)), coin=(coin,))
            if table.u[0] == 0:
                assert (table.y1[0], table.y2[0]) == (0, 0)

    def test_invalid_cell_table_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            CellTable(x1=(1,), x2=(1,), y1=(0,), y2=(0,))

    def test_u_consistency_enforced(self):
        with pytest.raises(ValueError):
            CellTable(x1=(0,), x2=(0,), y1=(1,), y2=(0,), u=(0,))


class TestRounds:
    def test_round1_lookup(self):
        cells = derive_cells(MessagePair((1,), (1,)))
        assert round1((0,), cells) == ((ASK_X1,), (1,))

    def test_round1_other_cell(self):
        cells = derive_cells(MessagePair((0,), (0,)))
        assert round1((1,), cells) == ((ASK_X2,), (1,))

    def test_round1_from_cells(self):
        cells = derive_cells(MessagePair((1,), (0,)))
        assert round1((1,), cells) == ((ASK_X2,), (0,))

    def test_round1_length_mismatch(self):
        cells = derive_cells(MessagePair((1, 0), (0, 0)))
        with pytest.raises(ValueError):
            round1((0,), cells)

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
        assert round2_query(theta, (q1,), (a1,)) == (expected,)

    def test_db2_answers_only_where_queried(self):
        q2 = (ASK_Y1, NO_QUERY, ASK_Y2)
        assert db2_answer(q2, (1, 0, 0), (0, 0, 1)) == (1, None, 1)


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
            cells = derive_cells(MessagePair((w1,), (w2,)), (coin,))
            assert cells.u[0] == (0 if t.a1[0] == 1 else 1)


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
            cells = derive_cells(MessagePair((w1,), (w2,)), (coin,))
            if cells.u[0] == 0:
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

    def test_bias_weights(self):
        scheme = multiround_descriptor(bias=F(3, 4))
        weights = dict(scheme.message_space())
        assert weights[((1,), (1,))] == F(9, 16)
        assert weights[((0,), (0,))] == F(1, 16)
        assert sum(weights.values()) == 1

    def test_invalid_bias_rejected(self):
        with pytest.raises(ValueError):
            multiround_descriptor(bias=F(1))

    def test_download_counts_answer_bits_only(self):
        scheme = multiround_descriptor()
        skip = scheme.run(((1,), (1,)), 1, (0,))
        fetch = scheme.run(((1,), (0,)), 1, (0,))
        assert skip.download_bits == 1
        assert fetch.download_bits == 2
