"""Linear scheme storage/retrieval, replication baseline, symmetrization."""

from fractions import Fraction
from itertools import product

import pytest

from pirlab.audit import (
    check_privacy,
    ideal_storage_bits,
    measure_rate,
    scheme_profile,
)
from pirlab.linear import (
    LinearMessages,
    PatternChoice,
    StoredLinear,
    asymmetric_toy_descriptor,
    gf2_rank,
    linear_descriptor,
    linear_retrieve,
    linear_retrieve_long,
    linear_storage_entropy_bits,
    linear_store,
    replicated_descriptor,
    replicated_store,
    symmetrize,
)
from pirlab.multiround import multiround_descriptor

F = Fraction


class TestStore:
    def test_all_zero_messages(self):
        stored = linear_store(LinearMessages((0, 0, 0, 0), (0, 0, 0, 0)))
        assert stored == StoredLinear((0,) * 6, (0,) * 6)

    def test_single_bits_propagate(self):
        stored = linear_store(LinearMessages((1, 0, 0, 0), (0, 1, 0, 0)))
        assert stored.s1 == (1, 0, 0, 0, 1, 0)
        assert stored.s2 == (0, 0, 1, 0, 0, 1)

    def test_storage_entropy_is_six_bits_each(self):
        assert linear_storage_entropy_bits() == (6.0, 6.0)
        # Independent route: exhaustive enumeration instead of rank.
        assert ideal_storage_bits(linear_descriptor()) == [6.0, 6.0]

    def test_rank_helper(self):
        assert gf2_rank([0b1, 0b10, 0b11]) == 2
        assert gf2_rank([]) == 0
        assert gf2_rank([0b101, 0b011, 0b110]) == 2

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            LinearMessages((1, 0), (0, 0, 0, 0))


class TestRetrieve:
    def test_pattern1_want_first(self):
        a, b = (1, 0, 1, 1), (0, 1, 1, 0)
        (d1, d2), decoded = linear_retrieve(1, PatternChoice(1), LinearMessages(a, b))
        assert d1 == (a[0], b[0], a[1] ^ b[1])
        assert d2 == (a[3], b[1], a[2] ^ b[0])
        assert decoded == a

    def test_pattern2_want_second(self):
        a, b = (1, 1, 0, 0), (1, 0, 0, 1)
        (d1, d2), decoded = linear_retrieve(2, PatternChoice(2), LinearMessages(a, b))
        assert d1 == (a[2], b[2], a[3] ^ b[3])
        assert d2 == (a[3], b[1], a[2] ^ b[0])
        assert decoded == b

    def test_exhaustive_zero_error(self):
        cases = 0
        for bits in product((0, 1), repeat=8):
            m = LinearMessages(bits[:4], bits[4:])
            for pattern in (1, 2):
                for theta in (1, 2):
                    _, decoded = linear_retrieve(theta, PatternChoice(pattern), m)
                    assert decoded == (m.a if theta == 1 else m.b)
                    cases += 1
        assert cases == 1024

    def test_download_is_six_bits(self):
        scheme = linear_descriptor()
        download = measure_rate(scheme)["expected_symbol_download_per_block"]
        assert download == 6
        assert F(scheme.block_length) / download == F(2, 3)


class TestBlockwiseExtension:
    def test_long_messages_decode_exactly(self):
        import random

        rng = random.Random(77)
        for _ in range(25):
            blocks = rng.randrange(1, 6)
            w1 = tuple(rng.getrandbits(1) for _ in range(4 * blocks))
            w2 = tuple(rng.getrandbits(1) for _ in range(4 * blocks))
            coins = tuple(rng.choice((1, 2)) for _ in range(blocks))
            for theta in (1, 2):
                download, decoded = linear_retrieve_long(theta, w1, w2, coins)
                assert decoded == (w1 if theta == 1 else w2)
                assert download == 6 * blocks

    def test_length_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            linear_retrieve_long(1, (0,) * 6, (0,) * 6, (1,))
        with pytest.raises(ValueError, match="coin"):
            linear_retrieve_long(1, (0,) * 8, (0,) * 8, (1,))


class TestReplicated:
    def test_both_databases_store_everything(self):
        m = LinearMessages((1, 0, 1, 0), (0, 0, 1, 1))
        s1, s2 = replicated_store(m)
        assert s1 == s2 == (1, 0, 1, 0, 0, 0, 1, 1)

    def test_overhead_is_two(self):
        bits = ideal_storage_bits(replicated_descriptor())
        assert bits == [8.0, 8.0]
        assert sum(bits) / (2 * 4) == 2.0

    def test_rate_one_half(self):
        scheme = replicated_descriptor()
        download = measure_rate(scheme)["expected_symbol_download_per_block"]
        assert F(scheme.block_length) / download == F(1, 2)

    def test_private_by_constant_query(self):
        assert check_privacy(replicated_descriptor())["pass"]


class TestLinearPrivacy:
    def test_views_identical_across_desired_index(self):
        assert check_privacy(linear_descriptor())["pass"]


class TestSymmetrize:
    def test_rejects_multiround(self):
        with pytest.raises(ValueError, match="single-round"):
            symmetrize(multiround_descriptor())

    def test_linear_scheme_is_fixed_point_on_metrics(self):
        scheme = linear_descriptor()
        symmetric = symmetrize(scheme)
        assert symmetric.block_length == 8
        profile = scheme_profile(symmetric)
        assert profile["storage_bits"] == [12.0, 12.0]
        alpha = sum(profile["storage_bits"]) / (2 * symmetric.block_length)
        assert alpha == 1.5
        rate = F(symmetric.block_length) / profile["expected_symbol_download"][1]
        assert rate == F(2, 3)

    def test_toy_becomes_symmetric(self):
        # The lopsided starting point; the symmetrised profile (14 + 14
        # storage bits, 6-bit answers, rate 2/3, alpha 1.75) is pinned by
        # test_acceptance.py::test_criterion_10_symmetrization.
        before = scheme_profile(asymmetric_toy_descriptor())
        assert before["storage_bits"] == [8.0, 6.0]
        assert before["answer_entropy"][(1, 1)] == pytest.approx(4.0)
        assert before["answer_entropy"][(1, 2)] == pytest.approx(2.0)

    def test_double_application_keeps_structure(self):
        # Spot checks only: the doubly combined state space is too large to
        # exhaust, but per-session structure and rate must be unchanged.
        twice = symmetrize(symmetrize(linear_descriptor()))
        assert twice.block_length == 16
        msg, _ = next(iter(twice.message_space()))
        f, _ = next(iter(twice.randomness_space()))
        stored = twice.store(msg)
        assert len(stored[0]) == len(stored[1]) == 24
        for theta in (1, 2):
            record = twice.run(msg, theta, f)
            assert record.download_bits == 24
            assert record.decoded == msg[theta - 1]

    def test_correctness_preserved(self):
        symmetric = symmetrize(asymmetric_toy_descriptor())
        for msg, _ in list(symmetric.message_space())[:64]:
            for f, _ in symmetric.randomness_space():
                for theta in (1, 2):
                    assert symmetric.run(msg, theta, f).decoded == msg[theta - 1]
