"""Capacity formula, overhead accounting, and admissibility oracle."""

import math
from fractions import Fraction

import pytest

from pirlab.capacity import (
    PirParameters,
    check_rate_admissible,
    mtpir_capacity,
    storage_overhead,
)

F = Fraction


class TestParameters:
    def test_collusion_above_databases_rejected(self):
        with pytest.raises(ValueError, match="T <= N"):
            PirParameters(num_messages=2, num_databases=2, collusion=3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            PirParameters(num_messages=0, num_databases=2)
        with pytest.raises(ValueError):
            PirParameters(num_messages=2, num_databases=2, rounds=0)


class TestCapacity:
    @pytest.mark.parametrize(
        "k, n, t, expected",
        [
            (2, 2, 1, F(2, 3)),
            (1, 5, 1, F(1)),
            (1, 3, 2, F(1)),
            (3, 2, 1, F(4, 7)),  # 1 / (1 + 1/2 + 1/4)
            (3, 4, 4, F(1, 3)),  # T = N collapses to 1/K
        ],
    )
    def test_values(self, k, n, t, expected):
        assert mtpir_capacity(PirParameters(k, n, t)) == expected

    def test_independent_of_rounds(self):
        for rounds in (1, 2, 7):
            assert mtpir_capacity(PirParameters(2, 2, 1, rounds)) == F(2, 3)

    def test_closed_form_equals_the_series(self):
        for k in range(1, 13):
            for n in range(1, 7):
                for t in range(1, n + 1):
                    ratio = F(t, n)
                    series = sum((ratio**i for i in range(k)), F(0))
                    assert mtpir_capacity(PirParameters(k, n, t)) == 1 / series

    def test_many_messages(self):
        # 2^(K-1) / (2^K - 1) at T/N = 1/2, from one power instead of K terms.
        k = 10**6
        assert mtpir_capacity(PirParameters(k, 2, 1)) == F(2 ** (k - 1), 2**k - 1)


class TestOverhead:
    def test_replicated(self):
        assert storage_overhead((8.0, 8.0), message_length=4, num_messages=2) == 2.0

    def test_linear(self):
        assert storage_overhead((6.0, 6.0), message_length=4, num_messages=2) == 1.5

    def test_multiround_ideal(self):
        L = 1
        alpha = storage_overhead((1.5 * L, 0.75 * math.log2(3) * L), message_length=L, num_messages=2)
        expected = 0.75 + 0.375 * math.log2(3)
        assert alpha == pytest.approx(expected, abs=1e-9)
        assert alpha == pytest.approx(1.34436, abs=1e-5)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="message_length must be positive"):
            storage_overhead((1.0,), message_length=0, num_messages=2)

    def test_no_messages_rejected(self):
        with pytest.raises(ValueError, match="num_messages must be at least 1"):
            storage_overhead((1.0,), message_length=4, num_messages=0)

    def test_negative_storage_rejected(self):
        with pytest.raises(ValueError, match="storage entries must be non-negative"):
            storage_overhead((-1.0,), message_length=4, num_messages=2)


class TestAdmissibility:
    def test_boundary_rate_passes(self):
        assert check_rate_admissible(F(2, 3), PirParameters(2, 2, 1))

    def test_excess_rate_fails(self):
        assert not check_rate_admissible(F(1), PirParameters(2, 2, 1))

    def test_three_message_boundary(self):
        assert check_rate_admissible(F(4, 7), PirParameters(3, 2, 1))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            check_rate_admissible(F(-1, 2), PirParameters(2, 2, 1))
