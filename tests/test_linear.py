"""Linear scheme storage/retrieval, replication baseline, symmetrization."""

import dataclasses
import re
from fractions import Fraction
from itertools import islice, product
from typing import NamedTuple

import pytest

from pirlab import audit, linear
from pirlab.audit import (
    _correctness,
    _download,
    _privacy,
    _storage,
    _tabulate,
    _views,
    build_audit_report,
    check_privacy,
    exhaustive_correctness,
    measure_overhead,
    measure_rate,
    scheme_profile,
    symmetrized_profiles,
)
from pirlab.capacity import PirParameters
from pirlab.descriptor import SchemeDescriptor, SessionRecord
from pirlab.linear import (
    PATTERNS,
    asymmetric_toy_descriptor,
    db1_answer,
    db2_answer,
    db2_selector,
    gf2_rank,
    linear_decode,
    linear_descriptor,
    linear_storage_entropy_bits,
    linear_store,
    replicated_descriptor,
    symmetrize,
)
from pirlab.multiround import multiround_descriptor

F = Fraction


def faulty_component() -> SchemeDescriptor:
    """A 1-bit-block component that fails both verdicts, for composition.

    Each message bit is 1 with probability 1/4 and the coin is 1 with
    probability 3/4. DB1 stores both bits and answers the desired one, so
    its view reveals theta whenever the bits differ. DB2 stores their XOR
    and answers it on coin 1. Decoding flips the bit for theta = 2, coin 1.
    """
    bit = {0: F(3, 4), 1: F(1, 4)}

    def message_space():
        for w1, w2 in product((0, 1), repeat=2):
            yield ((w1,), (w2,)), bit[w1] * bit[w2]

    def randomness_space():
        yield 0, F(1, 4)
        yield 1, F(3, 4)

    def store(msg):
        (w1,), (w2,) = msg
        return ((w1, w2), (w1 ^ w2,))

    def run(msg, theta, f):
        (w1,), (w2,) = msg
        want = msg[theta - 1]
        return SessionRecord(
            queries=(("w",), (f,)),
            answers=(want, (w1 ^ w2,) if f else (None,)),
            decoded=(1 - want[0],) if (theta, f) == (2, 1) else want,
        )

    return SchemeDescriptor("faulty", PirParameters(2, 2, 1), message_space, randomness_space, store, run)


def overlap_component() -> SchemeDescriptor:
    """``faulty_component`` with views that differ at both databases over
    partly shared supports: DB1's query is theta on coin 1 and "s" on coin 0,
    DB2's the reverse. A product's two factors then both differ, and each
    holds outcomes that only one theta's law has."""
    faulty = faulty_component()

    def run(msg, theta, f):
        return faulty.run(msg, theta, f)._replace(queries=((theta,) if f else ("s",), ("s",) if f else (theta,)))

    return dataclasses.replace(faulty, name="overlap", run=run)


class TestStore:
    def test_all_zero_messages(self):
        stored = linear_store((0, 0, 0, 0), (0, 0, 0, 0))
        assert stored == ((0,) * 6, (0,) * 6)

    def test_single_bits_propagate(self):
        s1, s2 = linear_store((1, 0, 0, 0), (0, 1, 0, 0))
        assert s1 == (1, 0, 0, 0, 1, 0)
        assert s2 == (0, 0, 1, 0, 0, 1)

    def test_storage_entropy_is_six_bits_each(self):
        assert linear_storage_entropy_bits() == (6.0, 6.0)
        # Independent route: exhaustive enumeration instead of rank.
        assert measure_overhead(linear_descriptor())["ideal_bits_per_block"] == [6.0, 6.0]

    def test_rank_helper(self):
        assert gf2_rank([0b1, 0b10, 0b11]) == 2
        assert gf2_rank([]) == 0
        assert gf2_rank([0b101, 0b011, 0b110]) == 2

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError, match="^a must be a 4-bit tuple$"):
            linear_store((1, 0), (0, 0, 0, 0))

    def test_non_bit_entry_rejected(self):
        with pytest.raises(ValueError, match="^b must be a 4-bit tuple$"):
            linear_store((0, 0, 0, 0), (0, 2, 0, 0))


class TestRetrieve:
    def test_pattern1_want_first(self):
        a, b = (1, 0, 1, 1), (0, 1, 1, 0)
        record = linear_descriptor().run((a, b), 1, 1)
        d1, d2 = record.answers
        assert d1 == (a[0], b[0], a[1] ^ b[1])
        assert d2 == (a[3], b[1], a[2] ^ b[0])
        assert record.decoded == a

    def test_pattern2_want_second(self):
        a, b = (1, 1, 0, 0), (1, 0, 0, 1)
        record = linear_descriptor().run((a, b), 2, 2)
        d1, d2 = record.answers
        assert d1 == (a[2], b[2], a[3] ^ b[3])
        assert d2 == (a[3], b[1], a[2] ^ b[0])
        assert record.decoded == b

    def test_exhaustive_zero_error(self):
        scheme = linear_descriptor()
        cases = 0
        for bits in product((0, 1), repeat=8):
            a, b = bits[:4], bits[4:]
            for pattern in (1, 2):
                for theta in (1, 2):
                    assert scheme.run((a, b), theta, pattern).decoded == (a if theta == 1 else b)
                    cases += 1
        assert cases == 1024

    @pytest.mark.parametrize(
        "theta, pattern, message", [(3, 1, "theta must be 1 or 2"), (1, 3, "pattern must be 1 or 2")]
    )
    def test_bad_theta_or_pattern_rejected(self, theta, pattern, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            linear_descriptor().run(((0, 0, 0, 0), (0, 0, 0, 0)), theta, pattern)

    def test_plans_give_the_sessions_of_the_protocol_helpers(self):
        scheme = linear_descriptor()
        for bits in product((0, 1), repeat=8):
            a, b = bits[:4], bits[4:]
            s1, s2 = linear_store(a, b)
            for theta, pattern in product((1, 2), PATTERNS):
                selector = db2_selector(pattern, theta)
                d1, d2 = db1_answer(pattern, s1), db2_answer(selector, s2)
                want = SessionRecord(
                    queries=((pattern,), (selector,)),
                    answers=(d1, d2),
                    decoded=linear_decode(theta, pattern, d1, d2),
                )
                assert scheme.run((a, b), theta, pattern) == want

    @pytest.mark.parametrize(
        "theta, pattern, message",
        [([1], 1, "theta must be 1 or 2"), (3, 5, "theta must be 1 or 2"), (2, [1], "pattern must be 1 or 2")],
    )
    def test_theta_refused_before_pattern(self, theta, pattern, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            linear_descriptor().run(((0, 0, 0, 0), (0, 0, 0, 0)), theta, pattern)

    def test_download_is_six_bits(self):
        scheme = linear_descriptor()
        download = measure_rate(scheme)["expected_symbol_download_per_block"]
        assert download == 6
        assert F(scheme.block_length) / download == F(2, 3)


class FourBits(NamedTuple):
    b1: int
    b2: int
    b3: int
    b4: int


BLOCK_CORPUS = [
    (0, 1, 0, 1),
    (True, False, 1, 0),
    (1.0, 0, 0, 0),
    FourBits(1, 0, 1, 1),
    [1, 0, 0, 0],
    (0, 1, 0),
    (0, 1, 0, 1, 0),
    (2, 0, 0, 0),
    ("1", 0, 0, 0),
    (None, 0, 0, 0),
    ([0], 0, 0, 0),
    None,
    "0101",
]

# The uniform message space of the three 4-bit schemes, in product order.
UNIFORM_MESSAGES = [((b[:4], b[4:]), Fraction(1, 256)) for b in product((0, 1), repeat=8)]


class TestMessageSpace:
    @pytest.mark.parametrize("factory", [linear_descriptor, replicated_descriptor, asymmetric_toy_descriptor])
    def test_listed_in_product_order(self, factory):
        assert list(factory().message_space()) == UNIFORM_MESSAGES

    def test_listings_yield_the_same_objects(self):
        # One listed tuple: a store-memo hit on a listed message compares by identity.
        first = list(linear_descriptor().message_space())
        assert len({id(p) for _, p in first}) == 1
        for factory in (linear_descriptor, replicated_descriptor, asymmetric_toy_descriptor):
            scheme = factory()
            for listing in (list(scheme.message_space()), list(scheme.message_space())):
                assert all(m is n and p is q for (m, p), (n, q) in zip(first, listing, strict=True))

    def test_symmetrised_listing_unchanged(self):
        expected = [
            ((a1 + a2, b1 + b2), p1 * p2)
            for ((a1, b1), p1), ((a2, b2), p2) in islice(product(UNIFORM_MESSAGES, repeat=2), 1100)
        ]
        assert list(islice(symmetrize(linear_descriptor()).message_space(), 1100)) == expected


class TestChecking:
    """Blocks are checked at the public entry point and once per message per
    descriptor; what the memo holds never outlives its descriptor."""

    @pytest.mark.parametrize("factory", [linear_descriptor, asymmetric_toy_descriptor, replicated_descriptor])
    @pytest.mark.parametrize("call", ["store", "run"])
    @pytest.mark.parametrize(
        "msg, name",
        [
            (((1, 0), (0, 0, 0, 0)), "a"),
            (((0, 0, 0, 0), (0, 2, 0, 0)), "b"),
            (([0, 0, 0, 0], (0, 0, 0, 0)), "a"),
            (((0, 0, 0, 0), [0, 1, 0, 0]), "b"),
        ],
        ids=["short", "entry-2", "list-a", "list-b"],
    )
    def test_malformed_message_refused(self, factory, call, msg, name):
        scheme = factory()
        scheme.store(((0, 0, 0, 0), (0, 0, 0, 0)))  # a warm memo refuses it too
        with pytest.raises(ValueError, match=f"^{name} must be a 4-bit tuple$"):
            scheme.store(msg) if call == "store" else scheme.run(msg, 1, 1)

    @pytest.mark.parametrize("factory", [linear_descriptor, asymmetric_toy_descriptor, replicated_descriptor])
    @pytest.mark.parametrize("call", ["store", "run"])
    @pytest.mark.parametrize("msg", [((0, 0, 0, 0),), 5, ((0, 0, 0, 0),) * 3], ids=["one-block", "int", "three-blocks"])
    def test_message_that_is_not_a_pair_refused(self, factory, call, msg):
        scheme = factory()
        with pytest.raises(ValueError, match=f"^message must be a pair of blocks, got {re.escape(repr(msg))}$"):
            scheme.store(msg) if call == "store" else scheme.run(msg, 1, 1)

    def test_list_block_refused_by_linear_store(self):
        with pytest.raises(ValueError, match="^a must be a 4-bit tuple$"):
            linear_store([1, 0, 0, 0], (0, 0, 0, 0))

    @pytest.mark.parametrize("bits", BLOCK_CORPUS, ids=repr)
    def test_block_check_accepts_what_the_tuple_predicate_accepts(self, bits):
        # The reference is the element-by-element predicate that the one
        # lookup in the set of valid blocks replaced.
        accepted = isinstance(bits, tuple) and len(bits) == 4 and all(b in (0, 1) for b in bits)
        try:
            stored = linear_store(bits, (0, 0, 0, 0))
        except ValueError as error:
            assert not accepted and str(error) == "a must be a 4-bit tuple"
        except TypeError:
            # A float bit equals an int bit, so it passes the check, as it
            # passed the predicate, and then fails at the first XOR.
            assert accepted and any(type(b) is float for b in bits)
        else:
            # With b = 0, each stored XOR is the a bit itself.
            a1, a2, a3, a4 = bits
            assert accepted and stored == ((a1, a3, 0, 0, a2, a4), (a2, a4, 0, 0, a3, a1))

    @pytest.fixture
    def checks(self, monkeypatch):
        names = []
        check = linear._check_block

        def counted(name, bits):
            names.append(name)
            check(name, bits)

        monkeypatch.setattr(linear, "_check_block", counted)
        return names

    def test_audit_report_checks_each_message_once(self, checks):
        assert build_audit_report(linear_descriptor())["pass"]
        assert len(checks) == 2 * 256

    def test_replicated_audit_checks_each_message_once(self, checks):
        assert build_audit_report(replicated_descriptor())["pass"]
        assert len(checks) == 2 * 256

    def test_symmetrised_audits_check_each_message_once_per_descriptor(self, checks):
        # The four exact audits of one symmetrize(linear) store each of the
        # component's 256 messages once; a second descriptor starts cold.
        for _ in range(2):
            checks.clear()
            scheme = symmetrize(linear_descriptor())
            for measure in (check_privacy, exhaustive_correctness, measure_rate, measure_overhead):
                measure(scheme)
            assert len(checks) == 2 * 256


class TestReplicated:
    def test_both_databases_store_everything(self):
        s1, s2 = replicated_descriptor().store(((1, 0, 1, 0), (0, 0, 1, 1)))
        assert s1 == s2 == (1, 0, 1, 0, 0, 0, 1, 1)

    def test_overhead_is_two(self):
        bits = measure_overhead(replicated_descriptor())["ideal_bits_per_block"]
        assert bits == [8.0, 8.0]
        assert sum(bits) / (2 * 4) == 2.0

    def test_rate_one_half(self):
        scheme = replicated_descriptor()
        download = measure_rate(scheme)["expected_symbol_download_per_block"]
        assert F(scheme.block_length) / download == F(1, 2)

    def test_private_by_constant_query(self):
        assert check_privacy(replicated_descriptor())["pass"]


class TestThetaAndCoinRefused:
    """Every single-round scheme refuses a desired index other than 1 or 2,
    and a coin it does not declare, before it answers."""

    MSG = ((0, 0, 0, 0), (1, 1, 1, 1))

    @pytest.mark.parametrize("factory", [linear_descriptor, replicated_descriptor, asymmetric_toy_descriptor])
    @pytest.mark.parametrize("theta", [0, -1, 3, [1]], ids=["0", "-1", "3", "list"])
    def test_theta_outside_one_and_two_refused(self, factory, theta):
        scheme = factory()
        coin = next(iter(scheme.randomness_space()))[0]
        with pytest.raises(ValueError, match="^theta must be 1 or 2$"):
            scheme.run(self.MSG, theta, coin)

    @pytest.mark.parametrize("f", [2, 5, -1, [0]], ids=["2", "5", "-1", "list"])
    def test_toy_coin_outside_zero_and_one_refused(self, f):
        with pytest.raises(ValueError, match="^coin must be 0 or 1$"):
            asymmetric_toy_descriptor().run(self.MSG, 1, f)

    def test_toy_refuses_theta_before_the_coin(self):
        with pytest.raises(ValueError, match="^theta must be 1 or 2$"):
            asymmetric_toy_descriptor().run(self.MSG, 3, 5)

    def test_toy_answers_the_coin_selected_half(self):
        scheme = asymmetric_toy_descriptor()
        for msg, _ in scheme.message_space():
            s2 = linear_store(*msg)[1]
            for theta, f in product((1, 2), (0, 1)):
                want = msg[theta - 1]
                queries = ((f"m{theta}",), (f"half{f}",))
                assert scheme.run(msg, theta, f) == (queries, (want, s2[2 * f:2 * f + 2]), want)

    def test_replicated_answers_everything_from_db1(self):
        scheme = replicated_descriptor()
        for msg, _ in scheme.message_space():
            a, b = msg
            for theta in (1, 2):
                assert scheme.run(msg, theta, 0) == ((("all",), ()), (a + b, ()), msg[theta - 1])

    @pytest.mark.parametrize("f", [1, -1, [0]], ids=["1", "-1", "list"])
    def test_replicated_coin_other_than_zero_refused(self, f):
        with pytest.raises(ValueError, match="^coin must be 0$"):
            replicated_descriptor().run(self.MSG, 1, f)

    @pytest.mark.parametrize("factory", [linear_descriptor, replicated_descriptor, asymmetric_toy_descriptor])
    def test_malformed_message_refused_before_theta(self, factory):
        # Each session reads its checked storage before its plan.
        with pytest.raises(ValueError, match="^b must be a 4-bit tuple$"):
            factory().run(((0, 0, 0, 0), (0, 1)), 3, 7)


class TestLinearPrivacy:
    def test_views_identical_across_desired_index(self):
        assert check_privacy(linear_descriptor())["pass"]


class TestSymmetrize:
    def test_rejects_multiround(self):
        with pytest.raises(ValueError, match="single-round"):
            symmetrize(multiround_descriptor())

    def test_rejects_side_information(self):
        scheme = dataclasses.replace(linear_descriptor(), side_information=lambda msg, f: ((), ()))
        with pytest.raises(ValueError, match="no side information"):
            symmetrize(scheme)

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
            assert sum(map(len, record.answers)) == 24
            assert record.decoded == msg[theta - 1]


def same(a, b) -> bool:
    """Equal structures: rationals and counts exactly, entropies (floats)
    to rounding, since a sum of two entropies may differ in the last bit."""
    if isinstance(a, float):
        return a == pytest.approx(b, rel=1e-12)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


class TestComposition:
    """A symmetrised scheme is audited by one pass over its component; the
    composed results equal the enumerated ones."""

    @pytest.mark.parametrize(
        "measure",
        [check_privacy, exhaustive_correctness, measure_rate, measure_overhead, scheme_profile],
    )
    def test_composed_equals_enumerated(self, measure, monkeypatch):
        symmetric = symmetrize(faulty_component())
        # Without the declaration the product's 64 sessions are enumerated;
        # with it, a limit of the component's 8 sessions is enough.
        with monkeypatch.context() as m:
            m.setattr(audit, "EXHAUSTION_LIMIT", 8)
            composed = measure(symmetric)
        assert same(composed, measure(dataclasses.replace(symmetric, product=None)))

    def test_faulty_component_fails_in_composition(self, monkeypatch):
        monkeypatch.setattr(audit, "EXHAUSTION_LIMIT", 8)
        symmetric = symmetrize(faulty_component())
        privacy = check_privacy(symmetric)
        assert [db["total_variation"][(1, 2)] for db in privacy["databases"]] == [F(3, 8), F(3, 8)]
        # Per theta, 16 messages x 4 coin pairs; at theta = 2 every message
        # fails on the 3 coin pairs that hold a 1: 48 errors.
        assert exhaustive_correctness(symmetric) == {"cases": 128, "errors": 48, "pass": False}

    def test_composed_privacy_over_partly_shared_supports(self, monkeypatch):
        # The product's total variation sums over outcomes missing from one
        # factor's table; composed, it equals the enumerated 64 sessions.
        symmetric = symmetrize(overlap_component())
        enumerated = check_privacy(dataclasses.replace(symmetric, product=None))
        monkeypatch.setattr(audit, "EXHAUSTION_LIMIT", 8)
        privacy = check_privacy(symmetric)
        assert privacy == enumerated
        assert [db["total_variation"][(1, 2)] for db in privacy["databases"]] == [F(113, 128), F(113, 128)]

    def test_symmetrized_profiles_of_a_product_enumerate_it(self):
        # A product cannot be composed again from its own pass: its profile
        # is enumerated, and its symmetrisation composed from that.
        symmetric = symmetrize(faulty_component())
        assert same(symmetrized_profiles(symmetric), (scheme_profile(symmetric), scheme_profile(symmetrize(symmetric))))

    def test_one_exhaustive_pass_over_the_symmetrised_toy(self):
        # The oracle: the composed privacy, correctness, rate and storage
        # equal one enumeration of all 262,144 sessions per theta of
        # symmetrize(asymmetric_toy), which decodes every one of them; a
        # replaced run is what gets enumerated. Its composed scheme_profile
        # is pinned by the reproduce-ideal golden digest, recorded when
        # criterion 10 enumerated it.
        symmetric = symmetrize(asymmetric_toy_descriptor())
        runs = []

        def run(msg, theta, f):
            runs.append(theta)
            return symmetric.run(msg, theta, f)

        oracle = dataclasses.replace(symmetric, run=run)
        thetas = (1, 2)
        views, correctness, download, storage = _tabulate(oracle, thetas, [
            _views(oracle, thetas), _correctness(oracle, thetas), _download(oracle), _storage(oracle),
        ])
        assert len(runs) == 2 * 262_144
        assert correctness == {"cases": 2 * 262_144, "errors": 0, "pass": True}
        assert check_privacy(symmetric) == _privacy(oracle, views)
        assert exhaustive_correctness(symmetric) == correctness
        assert measure_rate(symmetric) == download
        assert measure_overhead(symmetric)["ideal_bits_per_block"] == storage

    def test_replaced_run_is_enumerated(self, monkeypatch):
        # Composed, this would read the component's 48 errors; enumerated,
        # the replacement's decoder fails every theta = 1 session as well.
        symmetric = symmetrize(faulty_component())

        def broken(msg, theta, f):
            record = symmetric.run(msg, theta, f)
            return record._replace(decoded=tuple(1 - b for b in record.decoded)) if theta == 1 else record

        assert exhaustive_correctness(dataclasses.replace(symmetric, run=broken)) == {
            "cases": 128, "errors": 112, "pass": False,
        }
        # A replaced run of symmetrize(linear) is not composed either: the
        # 512-session limit that the composed pass fits is refused.
        symmetric = symmetrize(linear_descriptor())
        monkeypatch.setattr(audit, "EXHAUSTION_LIMIT", 512)
        assert exhaustive_correctness(symmetric)["pass"]
        with pytest.raises(ValueError, match="exceeds the exhaustion limit"):
            exhaustive_correctness(dataclasses.replace(symmetric, run=lambda *args: symmetric.run(*args)))

    def test_nested_product_is_enumerated(self, monkeypatch):
        # 4,096 sessions, against 64 for its component, itself a product.
        twice = symmetrize(symmetrize(faulty_component()))
        with monkeypatch.context() as m:
            m.setattr(audit, "EXHAUSTION_LIMIT", 64)
            with pytest.raises(ValueError, match="exceeds the exhaustion limit"):
                exhaustive_correctness(twice)
        assert exhaustive_correctness(twice)["cases"] == 2 * 4_096

    def test_limit_applies_to_the_component_pass(self, monkeypatch):
        # 256 messages x 2 coins; the product's 262,144 sessions per theta
        # are never listed.
        symmetric = symmetrize(linear_descriptor())
        monkeypatch.setattr(audit, "EXHAUSTION_LIMIT", 512)
        assert check_privacy(symmetric)["pass"]
        monkeypatch.setattr(audit, "EXHAUSTION_LIMIT", 511)
        with pytest.raises(ValueError, match="exceeds the exhaustion limit"):
            check_privacy(symmetric)
