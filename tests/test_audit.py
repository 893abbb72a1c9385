"""Audit engine: exact views, privacy verdicts, measurements, reports."""

import dataclasses
import json
import math
import re
from fractions import Fraction
from functools import partial
from itertools import islice, product

import pytest

from pirlab import audit, multiround, reproduce
from pirlab.audit import (
    answer_stream_models,
    build_audit_report,
    check_privacy,
    conditional_mutual_information,
    enumerate_view,
    exhaustive_correctness,
    fraction_str,
    measure_overhead,
    measure_rate,
    real_str,
    scheme_profile,
    symmetrized_profiles,
    upload_bits,
    verify_converse_bounds,
    verify_entropy_identities,
)
from pirlab.capacity import PirParameters
from pirlab.coding import CodecConfig, SourceModel
from pirlab.descriptor import SchemeDescriptor, SessionRecord, session_record
from pirlab.dist import ExactDist, conditional_entropy, marginal
from pirlab.linear import asymmetric_toy_descriptor, linear_descriptor, replicated_descriptor, symmetrize
from pirlab.multiround import multiround_descriptor, sw_failure_rate
from pirlab.seeds import derive_seed

F = Fraction
TOL = 1e-9


def oracle_db2_view(theta, bias=F(1, 2), replicated=False):
    """Independent enumeration of DB2's view over the 8 (w1, w2, coin) triples.

    Recomputes the protocol rules inline; shares no code with the package
    beyond bit arithmetic.
    """
    weights = {}
    for w1, w2, coin in product((0, 1), repeat=3):
        p = (bias if w1 else 1 - bias) * (bias if w2 else 1 - bias) * F(1, 2)
        x1, x2 = w1 & w2, (1 - w1) & (1 - w2)
        y1, y2 = w1 & (1 - w2), (1 - w1) & w2
        answered = x1 if coin == 0 else x2
        if answered == 1:
            query, answer = None, None
        elif (coin == 0 and theta == 1) or (coin == 1 and theta == 2):
            query, answer = "y1", y1
        else:
            query, answer = "y2", y2
        stored = (w1, w2) if replicated else (y1, y2)
        key = (query,) + stored + (answer,)
        weights[key] = weights.get(key, F(0)) + p
    return weights


def oracle_tv(view1, view2):
    outcomes = set(view1) | set(view2)
    return sum(abs(view1.get(o, F(0)) - view2.get(o, F(0))) for o in outcomes) / 2


class TestEnumerateView:
    def test_db2_view_matches_oracle_exactly(self):
        for theta in (1, 2):
            view = enumerate_view(multiround_descriptor(), theta=theta, database=2)
            assert dict(view.items()) == oracle_db2_view(theta)

    def test_db1_view_independent_of_theta(self):
        scheme = multiround_descriptor()
        v1 = enumerate_view(scheme, theta=1, database=1)
        v2 = enumerate_view(scheme, theta=2, database=1)
        assert v1 == v2

    def test_linear_db1_view_independent_of_theta(self):
        scheme = linear_descriptor()
        v1 = enumerate_view(scheme, theta=1, database=1)
        v2 = enumerate_view(scheme, theta=2, database=1)
        assert v1 == v2

    def test_exhaustion_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(audit, "EXHAUSTION_LIMIT", 100)
        with pytest.raises(ValueError, match="exhaustion"):
            enumerate_view(linear_descriptor(), theta=1, database=1)

    def test_limit_refused_before_the_message_space_is_listed(self, monkeypatch):
        # 65,536 messages x 4 coins: the refusal may draw 511 // 4 + 1 = 128
        # messages, never the whole space.
        scheme = dataclasses.replace(symmetrize(linear_descriptor()), product=None)
        drawn = 0

        def message_space():
            nonlocal drawn
            for item in scheme.message_space():
                drawn += 1
                yield item

        monkeypatch.setattr(audit, "EXHAUSTION_LIMIT", 511)
        with pytest.raises(ValueError, match="exceeds the exhaustion limit of 511"):
            check_privacy(dataclasses.replace(scheme, message_space=message_space))
        assert 0 < drawn <= 512

    def test_bad_database_rejected(self):
        with pytest.raises(ValueError, match="database"):
            enumerate_view(multiround_descriptor(), theta=1, database=3)

    @pytest.mark.parametrize("space", ["message_space", "randomness_space"])
    def test_empty_space_refused(self, space):
        # Every table would be empty: no overhead of 0, no missing view. The
        # block length, read from the first message, is refused alike.
        scheme = dataclasses.replace(linear_descriptor(), **{space: lambda: iter(())})
        concrete = partial(build_audit_report, mode="concrete", L=8, trials=1)
        for measure in (measure_overhead, check_privacy, measure_rate, scheme_profile, concrete):
            with pytest.raises(ValueError, match="'linear' has an empty message or randomness space"):
                measure(scheme)


class TestPrivacy:
    def test_multiround_passes_exactly(self):
        result = check_privacy(multiround_descriptor())
        assert result["pass"]
        for entry in result["databases"]:
            assert entry["total_variation"][(1, 2)] == 0

    def test_linear_passes_exactly(self):
        assert check_privacy(linear_descriptor())["pass"]

    def test_replicated_storage_variant_fails(self):
        result = check_privacy(multiround_descriptor(storage="replicated"))
        assert not result["pass"]
        tv = result["databases"][1]["total_variation"][(1, 2)]
        oracle = oracle_tv(
            oracle_db2_view(1, replicated=True), oracle_db2_view(2, replicated=True)
        )
        assert tv == oracle == F(1, 4)
        # DB1 stays clean even in the broken variant.
        assert result["databases"][0]["pass"]

    def test_biased_messages_fail(self):
        result = check_privacy(multiround_descriptor(bias=F(3, 4)))
        assert not result["pass"]
        tv = result["databases"][1]["total_variation"][(1, 2)]
        oracle = oracle_tv(
            oracle_db2_view(1, bias=F(3, 4)), oracle_db2_view(2, bias=F(3, 4))
        )
        assert tv == oracle == F(1, 4)
        assert result["databases"][0]["pass"]

    @pytest.mark.parametrize("measure", [check_privacy, build_audit_report])
    def test_collusion_above_one_refused_before_any_session(self, measure):
        # Views are audited one database at a time, so a per-database pass
        # would say nothing of linear's two-database joint view (TV 1).
        runs = []
        scheme = dataclasses.replace(
            linear_descriptor(), params=PirParameters(2, 2, 2), run=lambda *session: runs.append(session)
        )
        with pytest.raises(ValueError, match=r"^privacy is audited per database; T = 2 > 1 is refused$"):
            measure(scheme)
        assert runs == []

    def test_collusion_above_one_still_enumerated(self):
        scheme = dataclasses.replace(linear_descriptor(), params=PirParameters(2, 2, 2))
        assert enumerate_view(scheme, 1, 1) == enumerate_view(linear_descriptor(), 1, 1)


class TestEnumerationCounts:
    """Each public measurement stores each message and runs each
    (message, theta, randomness) triple at most once."""

    @staticmethod
    def counted(scheme):
        calls = {"run": 0, "store": 0}

        def run(msg, theta, f):
            calls["run"] += 1
            return scheme.run(msg, theta, f)

        def store(msg):
            calls["store"] += 1
            return scheme.store(msg)

        return dataclasses.replace(scheme, run=run, store=store), calls

    @pytest.mark.parametrize(
        "measure, runs, stores",
        [
            (check_privacy, 1024, 256),
            (measure_rate, 512, 0),
            (scheme_profile, 1024, None),
            (measure_overhead, 0, 256),
            (exhaustive_correctness, 1024, 0),
            (build_audit_report, 1024, 256),
        ],
        ids=[
            "check_privacy", "measure_rate", "scheme_profile", "measure_overhead",
            "exhaustive_correctness", "build_audit_report",
        ],
    )
    def test_linear_call_counts(self, measure, runs, stores):
        scheme, calls = self.counted(linear_descriptor())
        measure(scheme)
        assert calls["run"] == runs
        if stores is not None:
            assert calls["store"] == stores

    def test_concrete_report_runs_each_triple_once(self):
        # The coded layer's stream and cell models come from the report's
        # own pass: 4 messages x 2 coins x 2 thetas.
        scheme, calls = self.counted(multiround_descriptor())
        build_audit_report(scheme, mode="concrete", L=200, trials=2, sw_blocks=10)
        assert calls == {"run": 16, "store": 4}

    def test_multiround_audit_plays_the_session_kernel(self, monkeypatch):
        # The audited session is run_session's: one call per triple.
        calls = []
        kernel = multiround.run_session

        def counted_session(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(multiround, "run_session", counted_session)
        assert build_audit_report(multiround_descriptor())["pass"]
        assert len(calls) == 16

    def test_criterion_2_plays_every_case_as_its_own_session(self, monkeypatch):
        # 2 * 8^L cases at each L = 1, 2, 3, one run_session call each.
        calls = []
        kernel = multiround.run_session
        assert reproduce.run_session is kernel

        def counted_session(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(reproduce, "run_session", counted_session)
        row = reproduce.criterion_multiround_correctness()
        assert len(calls) == 1168
        assert row["measured"]["cases"] == 1168
        assert row["measured"]["errors"] == 0

    def test_reproduce_enumerates_each_scheme_once(self, monkeypatch):
        # reproduce --mode ideal makes six passes: linear runs 256 messages x
        # 2 patterns x 2 thetas, replicated 256 x 2, the toy 256 x 2 coins x 2
        # (symmetrize(toy) is composed from that pass) and each multiround
        # variant 4 x 2 x 2; each pass stores each message once.
        made, passes = [], []

        def counting(factory):
            def make(*args, **kwargs):
                scheme, calls = self.counted(factory(*args, **kwargs))
                made.append((scheme.name, calls))
                return scheme

            return make

        for name in ("multiround_descriptor", "linear_descriptor", "replicated_descriptor",
                     "asymmetric_toy_descriptor"):
            monkeypatch.setattr(reproduce, name, counting(getattr(reproduce, name)))
        tabulate = audit._tabulate

        def counted_tabulate(scheme, thetas, projections):
            passes.append(scheme.name)
            return tabulate(scheme, thetas, projections)

        monkeypatch.setattr(audit, "_tabulate", counted_tabulate)
        assert reproduce.reproduce_all(mode="ideal")["pass"]
        names = ["asymmetric-toy", "linear", "multiround", "multiround-bias-3-4",
                 "multiround-replicated", "replicated"]
        assert sorted(passes) == names
        assert sorted(name for name, _ in made) == names
        assert dict(made) == {
            "linear": {"run": 1024, "store": 256},
            "replicated": {"run": 512, "store": 256},
            "asymmetric-toy": {"run": 1024, "store": 256},
            "multiround": {"run": 16, "store": 4},
            "multiround-replicated": {"run": 16, "store": 4},
            "multiround-bias-3-4": {"run": 16, "store": 4},
        }

    def test_audit_report_sections_equal_the_reproduce_passes(self):
        # The report and reproduce finish these sections in one place: the
        # same scheme gives the same serialised section from both.
        passes = reproduce.exact_passes()
        for factory in (multiround_descriptor, linear_descriptor, replicated_descriptor):
            scheme = factory()
            report = build_audit_report(scheme)
            for key in ("rate", "overhead", "converse", "entropy_identities"):
                assert report[key] == audit.jsonify(passes[scheme.name][key]), (scheme.name, key)
        assert report["entropy_identities"] is None

    def test_reproduce_passes_equal_the_public_measurements(self):
        passes = reproduce.exact_passes()
        for factory in (multiround_descriptor, linear_descriptor, replicated_descriptor):
            scheme = factory()
            entry = passes[scheme.name]
            assert entry["rate"] == measure_rate(scheme)
            assert entry["overhead"] == measure_overhead(scheme)
            assert entry["converse"] == verify_converse_bounds(scheme)
        multiround = multiround_descriptor()
        assert passes["multiround"]["privacy"] == check_privacy(multiround)
        assert passes["multiround"]["views"][1, 2] == enumerate_view(multiround, theta=1, database=2)
        assert passes["linear"]["entropy_identities"] == verify_entropy_identities(linear_descriptor())
        assert passes["multiround"]["entropy_identities"] is None
        assert passes["replicated"]["entropy_identities"] is None

    def test_one_toy_pass_profiles_the_toy_and_its_symmetrisation(self):
        toy = asymmetric_toy_descriptor()
        assert symmetrized_profiles(toy) == (scheme_profile(toy), scheme_profile(symmetrize(toy)))

    @pytest.mark.parametrize(
        "flag, message",
        [
            ({"sw_blocks": 0}, "blocks must be at least 1, got 0"),
            ({"trials": 0}, "trials must be at least 1"),
            ({"L": 0}, "concrete mode needs a message length L >= 1"),
        ],
        ids=["sw_blocks", "trials", "L"],
    )
    def test_concrete_flags_rejected_before_any_session(self, flag, message):
        scheme, calls = self.counted(multiround_descriptor())
        with pytest.raises(ValueError, match=message):
            build_audit_report(scheme, mode="concrete", **{"L": 200, "trials": 2, "sw_blocks": 10, **flag})
        assert calls == {"run": 0, "store": 0}

    @pytest.mark.parametrize(
        "descriptor, flag",
        [
            (multiround_descriptor, {"sw_blocks": 1.5}),
            (multiround_descriptor, {"trials": 2.5}),
            (multiround_descriptor, {"L": 100.5}),
            (multiround_descriptor, {"trials": True}),
            (linear_descriptor, {"L": 8.0}),
            (linear_descriptor, {"sw_blocks": F(10)}),
        ],
        ids=["sw_blocks-1.5", "trials-2.5", "L-100.5", "trials-True", "linear-L-8.0", "linear-sw_blocks-10/1"],
    )
    def test_non_int_run_sizes_refused_before_any_session(self, descriptor, flag):
        scheme, calls = self.counted(descriptor())
        ((name, value),) = flag.items()
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
            build_audit_report(scheme, mode="concrete", **{"L": 200, "trials": 2, "sw_blocks": 10, **flag})
        assert calls == {"run": 0, "store": 0}

    @pytest.mark.parametrize("mode", ["ideal", "concrete"])
    @pytest.mark.parametrize("seed", [1.5, True, "x"], ids=["1.5", "True", "x"])
    def test_non_int_seed_refused_before_any_session(self, mode, seed):
        # A seed names the coded streams, so 1.5, True and "x" must not stand in for one.
        scheme, calls = self.counted(multiround_descriptor())
        with pytest.raises(ValueError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
            build_audit_report(scheme, mode=mode, **{"L": 200, "trials": 2, "sw_blocks": 10, "seed": seed})
        assert calls == {"run": 0, "store": 0}

    @pytest.mark.parametrize("mode", ["ideal", "concrete"])
    @pytest.mark.parametrize("codec", [5, 0, "16"])
    def test_non_codec_refused_before_any_session(self, mode, codec):
        # A codec sizes the bins; an int or a string must not stand in for one,
        # nor a falsy 0 for the default.
        scheme, calls = self.counted(multiround_descriptor())
        with pytest.raises(ValueError, match=f"^codec must be a CodecConfig, got {re.escape(repr(codec))}$"):
            build_audit_report(scheme, mode=mode, L=200, trials=2, sw_blocks=10, codec=codec)
        assert calls == {"run": 0, "store": 0}

    @pytest.mark.parametrize("mode", ["ideal", "full"])
    def test_reproduce_refuses_a_non_codec_before_any_pass(self, monkeypatch, mode):
        passes = []
        monkeypatch.setattr(reproduce, "exact_passes", lambda: passes.append(1))
        with pytest.raises(ValueError, match="^codec must be a CodecConfig, got 5$"):
            reproduce.reproduce_all(mode=mode, codec=5)
        assert passes == []

    @pytest.mark.parametrize(
        "descriptor, flags, message",
        [
            (multiround_descriptor, {"L": 0}, "concrete mode needs a message length L >= 1"),
            (multiround_descriptor, {"L": -16}, "concrete mode needs a message length L >= 1"),
            (linear_descriptor, {"L": 0}, "concrete mode needs a message length L >= 1"),
            (linear_descriptor, {"L": 10_001}, "L must be a multiple of the native block 4"),
            (linear_descriptor, {"mode": "bogus"}, "mode must be 'ideal' or 'concrete'"),
        ],
        ids=["multiround-L0", "multiround-L-16", "linear-L0", "linear-L10001", "mode"],
    )
    def test_overhead_flags_rejected_before_any_session(self, descriptor, flags, message):
        scheme, calls = self.counted(descriptor())
        with pytest.raises(ValueError, match=message):
            build_audit_report(scheme, **{"mode": "concrete", **flags})
        assert calls == {"run": 0, "store": 0}

    @pytest.mark.parametrize("descriptor", [linear_descriptor, replicated_descriptor])
    @pytest.mark.parametrize(
        "flags, message",
        [
            ({"seed": "x"}, "^seed must be an int, got 'x'$"),
            ({"codec": 5}, "^codec must be a CodecConfig, got 5$"),
            ({"trials": 0}, "^trials must be at least 1$"),
            ({"L": 6}, "^L must be a multiple of the native block 4$"),
        ],
        ids=["seed-x", "codec-5", "trials-0", "L-6"],
    )
    def test_uncoded_audits_refuse_bad_flags_before_any_session(self, descriptor, flags, message):
        # Uncoded schemes take the face-value branch of the concrete rate; the
        # flags are still refused before their pass.
        scheme, calls = self.counted(descriptor())
        with pytest.raises(ValueError, match=message):
            build_audit_report(scheme, **{"mode": "concrete", "L": 8, "trials": 2, "sw_blocks": 10, **flags})
        assert calls == {"run": 0, "store": 0}

    @pytest.mark.parametrize(
        "descriptor, flags, message",
        [
            *(
                (multiround_descriptor, {"mode": mode, "seed": seed},
                 f"^seed must be an int, got {re.escape(repr(seed))}$")
                for seed in (1.5, True, "x") for mode in ("ideal", "concrete")
            ),
            (multiround_descriptor, {"trials": 0}, "^trials must be at least 1$"),
            (multiround_descriptor, {"L": 0}, "^concrete mode needs a message length L >= 1$"),
            (multiround_descriptor, {"trials": 2.5}, r"^trials must be an int, got 2\.5$"),
            (multiround_descriptor, {"L": 100.5}, r"^L must be an int, got 100\.5$"),
            (multiround_descriptor, {"trials": True}, "^trials must be an int, got True$"),
            (linear_descriptor, {"L": 8.0}, r"^L must be an int, got 8\.0$"),
            (linear_descriptor, {"L": 10_001}, "^L must be a multiple of the native block 4$"),
            (linear_descriptor, {"mode": "bogus"}, "^mode must be 'ideal' or 'concrete'$"),
        ],
        ids=[
            *(f"seed-{seed}-{mode}" for seed in ("1.5", "True", "x") for mode in ("ideal", "concrete")),
            "trials-0", "L-0", "trials-2.5", "L-100.5", "trials-True", "linear-L-8.0", "linear-L-10001",
            "mode",
        ],
    )
    def test_measure_rate_refuses_bad_flags_before_any_session(self, descriptor, flags, message):
        # measure_rate reads the audit's rate flags through the same check.
        scheme, calls = self.counted(descriptor())
        with pytest.raises(ValueError, match=message):
            measure_rate(scheme, **{"mode": "concrete", "L": 200, "trials": 2, **flags})
        assert calls == {"run": 0, "store": 0}


class TestCorrectness:
    @pytest.mark.parametrize(
        "descriptor",
        [multiround_descriptor, linear_descriptor, replicated_descriptor],
    )
    def test_zero_errors(self, descriptor):
        result = exhaustive_correctness(descriptor())
        assert result["pass"] and result["errors"] == 0

    def test_errors_counted_per_session(self):
        # Under bias 3/4 the four messages weigh 9/16 down to 1/16; a decoder
        # that fails for theta = 2 and coin (1,) fails in 4 of 16 sessions,
        # whatever their weights.
        scheme = multiround_descriptor(bias=F(3, 4))

        def run(msg, theta, coin):
            record = scheme.run(msg, theta, coin)
            if theta == 2 and coin == (1,):
                record = record._replace(decoded=tuple(1 - b for b in record.decoded))
            return record

        broken = dataclasses.replace(scheme, run=run)
        assert exhaustive_correctness(broken) == {"cases": 16, "errors": 4, "pass": False}


class TestIdealAccounting:
    def test_multiround_download_three_halves(self):
        rate = measure_rate(multiround_descriptor())
        per_db = rate["ideal_download_per_db_per_block"]
        assert per_db[0] == pytest.approx(2 - 0.75 * math.log2(3), abs=TOL)
        assert per_db[1] == pytest.approx(0.75 * (math.log2(3) - 2 / 3), abs=TOL)
        assert rate["ideal_download_per_message_bit"] == pytest.approx(1.5, abs=TOL)

    def test_multiround_storage(self):
        bits = measure_overhead(multiround_descriptor())["ideal_bits_per_block"]
        assert bits[0] == pytest.approx(1.5, abs=TOL)
        assert bits[1] == pytest.approx(0.75 * math.log2(3), abs=TOL)

    @pytest.mark.parametrize(
        "bias, expected",
        [(F(1, 2), F(7, 4)), (F(3, 4), F(27, 16))],
        ids=["uniform", "bias-3-4"],
    )
    def test_expected_symbol_download_seven_quarters(self, bias, expected):
        # 1 + Pr(round 2 is sent) = 1 + 1 - (Pr(x1 = 1) + Pr(x2 = 1)) / 2.
        rate = measure_rate(multiround_descriptor(bias=bias))
        assert rate["expected_symbol_download_per_block"] == expected

    @pytest.mark.parametrize(
        "make, expected",
        [
            (multiround_descriptor, F(7, 4)),
            (linear_descriptor, F(6)),
            (replicated_descriptor, F(8)),
            (asymmetric_toy_descriptor, F(6)),
            (lambda: symmetrize(asymmetric_toy_descriptor()), F(12)),
        ],
        ids=["multiround", "linear", "replicated", "toy", "symmetric-toy"],
    )
    def test_download_is_counted_from_the_answers(self, make, expected):
        # The audit counts each session's answer symbols other than None.
        scheme = make()
        assert measure_rate(scheme)["expected_symbol_download_per_block"] == expected
        assert scheme_profile(scheme)["expected_symbol_download"] == {1: expected, 2: expected}

    @pytest.mark.parametrize(
        "make", [multiround_descriptor, linear_descriptor, replicated_descriptor, asymmetric_toy_descriptor]
    )
    def test_one_more_answer_symbol_is_one_more_download(self, make):
        scheme = make()

        def run(msg, theta, f):
            record = scheme.run(msg, theta, f)
            return record._replace(answers=(record.answers[0], record.answers[1] + (0,)))

        padded = dataclasses.replace(scheme, run=run)
        before, after = measure_rate(scheme), measure_rate(padded)
        assert after["expected_symbol_download_per_block"] == before["expected_symbol_download_per_block"] + 1
        profile = scheme_profile(padded)["expected_symbol_download"]
        assert profile == {t: d + 1 for t, d in scheme_profile(scheme)["expected_symbol_download"].items()}

    def test_linear_ideal(self):
        rate = measure_rate(linear_descriptor())
        assert rate["ideal_download_per_db_per_block"] == [3.0, 3.0]
        assert rate["symbol_rate"] == F(2, 3)
        assert rate["rate_ideal"] == pytest.approx(2 / 3, abs=TOL)

    def test_overhead_values(self):
        assert measure_overhead(multiround_descriptor())["alpha_ideal"] == pytest.approx(
            0.75 + 0.375 * math.log2(3), abs=TOL
        )
        assert measure_overhead(linear_descriptor())["alpha_ideal"] == 1.5
        assert measure_overhead(replicated_descriptor())["alpha_ideal"] == 2.0

    def test_upload_is_informational(self):
        info = upload_bits(multiround_descriptor())
        assert len(info["per_database"]) == 2
        assert info["per_database"][0]["raw_bits"] == 1.0
        # Round-2 query marginal is (1/4, 3/8, 3/8).
        assert info["per_database"][1]["ideal_bits"] == pytest.approx(
            2.75 - 0.75 * math.log2(3), abs=TOL
        )
        assert info["per_database"][1]["raw_bits"] == 2.0


class TestConcreteAccounting:
    def test_session_download_close_to_ideal(self):
        scheme = multiround_descriptor()
        run = scheme.coded.session(theta=1, L=20_000, seed=9, models=answer_stream_models(scheme))
        assert run["decode_errors"] == 0
        assert run["download_bits"] / 20_000 == pytest.approx(1.5, abs=0.03)

    def test_measure_rate_concrete(self):
        stats = measure_rate(
            multiround_descriptor(), mode="concrete", L=5_000, trials=3, seed=1
        )
        mean = stats["concrete"]["download_per_message_bit_mean"]
        low, high = stats["concrete"]["download_per_message_bit_ci95"]
        assert low <= mean <= high
        assert mean == pytest.approx(1.5, abs=0.05)

    def test_linear_concrete_rate_is_exact(self):
        stats = measure_rate(linear_descriptor(), mode="concrete", L=40, trials=2)
        assert stats["concrete"]["download_per_message_bit_mean"] == 1.5

    def test_linear_concrete_requires_block_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            measure_rate(linear_descriptor(), mode="concrete", L=41)

    def test_convergence_toward_ideal(self):
        # Fixed-seed regression: the mean download gap shrinks through
        # L = 1e3, 1e4, 1e5 for this seed and trial schedule.
        gaps = []
        for L, trials in ((1_000, 20), (10_000, 10), (100_000, 2)):
            stats = measure_rate(
                multiround_descriptor(), mode="concrete", L=L, trials=trials, seed=7
            )
            gaps.append(abs(stats["concrete"]["download_per_message_bit_mean"] - 1.5))
        assert gaps[0] > gaps[1] > gaps[2]

    @staticmethod
    def overhead(scheme, **flags):
        """The concrete report's overhead section, its reals read back as floats."""
        flags = {"trials": 1, "sw_blocks": 10, **flags}
        overhead = build_audit_report(scheme, mode="concrete", **flags)["overhead"]
        concrete = overhead["concrete"]
        return {
            "alpha_ideal": float(overhead["alpha_ideal"]),
            "concrete": {
                "L": concrete["L"],
                "bits_per_database": tuple(map(float, concrete["bits_per_database"])),
                "alpha_concrete": float(concrete["alpha_concrete"]),
            },
        }

    def test_report_overhead_concrete(self):
        stats = self.overhead(
            multiround_descriptor(), L=16_000, seed=4,
            codec=CodecConfig(block_length=16, rate_margin=0.15, seed=4),
        )
        db1, db2 = stats["concrete"]["bits_per_database"]
        assert db1 / 16_000 == pytest.approx(1.5, abs=0.02)
        assert db2 / 16_000 == pytest.approx(22 / 16, abs=1e-9)
        assert stats["concrete"]["alpha_concrete"] < 1.5
        assert stats["concrete"]["alpha_concrete"] > stats["alpha_ideal"]

    def test_linear_concrete_overhead_raw_bits(self):
        stats = self.overhead(linear_descriptor())
        assert stats["concrete"]["bits_per_database"] == (15_000.0, 15_000.0)
        assert stats["concrete"]["alpha_concrete"] == 1.5

    def test_uncoded_concrete_overhead_is_charged_at_the_requested_length(self):
        # L // block_length native blocks of raw storage, reported at the
        # requested L; the ratio stays the native block's.
        for scheme, L, bits, alpha in (
            (linear_descriptor(), 2_000, 3_000.0, 1.5),
            (multiround_descriptor(storage="replicated"), 64, 128.0, 2.0),
        ):
            concrete = self.overhead(scheme, L=L)["concrete"]
            assert concrete == {"L": L, "bits_per_database": (bits, bits), "alpha_concrete": alpha}

    def test_concrete_accounting_follows_the_coded_layer_not_the_name(self):
        original = multiround_descriptor()
        renamed = dataclasses.replace(original, name="two-round")
        for measure in (
            lambda s: measure_rate(s, mode="concrete", L=1_600, trials=2, seed=5)["concrete"],
            lambda s: self.overhead(s, L=1_600, seed=5),
        ):
            assert measure(renamed) == measure(original)
        linear = linear_descriptor()
        renamed = dataclasses.replace(linear, name="multiround-linear")
        assert self.overhead(renamed) == self.overhead(linear)

    def test_coded_layer_rejects_another_answer_shape(self):
        # Linear answers three bits per database; the multiround layer
        # models one answer symbol per database.
        scheme = dataclasses.replace(linear_descriptor(), coded=multiround_descriptor().coded)
        with pytest.raises(ValueError, match="'linear'.*one answer symbol per database per session, a bit or None"):
            build_audit_report(scheme, mode="concrete", L=200, trials=2, sw_blocks=10)

    def test_coded_layer_rejects_another_storage_layout(self):
        # This DB1 stores three bits per position, with the answers of the
        # multiround scheme; its coded layer codes one (x1, x2) cell pair.
        original = multiround_descriptor()
        scheme = dataclasses.replace(
            original, name="three-bit", store=lambda msg: (msg[0] + msg[1] + (0,), original.store(msg)[1])
        )
        with pytest.raises(ValueError, match=r"'three-bit'.*DB1 to store one \(x1, x2\) cell pair per position"):
            self.overhead(scheme, L=64)

    @pytest.mark.parametrize("blocks", [0, -3])
    def test_sw_failure_rate_rejects_fewer_than_one_block(self, blocks):
        with pytest.raises(ValueError, match="blocks must be at least 1"):
            sw_failure_rate(CodecConfig(), blocks=blocks, seed=0)

    @pytest.mark.parametrize(
        "flag, message",
        [
            ({"blocks": True}, "blocks must be an int, got True"),
            ({"blocks": 2.5}, "blocks must be an int, got 2.5"),
            ({"seed": 1.5}, "seed must be an int, got 1.5"),
            ({"seed": False}, "seed must be an int, got False"),
            ({"codec": None}, "codec must be a CodecConfig, got None"),
            ({"codec": 16}, "codec must be a CodecConfig, got 16"),
        ],
        ids=["blocks-True", "blocks-2.5", "seed-1.5", "seed-False", "codec-None", "codec-16"],
    )
    def test_sw_failure_rate_refuses_bad_arguments_by_name(self, flag, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sw_failure_rate(**{"codec": CodecConfig(), "blocks": 10, "seed": 0, **flag})

    def test_sw_failure_rate_reproducible(self):
        cfg = CodecConfig(seed=8)
        first = sw_failure_rate(cfg, blocks=300, seed=8)
        second = sw_failure_rate(cfg, blocks=300, seed=8)
        assert first == second
        assert 0 <= first["failure_rate"] <= 1

    def test_length_leakage_report(self):
        # The (A1, A2) law is the same at both thetas, at either bias, so the
        # verdict is the rational 0; reports without a coded layer print null.
        for bias in (F(1, 2), F(3, 4)):
            report = build_audit_report(multiround_descriptor(bias), mode="concrete", L=500, trials=2, sw_blocks=10)
            assert set(report["length_leakage"]) == {"total_variation", "note"}
            assert report["length_leakage"]["total_variation"] == "0/1"
        assert build_audit_report(multiround_descriptor())["length_leakage"] is None
        assert build_audit_report(linear_descriptor(), mode="concrete", L=40, trials=1)["length_leakage"] is None

    def test_length_leakage_sees_theta_dependent_answers(self):
        # DB2 answering flipped bits at theta 2 moves mass between (0, 0)
        # and (0, 1): 1/4 each way, a total variation of 1/4.
        original = multiround_descriptor()

        def run(msg, theta, coin):
            record = original.run(msg, theta, coin)
            if theta == 2:
                a2 = tuple(None if a is None else 1 - a for a in record.answers[1])
                record = record._replace(answers=(record.answers[0], a2))
            return record

        scheme = dataclasses.replace(original, run=run)
        report = build_audit_report(scheme, mode="concrete", L=200, trials=1, sw_blocks=10)
        assert report["length_leakage"]["total_variation"] == "1/4"

    def test_concrete_audit_codes_only_the_rate_sessions(self, monkeypatch):
        calls = []
        session = multiround.CodedLayer.session

        def counted(self, *args):
            calls.append(args)
            return session(self, *args)

        monkeypatch.setattr(multiround.CodedLayer, "session", counted)
        build_audit_report(multiround_descriptor(), mode="concrete", L=200, trials=5, sw_blocks=10)
        assert len(calls) == 5

    def test_concrete_rate_lists_its_coded_sessions(self):
        scheme, L, trials, seed = multiround_descriptor(), 300, 3, 11
        report = build_audit_report(scheme, mode="concrete", L=L, trials=trials, seed=seed, sw_blocks=10)
        models = answer_stream_models(scheme)
        concrete = report["rate"]["concrete"]
        for i in range(trials):
            assert concrete["sessions"][i] == scheme.coded.session(1, L, derive_seed(seed, "rate", i), models)
        assert len(concrete["sessions"]) == trials and concrete["decode_errors"] == 0
        assert report["pass"] is True

    def test_coded_decode_errors_fail_the_audit(self):
        # Privacy, exhaustive correctness and the converse all pass; only the
        # coded sessions behind the concrete rate report errors.
        class OneErrorPerSession(multiround.CodedLayer):
            def session(self, *args):
                return {**super().session(*args), "decode_errors": 1}

        original = multiround_descriptor()
        scheme = dataclasses.replace(original, coded=OneErrorPerSession(original.coded.bias))
        report = build_audit_report(scheme, mode="concrete", L=200, trials=2, sw_blocks=10)
        assert report["pass"] is False
        assert report["privacy"]["pass"] and report["correctness"]["pass"]
        assert report["rate"]["concrete"]["decode_errors"] == 2

    @pytest.mark.parametrize(
        "descriptor",
        [
            multiround_descriptor,
            partial(multiround_descriptor, bias=F(3, 4)),
            partial(multiround_descriptor, storage="replicated"),
            linear_descriptor,
            replicated_descriptor,
        ],
        ids=["multiround", "multiround-bias-3-4", "multiround-replicated", "linear", "replicated"],
    )
    def test_concrete_rate_lists_sessions_only_when_coded(self, descriptor):
        scheme = descriptor()
        concrete = build_audit_report(scheme, mode="concrete", L=40, trials=3, sw_blocks=10)["rate"]["concrete"]
        if scheme.coded is None:
            # Uncoded answers are charged at face value: one exact figure, no trials run.
            assert "sessions" not in concrete and "decode_errors" not in concrete
            assert concrete["download_per_message_bit_ci95"] == [concrete["download_per_message_bit_mean"]] * 2
            return
        keys = {"db1_bits", "db2_bits", "download_bits", "round2_symbols", "decode_errors"}
        assert [set(run) for run in concrete["sessions"]] == [keys] * 3
        assert concrete["decode_errors"] == sum(run["decode_errors"] for run in concrete["sessions"]) == 0

    @pytest.mark.parametrize(
        "descriptor", [multiround_descriptor, partial(multiround_descriptor, bias=F(3, 4))],
        ids=["multiround", "multiround-bias-3-4"],
    )
    def test_default_codec_is_seeded_by_the_report_seed(self, descriptor):
        # The bin estimate and the bin storage read the codec's masks.
        flags = {"mode": "concrete", "L": 400, "trials": 1, "seed": 7, "sw_blocks": 50}
        default = build_audit_report(descriptor(), **flags)
        assert default == build_audit_report(descriptor(), **flags, codec=CodecConfig(seed=7))
        estimate = sw_failure_rate(CodecConfig(seed=7), 50, 7, descriptor().coded.bias)
        assert default["overhead"]["sw"] == audit.jsonify(estimate)

    def test_answer_stream_models_are_the_exact_marginals(self):
        # a1 = 1 with probability 1/4; a2 = 1 with probability 1/3 given a
        # round-2 query.
        models = answer_stream_models(multiround_descriptor())
        assert models == (SourceModel.bernoulli(F(1, 4)), SourceModel.bernoulli(F(1, 3)))


class TestIdentitiesAndConverse:
    def test_linear_identities_all_pass(self):
        checks = verify_entropy_identities(linear_descriptor())
        by_name = {c["name"]: c for c in checks}
        assert all(c["pass"] for c in checks)
        assert by_name["H(A1[1] | W1, F, G)"]["value"] == 2.0
        assert by_name["H(A2[2] | W1, F, G)"]["value"] == 2.0
        assert by_name["H(A2[2] | W2, F, G)"]["value"] == 2.0
        assert by_name["H(A2[2] | W1, A2[1], F, G)"]["value"] == 2.0
        assert by_name["H(A2[1], A2[2] | F, G)"]["value"] >= 6.0
        assert by_name["I(A2[1]; A2[2] | W1, F, G)"]["value"] == pytest.approx(0.0, abs=TOL)
        assert by_name["H(W2 | answers[2], F, G)"]["value"] == pytest.approx(0.0, abs=TOL)

    def test_identities_rejected_for_multiround(self):
        with pytest.raises(ValueError, match="single-round"):
            verify_entropy_identities(multiround_descriptor())

    def test_linear_converse_at_boundary(self):
        checks = verify_converse_bounds(linear_descriptor())
        assert all(c["pass"] for c in checks)
        info = next(c for c in checks if "<= L(1/R - 1)" in c["name"])
        assert info["value"] == pytest.approx(2.0, abs=TOL)
        assert info["target"] == pytest.approx(2.0, abs=TOL)

    def test_replicated_converse_has_slack(self):
        checks = verify_converse_bounds(replicated_descriptor())
        assert all(c["pass"] for c in checks)
        rate_check = next(c for c in checks if c["name"] == "symbol rate <= capacity")
        assert rate_check["value"] == F(1, 2) < F(2, 3)

    def test_converse_lower_bound_reads_the_collusion(self):
        # At T = 2 the replicated scheme retrieves 4 bits of W2, which meets
        # both L(1/R - 1) = 4 and L*T/N = 4 exactly.
        scheme = dataclasses.replace(replicated_descriptor(), params=PirParameters(2, 2, 2))
        checks = verify_converse_bounds(scheme)
        upper, lower = (next(c for c in checks if bound in c["name"]) for bound in ("L(1/R - 1)", "L*T/N"))
        assert upper["value"] == lower["value"] == pytest.approx(4.0, abs=TOL)
        assert lower["target"] == upper["target"] == 4.0
        assert upper["pass"] and lower["pass"]

    def test_multiround_converse_capacity_rows_only(self):
        checks = verify_converse_bounds(multiround_descriptor())
        assert all(c["pass"] for c in checks)
        assert len(checks) == 2  # no single-round information rows

    def test_grouped_entropies_bit_identical_to_the_marginal_route(self):
        # Every identity and converse entropy, H(target | given) grouped
        # straight from the joint, is the float that conditional_entropy of
        # its marginal gives. On linear's own joint these are small exact
        # floats; reweighting its counts by 1, 2, 3, 1, ... or 1, ..., 7 makes
        # the conditional laws non-dyadic, so a reordered sum shows in the
        # last bits. A target in another order, or every coordinate not
        # given by default, groups alike.
        scheme = linear_descriptor()
        ((joint, g),) = audit._tabulate(scheme, (1, 2), audit._coupled(scheme))
        laws = [joint]
        for period in (3, 7):
            counts = {o: c * (1 + i % period) for i, (o, c) in enumerate(joint.counts.items())}
            laws.append(ExactDist(counts, total=sum(counts.values())))
        w1f, w2f = g["W1"] + g["F"], g["W2"] + g["F"]
        first = g["Q1^1"] + g["Q2^1"] + g["A1^1"] + g["A2^1"] + g["F"]
        sets = [
            (g["A1^1"], w1f), (g["A2^2"], w1f), (g["A2^2"], w2f), (g["A2^2"], g["W1"] + g["A2^1"] + g["F"]),
            (g["A2^1"] + g["A2^2"], g["F"]), (g["A2^2"] + g["A2^1"], g["F"]),
            (g["A2^1"], w1f), (g["A2^1"], g["A2^2"] + w1f), (g["A2^1"], w2f), (g["A2^1"], g["A2^2"] + w2f),
            (g["W2"], g["F"] + g["Q1^2"] + g["Q2^2"] + g["A1^2"] + g["A2^2"]),
            (g["W2"], g["W1"]), (g["W2"], first + g["W1"]),
        ]
        for (i, law), (target, given) in product(enumerate(laws), sets):
            grouped = conditional_entropy(law, given, target)
            via_marginal = conditional_entropy(marginal(law, given + target), range(len(given)))
            assert grouped.hex() == via_marginal.hex(), (i, target, given)
            rest = tuple(c for c in range(law.arity) if c not in given)
            assert conditional_entropy(law, given).hex() == conditional_entropy(law, given, rest).hex()
        assert conditional_entropy(joint, w1f, ()) == 0.0
        with pytest.raises(ValueError, match="duplicate coordinates"):
            conditional_entropy(joint, w1f, g["F"])

    @pytest.mark.parametrize("descriptor", [multiround_descriptor, linear_descriptor])
    def test_download_entropies_bit_identical_to_the_marginal_route(self, descriptor):
        scheme = descriptor()
        tables = audit._download(scheme)._replace(finish=lambda tables: tables[0])
        (joint,) = audit._tabulate(scheme, (1,), [tables])
        via_marginal = [conditional_entropy(marginal(joint, range(n + 1)), range(n)) for n in range(1, joint.arity)]
        per_db = measure_rate(scheme)["ideal_download_per_db_per_block"]
        assert [v.hex() for v in per_db] == [v.hex() for v in via_marginal]

    def test_conditional_mutual_information_chain_rule(self):
        scheme = linear_descriptor()
        ((joint, groups),) = audit._tabulate(scheme, (1, 2), audit._coupled(scheme))
        value = conditional_mutual_information(
            joint, groups["A2^1"], groups["A2^2"], groups["W1"] + groups["F"]
        )
        assert value == pytest.approx(0.0, abs=TOL)


class TestReports:
    def test_report_is_deterministic(self):
        first = build_audit_report(multiround_descriptor(), seed=7)
        second = build_audit_report(multiround_descriptor(), seed=7)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_rationals_and_reals_serialized(self):
        report = build_audit_report(multiround_descriptor(), seed=7)
        tv = report["privacy"]["databases"][0]["total_variation"]["1,2"]
        assert tv == "0/1"
        assert isinstance(report["rate"]["ideal_download_per_message_bit"], str)
        assert report["views"]["database_2_theta_1"]["null|0|0|null"] == "1/4"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be 'ideal' or 'concrete'"):
            build_audit_report(multiround_descriptor(), mode="bogus")

    def test_failing_variant_reported_failing(self):
        report = build_audit_report(multiround_descriptor(storage="replicated"), seed=7)
        assert report["pass"] is False

    def test_formatters(self):
        assert fraction_str(F(3, 6)) == "1/2"
        assert fraction_str(F(0)) == "0/1"
        assert real_str(1.5) == "1.5"
        assert real_str(0.75 + 0.375 * math.log2(3)) == "1.34436093777"


def reference_tables(scheme, thetas, projection):
    """A projection's tables by a naive pass: the spaces as listed, each key's
    ``Fraction`` weights summed in a plain dict, in session order."""
    tables = {}
    for msg, p_msg in scheme.message_space():
        stored = scheme.store(msg) if projection.stores else None
        for f, p_f in scheme.randomness_space():
            records = [scheme.run(msg, theta, f) for theta in thetas]
            for i, key in enumerate(projection.session(msg, stored, f, records)):
                key = key if isinstance(key, tuple) else (key,)
                table = tables.setdefault(i, {})
                table[key] = table.get(key, F(0)) + p_msg * p_f
    return list(tables.values())


def first_chunk_of_symmetrised_toy():
    """symmetrize(toy) over its first 1,100 messages, reweighted uniform: an
    enumerated product pass of 4,400 sessions, longer than one counting chunk."""
    symmetric = symmetrize(asymmetric_toy_descriptor())
    messages = [msg for msg, _ in islice(symmetric.message_space(), 1100)]
    return dataclasses.replace(symmetric, message_space=lambda: ((msg, F(1, 1100)) for msg in messages))


class TestCounting:
    """``_tabulate``'s tables, counted by ``Counter`` (unit weights) or summed
    per key (weighted), equal a naive ``Fraction`` reference: the same
    counts, totals and key order."""

    @pytest.mark.parametrize("every", [3, audit._COUNT_EVERY])
    @pytest.mark.parametrize(
        "make, unit",
        [(linear_descriptor, True), (lambda: multiround_descriptor(bias=F(3, 4)), False),
         (first_chunk_of_symmetrised_toy, True)],
        ids=["linear", "multiround-bias-3-4", "symmetrised-toy-enumerated"],
    )
    def test_tables_equal_a_naive_reference(self, make, unit, every, monkeypatch):
        monkeypatch.setattr(audit, "_COUNT_EVERY", every)
        scheme = make()
        thetas = (1, 2)
        projections = [audit._views(scheme, thetas), audit._download(scheme), audit._storage(scheme)]
        if scheme.coded is not None:
            projections.append(audit._answer_streams(scheme))
        spaces = [list(scheme.message_space()), list(scheme.randomness_space())]
        # Every session weighs 1 over the common denominator exactly when both spaces are uniform.
        assert all(len({p for _, p in space}) == 1 for space in spaces) == unit
        total = math.prod(math.lcm(*(p.denominator for _, p in space)) for space in spaces)
        counted = audit._tabulate(scheme, thetas, [p._replace(finish=lambda tables: tables) for p in projections])
        for tables, projection in zip(counted, projections):
            reference = reference_tables(scheme, thetas, projection)
            assert len(tables) == len(reference)
            for table, ref in zip(tables, reference):
                assert table.total == total
                assert list(table.counts) == list(ref)
                assert all(F(c, total) == ref[key] for key, c in table.counts.items())


def test_session_record_builds_the_named_tuple():
    fields = ((("x1",), ("y1",)), ((0,), (1,)), (0, 1))
    record = session_record(fields)
    assert type(record) is SessionRecord and record == SessionRecord(*fields)
    assert SessionRecord._fields == ("queries", "answers", "decoded")
    assert (record.queries, record.answers, record.decoded) == fields
    assert record._replace(decoded=(1, 0)) == SessionRecord(*fields[:2], (1, 0))


def test_block_length_is_read_from_the_messages():
    # Not a constructor argument: each scheme's block is its first message's w1.
    assert "block_length" not in {field.name for field in dataclasses.fields(SchemeDescriptor)}
    schemes = [multiround_descriptor(), linear_descriptor(), symmetrize(asymmetric_toy_descriptor())]
    assert [scheme.block_length for scheme in schemes] == [1, 4, 8]
    longer = dataclasses.replace(linear_descriptor(), message_space=lambda: iter([(((0,) * 6, (0,) * 6), F(1))]))
    assert longer.block_length == 6


class TestBitIdentity:
    """The exact passes' floats, bit for bit: ``real_str`` prints 12 digits,
    which would hide a last-bit change, such as one from counting a table's
    keys in another order."""

    def test_exact_passes(self):
        passes = reproduce.exact_passes()
        linear, mr = passes["linear"], passes["multiround"]
        two, six, zero = "0x1.0000000000000p+1", "0x1.8000000000000p+2", "0x0.0p+0"
        assert [c["value"].hex() for c in linear["entropy_identities"]] == [two] * 4 + [six] + [zero] * 3
        assert linear["converse"][0]["value"] == F(2, 3)
        assert [float(c["value"]).hex() for c in linear["converse"][1:]] == ["0x1.5555555555555p-1", two, two]
        assert [v.hex() for v in mr["overhead"]["ideal_bits_per_block"]] == [
            "0x1.8000000000000p+0", "0x1.305013ab7ce0ep+0",
        ]
        assert [v.hex() for v in mr["rate"]["ideal_download_per_db_per_block"]] == [
            "0x1.9f5fd8a9063e3p-1", "0x1.60a02756f9c1dp-1",
        ]
        assert mr["rate"]["ideal_download_per_message_bit"].hex() == "0x1.8000000000000p+0"

    def test_weighted_pass(self):
        biased = multiround_descriptor(bias=F(3, 4))
        assert [v.hex() for v in measure_overhead(biased)["ideal_bits_per_block"]] == [
            "0x1.3f5fd8a9063e4p+0", "0x1.0ef306740d30cp+0",
        ]
        rate = measure_rate(biased)
        assert [v.hex() for v in rate["ideal_download_per_db_per_block"]] == [
            "0x1.53740bd58f33cp-1", "0x1.1b9bb927fa298p-1",
        ]
        assert rate["rate_ideal"].hex() == "0x1.a4bc3bac0cec1p-1"

    def test_toy_answer_entropies_before_and_after_symmetrising(self):
        four, two, six = "0x1.0000000000000p+2", "0x1.0000000000000p+1", "0x1.8000000000000p+2"
        before = scheme_profile(asymmetric_toy_descriptor())["answer_entropy"]
        assert {key: h.hex() for key, h in before.items()} == {(1, 1): four, (1, 2): two, (2, 1): four, (2, 2): two}
        after = reproduce.criterion_symmetrization()["measured"]["answer_entropies_after"]
        assert [h.hex() for h in after] == [six] * 3
