"""Acceptance suite: one test per headline criterion of ``pirlab reproduce``.

Each test calls its ``pirlab.reproduce.criterion_*`` function once, prints
the row as a single PASS/FAIL line (run with ``pytest -s`` to see them on
success) and asserts the row's verdict, so the suite and the CLI share one
definition of every criterion. Criteria 3, 5, 7, 8 and 9 read one exhaustive
pass per scheme, made once for the module by the ``passes`` fixture, and
criteria 6a, 6b and 6c one concrete multiround audit, made once by the
``concrete`` fixture, as ``reproduce_all`` makes each once per run. Where a
row checks a value only by a relation or a tolerance, the test also pins the
exact value.

Criterion 6b is expected to fail: at block length 16 with a 0.15 bit/symbol
margin the bin space is simply too small for the candidate sets, so the
measured ambiguity rate sits near 0.29 rather than 1e-3; see the README notes
on binning parameters. The assertion is kept as stated rather than loosened.
"""

import json
from fractions import Fraction

import pytest

from pirlab import reproduce
from pirlab.audit import jsonify
from pirlab.coding import CodecConfig

SEED = 0
CODEC = CodecConfig(block_length=16, rate_margin=0.15, seed=SEED)


def check(row: dict):
    """Print the row's PASS/FAIL line, assert its verdict, return its measurements."""
    verdict = "PASS" if row["pass"] else "FAIL"
    measured = json.dumps(jsonify(row["measured"]), sort_keys=True)
    print(f"criterion {row['criterion']}: {verdict} - {row['description']}: {measured}")
    assert row["pass"], measured
    return row["measured"]


@pytest.fixture(scope="module")
def passes():
    """The per-scheme exact passes that criteria 3, 5, 7, 8 and 9 read."""
    return reproduce.exact_passes()


@pytest.fixture(scope="module")
def concrete():
    """The concrete multiround audit that criteria 6a, 6b and 6c read; it
    samples the 10,000 bins once."""
    return reproduce.concrete_audit(SEED, CODEC)


def test_criterion_1_capacity_formula_and_grid():
    check(reproduce.criterion_capacity())


def test_criterion_2_multiround_exhaustive_correctness():
    check(reproduce.criterion_multiround_correctness())


def test_criterion_3_exact_privacy_table_and_tv(passes):
    check(reproduce.criterion_exact_privacy(passes))


def test_criterion_4_negative_controls():
    check(reproduce.criterion_negative_controls())


def test_criterion_5_ideal_rate_and_overhead(passes):
    check(reproduce.criterion_ideal_rate_overhead(passes))


def test_criterion_6a_concrete_download_within_one_percent(concrete):
    check(reproduce.criterion_concrete_download(concrete))


def test_criterion_6b_sw_failure_rate(concrete):
    check(reproduce.criterion_sw_failure(concrete, CODEC))


def test_criterion_6c_sw_storage_per_symbol(concrete):
    assert check(reproduce.criterion_sw_storage(concrete, CODEC))["bin_bits"] == 22


def test_criterion_7_constrained_length_download(passes):
    check(reproduce.criterion_symbol_download(passes))


def test_criterion_8_linear_entropy_identities(passes):
    values = {c["name"]: c["value"] for c in check(reproduce.criterion_entropy_identities(passes))}
    for name in (
        "H(A1[1] | W1, F, G)",
        "H(A2[2] | W1, F, G)",
        "H(A2[2] | W2, F, G)",
        "H(A2[2] | W1, A2[1], F, G)",
    ):
        assert values[name] == 2.0, name


def test_criterion_9_converse_spot_checks(passes):
    check(reproduce.criterion_converse(passes))


def test_criterion_10_symmetrization():
    measured = check(reproduce.criterion_symmetrization())
    assert measured["storage_after"] == [14.0, 14.0]
    assert measured["answer_entropies_after"] == [6.0, 6.0, 6.0]
    assert measured["rate"] == [Fraction(2, 3), Fraction(2, 3)]
    assert measured["alpha"] == [1.75, 1.75]
