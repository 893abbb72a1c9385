"""One function per headline measurement, bundled for the reproduce command.

Each row states what was expected, what was measured, and whether it passed;
the CLI serializes the bundle as JSON. Ideal mode runs only the exact rows
(no Monte-Carlo, well under a second); full mode adds the finite-length
coding rows. The exact rows read ``audit``'s public sections and enumerate
each scheme once: ``exact_passes`` makes one pass each over multiround,
linear and replicated for criteria 3, 5, 7, 8 and 9, criterion 4 one over
each negative control, and criterion 10 one over the asymmetric toy, from
which ``symmetrized_profiles`` also composes ``symmetrize(toy)``. The coding
rows 6a, 6b and 6c read one concrete multiround audit, ``concrete_audit``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .audit import audit_sections, check_privacy, exact_sections, real_holds, symmetrized_profiles
from .capacity import PirParameters, mtpir_capacity, storage_overhead
from .coding import CodecConfig, check_codec
from .dist import ExactDist, marginal
from .linear import asymmetric_toy_descriptor, linear_descriptor, replicated_descriptor, symmetrize
from .multiround import MessagePair, multiround_descriptor, run_session

EXPECTED_VIEW_TABLE = {
    (None, 0, 0): Fraction(1, 4),
    ("y1", 0, 0): Fraction(1, 8),
    ("y2", 0, 0): Fraction(1, 8),
    ("y1", 0, 1): Fraction(1, 8),
    ("y2", 0, 1): Fraction(1, 8),
    ("y1", 1, 0): Fraction(1, 8),
    ("y2", 1, 0): Fraction(1, 8),
}


def _row(criterion: str, description: str, expected, measured, ok: bool) -> dict:
    return {
        "criterion": criterion,
        "description": description,
        "expected": expected,
        "measured": measured,
        "pass": bool(ok),
    }


def exact_passes() -> dict[str, dict]:
    """What criteria 3, 5, 7, 8 and 9 read, from one pass per scheme over
    every theta, by scheme name: multiround's ideal ``audit_sections``, and
    linear's and replicated's ``exact_sections``, their ``rate``,
    ``overhead``, ``converse`` and ``entropy_identities`` alone: the report's
    other sections would add about a fifth to an ideal reproduce's time."""
    passes = {"multiround": audit_sections(multiround_descriptor())}
    for scheme in (linear_descriptor(), replicated_descriptor()):
        passes[scheme.name] = exact_sections(scheme)
    return passes


def criterion_capacity() -> dict:
    base = mtpir_capacity(PirParameters(2, 2, 1))
    cells = [(k, n, t) for n in range(1, 7) for t in range(1, n + 1) for k in range(1, 7)]
    grid = {cell: mtpir_capacity(PirParameters(*cell)) for cell in cells}
    grid_ok = True
    single_db_privacy_match = True
    for n in range(1, 6):
        for t in range(1, n + 1):
            for k in range(1, 6):
                c = grid[k, n, t]
                grid_ok &= grid[k + 1, n, t] <= c
                if t < n:
                    grid_ok &= grid[k, n, t + 1] <= c
                grid_ok &= grid[k, n + 1, t] >= c
                if t == 1:
                    direct = 1 / sum((Fraction(1, n**i) for i in range(k)), Fraction(0))
                    single_db_privacy_match &= c == direct
    ok = base == Fraction(2, 3) and grid_ok and single_db_privacy_match
    return _row(
        "1",
        "capacity formula at (2,2,1) plus grid monotonicity",
        "2/3; monotone in K, T (down) and N (up); T=1 matches the non-colluding formula",
        {"capacity_2_2_1": base, "grid_monotone": grid_ok, "t1_match": single_db_privacy_match},
        ok,
    )


def criterion_multiround_correctness() -> dict:
    from itertools import product

    cases = 0
    errors = 0
    for length in (1, 2, 3):
        for w1 in product((0, 1), repeat=length):
            for w2 in product((0, 1), repeat=length):
                pair = MessagePair(w1, w2)
                for coin in product((0, 1), repeat=length):
                    for theta in (1, 2):
                        transcript = run_session(pair, theta, coin)
                        cases += 1
                        if transcript.decoded != (w1 if theta == 1 else w2):
                            errors += 1
    return _row(
        "2",
        "multiround decoding exhaustive over L = 1..3",
        "zero errors",
        {"cases": cases, "errors": errors},
        errors == 0,
    )


def criterion_exact_privacy(passes: dict) -> dict:
    table = marginal(passes["multiround"]["views"][1, 2], (0, 1, 2))
    expected = ExactDist(EXPECTED_VIEW_TABLE)
    table_ok = table == expected
    privacy = passes["multiround"]["privacy"]
    tvs = {
        f"db{entry['database']}": entry["total_variation"][(1, 2)]
        for entry in privacy["databases"]
    }
    ok = table_ok and privacy["pass"]
    return _row(
        "3",
        "DB2 view table reproduced exactly; TV(theta=1, theta=2) = 0 at both databases",
        {"table": "null,0,0 -> 1/4 and six rows -> 1/8", "tv": "0/1"},
        {"table_matches": table_ok, "total_variation": tvs},
        ok,
    )


def criterion_negative_controls() -> dict:
    replicated = check_privacy(multiround_descriptor(storage="replicated"))
    biased = check_privacy(multiround_descriptor(bias=Fraction(3, 4)))
    tv_replicated = replicated["databases"][1]["total_variation"][(1, 2)]
    tv_biased = biased["databases"][1]["total_variation"][(1, 2)]
    ok = tv_replicated > 0 and tv_biased > 0
    return _row(
        "4",
        "privacy-breaking variants show strictly positive total variation",
        "TV > 0 for the replicated-storage and the bias-3/4 variants",
        {"tv_replicated_storage": tv_replicated, "tv_bias_3_4": tv_biased},
        ok,
    )


def criterion_ideal_rate_overhead(passes: dict) -> dict:
    multiround, linear = passes["multiround"], passes["linear"]
    alpha_expected = 0.75 + 0.375 * math.log2(3)
    checks = {
        "multiround_download_per_bit": multiround["rate"]["ideal_download_per_message_bit"],
        "multiround_alpha": multiround["overhead"]["alpha_ideal"],
        "linear_symbol_rate": linear["rate"]["symbol_rate"],
        "linear_alpha": linear["overhead"]["alpha_ideal"],
        "replicated_alpha": passes["replicated"]["overhead"]["alpha_ideal"],
    }
    ok = (
        real_holds(checks["multiround_download_per_bit"], 1.5)
        and real_holds(checks["multiround_alpha"], alpha_expected)
        and checks["linear_symbol_rate"] == Fraction(2, 3)
        and checks["linear_alpha"] == 1.5
        and checks["replicated_alpha"] == 2.0
    )
    return _row(
        "5",
        "ideal accounting: download 3/2 per bit, overheads 3/4 + (3/8)log2(3), 3/2, 2",
        {
            "multiround_download_per_bit": 1.5,
            "multiround_alpha": alpha_expected,
            "linear_rate": "2/3",
            "linear_alpha": 1.5,
            "replicated_alpha": 2.0,
        },
        checks,
        ok,
    )


def concrete_audit(seed: int, codec: CodecConfig) -> dict:
    """What criteria 6a, 6b and 6c read: one concrete multiround audit."""
    return audit_sections(
        multiround_descriptor(), mode="concrete", L=100_000, trials=1, seed=seed, codec=codec, sw_blocks=10_000
    )


def criterion_concrete_download(concrete: dict) -> dict:
    mean = concrete["rate"]["concrete"]["download_per_message_bit_mean"]
    ok = abs(mean - 1.5) <= 0.015
    return _row(
        "6a",
        "coded download per message bit at L = 100000, one seeded session",
        "within 1% of 1.5",
        {"download_per_message_bit": mean},
        ok,
    )


def criterion_sw_failure(concrete: dict, codec: CodecConfig) -> dict:
    stats = concrete["overhead"]["sw"]
    ok = stats["failure_rate"] <= 1e-3
    return _row(
        "6b",
        f"bin-decoding failure rate at n={codec.block_length}, margin={codec.rate_margin}, {stats['blocks']} blocks",
        "at most 1e-3",
        stats,
        ok,
    )


def criterion_sw_storage(concrete: dict, codec: CodecConfig) -> dict:
    overhead = concrete["overhead"]
    bits = overhead["sw"]["bin_bits"]
    # The bin must be sized from DB2's audited ideal storage, H(y1, y2 | u).
    target = overhead["ideal_bits_per_block"][1] + codec.rate_margin
    per_symbol = bits / codec.block_length
    expected = math.ceil(codec.block_length * target)
    ok = bits == expected and per_symbol < 1.5
    return _row(
        "6c",
        "bin size per symbol equals the conditional-entropy target and beats 3/2",
        {"bin_bits": expected, "below": 1.5},
        {"bin_bits": bits, "bits_per_symbol": per_symbol},
        ok,
    )


def criterion_symbol_download(passes: dict) -> dict:
    value = passes["multiround"]["rate"]["expected_symbol_download_per_block"]
    ok = value == Fraction(7, 4)
    return _row(
        "7",
        "expected uncompressed download per position",
        "7/4",
        {"expected_symbol_download": value},
        ok,
    )


def criterion_entropy_identities(passes: dict) -> dict:
    checks = passes["linear"]["entropy_identities"]
    ok = all(c["pass"] for c in checks)
    return _row(
        "8",
        "linear-scheme answer-entropy identities by exhaustive enumeration",
        "conditional entropies L/2 = 2, joint at least 6, conditional informations 0",
        checks,
        ok,
    )


def criterion_converse(passes: dict) -> dict:
    checks = {name: passes[name]["converse"] for name in ("linear", "replicated", "multiround")}
    ok = all(c["pass"] for every in checks.values() for c in every)
    return _row(
        "9",
        "retrieved-information bound with o(L) = 0 and rate-vs-capacity on every scheme",
        "all inequalities hold",
        checks,
        ok,
    )


def criterion_symmetrization() -> dict:
    toy = asymmetric_toy_descriptor()
    symmetric = symmetrize(toy)
    before, after = symmetrized_profiles(toy)  # one pass over the toy
    storage_before, storage_after = before["storage_bits"], after["storage_bits"]
    answers_after = [after["answer_entropy"][key] for key in ((1, 1), (1, 2), (2, 2))]
    rate_before = Fraction(toy.block_length) / before["expected_symbol_download"][1]
    rate_after = Fraction(symmetric.block_length) / after["expected_symbol_download"][1]
    alpha_before = storage_overhead(storage_before, toy.block_length, toy.params.num_messages)
    alpha_after = storage_overhead(storage_after, symmetric.block_length, symmetric.params.num_messages)

    ok = (
        real_holds(storage_after[0], storage_after[1])
        and real_holds(max(answers_after), min(answers_after))
        and rate_before == rate_after
        and real_holds(alpha_before, alpha_after)
    )
    return _row(
        "10",
        "symmetrizing the lopsided toy equalizes storage and answer entropies, keeps rate and overhead",
        {
            "storage_bits": "equal (14, 14)",
            "answer_entropies": "equal",
            "rate": "unchanged",
            "alpha": "unchanged",
        },
        {
            "storage_before": storage_before,
            "storage_after": storage_after,
            "answer_entropies_after": answers_after,
            "rate": [rate_before, rate_after],
            "alpha": [alpha_before, alpha_after],
        },
        ok,
    )


def reproduce_all(mode: str = "full", seed: int = 0, codec: CodecConfig | None = None) -> dict:
    if mode not in ("ideal", "full"):
        raise ValueError("mode must be 'ideal' or 'full'")
    codec = CodecConfig(seed=seed) if codec is None else codec
    check_codec("codec", codec)
    passes = exact_passes()
    rows = [
        criterion_capacity(),
        criterion_multiround_correctness(),
        criterion_exact_privacy(passes),
        criterion_negative_controls(),
        criterion_ideal_rate_overhead(passes),
    ]
    if mode == "full":
        concrete = concrete_audit(seed, codec)
        rows.append(criterion_concrete_download(concrete))
        rows.append(criterion_sw_failure(concrete, codec))
        rows.append(criterion_sw_storage(concrete, codec))
    rows += [
        criterion_symbol_download(passes),
        criterion_entropy_identities(passes),
        criterion_converse(passes),
        criterion_symmetrization(),
    ]
    return {
        "mode": mode,
        "seed": seed,
        "codec": {
            "block_length": codec.block_length,
            "rate_margin": codec.rate_margin,
            "seed": codec.seed,
        },
        "criteria": rows,
        "pass": all(row["pass"] for row in rows),
    }
