"""Workload definitions: set-up, input drawing, the timed call, the check.

A workload is run closed-loop in one single-threaded process. Each operation
draws its input from the workload's seeded generator (untimed), calls the
package's public entry points (timed), then checks every output (untimed).
The one-line reason for each workload sits in its ``why``; ``BENCHMARK.json``
repeats it.

Nothing here imports pirlab at module level: ``load_pirlab`` imports it from
the checkout's ``src`` each time a set-up runs, so set-up time includes the
import.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

MODULES = ("cli", "audit", "reproduce", "dist", "multiround", "coding", "linear", "seeds")


def load_pirlab() -> dict:
    """Import pirlab afresh (dropping any loaded copy) and return its modules."""
    for name in [n for n in sys.modules if n == "pirlab" or n.startswith("pirlab.")]:
        del sys.modules[name]
    importlib.import_module("pirlab")
    return {name: importlib.import_module(f"pirlab.{name}") for name in MODULES}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[], Any]                     # -> fixture
    draw: Callable[[Any, Any], Any]              # (fixture, rng) -> input
    run: Callable[[Any, Any, Any], Any]          # (fixture, input, tracer) -> output
    check: Callable[[Any, Any, Any], "Outcome"]  # (fixture, input, output) -> outcome
    items: int                                   # checked items per operation


@dataclass
class Outcome:
    attempted: int        # checked items in this operation
    failed: int           # items that raised or returned a wrong result
    errors: list          # what went wrong, one line each
    quality: dict         # measured quality values of this operation


def span(tracer, name):
    """A span when tracing, else nothing."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# --- exact: CLI audits, reproduce, and the symmetric battery ---------------

# SHA-256 of each command's stdout and its exit code, recorded at the commit
# that introduced this benchmark. The CLI promises byte-identical documents.
GOLDEN = {
    ("audit", "--scheme", "multiround"):
        (0, "1e221870f2f81dc3ee59949c324e01b7bc4404aeb8e00ea9a061e1b6b98d8df6"),
    ("audit", "--scheme", "multiround", "--storage", "replicated"):
        (1, "a1d26809fab85ed15ce706fbeadd68cd164cdef7a48d2489f09710138e329d5a"),
    ("audit", "--scheme", "multiround", "--bias", "3/4"):
        (1, "6810268be6de1aea6285af0a2c913f8674cabfb27cda74eb9d6055b0583c5f3f"),
    ("audit", "--scheme", "linear"):
        (0, "34ea06046783e8f42d188522efc1abd01979dc06c43395fa72669212f6843cc6"),
    ("audit", "--scheme", "replicated"):
        (0, "d25d8304d6db50f1dc738ffae4340a746af764f675623f24b59d4609c8bb6612"),
    ("reproduce", "--mode", "ideal"):
        (0, "5b95c9ddf08f2913c9a63ea7a2d7c93cc05206e0842708fa0d9e5193b3a6c1ad"),
}
AUDITS = tuple(c for c in GOLDEN if c[0] == "audit")


@dataclass
class CliFixture:
    pl: dict
    commands: tuple
    golden: dict


def _run_cli(fixture: CliFixture, commands, tracer) -> list:
    results = []
    for argv in commands:
        out = io.StringIO()
        with span(tracer, "cli." + " ".join(argv[:3])), contextlib.redirect_stdout(out):
            code = fixture.pl["cli"].main(list(argv))
        if tracer is not None:
            tracer.mark(" ".join(argv))
        results.append((code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()))
    return results


def _check_cli(fixture: CliFixture, commands, results) -> Outcome:
    errors = []
    for argv, (code, digest) in zip(commands, results):
        want_code, want_digest = fixture.golden[argv]
        if code != want_code:
            errors.append(f"{' '.join(argv)}: exit {code}, expected {want_code}")
        elif digest != want_digest:
            errors.append(f"{' '.join(argv)}: stdout digest {digest[:12]}, expected {want_digest[:12]}")
    return Outcome(len(commands), len(errors), errors, {})


def exact_audit(commands=AUDITS) -> Workload:
    def draw(fixture, rng):
        order = list(fixture.commands)
        rng.shuffle(order)
        return tuple(order)

    return Workload(
        name="exact_audit",
        why=(
            "five exhaustive CLI audits (three passing, two negative controls): "
            "per-call overhead of enumeration; the seed orders the commands"
        ),
        setup=lambda: CliFixture(load_pirlab(), tuple(commands), dict(GOLDEN)),
        draw=draw,
        run=lambda fixture, order, tracer: _run_cli(fixture, order, tracer),
        check=_check_cli,
        items=len(commands),
    )


def exact_reproduce() -> Workload:
    commands = (("reproduce", "--mode", "ideal"),)
    return Workload(
        name="exact_reproduce",
        why=(
            "reproduce --mode ideal: every exact acceptance row, dominated by "
            "criterion 10's scheme_profile; exhaustive, so the seed changes nothing"
        ),
        setup=lambda: CliFixture(load_pirlab(), commands, dict(GOLDEN)),
        draw=lambda fixture, rng: commands,
        run=lambda fixture, order, tracer: _run_cli(fixture, order, tracer),
        check=_check_cli,
        items=1,
    )


SYM_SESSIONS_PER_THETA = 262_144


def _sym_descriptor(pl, tracer):
    linear = pl["linear"]
    desc = linear.symmetrize(linear.linear_descriptor())
    return tracer.descriptor(desc) if tracer is not None else desc


def _run_sym(pl, _input, tracer):
    # A fresh descriptor per operation: symmetrize memoizes its component,
    # and a warm memo from an earlier operation would hide enumeration cost.
    audit = pl["audit"]
    scheme = _sym_descriptor(pl, tracer)
    return (
        audit.check_privacy(scheme),
        audit.exhaustive_correctness(scheme),
        audit.measure_rate(scheme),
        audit.measure_overhead(scheme),
    )


def _check_sym(_pl, _input, output) -> Outcome:
    privacy, correctness, rate, overhead = output
    tvs = [tv for entry in privacy["databases"] for tv in entry["total_variation"].values()]
    errors = []
    if (len(privacy["databases"]) != 2 or not privacy["pass"]
            or not tvs or any(not isinstance(tv, Fraction) or tv != 0 for tv in tvs)):
        errors.append(f"privacy: TV {[str(tv) for tv in tvs]}, expected exactly 0/1 at both databases")
    if correctness["errors"] != 0 or correctness["cases"] != 2 * SYM_SESSIONS_PER_THETA:
        errors.append(f"correctness: {correctness['errors']} errors in {correctness['cases']} cases")
    if rate["symbol_rate"] != Fraction(2, 3):
        errors.append(f"rate: symbol rate {rate['symbol_rate']}, expected 2/3")
    if abs(overhead["alpha_ideal"] - 1.5) > 1e-9:
        errors.append(f"overhead: alpha {overhead['alpha_ideal']}, expected 3/2")
    return Outcome(4, len(errors), errors, {})


def exact_sym() -> Workload:
    return Workload(
        name="exact_sym",
        why=(
            "privacy, correctness, rate and overhead of symmetrize(linear): 262,144 "
            "sessions per theta, table size and memory; exhaustive, so the seed "
            "changes nothing"
        ),
        setup=_sym_setup,
        draw=lambda pl, rng: None,
        run=_run_sym,
        check=_check_sym,
        items=4,
    )


def _sym_setup():
    pl = load_pirlab()
    _sym_descriptor(pl, None)
    return pl


# --- coded: the concrete multiround pipeline at long L ---------------------


@dataclass
class CodedFixture:
    pl: dict
    length: int
    codec: Any
    cell_model: Any
    answer_models: tuple


def _coded_setup(length: int) -> CodedFixture:
    pl = load_pirlab()
    coding = pl["coding"]
    desc = pl["multiround"].multiround_descriptor()
    weights: dict = {}
    for msg, p in desc.message_space():
        cell = desc.store(msg)[0]
        weights[cell] = weights.get(cell, Fraction(0)) + p
    cell_model = coding.SourceModel(tuple(sorted(weights)), weights)
    codec = coding.CodecConfig()
    if length % codec.block_length:
        raise ValueError("L must be a multiple of the binning block length")
    return CodedFixture(pl, length, codec, cell_model, pl["audit"].answer_stream_models(desc))


def _bits(rng, n: int) -> tuple:
    return tuple(int(c) for c in format(rng.getrandbits(n), f"0{n}b"))


def _coded_draw(fixture: CodedFixture, rng):
    L = fixture.length
    return 1 + rng.getrandbits(1), _bits(rng, L), _bits(rng, L), _bits(rng, L)


@dataclass
class CodedOutput:
    db1_bits: int
    db2_bits: int
    download_bits: int
    cells: list
    a1: list
    a2: list
    sent_a2: list
    decoded: tuple


def _coded_run(fixture: CodedFixture, inp, tracer) -> CodedOutput:
    theta, w1, w2, coin = inp
    mr, coding = fixture.pl["multiround"], fixture.pl["coding"]
    n = fixture.codec.block_length
    L = fixture.length
    message = mr.MessagePair(w1, w2)
    # Store: DB1 keeps its coded cell stream, DB2 one bin per block.
    stored = mr.derive_cells(message)
    with span(tracer, "cells"):
        db1 = coding.entropy_encode(list(zip(stored.x1, stored.x2)), fixture.cell_model)
    with span(tracer, "bins"):
        pairs = list(zip(stored.y1, stored.y2))
        bins = [coding.sw_encode(pairs[i:i + n], fixture.codec) for i in range(0, L, n)]
    # Session, then both answer streams coded and decoded back.
    session = mr.run_session(message, theta, coin)
    sent_a2 = [a for a in session.a2 if a is not None]
    m1, m2 = fixture.answer_models
    with span(tracer, "a1"):
        s1 = coding.entropy_encode(session.a1, m1)
    with span(tracer, "a2"):
        s2 = coding.entropy_encode(sent_a2, m2)
    with span(tracer, "cells"):
        cells = coding.entropy_decode(db1, fixture.cell_model, L)
    with span(tracer, "a1"):
        a1 = coding.entropy_decode(s1, m1, L)
    with span(tracer, "a2"):
        a2 = coding.entropy_decode(s2, m2, sum(q is not None for q in session.q2))
    # The user decodes from what came off the wire.
    received = iter(a2)
    a2_full = tuple(None if q is None else next(received) for q in session.q2)
    transcript = mr.Transcript(theta, tuple(coin), session.q1, tuple(a1), session.q2, a2_full)
    return CodedOutput(
        db1_bits=coding.stream_payload_bits(db1),
        db2_bits=sum(b.bin_bits for b in bins),
        download_bits=coding.stream_payload_bits(s1) + coding.stream_payload_bits(s2),
        cells=cells,
        a1=a1,
        a2=a2,
        sent_a2=sent_a2,
        decoded=mr.decode(theta, transcript),
    )


def _coded_check(fixture: CodedFixture, inp, out: CodedOutput) -> Outcome:
    theta, w1, w2, coin = inp
    L = fixture.length
    errors = []
    cells = [(a & b, (1 - a) & (1 - b)) for a, b in zip(w1, w2)]
    if out.cells != cells:
        errors.append("DB1 cell stream does not round-trip")
    a1 = [x2 if c else x1 for (x1, x2), c in zip(cells, coin)]
    if out.a1 != a1:
        errors.append("DB1 answer stream does not round-trip")
    if out.a2 != out.sent_a2 or len(out.a2) != a1.count(0):
        errors.append("DB2 answer stream does not round-trip")
    if out.decoded != (w1 if theta == 1 else w2):
        errors.append("decoded output differs from the desired message")
    quality = {
        "download_bits_per_bit": out.download_bits / L,
        "storage_overhead": (out.db1_bits + out.db2_bits) / (2 * L),
    }
    return Outcome(1, min(len(errors), 1), errors, quality)


def coded(length: int = 1 << 17) -> Workload:
    return Workload(
        name="coded",
        why=(
            "one multiround session at L = 2^17 with coded storage and coded answers: "
            "arithmetic coder and long run_session"
        ),
        setup=lambda: _coded_setup(length),
        draw=_coded_draw,
        run=_coded_run,
        check=_coded_check,
        items=1,
    )


# --- bins: store and recover single binning blocks --------------------------


@dataclass
class BinsFixture:
    pl: dict
    codec: Any


def _bins_setup() -> BinsFixture:
    pl = load_pirlab()
    codec = pl["coding"].CodecConfig()
    pl["coding"].sw_bin_bits(codec)
    return BinsFixture(pl, codec)


def _bins_draw(fixture: BinsFixture, rng):
    # Fair message bits and a fair coin, as the scheme draws them.
    n = fixture.codec.block_length
    w1, w2, coin = _bits(rng, n), _bits(rng, n), _bits(rng, n)
    pairs = tuple((a & (1 - b), (1 - a) & b) for a, b in zip(w1, w2))
    u = tuple(0 if (a & b if c == 0 else (1 - a) & (1 - b)) else 1
              for a, b, c in zip(w1, w2, coin))
    return pairs, u


def _bins_run(fixture: BinsFixture, inp, tracer):
    pairs, u = inp
    coding = fixture.pl["coding"]
    stored = coding.sw_encode(pairs, fixture.codec)
    return stored.bin_bits, coding.sw_decode(stored, u, fixture.codec)


def _bins_check(fixture: BinsFixture, inp, out) -> Outcome:
    pairs, u = inp
    bin_bits, decoded = out
    errors = []
    if decoded is not None and decoded != pairs:
        errors.append(f"wrong decode at k = {sum(u)}")
    quality = {"k": sum(u), "ambiguous": decoded is None, "bin_bits": bin_bits}
    return Outcome(1, len(errors), errors, quality)


def bins() -> Workload:
    return Workload(
        name="bins",
        why=(
            "random 16-position blocks binned and decoded with their skip pattern: "
            "meet-in-the-middle decoder, cost about 3^(k/2)"
        ),
        setup=_bins_setup,
        draw=_bins_draw,
        run=_bins_run,
        check=_bins_check,
        items=1,
    )


def predicted_failure(k: int, bin_bits: int) -> float:
    """Ensemble chance that another of the 3^k - 1 candidates shares the bin."""
    return -math.expm1((3 ** k - 1) * math.log1p(-(2.0 ** -bin_bits)))


def ensemble_failure(n: int, bin_bits: int) -> float:
    """Ensemble failure rate over k ~ Binomial(n, 3/4)."""
    return sum(
        math.comb(n, k) * 0.75 ** k * 0.25 ** (n - k) * predicted_failure(k, bin_bits)
        for k in range(n + 1)
    )


WORKLOADS = {w.name: w for w in (exact_audit(), exact_reproduce(), exact_sym(), coded(), bins())}
