"""Benchmark for pirlab: exact audits, coded sessions and bin decoding.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_audit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each
    python3 perfbench/run.py --self-check          # the checks catch planted faults

Each workload runs closed-loop in this one process, on one thread: draw an
input from the seed, time the calls into the package, check every output.
Set-up (import plus fixtures) is repeated ``SETUP_REPEATS`` times and its
median reported. Operations run until the next one would end after
``--seconds``; at least one always runs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` the first half of the time runs untraced and the second half
with wrappers installed (see ``tracing.py``); the last line carries the
per-layer metrics, and the report shows the tracing overhead as the
difference of the two halves. Results, with the environment, go to
``.perfbench-out/`` in the checkout; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
DECODE_K = range(8, 17)  # skip-pattern weights reported per layer
CRITERIA_IDEAL = ("1", "2", "3", "4", "5", "7", "8", "9", "10")


# --- environment ------------------------------------------------------------


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# --- measuring --------------------------------------------------------------


class RunStats:
    def __init__(self):
        self.durations: list[float] = []   # wall seconds
        self.normalized: list[float] = []  # seconds at the reference speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.quality: list[dict] = []

    def add(self, duration: float, normalized: float, outcome: wl.Outcome) -> None:
        self.durations.append(duration)
        self.normalized.append(normalized)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors += outcome.errors[: max(0, 5 - len(self.errors))]
        self.quality.append(outcome.quality)

    def joined(self, other: "RunStats") -> "RunStats":
        both = RunStats()
        for part in (self, other):
            both.durations += part.durations
            both.normalized += part.normalized
            both.attempted += part.attempted
            both.failed += part.failed
            both.errors += part.errors
            both.quality += part.quality
        return both


def execute(workload: wl.Workload, fixture, inp, tracer=None, mutate=None):
    """One operation: the timed run, then its check.

    ``mutate`` alters the output before the check; the self-check uses it
    to plant faults. An exception fails every item of the operation.
    """
    start = time.perf_counter()
    try:
        with wl.span(tracer, "op"):
            out = workload.run(fixture, inp, tracer)
    except Exception as exc:  # the benchmark records the failure and goes on
        duration = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return duration, wl.Outcome(workload.items, workload.items, [f"raised {exc!r}"], {})
    duration = time.perf_counter() - start
    if tracer is not None:
        tracer.mark(workload.name)
    if mutate is not None:
        out = mutate(out)
    return duration, workload.check(fixture, inp, out)


def measure(workload, fixture, rng, seconds: float, meter, tracer=None) -> RunStats:
    stats = RunStats()
    deadline = time.perf_counter() + seconds
    while True:
        inp = workload.draw(fixture, rng)
        since = meter.mark()
        duration, outcome = execute(workload, fixture, inp, tracer)
        stats.add(duration, meter.normalize(duration, since), outcome)
        if time.perf_counter() + duration > deadline:
            return stats


def timed_setups(workload, meter) -> tuple[list[float], object]:
    """Normalized seconds of each set-up, and the last fixture built."""
    times = []
    fixture = None
    for _ in range(SETUP_REPEATS):
        since = meter.mark()
        start = time.perf_counter()
        fixture = workload.setup()
        times.append(meter.normalize(time.perf_counter() - start, since))
    return times, fixture


# --- metrics ----------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setup_times, stats: RunStats) -> dict:
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ops_per_s": metric(len(stats.normalized) / sum(stats.normalized), "1/s"),
    }


def quality(stats: RunStats) -> dict:
    """Quality values of the run: name -> (measured, analytic prediction)."""
    q = [entry for entry in stats.quality if entry]
    if not q:
        return {}
    if "storage_overhead" in q[0]:
        return {
            "download_bits_per_bit": (statistics.median(e["download_bits_per_bit"] for e in q), 1.5),
            "storage_overhead": (
                statistics.median(e["storage_overhead"] for e in q),
                {"concrete": 1.4375, "ideal": 0.75 + 0.375 * math.log2(3)},
            ),
        }
    failures = sum(e["ambiguous"] for e in q)
    mean = wl.ensemble_failure(16, q[0]["bin_bits"])
    return {"bin_failure_rate": (
        failures / len(q),
        {"ensemble": mean, "binomial_sd": math.sqrt(mean * (1 - mean) / len(q))},
    )}


def per_k(stats: RunStats) -> list[dict]:
    """Bin failures at each k beside the ensemble prediction and its sd."""
    q = [entry for entry in stats.quality if entry]
    rows = []
    for k in sorted({e["k"] for e in q}):
        at_k = [e for e in q if e["k"] == k]
        failures = sum(e["ambiguous"] for e in at_k)
        p = wl.predicted_failure(k, at_k[0]["bin_bits"])
        rows.append({"k": k, "blocks": len(at_k), "failures": failures, "rate": failures / len(at_k),
                     "predicted": p, "sd": math.sqrt(p * (1 - p) / len(at_k))})
    return rows


def per_layer(t: tracing.Tracer, ops: int, stats: RunStats, overhead_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of the traced half. Counts and seconds are per operation."""
    out = {}

    def per_op(name, value, unit):
        out[name] = metric(value / ops, unit)

    def rate(name, work, seconds):
        out[name] = metric(work / seconds if seconds else 0.0, "1/s")

    def share(name, part, whole, unit="share"):
        out[name] = metric(part / whole if whole else 0.0, unit)

    run_calls = t.calls["descriptor.run"]
    distinct = t.units[("descriptor.run", "distinct")]
    per_op("descriptor.run.calls", run_calls, "count")
    per_op("descriptor.run.distinct", distinct, "count")
    share("descriptor.run.useful_ratio", distinct, run_calls, "ratio")
    per_op("descriptor.run.self_s", t.self_s["descriptor.run"], "s")
    per_op("descriptor.store.calls", t.calls["descriptor.store"], "count")
    for fn in tracing.FUNCTIONS["audit"]:
        if fn != "build_audit_report":
            per_op(f"audit.{fn}.s", t.total_s[f"audit.{fn}"], "s")
    for criterion in CRITERIA_IDEAL:
        per_op(f"reproduce.criterion_{criterion}.s", t.total_s[f"reproduce.criterion_{criterion}"], "s")
    per_op("dist.ExactDist.calls", t.calls["dist.ExactDist"], "count")
    per_op("dist.ExactDist.self_s", t.self_s["dist.ExactDist"], "s")
    out["dist.ExactDist.support_max"] = metric(t.maxima["dist.ExactDist.support"], "count")
    for fn in ("marginal", "conditional_entropy", "total_variation"):
        per_op(f"dist.{fn}.self_s", t.self_s[f"dist.{fn}"], "s")
    per_op("multiround.run_session.calls", t.calls["multiround.run_session"], "count")
    per_op("multiround.run_session.self_s", t.self_s["multiround.run_session"], "s")
    rate("multiround.run_session.positions_per_s",
         t.units[("multiround.run_session", "positions")], t.total_s["multiround.run_session"])
    for name in ("coding.entropy_encode", "coding.entropy_decode"):
        for stream in ("a1", "a2", "cells"):
            rate(f"{name}.symbols_per_s.{stream}", t.units[(name, stream)], t.units[(f"{name}.s", stream)])
    share("coding.entropy_encode.bits_over_entropy", t.units[("coding.entropy_encode", "bits")],
          t.units[("coding.entropy_encode", "entropy_bits")], "ratio")
    rate("coding.sw_encode.blocks_per_s", t.calls["coding.sw_encode"], t.total_s["coding.sw_encode"])
    per_op("seeds.derive_seed.calls", t.calls["seeds.derive_seed"], "count")
    rate("coding.sw_decode.blocks_per_s", t.calls["coding.sw_decode"], t.total_s["coding.sw_decode"])
    decode_ms = sorted(1000 * d for d in t.durations["coding.sw_decode"])
    for label, q in (("ms_p50", 0.50), ("ms_p99", 0.99)):
        value = decode_ms[min(len(decode_ms) - 1, int(q * len(decode_ms)))] if decode_ms else 0.0
        out[f"coding.sw_decode.{label}"] = metric(value, "ms")
    for k in DECODE_K:
        blocks = t.units[("coding.sw_decode.blocks", k)]
        share(f"coding.sw_decode.ms.k{k}", 1000 * t.units[("coding.sw_decode.s", k)], blocks, "ms")
        share(f"coding.sw_decode.fail.k{k}", t.units[("coding.sw_decode.fail", k)], blocks)
    measured = {name: value for name, (value, _) in quality(stats).items()}
    out["coding.download_bits_per_bit"] = metric(measured.get("download_bits_per_bit", 0.0), "bits/bit")
    out["coding.storage_overhead"] = metric(measured.get("storage_overhead", 0.0), "bits/bit")
    out["coding.sw_decode.failure_rate"] = metric(measured.get("bin_failure_rate", 0.0), "share")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    share("trace.overhead_share", overhead_s, untraced_s)
    return out


# --- reporting --------------------------------------------------------------


ALIASES = {  # the workload's headline figure under the name the issue gave it
    "exact_audit": ("audit_s", lambda stats, fx: statistics.median(stats.normalized), "s"),
    "exact_reproduce": ("reproduce_ideal_s", lambda stats, fx: statistics.median(stats.normalized), "s"),
    "exact_sym": ("sym_audit_s", lambda stats, fx: statistics.median(stats.normalized), "s"),
    "coded": ("coded_bits_per_s", lambda stats, fx: fx.length * len(stats.normalized) / sum(stats.normalized), "bit/s"),
    "bins": ("bin_blocks_per_s", lambda stats, fx: len(stats.normalized) / sum(stats.normalized), "1/s"),
}


def report(workload, args, env, stats: RunStats, metrics: dict, fixture, extra: dict) -> None:
    print(f"workload {workload.name}: {workload.why}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"seed {args.seed}  seconds {args.seconds}  trace {args.trace}  operations {len(stats.durations)}  "
          f"median wall time {statistics.median(stats.durations):.6g} s "
          f"(times below are normalized to the reference speed, see speed.py)")
    print(f"error_rate = {stats.failed / stats.attempted:.6g} failed/attempted "
          f"({stats.failed} of {stats.attempted})")
    for line in stats.errors:
        print(f"  failure: {line}")
    alias, value, unit = ALIASES[workload.name]
    print(f"{alias} = {value(stats, fixture):.6g} {unit}")
    cuts = statistics.quantiles(stats.normalized, n=100) if len(stats.normalized) >= 1000 else None
    print(f"op time: median {statistics.median(stats.normalized):.6g} s"
          + (f", p99 {cuts[98]:.6g} s" if cuts else "") + f" over {len(stats.normalized)} operations")
    for name, (value, predicted) in quality(stats).items():
        print(f"{name} = {value:.6g}  predicted {json.dumps(predicted)}")
    for row in per_k(stats) if workload.name == "bins" else []:
        z = (row["rate"] - row["predicted"]) / row["sd"] if row["sd"] else 0.0
        print(f"  k={row['k']:2d} blocks {row['blocks']:6d} failures {row['failures']:5d} "
              f"rate {row['rate']:.4f} predicted {row['predicted']:.4f} sd {row['sd']:.4f} z {z:+.1f}")
    if workload.name == "bins":
        value, pred = quality(stats)["bin_failure_rate"]
        z = (value - pred["ensemble"]) / pred["binomial_sd"]
        verdict = ("within 3 sd of the ensemble" if abs(z) <= 3 else
                   "outside 3 sd of the ensemble: this codec seed's mask table, not sampling noise")
        print(f"bin failure z = {z:+.2f}: {verdict}")
    for line in extra.get("lines", []):
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.10g} {m['unit']}")


def trace_lines(t: tracing.Tracer, plain: RunStats, traced: RunStats) -> list[str]:
    untraced_s = statistics.median(plain.normalized)
    traced_s = statistics.median(traced.normalized)
    lines = [f"tracing overhead: median op time {traced_s:.6g} s traced - {untraced_s:.6g} s untraced "
             f"= {traced_s - untraced_s:+.6g} s ({len(traced.normalized)} and {len(plain.normalized)} ops)"]
    for label, (calls, distinct) in t.breakdown.items():
        lines.append(f"descriptor.run under {label!r}: {calls} calls, {distinct} distinct triples")
    top = sorted(t.self_s.items(), key=lambda kv: -kv[1])[:12]
    lines.append("self time by span, wall seconds over the traced half: " + ", ".join(
        f"{name} {seconds:.3f}s/{t.calls[name]}" for name, seconds in top))
    return lines


# --- entry points -----------------------------------------------------------


def run_workload(args, meter: speed.SpeedMeter) -> int:
    workload = wl.WORKLOADS[args.workload]
    env = environment()
    rng = random.Random(f"{workload.name}:{args.seed}")
    setup_times, fixture = timed_setups(workload, meter)
    extra: dict = {}
    tracer = None
    if args.trace:
        plain = measure(workload, fixture, rng, args.seconds / 2, meter)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = measure(workload, fixture, rng, args.seconds / 2, meter, tracer)
        stats = plain.joined(traced)
        untraced_s = statistics.median(plain.normalized)
        overhead_s = statistics.median(traced.normalized) - untraced_s
        metrics = per_layer(tracer, len(traced.durations), stats, overhead_s, untraced_s)
        extra["lines"] = trace_lines(tracer, plain, traced)
    else:
        stats = measure(workload, fixture, rng, args.seconds, meter)
        metrics = end_to_end(setup_times, stats)
    report(workload, args, env, stats, metrics, fixture, extra)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup_s": setup_times, "op_s": stats.normalized, "op_wall_s": stats.durations,
        "errors": stats.errors, "quality": quality(stats),
        "per_k": per_k(stats) if workload.name == "bins" else [],
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        print()
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = value
    print(json.dumps(combined))
    return 0


def self_check() -> int:
    """Plant one fault per check at tiny sizes; each must fail its operation."""
    rng = random.Random("self-check")
    verdicts = []

    def expect(label, outcome: wl.Outcome, failed: int) -> None:
        ok = outcome.failed == failed
        verdicts.append(ok)
        print(f"self-check {label}: failed {outcome.failed} of {outcome.attempted}, "
              f"expected {failed}: {'ok' if ok else 'WRONG'}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    one = RunStats()
    one.add(1.0, 1.0, wl.Outcome(1, 0, [], {}))
    emitted = {
        "workloads": {name: w.why for name, w in wl.WORKLOADS.items()},
        "end_to_end": {n: m["unit"] for n, m in end_to_end([1.0], one).items()},
        "per_layer": {n: m["unit"] for n, m in per_layer(tracing.Tracer(), 1, one, 0.0, 1.0).items()},
    }
    for key, field in (("workloads", "why"), ("end_to_end", "unit"), ("per_layer", "unit")):
        same = {entry["name"]: entry[field] for entry in spec[key]} == emitted[key]
        verdicts.append(same)
        print(f"self-check BENCHMARK.json {key} match the code: {'ok' if same else 'WRONG'}")

    audit = wl.exact_audit(wl.AUDITS[:1])
    fixture = audit.setup()
    order = audit.draw(fixture, rng)
    expect("golden digest", execute(audit, fixture, order)[1], 0)
    fixture.golden = {argv: (code, "0" * 64) for argv, (code, _) in fixture.golden.items()}
    expect("corrupted golden digest", execute(audit, fixture, order)[1], 1)

    coded = wl.coded(256)
    fixture = coded.setup()
    inp = coded.draw(fixture, rng)

    def flip_bit(out):
        out.decoded = (1 - out.decoded[0],) + out.decoded[1:]
        return out

    expect("coded round trips", execute(coded, fixture, inp)[1], 0)
    expect("flipped decoded bit", execute(coded, fixture, inp, mutate=flip_bit)[1], 1)

    bins = wl.bins()
    fixture = bins.setup()
    while True:
        pairs, u = inp = bins.draw(fixture, rng)
        if bins.run(fixture, inp, None)[1] is not None and any(u):
            break
    cycle = {(0, 0): (1, 0), (1, 0): (0, 1), (0, 1): (0, 0)}

    def wrong_block(out):
        bits, decoded = out
        i = u.index(1)
        return bits, decoded[:i] + (cycle[decoded[i]],) + decoded[i + 1:]

    expect("bin decode", execute(bins, fixture, inp)[1], 0)
    expect("wrong non-None bin decode", execute(bins, fixture, inp, mutate=wrong_block)[1], 1)
    expect("ambiguous (None) bin decode", execute(bins, fixture, inp, mutate=lambda o: (o[0], None))[1], 0)
    return 0 if all(verdicts) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pirlab" / "__init__.py").is_file():
        print(f"error: no pirlab sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("PIRLAB_SEED", None)  # the CLI commands run with their default seed
    if args.self_check:
        return self_check()
    if args.workload == "all":
        return run_all(args)
    with speed.SpeedMeter() as meter:
        return run_workload(args, meter)


if __name__ == "__main__":
    raise SystemExit(main())
