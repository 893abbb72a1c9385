"""CLI contract: JSON shape, exit codes, reproducibility."""

import ast
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pirlab import cli, multiround, reproduce
from pirlab.audit import build_audit_report, jsonify
from pirlab.cli import main
from pirlab.coding import CodecConfig

# Commands whose stdout documents are promised byte-identical across changes,
# by name: each one's argv and exit code are in tests/golden/commands.json and
# its stdout in tests/golden/<name>.json, rewritten by
# ``python tests/golden/regenerate.py``. perfbench/workloads.py checks the
# digests of the five ideal audits and reproduce --mode ideal. The concrete
# multiround commands run the entropy and binning coders; the other concrete
# commands pin the uncoded and replicated-storage branches.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "commands.json").read_text())


def golden_stdout(name: str) -> bytes:
    return (GOLDEN_DIR / f"{name}.json").read_bytes()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCapacity:
    def test_two_by_two(self, capsys):
        code, doc = run_cli(capsys, "capacity", "-K", "2", "-N", "2", "-T", "1")
        assert code == 0
        assert doc["capacity"] == "2/3"

    def test_single_message(self, capsys):
        code, doc = run_cli(capsys, "capacity", "-K", "1", "-N", "5")
        assert code == 0
        assert doc["capacity"] == "1/1"

    def test_too_many_digits_exit_2(self, capsys):
        # At N = 2 the exact capacity has about 0.3 K digits, beyond what
        # Python prints from K = 14,300 on.
        start = time.perf_counter()
        assert main(["capacity", "-K", "20000", "-N", "2"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: -K 20000 is too large")
        assert "Traceback" not in captured.err

    def test_oversized_K_refused_before_computing(self, capsys, monkeypatch):
        # At N = 3, T = 2 the capacity's numerator 3^(K-1) alone has about
        # 4.8 million digits.
        def refuse(params):
            raise AssertionError("the capacity was computed")

        monkeypatch.setattr(cli, "mtpir_capacity", refuse)
        assert main(["capacity", "-K", "10000000", "-N", "3", "-T", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: -K 10000000 is too large: at N=3, T=2")

    def test_three_messages(self, capsys):
        code, doc = run_cli(capsys, "capacity", "-K", "3", "-N", "2")
        assert code == 0
        assert doc["capacity"] == "4/7"

    def test_invalid_parameters_exit_2(self, capsys):
        assert main(["capacity", "-K", "2", "-N", "2", "-T", "5"]) == 2


@pytest.mark.parametrize("scheme", ["linear", "replicated"])
@pytest.mark.parametrize("flag, value", [("--bias", "3/4"), ("--storage", "replicated")])
def test_multiround_only_flags_rejected_for_other_schemes(capsys, scheme, flag, value):
    assert main(["audit", "--scheme", scheme, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} applies only to --scheme multiround\n"
    # The default value, however spelled, is still accepted.
    assert main(["audit", "--scheme", scheme, "--bias", "0.5", "--storage", "split"]) == 0


@pytest.mark.parametrize("scheme", ["multiround", "linear"])
@pytest.mark.parametrize("value", ["1/0", "abc", "nan"])
def test_unparsable_bias_exit_2(capsys, scheme, value):
    assert main(["audit", "--scheme", scheme, "--bias", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --bias must be a fraction such as 3/4, got {value!r}\n"


@pytest.mark.parametrize("command", ["audit", "reproduce"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--block-length", "100000"], "--block-length must be between 1 and 24, got 100000"),
        (["--block-length", "25"], "--block-length must be between 1 and 24, got 25"),
        (["--block-length", "0"], "--block-length must be between 1 and 24, got 0"),
        (["--delta", "1e9"], "--delta must be at most 1.0 bits per symbol, got 1000000000.0"),
        (["--delta", "inf"], "--delta must be at most 1.0 bits per symbol, got inf"),
    ],
    ids=["block-length-100000", "block-length-25", "block-length-0", "delta-1e9", "delta-inf"],
)
def test_codec_flags_bounded_before_any_mask(capsys, monkeypatch, command, flags, message):
    # The mask table is drawn when CodecConfig is built.
    def refuse(**kwargs):
        raise AssertionError("a codec was built")

    monkeypatch.setattr(cli, "CodecConfig", refuse)
    start = time.perf_counter()
    assert main([command, "--mode", "ideal", *flags]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_codec_flags_at_their_bounds_accepted(capsys):
    code, doc = run_cli(capsys, "audit", "--scheme", "linear", "--block-length", "24", "--delta", "1.0")
    assert code == 0
    assert doc["pass"] is True


@pytest.mark.parametrize(
    "flags, message",
    [
        (["-L", "1000001"], "-L must be at most 1000000, got 1000001"),
        (["--message-length", "10000000000"], "-L must be at most 1000000, got 10000000000"),
        (["--trials", "101"], "--trials must be at most 100, got 101"),
        (["--sw-blocks", "100001"], "--sw-blocks must be at most 100000, got 100001"),
        (["--sw-blocks", "100000000"], "--sw-blocks must be at most 100000, got 100000000"),
        (["-L", "1000000", "--trials", "11"], "-L times --trials must be at most 10000000, got 1000000 * 11"),
        (["-L", "100001", "--trials", "100"], "-L times --trials must be at most 10000000, got 100001 * 100"),
    ],
    ids=["L-1000001", "message-length-1e10", "trials-101", "sw-blocks-100001", "sw-blocks-1e8",
         "L-1e6-trials-11", "L-100001-trials-100"],
)
def test_run_sizes_bounded_before_any_draw(capsys, monkeypatch, flags, message):
    # Messages, coins and bin blocks are drawn by _draw, masks when CodecConfig is built.
    def refuse(*args, **kwargs):
        raise AssertionError("something was drawn")

    monkeypatch.setattr(cli, "CodecConfig", refuse)
    monkeypatch.setattr(multiround, "_draw", refuse)
    start = time.perf_counter()
    assert main(["audit", "--mode", "concrete", *flags]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_run_sizes_at_their_bounds_accepted():
    # -L and --trials each at its bound, the other keeping -L times --trials at its.
    for sizes in (["-L", "1000000", "--trials", "10"], ["-L", "100000", "--trials", "100"]):
        argv = ["audit", *sizes, "--sw-blocks", "100000"]
        cli._check_run_sizes(cli.build_parser().parse_args(argv))


def test_negative_sizes_refused_by_name_not_by_product(capsys):
    assert main(["audit", "--mode", "concrete", "-L", "-5000000", "--trials", "-3"]) == 2
    assert capsys.readouterr().err == "error: concrete mode needs a message length L >= 1\n"


@pytest.mark.parametrize("blocks", ["0", "-3"])
def test_sw_blocks_below_one_exit_2(capsys, blocks):
    argv = ["audit", "--mode", "concrete", "-L", "100", "--trials", "1", "--sw-blocks", blocks]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: blocks must be at least 1, got {blocks}\n"


class TestAudit:
    def test_multiround_split_passes(self, capsys):
        code, doc = run_cli(capsys, "audit", "--scheme", "multiround")
        assert code == 0
        assert doc["pass"] is True
        assert doc["privacy"]["databases"][1]["total_variation"]["1,2"] == "0/1"

    def test_replicated_storage_variant_fails(self, capsys):
        code, doc = run_cli(
            capsys, "audit", "--scheme", "multiround", "--storage", "replicated"
        )
        assert code == 1
        assert doc["privacy"]["pass"] is False

    def test_biased_messages_fail(self, capsys):
        code, doc = run_cli(capsys, "audit", "--scheme", "multiround", "--bias", "3/4")
        assert code == 1
        assert doc["privacy"]["databases"][1]["total_variation"]["1,2"] == "1/4"

    def test_reports_byte_identical_for_same_seed(self, capsys):
        _, first = run_cli(capsys, "audit", "--scheme", "linear", "--seed", "11")
        _, second = run_cli(capsys, "audit", "--scheme", "linear", "--seed", "11")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_multiround_ideal_download(self, capsys):
        code, doc = run_cli(capsys, "audit", "--scheme", "multiround", "--mode", "ideal")
        assert code == 0
        assert doc["rate"]["ideal_download_per_message_bit"] == "1.5"
        assert "concrete" not in doc["rate"]

    def test_multiround_concrete(self, capsys):
        code, doc = run_cli(
            capsys, "audit", "--scheme", "multiround", "--mode", "concrete",
            "-L", "2000", "--trials", "2", "--seed", "3", "--sw-blocks", "50",
        )
        assert code == 0
        concrete = doc["rate"]["concrete"]
        assert concrete["decode_errors"] == 0
        assert len(concrete["sessions"]) == 2
        assert abs(float(concrete["download_per_message_bit_mean"]) - 1.5) < 0.05

    @pytest.mark.parametrize(
        "flags", [("--bias", "3/4"), ("--storage", "replicated")], ids=["bias-3-4", "storage-replicated"],
    )
    def test_negative_controls_fail_on_privacy_alone(self, capsys, flags):
        # Both variants still decode every message; only privacy fails them.
        code, doc = run_cli(capsys, "audit", "--mode", "concrete", "-L", "400", "--trials", "2",
                            "--sw-blocks", "10", *flags)
        assert code == 1
        assert doc["privacy"]["pass"] is False
        assert doc["correctness"]["pass"] is True and doc["correctness"]["errors"] == 0
        assert doc["rate"]["concrete"].get("decode_errors", 0) == 0

    def test_simulate_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--mode", "concrete"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'simulate'" in captured.err

    def test_sessions_are_the_rate_trials(self, capsys):
        code, doc = run_cli(
            capsys, "audit", "--mode", "concrete", "-L", "500", "--trials", "3", "--sw-blocks", "10",
        )
        assert code == 0
        concrete = doc["rate"]["concrete"]
        assert len(concrete["sessions"]) == 3 and concrete["decode_errors"] == 0
        mean = sum(s["download_bits"] / 500 for s in concrete["sessions"]) / 3
        assert mean == pytest.approx(float(concrete["download_per_message_bit_mean"]), rel=1e-9)

    def test_bin_estimate_uses_the_bias(self, capsys):
        flags = ("--mode", "concrete", "--bias", "3/4", "--sw-blocks", "50", "-L", "200", "--trials", "1")
        _, audited = run_cli(capsys, "audit", *flags, "--seed", "5")
        estimate = multiround.sw_failure_rate(CodecConfig(seed=5), 50, 5, Fraction(3, 4))
        assert audited["overhead"]["sw"] == json.loads(json.dumps(jsonify(estimate)))

    def test_library_and_cli_default_to_the_same_codec(self, capsys):
        _, doc = run_cli(capsys, "audit", "--mode", "concrete", "--seed", "7", "-L", "400", "--trials", "2",
                         "--sw-blocks", "50")
        report = build_audit_report(multiround.multiround_descriptor(), mode="concrete", L=400, trials=2, seed=7, sw_blocks=50)
        assert doc == json.loads(json.dumps(report))

    def test_linear_runs_each_triple_once(self, capsys, monkeypatch):
        runs = []
        scheme = cli.linear_descriptor()

        def run(msg, theta, f):
            runs.append(None)
            return scheme.run(msg, theta, f)

        monkeypatch.setattr(cli, "linear_descriptor", lambda: dataclasses.replace(scheme, run=run))
        code, _ = run_cli(capsys, "audit", "--scheme", "linear")
        assert code == 0
        assert len(runs) == 1024

    def test_nan_delta_exit_2(self, capsys):
        assert main(["audit", "--delta", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rate_margin must be finite and positive" in captured.err

    def test_linear_block(self, capsys):
        code, doc = run_cli(capsys, "audit", "--scheme", "linear", "--mode", "concrete", "-L", "4")
        assert code == 0
        assert doc["rate"]["expected_symbol_download_per_block"] == "6/1"
        assert doc["rate"]["concrete"]["download_per_message_bit_mean"] == "1.5"
        assert doc["correctness"]["errors"] == 0


class TestReproduce:
    def test_seed_env_override(self, capsys, monkeypatch):
        # The parser is built once, but PIRLAB_SEED is read on every call.
        for seed in (42, 7):
            monkeypatch.setenv("PIRLAB_SEED", str(seed))
            code, doc = run_cli(capsys, "reproduce", "--mode", "ideal")
            assert (code, doc["seed"], doc["codec"]["seed"]) == (0, seed, seed)

    def test_non_integer_seed_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PIRLAB_SEED", "abc")
        assert main(["capacity", "-K", "2", "-N", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: PIRLAB_SEED must be an integer, got 'abc'\n"

    def test_acceptance_suite_calls_each_criterion_once(self):
        # Each test_criterion_* in test_acceptance.py calls exactly one
        # pirlab.reproduce.criterion_*, and every criterion has exactly one
        # such test, so a new criterion cannot land in only one place.
        source = Path(__file__).with_name("test_acceptance.py").read_text()
        called = []
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_"):
                names = [
                    n.attr for n in ast.walk(node)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "reproduce"
                    and n.attr.startswith("criterion_")
                ]
                assert len(names) == 1, (node.name, names)
                called += names
        defined = [name for name in vars(reproduce) if name.startswith("criterion_")]
        assert sorted(called) == sorted(defined)


# Kept without a caller on purpose: reference implementations that tests
# compare the package against.
TEST_ORACLES = {"sw_decode_reference", "linear_storage_entropy_bits"}

# The one exception to the caller guard: audit wrappers that nothing calls,
# kept only because perfbench/tracing.py wraps them by name (a string, which
# the guard does not count). They go with ROADMAP item 1, when the tracer
# wraps the report's stages instead.
TRACED_ONLY = {"enumerate_view", "scheme_profile", "upload_bits", "verify_entropy_identities",
               "verify_converse_bounds"}


def test_every_top_level_definition_has_a_caller():
    # A top-level def, class or non-dunder assigned name in src/pirlab must be
    # named, outside its own statement, by package code (re-exports in
    # __init__.py do not count) or by the benchmark in perfbench/; tests alone
    # are not a caller. A name counts as a variable or an attribute, never as
    # a string; the uncalled names are exactly TRACED_ONLY.
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "pirlab").glob("*.py"))
    callers = [path for path in package if path.name != "__init__.py"]
    callers += sorted((root / "perfbench").glob("*.py"))

    def names(statement) -> set:
        found = set()
        for n in ast.walk(statement):
            if isinstance(n, ast.Name):
                found.add(n.id)
            elif isinstance(n, ast.Attribute):
                found.add(n.attr)
        return found

    def defined(statement) -> list:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            return [statement.name]
        targets = statement.targets if isinstance(statement, ast.Assign) else []
        if isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]

    trees = {path: ast.parse(path.read_text()) for path in package + callers}
    # Each caller's top-level statements, with the names each one uses.
    uses = [(stmt, names(stmt)) for path in callers for stmt in trees[path].body]
    uncalled = [
        f"{path.stem}.{name}"
        for path in package
        for node in trees[path].body
        for name in defined(node)
        if name not in TEST_ORACLES
        and not any(name in used for stmt, used in uses if stmt is not node)
    ]
    assert sorted(uncalled) == sorted(f"audit.{name}" for name in TRACED_ONLY)


def test_every_class_member_has_a_caller():
    # A non-dunder method, property or classmethod of a src/pirlab class must
    # be named as an attribute or a variable, outside its own definition, by
    # package code (__init__.py excluded) or by perfbench/; tests alone are
    # not a caller.
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "pirlab").glob("*.py"))
    callers = [path for path in package if path.name != "__init__.py"]
    callers += sorted((root / "perfbench").glob("*.py"))

    def names(node) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
        )

    trees = {path: ast.parse(path.read_text()) for path in package + callers}
    used = sum((names(trees[path]) for path in callers), Counter())
    uncalled = [
        f"{path.stem}.{cls.name}.{member.name}"
        for path in package
        for cls in ast.walk(trees[path]) if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not (member.name.startswith("__") and member.name.endswith("__"))
        and used[member.name] == (names(member)[member.name] if path in callers else 0)
    ]
    assert uncalled == []


def test_no_module_imports_another_modules_private_names():
    # A private name another module needs is made public.
    package = sorted((Path(__file__).resolve().parents[1] / "src" / "pirlab").glob("*.py"))
    found = {}
    for path in package:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pirlab")):
                module = (node.module or "").rpartition(".")[2]
                private = {alias.name for alias in node.names if alias.name.startswith("_")}
                if private:
                    found.setdefault((path.stem, module), set()).update(private)
    assert found == {}


def test_benchmark_pins_the_same_digests():
    # perfbench/workloads.py keeps its own GOLDEN digests for six of these
    # commands; a re-pin must change the golden files and that table alike.
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    (table,) = [
        node.value for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["GOLDEN"]
    ]
    benchmark = ast.literal_eval(table)
    assert len(benchmark) == 6
    files = {
        tuple(command["argv"]): (command["exit"], hashlib.sha256(golden_stdout(name)).hexdigest())
        for name, command in GOLDEN.items()
    }
    assert {argv: files.get(argv) for argv in benchmark} == benchmark


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps package names that it looks up with getattr;
    # run.py --self-check never installs it, so a renamed or deleted name
    # shows only here.
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import pirlab.cli, pirlab.reproduce, tracing\n"
        "tracing.install(tracing.Tracer())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_self_check_passes():
    # The benchmark reads derive_cells' four cells, SwBin.bin_bits and a
    # positional Transcript; its self-check runs each workload's checks once.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stdout + done.stderr
    assert lines and all(line.endswith(": ok") for line in lines), done.stdout


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_stdout_digest(capsys, monkeypatch, name):
    # Stdout must equal the golden bytes, decoded as UTF-8 (a one-to-one
    # map), so that a failure shows the JSON difference.
    monkeypatch.delenv("PIRLAB_SEED", raising=False)
    code = main(list(GOLDEN[name]["argv"]))
    assert (code, capsys.readouterr().out) == (GOLDEN[name]["exit"], golden_stdout(name).decode("utf-8"))


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_reproduce_stdout_does_not_depend_on_the_hash_seed(hash_seed):
    # The test above sees one hash seed per test run; set and dict order
    # under another seed must print the same bytes.
    command = GOLDEN["reproduce-ideal"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {name: value for name, value in os.environ.items() if name != "PIRLAB_SEED"}
    env.update(PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "pirlab", *command["argv"]], env=env, capture_output=True, timeout=120)
    assert (done.returncode, done.stdout) == (command["exit"], golden_stdout("reproduce-ideal")), done.stderr
