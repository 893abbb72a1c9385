"""Spans and counters recorded around pirlab's public entry points.

Everything here wraps the package from outside: module attributes, the
``ExactDist`` constructor, and the descriptors that factories return. No file
of the package knows it is traced, and an untraced run installs nothing.

A span is (id, name, start, end, parent). Spans nest through a stack, so each
name's self time is its duration minus the time its child spans cover. Every
span feeds per-name aggregates; full span records are kept for the first
``RECORDS_PER_NAME`` spans of each name, so a span entered millions of times
(``descriptor.run`` in the symmetric audit) cannot exhaust memory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
import time
from collections import Counter, defaultdict

RECORDS_PER_NAME = 2000

# Public functions wrapped in place, by module. Each is replaced wherever a
# pirlab module holds it, so calls between modules are seen too.
FUNCTIONS = {
    "audit": (
        "check_privacy",
        "exhaustive_correctness",
        "measure_rate",
        "measure_overhead",
        "upload_bits",
        "verify_converse_bounds",
        "verify_entropy_identities",
        "enumerate_view",
        "scheme_profile",
        "build_audit_report",
    ),
    "dist": ("marginal", "conditional_entropy", "total_variation"),
    "multiround": ("run_session",),
    "coding": ("entropy_encode", "entropy_decode", "sw_encode", "sw_decode"),
    "seeds": ("derive_seed",),
}

# Acceptance rows of ``pirlab.reproduce``, by the criterion id each returns.
CRITERIA = {
    "criterion_capacity": "1",
    "criterion_multiround_correctness": "2",
    "criterion_exact_privacy": "3",
    "criterion_negative_controls": "4",
    "criterion_ideal_rate_overhead": "5",
    "criterion_concrete_download": "6a",
    "criterion_sw_failure": "6b",
    "criterion_sw_storage": "6c",
    "criterion_symbol_download": "7",
    "criterion_entropy_identities": "8",
    "criterion_converse": "9",
    "criterion_symmetrization": "10",
}

# Descriptor factories whose results are wrapped where the package calls them.
FACTORIES = {
    "cli": ("multiround_descriptor", "linear_descriptor", "replicated_descriptor"),
    "reproduce": (
        "multiround_descriptor",
        "linear_descriptor",
        "replicated_descriptor",
        "asymmetric_toy_descriptor",
        "symmetrize",
    ),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        # Work units per (name, key): symbols, positions, bits, failures...
        self.units: defaultdict = defaultdict(float)
        self.maxima: defaultdict = defaultdict(int)
        self.durations: defaultdict = defaultdict(list)
        self.records: list[tuple] = []
        self._recorded: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._distinct: set = set()
        self._descriptor_serial = 0
        self._marked_calls = 0
        # Session runs of the latest operation under each label (a CLI
        # command or a workload): label -> (calls, distinct triples).
        self.breakdown: dict[str, tuple[int, int]] = {}

    # --- spans --------------------------------------------------------------

    def _begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, parent, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _end(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, parent, start, child_s = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._recorded[name] < RECORDS_PER_NAME:
            self._recorded[name] += 1
            self.records.append((span_id, name, start, end, parent))
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._begin(name)
        try:
            yield
        finally:
            self._end(frame)

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recorded as span ``name``; ``after`` sees each result."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._end(frame)
            if after is not None:
                after(duration, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- descriptors --------------------------------------------------------

    def flush_distinct(self) -> None:
        """Add the distinct session triples seen since the last flush.

        Called after every benchmark operation, so distinct counts are per
        operation and a triple repeated by a later operation counts again.
        """
        self.units[("descriptor.run", "distinct")] += len(self._distinct)
        self._distinct = set()

    def mark(self, label: str) -> None:
        """Attribute the session runs since the last mark to ``label``."""
        calls = self.calls["descriptor.run"] - self._marked_calls
        self._marked_calls = self.calls["descriptor.run"]
        distinct = len(self._distinct)
        self.flush_distinct()
        if calls:
            self.breakdown[label] = (calls, distinct)

    def descriptor(self, desc):
        """Copy of ``desc`` whose ``run`` and ``store`` are recorded."""
        self._descriptor_serial += 1
        serial = self._descriptor_serial

        def note_triple(_duration, args, _kwargs, _result):
            msg, theta, f = args
            self._distinct.add(hash((serial, msg, theta, f)))

        return dataclasses.replace(
            desc,
            run=self.wrap("descriptor.run", desc.run, after=note_triple),
            store=self.wrap("descriptor.store", desc.store),
        )

    def factory(self, fn):
        def traced_factory(*args, **kwargs):
            return self.descriptor(fn(*args, **kwargs))

        traced_factory.__wrapped__ = fn
        return traced_factory

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent in self.records:
                out.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


def _patch(original, replacement) -> None:
    """Replace ``original`` in every loaded pirlab module that holds it."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "pirlab" and not module_name.startswith("pirlab."):
            continue
        for attr in [a for a, v in vars(module).items() if v is original]:
            setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of the loaded copy of pirlab."""
    pl = {name: sys.modules[f"pirlab.{name}"]
          for name in ("audit", "dist", "multiround", "coding", "seeds", "reproduce", "cli")}
    coding = pl["coding"]
    payload_bits = coding.stream_payload_bits  # not traced: used by the hooks

    def model_entropy(model) -> float:
        return -sum(float(p) * math.log2(p) for p in model.probabilities.values())

    def after_encode(duration, args, kwargs, result):
        stream = tracer.parent_name()
        symbols = len(args[0])
        tracer.units[("coding.entropy_encode", stream)] += symbols
        tracer.units[("coding.entropy_encode.s", stream)] += duration
        tracer.units[("coding.entropy_encode", "bits")] += payload_bits(result)
        tracer.units[("coding.entropy_encode", "entropy_bits")] += symbols * model_entropy(args[1])

    def after_decode(duration, args, kwargs, result):
        stream = tracer.parent_name()
        tracer.units[("coding.entropy_decode", stream)] += len(result)
        tracer.units[("coding.entropy_decode.s", stream)] += duration

    def after_sw_decode(duration, args, kwargs, result):
        k = sum(args[1])
        tracer.durations["coding.sw_decode"].append(duration)
        tracer.units[("coding.sw_decode.blocks", k)] += 1
        tracer.units[("coding.sw_decode.s", k)] += duration
        if result is None:
            tracer.units[("coding.sw_decode.fail", k)] += 1

    def after_run_session(duration, args, kwargs, result):
        tracer.units[("multiround.run_session", "positions")] += len(result.coin)

    hooks = {
        "coding.entropy_encode": after_encode,
        "coding.entropy_decode": after_decode,
        "coding.sw_decode": after_sw_decode,
        "multiround.run_session": after_run_session,
    }
    for module_name, names in FUNCTIONS.items():
        module = pl[module_name]
        for name in names:
            original = getattr(module, name)
            span = f"{module_name}.{name}"
            _patch(original, tracer.wrap(span, original, after=hooks.get(span)))

    reproduce = pl["reproduce"]
    for name, criterion in CRITERIA.items():
        original = getattr(reproduce, name)
        _patch(original, tracer.wrap(f"reproduce.criterion_{criterion}", original))

    for module_name, names in FACTORIES.items():
        module = pl[module_name]
        for name in names:
            setattr(module, name, tracer.factory(getattr(module, name)))

    dist_cls = pl["dist"].ExactDist
    init = dist_cls.__init__

    def after_init(duration, args, kwargs, result):
        tracer.maxima["dist.ExactDist.support"] = max(
            tracer.maxima["dist.ExactDist.support"], len(args[0])
        )

    dist_cls.__init__ = tracer.wrap("dist.ExactDist", init, after=after_init)
