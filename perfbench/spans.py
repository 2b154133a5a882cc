"""In-memory spans around trajsmooth's module-boundary functions.

trajsmooth itself records nothing. `Tracer.installed()` replaces module
attributes with timing wrappers for the duration of a `with` block and puts
the originals back afterwards, so an untraced run executes the unmodified
functions.

A name imported with `from .x import f` is looked up in the importing
module's namespace, so each function is patched where its callers find it
(for example `murty` inside `trajsmooth.forward`, `_ranked` inside
`trajsmooth.backward`).

Functions called once per particle and step (kernel builds, sampling) run
millions of times per item. Recording each call would cost hundreds of MB, so
those are *counted* spans: each call adds its count, busy time and self time
to a per-name total and its duration to the time its enclosing span's
children cover, but leaves no record of its own. Every other call is a
recorded span with name, start, end, parent and item id.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass


def _cells(tracer, args, kwargs, result):
    pmb, scan = args[0], args[1]
    return len(scan) * (len(pmb.bernoullis) + len(scan))


def _saturated(tracer, args, kwargs, result):
    m_best = kwargs["m_best"] if "m_best" in kwargs else args[1]
    return int(len(result) == m_best)


def _conditioning(tracer, args, kwargs, result):
    # the conditioning trajectory set, as a set: order does not change the kernel
    trajectories = kwargs["trajectories"] if "trajectories" in kwargs else args[3]
    k = kwargs["k"] if "k" in kwargs else (args[5] if len(args) > 5 else 0)
    key = tuple(sorted((tr.t, tr.states.tobytes()) for tr in trajectories))
    tracer.conditioning.add((tracer.current_span, k, hash(key)))
    return 0


def _hypotheses(tracer, args, kwargs, result):
    return len(result.hypotheses)


# (module, attribute, span name, counted, note). A span name's first part is
# its layer; `note` returns a number summed per name (cells, saturated calls...).
PATCHES = [
    ("cli", "cmd_simulate", "cli.simulate", False, None),
    ("cli", "cmd_filter", "cli.filter", False, None),
    ("cli", "cmd_smooth", "cli.smooth", False, None),
    ("cli", "cmd_evaluate", "cli.evaluate", False, None),
    ("cli", "cmd_mc", "cli.mc", False, None),
    ("cli", "simulate_scenario", "simulate.simulate_scenario", False, None),
    ("cli", "run_forward", "forward.run_forward", False, None),
    ("forward", "predict_pmb", "forward.predict_pmb", False, None),
    ("forward", "update_pmb", "forward.update_pmb", False, _cells),
    ("forward", "prune_pmb", "forward.prune_pmb", False, None),
    ("forward", "murty", "assignment.murty", False, _saturated),
    ("cli", "backward_simulate", "backward.backward_simulate", False, None),
    ("backward", "backward_simulate", "backward.backward_simulate", False, None),
    ("backward", "build_backward_kernel", "backward.build_backward_kernel", True, _conditioning),
    ("backward", "sample_global", "backward.sample_global", True, None),
    ("backward", "_ranked", "assignment.ranked", True, _saturated),
    ("backward", "sample_bernoulli", "backward.sample_bernoulli", True, None),
    ("backward", "sample_gaussian", "gaussians.sample_gaussian", True, None),
    ("cli", "exact_smooth", "oracle.exact_smooth", False, _hypotheses),
    ("oracle", "exact_smooth", "oracle.exact_smooth", False, _hypotheses),
    ("cli", "gospa_over_time", "metrics.gospa_over_time", False, None),
    ("cli", "particle_stats", "metrics.particle_stats", False, None),
]

LAYERS = ("simulate", "forward", "assignment", "backward", "gaussians", "oracle", "metrics", "cli")
ITEM = "item"  # root span of one workload item; its self time is unattributed
UNDERFLOW = "first-detection weight underflow"


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    item: int
    start: float = 0.0
    end: float = 0.0
    covered: float = 0.0  # time covered by direct children, recorded or counted
    note: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


@dataclass
class Totals:
    """Running sums over every call of one function."""

    calls: int = 0
    busy: float = 0.0
    self: float = 0.0
    note: float = 0.0


class Tracer:
    """Records spans and counted-span totals in memory until `write` is called."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counted: dict[str, Totals] = {}
        self.conditioning: set = set()
        self._stack: list[int] = []  # open recorded spans
        self._covered: list[float] = [0.0]  # child time of each open frame
        self._item = -1
        self.underflow_warnings = 0

    @property
    def current_span(self) -> int:
        return self._stack[-1] if self._stack else -1

    def _open(self, name: str) -> Span:
        span = Span(name, self.current_span, self._item)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._covered.append(0.0)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.covered = self._covered.pop()
        self._covered[-1] += span.duration
        self._stack.pop()

    def _recorded(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.note = note(self, args, kwargs, result)
            return result

        return traced

    def _counted(self, fn, name, note):
        totals = self.counted.setdefault(name, Totals())
        covered = self._covered
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                totals.calls += 1
                totals.busy += duration
                totals.self += duration - covered.pop()
                covered[-1] += duration
            if note is not None:
                totals.note += note(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every function in PATCHES for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counted, note in PATCHES:
                module = importlib.import_module(f"trajsmooth.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                wrap = self._counted if counted else self._recorded
                setattr(module, attr, wrap(original, name, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def item(self, index: int):
        """Root span for one item; counts first-detection underflow warnings."""
        self._item = index
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            span = self._open(ITEM)
            try:
                yield span
            finally:
                self._close(span)
                self._item = -1
        self.underflow_warnings += sum(str(w.message).startswith(UNDERFLOW) for w in caught)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s.name, "parent": s.parent, "item": s.item,
                    "start": s.start, "end": s.end, "covered": s.covered, "note": s.note,
                }) + "\n")
            for name, t in self.counted.items():
                fh.write(json.dumps({"counted": name, "calls": t.calls, "busy": t.busy,
                                     "self": t.self, "note": t.note}) + "\n")

    def totals(self) -> dict[str, Totals]:
        """Recorded and counted spans summed by name."""
        out: dict[str, Totals] = {}
        for s in self.spans:
            t = out.setdefault(s.name, Totals())
            t.calls += 1
            t.busy += s.duration
            t.self += s.self_time
            t.note += s.note
        for name, c in self.counted.items():
            t = out.setdefault(name, Totals())
            t.calls += c.calls
            t.busy += c.busy
            t.self += c.self
            t.note += c.note
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and busy/self times, plus self time summed by layer."""
        by_name = self.totals()
        get = lambda name: by_name.get(name, Totals())

        def frac(name: str) -> float:
            t = get(name)
            return t.note / t.calls if t.calls else 0.0

        builds = get("backward.build_backward_kernel").calls
        out = {
            "simulate.busy_s": get("simulate.simulate_scenario").busy,
            "forward.update_s": get("forward.update_pmb").self,
            "forward.predict_s": get("forward.predict_pmb").busy,
            "forward.prune_s": get("forward.prune_pmb").busy,
            "forward.steps": get("forward.update_pmb").calls,
            "forward.cost_cells": int(get("forward.update_pmb").note),
            "assignment.murty_s": get("assignment.murty").busy,
            "assignment.murty_calls": get("assignment.murty").calls,
            "assignment.murty_saturated_frac": frac("assignment.murty"),
            "assignment.ranked_s": get("assignment.ranked").busy,
            "assignment.ranked_calls": get("assignment.ranked").calls,
            "assignment.ranked_saturated_frac": frac("assignment.ranked"),
            "backward.busy_s": get("backward.backward_simulate").busy,
            "backward.kernel_s": get("backward.build_backward_kernel").busy,
            "backward.kernel_builds": builds,
            # distinct conditioning sets per (backward run, step) over all builds
            "backward.distinct_cond_frac": len(self.conditioning) / builds if builds else 0.0,
            "backward.sample_global_s": get("backward.sample_global").self,
            "backward.sample_bernoulli_s": get("backward.sample_bernoulli").self,
            "backward.sample_bernoulli_calls": get("backward.sample_bernoulli").calls,
            "backward.self_s": get("backward.backward_simulate").self,
            "backward.underflow_warnings": self.underflow_warnings,
            "gaussians.sample_calls": get("gaussians.sample_gaussian").calls,
            "gaussians.sample_s": get("gaussians.sample_gaussian").busy,
            "oracle.busy_s": get("oracle.exact_smooth").busy,
            "oracle.hypotheses": int(get("oracle.exact_smooth").note),
            "metrics.gospa_s": get("metrics.gospa_over_time").busy,
            "metrics.gospa_calls": get("metrics.gospa_over_time").calls,
            "cli.io_s": sum(t.self for n, t in by_name.items() if n.startswith("cli.")),
        }
        for layer in LAYERS:
            out[f"selftime.{layer}_s"] = sum(
                t.self for n, t in by_name.items() if n.split(".")[0] == layer
            )
        out["selftime.unattributed_s"] = get(ITEM).self
        out["trace.wall_s"] = get(ITEM).busy
        return out
