"""Wrappers around levyfilter's public functions, installed and removed at run time.

The benchmark records everything from outside the program: a wrapper replaces
a function at every ``levyfilter`` module binding that refers to it (so
``levyfilter.experiments.run_filter`` and ``levyfilter.checks.run_filter`` are
wrapped along with ``levyfilter.branching.run_filter``), and ``remove`` puts
each original object back.  Nothing under ``src/`` is edited.

Two kinds of probe exist:

* ``Counter`` (untraced runs): wraps only the calls that start the
  computation, to read the clock once at the first of them (the end of
  set-up), and reads particle-epoch counts off the results of
  ``run_filter``/``run_baseline`` after they return.  It times nothing else.
* ``Tracer`` (traced runs): wraps every public module-level function of the
  eight layers plus ``FrequencyGrid.build``, and records calls, busy time,
  self time and exact work counts.

A span's exclusive time is its duration minus the time covered by nested
wrapped calls.  Its layer self time also keeps the exclusive time of the
same-layer calls nested directly under it: ``run_filter``'s includes
``evolve_segment``'s bookkeeping, and ``run_baseline``'s includes
``multinomial_baseline_step``.  Only the outermost span of a same-layer
chain is credited, so the layer self times of one layer sum to the
exclusive times of its spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter as Tally
from pathlib import Path

LAYERS = (
    "stable",
    "observation",
    "branching",
    "reference",
    "metrics",
    "experiments",
    "checks",
    "harness",
)

# The first call into any of these ends set-up: import, parse_config and the
# signal/observation/metric models are built before it in every command.
ENTRY_POINTS = (
    "observation.simulate_scenario",
    "checks.default_validation_suite",
    "experiments.rate_sweep",
    "experiments.baseline_comparison",
    "branching.run_filter",
    "branching.run_baseline",
    "reference.run_reference",
)


class SetupDone(BaseException):
    """Raised at the first entry call by a set-up probe.

    A BaseException, so the CLI's RuntimeError handler lets it through.
    """


def package_modules():
    """Every levyfilter module; importing the CLI loads them all."""
    importlib.import_module("levyfilter.cli")
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "levyfilter" or name.startswith("levyfilter.")
    ]


def public_functions():
    """(qualified name, function) for every public module-level function of the layers."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"levyfilter.{layer}")
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
            ):
                out.append((f"{layer}.{attr}", value))
    return out


class _Patches:
    """Replaces objects at every binding and restores the originals."""

    def __init__(self):
        self._saved = []
        self._modules = package_modules()

    def replace(self, original, replacement):
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def replace_attr(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _filter_counts(run):
    """(particle-epochs, branch events, peak population, extinct) of one FilterRun."""
    pre = [s.pre.count for s in run.steps]
    post = [s.post.count for s in run.steps]
    return (
        sum(pre),
        sum(s.branch_events for s in run.steps),
        max([run.initial.count] + post),
        int(run.extinct),
    )


class Counter:
    """Untraced probe: the set-up end time and the particle-epoch count.

    With ``stop_at_entry`` the first entry call raises SetupDone instead of
    running, which turns a command into a set-up-only probe.
    """

    def __init__(self, stop_at_entry=False, clock=time.perf_counter):
        self.clock = clock
        self.stop_at_entry = stop_at_entry
        self.first_entry = None
        self.particle_epochs = 0
        self._patches = _Patches()
        functions = dict(public_functions())
        for name in ENTRY_POINTS:
            self._patches.replace(functions[name], self._wrap(name, functions[name]))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.first_entry is None:
                self.first_entry = self.clock()
                if self.stop_at_entry:
                    raise SetupDone()
            result = fn(*args, **kwargs)
            if name == "branching.run_filter":
                self.particle_epochs += _filter_counts(result)[0]
            elif name == "branching.run_baseline":
                self.particle_epochs += sum(s.post.count for s in result)
            return result

        return wrapper

    def remove(self):
        self._patches.restore()

    def summary(self):
        return {"first_entry": self.first_entry, "particle_epochs": self.particle_epochs}


class Tracer:
    """Traced probe: per-function calls, busy and self time, and work counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}  # name -> [calls, busy_s, exclusive_s, layer_self_s]
        self.counts = Tally()
        self.filter_calls = []  # (n, particle-epochs, layer self s) per run_filter call
        self.first_entry = None
        self._open = []  # [covered_s, same-layer exclusive_s, layer] per open span
        self._patches = _Patches()
        for name, fn in public_functions():
            self._patches.replace(fn, self._wrap(name, fn))
        grid = importlib.import_module("levyfilter.metrics").FrequencyGrid
        build = grid.__dict__["build"].__func__
        self._patches.replace_attr(
            grid, "build", classmethod(self._wrap("metrics.FrequencyGrid.build", build))
        )

    def _wrap(self, name, fn):
        span = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)
        entry = name in ENTRY_POINTS
        layer = name.split(".")[0]
        clock = self.clock
        stack = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if entry and self.first_entry is None:
                self.first_entry = clock()
            stack.append([0.0, 0.0, layer])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - start
                covered, nested, _ = stack.pop()
                exclusive = busy - covered
                own = nested + exclusive
                span[0] += 1
                span[1] += busy
                span[2] += exclusive
                if stack:
                    stack[-1][0] += busy
                if stack and stack[-1][2] == layer:
                    stack[-1][1] += own
                else:
                    span[3] += own
            if hook is not None:
                hook(args, kwargs, result, own)
            return result

        return wrapper

    # Exact work counts, read from arguments and results after each call.

    def _count_stable_sample_increment(self, args, kwargs, result, self_s):
        self.counts["draws"] += result.shape[0] if result.ndim == 2 else 1

    def _count_observation_weight(self, args, kwargs, result, self_s):
        self.counts["weight_points"] += int(result.size) if hasattr(result, "size") else 1

    def _count_branching_run_filter(self, args, kwargs, result, self_s):
        pe, events, peak, extinct = _filter_counts(result)
        self.counts["filter_particle_epochs"] += pe
        self.counts["branch_events"] += events
        self.counts["extinct_runs"] += extinct
        self.counts["peak_population"] = max(self.counts["peak_population"], peak)
        self.filter_calls.append((result.initial.count, pe, self_s))

    def _count_branching_run_baseline(self, args, kwargs, result, self_s):
        self.counts["baseline_particle_epochs"] += sum(s.post.count for s in result)
        self.counts["relocations"] += sum(s.relocations for s in result)

    def _count_reference_grid_transform(self, args, kwargs, result, self_s):
        self.counts["grid_transform_terms"] += args[0].density.size * result.size

    def _count_experiments_ensemble_transform(self, args, kwargs, result, self_s):
        self.counts["ensemble_transform_terms"] += args[0].count * result.size

    def _count_harness_emit_results(self, args, kwargs, result, self_s):
        manifest = Path(result)
        files = json.loads(manifest.read_text())["files"]
        self.counts["bytes_written"] += sum(f["bytes"] for f in files)
        self.counts["bytes_written"] += manifest.stat().st_size

    def remove(self):
        self._patches.restore()

    def summary(self):
        return {
            "first_entry": self.first_entry,
            "particle_epochs": self.counts["filter_particle_epochs"]
            + self.counts["baseline_particle_epochs"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "filter_calls": self.filter_calls,
        }
