"""Smoke test of the benchmark's own code at tiny sizes (about half a minute).

Usage, from the root of a checkout: python3 perfbench/smoke.py

1. Runs all four CLI commands in-process under each probe and checks that
   every levyfilter module attribute (and ``FrequencyGrid.build``) is the
   identical object before and after, i.e. the wrappers are removed.
2. Runs the end-to-end and traced pipelines on a tiny simulate workload and
   checks that every metric BENCHMARK.json names is reported and that the
   runs pass their output, determinism and count-repeat checks.
"""

from __future__ import annotations

import configparser
import io
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "scenario": {"horizon": "0.3"},
    "run": {"particle_counts": "[50, 100, 200]", "replications": "2"},
    "metric": {"cutoff": "5.0"},
    "oracle": {"grid_points": "64"},
    "baseline": {"epsilons": "[0.1, 0.05]"},
    "validate": {"scale": "0.01"},
}


def fail(message):
    raise SystemExit(f"smoke: {message}")


def tiny_config(directory: Path) -> Path:
    parser = configparser.ConfigParser()
    parser.read_string((run.ROOT / "configs/default.ini").read_text())
    parser.read_dict(TINY)
    path = directory / "tiny.ini"
    with path.open("w") as handle:
        parser.write(handle)
    return path


def snapshot():
    import levyfilter.metrics

    modules = tracer.package_modules()
    state = {m.__name__: dict(vars(m)) for m in modules}
    state["FrequencyGrid"] = dict(vars(levyfilter.metrics.FrequencyGrid))
    return state


def changed(before, after):
    """(owner, attribute) pairs whose object differs between two snapshots."""
    return [
        (owner, attr)
        for owner in before
        for attr in before[owner].keys() | after[owner].keys()
        if before[owner].get(attr) is not after[owner].get(attr)
    ]


def check_wrappers_removed(config: Path, out: Path):
    import levyfilter.cli

    before = snapshot()
    for make in (tracer.Tracer, tracer.Counter):
        probe = make()
        if not changed(before, snapshot()):
            fail(f"{make.__name__} replaced nothing")
        try:
            for command in run.WORKLOADS.values():
                args = [command.command, "--config", str(config), "--out", str(out)]
                with redirect_stdout(io.StringIO()):
                    levyfilter.cli.main(args)
        finally:
            probe.remove()
        left = changed(before, snapshot())
        if left:
            fail(f"{make.__name__} left these attributes changed: {left}")


def check_pipeline(config: Path):
    workload = run.Workload("oracle", "simulate", str(config.relative_to(run.ROOT)))
    runner = run.Runner(workload, run.DEFAULT_SEED)
    try:
        values, probes, runs = run.end_to_end(runner, seconds=0.0)
        layers, traced = run.traced_runs(runner)
    finally:
        runner.close()
    problems = [p for r in probes + runs + traced for p in r["problems"]]
    if problems:
        fail(f"runs failed: {problems}")
    for trace, got in ((False, values), (True, layers)):
        missing = [m["name"] for m in run.declared_metrics(trace) if m["name"] not in got]
        if missing:
            fail(f"metrics not reported: {missing}")


def main():
    scratch = run.WORK / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        config = tiny_config(scratch)
        check_wrappers_removed(config, scratch / "out")
        check_pipeline(config)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: ok")


if __name__ == "__main__":
    main()
