"""levyfilter benchmark: one CLI command per workload, in fresh child processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,validate,oracle,baseline}
        [--seed N] [--seconds S] [--trace 0|1] [--program-seed N]

Workloads (one caller, closed loop, one command at a time):

    sweep     rate-sweep        configs/default.ini
    validate  validate          configs/default.ini
    oracle    simulate          perfbench/configs/oracle.ini    (epsilon 0.025)
    baseline  compare-baseline  perfbench/configs/baseline.ini  (n = 16000)

The CLI's ``--seed`` is ``--program-seed``, by default the shipped config seed
20050415, whatever ``--seed`` is.  The program's inputs are therefore the
same on every run unless ``--program-seed`` is given.  The amount of work
depends heavily on the observation record that the seed draws.  Without
population control the branching population is a random walk, and its mean
growth over one sweep record ranges from 0.62x to 4.0x across seeds 1-30.
As a result, on a 2-vCPU Xeon virtual machine, ``rate-sweep`` took 31 s on
seed 2 and 101 s on seed 3.  A
seed-varied input would measure the record, not the code.  Use
``--program-seed`` to re-check a claim on a seed not used while writing it.

With ``--trace 0`` the command runs untraced until ``--seconds`` have passed
(at least once), after set-up-only probes, and the end-to-end metrics are
reported.  With ``--trace 1`` it runs once untraced and twice traced (see
``tracer.py``) and the per-layer metrics are reported.  Every run's exit code,
stdout and manifest hashes are checked, and all runs of one invocation must
write identical manifests; a failed run fails all of its operations (a filter
run in ``sweep``, a check in ``validate``, the command otherwise).

The last stdout line is the result object; the line before it holds the
details: machine facts, a reference-loop time taken before and after the runs,
per-run samples, artifact hashes, exact counts and layer shares.  It also
holds ``other_values``: every computed value that BENCHMARK.json does not
list.  That includes the per-layer times of functions that some workload
never calls, such as ``checks.*`` or ``experiments.ensemble_transform.*``,
which would read 0 on every run there.  Each child runs with the BLAS pinned
to one thread.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 20050415
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHECK_NAMES = (
    "characteristic_function",
    "offspring_unbiasedness",
    "weight_moment_scaling",
    "quadratic_variation",
    "compensator",
    "mass_moments",
    "branch_sparsity",
    "oracle_agreement",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str  # relative to the checkout root

    def settings(self):
        parser = configparser.ConfigParser()
        parser.read_string((ROOT / self.config).read_text())
        return parser


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "rate-sweep", "configs/default.ini"),
        Workload("validate", "validate", "configs/default.ini"),
        Workload("oracle", "simulate", "perfbench/configs/oracle.ini"),
        Workload("baseline", "compare-baseline", "perfbench/configs/baseline.ini"),
    )
}

_RATE_LINE = re.compile(r"rate fit: slope (\S+), ci \[\S+, \S+\], extinct (\d+)/(\d+)")
_CHECK_LINE = re.compile(r"^(PASS|FAIL|SKIPPED)\s+(\S+):", re.M)


def operations(workload: Workload) -> int:
    """Operations one command run attempts."""
    if workload.name == "sweep":
        run = workload.settings()["run"]
        return len(json.loads(run["particle_counts"])) * int(run["replications"])
    if workload.name == "validate":
        return len(CHECK_NAMES)
    return 1


def output_problems(workload: Workload, stdout: str) -> list:
    """Workload-specific checks of a command's printed output."""
    if workload.name == "sweep":
        match = _RATE_LINE.search(stdout)
        if match is None:
            return ["no rate-fit line"]
        rate = workload.settings()["rate"]
        slope, extinct, total = float(match[1]), int(match[2]), int(match[3])
        problems = []
        if not float(rate["slope_low"]) <= slope <= float(rate["slope_high"]):
            problems.append(f"slope {slope} outside the configured window")
        if extinct != 0 or total != operations(workload):
            problems.append(f"extinct {extinct}/{total}")
        return problems
    if workload.name == "validate":
        statuses = _CHECK_LINE.findall(stdout)
        if len(statuses) != len(CHECK_NAMES) or any(s != "PASS" for s, _ in statuses):
            return [f"checks: {statuses}"]
    return []


def manifest_problems(out_dir: Path):
    """(manifest bytes, {artifact: sha256}, problems) after checking each hash on disk."""
    manifests = sorted(out_dir.glob("*_manifest.json"))
    if len(manifests) != 1:
        return b"", {}, [f"expected one manifest, found {len(manifests)}"]
    raw = manifests[0].read_bytes()
    problems = []
    hashes = {}
    for entry in json.loads(raw)["files"]:
        path = out_dir / entry["name"]
        data = path.read_bytes() if path.is_file() else None
        if data is None or hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"{entry['name']}: missing or hash mismatch")
        elif len(data) != entry["bytes"]:
            problems.append(f"{entry['name']}: size mismatch")
        hashes[entry["name"]] = entry["sha256"]
    listed = set(hashes) | {manifests[0].name}
    extra = sorted(p.name for p in out_dir.iterdir() if p.name not in listed)
    if extra:
        problems.append(f"files not in the manifest: {extra}")
    return raw, hashes, problems


class Runner:
    """Starts child runs of one workload and seed, each under the deadline."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = {**os.environ, **THREAD_ENV}
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.count = 0

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, mode: str) -> dict:
        """One child process; returns its samples, record and problems."""
        self.count += 1
        out = self.dir / f"{self.count}-{mode}"
        out.mkdir()
        record_path = self.dir / f"{self.count}-{mode}.json"
        args = [
            sys.executable,
            str(HERE / "child.py"),
            mode,
            str(record_path),
            self.workload.command,
            "--config",
            str(ROOT / self.workload.config),
            "--seed",
            str(self.seed),
            "--out",
            str(out),
        ]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                args,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.time_left()),
            )
        except subprocess.TimeoutExpired:
            return {"mode": mode, "problems": ["timed out"]}
        wall = time.perf_counter() - start
        result = {"mode": mode, "wall_s": wall, "problems": []}
        if proc.returncode != 0 or not record_path.is_file():
            tail = proc.stderr.strip().splitlines()[-3:]
            result["problems"].append(f"exit code {proc.returncode}: {tail}")
            return result
        record = json.loads(record_path.read_text())
        result["record"] = record
        if record["first_entry"] is None:
            result["problems"].append("no entry call reached")
        else:
            result["setup_s"] = record["first_entry"] - start
        result["rss_mb"] = record["maxrss_kb"] / 1024.0
        if mode != "setup":
            result["problems"] += output_problems(self.workload, proc.stdout)
            raw, hashes, problems = manifest_problems(out)
            result["manifest_sha256"] = hashlib.sha256(raw).hexdigest()
            result["artifacts"] = hashes
            result["problems"] += problems
        shutil.rmtree(out)
        return result

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def code_key(workload: Workload, seed: int) -> str:
    """Identifies the program sources, the config and the seed of a run."""
    digest = hashlib.sha256(f"{workload.command} {seed}\n".encode())
    for path in sorted((ROOT / "src").rglob("*.py")) + [ROOT / workload.config]:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeats(runs: list, workload: Workload, seed: int):
    """Every run of the invocation, and earlier invocations of the same code, match."""
    done = [r for r in runs if "manifest_sha256" in r]
    if not done:
        return
    first = done[0]["manifest_sha256"]
    for r in done[1:]:
        if r["manifest_sha256"] != first:
            r["problems"].append("manifest differs from the first run")
    previous = WORK / "manifests" / f"{workload.name}-{code_key(workload, seed)}.sha256"
    if previous.is_file() and previous.read_text() != first:
        for r in done:
            r["problems"].append("manifest differs from an earlier invocation")
    previous.parent.mkdir(parents=True, exist_ok=True)
    previous.write_text(first)


def end_to_end(runner: Runner, seconds: float):
    """Set-up probes, then untraced runs for the given time."""
    runner.run("setup")  # warm-up: byte-compiles the package
    probes = [runner.run("setup") for _ in range(SETUP_PROBES)]
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        if runs and runs[-1].get("wall_s", 0.0) > runner.time_left():
            break
        runs.append(runner.run("run"))
    check_repeats(runs, runner.workload, runner.seed)
    measured = [r for r in runs if "record" in r]
    if not measured:
        return None, probes, runs
    epochs = {r["record"]["particle_epochs"] for r in measured}
    if len(epochs) > 1:
        for r in runs:
            r["problems"].append(f"particle-epoch counts differ: {sorted(epochs)}")
    wall = statistics.median(r["wall_s"] for r in measured)
    setups = [r["setup_s"] for r in probes + runs if "setup_s" in r]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "particle_epochs_per_s": max(epochs) / wall,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in measured),
        "particle_epochs": max(epochs),
    }
    return metrics, probes, runs


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(traced: list, untraced: dict) -> dict:
    """Per-layer metrics from two traced runs (times as medians, counts from the first)."""
    records = [r["record"] for r in traced]
    counts = records[0]["counts"]

    def count(key):
        return counts.get(key, 0)

    def span(name, field=1):  # 0 calls (exact), 1 busy s, 2 exclusive s, 3 layer self s
        if field == 0:
            return records[0]["spans"].get(name, [0])[0]
        return statistics.median(r["spans"].get(name, [0, 0.0, 0.0, 0.0])[field] for r in records)

    def filter_self_ns(n):
        values = []
        for r in records:
            calls = [c for c in r["filter_calls"] if c[0] == n]
            values.append(_ratio(sum(c[2] for c in calls), sum(c[1] for c in calls), 1e9))
        return statistics.median(values)

    def layer_self(layer):
        return statistics.median(
            sum(s[2] for name, s in r["spans"].items() if name.startswith(layer + "."))
            for r in records
        )

    draws, points = count("draws"), count("weight_points")
    filter_pe, baseline_pe = count("filter_particle_epochs"), count("baseline_particle_epochs")
    grid_terms, particle_terms = count("grid_transform_terms"), count("ensemble_transform_terms")
    m = {
        "stable.sample_increment.calls": span("stable.sample_increment", 0),
        "stable.sample_increment.draws": draws,
        "stable.sample_increment.busy_s": span("stable.sample_increment"),
        "stable.sample_increment.ns_per_draw": _ratio(span("stable.sample_increment"), draws, 1e9),
        "stable.empirical_cf.busy_s": span("stable.empirical_cf"),
        "stable.quadratic_variation_paths.busy_s": span("stable.quadratic_variation_paths"),
        "observation.weight.calls": span("observation.weight", 0),
        "observation.weight.points": points,
        "observation.weight.busy_s": span("observation.weight"),
        "observation.weight.ns_per_point": _ratio(span("observation.weight"), points, 1e9),
        "observation.simulate_scenario.busy_s": span("observation.simulate_scenario"),
        "branching.run_filter.calls": span("branching.run_filter", 0),
        "branching.run_filter.particle_epochs": filter_pe,
        "branching.run_filter.busy_s": span("branching.run_filter"),
        "branching.run_filter.self_s": span("branching.run_filter", 3),
        "branching.run_filter.self_ns_per_particle_epoch": _ratio(
            span("branching.run_filter", 3), filter_pe, 1e9
        ),
        "branching.run_filter.self_ns_per_particle_epoch.n250": filter_self_ns(250),
        "branching.run_filter.self_ns_per_particle_epoch.n16000": filter_self_ns(16000),
        "branching.touched_fraction": _ratio(count("branch_events"), filter_pe),
        "branching.peak_population": count("peak_population"),
        "branching.extinct_runs": count("extinct_runs"),
        "branching.run_baseline.calls": span("branching.run_baseline", 0),
        "branching.run_baseline.particle_epochs": baseline_pe,
        "branching.run_baseline.self_s": span("branching.run_baseline", 3),
        "branching.run_baseline.self_ns_per_particle_epoch": _ratio(
            span("branching.run_baseline", 3), baseline_pe, 1e9
        ),
        "branching.run_baseline.relocations": count("relocations"),
        "branching.relocation_fraction": _ratio(count("relocations"), baseline_pe),
        "reference.run_reference.busy_s": span("reference.run_reference"),
        "reference.predict_step.calls": span("reference.predict_step", 0),
        "reference.predict_step.ms_per_call": _ratio(
            span("reference.predict_step"), span("reference.predict_step", 0), 1e3
        ),
        "reference.update_step.calls": span("reference.update_step", 0),
        "reference.update_step.ms_per_call": _ratio(
            span("reference.update_step"), span("reference.update_step", 0), 1e3
        ),
        "reference.grid_transform.calls": span("reference.grid_transform", 0),
        "reference.grid_transform.terms": grid_terms,
        "reference.grid_transform.busy_s": span("reference.grid_transform"),
        "reference.grid_transform.ms_per_call": _ratio(
            span("reference.grid_transform"), span("reference.grid_transform", 0), 1e3
        ),
        "reference.grid_transform.ns_per_term": _ratio(
            span("reference.grid_transform"), grid_terms, 1e9
        ),
        "experiments.ensemble_transform.calls": span("experiments.ensemble_transform", 0),
        "experiments.ensemble_transform.terms": particle_terms,
        "experiments.ensemble_transform.busy_s": span("experiments.ensemble_transform"),
        "experiments.ensemble_transform.ms_per_call": _ratio(
            span("experiments.ensemble_transform"), span("experiments.ensemble_transform", 0), 1e3
        ),
        "experiments.ensemble_transform.ns_per_term": _ratio(
            span("experiments.ensemble_transform"), particle_terms, 1e9
        ),
        "metrics.filter_error.calls": span("metrics.filter_error", 0),
        "metrics.filter_error.busy_s": span("metrics.filter_error"),
        "metrics.frequency_grid_build_s": span("metrics.FrequencyGrid.build"),
        "harness.parse_config_s": span("harness.parse_config"),
        "harness.emit_results.busy_s": span("harness.emit_results"),
        "harness.bytes_written": count("bytes_written"),
    }
    for check in CHECK_NAMES:
        m[f"checks.{check}.busy_s"] = span(f"checks.check_{check}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    wall = statistics.median(r["wall_s"] for r in traced)
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - untraced["wall_s"]
    m["trace.unattributed_s"] = wall - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return m


def shares(m: dict) -> dict:
    """Shares of the traced wall time named in the benchmark's design notes."""
    wall = m["trace.wall_s"]
    return {
        "branching_self_plus_ensemble_transform": (
            m["branching.self_s"] + m["experiments.ensemble_transform.busy_s"]
        ) / wall,
        "run_filter_self": m["branching.run_filter.self_s"] / wall,
        "run_baseline_self": m["branching.run_baseline.self_s"] / wall,
        "ensemble_transform": m["experiments.ensemble_transform.busy_s"] / wall,
        "grid_transform": m["reference.grid_transform.busy_s"] / wall,
        **{f"{layer}_self": m[f"{layer}.self_s"] / wall for layer in LAYERS},
        "unattributed": m["trace.unattributed_s"] / wall,
    }


def exact_counts(record: dict):
    """The counts of a traced run that must repeat exactly: work, calls, filter sizes."""
    calls = {name: s[0] for name, s in record["spans"].items()}
    return record["counts"], calls, [c[:2] for c in record["filter_calls"]]


def traced_runs(runner: Runner):
    """One untraced and two traced runs; the counts of the traced runs must repeat."""
    untraced = runner.run("run")
    traced = [runner.run("trace"), runner.run("trace")]
    runs = [untraced] + traced
    check_repeats(runs, runner.workload, runner.seed)
    if any("record" not in r for r in runs):
        return None, runs
    first, second = (exact_counts(r["record"]) for r in traced)
    if first != second:
        for r in traced:
            r["problems"].append("traced counts differ between the two traced runs")
    if untraced["record"]["particle_epochs"] != traced[0]["record"]["particle_epochs"]:
        for r in runs:
            r["problems"].append("untraced and traced particle-epoch counts differ")
    return layer_metrics(traced, untraced), runs


def machine_facts(runs: list) -> dict:
    record = next((r["record"] for r in runs if "record" in r), {})
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next(
            (line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
             if line.startswith("model name")),
            "",
        )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": record.get("numpy"),
        "blas": record.get("blas"),
        "blas_config": record.get("blas_config"),
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
    }


def machine_reference() -> float:
    """Median seconds of a fixed pure-Python loop, to show machine-speed drift between runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (recorded)")
    parser.add_argument("--program-seed", type=int, default=DEFAULT_SEED, help="the CLI's --seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    for needed in ("src/levyfilter/cli.py", workload.config):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2

    reference_before = machine_reference()
    runner = Runner(workload, args.program_seed)
    try:
        if args.trace:
            values, runs = traced_runs(runner)
            probes = []
        else:
            values, probes, runs = end_to_end(runner, args.seconds)
    finally:
        runner.close()
    per_run_ops = operations(workload)
    failed = sum(per_run_ops for r in runs if r["problems"])
    problems = [p for r in probes + runs for p in r["problems"]]
    detail = {
        "workload": workload.name,
        "command": workload.command,
        "config": workload.config,
        "seed": args.seed,
        "program_seed": args.program_seed,
        "trace": args.trace,
        "machine": machine_facts(runs),
        "reference_loop_s": [reference_before, machine_reference()],
        "runs": [
            {k: r.get(k) for k in ("mode", "wall_s", "setup_s", "rss_mb", "manifest_sha256", "problems")}
            for r in probes + runs
        ],
        "artifacts": next((r["artifacts"] for r in runs if r.get("artifacts")), {}),
        "error_rate": failed / (per_run_ops * len(runs)),
    }
    metrics = {}
    if values is not None:
        for spec in declared_metrics(bool(args.trace)):
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        detail["other_values"] = {k: v for k, v in values.items() if k not in metrics}
        if args.trace:
            detail["counts"] = runs[1]["record"]["counts"]
            detail["shares"] = shares(values)
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems and values is not None,
                "attempted": per_run_ops * len(runs),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
