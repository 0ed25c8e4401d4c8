"""Experiment configuration, commands, and machine-readable artifacts.

Configurations are flat sectioned INI text (schema documented in the README;
list- and record-valued keys hold JSON).  Every command writes CSV artifacts
with deterministic names plus a JSON manifest carrying a content hash per
file, so identical (config, seed) runs are byte-identical end to end.

Exit codes: 0 pass, 1 check failure, 2 config error, 3 runtime error
(including an extinction fraction above 20% in sweeps).
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .branching import run_filter
from .checks import default_validation_suite
from .experiments import baseline_comparison, rate_sweep
from .metrics import FrequencyGrid, default_gamma
from .observation import (
    ClippedLinearSensor,
    GaussianBumpSensor,
    ObservationModel,
    ZeroSensor,
    simulate_scenario,
)
from .reference import run_reference
from .seeding import substream
from .stable import InitialLaw, SignalModel, SpectralMeasure

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "default_config_text",
    "build_signal",
    "build_observation",
    "build_metric",
    "emit_results",
    "run_command",
]

EXTINCTION_LIMIT = 0.2

_DEFAULTS = {
    "scenario": {"name": "default", "horizon": "2.0"},
    "signal": {
        "alpha": "2.0",
        "dimension": "1",
        "atoms": '[{"direction": [1.0], "weight": 0.5}]',
        "initial_law": "gaussian",
        "initial_center": "[0.0]",
        "initial_scale": "[1.0]",
    },
    "observation": {
        "sensor": "gaussian_bump",
        "observation_dim": "1",
        "epsilon": "0.1",
        "bump_amplitudes": "[1.0]",
        "bump_centers": "[[0.0]]",
        "bump_widths": "[1.0]",
        "linear_matrix": "[[1.0]]",
        "linear_clip": "20.0",
    },
    "run": {
        "particle_counts": "[250, 500, 1000, 2000, 4000, 8000, 16000]",
        "replications": "100",
        "seed": "20050415",
        "population_control": "off",
        "control_low": "0.5",
        "control_high": "2.0",
        "xi_threshold": "1.0",
    },
    "metric": {"gamma": "auto", "cutoff": "40.0", "spacing": "0.05"},
    "oracle": {"kind": "grid", "grid_points": "512", "grid_halfwidth": "10.0"},
    "rate": {
        "assert_slope": "on",
        "slope_low": "-0.65",
        "slope_high": "-0.35",
        "error_epochs": "final",
    },
    "baseline": {"epsilons": "[0.1, 0.05, 0.025, 0.0125]"},
    "validate": {"scale": "1.0"},
    "output": {"directory": "out", "dump_particles": "off"},
}


class ConfigError(ValueError):
    """Invalid configuration; ``violations`` lists every offence found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ExperimentConfig:
    """Validated experiment parameters plus the raw key map for the manifest."""

    name: str
    horizon: float
    alpha: float
    dimension: int
    atoms: list
    initial_law: str
    initial_center: list
    initial_scale: list
    sensor: str
    observation_dim: int
    epsilon: float
    bump_amplitudes: list
    bump_centers: list
    bump_widths: list
    linear_matrix: list
    linear_clip: float
    particle_counts: list
    replications: int
    seed: int
    population_control: bool
    control_low: float
    control_high: float
    xi_threshold: float
    gamma: float | None
    cutoff: float
    spacing: float
    oracle: str
    grid_points: int
    grid_halfwidth: float
    assert_slope: bool
    slope_low: float
    slope_high: float
    error_epochs: str
    baseline_epsilons: list
    validate_scale: float
    output_directory: str
    dump_particles: bool
    raw: dict = field(default_factory=dict, repr=False)


def default_config_text() -> str:
    parser = configparser.ConfigParser()
    parser.read_dict(_DEFAULTS)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _json_list(raw: str, key: str, violations: list):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        violations.append(f"{key}: not valid JSON ({raw!r})")
        return None
    if not isinstance(value, list):
        violations.append(f"{key}: expected a JSON list")
        return None
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from exc
    violations: list[str] = []
    for section in parser.sections():
        if section not in _DEFAULTS:
            violations.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _DEFAULTS[section]:
                violations.append(f"unknown key {section}.{key}")
    merged = {
        section: dict(defaults) for section, defaults in _DEFAULTS.items()
    }
    for section in parser.sections():
        if section in merged:
            for key, value in parser[section].items():
                if key in merged[section]:
                    merged[section][key] = value

    def get(section, key, conv, check=None, bound=""):
        raw = merged[section][key]
        try:
            value = conv(raw)
        except (TypeError, ValueError):
            violations.append(f"{section}.{key}: cannot parse {raw!r}")
            return None
        if check is not None and not check(value):
            violations.append(f"{section}.{key}: value {raw} violates {bound}")
            return None
        return value

    name = get("scenario", "name", str, lambda s: s.replace("-", "").replace("_", "").isalnum(), "filesystem-safe name")
    horizon = get("scenario", "horizon", float, lambda v: v > 0, "horizon > 0")
    alpha = get("signal", "alpha", float, lambda v: 0 < v <= 2, "bound (0, 2]")
    dimension = get("signal", "dimension", int, lambda v: v >= 1, "dimension >= 1")
    atoms = _json_list(merged["signal"]["atoms"], "signal.atoms", violations)
    initial_law = get("signal", "initial_law", str, lambda s: s in ("point", "gaussian", "uniform"), "point|gaussian|uniform")
    initial_center = _json_list(merged["signal"]["initial_center"], "signal.initial_center", violations)
    initial_scale = _json_list(merged["signal"]["initial_scale"], "signal.initial_scale", violations)
    sensor = get("observation", "sensor", str, lambda s: s in ("gaussian_bump", "clipped_linear", "zero"), "gaussian_bump|clipped_linear|zero")
    observation_dim = get("observation", "observation_dim", int, lambda v: v >= 1, "observation_dim >= 1")
    epsilon = get("observation", "epsilon", float, lambda v: 0 < v <= 1, "bound (0, 1]")
    bump_amplitudes = _json_list(merged["observation"]["bump_amplitudes"], "observation.bump_amplitudes", violations)
    bump_centers = _json_list(merged["observation"]["bump_centers"], "observation.bump_centers", violations)
    bump_widths = _json_list(merged["observation"]["bump_widths"], "observation.bump_widths", violations)
    linear_matrix = _json_list(merged["observation"]["linear_matrix"], "observation.linear_matrix", violations)
    linear_clip = get("observation", "linear_clip", float, lambda v: v > 0, "clip > 0")
    particle_counts = _json_list(merged["run"]["particle_counts"], "run.particle_counts", violations)
    replications = get("run", "replications", int, lambda v: v >= 1, "replications >= 1")
    seed = get("run", "seed", int)
    population_control = get("run", "population_control", str, lambda s: s in ("on", "off"), "on|off")
    control_low = get("run", "control_low", float, lambda v: 0 < v < 1, "bound (0, 1)")
    control_high = get("run", "control_high", float, lambda v: v > 1, "bound (1, inf)")
    xi_threshold = get("run", "xi_threshold", float, lambda v: v > 0, "xi > 0")
    gamma_raw = merged["metric"]["gamma"]
    gamma: float | None
    if gamma_raw == "auto":
        gamma = None
    else:
        gamma = get("metric", "gamma", float)
    cutoff = get("metric", "cutoff", float, lambda v: v > 0, "cutoff > 0")
    spacing = get("metric", "spacing", float, lambda v: v > 0, "spacing > 0")
    oracle = get("oracle", "kind", str, lambda s: s in ("grid", "kalman", "none"), "grid|kalman|none")
    grid_points = get("oracle", "grid_points", int, lambda v: v >= 64 and v & (v - 1) == 0, "power of two >= 64")
    grid_halfwidth = get("oracle", "grid_halfwidth", float, lambda v: v > 0, "halfwidth > 0")
    assert_slope = get("rate", "assert_slope", str, lambda s: s in ("on", "off"), "on|off")
    slope_low = get("rate", "slope_low", float)
    slope_high = get("rate", "slope_high", float)
    error_epochs = get("rate", "error_epochs", str, lambda s: s in ("final", "all"), "final|all")
    baseline_epsilons = _json_list(merged["baseline"]["epsilons"], "baseline.epsilons", violations)
    validate_scale = get("validate", "scale", float, lambda v: v > 0, "scale > 0")
    output_directory = merged["output"]["directory"]
    dump_particles = get("output", "dump_particles", str, lambda s: s in ("on", "off"), "on|off")

    # cross-field invariants (only where the pieces parsed)
    if horizon is not None and epsilon is not None and horizon < epsilon:
        violations.append("scenario.horizon: must be at least observation.epsilon")
    if particle_counts is not None:
        if not particle_counts or any(
            (not isinstance(n, int)) or n < 1 for n in particle_counts
        ):
            violations.append("run.particle_counts: needs integers >= 1")
    if (
        particle_counts
        and epsilon is not None
        and xi_threshold is not None
        and assert_slope == "on"
        and np.sqrt(epsilon) * min(particle_counts) < xi_threshold
    ):
        violations.append(
            "run.particle_counts: sqrt(epsilon) * min(counts) must reach run.xi_threshold "
            "while rate assertions are enabled"
        )
    if atoms is not None and dimension is not None:
        try:
            SpectralMeasure.from_records(atoms)
        except (KeyError, TypeError, ValueError) as exc:
            violations.append(f"signal.atoms: {exc}")
        else:
            if SpectralMeasure.from_records(atoms).dimension != dimension:
                violations.append("signal.atoms: direction length must equal signal.dimension")
    if (
        gamma is not None
        and dimension is not None
        and gamma >= -dimension / 2.0
    ):
        violations.append("metric.gamma: must be < -dimension/2")
    if baseline_epsilons is not None and any(
        not (0 < e <= 1) for e in baseline_epsilons
    ):
        violations.append("baseline.epsilons: every entry must lie in (0, 1]")
    if violations:
        raise ConfigError(violations)

    raw = {s: dict(v) for s, v in merged.items()}
    cfg = ExperimentConfig(
        name=name,
        horizon=horizon,
        alpha=alpha,
        dimension=dimension,
        atoms=atoms,
        initial_law=initial_law,
        initial_center=initial_center,
        initial_scale=initial_scale,
        sensor=sensor,
        observation_dim=observation_dim,
        epsilon=epsilon,
        bump_amplitudes=bump_amplitudes,
        bump_centers=bump_centers,
        bump_widths=bump_widths,
        linear_matrix=linear_matrix,
        linear_clip=linear_clip,
        particle_counts=particle_counts,
        replications=replications,
        seed=seed,
        population_control=population_control == "on",
        control_low=control_low,
        control_high=control_high,
        xi_threshold=xi_threshold,
        gamma=gamma,
        cutoff=cutoff,
        spacing=spacing,
        oracle=oracle,
        grid_points=grid_points,
        grid_halfwidth=grid_halfwidth,
        assert_slope=assert_slope == "on",
        slope_low=slope_low,
        slope_high=slope_high,
        error_epochs=error_epochs,
        baseline_epsilons=baseline_epsilons,
        validate_scale=validate_scale,
        output_directory=output_directory,
        dump_particles=dump_particles == "on",
        raw=raw,
    )
    _check_models(cfg)
    return cfg


_SENSOR_KEYS = {
    "gaussian_bump": "observation.bump_amplitudes/bump_centers/bump_widths",
    "clipped_linear": "observation.linear_matrix",
    "zero": "observation.observation_dim",
}


def _check_models(cfg: ExperimentConfig) -> None:
    """Build the signal and observation models; raise ConfigError naming the keys they reject."""
    violations = []
    for keys, build in (
        ("signal.initial_center/initial_scale", build_signal),
        (_SENSOR_KEYS[cfg.sensor], build_observation),
    ):
        try:
            build(cfg)
        except (TypeError, ValueError) as exc:
            violations.append(f"{keys}: {exc}")
    if violations:
        raise ConfigError(violations)


def serialize_config(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    parser.read_dict(cfg.raw)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def build_signal(cfg: ExperimentConfig) -> SignalModel:
    law = InitialLaw(cfg.initial_law, cfg.initial_center, cfg.initial_scale or None)
    return SignalModel(cfg.alpha, SpectralMeasure.from_records(cfg.atoms), law)


def build_observation(cfg: ExperimentConfig) -> ObservationModel:
    if cfg.sensor == "gaussian_bump":
        sensor = GaussianBumpSensor(cfg.bump_amplitudes, cfg.bump_centers, cfg.bump_widths)
    elif cfg.sensor == "clipped_linear":
        sensor = ClippedLinearSensor(cfg.linear_matrix, cfg.linear_clip)
    else:
        sensor = ZeroSensor(cfg.observation_dim, cfg.dimension)
    if sensor.signal_dim != cfg.dimension:
        raise ValueError(
            f"sensor takes {sensor.signal_dim}-d points but signal.dimension is {cfg.dimension}"
        )
    return ObservationModel(sensor, cfg.epsilon)


def build_metric(cfg: ExperimentConfig) -> FrequencyGrid:
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma(cfg.dimension, cfg.alpha)
    return FrequencyGrid.build(
        cfg.dimension, gamma=gamma, cutoff=cfg.cutoff, spacing=cfg.spacing
    )


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def emit_results(files: dict, out_dir, *, name: str, command: str, cfg: ExperimentConfig) -> Path:
    """Write text artifacts plus a manifest with one sha256 per file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for filename in sorted(files):
        data = files[filename].encode()
        path = out / filename
        try:
            path.write_bytes(data)
        except OSError as exc:
            raise RuntimeError(f"cannot write artifact {path}: {exc}") from exc
        entries.append(
            {
                "name": filename,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
            }
        )
    manifest = {
        "scenario": name,
        "command": command,
        "seed": cfg.seed,
        "config": cfg.raw,
        "files": entries,
    }
    manifest_path = out / f"{name}_{command}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest_path


def _estimates_rows(run, eps):
    rows = []
    for step in run.steps:
        ens = step.post
        mean = (
            ens.positions.mean(axis=0)
            if ens.count
            else np.full(ens.dimension, np.nan)
        )
        unnorm = (
            ens.mass_factor * ens.positions.sum(axis=0) / ens.initial_count
        )
        rows.append(
            [step.epoch, step.time, ens.count, ens.total_mass]
            + [v for v in unnorm]
            + [v for v in mean]
        )
    return rows


def cmd_simulate(cfg: ExperimentConfig, out_dir, strict: bool = False) -> int:
    signal = build_signal(cfg)
    obs = build_observation(cfg)
    path, record = simulate_scenario(
        signal, obs, cfg.horizon, substream(cfg.seed, "scenario")
    )
    files = {}
    truth_rows = [[k, k * cfg.epsilon] + list(x) for k, x in enumerate(path)]
    files[f"{cfg.name}_simulate_truth.csv"] = _csv_text(
        ["epoch", "t"] + [f"x{i}" for i in range(signal.dimension)], truth_rows
    )
    files[f"{cfg.name}_simulate_observations.csv"] = record.to_csv_text()
    n = cfg.particle_counts[0]
    run = run_filter(signal, obs, record, n, substream(cfg.seed, "filter", n, 0))
    d = signal.dimension
    files[f"{cfg.name}_simulate_estimates.csv"] = _csv_text(
        ["epoch", "t", "count", "mass"]
        + [f"sum_x{i}_unnormalized" for i in range(d)]
        + [f"mean_x{i}" for i in range(d)],
        _estimates_rows(run, cfg.epsilon),
    )
    if cfg.dump_particles:
        dump_rows = []
        root = np.arange(run.initial.count)  # epoch-0 row of each alive particle
        for step in run.steps:
            root = root[step.parents]
            for parent, ancestor, pos in zip(step.parents, root, step.post.positions):
                dump_rows.append([step.epoch, int(parent), int(ancestor)] + list(pos))
        files[f"{cfg.name}_simulate_particles.csv"] = _csv_text(
            ["epoch", "parent_row", "root_ancestor"] + [f"x{i}" for i in range(d)],
            dump_rows,
        )
    if cfg.oracle == "grid":
        metric = build_metric(cfg)
        summaries, _ = run_reference(
            signal,
            obs,
            record,
            domain_halfwidth=cfg.grid_halfwidth,
            points_per_axis=cfg.grid_points,
            theta_grid=metric.nodes,
            strict=strict,
        )
        files[f"{cfg.name}_simulate_oracle.csv"] = _csv_text(
            ["epoch", "t", "total_mass"]
            + [f"mean_x{i}" for i in range(d)]
            + ["boundary_mass", "clamped_mass"],
            [
                [s.epoch, s.time, s.total_mass]
                + list(s.mean)
                + [s.boundary_mass, s.clamped_mass]
                for s in summaries
            ],
        )
        transform_rows = []
        for s in summaries:
            for node, val in zip(metric.nodes, s.transform):
                transform_rows.append(
                    [s.epoch] + list(node) + [val.real, val.imag]
                )
        files[f"{cfg.name}_simulate_oracle_transform.csv"] = _csv_text(
            ["epoch"] + [f"theta{i}" for i in range(d)] + ["re", "im"],
            transform_rows,
        )
    emit_results(files, out_dir, name=cfg.name, command="simulate", cfg=cfg)
    if run.extinct:
        print(f"extinction at epoch {run.extinct_epoch}")
        return 3
    return 0


def cmd_validate(cfg: ExperimentConfig, out_dir, strict: bool = False) -> int:
    signal = build_signal(cfg)
    obs = build_observation(cfg)
    results = default_validation_suite(
        signal,
        obs,
        cfg.horizon,
        cfg.seed,
        scale=cfg.validate_scale,
        oracle=cfg.oracle,
        grid_points=cfg.grid_points,
        grid_halfwidth=cfg.grid_halfwidth,
    )
    rows = []
    for r in results:
        print(f"{r.status:7s} {r.name}: {r.detail}")
        rows.append([r.name, r.status, r.detail.replace(",", ";")])
    files = {
        f"{cfg.name}_validate_checks.csv": _csv_text(
            ["check", "status", "detail"], rows
        )
    }
    emit_results(files, out_dir, name=cfg.name, command="validate", cfg=cfg)
    return 0 if all(r.passed for r in results) else 1


def cmd_rate_sweep(cfg: ExperimentConfig, out_dir, strict: bool = False) -> int:
    if cfg.oracle == "none":
        raise ConfigError(["oracle.kind: rate-sweep needs an oracle (grid or kalman)"])
    if cfg.assert_slope and len(cfg.particle_counts) < 3:
        raise ConfigError(
            ["run.particle_counts: at least 3 counts are needed to fit a rate"]
        )
    signal = build_signal(cfg)
    obs = build_observation(cfg)
    metric = build_metric(cfg)
    result = rate_sweep(
        signal,
        obs,
        cfg.horizon,
        cfg.particle_counts,
        cfg.replications,
        cfg.seed,
        metric,
        oracle=cfg.oracle,
        grid_points=cfg.grid_points,
        grid_halfwidth=cfg.grid_halfwidth,
        error_epochs=cfg.error_epochs,
    )
    files = {
        f"{cfg.name}_rate-sweep_errors.csv": _csv_text(
            ["n", "replication", "epoch", "error"], result.rows
        ),
        f"{cfg.name}_rate-sweep_rms.csv": _csv_text(
            ["n", "rms_error"], result.per_n_error
        ),
    }
    if result.fit is not None:
        slope, lo, hi = result.slope_ci
        files[f"{cfg.name}_rate-sweep_fit.csv"] = _csv_text(
            ["scenario", "slope", "ci_low", "ci_high"],
            [[cfg.name, slope, lo, hi]],
        )
    emit_results(files, out_dir, name=cfg.name, command="rate-sweep", cfg=cfg)
    if result.extinction_fraction > EXTINCTION_LIMIT:
        print(
            f"extinction fraction {result.extinction_fraction:.2f} exceeds "
            f"{EXTINCTION_LIMIT}: sweep invalid"
        )
        return 3
    if result.fit is None:
        print("too few surviving particle counts to fit a rate")
        return 3
    print(
        f"rate fit: slope {result.fit.slope:.4f}, "
        f"ci [{result.slope_ci[1]:.4f}, {result.slope_ci[2]:.4f}], "
        f"extinct {result.extinct_runs}/{result.total_runs}"
    )
    if cfg.assert_slope and not (
        cfg.slope_low <= result.fit.slope <= cfg.slope_high
    ):
        print(
            f"slope {result.fit.slope:.4f} outside "
            f"[{cfg.slope_low}, {cfg.slope_high}]"
        )
        return 1
    return 0


def cmd_compare_baseline(cfg: ExperimentConfig, out_dir, strict: bool = False) -> int:
    signal = build_signal(cfg)
    obs = build_observation(cfg)
    comparison = baseline_comparison(
        signal,
        obs.sensor,
        cfg.horizon,
        cfg.particle_counts[0],
        cfg.seed,
        epsilons=cfg.baseline_epsilons,
        oracle=cfg.oracle,
        grid_points=cfg.grid_points,
        grid_halfwidth=cfg.grid_halfwidth,
    )
    rows = [
        [e, bf, mf, be, me]
        for e, bf, mf, be, me in zip(
            comparison.epsilons,
            comparison.branching_fractions,
            comparison.multinomial_fractions,
            comparison.branching_errors,
            comparison.multinomial_errors,
        )
    ]
    files = {
        f"{cfg.name}_compare-baseline_comparison.csv": _csv_text(
            [
                "epsilon",
                "branching_fraction",
                "multinomial_fraction",
                "branching_error",
                "multinomial_error",
            ],
            rows,
        )
    }
    emit_results(files, out_dir, name=cfg.name, command="compare-baseline", cfg=cfg)
    smallest = comparison.branching_fractions[
        int(np.argmin(comparison.epsilons))
    ]
    print(
        f"branch-fraction slope in eps: {comparison.slope:.3f}; "
        f"fraction at smallest eps: {smallest:.4f}"
    )
    if smallest >= 0.2:
        print("branching relocation fraction unexpectedly large (>= 0.2)")
        return 1
    return 0


def run_command(command: str, cfg: ExperimentConfig, out_dir=None, strict: bool = False) -> int:
    """Dispatch a CLI command; returns the process exit code."""
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_directory)
    handlers = {
        "simulate": cmd_simulate,
        "validate": cmd_validate,
        "rate-sweep": cmd_rate_sweep,
        "compare-baseline": cmd_compare_baseline,
    }
    if command not in handlers:
        raise ConfigError([f"unknown command {command!r}"])
    return handlers[command](cfg, out, strict)
