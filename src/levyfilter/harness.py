"""Experiment configuration, commands, and machine-readable artifacts.

Configurations are flat sectioned INI text (schema declared once, one row per
key, in ``_SCHEMA`` and documented in the README; list- and record-valued keys
hold JSON).  Every command writes CSV artifacts with deterministic names plus a
JSON manifest carrying a content hash per file, so identical (config, seed)
runs are byte-identical end to end.  Artifacts are streamed to disk block by
block, so no command holds an artifact's text whole.

Exit codes: 0 pass, 1 check failure, 2 config error, 3 runtime error
(including an extinction fraction above 20% in sweeps).
"""

from __future__ import annotations

import configparser
import hashlib
import io
import itertools
import json
import math
import warnings
from dataclasses import field, make_dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .branching import PopulationGrowthError, run_filter
from .checks import default_validation_suite
from .experiments import _epsilon_tag, baseline_comparison, rate_sweep
from .metrics import FrequencyGrid
from .observation import (
    ClippedLinearSensor,
    GaussianBumpSensor,
    ObservationModel,
    ZeroSensor,
    simulate_scenario,
)
from .observation import MAX_EPOCHS, epoch_count
from .reference import GridAccuracyWarning, Oracle
from .seeding import substream
from .stable import InitialLaw, SignalModel, SpectralMeasure

__all__ = [
    "AlphaNearOneWarning",
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "default_config_text",
    "build_signal",
    "build_observation",
    "build_metric",
    "build_oracle",
    "csv_blocks",
    "emit_results",
    "run_command",
]

EXTINCTION_LIMIT = 0.2
ALPHA_NEAR_ONE = 0.05  # warn when 0 < |alpha - 1| < this
_EPOCH_CAP = f"floor(horizon / epsilon) is over MAX_EPOCHS = {MAX_EPOCHS} observation epochs"


class ConfigError(ValueError):
    """Invalid configuration; ``violations`` lists every offence found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class AlphaNearOneWarning(UserWarning):
    """signal.alpha lies near 1, where the S1 parametrization jumps."""


class _Unparsable(ValueError):
    """A parser's own violation text, used in place of "cannot parse"."""


def _json_list(raw: str) -> list:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        raise _Unparsable(f"not valid JSON ({raw!r})") from None
    if not isinstance(value, list):
        raise _Unparsable("expected a JSON list")
    return value


def _json_numbers(raw: str) -> list:
    """A JSON list whose every leaf, through lists and record values, is a finite number."""
    value = _json_list(raw)
    leaves = list(value)
    while leaves:
        leaf = leaves.pop(0)
        if isinstance(leaf, (list, dict)):
            leaves[:0] = leaf.values() if isinstance(leaf, dict) else leaf
        elif type(leaf) not in (int, float) or not math.isfinite(leaf):  # a bool is no number
            raise _Unparsable(f"entries must be finite numbers, not {json.dumps(leaf)}")
    return value


def _finite(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise _Unparsable(f"value {raw} is not a finite number")
    return value


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise _Unparsable(f"value {raw} violates {'|'.join(options)}")
        return raw

    return parse


def _on_off(raw: str) -> bool:
    return _choice("on", "off")(raw) == "on"


def _auto_or_float(raw: str) -> float | None:
    return None if raw == "auto" else _finite(raw)


class _Key(NamedTuple):
    """One config key: its place, default text, parser and bound (checked on the parsed value)."""

    section: str
    key: str
    default: str
    parse: Callable[[str], Any]
    check: Callable[[Any], bool] | None = None
    bound: str = ""
    attr: str = ""  # the ExperimentConfig field, when it is not the key itself


# The config schema, in the order of default_config_text() and the README.
_SCHEMA = (
    _Key("scenario", "name", "default", str, lambda s: s.replace("-", "").replace("_", "").isalnum(), "filesystem-safe name"),
    _Key("scenario", "horizon", "2.0", _finite, lambda v: v > 0, "horizon > 0"),
    _Key("signal", "alpha", "2.0", _finite, lambda v: 0 < v <= 2, "bound (0, 2]"),
    _Key("signal", "dimension", "1", int, lambda v: v >= 1, "dimension >= 1"),
    _Key("signal", "atoms", '[{"direction": [1.0], "weight": 0.5}]', _json_numbers),
    _Key("signal", "initial_law", "gaussian", _choice("point", "gaussian", "uniform")),
    _Key("signal", "initial_center", "[0.0]", _json_numbers),
    _Key("signal", "initial_scale", "[1.0]", _json_numbers),
    _Key("observation", "sensor", "gaussian_bump", _choice("gaussian_bump", "clipped_linear", "zero")),
    _Key("observation", "observation_dim", "1", int, lambda v: v >= 1, "observation_dim >= 1"),
    _Key("observation", "epsilon", "0.1", _finite, lambda v: 0 < v <= 1, "bound (0, 1]"),
    _Key("observation", "bump_amplitudes", "[1.0]", _json_numbers),
    _Key("observation", "bump_centers", "[[0.0]]", _json_numbers),
    _Key("observation", "bump_widths", "[1.0]", _json_numbers),
    _Key("observation", "linear_matrix", "[[1.0]]", _json_numbers),
    _Key("observation", "linear_clip", "20.0", _finite, lambda v: v > 0, "clip > 0"),
    _Key("run", "particle_counts", "[250, 500, 1000, 2000, 4000, 8000, 16000]", _json_list),
    _Key("run", "replications", "100", int, lambda v: v >= 1, "replications >= 1"),
    _Key("run", "seed", "20050415", int, lambda v: 0 <= v < 2**32, "0 <= seed < 2**32"),
    _Key("run", "population_control", "off", _on_off),
    _Key("run", "control_low", "0.5", _finite, lambda v: 0 < v < 1, "bound (0, 1)"),
    _Key("run", "control_high", "2.0", _finite, lambda v: v > 1, "bound (1, inf)"),
    _Key("run", "xi_threshold", "1.0", _finite, lambda v: v > 0, "xi > 0"),
    _Key("metric", "gamma", "auto", _auto_or_float),
    _Key("metric", "cutoff", "40.0", _finite, lambda v: v > 0, "cutoff > 0"),
    _Key("metric", "spacing", "0.05", _finite, lambda v: v > 0, "spacing > 0"),
    _Key("oracle", "kind", "grid", _choice("grid", "kalman", "none"), attr="oracle"),
    _Key("oracle", "grid_points", "512", int, lambda v: v >= 64 and v & (v - 1) == 0, "power of two >= 64"),
    _Key("oracle", "grid_halfwidth", "10.0", _finite, lambda v: v > 0, "halfwidth > 0"),
    _Key("rate", "assert_slope", "on", _on_off),
    _Key("rate", "slope_low", "-0.65", _finite),
    _Key("rate", "slope_high", "-0.35", _finite),
    _Key("rate", "error_epochs", "final", _choice("final", "all")),
    _Key("baseline", "epsilons", "[0.1, 0.05, 0.025, 0.0125]", _json_list, attr="baseline_epsilons"),
    _Key("validate", "scale", "1.0", _finite, lambda v: v > 0, "scale > 0", attr="validate_scale"),
    _Key("output", "directory", "out", str, attr="output_directory"),
    _Key("output", "dump_particles", "off", _on_off),
)

ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(row.attr or row.key, Any) for row in _SCHEMA]
    + [("raw", dict, field(default_factory=dict, repr=False))],
    namespace={
        "__module__": __name__,
        "__doc__": "Validated experiment parameters, one field per _SCHEMA row, "
        "plus the raw key map for the manifest.",
    },
)


def _default_sections() -> dict:
    """{section: {key: default text}} in schema order."""
    sections: dict = {}
    for row in _SCHEMA:
        sections.setdefault(row.section, {})[row.key] = row.default
    return sections


def _ini_text(sections: dict) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def default_config_text() -> str:
    return _ini_text(_default_sections())


def serialize_config(cfg: ExperimentConfig) -> str:
    return _ini_text(cfg.raw)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from exc
    violations: list[str] = []
    if parser.defaults():  # configparser would copy these keys into every section
        violations.append(f"unknown section [{parser.default_section}]")
    raw = _default_sections()
    for section in parser.sections():
        if section not in raw:
            violations.append(f"unknown section [{section}]")
            continue
        for key, value in parser[section].items():
            if key in raw[section]:
                raw[section][key] = value
            else:
                violations.append(f"unknown key {section}.{key}")
    values = {}
    for row in _SCHEMA:
        text_value = raw[row.section][row.key]
        where = f"{row.section}.{row.key}"
        value = None
        try:
            value = row.parse(text_value)
        except _Unparsable as exc:
            violations.append(f"{where}: {exc}")
        except (TypeError, ValueError, OverflowError):
            violations.append(f"{where}: cannot parse {text_value!r}")
        else:
            if row.check is not None and not row.check(value):
                violations.append(f"{where}: value {text_value} violates {row.bound}")
                value = None
        values[row.attr or row.key] = value
    cfg = ExperimentConfig(**values, raw=raw)

    # cross-field invariants (only where the pieces parsed)
    if cfg.horizon is not None and cfg.epsilon is not None:
        if cfg.horizon < cfg.epsilon:
            violations.append("scenario.horizon: must be at least observation.epsilon")
        elif epoch_count(cfg.horizon, cfg.epsilon) > MAX_EPOCHS:
            violations.append(f"scenario.horizon/observation.epsilon: {_EPOCH_CAP}")
    counts = cfg.particle_counts
    if counts is not None and not (counts and all(type(n) is int and n >= 1 for n in counts)):
        violations.append("run.particle_counts: needs integers >= 1")
        counts = None  # the rate gate below reads only counts that pass
    if (
        counts
        and cfg.epsilon is not None
        and cfg.xi_threshold is not None
        and cfg.assert_slope
        and np.sqrt(cfg.epsilon) * min(counts) < cfg.xi_threshold
    ):
        violations.append(
            "run.particle_counts: sqrt(epsilon) * min(counts) must reach run.xi_threshold "
            "while rate assertions are enabled"
        )
    if cfg.atoms is not None and cfg.dimension is not None:
        try:
            measure = SpectralMeasure.from_records(cfg.atoms)
        except (KeyError, TypeError, ValueError) as exc:
            violations.append(f"signal.atoms: {exc}")
            cfg.atoms = None  # the signal model is built only from atoms that pass
        else:
            if measure.dimension != cfg.dimension:
                violations.append("signal.atoms: direction length must equal signal.dimension")
                cfg.atoms = None
    if (
        cfg.gamma is not None
        and cfg.dimension is not None
        and cfg.gamma >= -cfg.dimension / 2.0
    ):
        violations.append("metric.gamma: must be < -dimension/2")
    if cfg.slope_low is not None and cfg.slope_high is not None and cfg.slope_low > cfg.slope_high:
        violations.append("rate.slope_low/slope_high: slope_low must not exceed slope_high")
    if cfg.baseline_epsilons is not None:
        if not all(type(e) in (int, float) and 0 < e <= 1 for e in cfg.baseline_epsilons):
            violations.append("baseline.epsilons: every entry must be a number in (0, 1]")
        elif len(set(cfg.baseline_epsilons)) < 2:
            violations.append(
                "baseline.epsilons: needs at least two distinct values to fit the slope in eps"
            )
        elif len(set(map(_epsilon_tag, cfg.baseline_epsilons))) < len(cfg.baseline_epsilons):
            violations.append(
                "baseline.epsilons: two entries share a seed tag round(1e6 * eps); a repeated "
                "epsilon would repeat a point of the slope fit"
            )
    violations += _model_violations(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


_SENSOR_KEYS = {
    "gaussian_bump": "observation.bump_amplitudes/bump_centers/bump_widths",
    "clipped_linear": "observation.linear_matrix",
    "zero": "observation.observation_dim",
}


def _model_violations(cfg: ExperimentConfig) -> list:
    """Build each model whose section's keys and signal.dimension all passed their rules, then
    list what the oracle cannot serve of the models built, its grid and the metric cutoff
    (``Oracle.problems``, which checks each rule whose inputs are given)."""
    violations, models = [], []
    for section, keys, build in (
        ("signal", "signal.initial_center/initial_scale", build_signal),
        ("observation", _SENSOR_KEYS.get(cfg.sensor), build_observation),
    ):
        reads = ["dimension"] + [row.attr or row.key for row in _SCHEMA if row.section == section]
        model = None
        if all(getattr(cfg, attr) is not None for attr in reads):
            try:
                model = build(cfg)
            except (TypeError, ValueError) as exc:
                violations.append(f"{keys}: {exc}")
        models.append(model)
    grid_parsed = None not in (cfg.grid_points, cfg.grid_halfwidth)
    oracle = build_oracle(cfg) if grid_parsed or cfg.oracle != "grid" else None
    if oracle is not None:
        violations += oracle.problems(cfg.dimension, cfg.cutoff, *models)
    return violations


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
    if sensor.observation_dim != cfg.observation_dim:
        raise ValueError(
            f"sensor gives {sensor.observation_dim}-d observations "
            f"but observation.observation_dim is {cfg.observation_dim}"
        )
    return ObservationModel(sensor, cfg.epsilon)


def build_metric(cfg: ExperimentConfig) -> FrequencyGrid:
    try:
        return FrequencyGrid.build(
            cfg.dimension, alpha=cfg.alpha, gamma=cfg.gamma, cutoff=cfg.cutoff, spacing=cfg.spacing
        )
    except ValueError as exc:
        raise ConfigError([f"metric.cutoff/spacing/gamma, signal.dimension: {exc}"]) from exc


def build_oracle(cfg: ExperimentConfig) -> Oracle | None:
    """The reference posterior ``oracle.kind`` names; None for ``none``."""
    if cfg.oracle == "grid":
        return Oracle("grid", cfg.grid_points, cfg.grid_halfwidth)
    return Oracle("kalman") if cfg.oracle == "kalman" else None


_CSV_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d"}
_CSV_BLOCK_ROWS = 4096  # rows per `%`: bounds the size of the value tuple and the template


def csv_blocks(header, blocks):
    """CSV text in pieces: the header line, then the rows of each block of equal-length
    columns.  Floats are written as %.17g (lossless), integers in decimal, anything else as str.
    A list whose first item is a str is a text column: its items are written as they are,
    with no round trip through numpy.

    Rows are formatted at most ``_CSV_BLOCK_ROWS`` at a time, by one ``%`` on a
    template of the chunk's rows with the values interleaved row by row into one
    tuple, and each chunk is yielded as it is made: the text is never held whole.
    """
    yield ",".join(header) + "\n"
    for columns in blocks:
        columns = [
            c if isinstance(c, list) and c and isinstance(c[0], str) else np.asarray(c)
            for c in columns
        ]
        row = ",".join(
            "%s" if isinstance(c, list) else _CSV_FORMATS.get(c.dtype.kind, "%s") for c in columns
        ) + "\n"
        width = len(columns)
        rows = len(columns[0]) if columns else 0
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, rows)
            values = [None] * ((stop - start) * width)
            for j, column in enumerate(columns):
                part = column[start:stop]
                values[j::width] = part if isinstance(part, list) else part.tolist()
            yield row * (stop - start) % tuple(values)


_CONJUGATE_BITS = np.array([0, 1 << 63], dtype=np.uint64)  # xor flips the sign of im


def _conjugate_columns(values):
    """The re and im columns of a transform for ``csv_blocks``, each conjugate pair
    formatted once.

    When ``values`` has even length and no nan, and row i is the conjugate of row -1-i
    bit for bit (so -0.0 pairs only with +0.0), the upper half is formatted as %.17g text
    and the lower half reuses it in reverse order, its im text negated by dropping or
    adding a leading '-'.  Otherwise the float columns themselves are returned.  The
    written text is the same either way.
    """
    values = np.ascontiguousarray(values, dtype=complex)
    pairs = values.view(np.uint64).reshape(-1, 2)  # the (re, im) bits of each row
    conjugates = pairs[::-1] ^ _CONJUGATE_BITS
    if values.size % 2 or np.isnan(values).any() or not np.array_equal(pairs, conjugates):
        return values.real, values.imag
    upper = values[values.size // 2 :].view(float).tolist()  # re and im interleaved
    text = ("%.17g\n" * len(upper) % tuple(upper)).split("\n")  # one `%`, as csv_blocks
    re, im = text[:-1:2], text[1::2]
    return re[::-1] + re, [t[1:] if t[0] == "-" else "-" + t for t in im[::-1]] + im


def emit_results(files: dict, out_dir, *, name: str, command: str, cfg: ExperimentConfig) -> Path:
    """Write text artifacts plus a manifest with one sha256 and byte count per file.

    ``files`` maps each file name to an iterable of text blocks (text already in
    memory is a one-element list); each block is encoded, hashed and written in
    turn.  The previous run's manifest is removed first, so a run that fails partway
    leaves no manifest beside files it does not describe.  Any OSError becomes a
    RuntimeError naming the path.
    """
    out = Path(out_dir)
    manifest_path = out / f"{name}_{command}_manifest.json"
    path = out
    try:
        out.mkdir(parents=True, exist_ok=True)
        path = manifest_path
        path.unlink(missing_ok=True)
        entries = []
        for filename in sorted(files):
            path = out / filename
            digest, size = hashlib.sha256(), 0
            with open(path, "wb") as fh:
                for text in files[filename]:
                    data = text.encode()
                    digest.update(data)
                    fh.write(data)
                    size += len(data)
            entries.append({"name": filename, "sha256": digest.hexdigest(), "bytes": size})
        manifest = {
            "scenario": name,
            "command": command,
            "seed": cfg.seed,
            "config": cfg.raw,
            "files": entries,
        }
        path = manifest_path
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    return path


def _rows_to_columns(rows, width: int) -> list:
    """Transpose a list of equal-length rows; ``width`` empty columns when there are none."""
    return list(zip(*rows)) or [()] * width


def cmd_simulate(cfg: ExperimentConfig, out_dir) -> int:
    oracle = build_oracle(cfg)
    grid = oracle is not None and not oracle.normalized  # writes the grid filter's summaries
    metric = build_metric(cfg) if grid else None  # a bad metric exits 2 before any work
    signal = build_signal(cfg)
    obs = build_observation(cfg)
    scenario = simulate_scenario(signal, obs, cfg.horizon, substream(cfg.seed, "scenario"))
    path = scenario.truth
    d = signal.dimension
    xs = [f"x{i}" for i in range(d)]
    epochs = np.arange(len(path))  # 0..K, observed at t_k = k * epsilon
    times = epochs * cfg.epsilon
    files = {
        f"{cfg.name}_simulate_truth.csv": csv_blocks(
            ["epoch", "t"] + xs, [[epochs, times, *path.T]]
        ),
        f"{cfg.name}_simulate_observations.csv": itertools.chain(
            [f"epsilon,{obs.epsilon:.17g}\n"],
            csv_blocks(
                ["k", "t"] + [f"dy{i}" for i in range(obs.observation_dim)] + xs,
                [[epochs[1:], times[1:], *scenario.increments.T, *path[1:].T]],
            ),
        ),
    }
    n = cfg.particle_counts[0]
    control = (cfg.control_low, cfg.control_high) if cfg.population_control else None
    sums, means, dump = [], [], []  # dump: one block of particle rows per epoch

    def reduce(k, pre, rho, parents, post):
        total = post.positions.sum(axis=0)
        sums.append(post.estimate(total))
        means.append(total / post.count if post.count else np.full(d, np.nan))
        if cfg.dump_particles:
            dump.append([np.full(post.count, k), parents, post.eve, *post.positions.T])

    run = run_filter(
        scenario, n, substream(cfg.seed, "filter", n, 0), control=control, reduce=reduce
    )
    files[f"{cfg.name}_simulate_estimates.csv"] = csv_blocks(
        ["epoch", "t", "count", "mass"]
        + [f"sum_x{i}_unnormalized" for i in range(d)]
        + [f"mean_x{i}" for i in range(d)],
        [[
            epochs[1 : len(run.steps) + 1],
            times[1 : len(run.steps) + 1],
            [s.post.count for s in run.steps],
            [s.post.total_mass for s in run.steps],
            *np.reshape(sums, (-1, d)).T,
            *np.reshape(means, (-1, d)).T,
        ]],
    )
    if cfg.dump_particles:
        files[f"{cfg.name}_simulate_particles.csv"] = csv_blocks(
            ["epoch", "parent_row", "root_ancestor"] + xs, dump
        )
    if grid:
        summaries = oracle.summaries(scenario, metric)
        files[f"{cfg.name}_simulate_oracle.csv"] = csv_blocks(
            ["epoch", "t", "total_mass"]
            + [f"mean_x{i}" for i in range(d)]
            + ["boundary_mass", "clamped_mass"],
            [[
                epochs,
                times,
                [s.total_mass for s in summaries],
                *np.reshape([s.mean for s in summaries], (-1, d)).T,
                [s.boundary_mass for s in summaries],
                [s.clamped_mass for s in summaries],
            ]],
        )
        nodes = [[f"{v:.17g}" for v in axis] for axis in metric.nodes.T.tolist()]  # formatted once
        files[f"{cfg.name}_simulate_oracle_transform.csv"] = csv_blocks(
            ["epoch"] + [f"theta{i}" for i in range(d)] + ["re", "im"],
            (
                [[str(s.epoch)] * metric.node_count, *nodes, *_conjugate_columns(s.transform)]
                for s in summaries
            ),
        )
    emit_results(files, out_dir, name=cfg.name, command="simulate", cfg=cfg)
    if run.extinct:
        print(f"extinction at epoch {run.extinct_epoch}")
        return 3
    return 0


def cmd_validate(cfg: ExperimentConfig, out_dir) -> int:
    signal = build_signal(cfg)
    obs = build_observation(cfg)
    results = default_validation_suite(
        signal, obs, cfg.horizon, cfg.seed, build_oracle(cfg), scale=cfg.validate_scale
    )
    for r in results:
        print(f"{r.status:7s} {r.name}: {r.detail}")
    files = {
        f"{cfg.name}_validate_checks.csv": csv_blocks(
            ["check", "status", "detail"],
            [[
                [r.name for r in results],
                [r.status for r in results],
                [r.detail.replace(",", ";") for r in results],
            ]],
        )
    }
    emit_results(files, out_dir, name=cfg.name, command="validate", cfg=cfg)
    return 0 if all(r.passed for r in results) else 1


def cmd_rate_sweep(cfg: ExperimentConfig, out_dir) -> int:
    oracle = build_oracle(cfg)
    if oracle is None:
        raise ConfigError(["oracle.kind: rate-sweep needs an oracle (grid or kalman)"])
    if cfg.assert_slope and len(cfg.particle_counts) < 3:
        raise ConfigError(
            ["run.particle_counts: at least 3 counts are needed to fit a rate"]
        )
    if len(set(cfg.particle_counts)) < len(cfg.particle_counts):
        raise ConfigError(
            ["run.particle_counts: a count repeats; its runs would share seeds and repeat a point"]
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
        oracle,
        error_epochs=cfg.error_epochs,
        control=(cfg.control_low, cfg.control_high) if cfg.population_control else None,
    )
    files = {
        f"{cfg.name}_rate-sweep_errors.csv": csv_blocks(
            ["n", "replication", "epoch", "error"], [_rows_to_columns(result.rows, 4)]
        ),
        f"{cfg.name}_rate-sweep_rms.csv": csv_blocks(
            ["n", "rms_error"], [_rows_to_columns(result.per_n_error, 2)]
        ),
    }
    if result.fit is not None:
        files[f"{cfg.name}_rate-sweep_fit.csv"] = csv_blocks(
            ["scenario", "slope", "ci_low", "ci_high"],
            [[[cfg.name], [result.fit.slope], [result.fit.ci_low], [result.fit.ci_high]]],
        )
    emit_results(files, out_dir, name=cfg.name, command="rate-sweep", cfg=cfg)
    pe = result.particle_epochs
    print(
        f"work: {result.moves} increment draws ({result.moves / pe:.3f}) and "
        f"{result.weighings} weight evaluations ({result.weighings / pe:.3f}) "
        f"per {pe} particle-epochs"
    )
    if result.extinction_fraction > EXTINCTION_LIMIT:
        print(
            f"extinction fraction {result.extinction_fraction:.2f} exceeds "
            f"{EXTINCTION_LIMIT}: sweep invalid"
        )
        return 3
    if result.fit is None:  # an error only if extinction, not the config, left too few counts
        print(f"no rate fit: {len(result.per_n_error)} particle count(s) with survivors, a fit needs 3")
        return 0 if len(cfg.particle_counts) < 3 else 3
    print(
        f"rate fit: slope {result.fit.slope:.4f}, "
        f"ci [{result.fit.ci_low:.4f}, {result.fit.ci_high:.4f}], "
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


def cmd_compare_baseline(cfg: ExperimentConfig, out_dir) -> int:
    if max(cfg.baseline_epsilons) > cfg.horizon:  # each epsilon's record needs one epoch
        raise ConfigError(
            [f"baseline.epsilons: every entry must be at most scenario.horizon ({cfg.horizon:g})"]
        )
    if epoch_count(cfg.horizon, min(cfg.baseline_epsilons)) > MAX_EPOCHS:
        raise ConfigError([f"baseline.epsilons: at the smallest entry, {_EPOCH_CAP}"])
    signal = build_signal(cfg)
    obs = build_observation(cfg)
    comparison = baseline_comparison(
        signal,
        obs.sensor,
        cfg.horizon,
        cfg.particle_counts[0],
        cfg.seed,
        build_oracle(cfg),
        epsilons=cfg.baseline_epsilons,
    )
    header = ("epsilon", "branching_fraction", "multinomial_fraction", "branching_error", "multinomial_error")
    columns = (
        comparison.epsilons,
        comparison.branching_fractions,
        comparison.multinomial_fractions,
        comparison.branching_errors,
        comparison.multinomial_errors,
    )
    files = {f"{cfg.name}_compare-baseline_comparison.csv": csv_blocks(header, [columns])}
    emit_results(files, out_dir, name=cfg.name, command="compare-baseline", cfg=cfg)
    smallest = comparison.branching_fractions[int(np.argmin(comparison.epsilons))]
    reason = " (a branching fraction is 0)" if min(comparison.branching_fractions) == 0.0 else ""
    print(
        f"branch-fraction slope in eps: {comparison.slope:.3f}{reason}; "
        f"fraction at smallest eps: {smallest:.4f}"
    )
    if smallest >= 0.2:
        print("branching relocation fraction unexpectedly large (>= 0.2)")
        return 1
    return 0


def run_command(command: str, cfg: ExperimentConfig, out_dir=None, strict: bool = False) -> int:
    """Dispatch a CLI command; returns the process exit code.

    ``strict`` turns the alpha-near-1 and grid accuracy warnings into RuntimeError.
    """
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_directory)
    handlers = {
        "simulate": cmd_simulate,
        "validate": cmd_validate,
        "rate-sweep": cmd_rate_sweep,
        "compare-baseline": cmd_compare_baseline,
    }
    if command not in handlers:
        raise ConfigError([f"unknown command {command!r}"])
    existing = out  # checked before any work, and made only by emit_results
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError([f"output.directory (--out): {existing} is not a directory"])
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error", AlphaNearOneWarning)
            warnings.simplefilter("error", GridAccuracyWarning)
        try:
            if 0.0 < abs(cfg.alpha - 1.0) < ALPHA_NEAR_ONE:
                warnings.warn(
                    f"signal.alpha = {cfg.alpha} is within {ALPHA_NEAR_ONE} of 1, where the S1 "
                    "parametrization jumps (the skew term tan(pi alpha / 2) diverges), so "
                    "increments change scale abruptly with alpha",
                    AlphaNearOneWarning,
                )
            return handlers[command](cfg, out)
        except (AlphaNearOneWarning, GridAccuracyWarning) as exc:  # raised under ``strict``
            raise RuntimeError(str(exc)) from exc
        except PopulationGrowthError as exc:
            if command in ("simulate", "rate-sweep"):  # the commands that honour the key
                raise RuntimeError(f"run.population_control: {exc}") from exc
            raise
