"""The column-wise CSV writer against a frozen copy of the row-at-a-time writers it replaced.

``_fmt``/``_csv_text``, ``record_csv_text`` and ``simulate_files`` below are
the former formatters and ``simulate`` row builders, kept verbatim in
behaviour: every artifact must come out byte-identical.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter import ObservationRecord
from levyfilter.branching import run_filter
from levyfilter.harness import (
    build_metric,
    build_observation,
    build_signal,
    cmd_simulate,
    parse_config,
)
from levyfilter.observation import csv_text, simulate_scenario
from levyfilter.reference import GridAccuracyWarning, run_reference
from levyfilter.seeding import substream


# --- frozen former writers -------------------------------------------------

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


def record_csv_text(record) -> str:
    d2 = record.observation_dim
    header = ["k", "t"] + [f"dy{i}" for i in range(d2)]
    if record.truth is not None:
        header += [f"x{i}" for i in range(record.truth.shape[1])]
    lines = [f"epsilon,{record.epsilon:.17g}", ",".join(header)]
    for k in range(record.count):
        row = [str(k + 1), f"{(k + 1) * record.epsilon:.17g}"]
        row += [f"{v:.17g}" for v in record.increments[k]]
        if record.truth is not None:
            row += [f"{v:.17g}" for v in record.truth[k]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def simulate_files(cfg) -> dict:
    """The artifacts of ``simulate`` as the row-at-a-time writer built them."""
    signal = build_signal(cfg)
    obs = build_observation(cfg)
    path, record = simulate_scenario(signal, obs, cfg.horizon, substream(cfg.seed, "scenario"))
    d = signal.dimension
    files = {}
    truth_rows = [[k, k * cfg.epsilon] + list(x) for k, x in enumerate(path)]
    files[f"{cfg.name}_simulate_truth.csv"] = _csv_text(
        ["epoch", "t"] + [f"x{i}" for i in range(d)], truth_rows
    )
    files[f"{cfg.name}_simulate_observations.csv"] = record_csv_text(record)
    n = cfg.particle_counts[0]
    control = (cfg.control_low, cfg.control_high) if cfg.population_control else None
    run = run_filter(signal, obs, record, n, substream(cfg.seed, "filter", n, 0), control=control)
    rows = []
    for step in run.steps:
        ens = step.post
        mean = ens.positions.mean(axis=0) if ens.count else np.full(ens.dimension, np.nan)
        unnorm = ens.mass_factor * ens.positions.sum(axis=0) / ens.initial_count
        t = step.epoch * record.epsilon
        rows.append([step.epoch, t, ens.count, ens.total_mass] + list(unnorm) + list(mean))
    files[f"{cfg.name}_simulate_estimates.csv"] = _csv_text(
        ["epoch", "t", "count", "mass"]
        + [f"sum_x{i}_unnormalized" for i in range(d)]
        + [f"mean_x{i}" for i in range(d)],
        rows,
    )
    if cfg.dump_particles:
        dump_rows = []
        root = np.arange(run.initial.count)
        for step in run.steps:
            root = root[step.parents]
            for parent, ancestor, pos in zip(step.parents, root, step.post.positions):
                dump_rows.append([step.epoch, int(parent), int(ancestor)] + list(pos))
        files[f"{cfg.name}_simulate_particles.csv"] = _csv_text(
            ["epoch", "parent_row", "root_ancestor"] + [f"x{i}" for i in range(d)], dump_rows
        )
    if cfg.oracle == "grid":
        metric = build_metric(cfg)
        summaries, _ = run_reference(
            signal,
            obs,
            record,
            domain_halfwidth=cfg.grid_halfwidth,
            points_per_axis=cfg.grid_points,
            theta_grid=metric,
        )
        files[f"{cfg.name}_simulate_oracle.csv"] = _csv_text(
            ["epoch", "t", "total_mass"]
            + [f"mean_x{i}" for i in range(d)]
            + ["boundary_mass", "clamped_mass"],
            [
                [s.epoch, s.epoch * obs.epsilon, s.total_mass]
                + list(s.mean)
                + [s.boundary_mass, s.clamped_mass]
                for s in summaries
            ],
        )
        transform_rows = []
        for s in summaries:
            for node, val in zip(metric.nodes, s.transform):
                transform_rows.append([s.epoch] + list(node) + [val.real, val.imag])
        files[f"{cfg.name}_simulate_oracle_transform.csv"] = _csv_text(
            ["epoch"] + [f"theta{i}" for i in range(d)] + ["re", "im"], transform_rows
        )
    return files


# --- values ----------------------------------------------------------------

SPECIAL = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324,
    1e16, 1e17, 2.0**53, 2.0**53 + 2.0, 0.1, 1.0 / 3.0, 1.7976931348623157e308,
    2.2250738585072014e-308,
]

float64_bits = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array([b], dtype=np.uint64).view(np.float64)[0])
)
floats = st.one_of(float64_bits, st.sampled_from(SPECIAL))
ints = st.integers(-(2**63), 2**63 - 1)


class TestValues:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(ints, floats, floats), max_size=40))
    def test_float_bit_patterns_match_row_writer(self, rows):
        columns = [
            np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=np.float64),
            np.array([r[2] for r in rows], dtype=np.float64),
        ]
        assert csv_text(["i", "a", "b"], columns) == _csv_text(["i", "a", "b"], rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(floats, min_size=1, max_size=20), st.integers(-(2**31), 2**31 - 1))
    def test_numpy_scalars_match_row_writer(self, values, k):
        f64 = [np.float64(v) for v in values]
        with np.errstate(over="ignore"):
            f32 = [np.float32(v) for v in values]
        i32 = [np.int32(k)] * len(values)
        u8 = [np.uint8(k % 256)] * len(values)
        rows = list(zip(f64, f32, i32, u8))
        assert csv_text("wxyz", [f64, f32, i32, u8]) == _csv_text("wxyz", rows)

    def test_special_values_and_strings(self):
        rows = [(v, f"s{i}", i) for i, v in enumerate(SPECIAL)]
        columns = [SPECIAL, [r[1] for r in rows], [r[2] for r in rows]]
        assert csv_text(["v", "s", "i"], columns) == _csv_text(["v", "s", "i"], rows)

    def test_blocks_join_seamlessly(self):
        rows = np.arange(3 * 4096 + 7)
        values = rows * 0.1
        expected = _csv_text(["k", "v"], zip(rows.tolist(), values.tolist()))
        assert csv_text(["k", "v"], [rows, values]) == expected

    def test_no_rows_is_the_header(self):
        assert csv_text(["a", "b"], [[], []]) == "a,b\n" == _csv_text(["a", "b"], [])


# --- artifacts -------------------------------------------------------------

LINE = """
[scenario]
name = line
horizon = 0.5
[run]
particle_counts = [200]
seed = 11
[metric]
cutoff = 10.0
spacing = 0.1
[oracle]
grid_points = 128
"""

PLANE = """
[scenario]
name = plane
horizon = 0.3
[signal]
alpha = 1.5
dimension = 2
atoms = [{"direction": [1.0, 0.0], "weight": 0.5}, {"direction": [0.6, 0.8], "weight": 0.3}]
initial_center = [0.0, 0.0]
initial_scale = [1.0, 1.0]
[observation]
bump_centers = [[0.0, 0.5]]
[run]
particle_counts = [150]
seed = 12
[metric]
cutoff = 2.0
spacing = 0.5
[oracle]
grid_points = 64
grid_halfwidth = 8.0
"""


class TestArtifacts:
    def check(self, tmp_path, text):
        cfg = parse_config(text)
        assert cmd_simulate(cfg, tmp_path) == 0
        expected = simulate_files(cfg)
        written = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert written == sorted(expected)
        for name, content in expected.items():
            assert (tmp_path / name).read_bytes() == content.encode(), name

    def test_line(self, tmp_path):
        self.check(tmp_path, LINE)

    def test_line_particles_under_population_control(self, tmp_path):
        controlled = LINE.replace(
            "[run]\n", "[run]\npopulation_control = on\ncontrol_low = 0.95\ncontrol_high = 1.05\n"
        )
        self.check(tmp_path, controlled + "[output]\ndump_particles = on\n")

    # the 64-point oracle on half-width 8 leaves 4.3e-4 of the mass in its boundary cells
    def test_plane(self, tmp_path):
        with pytest.warns(GridAccuracyWarning, match="boundary cells"):
            self.check(tmp_path, PLANE)

    def test_plane_particles(self, tmp_path):
        with pytest.warns(GridAccuracyWarning, match="boundary cells"):
            self.check(tmp_path, PLANE + "[output]\ndump_particles = on\n")


# --- observation record ----------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestRecord:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 3),
        st.one_of(st.none(), st.integers(1, 3)),
        st.floats(1e-6, 1.0),
        st.data(),
    )
    def test_round_trip_is_exact_and_matches_row_writer(self, k, d2, d1, eps, data):
        increments = np.array(data.draw(st.lists(finite, min_size=k * d2, max_size=k * d2)))
        truth = None
        if d1 is not None:
            truth = np.array(data.draw(st.lists(finite, min_size=k * d1, max_size=k * d1)))
            truth = truth.reshape(k, d1)
        record = ObservationRecord(increments.reshape(k, d2), eps, truth)
        text = record.to_csv_text()
        assert text == record_csv_text(record)
        back = ObservationRecord.from_csv_text(text)
        assert back.epsilon == record.epsilon
        assert back.increments.tobytes() == record.increments.tobytes()
        if truth is None:
            assert back.truth is None
        else:
            assert back.truth.tobytes() == record.truth.tobytes()
