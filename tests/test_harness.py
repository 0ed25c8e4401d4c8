"""Config parsing, artifact emission, determinism, CLI exit codes."""

import configparser
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levyfilter import GaussianBumpSensor, ZeroSensor, branching, harness, reference
from levyfilter.cli import main as cli_main
from levyfilter.observation import MAX_EPOCHS
from levyfilter.harness import (
    _SCHEMA,
    AlphaNearOneWarning,
    ConfigError,
    build_metric,
    build_observation,
    build_oracle,
    build_signal,
    cmd_simulate,
    default_config_text,
    parse_config,
    serialize_config,
)

ROOT = Path(__file__).resolve().parents[1]

THREE_D = (
    '\n[signal]\ndimension = 3\natoms = [{"direction": [1.0, 0.0, 0.0], "weight": 0.5}]\n'
    "initial_center = [0.0, 0.0, 0.0]\ninitial_scale = [1.0, 1.0, 1.0]\n"
    "\n[observation]\nbump_centers = [[0.0, 0.0, 0.0]]\n"
)

QUICK = """
[scenario]
name = quick
horizon = 1.0

[run]
particle_counts = [300]
replications = 4
seed = 7

[oracle]
grid_points = 256

[validate]
scale = 0.1
"""


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        cfg = parse_config("[scenario]\nname = tiny\n")
        assert cfg.name == "tiny"
        assert cfg.alpha == 2.0
        assert cfg.epsilon == 0.1
        assert cfg.particle_counts == [250, 500, 1000, 2000, 4000, 8000, 16000]
        assert cfg.oracle == "grid"

    def test_integer_beyond_every_float_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[signal]\ninitial_center = [" + "9" * 400 + "]\n")
        (violation,) = err.value.violations
        assert violation.startswith("signal.initial_center: cannot parse")

    def test_default_text_parses(self):
        cfg = parse_config(default_config_text())
        assert cfg.name == "default"
        assert cfg.horizon == 2.0

    def test_epsilon_violation_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[observation]\nepsilon = 1.5\n")
        assert any(
            "epsilon" in v and "(0, 1]" in v for v in err.value.violations
        )

    def test_collects_every_violation(self):
        bad = "[signal]\nalpha = 3.0\n[observation]\nepsilon = 0.0\n[run]\nreplications = 0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert len(err.value.violations) >= 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\nparticle_size = 10\n")
        assert any("particle_size" in v for v in err.value.violations)

    def test_default_section_rejected(self):
        # configparser would otherwise drop these keys, or copy them into every section
        for text in ("[DEFAULT]\nseed = 5\n", "[DEFAULT]\nseed = 5\n[run]\nreplications = 3\n"):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert "unknown section [DEFAULT]" in err.value.violations

    @pytest.mark.parametrize(
        "text, violation",
        [
            ("[run]\nparticle_counts = [300\n", "run.particle_counts: not valid JSON ('[300')"),
            ("[run]\nparticle_counts = 300\n", "run.particle_counts: expected a JSON list"),
            (
                "[scenario]\nhorizon = 0.05\n",
                "scenario.horizon: must be at least observation.epsilon",
            ),
            ("[bogus]\nseed = 5\n", "unknown section [bogus]"),
        ],
        ids=["json", "list", "horizon", "section"],
    )
    def test_violation_text(self, text, violation):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert violation in err.value.violations

    def test_counts_round_trip(self):
        text = "[run]\nparticle_counts = [500, 2000, 8000]\nreplications = 3\n"
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again.particle_counts == [500, 2000, 8000]
        assert again.raw == cfg.raw

    def test_rate_gate_on_particle_counts(self):
        # sqrt(0.1) * 2 < 1 while slope assertions are on
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\nparticle_counts = [2]\n")
        assert any("xi_threshold" in v for v in err.value.violations)
        parse_config("[run]\nparticle_counts = [2]\n[rate]\nassert_slope = off\n")

    def test_particle_counts_reject_booleans(self):
        # slope assertions off, so the xi gate cannot name the key in the count check's place
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\nparticle_counts = [true, 4000]\n[rate]\nassert_slope = off\n")
        assert err.value.violations == ["run.particle_counts: needs integers >= 1"]

    @pytest.mark.parametrize(
        "text",
        ["[oracle]\ngrid_points = 8388608\n", "[oracle]\ngrid_points = 512\n" + THREE_D],
        ids=["1d", "3d"],
    )
    def test_grid_oracle_above_the_cell_bound(self, text):
        # parsed only: nothing of the grid is allocated
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        (violation,) = [v for v in err.value.violations if v.startswith("oracle.grid_points: ")]
        assert "signal.dimension" in violation and str(reference.MAX_GRID_CELLS) in violation

    @pytest.mark.parametrize(
        "text, violations",
        [
            (
                "[oracle]\ngrid_points = 8388608\n[rate]\nslope_low = -0.3\n",
                [
                    "rate.slope_low/slope_high: slope_low must not exceed slope_high",
                    f"oracle.grid_points: 8388608 points per axis in signal.dimension 1 make more "
                    f"than {reference.MAX_GRID_CELLS} grid cells",
                ],
            ),
            (
                "[observation]\nbump_widths = [-1.0]\n[metric]\ncutoff = 2000\n",
                [
                    "observation.bump_amplitudes/bump_centers/bump_widths: widths must be "
                    "positive, with a positive square",
                    "metric.cutoff: 2000 exceeds pi * oracle.grid_points / "
                    "(2 * oracle.grid_halfwidth) = 80.42, the highest frequency the grid oracle "
                    "resolves",
                ],
            ),
            (
                "[signal]\ninitial_center = [9.5]\n[rate]\nslope_low = -0.3\n",
                [
                    "rate.slope_low/slope_high: slope_low must not exceed slope_high",
                    "oracle.grid_halfwidth/signal.initial_center: initial mass outside the domain "
                    "is 3.085e-01 (> 1e-06); enlarge the grid",
                ],
            ),
        ],
        ids=["cell-cap", "nyquist", "domain"],
    )
    def test_an_oracle_rule_is_listed_beside_an_independent_fault(self, text, violations):
        # each oracle rule runs wherever the keys or the model it reads passed their own rules
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.violations == violations

    @pytest.mark.parametrize("horizon", ["1e12", "1e308"])
    def test_epochs_past_the_cap_name_horizon_and_epsilon(self, horizon):
        # parse only: 1e13 epochs would need a record of 73 TiB
        with pytest.raises(ConfigError) as err:
            parse_config(f"[scenario]\nhorizon = {horizon}\n")
        (violation,) = err.value.violations
        assert violation.startswith("scenario.horizon/observation.epsilon: ")
        assert f"MAX_EPOCHS = {MAX_EPOCHS} " in violation

    def test_the_epoch_cap_is_floor_of_horizon_over_epsilon(self):
        text = "[scenario]\nhorizon = {}\n[observation]\nepsilon = 0.125\n"
        assert parse_config(text.format(MAX_EPOCHS * 0.125)).horizon == MAX_EPOCHS * 0.125
        parse_config(text.format((MAX_EPOCHS + 0.5) * 0.125))  # floor: still MAX_EPOCHS epochs
        with pytest.raises(ConfigError, match="scenario.horizon/observation.epsilon: "):
            parse_config(text.format((MAX_EPOCHS + 1) * 0.125))

    def test_cell_bound_only_binds_the_grid_oracle(self):
        parse_config("[oracle]\nkind = none\ngrid_points = 8388608\n")

    SHARED_TAG = (
        "two entries share a seed tag round(1e6 * eps); a repeated epsilon would repeat a "
        "point of the slope fit"
    )

    @pytest.mark.parametrize(
        "epsilons, violation",
        [
            ("[0.1]", "needs at least two distinct values to fit the slope in eps"),
            ("[0.05, 0.05]", "needs at least two distinct values to fit the slope in eps"),
            ("[]", "needs at least two distinct values to fit the slope in eps"),
            ('["a", 0.1]', "every entry must be a number in (0, 1]"),
            ("[[0.1], 0.05]", "every entry must be a number in (0, 1]"),
            ("[true, 0.05]", "every entry must be a number in (0, 1]"),
            ("[0.1, 0.1, 0.05]", SHARED_TAG),
            ("[0.1, 0.1000004, 0.05]", SHARED_TAG),
        ],
        ids=["one", "repeated", "none", "string", "list", "bool", "repeat-of-three", "one-tag"],
    )
    def test_baseline_epsilons_are_two_distinct_numbers(self, epsilons, violation):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[baseline]\nepsilons = {epsilons}\n")
        assert err.value.violations == [f"baseline.epsilons: {violation}"]

    def test_atoms_dimension_mismatch(self):
        bad = '[signal]\ndimension = 2\natoms = [{"direction": [1.0], "weight": 1.0}]\n'
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert any("atoms" in v for v in err.value.violations)


    @pytest.mark.parametrize(
        "text, key",
        [
            ("[observation]\nbump_widths = [-1.0]\n", "bump_widths"),
            ("[observation]\nbump_centers = [[0.0, 1.0]]\n", "bump_centers"),
            ("[signal]\ninitial_center = [0.0, 1.0]\n", "initial_scale"),
            (
                "[signal]\ninitial_center = [0.0, 1.0]\ninitial_scale = [1.0, 1.0]\n",
                "initial_center",
            ),
            (
                "[observation]\nsensor = clipped_linear\nlinear_matrix = [[1.0, 0.0]]\n",
                "linear_matrix",
            ),
        ],
    )
    def test_model_errors_name_key(self, text, key):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(key in v for v in err.value.violations)


    def test_observation_dim_checked_against_sensor(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[observation]\nobservation_dim = 3\n")
        assert any("observation.observation_dim" in v for v in err.value.violations)
        parse_config("[observation]\nsensor = zero\nobservation_dim = 3\n")

    @pytest.mark.parametrize(
        "text",
        [
            "",  # the default gaussian_bump sensor
            "[observation]\nsensor = clipped_linear\n[signal]\nalpha = 1.5\n",
            "[observation]\nsensor = clipped_linear\n[signal]\ninitial_law = uniform\n",
        ],
    )
    def test_kalman_oracle_needs_linear_gaussian_scenario(self, text):
        with pytest.raises(ConfigError) as err:
            parse_config("[oracle]\nkind = kalman\n" + text)
        assert any(v.startswith("oracle.kind: kalman needs") for v in err.value.violations)

    @pytest.mark.parametrize(
        "law, outside",
        [("gaussian", "3.085e-01"), ("uniform", "2.500e-01")],  # N(9.5, 1), U[8.5, 10.5]
    )
    def test_grid_domain_checked_at_parse(self, law, outside):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[signal]\ninitial_law = {law}\ninitial_center = [9.5]\n")
        assert err.value.violations == [
            f"oracle.grid_halfwidth/signal.initial_center: initial mass outside the domain "
            f"is {outside} (> 1e-06); enlarge the grid"
        ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text",
        [
            "[signal]\ninitial_scale = [1e-9]\n",
            "[signal]\ninitial_scale = [1e-300]\n",  # (x / scale)**2 overflows
            "[signal]\ninitial_law = uniform\ninitial_scale = [0.005]\n",
            # each axis factor at the nearest cell centre (z = 32.6) is 5.3e-228; their
            # product, the density the grid samples, underflows to 0
            '[signal]\ndimension = 2\natoms = [{"direction": [1.0, 0.0], "weight": 0.5}]\n'
            "initial_center = [0.0, 0.0]\ninitial_scale = [6e-4, 6e-4]\n"
            "[observation]\nbump_centers = [[0.0, 0.0]]\n",
        ],
        ids=["gaussian", "gaussian-1e-300", "uniform", "2d-product"],
    )
    def test_initial_law_the_grid_cannot_sample(self, text):
        # the 512-cell grid on [-10, 10] has no cell centre nearer 0 than 0.0195
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        (violation,) = err.value.violations
        assert violation.startswith(
            "oracle.grid_points/oracle.grid_halfwidth/signal.initial_scale: the initial density "
        )
        assert violation.endswith(" or initial_law = point")

    @pytest.mark.filterwarnings("error")
    def test_initial_law_the_grid_just_samples(self):
        # z = 19.5 at the nearest cell centre: a density of 5.8e-81 there, which normalizes
        cfg = parse_config("[signal]\ninitial_scale = [1e-3]\n")
        grid = reference.build_grid(build_signal(cfg), cfg.epsilon, 10.0, 512)
        assert grid.total_mass == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(grid.density))

    def test_shipped_kalman_config_parses(self):
        cfg = parse_config((ROOT / "configs" / "kalman.ini").read_text())
        assert cfg.oracle == "kalman" and cfg.sensor == "clipped_linear"


# One out-of-bound value per bounded key, written by hand rather than read from
# the schema, so a bound dropped from the schema fails here.
OUT_OF_BOUND = [
    ("scenario", "name", "bad/name"),
    ("scenario", "horizon", "0"),
    ("signal", "alpha", "2.5"),
    ("signal", "dimension", "0"),
    ("signal", "initial_law", "cauchy"),
    ("observation", "sensor", "camera"),
    ("observation", "observation_dim", "0"),
    ("observation", "epsilon", "1.5"),
    ("observation", "linear_clip", "-1.0"),
    ("run", "particle_counts", "[0]"),
    ("run", "replications", "0"),
    ("run", "population_control", "maybe"),
    ("run", "control_low", "1.0"),
    ("run", "control_high", "1.0"),
    ("run", "xi_threshold", "0"),
    ("run", "seed", "4294967296"),  # the streams key on 32 bits: 2**32 would repeat seed 0
    ("run", "seed", "-1"),
    ("metric", "gamma", "-0.25"),
    ("metric", "cutoff", "0"),
    ("metric", "spacing", "-0.05"),
    ("oracle", "kind", "exact"),
    ("oracle", "grid_points", "100"),
    ("oracle", "grid_halfwidth", "0"),
    ("rate", "assert_slope", "yes"),
    ("rate", "error_epochs", "some"),
    ("baseline", "epsilons", "[0.1, 2.0]"),
    ("validate", "scale", "0"),
    ("output", "dump_particles", "1"),
    # numbers must be finite, and JSON numbers are never booleans
    ("scenario", "horizon", "inf"),
    ("observation", "linear_clip", "inf"),
    ("run", "control_high", "inf"),
    ("run", "xi_threshold", "inf"),
    ("metric", "gamma", "nan"),
    ("metric", "gamma", "-inf"),
    ("metric", "cutoff", "inf"),
    ("metric", "spacing", "inf"),
    ("oracle", "grid_halfwidth", "inf"),
    ("rate", "slope_low", "nan"),
    ("rate", "slope_high", "nan"),
    ("validate", "scale", "inf"),
    ("signal", "atoms", '[{"direction": [1.0], "weight": true}]'),
    ("signal", "atoms", '[{"direction": [NaN], "weight": 0.5}]'),
    ("signal", "atoms", '[{"direction": [true], "weight": 0.5}]'),
    ("signal", "initial_center", "[true]"),
    ("signal", "initial_center", "[Infinity]"),
    ("signal", "initial_scale", "[NaN]"),
    ("signal", "initial_scale", "[false]"),
    ("observation", "bump_amplitudes", "[-Infinity]"),
    ("observation", "bump_amplitudes", "[true]"),
    ("observation", "bump_centers", "[[NaN]]"),
    ("observation", "bump_centers", "[[true]]"),
    ("observation", "bump_widths", "[true]"),
    ("observation", "bump_widths", "[Infinity]"),
    ("observation", "linear_matrix", "[[false]]"),
    ("observation", "linear_matrix", "[[NaN]]"),
    # the rate gate reads only counts that pass the integer rule
    ("run", "particle_counts", '["a"]'),
    ("run", "particle_counts", "[null]"),
    ("run", "particle_counts", '[{"a": 1}]'),
    ("run", "particle_counts", '[1, "a"]'),
]


class TestSchema:
    def test_shipped_default_config_is_default_text(self):
        assert (ROOT / "configs" / "default.ini").read_text() == default_config_text()

    def test_readme_schema_block_matches_table(self):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Configuration schema", 1)[1].split("```ini\n", 1)[1]
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        parser.read_string(block.split("```", 1)[0])
        documented = [(s, k, v) for s in parser.sections() for k, v in parser[s].items()]
        assert documented == [(row.section, row.key, row.default) for row in _SCHEMA]

    def test_readme_python_blocks_run(self):
        # every library example in the README runs as written, from the repository root
        readme = (ROOT / "README.md").read_text()
        blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
        assert blocks
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        for block in blocks:
            proc = subprocess.run(
                [sys.executable, "-W", "error::UserWarning", "-c", block],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, block + proc.stderr

    @pytest.mark.parametrize("section, key, value", OUT_OF_BOUND)
    def test_out_of_bound_value_names_key(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[{section}]\n{key} = {value}\n")
        assert err.value.violations
        assert all(v.startswith(f"{section}.{key}: ") for v in err.value.violations)


def _float_text(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


def _json_text(elements, max_size=6):
    return st.lists(elements, min_size=1, max_size=max_size).map(json.dumps)


# Valid values for the keys that do not shape the signal or sensor models.
VALID_VALUES = {
    ("scenario", "name"): st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_-]{0,11}", fullmatch=True),
    ("scenario", "horizon"): _float_text(1.0, 10.0),
    ("signal", "alpha"): _float_text(0.1, 2.0),
    ("signal", "initial_law"): st.sampled_from(["point", "gaussian", "uniform"]),
    ("observation", "epsilon"): _float_text(0.01, 1.0),
    ("run", "particle_counts"): _json_text(st.integers(100, 10**6)),
    ("run", "replications"): st.integers(1, 10**4).map(str),
    ("run", "seed"): st.integers(0, 2**32 - 1).map(str),
    ("run", "population_control"): st.sampled_from(["on", "off"]),
    ("run", "control_low"): _float_text(0.01, 0.99),
    ("run", "control_high"): _float_text(1.01, 10.0),
    ("run", "xi_threshold"): _float_text(0.01, 10.0),
    ("metric", "gamma"): st.just("auto") | _float_text(-50.0, -0.6),
    ("metric", "cutoff"): _float_text(0.1, 100.0),
    ("metric", "spacing"): _float_text(0.001, 1.0),
    ("oracle", "kind"): st.sampled_from(["grid", "none"]),
    ("oracle", "grid_points"): st.sampled_from(["64", "128", "1024"]),
    # from 5: the default N(0, 1) law leaves 2 Phi(-5) = 5.7e-7 < 1e-6 of its mass outside
    ("oracle", "grid_halfwidth"): _float_text(5.0, 100.0),
    ("rate", "assert_slope"): st.sampled_from(["on", "off"]),
    # either drawn or default (-0.65, -0.35), slope_low stays <= slope_high
    ("rate", "slope_low"): _float_text(-5.0, -0.65),
    ("rate", "slope_high"): _float_text(-0.35, 5.0),
    ("rate", "error_epochs"): st.sampled_from(["final", "all"]),
    ("baseline", "epsilons"): st.lists(
        st.floats(min_value=1e-4, max_value=1.0),
        min_size=2,
        max_size=6,
        unique_by=lambda eps: round(1e6 * eps),
    ).map(json.dumps),
    ("validate", "scale"): _float_text(0.01, 10.0),
    ("output", "directory"): st.text(alphabet="abcXYZ019_-./%", min_size=1, max_size=12),
    ("output", "dump_particles"): st.sampled_from(["on", "off"]),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=st.fixed_dictionaries({}, optional=VALID_VALUES))
def test_serialize_parse_round_trip(values):
    # every key is drawn, but a grid oracle must resolve the metric: cutoff <= pi / cell width
    kind, points, halfwidth, cutoff = (
        values.get(key, default)
        for key, default in (
            (("oracle", "kind"), "grid"),
            (("oracle", "grid_points"), "512"),
            (("oracle", "grid_halfwidth"), "10.0"),
            (("metric", "cutoff"), "40.0"),
        )
    )
    assume(kind != "grid" or float(cutoff) <= np.pi * int(points) / (2.0 * float(halfwidth)))
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())
    cfg = parse_config(text)
    for (section, key), value in values.items():
        assert cfg.raw[section][key] == value
    assert parse_config(serialize_config(cfg)).raw == cfg.raw


class TestBuilders:
    def test_metric_above_the_node_cap_parses_then_exits_2_at_build(self):
        # the per-key bound holds; no grid oracle, whose cells would not resolve the cutoff
        cfg = parse_config("[metric]\ncutoff = 1e9\n[oracle]\nkind = none\n")
        with pytest.raises(ConfigError) as err:
            build_metric(cfg)
        (violation,) = err.value.violations
        assert violation == (
            "metric.cutoff/spacing/gamma, signal.dimension: "
            "cutoff/spacing = 2e+10 gives over 4194304 nodes"
        )

    def test_default_scenario_objects(self):
        cfg = parse_config(default_config_text())
        signal = build_signal(cfg)
        obs = build_observation(cfg)
        metric = build_metric(cfg)
        assert signal.alpha == 2.0
        assert signal.spectral.weights.tolist() == [0.5]
        assert obs.epsilon == 0.1
        assert isinstance(obs.sensor, GaussianBumpSensor)
        assert obs.sensor.amplitudes.tolist() == [1.0]
        assert obs.sensor.centers.tolist() == [[0.0]]
        assert obs.sensor.widths.tolist() == [1.0]
        assert metric.gamma == pytest.approx(-5.0)

    def test_zero_sensor_built(self):
        cfg = parse_config("[observation]\nsensor = zero\n")
        obs = build_observation(cfg)
        assert obs.sensor == ZeroSensor(d2=1, d1=1)

    @pytest.mark.parametrize(
        "kind, expected",
        [
            ("grid", reference.Oracle("grid", 64, 6.0)),
            ("kalman", reference.Oracle("kalman")),
            ("none", None),
        ],
    )
    def test_oracle_built_once_from_the_config(self, kind, expected):
        cfg = parse_config(
            "[observation]\nsensor = clipped_linear\n[metric]\ncutoff = 16.0\n"
            f"[oracle]\nkind = {kind}\ngrid_points = 64\ngrid_halfwidth = 6.0\n"
        )
        assert build_oracle(cfg) == expected


class TestArtifacts:
    def test_simulate_emits_files_and_manifest(self, tmp_path):
        cfg = parse_config(QUICK)
        rc = cmd_simulate(cfg, tmp_path)
        assert rc == 0
        manifest = json.loads((tmp_path / "quick_simulate_manifest.json").read_text())
        assert manifest["seed"] == 7
        names = {f["name"] for f in manifest["files"]}
        assert "quick_simulate_truth.csv" in names
        assert "quick_simulate_observations.csv" in names
        assert "quick_simulate_estimates.csv" in names
        assert "quick_simulate_oracle.csv" in names
        for entry in manifest["files"]:
            digest = hashlib.sha256((tmp_path / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = parse_config(QUICK)
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_simulate(cfg, a)
        cmd_simulate(parse_config(QUICK), b)
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_manifest_hash_tracks_data(self, tmp_path):
        base = parse_config(QUICK)
        other = parse_config(QUICK.replace("seed = 7", "seed = 8"))
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_simulate(base, a)
        cmd_simulate(other, b)
        ma = json.loads((a / "quick_simulate_manifest.json").read_text())
        mb = json.loads((b / "quick_simulate_manifest.json").read_text())
        hashes_a = {f["name"]: f["sha256"] for f in ma["files"]}
        hashes_b = {f["name"]: f["sha256"] for f in mb["files"]}
        assert hashes_a != hashes_b

    def test_particle_dump_genealogy(self, tmp_path):
        # without control, and under a narrow band that halves and doubles
        band = self.controlled("on").replace("0.95", "0.95\ncontrol_high = 1.05")
        for label, text in (("plain", QUICK), ("band", band)):
            out = tmp_path / label
            cmd_simulate(parse_config(text + "\n[output]\ndump_particles = on\n"), out)
            lines = (out / "quick_simulate_particles.csv").read_text().splitlines()
            assert lines[0] == "epoch,parent_row,root_ancestor,x0"
            rows = [line.split(",") for line in lines[1:]]
            epochs = np.array([int(r[0]) for r in rows])
            parent = np.array([int(r[1]) for r in rows])
            root = np.array([int(r[2]) for r in rows])
            first = epochs == 1
            assert np.array_equal(parent[first], root[first])
            assert root.min() >= 0 and root.max() < 300
            for k in range(2, epochs.max() + 1):
                # a particle's root is its parent's root one epoch earlier
                assert np.array_equal(
                    root[epochs == k], root[epochs == k - 1][parent[epochs == k]]
                )
            estimates = (out / "quick_simulate_estimates.csv").read_text().splitlines()[1:]
            # mass = mass_factor * count / n: under the band the factor both halves and doubles
            factors = [float(r[3]) * 300 / int(r[2]) for r in (e.split(",") for e in estimates)]
            moves = set(np.diff(np.log2(factors).round(), prepend=0.0))
            assert (moves >= {-1.0, 1.0}) if label == "band" else (moves == {0.0})

    @staticmethod
    def controlled(switch):
        return QUICK.replace(
            "seed = 7", f"seed = 7\npopulation_control = {switch}\ncontrol_low = 0.95"
        )

    def test_population_control_reaches_simulate(self, tmp_path):
        texts = {"plain": QUICK, "on": self.controlled("on"), "off": self.controlled("off")}
        for label, text in texts.items():
            cmd_simulate(parse_config(text), tmp_path / label)
        for csv in sorted((tmp_path / "plain").glob("*.csv")):
            assert (tmp_path / "off" / csv.name).read_bytes() == csv.read_bytes()
        estimates = (tmp_path / "on" / "quick_simulate_estimates.csv").read_text()
        assert estimates != (tmp_path / "off" / "quick_simulate_estimates.csv").read_text()
        rows = [line.split(",") for line in estimates.splitlines()[1:]]
        # mass = mass_factor * count / n, so the factor leaves 1 once control acts
        assert any(abs(float(r[3]) * 300 / int(r[2]) - 1.0) > 1e-9 for r in rows)

    def test_population_control_reaches_rate_sweep(self, tmp_path):
        errors = {}
        for switch in ("on", "off"):
            text = self.controlled(switch).replace("[300]", "[100, 200, 300]")
            text += "\n[rate]\nassert_slope = off\n"
            out = tmp_path / switch
            path = out / "cfg.ini"
            out.mkdir()
            path.write_text(text)
            assert cli_main(["rate-sweep", "--config", str(path), "--out", str(out)]) == 0
            errors[switch] = (out / "quick_rate-sweep_errors.csv").read_text()
        assert errors["on"] != errors["off"]

    def test_estimates_schema(self, tmp_path):
        cfg = parse_config(QUICK)
        cmd_simulate(cfg, tmp_path)
        header = (tmp_path / "quick_simulate_estimates.csv").read_text().splitlines()[0]
        assert header == "epoch,t,count,mass,sum_x0_unnormalized,mean_x0"


class TestCli:
    def write_cfg(self, tmp_path, text=QUICK):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        return str(path)

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli_main(["simulate", "--config", str(tmp_path / "absent.ini")])
        assert rc == 2

    def test_config_violations_exit_2(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, "[observation]\nepsilon = 1.5\n")
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_output_path_through_a_file_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, under
    ):
        def never(*args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(harness, "cmd_validate", never)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        path = self.write_cfg(tmp_path)
        rc = cli_main(["validate", "--config", path, "--out", str(taken / under)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "output.directory (--out)" in err and str(taken) in err
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("blocked", ["quick_simulate_truth.csv", "quick_simulate_manifest.json"])
    def test_unwritable_artifact_or_manifest_exits_3_naming_it(self, tmp_path, capsys, blocked):
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)  # a directory where the file must go
        path = self.write_cfg(tmp_path)
        rc = cli_main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 3
        assert f"cannot write {out / blocked}" in capsys.readouterr().err

    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path, capsys):
        out = tmp_path / "o"
        blocked = out / "quick_simulate_particles.csv"
        blocked.mkdir(parents=True)  # in the way only once particles are dumped
        path = self.write_cfg(tmp_path)
        assert cli_main(["simulate", "--config", path, "--seed", "7", "--out", str(out)]) == 0
        path = self.write_cfg(tmp_path, QUICK + "\n[output]\ndump_particles = on\n")
        rc = cli_main(["simulate", "--config", path, "--seed", "8", "--out", str(out)])
        assert rc == 3
        assert f"cannot write {blocked}" in capsys.readouterr().err
        # the seed-7 manifest would list hashes of files the seed-8 run overwrote
        assert not (out / "quick_simulate_manifest.json").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[observation]\nbump_widths = [-1.0]\n",
            "[observation]\nbump_widths = [1e-300]\n",  # its square underflows to 0
            "[observation]\nbump_centers = [[0.0, 1.0]]\n",
        ],
    )
    def test_model_violations_exit_2(self, tmp_path, capsys, text):
        path = self.write_cfg(tmp_path, QUICK + text)
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bump_" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, violation",
        [
            (
                QUICK + '[signal]\natoms = [{"direction": [[1.0]], "weight": 0.5}]\n',
                "signal.atoms: directions must be 2-d",
            ),
            (
                QUICK + "[observation]\nbump_amplitudes = [[[1.0]]]\n",
                "observation.bump_amplitudes/bump_centers/bump_widths: amplitudes must be 1-d",
            ),
            (
                QUICK + "[observation]\nbump_centers = [[[0.0]]]\n",
                "observation.bump_amplitudes/bump_centers/bump_widths: centers must be 2-d",
            ),
            (
                QUICK + "[observation]\nbump_widths = [[[1.0]]]\n",
                "observation.bump_amplitudes/bump_centers/bump_widths: widths must be 1-d",
            ),
            (
                (ROOT / "configs" / "kalman.ini")
                .read_text()
                .replace("linear_matrix = [[1.0]]", "linear_matrix = [[[1.0]]]"),
                "observation.linear_matrix: matrix must be 2-d",
            ),
        ],
        ids=["direction", "amplitudes", "centers", "widths", "matrix"],
    )
    def test_model_arrays_of_the_wrong_rank_exit_2(self, tmp_path, capsys, text, violation):
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"  - {violation}, got an array of shape (1, 1, 1)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_simulate_metric_error_exits_2_before_the_filter(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the filter ran")

        monkeypatch.setattr(harness, "run_filter", never)
        path = self.write_cfg(tmp_path, QUICK + "\n[metric]\ncutoff = 0.01\n")
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "metric.cutoff/spacing/gamma" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nan_initial_scale_exit_2(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, QUICK + "\n[signal]\ninitial_scale = [NaN]\n")
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "signal.initial_scale: entries must be finite numbers, not NaN" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_overflow_exit_3_not_extinction(self, tmp_path, capsys):
        # no oracle: a law centred at 15 lies outside the grid's domain, which exits 2 at parse
        text = QUICK.replace("grid_points = 256", "kind = none") + (
            "\n[signal]\nalpha = 1.2\ninitial_center = [15.0]\n"
            "\n[observation]\nsensor = clipped_linear\nepsilon = 0.5\n"
        )
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 3
        assert "weight overflow at observation epoch 1" in captured.err
        assert "extinction" not in captured.out + captured.err

    def test_simulate_extinction_exit_3_after_writing_artifacts(self, tmp_path, capsys):
        # the one particle of seed 9 dies out at epoch 5 of 10
        text = QUICK.replace("particle_counts = [300]", "particle_counts = [1]")
        text = text.replace("seed = 7", "seed = 9") + "\n[rate]\nassert_slope = off\n"
        out = tmp_path / "o"
        rc = cli_main(["simulate", "--config", self.write_cfg(tmp_path, text), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().out == "extinction at epoch 5\n"
        manifest = json.loads((out / "quick_simulate_manifest.json").read_text())
        assert {f["name"] for f in manifest["files"]} == {
            f"quick_simulate_{kind}.csv"
            for kind in ("truth", "observations", "estimates", "oracle", "oracle_transform")
        }
        rows = (out / "quick_simulate_estimates.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4", "5"]
        assert rows[-1].split(",")[2:4] == ["0", "0"]  # count, mass

    @pytest.mark.parametrize(
        "text, violation",
        [
            (
                QUICK.replace("grid_points = 256", "kind = none"),
                "oracle.kind: rate-sweep needs an oracle (grid or kalman)",
            ),
            (
                QUICK.replace("[300]", "[300, 600]") + "\n[rate]\nassert_slope = on\n",
                "run.particle_counts: at least 3 counts are needed to fit a rate",
            ),
        ],
        ids=["oracle", "counts"],
    )
    def test_rate_sweep_gates_exit_2(self, tmp_path, capsys, text, violation):
        rc = cli_main(["rate-sweep", "--config", self.write_cfg(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error:\n  - {violation}\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            harness.run_command("sweep", parse_config(QUICK), tmp_path / "o")
        assert err.value.violations == ["unknown command 'sweep'"]
        assert not (tmp_path / "o").exists()

    def test_observation_dim_mismatch_exit_2(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, QUICK + "\n[observation]\nobservation_dim = 3\n")
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "observation.observation_dim" in capsys.readouterr().err

    def test_one_baseline_epsilon_exit_2(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, QUICK + "\n[baseline]\nepsilons = [0.1]\n")
        rc = cli_main(["compare-baseline", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "baseline.epsilons" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_baseline_epochs_past_the_cap_exit_2_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        # 20000 / 0.1 epochs parse; 20000 / 0.0125 = 1.6e6 exceed the cap
        def no_work(*args, **kwargs):
            raise AssertionError("reached the comparison")

        monkeypatch.setattr(harness, "baseline_comparison", no_work)
        path = self.write_cfg(tmp_path, QUICK.replace("horizon = 1.0", "horizon = 20000.0"))
        rc = cli_main(["compare-baseline", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error:\n  - baseline.epsilons: at the smallest entry, floor(horizon / epsilon) "
            f"is over MAX_EPOCHS = {MAX_EPOCHS} observation epochs\n"
        )
        assert not (tmp_path / "o").exists()

    def test_baseline_epsilon_above_the_horizon_exit_2(self, tmp_path, capsys):
        # 0.1 > 0.08: that epsilon's record would hold no observation; the other commands run
        text = QUICK.replace("horizon = 1.0", "horizon = 0.08") + "\n[observation]\nepsilon = 0.05\n"
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(["compare-baseline", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "baseline.epsilons: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "law, violation",
        [
            (
                "initial_center = [9.5]",
                "oracle.grid_halfwidth/signal.initial_center: initial mass outside the domain "
                "is 3.085e-01 (> 1e-06); enlarge the grid",
            ),
            (
                # no centre of the 256-cell grid lies within 4e7 scales of 0
                "initial_scale = [1e-9]",
                "oracle.grid_points/oracle.grid_halfwidth/signal.initial_scale: the initial "
                "density is 0 at the grid cell nearest its centre, so the grid holds no positive "
                "finite mass; use a wider law, finer cells or initial_law = point",
            ),
        ],
        ids=["outside", "unsampled"],
    )
    @pytest.mark.parametrize(
        "command, work",
        [
            ("simulate", "run_filter"),
            ("validate", "default_validation_suite"),
            ("rate-sweep", "rate_sweep"),
            ("compare-baseline", "baseline_comparison"),
        ],
    )
    def test_initial_law_outside_grid_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, work, law, violation
    ):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(harness, work, never)
        path = self.write_cfg(tmp_path, QUICK + f"\n[signal]\n{law}\n")
        rc = cli_main([command, "--config", path, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"  - {violation}\n" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, work",
        [
            ("simulate", "run_filter"),
            ("validate", "default_validation_suite"),
            ("rate-sweep", "rate_sweep"),
            ("compare-baseline", "baseline_comparison"),
        ],
    )
    def test_cutoff_the_grid_cannot_resolve_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, work
    ):
        # at gamma = -0.6 the 512-point grid's error past pi / cell width = 80.4 would
        # dominate the sweep and fail its slope, blaming the filter
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(harness, work, never)
        text = default_config_text().replace("gamma = auto", "gamma = -0.6")
        path = self.write_cfg(tmp_path, text.replace("cutoff = 40.0", "cutoff = 2000"))
        rc = cli_main([command, "--config", path, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        assert (
            "  - metric.cutoff: 2000 exceeds pi * oracle.grid_points / (2 * oracle.grid_halfwidth)"
            " = 80.42, the highest frequency the grid oracle resolves\n"
        ) in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_cutoff_below_spacing_exit_2(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, QUICK + "\n[metric]\ncutoff = 0.01\n")
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "metric.cutoff" in err and "cutoff must exceed spacing" in err

    @pytest.mark.parametrize("seed", ["4294967296", "-1"])
    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_seed_out_of_range_exits_2_naming_it(self, tmp_path, capsys, route, seed):
        if route == "config":
            path, flag = self.write_cfg(tmp_path, QUICK.replace("seed = 7", f"seed = {seed}")), []
        else:
            path, flag = self.write_cfg(tmp_path), ["--seed", seed]
        rc = cli_main(["simulate", "--config", path, *flag, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"run.seed: value {seed} violates 0 <= seed < 2**32" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_three_dimensional_metric_exit_2(self, tmp_path, capsys):
        text = QUICK.replace("grid_points = 256", "grid_points = 64") + (
            "\n[metric]\ncutoff = 10.0\n"  # inside the 64-point grid's pi / cell width, 10.05
            '\n[signal]\ndimension = 3\natoms = [{"direction": [1.0, 0.0, 0.0], "weight": 0.5}]\n'
            "initial_center = [0.0, 0.0, 0.0]\ninitial_scale = [1.0, 1.0, 1.0]\n"
            "\n[observation]\nbump_centers = [[0.0, 0.0, 0.0]]\n"
        )
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "signal.dimension" in err and "dimensions 1 and 2 only" in err

    @pytest.mark.parametrize(
        "points, extra", [("8388608", ""), ("512", THREE_D)], ids=["1d", "3d"]
    )
    def test_grid_oracle_above_the_cell_bound_exit_2(
        self, tmp_path, capsys, monkeypatch, points, extra
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid oracle was built")

        monkeypatch.setattr(reference, "build_grid", no_grid)
        text = QUICK.replace("grid_points = 256", f"grid_points = {points}") + extra
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(["compare-baseline", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "oracle.grid_points: " in err and "signal.dimension" in err
        assert not (tmp_path / "o").exists()

    def test_sweep_repeated_count_exit_2(self, tmp_path, capsys):
        # replications of one n share their seeds: a repeated count would add copies of one point
        text = QUICK.replace("particle_counts = [300]", "particle_counts = [250, 250, 250]")
        path = self.write_cfg(tmp_path, text + "\n[rate]\nslope_low = -0.3\nslope_high = -0.1\n")
        rc = cli_main(["rate-sweep", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "run.particle_counts: a count repeats" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_baseline_repeated_epsilon_exit_2(self, tmp_path, capsys):
        # a repeated epsilon used to write two identical rows, fitted as two points
        path = self.write_cfg(tmp_path, QUICK + "\n[baseline]\nepsilons = [0.1, 0.1, 0.05]\n")
        rc = cli_main(["compare-baseline", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "baseline.epsilons: two entries share a seed tag" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_reversed_slope_window_exit_2(self, tmp_path, capsys):
        text = QUICK.replace("particle_counts = [300]", "particle_counts = [300, 600, 1200]")
        path = self.write_cfg(tmp_path, text + "\n[rate]\nslope_low = -0.2\nslope_high = -0.35\n")
        rc = cli_main(["rate-sweep", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "rate.slope_low/slope_high" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_validate_growth_cap_names_the_check(self, tmp_path, capsys):
        # the shipped kalman scenario's mass outgrows the cap in the compensator check
        config = str(ROOT / "configs" / "kalman.ini")
        rc = cli_main(["validate", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "runtime error: martingale_compensator: population growth" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["grid", "none"])
    def test_compare_baseline_extinction_exit_3(self, tmp_path, capsys, kind):
        # one particle on the shipped scenario dies out at epoch 12 of the eps = 0.1 run
        text = (ROOT / "configs" / "default.ini").read_text()
        text = text.replace("particle_counts = [250, 500, 1000, 2000, 4000, 8000, 16000]",
                            "particle_counts = [1]")
        text = text.replace("assert_slope = on", "assert_slope = off")
        text = text.replace("kind = grid", f"kind = {kind}")
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(
            ["compare-baseline", "--config", path, "--seed", "1", "--out", str(tmp_path / "o")]
        )
        assert rc == 3
        assert "extinct at observation epoch 12 of 20 (epsilon 0.1)" in capsys.readouterr().err

    def test_compare_baseline_zero_sensor_slope_is_a_quiet_nan(self, tmp_path):
        # a zero sensor never branches, so every fraction is 0 and has no logarithm
        path = self.write_cfg(tmp_path, QUICK + "\n[observation]\nsensor = zero\n")
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        command = ["compare-baseline", "--config", path, "--out", str(tmp_path / "o")]
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "levyfilter.cli", *command],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "slope in eps: nan (a branching fraction is 0);" in proc.stdout
        assert proc.stderr == ""

    def test_kalman_oracle_with_bump_sensor_exit_2(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, QUICK.replace("grid_points = 256", "kind = kalman"))
        rc = cli_main(["rate-sweep", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "oracle.kind: kalman needs" in capsys.readouterr().err

    def test_kalman_sweep_outside_clip_region_exit_3(self, tmp_path, capsys):
        # the truth leaves |x| < 0.5 at once, where the clipped sensor is not linear
        text = QUICK.replace("grid_points = 256", "kind = kalman") + (
            "\n[observation]\nsensor = clipped_linear\nlinear_clip = 0.5\n"
            "\n[rate]\nassert_slope = off\n"
        )
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(["rate-sweep", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "observation.linear_clip: clip region violated" in capsys.readouterr().err

    def test_population_growth_cap_exit_3(self, tmp_path, capsys):
        # two particles started at x = 4 under an unclipped linear sensor: the
        # unnormalized mass, and with it the population, passes 1024 per particle
        text = """
[scenario]
name = grow
horizon = 1.0

[signal]
initial_law = point
initial_center = [4.0]

[observation]
sensor = clipped_linear

[run]
particle_counts = [2]
seed = 7

[oracle]
kind = none

[rate]
assert_slope = off
"""
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "run.population_control: population growth" in err
        assert "cap 2048" in err

    def test_compare_baseline_growth_is_not_blamed_on_population_control(
        self, tmp_path, capsys, monkeypatch
    ):
        # only simulate and rate-sweep honour run.population_control, so the cap's
        # message reaches compare-baseline's stderr as the filter raised it
        monkeypatch.setattr(branching, "MAX_GROWTH", 1)
        path = self.write_cfg(tmp_path)
        rc = cli_main(["compare-baseline", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: population growth at observation epoch ")
        assert "run.population_control" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, reason",
        [
            (QUICK + "\n[run]\nseed = 8\n", "section 'run' already exists"),
            ("name = x\n" + QUICK, "File contains no section headers."),
        ],
    )
    def test_malformed_config_exit_2_before_any_work(self, tmp_path, capsys, text, reason):
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "  - malformed config: " in err and reason in err
        assert not (tmp_path / "o").exists()

    def test_seed_override_changes_artifacts(self, tmp_path):
        path = self.write_cfg(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli_main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert (
            cli_main(
                ["simulate", "--config", path, "--seed", "99", "--out", str(out2)]
            )
            == 0
        )
        t1 = (out1 / "quick_simulate_truth.csv").read_bytes()
        t2 = (out2 / "quick_simulate_truth.csv").read_bytes()
        assert t1 != t2

    def test_validate_skips_oracle_check_without_oracle(self, tmp_path, capsys):
        path = self.write_cfg(
            tmp_path,
            QUICK.replace("[oracle]\ngrid_points = 256", "[oracle]\nkind = none"),
        )
        rc = cli_main(["validate", "--config", path, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert "SKIPPED oracle_agreement" in out
        assert rc == 0

    @pytest.mark.parametrize("command", ["rate-sweep", "validate", "compare-baseline"])
    def test_strict_boundary_mass_exit_3(self, tmp_path, capsys, command):
        # a half-width of 5 leaves mass in the boundary cells after one predict
        text = QUICK.replace("grid_points = 256", "grid_points = 64\ngrid_halfwidth = 5.0")
        text += "\n[metric]\ncutoff = 20.0\n"  # the grid resolves up to pi * 64 / 10 = 20.1
        path = self.write_cfg(tmp_path, text + "\n[rate]\nassert_slope = off\n")
        rc = cli_main([command, "--config", path, "--out", str(tmp_path / "o"), "--strict"])
        assert rc == 3
        assert "boundary cells hold fraction" in capsys.readouterr().err

    def test_strict_escalates_boundary_mass_exit_3(self, tmp_path, capsys):
        # a half-width of 5 leaves mass in the boundary cells after one predict
        text = QUICK.replace("grid_points = 256", "grid_points = 64\ngrid_halfwidth = 5.0")
        text += "\n[metric]\ncutoff = 20.0\n"  # the grid resolves up to pi * 64 / 10 = 20.1
        path = self.write_cfg(tmp_path, text)
        with pytest.warns(reference.GridAccuracyWarning, match="boundary cells"):
            assert cli_main(["simulate", "--config", path, "--out", str(tmp_path / "w")]) == 0
        capsys.readouterr()
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o"), "--strict"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "boundary cells hold fraction" in err
        assert "widen oracle.grid_halfwidth" in err

    @pytest.mark.parametrize("alpha", ["0.97", "1.04"])
    def test_alpha_near_one_warns_and_strict_exits_3(self, tmp_path, capsys, alpha):
        text = QUICK.replace("[oracle]\ngrid_points = 256", "[oracle]\nkind = none")
        path = self.write_cfg(tmp_path, text + f"\n[signal]\nalpha = {alpha}\n")
        with pytest.warns(AlphaNearOneWarning, match=f"signal.alpha = {alpha}"):
            assert cli_main(["simulate", "--config", path, "--out", str(tmp_path / "w")]) == 0
        capsys.readouterr()
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o"), "--strict"])
        assert rc == 3
        assert f"signal.alpha = {alpha}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::levyfilter.harness.AlphaNearOneWarning")
    @pytest.mark.parametrize("alpha", ["1.0", "0.95", "1.05", "2.0"])
    def test_alpha_away_from_the_band_is_silent(self, tmp_path, alpha):
        text = QUICK.replace("[oracle]\ngrid_points = 256", "[oracle]\nkind = none")
        path = self.write_cfg(tmp_path, text + f"\n[signal]\nalpha = {alpha}\n")
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o"), "--strict"])
        assert rc == 0

    def test_sweep_with_one_count_skips_fit_exit_0(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, QUICK + "\n[rate]\nassert_slope = off\n")
        out = tmp_path / "o"
        rc = cli_main(["rate-sweep", "--config", path, "--out", str(out)])
        assert rc == 0
        assert "no rate fit" in capsys.readouterr().out
        assert (out / "quick_rate-sweep_rms.csv").exists()
        assert not (out / "quick_rate-sweep_fit.csv").exists()

    def test_sweep_extinction_threshold_exit_3(self, tmp_path, capsys):
        # single-digit populations under a live channel go extinct often
        doomed = """
[scenario]
name = doomed
horizon = 2.0

[observation]
epsilon = 0.25

[run]
particle_counts = [1, 2, 3]
replications = 10
seed = 5

[rate]
assert_slope = off

[metric]
cutoff = 10.0

[oracle]
grid_points = 64
"""
        path = self.write_cfg(tmp_path, doomed)
        rc = cli_main(["rate-sweep", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "extinction fraction" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, text, gate, files",
        [
            (
                "rate-sweep",
                QUICK.replace("particle_counts = [300]", "particle_counts = [300, 600, 1200]")
                + "\n[rate]\nslope_low = 5.0\nslope_high = 6.0\n",
                "slope 0.2219 outside [5.0, 6.0]",
                ["errors", "rms", "fit"],
            ),
            (
                "compare-baseline",
                QUICK
                + "\n[observation]\nbump_amplitudes = [4.0]\n[baseline]\nepsilons = [1.0, 0.5]\n",
                "branching relocation fraction unexpectedly large (>= 0.2)",
                ["comparison"],
            ),
        ],
        ids=["slope", "fraction"],
    )
    def test_gate_exits_1_after_writing_every_artifact(
        self, tmp_path, capsys, command, text, gate, files
    ):
        out = tmp_path / "o"
        rc = cli_main([command, "--config", self.write_cfg(tmp_path, text), "--out", str(out)])
        assert rc == 1
        assert gate in capsys.readouterr().out.splitlines()
        manifest = json.loads((out / f"quick_{command}_manifest.json").read_text())
        names = [f"quick_{command}_{name}.csv" for name in files]
        assert sorted(entry["name"] for entry in manifest["files"]) == sorted(names)
        assert all((out / name).is_file() for name in names)
