"""Config parsing, artifact emission, determinism, CLI exit codes."""

import configparser
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter import GaussianBumpSensor, ZeroSensor, harness, reference
from levyfilter.cli import main as cli_main
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
        "epsilons, violation",
        [
            ("[0.1]", "needs at least two distinct values to fit the slope in eps"),
            ("[0.05, 0.05]", "needs at least two distinct values to fit the slope in eps"),
            ("[]", "needs at least two distinct values to fit the slope in eps"),
            ('["a", 0.1]', "every entry must be a number in (0, 1]"),
            ("[[0.1], 0.05]", "every entry must be a number in (0, 1]"),
            ("[true, 0.05]", "every entry must be a number in (0, 1]"),
        ],
        ids=["one", "repeated", "none", "string", "list", "bool"],
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
    ("run", "seed"): st.integers(-(2**40), 2**40).map(str),
    ("run", "population_control"): st.sampled_from(["on", "off"]),
    ("run", "control_low"): _float_text(0.01, 0.99),
    ("run", "control_high"): _float_text(1.01, 10.0),
    ("run", "xi_threshold"): _float_text(0.01, 10.0),
    ("metric", "gamma"): st.just("auto") | _float_text(-50.0, -0.6),
    ("metric", "cutoff"): _float_text(0.1, 100.0),
    ("metric", "spacing"): _float_text(0.001, 1.0),
    ("oracle", "kind"): st.sampled_from(["grid", "none"]),
    ("oracle", "grid_points"): st.sampled_from(["64", "128", "1024"]),
    ("oracle", "grid_halfwidth"): _float_text(0.1, 100.0),
    ("rate", "assert_slope"): st.sampled_from(["on", "off"]),
    # either drawn or default (-0.65, -0.35), slope_low stays <= slope_high
    ("rate", "slope_low"): _float_text(-5.0, -0.65),
    ("rate", "slope_high"): _float_text(-0.35, 5.0),
    ("rate", "error_epochs"): st.sampled_from(["final", "all"]),
    ("baseline", "epsilons"): st.lists(
        st.floats(min_value=1e-4, max_value=1.0), min_size=2, max_size=6, unique=True
    ).map(json.dumps),
    ("validate", "scale"): _float_text(0.01, 10.0),
    ("output", "directory"): st.text(alphabet="abcXYZ019_-./%", min_size=1, max_size=12),
    ("output", "dump_particles"): st.sampled_from(["on", "off"]),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=st.fixed_dictionaries({}, optional=VALID_VALUES))
def test_serialize_parse_round_trip(values):
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())
    cfg = parse_config(text)
    for (section, key), value in values.items():
        assert cfg.raw[section][key] == value
    assert parse_config(serialize_config(cfg)).raw == cfg.raw


class TestBuilders:
    def test_default_scenario_objects(self):
        cfg = parse_config(default_config_text())
        signal = build_signal(cfg)
        obs = build_observation(cfg)
        metric = build_metric(cfg)
        assert signal.alpha == 2.0
        assert signal.spectral.total_mass == pytest.approx(0.5)
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
            "[observation]\nsensor = clipped_linear\n"
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
        cfg = parse_config(QUICK + "\n[output]\ndump_particles = on\n")
        cmd_simulate(cfg, tmp_path)
        lines = (tmp_path / "quick_simulate_particles.csv").read_text().splitlines()
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
            assert np.array_equal(root[epochs == k], root[epochs == k - 1][parent[epochs == k]])

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
            "[observation]\nbump_centers = [[0.0, 1.0]]\n",
        ],
    )
    def test_model_violations_exit_2(self, tmp_path, capsys, text):
        path = self.write_cfg(tmp_path, QUICK + text)
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bump_" in capsys.readouterr().err

    def test_nan_initial_scale_exit_2(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, QUICK + "\n[signal]\ninitial_scale = [NaN]\n")
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "signal.initial_scale: entries must be finite numbers, not NaN" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_overflow_exit_3_not_extinction(self, tmp_path, capsys):
        text = QUICK + (
            "\n[signal]\nalpha = 1.2\ninitial_center = [15.0]\n"
            "\n[observation]\nsensor = clipped_linear\nepsilon = 0.5\n"
        )
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 3
        assert "weight overflow at observation epoch 1" in captured.err
        assert "extinction" not in captured.out + captured.err

    def test_rate_sweep_requires_oracle(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, QUICK + "\n[oracle]\nkind = none\n")
        rc = cli_main(["rate-sweep", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "oracle" in capsys.readouterr().err

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

    def test_initial_law_outside_grid_exit_2(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, QUICK + "\n[signal]\ninitial_center = [15.0]\n")
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "oracle.grid_halfwidth" in err and "signal.initial_center" in err

    def test_cutoff_below_spacing_exit_2(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, QUICK + "\n[metric]\ncutoff = 0.01\n")
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "metric.cutoff" in err and "cutoff must exceed spacing" in err

    def test_three_dimensional_metric_exit_2(self, tmp_path, capsys):
        text = QUICK.replace("grid_points = 256", "grid_points = 64") + (
            '\n[signal]\ndimension = 3\natoms = [{"direction": [1.0, 0.0, 0.0], "weight": 0.5}]\n'
            "initial_center = [0.0, 0.0, 0.0]\ninitial_scale = [1.0, 1.0, 1.0]\n"
            "\n[observation]\nbump_centers = [[0.0, 0.0, 0.0]]\n"
        )
        path = self.write_cfg(tmp_path, text)
        rc = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "signal.dimension" in err and "dimensions 1 and 2 only" in err

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
        path = self.write_cfg(tmp_path, text + "\n[rate]\nassert_slope = off\n")
        rc = cli_main([command, "--config", path, "--out", str(tmp_path / "o"), "--strict"])
        assert rc == 3
        assert "boundary cells hold fraction" in capsys.readouterr().err

    def test_strict_escalates_boundary_mass_exit_3(self, tmp_path, capsys):
        # a half-width of 5 leaves mass in the boundary cells after one predict
        text = QUICK.replace("grid_points = 256", "grid_points = 64\ngrid_halfwidth = 5.0")
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

[oracle]
grid_points = 64
"""
        path = self.write_cfg(tmp_path, doomed)
        rc = cli_main(["rate-sweep", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "extinction fraction" in capsys.readouterr().out
