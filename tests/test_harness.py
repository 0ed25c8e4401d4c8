"""Config parsing, artifact emission, determinism, CLI exit codes."""

import hashlib
import json

import numpy as np
import pytest

from levyfilter.cli import main as cli_main
from levyfilter.harness import (
    ConfigError,
    build_metric,
    build_observation,
    build_signal,
    cmd_simulate,
    default_config_text,
    parse_config,
    serialize_config,
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


class TestBuilders:
    def test_default_scenario_objects(self):
        cfg = parse_config(default_config_text())
        signal = build_signal(cfg)
        obs = build_observation(cfg)
        metric = build_metric(cfg)
        assert signal.alpha == 2.0
        assert signal.spectral.total_mass == pytest.approx(0.5)
        assert obs.epsilon == 0.1
        assert obs.sensor.hh_sup_bound() == pytest.approx(1.0)
        assert metric.gamma == pytest.approx(-5.0)

    def test_zero_sensor_built(self):
        cfg = parse_config("[observation]\nsensor = zero\n")
        obs = build_observation(cfg)
        assert obs.sensor.hh_sup_bound() == 0.0


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
