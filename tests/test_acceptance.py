"""Acceptance suite: one test per criterion, full sizes, stated tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion.  All randomness derives from the fixed master seed, so the
suite is deterministic end to end.
"""

import json
import subprocess
import sys


from levyfilter.checks import (
    check_branch_sparsity,
    check_characteristic_function,
    check_compensator,
    check_kalman_crosscheck,
    check_mass_moments,
    check_offspring_unbiasedness,
    check_quadratic_variation,
    check_weight_moment_scaling,
)
from levyfilter.experiments import rate_sweep
from levyfilter.harness import (
    build_metric,
    build_observation,
    build_signal,
    default_config_text,
    parse_config,
)
from levyfilter.observation import ClippedLinearSensor, ObservationModel
from levyfilter.reference import Oracle

SEED = 20050415

CONFIG = parse_config(default_config_text())
SIGNAL = build_signal(CONFIG)
OBS = build_observation(CONFIG)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'} — {detail}")


def test_c01_characteristic_function_fidelity():
    # 4 alphas, two-atom planar model, 1e5 increments, 20-node grid, 5-sigma band
    result = check_characteristic_function(SEED, scale=1.0)
    report(1, "characteristic function fidelity", result.passed, result.detail)
    assert result.passed, result.detail


def test_c02_offspring_unbiasedness():
    # exact identity at 1e-14 on a 50-point weight grid plus 1e5-uniform MC
    result = check_offspring_unbiasedness(SEED, scale=1.0)
    report(2, "offspring unbiasedness", result.passed, result.detail)
    assert result.passed, result.detail


def test_c03_weight_moment_scaling():
    # slopes of log E|rho|^r in log eps: r/2 within 0.15 for r = 1, 2
    result = check_weight_moment_scaling(SEED, scale=1.0)
    report(3, "weight moment scaling", result.passed, result.detail)
    assert result.passed, result.detail


def test_c04_martingale_compensator():
    # default scenario, n=1000, 200 replications, theta in {0.5, 1}
    result = check_compensator(
        SIGNAL, OBS, CONFIG.horizon, SEED, scale=1.0, n=1000, replications=200
    )
    report(4, "martingale compensator zero mean", result.passed, result.detail)
    assert result.passed, result.detail


def test_c05_quadratic_variation_identities():
    # alpha=2 deterministic value 2.0 within 2% at 1e4 cells; alpha=1.5 at 5 sigma
    result = check_quadratic_variation(SEED, scale=1.0)
    report(5, "quadratic variation identities", result.passed, result.detail)
    assert result.passed, result.detail


def test_c06_empirical_convergence_rate():
    # grid oracle (512 cells, halfwidth 10), 7 particle counts, 100 replications
    metric = build_metric(CONFIG)
    result = rate_sweep(
        SIGNAL,
        OBS,
        CONFIG.horizon,
        [250, 500, 1000, 2000, 4000, 8000, 16000],
        100,
        SEED,
        metric,
        Oracle("grid", 512, 10.0),
        error_epochs="final",
    )
    ok = (
        result.extinction_fraction <= 0.2
        and result.fit is not None
        and -0.65 <= result.fit.slope <= -0.35
    )
    detail = (
        f"slope {result.fit.slope:.4f} in [-0.65, -0.35], "
        f"ci [{result.fit.ci_low:.4f}, {result.fit.ci_high:.4f}], "
        f"extinct {result.extinct_runs}/{result.total_runs}"
    )
    report(6, "Sobolev error n-rate", ok, detail)
    assert ok, detail


def test_c07_kalman_crosscheck():
    # unclipped linear channel: error below 5 sigma/sqrt(n) and n-slope in [-0.65, -0.35]
    obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=20.0), CONFIG.epsilon)
    result = check_kalman_crosscheck(
        SIGNAL,
        obs,
        CONFIG.horizon,
        SEED,
        ns=(1000, 4000, 16000),
        reference_n=10_000,
        replications=24,
    )
    values = result.values
    ok = values["reference_rms"] < values["tolerance"] and -0.65 <= values["fit_slope"] <= -0.35
    report(7, "kalman posterior cross-check", result.passed, result.detail)
    assert ok == result.passed, result.detail
    assert result.passed, result.detail


def test_c08_branch_sparsity_vs_baseline():
    # branch fraction ~ sqrt(eps), small at eps=0.0125; multinomial relocates all
    result = check_branch_sparsity(
        SIGNAL,
        OBS.sensor,
        SEED,
        scale=1.0,
        epsilons=(0.1, 0.05, 0.025, 0.0125),
        n=2000,
    )
    report(8, "branch sparsity vs multinomial baseline", result.passed, result.detail)
    assert result.passed, result.detail


def test_c09_mass_moment_stability():
    # running-sup mass moments show no increasing trend over n in {500, 2000, 8000}
    result = check_mass_moments(
        SIGNAL,
        OBS,
        CONFIG.horizon,
        SEED,
        scale=1.0,
        ns=(500, 2000, 8000),
        replications=200,
    )
    report(9, "total-mass moment stability", result.passed, result.detail)
    assert result.passed, result.detail


def test_c10_validate_determinism(tmp_path):
    # two validate executions with identical config and seed: identical manifests
    cfg_text = default_config_text().replace("scale = 1.0", "scale = 0.1")
    cfg_path = tmp_path / "determinism.ini"
    cfg_path.write_text(cfg_text)
    manifests = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "levyfilter.cli",
                "validate",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        manifests.append((out / "default_validate_manifest.json").read_bytes())
        data = json.loads(manifests[-1])
        assert data["files"], "manifest must list the emitted artifacts"
    ok = manifests[0] == manifests[1]
    report(10, "validate determinism", ok, "byte-identical manifests")
    assert ok
