"""Validation checks that must FAIL: when a filter run dies out, or when a hypothesis fails."""

import dataclasses

from levyfilter import checks, experiments
from levyfilter.branching import run_filter
from levyfilter.harness import build_observation, build_signal, default_config_text, parse_config
from levyfilter.reference import Oracle

CONFIG = parse_config(default_config_text())
SIGNAL = build_signal(CONFIG)
OBS = build_observation(CONFIG)


def dies_out_once(monkeypatch, module, epoch):
    """Patch ``module``'s run_filter so that its first run reports extinction at ``epoch``:
    ``checks`` for the checks that run their own filters, ``experiments`` for those whose
    runs go through ``experiments.replicates``."""
    calls = []

    def first_extinct(*args, **kwargs):
        run = run_filter(*args, **kwargs)
        calls.append(run)
        return dataclasses.replace(run, extinct_epoch=epoch) if len(calls) == 1 else run

    monkeypatch.setattr(module, "run_filter", first_extinct)
    return calls


def test_compensator_fails_naming_its_extinct_runs(monkeypatch):
    calls = dies_out_once(monkeypatch, checks, 4)
    result = checks.check_compensator(
        SIGNAL, OBS, CONFIG.horizon, CONFIG.seed, scale=0.1, n=200, replications=40
    )
    assert len(calls) == 40
    assert result.status == "FAIL"
    assert result.detail.endswith(", 40 runs, 1 extinct")


def test_oracle_agreement_fails_on_an_extinct_run(monkeypatch):
    dies_out_once(monkeypatch, experiments, 7)
    oracle = Oracle("grid", 256, 10.0)
    result = checks.check_oracle_agreement(
        SIGNAL, OBS, CONFIG.horizon, CONFIG.seed, oracle, scale=0.1
    )
    assert result.status == "FAIL"
    assert result.detail == "particle system extinct at observation epoch 7 (n 500, replication 0)"


def test_mass_moments_fail_on_their_hypothesis_before_any_run(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a filter ran")

    monkeypatch.setattr(checks, "run_filter", never)
    assert OBS.epsilon == 0.1  # sqrt(0.1) * 3 = 0.95 < 1
    result = checks.check_mass_moments(SIGNAL, OBS, CONFIG.horizon, CONFIG.seed, ns=(3, 6, 12))
    assert result.status == "FAIL"
    assert result.detail == "hypothesis sqrt(eps)*n >= 1.0 violated for n=3"
