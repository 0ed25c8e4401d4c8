"""One branching filter run against the grid reference filter.

A hidden Gaussian-case stable signal is observed through a Gaussian bump
sensor every epsilon seconds.  Particles evolve as independent signal copies
between observations; at an observation each particle branches or dies with
probability tied to its own likelihood ratio, so only a small fraction of
the population is touched.  The grid filter evolves the exact unnormalized
filter density alongside, via predict (dual-grid multiplication) and update
(pointwise Bayes factor) steps.

Note the bump sensor is even in x, so the conditional law stays symmetric
and its mean hovers near zero no matter where the truth went; the sensor
reading h(X) is what the observations actually inform, so that is the
column to watch.
"""

import numpy as np

from levyfilter import (
    GaussianBumpSensor,
    InitialLaw,
    ObservationModel,
    SignalModel,
    SpectralMeasure,
    build_grid,
    predict_step,
    run_filter,
    simulate_scenario,
    update_step,
)

rng = np.random.default_rng(411)
signal = SignalModel(
    2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.gaussian([0.0], [1.0])
)
sensor = GaussianBumpSensor([1.0], [[0.0]], [1.0])
obs = ObservationModel(sensor, 0.1)

scenario = simulate_scenario(signal, obs, horizon=2.0, rng=rng)  # the truth and its record
# a run keeps each epoch's sizes, not its particles: read them through a reducer
particle_hs = []
run = run_filter(
    scenario, n=4000, rng=rng,
    reduce=lambda k, pre, rho, parents, post: particle_hs.append(
        sensor(post.positions)[:, 0].mean()
    ),
)

grid = build_grid(signal, obs.epsilon, domain_halfwidth=10.0, points_per_axis=512)
grid_h_values = sensor(grid.points)[:, 0]

print(f"{'epoch':>5} {'h(truth)':>9} {'<h> particle':>13} {'<h> grid':>9} "
      f"{'count':>6} {'mass':>7} {'touched':>8}")
worst_boundary = 0.0  # predict_step does not warn; a direct caller reads its diagnostics
for step, particle_h in zip(run.steps, particle_hs):
    grid = predict_step(grid)
    worst_boundary = max(worst_boundary, grid.boundary_mass_fraction())
    grid = update_step(grid, scenario.increments[step.epoch - 1], obs)
    weights = grid.density.reshape(-1)
    grid_h = float(weights @ grid_h_values / weights.sum())
    true_h = sensor(scenario.truth[step.epoch])[0, 0]
    print(
        f"{step.epoch:>5} {true_h:>9.3f} {particle_h:>13.3f} {grid_h:>9.3f} "
        f"{step.post.count:>6} {step.post.total_mass:>7.3f} "
        f"{step.branch_events:>8}"
    )

fractions = [s.branch_events / s.pre.count for s in run.steps]
print(f"\ngrid total mass {grid.total_mass:.3f} vs particle mass "
      f"{run.final.total_mass:.3f} (unnormalized filters agree in law)")
print(f"grid trust: clamped mass {grid.clamped_mass:.1e} in all, boundary cells "
      f"at most {worst_boundary:.1e} of the mass (run_reference warns above 1e-04)")
print(f"mean touched fraction {np.mean(fractions):.3f}; it scales like "
      "sqrt(eps) as epsilon shrinks (see demo 04)")
