"""End to end at toy scale: generate a phantom, fit the representation to
it, and score the tracking.  Takes about 11 s on one core of a shared
2-CPU machine; the benchmark's fit-densify-32 workload runs a shorter fit
of the same phantom.  It fails if the mean final loss is not below the
first loss or densification did not grow the set.

Run:  python3 demos/05_fit_and_evaluate.py
"""

import numpy as np

from gausstrack.gauss import DensifyConfig
from gausstrack.metrics import evaluate_run
from gausstrack.optim import FitConfig, FitSchedule, NetworkConfig, fit
from gausstrack.phantom import PhantomSpec, generate_phantom, warp_labels_analytic

spec = PhantomSpec(dims=(32, 32, 32), spacing=(3.0, 3.0, 3.0), frames=5,
                   texture_seed=1)
seq, ed_labels, field = generate_phantom(spec)

config = FitConfig(
    schedule=FitSchedule(total_iters=800, canonical_only_until=80,
                         node_unfreeze_at=250, densify_interval=50,
                         densify_start=50),
    network=NetworkConfig(l_space=6, l_time=4, hidden_width=48, hidden_depth=3),
    densify=DensifyConfig(grad_threshold=8e-4),
    # desk-scale runs compress the recipe ~25x, so the slowest group gets a
    # proportionally larger step (see README on learning-rate scaling)
    learning_rates={"network": 1e-4},
    n_init=1024, node_budget=512, k_neighbors=4, seed=0,
)

result = fit(seq, ed_labels, config)
losses = result.report.losses
print(f"loss: {losses[0]:.0f} -> {np.mean(losses[-25:]):.0f} "
      f"({result.report.wall_clock_s:.0f}s, {result.report.final_gaussians} Gaussians)")
# the fit learns and densification grows the set
assert np.mean(losses[-25:]) < losses[0], "the mean final loss is not below the first"
assert result.report.final_gaussians > config.n_init, "densification did not grow the set"
for it, name, detail in result.report.events[:3]:
    print(f"  event @{it}: {name} ({detail})")

truth_es = warp_labels_analytic(ed_labels, seq.times[seq.es_index], spec)
# the render cutoff and the label floor are constants (gauss.CUTOFF_MULTIPLIER,
# metrics.OCCUPANCY_FLOOR); the run config gives the neighbour count
report = evaluate_run(result.gaussians, result.nodes, result.net, seq, truth_es,
                      config.k_neighbors)
print("dice avg:", round(report.dice_avg, 3),
      " (rv", round(report.dice_rv, 3), "myo", round(report.dice_myo, 3),
      "lv", round(report.dice_lv, 3), ")")
print("psnr:", round(report.psnr_db, 1), "dB   ssim:", round(report.ssim, 3))
print("folds:", report.fold_fraction, "  mean |det-1|:", round(report.jac_dev, 4))
