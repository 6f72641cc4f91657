"""The benchmark's workloads: a phantom, a fit schedule and the times at
which the fitted field is queried.

Every input is made from the workload's fixed settings plus the run seed,
so one seed always gives one set of inputs.  The seed picks the phantom's
texture (``texture_seed``), so no timing or score rests on one image.  The
fit's own seed (Gaussian, node and network initialisation) is part of the
workload and stays fixed: with it drawn from the run seed as well, the
quality scores spread 6-13 % from seed to seed on the same code, against
1-4 % with the texture alone (five seeds each, fit-densify-32).
"""

from __future__ import annotations

from dataclasses import dataclass


FIT_SEED = 0

# Densify thresholds no Gaussian reaches: on its cadence the fit still runs
# densify, the Adam remap and the KNN refresh, but the set keeps its size.
# The fixed-size workloads use it so densify's cost at zero growth is
# measured rather than absent.
NO_GROWTH = dict(grad_threshold=1e9, intensity_floor=0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    phantom: dict            # PhantomSpec fields, texture_seed excluded
    config: dict             # FitConfig fields, seed excluded
    # fits per round, the last one evaluated and queried; more than one
    # where a run has a single round, so fit_s is still a median
    fits_per_round: int = 1

    def phantom_spec(self, seed):
        return dict(self.phantom, texture_seed=int(seed))

    def fit_config(self):
        return dict(self.config, seed=FIT_SEED)


# The phantom keeps its physical size (96 mm across) at every grid size, so
# the anatomy and the motion are the same and only the sampling changes.
WORKLOADS = {w.name: w for w in (
    Workload(
        # render forward and backward dominate the fit
        name="fit-static-64",
        phantom=dict(dims=(64, 64, 64), spacing=(1.5, 1.5, 1.5), frames=8),
        config=dict(
            schedule=dict(total_iters=32, canonical_only_until=8,
                          node_unfreeze_at=20, densify_interval=8,
                          densify_start=8),
            densify=NO_GROWTH,
            learning_rates={"network": 1e-4},
            n_init=4096, node_budget=32, k_neighbors=4),
    ),
    Workload(
        # the only workload whose set grows: densify clones and splits, the
        # Adam remap carries moments across it, the renderer sees it grow
        # (demo 05's phantom)
        name="fit-densify-32",
        phantom=dict(dims=(32, 32, 32), spacing=(3.0, 3.0, 3.0), frames=5),
        config=dict(
            schedule=dict(total_iters=160, canonical_only_until=40,
                          node_unfreeze_at=100, densify_interval=20,
                          densify_start=20),
            network=dict(l_space=6, l_time=4, hidden_width=48, hidden_depth=3),
            densify=dict(grad_threshold=8e-4),
            learning_rates={"network": 1e-4},
            n_init=1024, node_budget=512, k_neighbors=4),
    ),
    Workload(
        # brute-force KNN over every voxel dominates evaluation and the
        # CLI queries; the fit is short and rendering is a small share
        name="query-48",
        phantom=dict(dims=(48, 48, 48), spacing=(2.0, 2.0, 2.0), frames=8),
        config=dict(
            schedule=dict(total_iters=16, canonical_only_until=4,
                          node_unfreeze_at=10, densify_interval=8,
                          densify_start=8),
            densify=NO_GROWTH,
            network=dict(l_space=6, l_time=4, hidden_width=64, hidden_depth=3),
            learning_rates={"network": 1e-4},
            n_init=2048, node_budget=2048, k_neighbors=4),
        fits_per_round=3,
    ),
)}
