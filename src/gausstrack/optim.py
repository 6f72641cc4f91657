"""End-to-end fitting: L1 objective, per-group Adam, the two-stage schedule
and densification cadence.

The optimization runs per instance against the instance's own frames.
Stage 1 fits only the canonical Gaussians to the reference (ED) frame;
stage 2 round-robins over all frames, deforming the canonical set through
the motion model before rendering.  Control-node parameters stay frozen
until their scheduled unfreeze iteration.  Five parameter groups carry
their own learning rates; the position-like groups follow a geometric
decay curve, the rest stay constant.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalAbort, ValidationError
from . import gauss
from .gauss import DensifyConfig, GaussianSet, densify_and_prune
from . import motion as motion_mod
from .motion import DeformNet, apply_motion, init_control_nodes, knn_indices
from .volgrid import _from_dict, _read_json, _write_json


def l1_loss(rendered, target):
    """Summed absolute error and its per-voxel gradient (sign, 0 at ties)."""
    r = rendered.values if hasattr(rendered, "values") else np.asarray(rendered)
    t = target.values if hasattr(target, "values") else np.asarray(target)
    if r.shape != t.shape:
        raise ValidationError(f"geometry mismatch: {r.shape} vs {t.shape}")
    diff = r - t
    return float(np.abs(diff).sum()), np.sign(diff)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class AdamState:
    """Bias-corrected Adam for one parameter group.

    Moments are kept per named array; the step counter is shared across the
    group's arrays and advances once per optimizer iteration.
    """

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-15):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, lr, updates):
        """``updates`` maps names to (param, grad); params update in place."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for key, (param, grad) in updates.items():
            if not np.all(np.isfinite(grad)):
                raise NumericalAbort(f"non-finite gradient for '{key}'")
            m = self.m.get(key)
            if m is None:
                m = self.m[key] = np.zeros_like(param)
                self.v[key] = np.zeros_like(param)
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            param -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def remap(self, key, kept, n_new):
        """After densification: survivors keep their moments, children start
        from zero."""
        if key not in self.m:
            return
        for store in (self.m, self.v):
            old = store[key]
            fresh = np.zeros((kept.size + n_new,) + old.shape[1:])
            fresh[:kept.size] = old[kept]
            store[key] = fresh


# ---------------------------------------------------------------------------
# Schedule and parameter groups
# ---------------------------------------------------------------------------

@dataclass
class FitSchedule:
    """Iteration plan; defaults match the full-scale recipe, `scaled` shrinks
    everything proportionally for desk-size runs."""

    total_iters: int = 20000
    canonical_only_until: int = 1000
    node_unfreeze_at: int = 5000
    densify_interval: int = 500
    densify_start: int = 500
    lr_decay_end: float = 1e-7

    def __post_init__(self):
        if not (0 < self.canonical_only_until < self.node_unfreeze_at < self.total_iters):
            raise ValidationError(
                "schedule must satisfy 0 < canonical_only_until < node_unfreeze_at"
                " < total_iters")
        if self.densify_interval < 1 or self.densify_start < 1:
            raise ValidationError("densify interval/start must be >= 1")

    @classmethod
    def scaled(cls, total_iters):
        f = total_iters / 20000
        return cls(
            total_iters=total_iters,
            canonical_only_until=max(1, round(1000 * f)),
            node_unfreeze_at=max(2, round(5000 * f)),
            densify_interval=max(1, round(500 * f)),
            densify_start=max(1, round(500 * f)),
        )


@dataclass(frozen=True)
class ParamGroup:
    name: str
    lr_init: float
    decays: bool = False
    frozen_until: int = 0


# initial learning rates of the five groups (the full-scale recipe)
DEFAULT_LEARNING_RATES = {
    "positions": 1e-4,
    "intensity": 5e-3,
    "rotscale": 1e-4,
    "nodes": 1e-4,
    "network": 1e-6,
}


def parameter_groups(schedule=None, learning_rates=None):
    """The five optimization groups with their initial rates, decay flags and
    freeze boundaries.  ``learning_rates`` may override individual groups
    (the run config carries them, defaulting to the full-scale recipe)."""
    unfreeze = schedule.node_unfreeze_at if schedule is not None else 5000
    lrs = dict(DEFAULT_LEARNING_RATES)
    if learning_rates:
        unknown = set(learning_rates) - set(lrs)
        if unknown:
            raise ValidationError(f"unknown learning-rate groups: {sorted(unknown)}")
        lrs.update(learning_rates)
    return {
        "positions": ParamGroup("positions", lrs["positions"], decays=True),
        "intensity": ParamGroup("intensity", lrs["intensity"]),
        "rotscale": ParamGroup("rotscale", lrs["rotscale"]),
        "nodes": ParamGroup("nodes", lrs["nodes"], decays=True,
                            frozen_until=unfreeze),
        "network": ParamGroup("network", lrs["network"]),
    }


def lr_at(iteration, group, schedule):
    """Learning rate at an iteration: geometric interpolation down to the
    schedule's end rate for decaying groups, constant otherwise."""
    if not 0 <= iteration <= schedule.total_iters:
        raise ValidationError("iteration outside the schedule")
    if not group.decays:
        return group.lr_init
    frac = iteration / schedule.total_iters
    return group.lr_init * (schedule.lr_decay_end / group.lr_init) ** frac


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass
class NetworkConfig:
    l_space: int = 10
    l_time: int = 6
    hidden_width: int = 128
    hidden_depth: int = 6


@dataclass
class FitConfig:
    """Everything a fit run needs; serializable to/from the run-config file.
    Defaults are the full-scale recipe values."""

    schedule: FitSchedule = field(default_factory=FitSchedule)
    densify: DensifyConfig = field(default_factory=DensifyConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    learning_rates: dict = field(default_factory=dict)  # overrides per group
    n_init: int = 4096
    node_budget: int = 2048
    k_neighbors: int = 4
    cutoff_multiplier: float = 3.0
    occupancy_floor: float = 0.5
    seed: int = 0

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Build from parsed JSON; unknown keys, values of the wrong type and
        unknown learning-rate groups raise ValidationError."""
        config = _from_dict(cls, data, "config")
        parameter_groups(config.schedule, config.learning_rates)
        return config

    @classmethod
    def load(cls, path):
        return cls.from_dict(_read_json(path, "config"))

    def save(self, path):
        _write_json(path, self.to_dict())


# ---------------------------------------------------------------------------
# Fit loop
# ---------------------------------------------------------------------------

@dataclass
class FitReport:
    """Run record: loss trace, schedule events, final sizes, provenance."""

    losses: list
    events: list
    final_gaussians: int
    final_nodes: int
    wall_clock_s: float
    seed: int
    config: dict

    def to_json(self):
        return json.dumps({
            "losses": self.losses,
            "events": self.events,
            "final_gaussians": self.final_gaussians,
            "final_nodes": self.final_nodes,
            "wall_clock_s": self.wall_clock_s,
            "seed": self.seed,
            "config": self.config,
        }, indent=1)

    def identity_digest(self):
        """Everything except wall clock, for determinism comparisons."""
        return json.dumps({
            "losses": self.losses,
            "events": self.events,
            "final_gaussians": self.final_gaussians,
            "final_nodes": self.final_nodes,
            "seed": self.seed,
            "config": self.config,
        })

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        d["events"] = [tuple(e) for e in d["events"]]
        return cls(**d)


@dataclass
class FitResult:
    gaussians: GaussianSet
    nodes: object
    net: DeformNet
    report: FitReport


def fit(sequence, mask, config, inspect_hook=None):
    """Fit Gaussians plus motion model to a 4D sequence.

    Stage 1 (iterations below ``canonical_only_until``) optimizes only the
    canonical Gaussians against the ED frame.  Stage 2 round-robins over
    frames, rendering the deformed set and backpropagating the L1 loss
    through motion and rendering.  Node positions/radii unfreeze at
    ``node_unfreeze_at``; densification runs on its cadence with optimizer
    state remapped across set changes.  ``inspect_hook(iteration, state)``
    is called at the top of selected iterations for tests and tracing;
    it must not mutate the state.
    """
    sched = config.schedule
    if mask.dims != sequence.dims:
        raise ValidationError("mask geometry differs from the sequence")
    if abs(float(sequence.times[sequence.ed_index])) > 1e-12:
        raise ValidationError("canonical fitting expects time 0 at the ED frame")
    if config.node_budget > config.n_init:
        raise ValidationError("node budget may not exceed the initial Gaussian count")
    dims = sequence.dims
    n_voxels = float(np.prod(dims))
    frames = [np.asarray(f.values, dtype=np.float64) for f in sequence.frames]
    times = np.asarray(sequence.times, dtype=np.float64)
    ed = frames[sequence.ed_index]

    g = gauss.initialize_from_mask(mask, sequence.frames[sequence.ed_index],
                                   config.n_init, config.seed)
    nodes = init_control_nodes(g.centers, config.node_budget, config.seed + 1)
    net = DeformNet.create(config.network.l_space, config.network.l_time,
                           config.network.hidden_width, config.network.hidden_depth,
                           seed=config.seed + 2)
    knn = knn_indices(g.centers, nodes.positions, config.k_neighbors)

    groups = parameter_groups(sched, config.learning_rates)
    opts = {name: AdamState() for name in groups}
    accum = np.zeros(g.count)
    accum_n = 0
    losses = []
    events = [[0, "init", f"gaussians={g.count} nodes={nodes.count}"]]
    started = time.perf_counter()

    for it in range(sched.total_iters):
        if inspect_hook is not None:
            inspect_hook(it, {"gaussians": g, "nodes": nodes, "net": net, "knn": knn})
        stage1 = it < sched.canonical_only_until
        if stage1:
            rendered, rcache = gauss.render_with_cache(g, dims, config.cutoff_multiplier)
            loss, lgrad = l1_loss(rendered, ed)
            rg = gauss.render_backward(g, dims, lgrad, config.cutoff_multiplier,
                                       cache=rcache)
            canonical, mg = rg, None
        else:
            if it == sched.canonical_only_until:
                events.append([it, "stage2_start", "joint optimization begins"])
            fi = (it - sched.canonical_only_until) % len(frames)
            deformed, cache = apply_motion(g, nodes, net, times[fi], knn)
            rendered, rcache = gauss.render_with_cache(
                deformed, dims, config.cutoff_multiplier)
            loss, lgrad = l1_loss(rendered, frames[fi])
            rg = gauss.render_backward(deformed, dims, lgrad,
                                       config.cutoff_multiplier, cache=rcache)
            mg = motion_mod.motion_backward(cache, g, nodes, net, rg)
            canonical = mg.canonical
        if not np.isfinite(loss):
            raise NumericalAbort(f"non-finite loss at iteration {it}", iteration=it)
        losses.append(loss)
        # densification accumulator: per-voxel-mean loss scale, so the
        # grad_threshold default is grid-size independent
        accum += np.linalg.norm(canonical.centers, axis=1) / n_voxels
        accum_n += 1

        try:
            opts["positions"].step(lr_at(it, groups["positions"], sched),
                                   {"centers": (g.centers, canonical.centers)})
            opts["intensity"].step(lr_at(it, groups["intensity"], sched),
                                   {"intensities": (g.intensities, canonical.intensities)})
            opts["rotscale"].step(lr_at(it, groups["rotscale"], sched),
                                  {"rotations": (g.rotations, canonical.rotations),
                                   "log_scales": (g.log_scales, canonical.log_scales)})
            if mg is not None:
                net_updates = {}
                for li, (wg, bg) in enumerate(zip(mg.weight_grads, mg.bias_grads)):
                    net_updates[f"w{li}"] = (net.weights[li], wg)
                    net_updates[f"b{li}"] = (net.biases[li], bg)
                opts["network"].step(lr_at(it, groups["network"], sched), net_updates)
                if it == groups["nodes"].frozen_until:
                    events.append([it, "nodes_unfrozen", "control points now learnable"])
                    knn = knn_indices(g.centers, nodes.positions, config.k_neighbors)
                if it >= groups["nodes"].frozen_until:
                    opts["nodes"].step(lr_at(it, groups["nodes"], sched),
                                       {"positions": (nodes.positions, mg.node_positions),
                                        "log_radii": (nodes.log_radii, mg.node_log_radii)})
        except NumericalAbort as e:
            raise NumericalAbort(f"{e} at iteration {it}", iteration=it) from None

        done = it + 1
        if done >= sched.densify_start and done % sched.densify_interval == 0 \
                and done < sched.total_iters:
            res = densify_and_prune(g, accum / max(accum_n, 1), config.densify)
            for name in ("positions", "intensity", "rotscale"):
                for key in list(opts[name].m):
                    opts[name].remap(key, res.kept, res.n_children)
            before, g = g.count, res.gaussians
            knn = knn_indices(g.centers, nodes.positions, config.k_neighbors)
            accum = np.zeros(g.count)
            accum_n = 0
            events.append([done, "densify", f"gaussians {before} -> {g.count}"])

    report = FitReport(
        losses=losses,
        events=[list(e) for e in events],
        final_gaussians=g.count,
        final_nodes=nodes.count,
        wall_clock_s=time.perf_counter() - started,
        seed=config.seed,
        config=config.to_dict(),
    )
    return FitResult(g, nodes, net, report)
