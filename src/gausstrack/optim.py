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
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalAbort, ValidationError
from . import gauss
from .gauss import DensifyConfig, GaussianSet, densify_and_prune
from . import motion as motion_mod
from .motion import DeformNet, init_control_nodes, knn_indices, motion_forward, node_transforms
from .volgrid import _check_kinds, _from_dict, _read_json, _write_json


def l1_loss(rendered, target):
    """Summed absolute error of two arrays and its gradient (sign, 0 at ties)."""
    if rendered.shape != target.shape:
        raise ValidationError(f"geometry mismatch: {rendered.shape} vs {target.shape}")
    diff = rendered - target
    return float(np.abs(diff).sum()), np.sign(diff)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Kingma & Ba's decay rates; Gaussian splatting's epsilon, far below their 1e-8
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-15


class AdamState:
    """Bias-corrected Adam for one parameter group.

    Moments are kept per named array; the step counter is shared across the
    group's arrays and advances once per optimizer iteration.
    """

    def __init__(self):
        self.t, self.m, self.v = 0, {}, {}

    def step(self, lr, updates):
        """``updates`` maps names to (param, grad); params update in place."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for key, (param, grad) in updates.items():
            if not np.all(np.isfinite(grad)):
                raise NumericalAbort(f"non-finite gradient for '{key}'")
            m = self.m.get(key)
            if m is None:
                m = self.m[key] = np.zeros_like(param)
                self.v[key] = np.zeros_like(param)
            v = self.v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            param -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def remap(self, kept, n_new):
        """After densification, for every array of the group: survivors keep
        their moments, children start from zero."""
        for store in (self.m, self.v):
            for key, old in store.items():
                fresh = np.zeros((kept.size + n_new,) + old.shape[1:])
                fresh[:kept.size] = old[kept]
                store[key] = fresh


# ---------------------------------------------------------------------------
# Schedule and learning rates
# ---------------------------------------------------------------------------

@dataclass
class FitSchedule:
    """Iteration plan; defaults match the full-scale recipe."""

    total_iters: int = 20000
    canonical_only_until: int = 1000
    node_unfreeze_at: int = 5000
    densify_interval: int = 500
    densify_start: int = 500

    def __post_init__(self):
        _check_kinds(self)
        if not (0 < self.canonical_only_until < self.node_unfreeze_at < self.total_iters):
            raise ValidationError(
                "schedule must satisfy 0 < canonical_only_until < node_unfreeze_at"
                " < total_iters")
        if self.densify_interval < 1 or self.densify_start < 1:
            raise ValidationError("densify interval/start must be >= 1")


# initial learning rates of the five groups (the full-scale recipe)
DEFAULT_LEARNING_RATES = {
    "positions": 1e-4,
    "intensity": 5e-3,
    "rotscale": 1e-4,
    "nodes": 1e-4,
    "network": 1e-6,
}
# the groups whose rate decays geometrically; the others stay constant
DECAYING = ("positions", "nodes")
# the rate every decaying group reaches at the last iteration
LR_DECAY_END = 1e-7


def learning_rates(overrides=None):
    """Initial rate of each of the five groups: the full-scale recipe with
    ``overrides`` (the run config's per-group values) merged in."""
    lrs = dict(DEFAULT_LEARNING_RATES)
    if overrides:
        unknown = set(overrides) - set(lrs)
        if unknown:
            raise ValidationError(f"unknown learning-rate groups: {sorted(unknown)}")
        lrs.update(overrides)
    for name, lr in lrs.items():
        # a decaying rate is a geometric curve through lr, so it must be > 0
        decays = name in DECAYING
        if not ((lr > 0 if decays else lr >= 0) and math.isfinite(lr)):
            raise ValidationError(f"learning rate of '{name}' must be finite and "
                                  f"{'> 0' if decays else '>= 0'}, got {lr}")
    return lrs


def lr_at(iteration, name, lr_init, schedule):
    """Learning rate of group ``name`` at an iteration: geometric decay from
    ``lr_init`` to LR_DECAY_END at the schedule's end for the DECAYING
    groups, constant otherwise."""
    if not 0 <= iteration <= schedule.total_iters:
        raise ValidationError("iteration outside the schedule")
    if name not in DECAYING:
        return lr_init
    return lr_init * (LR_DECAY_END / lr_init) ** (iteration / schedule.total_iters)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass
class NetworkConfig:
    l_space: int = 10
    l_time: int = 6
    hidden_width: int = 128
    hidden_depth: int = 6

    def __post_init__(self):
        _check_kinds(self)
        for name, value in asdict(self).items():
            if value < 1:
                raise ValidationError(f"{name} must be >= 1, got {value}")


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
    cutoff_multiplier: float = gauss.CUTOFF_MULTIPLIER
    occupancy_floor: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_kinds(self)
        learning_rates(self.learning_rates)
        if not 1 <= self.k_neighbors <= self.node_budget <= self.n_init:
            raise ValidationError(
                "k_neighbors, node_budget and n_init must be ordered 1 <= k_neighbors <="
                f" node_budget <= n_init, got {self.k_neighbors}, {self.node_budget}"
                f" and {self.n_init}")
        if not self.cutoff_multiplier > 0:
            raise ValidationError(f"cutoff_multiplier must be > 0, got {self.cutoff_multiplier}")
        if not 0 < self.occupancy_floor < 1:
            raise ValidationError(f"occupancy_floor must be in (0, 1), got {self.occupancy_floor}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Build from parsed JSON; unknown keys, values of the wrong kind or
        out of range and unknown learning-rate groups raise ValidationError."""
        return _from_dict(cls, data, "config")

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
    """What the fit did: loss trace, schedule events, final Gaussian count
    and wall clock.  The settings it ran with are the run's config."""

    losses: list
    events: list
    final_gaussians: int
    wall_clock_s: float

    def to_json(self):
        return json.dumps(asdict(self), indent=1)


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
    through rendering and then motion; stage 1 takes the same render, L1
    and render-adjoint step on the canonical set itself.  Node
    positions/radii unfreeze at ``node_unfreeze_at``; densification runs on its cadence with optimizer
    state remapped across set changes.  The L1 target is each frame's array
    as the sequence holds it (float32 when read from disk): the float64
    render minus it upcasts exactly, so no float64 copy of the sequence is
    made.  ``inspect_hook(iteration, state)`` is called at the top of
    selected iterations for tests and tracing; it must not mutate the state.
    """
    sched = config.schedule
    if mask.dims != sequence.dims:
        raise ValidationError(
            f"mask dims {mask.dims} do not match sequence dims {sequence.dims}")
    if abs(float(sequence.times[sequence.ed_index])) > 1e-12:
        raise ValidationError("canonical fitting expects time 0 at the ED frame")
    dims = sequence.dims
    n_voxels = float(np.prod(dims))
    frames = [f.values for f in sequence.frames]
    times = np.asarray(sequence.times, dtype=np.float64)

    g = gauss.initialize_from_mask(mask, sequence.frames[sequence.ed_index],
                                   config.n_init, config.seed)
    nodes = init_control_nodes(g.centers, config.node_budget, config.seed + 1)
    net = DeformNet.create(**asdict(config.network), seed=config.seed + 2)
    knn = knn_indices(g.centers, nodes.positions, config.k_neighbors)

    lrs = learning_rates(config.learning_rates)
    opts = {name: AdamState() for name in lrs}
    accum = np.zeros(g.count)
    accum_n = 0
    losses = []
    events = [[0, "init", f"gaussians={g.count} nodes={nodes.count}"]]
    started = time.perf_counter()
    # the render cache's buffers, kept from render to render so that malloc
    # neither hands them back nor re-faults them
    workspace = gauss.RenderWorkspace()

    for it in range(sched.total_iters):
        if inspect_hook is not None:
            inspect_hook(it, {"gaussians": g, "nodes": nodes, "net": net, "knn": knn})
        try:
            stage2 = it >= sched.canonical_only_until
            if it == sched.canonical_only_until:
                events.append([it, "stage2_start", "joint optimization begins"])
            if stage2:
                fi = (it - sched.canonical_only_until) % len(frames)
                t6, acts = node_transforms(net, nodes.positions, times[fi])
                deformed, cache = motion_forward(g, nodes, t6, knn)
            else:
                fi, deformed = sequence.ed_index, g
            rendered, rcache = gauss.render_with_cache(deformed, dims, config.cutoff_multiplier,
                                                       workspace)
            loss, lgrad = l1_loss(rendered, frames[fi])
            canonical = rg = gauss.render_backward(deformed, dims, lgrad, rcache)
            # dropped once read, so one cache is alive and the next render
            # writes into the workspace's buffers
            del rendered, lgrad, rcache
            if stage2:
                mg = motion_mod.motion_backward(cache, nodes, rg)
                g_w, g_b = motion_mod.node_transforms_backward(net, acts, mg.node_transforms)
                canonical = mg.canonical
            if not np.isfinite(loss):
                raise NumericalAbort("non-finite loss")
            losses.append(loss)
            # densification accumulator: per-voxel-mean loss scale, so the
            # grad_threshold default is grid-size independent
            accum += np.linalg.norm(canonical.centers, axis=1) / n_voxels
            accum_n += 1

            opts["positions"].step(lr_at(it, "positions", lrs["positions"], sched),
                                   {"centers": (g.centers, canonical.centers)})
            opts["intensity"].step(lr_at(it, "intensity", lrs["intensity"], sched),
                                   {"intensities": (g.intensities, canonical.intensities)})
            opts["rotscale"].step(lr_at(it, "rotscale", lrs["rotscale"], sched),
                                  {"rotations": (g.rotations, canonical.rotations),
                                   "log_scales": (g.log_scales, canonical.log_scales)})
            if stage2:
                net_updates = {}
                for li, (w, wg, b, bg) in enumerate(zip(net.weights, g_w, net.biases, g_b)):
                    net_updates.update({f"w{li}": (w, wg), f"b{li}": (b, bg)})
                opts["network"].step(lr_at(it, "network", lrs["network"], sched), net_updates)
                if it == sched.node_unfreeze_at:
                    events.append([it, "nodes_unfrozen", "control points now learnable"])
                    knn = knn_indices(g.centers, nodes.positions, config.k_neighbors)
                if it >= sched.node_unfreeze_at:
                    opts["nodes"].step(lr_at(it, "nodes", lrs["nodes"], sched),
                                       {"positions": (nodes.positions, mg.node_positions),
                                        "log_radii": (nodes.log_radii, mg.node_log_radii)})
        except NumericalAbort as e:
            raise NumericalAbort(f"{e} at iteration {it}", iteration=it) from None

        done = it + 1
        if done >= sched.densify_start and done % sched.densify_interval == 0 \
                and done < sched.total_iters:
            res = densify_and_prune(g, accum / max(accum_n, 1), config.densify)
            for name in ("positions", "intensity", "rotscale"):
                opts[name].remap(res.kept, res.n_children)
            before, g = g.count, res.gaussians
            knn = knn_indices(g.centers, nodes.positions, config.k_neighbors)
            accum = np.zeros(g.count)
            accum_n = 0
            events.append([done, "densify", f"gaussians {before} -> {g.count}"])

    report = FitReport(losses, events, g.count, time.perf_counter() - started)
    return FitResult(g, nodes, net, report)
