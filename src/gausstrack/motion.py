"""Implicit motion representation: control nodes, the time-conditioned
deformation network, and linear blend skinning.

Sparse control nodes carry per-time transforms (translation + positive
per-axis scale factor) predicted by a small MLP from sinusoidally encoded
node positions and time.  Dense motion at any point is the convex
combination of its k nearest nodes' transforms, weighted by normalized
RBF kernels ``exp(-d^2 / (2 o_j^2))``.

Two gradient rules from the model definition are honored throughout:

* stop-gradient — node positions enter the network input as constants;
  position gradients flow only through the blend-weight distances;
* frozen neighborhoods — KNN index sets are piecewise constant (refreshed
  between optimization phases, never differentiated through).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbort, ValidationError
from .gauss import GaussianSet, RenderGradients
from .volgrid import _read_container, _write_container

_KNN_CHUNK = 4096


@dataclass
class ControlNodeSet:
    """Learnable sparse motion carriers: positions in the normalized cube
    and log RBF radii."""

    positions: np.ndarray
    log_radii: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.log_radii = np.asarray(self.log_radii, dtype=np.float64)
        m = self.positions.shape[0]
        if m < 1:
            raise ValidationError("need at least one control node")
        if self.positions.shape != (m, 3) or self.log_radii.shape != (m,):
            raise ValidationError("inconsistent ControlNodeSet shapes")

    @property
    def count(self):
        return self.positions.shape[0]

    def copy(self):
        return ControlNodeSet(self.positions.copy(), self.log_radii.copy())


@dataclass
class NodeTransforms:
    """Per-node transform for one time value: translation and positive
    per-axis scale factor."""

    translations: np.ndarray  # (M, 3)
    scales: np.ndarray        # (M, 3), componentwise > 0


def positional_encoding(p, n_freqs):
    """Sinusoidal lift: per input component, (sin(2^k pi p), cos(2^k pi p))
    for k = 0..n_freqs-1, so the output has 2*n_freqs values per component."""
    if n_freqs < 1:
        raise ValidationError("encoding needs at least one frequency")
    p = np.asarray(p, dtype=np.float64)
    comps = np.atleast_1d(p)[..., None]  # (..., C, 1)
    freqs = (2.0 ** np.arange(n_freqs)) * np.pi
    angles = comps * freqs  # (..., C, L)
    enc = np.stack([np.sin(angles), np.cos(angles)], axis=-1)  # (..., C, L, 2)
    return enc.reshape(*enc.shape[:-3], -1)


class DeformNet:
    """Plain-numpy MLP ``(encoded position, encoded time) -> (d_xyz, raw scale)``.

    ReLU hidden layers; the linear output head is zero-initialized so the
    deformation starts as the exact identity (translation 0, scale factor 1).
    """

    def __init__(self, weights, biases, l_space, l_time):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.l_space = int(l_space)
        self.l_time = int(l_time)
        if len(self.weights) != len(self.biases) or len(self.weights) < 2:
            raise ValidationError("network needs at least one hidden layer plus head")
        if self.weights[0].shape[0] != self.input_width:
            raise ValidationError(
                f"first layer expects {self.weights[0].shape[0]} inputs, "
                f"encoding produces {self.input_width}")
        if self.weights[-1].shape[1] != 6:
            raise ValidationError("output head must have 6 channels (3 + 3)")

    @property
    def input_width(self):
        return 6 * self.l_space + 2 * self.l_time

    @property
    def num_parameters(self):
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    @classmethod
    def create(cls, l_space=10, l_time=6, hidden_width=128, hidden_depth=6, seed=0):
        rng = np.random.default_rng(seed)
        in_w = 6 * l_space + 2 * l_time
        sizes = [in_w] + [hidden_width] * hidden_depth + [6]
        weights, biases = [], []
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            if i == len(sizes) - 2:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out))
            weights.append(w)
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, l_space, l_time)

    def copy(self):
        return DeformNet([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases],
                         self.l_space, self.l_time)


def encode_inputs(net, positions, t):
    """Concatenated network input features for node positions at time ``t``.

    This is the stop-gradient boundary: the features are treated as
    constants by every backward pass.
    """
    pos_enc = positional_encoding(positions, net.l_space).reshape(positions.shape[0], -1)
    t_enc = positional_encoding(np.float64(t), net.l_time)
    t_tile = np.broadcast_to(t_enc, (positions.shape[0], t_enc.size))
    return np.concatenate([pos_enc, t_tile], axis=1)


def _mlp_forward(net, feats):
    acts = [feats]
    h = feats
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    out = h @ net.weights[-1] + net.biases[-1]
    return out, acts


def _mlp_backward(net, acts, g_out):
    """Gradients of all weights/biases from d(loss)/d(output).  Input
    gradients are intentionally not produced (stop-gradient)."""
    g_w = [None] * len(net.weights)
    g_b = [None] * len(net.biases)
    g = g_out
    g_w[-1] = acts[-1].T @ g
    g_b[-1] = g.sum(axis=0)
    g = g @ net.weights[-1].T
    for i in range(len(net.weights) - 2, -1, -1):
        g = g * (acts[i + 1] > 0)
        g_w[i] = acts[i].T @ g
        g_b[i] = g.sum(axis=0)
        if i > 0:
            g = g @ net.weights[i].T
    return g_w, g_b


def transforms_from_features(net, feats):
    """NodeTransforms from precomputed input features (plus forward cache)."""
    raw, acts = _mlp_forward(net, feats)
    return NodeTransforms(raw[:, :3].copy(), np.exp(raw[:, 3:])), (raw, acts)


def forward_deform(net, nodes, t):
    """Per-node transform at time ``t``: translation = first 3 channels,
    scale = exp(last 3).  Node positions are encoded as constants."""
    feats = encode_inputs(net, nodes.positions, t)
    transforms, _ = transforms_from_features(net, feats)
    return transforms


# ---------------------------------------------------------------------------
# KNN and blending
# ---------------------------------------------------------------------------

def knn_indices(queries, node_positions, k):
    """Exact k nearest nodes per query, ties broken by lower node index.

    Brute force over chunks; an argpartition fast path falls back to a
    stable full sort whenever ties straddle the selection boundary.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    pos = np.asarray(node_positions, dtype=np.float64)
    m = pos.shape[0]
    if not 1 <= k <= m:
        raise ValidationError(f"k={k} outside [1, {m}]")
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for start in range(0, queries.shape[0], _KNN_CHUNK):
        q = queries[start:start + _KNN_CHUNK]
        d2 = ((q[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        if k == m:
            sel = np.argsort(d2, axis=1, kind="stable")
        else:
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
            pv = np.take_along_axis(d2, part, axis=1)
            ambiguous = (d2 <= pv.max(axis=1)[:, None]).sum(axis=1) != k
            # order the unambiguous candidate sets by (distance, index)
            by_idx = np.argsort(part, axis=1)
            part = np.take_along_axis(part, by_idx, axis=1)
            pv = np.take_along_axis(pv, by_idx, axis=1)
            by_val = np.argsort(pv, axis=1, kind="stable")
            sel = np.take_along_axis(part, by_val, axis=1)
            if np.any(ambiguous):
                sel[ambiguous] = np.argsort(
                    d2[ambiguous], axis=1, kind="stable")[:, :k]
        out[start:start + q.shape[0]] = sel[:, :k]
    return out


def _raw_blend_weights(queries, node_positions, log_radii, idx):
    diff = queries[:, None, :] - node_positions[idx]          # (Q, k, 3)
    d2 = np.einsum("qki,qki->qk", diff, diff)
    o = np.exp(log_radii[idx])
    what = np.exp(-d2 / (2.0 * o * o))
    ssum = what.sum(axis=1)
    fallback = ssum == 0.0
    weights = np.empty_like(what)
    safe = ~fallback
    weights[safe] = what[safe] / ssum[safe, None]
    weights[fallback] = 1.0 / idx.shape[1]
    return weights, diff, d2, o, what, ssum, fallback


def blend_weights(queries, node_positions, log_radii, idx):
    """Normalized RBF weights of each query's neighbor nodes.

    If every kernel underflows to zero the row degenerates to uniform 1/k.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    idx = np.atleast_2d(np.asarray(idx))
    weights, *_ = _raw_blend_weights(
        queries, np.asarray(node_positions, dtype=np.float64),
        np.asarray(log_radii, dtype=np.float64), idx)
    return weights


def blend_transforms(weights, idx, transforms):
    """Convex combination of neighbor transforms, channelwise over the
    concatenated (translation | scale) 6-vector."""
    t6 = np.concatenate([transforms.translations, transforms.scales], axis=1)
    mixed = np.einsum("qk,qkc->qc", weights, t6[idx])
    return mixed[:, :3], mixed[:, 3:]


def deform_gaussians(gaussians, delta, alpha):
    """Apply blended per-Gaussian transforms: centers shift, scales multiply
    (stored back as logs); rotations and intensities are untouched."""
    delta = np.asarray(delta, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if delta.shape != (gaussians.count, 3) or alpha.shape != (gaussians.count, 3):
        raise ValidationError("blended transforms misaligned with Gaussian order")
    if not np.all(alpha > 0):
        raise NumericalAbort("blended scale factors must stay positive and finite")
    return GaussianSet(
        gaussians.centers + delta,
        gaussians.rotations.copy(),
        gaussians.log_scales + np.log(alpha),
        gaussians.intensities.copy(),
        None if gaussians.labels is None else gaussians.labels.copy(),
    )


def dense_displacement(queries, nodes, net, t, k):
    """Blended translation at arbitrary query points (each using its own
    KNN set); defines the dense motion field phi(X, t) = X + u(X, t)."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    idx = knn_indices(queries, nodes.positions, k)
    transforms = forward_deform(net, nodes, t)
    weights = blend_weights(queries, nodes.positions, nodes.log_radii, idx)
    delta, _ = blend_transforms(weights, idx, transforms)
    return delta


# ---------------------------------------------------------------------------
# Fused forward/backward used by the fitting loop
# ---------------------------------------------------------------------------

@dataclass
class MotionCache:
    """Intermediates of apply_motion needed by motion_backward."""

    feats: np.ndarray
    raw: np.ndarray
    acts: list
    transforms: NodeTransforms
    idx: np.ndarray
    diff: np.ndarray
    d2: np.ndarray
    o: np.ndarray
    what: np.ndarray
    ssum: np.ndarray
    fallback: np.ndarray
    weights: np.ndarray
    alpha_blend: np.ndarray


@dataclass
class MotionGradients:
    weight_grads: list
    bias_grads: list
    node_positions: np.ndarray
    node_log_radii: np.ndarray
    canonical: RenderGradients


def apply_motion(gaussians, nodes, net, t, idx):
    """Deform the whole GaussianSet at time ``t`` using the given (frozen)
    KNN table.  Returns the deformed set plus the cache for the backward
    pass; shares its blending code with dense_displacement."""
    feats = encode_inputs(net, nodes.positions, t)
    transforms, (raw, acts) = transforms_from_features(net, feats)
    weights, diff, d2, o, what, ssum, fallback = _raw_blend_weights(
        gaussians.centers, nodes.positions, nodes.log_radii, idx)
    delta, alpha = blend_transforms(weights, idx, transforms)
    deformed = deform_gaussians(gaussians, delta, alpha)
    cache = MotionCache(feats, raw, acts, transforms, idx, diff, d2, o,
                        what, ssum, fallback, weights, alpha)
    return deformed, cache


def motion_backward(cache, gaussians, nodes, net, render_grads):
    """Chain rule from gradients on the deformed Gaussians back to the
    network parameters, node positions/radii and canonical parameters.

    Node positions receive gradients only through the blend-weight
    distances (the encoding input is stop-gradient); neighbor sets are
    fixed.  Underflow-fallback rows have constant weights and therefore
    contribute no weight gradient.
    """
    idx, weights = cache.idx, cache.weights
    k = idx.shape[1]
    m = nodes.count
    # scale path: ls' = ls + log(alpha_blend)
    g_alpha_blend = render_grads.log_scales / cache.alpha_blend
    g_b6 = np.concatenate([render_grads.centers, g_alpha_blend], axis=1)  # (N, 6)
    t6 = np.concatenate([cache.transforms.translations,
                         cache.transforms.scales], axis=1)                # (M, 6)
    # node transforms accumulate w_ij * gB_i
    g_t6 = np.zeros((m, 6))
    np.add.at(g_t6, idx, weights[:, :, None] * g_b6[:, None, :])
    # blend-weight path
    g_w = np.einsum("qc,qkc->qk", g_b6, t6[idx])
    live = ~cache.fallback
    g_what = np.zeros_like(g_w)
    g_what[live] = (g_w[live] - np.einsum("qk,qk->q", g_w[live], weights[live])[:, None]
                    ) / cache.ssum[live, None]
    g_what *= cache.what  # d exp(u)/du folded in: d(what)/d(-d2/(2 o^2)) = what
    g_d2 = -g_what / (2.0 * cache.o ** 2)
    g_diff = 2.0 * g_d2[:, :, None] * cache.diff
    g_centers_w = g_diff.sum(axis=1)
    g_node_pos = np.zeros((m, 3))
    np.add.at(g_node_pos, idx, -g_diff)
    g_o = g_what * cache.d2 / cache.o ** 3
    g_log_radii = np.zeros(m)
    np.add.at(g_log_radii, idx, g_o * cache.o)
    # through alpha = exp(raw[:, 3:]) into the network
    g_raw = np.empty((m, 6))
    g_raw[:, :3] = g_t6[:, :3]
    g_raw[:, 3:] = g_t6[:, 3:] * cache.transforms.scales
    g_weights, g_biases = _mlp_backward(net, cache.acts, g_raw)
    canonical = RenderGradients(
        centers=render_grads.centers + g_centers_w,
        rotations=render_grads.rotations.copy(),
        log_scales=render_grads.log_scales.copy(),
        intensities=render_grads.intensities.copy(),
    )
    return MotionGradients(g_weights, g_biases, g_node_pos, g_log_radii, canonical)


# ---------------------------------------------------------------------------
# Node initialization and serialization
# ---------------------------------------------------------------------------

def init_control_nodes(gaussian_centers, budget, seed):
    """Subsample Gaussian positions into the node budget (uniform, seeded)
    and set radii to twice the mean nearest-node spacing so that supports
    overlap from the start."""
    centers = np.asarray(gaussian_centers, dtype=np.float64)
    n = centers.shape[0]
    if budget > n:
        raise ValidationError(
            f"node budget {budget} exceeds the {n} available Gaussians")
    rng = np.random.default_rng(seed)
    pick = rng.choice(n, size=budget, replace=False)
    positions = centers[np.sort(pick)].copy()
    if budget == 1:
        spacing = 0.05
    else:
        nn = knn_indices(positions, positions, k=2)[:, 1]
        spacing = float(np.mean(np.linalg.norm(positions - positions[nn], axis=1)))
        spacing = max(spacing, 1e-6)
    log_radii = np.full(budget, np.log(2.0 * spacing))
    return ControlNodeSet(positions, log_radii)


def save_nodes(nodes, path):
    """Same container as GaussianSet: json manifest + f32le payload."""
    manifest = {"count": int(nodes.count), "fields": ["positions", "log_radii"],
                "dtype": "f32le"}
    _write_container(path, ".njson", manifest,
                     [nodes.positions.astype("<f4"), nodes.log_radii.astype("<f4")])


def _parse_nodes(manifest, payload):
    n = manifest["count"]
    return ControlNodeSet(payload.take("<f4", (n, 3)), payload.take("<f4", (n,)))


def load_nodes(path):
    required = {"count": "int", "fields": [["positions", "log_radii"]], "dtype": ["f32le"]}
    return _read_container(path, ".njson", required, _parse_nodes)


def save_network(net, path):
    """Checkpoint: manifest with the architecture/encoding config plus a raw
    f32le payload, layer-ordered, each layer as row-major weights then bias."""
    manifest = {
        "l_space": net.l_space,
        "l_time": net.l_time,
        "layer_sizes": [int(w.shape[0]) for w in net.weights] + [6],
        "dtype": "f32le",
    }
    arrays = [a.astype("<f4") for w, b in zip(net.weights, net.biases) for a in (w, b)]
    _write_container(path, ".wjson", manifest, arrays)


def _parse_network(manifest, payload):
    sizes = manifest["layer_sizes"]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(payload.take("<f4", (fan_in, fan_out)))
        biases.append(payload.take("<f4", (fan_out,)))
    return DeformNet(weights, biases, manifest["l_space"], manifest["l_time"])


def load_network(path):
    required = {"l_space": "int", "l_time": "int", "layer_sizes": "list", "dtype": ["f32le"]}
    return _read_container(path, ".wjson", required, _parse_network)
