"""Implicit motion representation: control nodes, the time-conditioned
deformation network, and linear blend skinning.

Sparse control nodes carry per-time transforms that a small MLP predicts
from sinusoidally encoded node positions and time: ``node_transforms``
returns one (M, 6) array, translation then per-axis log-scale offset;
zero rows are the identity.  Dense motion at any point is the convex
combination of its k nearest nodes' rows, weighted by normalized RBF
kernels ``exp(-d^2 / (2 o_j^2))``: a softmax over the neighbours of
``u_j = -d_j^2 / (2 o_j^2)``, shifted by the row maximum, so every row
sums to 1 and its largest kernel weighs most even where every kernel
underflows.  Each layer's forward sits beside its adjoint:
``node_transforms``/``node_transforms_backward`` for the MLP and
``motion_forward``/``motion_backward`` for the blend, which starts from and
ends at the (M, 6) node transforms; ``apply_motion`` composes the forwards.

Two gradient rules from the model definition are honored throughout:

* stop-gradient — node positions enter the network input as constants;
  position gradients flow only through the blend-weight distances;
* frozen neighborhoods — KNN index sets are piecewise constant (refreshed
  between optimization phases, never differentiated through).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import NumericalAbort, ValidationError
from .gauss import RenderGradients
from .volgrid import _axis_denoms, _read_container, _write_container

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
    """Plain-numpy MLP ``(encoded position, encoded time) -> (d_xyz, d_log_scale)``.

    ReLU hidden layers; the linear output head is zero-initialized, so every
    node row starts at zero (translation 0, log-scale offset 0): the identity.
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

    @classmethod
    def create(cls, l_space, l_time, hidden_width, hidden_depth, seed=0):
        rng = np.random.default_rng(seed)
        in_w = 6 * l_space + 2 * l_time
        sizes = [in_w] + [hidden_width] * hidden_depth
        weights = [rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out))
                   for fan_in, fan_out in zip(sizes, sizes[1:])]
        weights.append(np.zeros((hidden_width, 6)))
        biases = [np.zeros(w.shape[1]) for w in weights]
        return cls(weights, biases, l_space, l_time)


def node_transforms(net, positions, t):
    """Per-node transforms at time ``t`` as one (M, 6) array (translation,
    then per-axis log-scale offset), and the activations its adjoint reads.
    The encoded positions and time are constants: the stop-gradient boundary.
    Non-finite positions raise NumericalAbort before they are encoded."""
    if not np.all(np.isfinite(positions)):
        raise NumericalAbort("node positions must be finite")
    m = positions.shape[0]
    t_enc = positional_encoding(np.float64(t), net.l_time)
    h = np.concatenate([positional_encoding(positions, net.l_space).reshape(m, -1),
                        np.broadcast_to(t_enc, (m, t_enc.size))], axis=1)
    acts = [h]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    return h @ net.weights[-1] + net.biases[-1], acts


def node_transforms_backward(net, acts, g_t6):
    """Adjoint of node_transforms: the weight and bias gradients from
    d(loss)/d(t6) through the MLP.  Input gradients are intentionally not
    produced (stop-gradient)."""
    g_w, g_b = [None] * len(net.weights), [None] * len(net.biases)
    g = g_t6
    for i in range(len(net.weights) - 1, -1, -1):
        g_w[i] = acts[i].T @ g
        g_b[i] = g.sum(axis=0)
        if i > 0:  # through layer i and the ReLU that made its input
            g = (g @ net.weights[i].T) * (acts[i] > 0)
    return g_w, g_b


# ---------------------------------------------------------------------------
# KNN and blending
# ---------------------------------------------------------------------------

def _knn_tree(queries, node_positions, k):
    """Checked float64 queries and nodes, and the nodes' KD-tree."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    pos = np.asarray(node_positions, dtype=np.float64)
    m = pos.shape[0]
    if not 1 <= k <= m:
        raise ValidationError(f"k={k} outside [1, {m}]")
    if not (np.all(np.isfinite(queries)) and np.all(np.isfinite(pos))):
        raise NumericalAbort("KNN needs finite queries and node positions")
    return queries, pos, cKDTree(pos)


def _knn_rows(tree, pos, q, k):
    """knn_indices of the rows of q."""
    m = pos.shape[0]
    c = min(k + 1, m)
    dist, cand = (a.reshape(q.shape[0], c) for a in tree.query(q, k=c))
    out = cand[:, :k].astype(np.int64)
    # rows whose first k + 1 tree distances rise by the settle margin keep the
    # tree's order; the others are re-sorted exactly
    near = dist[:, :k + 1]
    rows = np.flatnonzero(np.any(near[:, 1:] <= near[:, :-1] * (1 + 1e-9), axis=1))
    dist, cand = dist[rows], cand[rows]
    while rows.size:
        # per axis on (rows, c) arrays, added (x + y) + z as a sum over an
        # axis of three would add them
        dx, dy, dz = (q[rows, a, None] - pos[cand, a] for a in range(3))
        d2 = (dx * dx + dy * dy) + dz * dz
        order = np.lexsort((cand, d2), axis=-1)[:, :k]
        kth = np.take_along_axis(d2, order[:, -1:], axis=1)[:, 0]
        done = (kth < dist[:, -1] ** 2 * (1 - 1e-9)) | (c == m)
        out[rows[done]] = np.take_along_axis(cand, order, axis=1)[done]
        rows = rows[~done]
        if rows.size:
            c = min(2 * c, m)
            dist, cand = (a.reshape(rows.size, c) for a in tree.query(q[rows], k=c))
    return out


def knn_indices(queries, node_positions, k):
    """Exact k nearest nodes per query, ties broken by lower node index.

    All rows in one call on the calling thread.  A row whose first k + 1
    KD-tree distances each rise by a 1e-9 relative margin keeps the tree's
    first k: its set and order are those of the exact distances, which the
    tree's match to about 1e-16.  Only the other rows (ties, near ties,
    duplicate nodes) re-sort the candidates by (exact squared distance
    ``((q - p) ** 2).sum()``, index).  Such a row is settled once its k-th
    distance is inside the farthest candidate's by the same margin, so no
    other node can reach or tie it; otherwise it retries with twice the
    candidates, up to all nodes.
    """
    queries, pos, tree = _knn_tree(queries, node_positions, k)
    return _knn_rows(tree, pos, queries, k)


def _blend(queries, node_positions, log_radii, idx):
    """Softmax weights of u = -d^2 / (2 o^2), built in place, plus the
    offsets, squared distances and radii that motion_backward reads."""
    weights = np.empty(idx.shape)
    diff = queries[:, None, :] - np.take(node_positions, idx, axis=0)  # (Q, k, 3)
    d2 = np.einsum("qki,qki->qk", diff, diff)
    o = np.exp(np.take(log_radii, idx))
    np.divide(d2, -2.0 * o * o, out=weights)
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights, diff, d2, o


def blend_weights(queries, node_positions, log_radii, idx):
    """Normalized RBF weights of each query's neighbor nodes: the softmax of
    ``-d^2 / (2 o^2)`` over the row, equal to ``w_hat / w_hat.sum()`` with
    ``w_hat = exp(-d^2 / (2 o^2))`` wherever that sum is nonzero."""
    weights, *_ = _blend(np.atleast_2d(np.asarray(queries, dtype=np.float64)),
                         np.asarray(node_positions, dtype=np.float64),
                         np.asarray(log_radii, dtype=np.float64), np.atleast_2d(idx))
    return weights


def blend_transforms(weights, idx, t6):
    """Convex combination of the neighbours' rows of the (M, 6) node
    transforms, channelwise: the blended translation and log-scale offset."""
    mixed = np.einsum("qk,qkc->qc", weights, np.take(t6, idx, axis=0))
    return mixed[:, :3], mixed[:, 3:]


def deform_gaussians(gaussians, delta, log_offset):
    """Apply blended per-Gaussian transforms: centers shift by ``delta`` and
    log-scales by ``log_offset``, so zeros leave the set as it was;
    rotations and intensities are untouched."""
    delta = np.asarray(delta, dtype=np.float64)
    log_offset = np.asarray(log_offset, dtype=np.float64)
    if delta.shape != (gaussians.count, 3) or log_offset.shape != (gaussians.count, 3):
        raise ValidationError("blended transforms misaligned with Gaussian order")
    if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(log_offset))):
        raise NumericalAbort("blended node transforms must stay finite")
    out = gaussians.copy()
    out.centers += delta
    out.log_scales += log_offset
    return out


def _pool_size():
    """CPUs in this process's affinity mask (all CPUs where there is none)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


def grid_displacement(nodes, t6, k, dims, first=None):
    """The blended translation of the (M, 6) node transforms ``t6`` at the
    voxel centres of a ``dims`` grid, as one (n, 3) array in C order, and the
    result of ``first()`` (None without it).

    k and the nodes are checked, and the output allocated, on the calling
    thread.  The 4096-voxel slices go to ``_pool_size() - 1`` workers (at
    least one); each slice makes its own voxel centres, the bits of its rows
    of ``voxel_centers_normalized(dims).reshape(-1, 3)``.  The caller runs
    ``first``, then takes from the back every slice no worker has started.
    Every slice runs under the caller's floating-point error state, and a
    non-finite slice raises ValidationError; an error from ``first`` is
    raised ahead of any slice's.  The bits do not depend on the thread count.
    """
    _, pos, tree = _knn_tree(np.empty((0, 3)), nodes.positions, k)
    n = math.prod(dims)
    out = np.empty((n, 3))
    errstate = dict(np.geterr(), call=np.geterrcall())

    def field_rows(start):
        rows = slice(start, min(start + _KNN_CHUNK, n))
        with np.errstate(**errstate):
            q = np.stack(np.unravel_index(np.arange(rows.start, rows.stop), dims),
                         axis=1) / _axis_denoms(dims)
            idx = _knn_rows(tree, pos, q, k)
            weights, *_ = _blend(q, pos, nodes.log_radii, idx)
            out[rows] = np.einsum("qk,qkc->qc", weights, np.take(t6[:, :3], idx, axis=0))
        if not np.all(np.isfinite(out[rows])):
            raise ValidationError("displacement field contains non-finite entries")

    pool = ThreadPoolExecutor(max(_pool_size() - 1, 1))
    try:
        slices = {start: pool.submit(field_rows, start) for start in range(0, n, _KNN_CHUNK)}
        result = first() if first else None
        for start in reversed(slices):
            if slices[start].cancel():
                field_rows(start)
    finally:
        pool.shutdown(cancel_futures=True)
    for future in slices.values():
        if not future.cancelled():
            future.result()
    return out, result


def dense_displacement(queries, nodes, net, t, k):
    """Blended translation at arbitrary query points (each using its own
    KNN set); defines the dense motion field phi(X, t) = X + u(X, t).

    knn_indices -> node_transforms -> blend_weights -> blend_transforms, all
    rows at once on the calling thread; the inputs are checked first.  A
    field with a non-finite entry raises ValidationError.
    """
    idx = knn_indices(queries, nodes.positions, k)
    t6 = node_transforms(net, nodes.positions, t)[0]
    weights = blend_weights(queries, nodes.positions, nodes.log_radii, idx)
    u = blend_transforms(weights, idx, t6)[0]
    if not np.all(np.isfinite(u)):
        raise ValidationError("displacement field contains non-finite entries")
    return u


# ---------------------------------------------------------------------------
# Blend forward and adjoint used by the fitting loop
# ---------------------------------------------------------------------------

@dataclass
class MotionCache:
    """What motion_backward reads of a motion_forward call."""

    t6: np.ndarray
    idx: np.ndarray
    diff: np.ndarray
    d2: np.ndarray
    o: np.ndarray
    weights: np.ndarray


@dataclass
class MotionGradients:
    node_transforms: np.ndarray
    node_positions: np.ndarray
    node_log_radii: np.ndarray
    canonical: RenderGradients


def motion_forward(gaussians, nodes, t6, idx):
    """The blend's forward: deform the whole GaussianSet by the (M, 6) node
    transforms ``t6`` through the given (frozen) KNN table; returns the
    deformed set and the cache for motion_backward."""
    weights, diff, d2, o = _blend(gaussians.centers, nodes.positions,
                                  nodes.log_radii, idx)
    return (deform_gaussians(gaussians, *blend_transforms(weights, idx, t6)),
            MotionCache(t6, idx, diff, d2, o, weights))


def apply_motion(gaussians, nodes, net, t, idx):
    """The whole motion model at ``t``: node_transforms, then motion_forward."""
    return motion_forward(gaussians, nodes, node_transforms(net, nodes.positions, t)[0], idx)


def _scatter_rows(idx, vals, m):
    """Sum vals (N, k, ...) into m node rows by idx (N, k), one bincount per
    column: in index order from zero, as np.add.at would, but faster."""
    flat = idx.ravel()
    vals = vals.reshape(flat.size, -1)
    return np.stack([np.bincount(flat, vals[:, c], minlength=m)
                     for c in range(vals.shape[1])], axis=1)


def motion_backward(cache, nodes, render_grads):
    """Adjoint of the blend: render gradients to the node positions/radii, the
    canonical set and the (M, 6) d(loss)/d(t6), where it ends.

    Node positions receive gradients only through the blend-weight
    distances (the encoding input is stop-gradient); neighbor sets are
    fixed.  Of the render gradients only the centers change: rotations,
    log-scales and intensities pass through to the canonical set as they
    are.
    """
    idx, weights, m = cache.idx, cache.weights, nodes.count
    # per Gaussian (N, 6): the blended rows add to the centers and log-scales
    g_b6 = np.concatenate([render_grads.centers, render_grads.log_scales], axis=1)
    # node transforms accumulate w_ij * gB_i
    g_t6 = _scatter_rows(idx, weights[:, :, None] * g_b6[:, None, :], m)
    # blend-weight path through the softmax of u = -d2 / (2 o^2)
    g_w = np.einsum("qc,qkc->qk", g_b6, np.take(cache.t6, idx, axis=0))
    g_u = weights * (g_w - np.einsum("qk,qk->q", g_w, weights)[:, None])
    g_d2 = -g_u / (2.0 * cache.o ** 2)
    g_diff = 2.0 * g_d2[:, :, None] * cache.diff
    g_node_pos = _scatter_rows(idx, -g_diff, m)
    g_log_radii = _scatter_rows(idx, g_u * cache.d2 / cache.o ** 2, m)[:, 0]
    canonical = replace(render_grads, centers=render_grads.centers + g_diff.sum(axis=1))
    return MotionGradients(g_t6, g_node_pos, g_log_radii, canonical)


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
