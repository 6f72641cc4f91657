"""Implicit motion representation: control nodes, the time-conditioned
deformation network, and linear blend skinning.

Sparse control nodes carry per-time transforms that a small MLP predicts
from sinusoidally encoded node positions and time: ``node_transforms``
returns one (M, 6) array, translation then per-axis log-scale offset;
zero rows are the identity.  The blend is one sparse linear map of those
rows: ``blend_operator`` builds the (N, M) CSR matrix W whose row i holds
point i's weights on its k nearest nodes, normalized RBF kernels
``exp(-d^2 / (2 o^2))`` of the one radius o the nodes share.  Each row is
a softmax over the neighbours of ``u_j = -d_j^2 / (2 o^2)``, shifted by
the row maximum, so every row sums to 1 and its largest kernel weighs most
even where every kernel underflows.  The blended rows are ``W @ t6`` and
their adjoint is ``W.T @ g``.  Each layer's forward sits beside its adjoint:
``node_transforms``/``node_transforms_backward`` for the MLP and
``motion_forward``/``motion_backward`` for the blend, which starts from and
ends at the (M, 6) node transforms; ``apply_motion`` composes the forwards.
The dense displacement field reads the same W at its query points.

Two gradient rules from the model definition are honored throughout:

* stop-gradient — W is a constant of each step.  It is built from the
  current centers and node geometry, but no gradient flows through it: the
  canonical set takes the render gradients unchanged, and the node
  positions and their shared radius take none, so they keep their seeded
  values.  Node positions enter the network input as constants too;
* frozen neighborhoods — KNN index sets are piecewise constant (rebuilt
  when densification changes the set, never differentiated through).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial import cKDTree

from .errors import NumericalAbort, ValidationError
from .volgrid import _axis_denoms, _read_container, _write_container

_KNN_CHUNK = 4096


@dataclass(frozen=True)
class ControlNodeSet:
    """Sparse motion carriers: read-only (M, 3) positions in the normalized
    cube and the one log RBF radius they share, kept at their seeding."""

    positions: np.ndarray
    log_radius: float

    def __post_init__(self):
        positions = np.array(self.positions, dtype=np.float64)
        log_radius = np.asarray(self.log_radius, dtype=np.float64)
        if positions.shape[1:] != (3,) or not positions.size or log_radius.shape != ():
            raise ValidationError("inconsistent ControlNodeSet shapes: need at least one "
                                  "control node, (M, 3) positions and one radius")
        if not (np.all(np.isfinite(positions)) and np.isfinite(log_radius)):
            raise ValidationError("control node positions and radius must be finite")
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "log_radius", float(log_radius))

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
    The encoded positions and time are constants: the stop-gradient boundary."""
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


def _over_columns(ufunc, a):
    """``ufunc.reduce(a, axis=1)`` of an (n, k) array as k - 1 elementwise
    steps over its columns, left to right; numpy reduces slowly along a short
    axis.  The same bits as the reduction for a maximum, and for a sum of
    fewer than 8 columns, which numpy too adds left to right."""
    acc = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        ufunc(acc, a[:, j], out=acc)
    return acc


def blend_operator(points, nodes, idx):
    """The blend as one (N, M) CSR matrix W: row i holds the softmax of
    ``-d^2 / (2 o^2)`` over point i's neighbour nodes ``idx[i]``, in idx
    order.  It equals ``w_hat / w_hat.sum()`` with
    ``w_hat = exp(-d^2 / (2 o^2))`` wherever that sum is nonzero, and its
    largest kernel weighs most where every kernel underflows.  ``W @ t6``
    blends the rows of the (M, 6) node transforms; ``W.T @ g`` is its
    adjoint."""
    points = np.asarray(points, dtype=np.float64)
    weights = np.empty(idx.shape)
    diff = points[:, None, :] - np.take(nodes.positions, idx, axis=0)  # (N, k, 3)
    o = np.exp(nodes.log_radius)
    np.divide(np.einsum("qki,qki->qk", diff, diff), -2.0 * o * o, out=weights)
    weights -= _over_columns(np.maximum, weights)[:, None]
    np.exp(weights, out=weights)
    weights /= _over_columns(np.add, weights)[:, None]
    n, k = idx.shape
    return csr_array((weights.ravel(), idx.ravel(), np.arange(0, n * k + 1, k)),
                      shape=(n, nodes.count))


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


def _displacement_rows(tree, nodes, t6, q, k):
    """The field's one kernel: the blended translation at the rows of q,
    ``blend_operator(q, ...) @ t6[:, :3]`` through their KNN rows.  A
    non-finite row raises ValidationError."""
    u = blend_operator(q, nodes, _knn_rows(tree, nodes.positions, q, k)) @ t6[:, :3]
    if not np.all(np.isfinite(u)):
        raise ValidationError("displacement field contains non-finite entries")
    return u


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
    tree = _knn_tree(np.empty((0, 3)), nodes.positions, k)[2]
    n = math.prod(dims)
    out = np.empty((n, 3))
    errstate = dict(np.geterr(), call=np.geterrcall())

    def field_rows(start):
        rows = slice(start, min(start + _KNN_CHUNK, n))
        with np.errstate(**errstate):
            q = np.stack(np.unravel_index(np.arange(rows.start, rows.stop), dims),
                         axis=1) / _axis_denoms(dims)
            out[rows] = _displacement_rows(tree, nodes, t6, q, k)

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

    The queries, k and the nodes are checked, then node_transforms runs and
    _displacement_rows takes all rows at once on the calling thread: the
    kernel each slice of grid_displacement runs, so a non-finite entry
    raises ValidationError here too.
    """
    queries, pos, tree = _knn_tree(queries, nodes.positions, k)
    t6 = node_transforms(net, pos, t)[0]
    return _displacement_rows(tree, nodes, t6, queries, k)


# ---------------------------------------------------------------------------
# Blend forward and adjoint used by the fitting loop
# ---------------------------------------------------------------------------

def motion_forward(gaussians, nodes, t6, idx):
    """The blend's forward: deform the whole GaussianSet by ``W @ t6``, W the
    blend_operator of its centers through the given (frozen) KNN table;
    returns the deformed set and W, which motion_backward reads."""
    w = blend_operator(gaussians.centers, nodes, idx)
    b6 = w @ t6
    return deform_gaussians(gaussians, b6[:, :3], b6[:, 3:]), w


def apply_motion(gaussians, nodes, net, t, idx):
    """The whole motion model at ``t``: node_transforms, then motion_forward."""
    return motion_forward(gaussians, nodes, node_transforms(net, nodes.positions, t)[0], idx)


def motion_backward(w, render_grads):
    """Adjoint of the blend: ``W.T @ [centers | log_scales]`` of the render
    gradients, the (M, 6) d(loss)/d(t6) where it ends.  W is held fixed
    (stop-gradient), so the render gradients are the canonical set's as
    they are and the node geometry gets none."""
    return w.T @ np.concatenate([render_grads.centers, render_grads.log_scales], axis=1)


# ---------------------------------------------------------------------------
# Node initialization and serialization
# ---------------------------------------------------------------------------

def init_control_nodes(gaussian_centers, budget, seed):
    """Subsample Gaussian positions into the node budget (uniform, seeded)
    and set the shared radius to twice the mean nearest-node spacing so that
    supports overlap from the start."""
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
    return ControlNodeSet(positions, np.log(2.0 * spacing))


def save_nodes(nodes, path):
    """Json manifest + f32le payload: the positions, then the log radius."""
    manifest = {"count": int(nodes.count), "fields": ["positions", "log_radius"],
                "dtype": "f32le"}
    _write_container(path, ".njson", manifest,
                     [nodes.positions.astype("<f4"), np.array(nodes.log_radius, "<f4")])


def _parse_nodes(manifest, payload):
    return ControlNodeSet(payload.take("<f4", (manifest["count"], 3)), payload.take("<f4", ()))


def load_nodes(path):
    required = {"count": "int", "fields": [["positions", "log_radius"]], "dtype": ["f32le"]}
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
