"""Correctness checks run on every round of the benchmark.

Each check compares an output of the program with a computation made here,
apart from the program's own code paths, or tests a property the method
must have.  Every check returns True when the output is right and False
when it is not; none of them raises on a wrong answer.
"""

from __future__ import annotations

import numpy as np

# An f32 payload holds a float64 value to within half a unit in the last
# place, 2**-24 relative; one full unit (2**-23) also absorbs a last-bit
# difference in the float64 value before it was rounded.
F32_REL = 2.0 ** -23
# Relative band around the cutoff radius where the renderer's
# inside-the-sphere test may go either way through rounding.
CUTOFF_BAND = 1e-9


def _rotation_matrices(q):
    """Rotation matrices of raw (w, x, y, z) quaternions, normalised here."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack([
        np.stack([w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z], -1),
    ], axis=1)


def direct_render_bounds(gaussians, points, cutoff_multiplier):
    """Direct per-point sums of the Gaussian densities.

    The covariance is built as R S S^T R^T and inverted with
    ``np.linalg.inv``.  Returns (inside, ambiguous, scale) per point:
    the sum over Gaussians whose cutoff sphere clearly holds the point,
    the summed magnitude of those whose sphere passes within rounding of
    it, and the summed magnitude of every counted term.
    """
    R = _rotation_matrices(gaussians.rotations)
    s = np.exp(gaussians.log_scales)
    M = R * s[:, None, :]
    inv = np.linalg.inv(M @ M.transpose(0, 2, 1))
    radius2 = (cutoff_multiplier * s.max(axis=1)) ** 2
    d = points[:, None, :] - gaussians.centers[None, :, :]        # (P, N, 3)
    qf = np.einsum("pni,nij,pnj->pn", d, inv, d)
    term = gaussians.intensities[None, :] * np.exp(-0.5 * qf)
    r2 = np.einsum("pni,pni->pn", d, d)
    inside = r2 < radius2 * (1.0 - CUTOFF_BAND)
    ambiguous = np.abs(r2 - radius2) <= radius2 * CUTOFF_BAND
    return ((term * inside).sum(axis=1), (np.abs(term) * ambiguous).sum(axis=1),
            (np.abs(term) * (inside | ambiguous)).sum(axis=1))


def check_render(rendered, gaussians, voxels, denoms, cutoff_multiplier):
    """Rendered values at sampled voxels equal direct sums over the
    Gaussians inside the cutoff.

    ``rendered`` holds the program's values at ``voxels`` (integer (P, 3)
    indices, lattice spacing ``1/denoms``), possibly read back from f32.
    A Gaussian whose sphere passes within rounding of a voxel may count
    as inside or outside.
    """
    points = np.asarray(voxels, dtype=np.float64) / np.asarray(denoms, dtype=np.float64)
    inside, ambiguous, scale = direct_render_bounds(gaussians, points, cutoff_multiplier)
    rendered = np.asarray(rendered, dtype=np.float64)
    slack = ambiguous + 1e-9 * scale + F32_REL * np.abs(rendered) + 1e-12
    return bool(np.all(np.abs(rendered - inside) <= slack))


def reference_knn(queries, node_positions, k):
    """k nearest nodes per query by a full sort on (squared distance, node
    index).  The squared distance is summed x, then y, then z from
    elementwise differences, so lattice ties stay exact ties."""
    q = np.asarray(queries, dtype=np.float64)
    p = np.asarray(node_positions, dtype=np.float64)
    dx = q[:, None, 0] - p[None, :, 0]
    dy = q[:, None, 1] - p[None, :, 1]
    dz = q[:, None, 2] - p[None, :, 2]
    d2 = dx * dx + dy * dy + dz * dz
    index = np.broadcast_to(np.arange(p.shape[0]), d2.shape)
    return np.lexsort((index, d2), axis=-1)[:, :k]


def check_knn(got, queries, node_positions, k):
    """``knn_indices`` rows equal the reference sort, ties included."""
    got = np.asarray(got)
    want = reference_knn(queries, node_positions, k)
    return got.shape == want.shape and bool(np.array_equal(got, want))


def count_boundary_ties(queries, node_positions, k):
    """Rows whose k-th and (k+1)-th nearest nodes are equally far: the rows
    where a tie decides the neighbour set."""
    q = np.asarray(queries, dtype=np.float64)
    p = np.asarray(node_positions, dtype=np.float64)
    d2 = np.sort(((q[:, None, :] - p[None, :, :]) ** 2).sum(axis=2), axis=1)
    return int(np.count_nonzero(d2[:, k - 1] == d2[:, k])) if p.shape[0] > k else 0


def check_losses(losses, cycle):
    """Every loss is finite, and the mean over the last cycle through the
    frames is below the first loss."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < cycle + 1 or not np.all(np.isfinite(losses)):
        return False
    return bool(losses[-cycle:].mean() < losses[0])


def check_field(exported, in_memory):
    """A field written as f32 and read back equals the float64 field to
    f32 rounding."""
    a = np.asarray(exported, dtype=np.float64)
    b = np.asarray(in_memory, dtype=np.float64)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= F32_REL * np.abs(b) + 2.0 ** -149))


def dice_from_labels(pred, truth, class_ids):
    """Per-class Dice 2|A & B| / (|A| + |B|) and their mean, from label
    arrays; an empty pair scores 1."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    scores = []
    for c in class_ids:
        a = pred == c
        b = truth == c
        total = np.count_nonzero(a) + np.count_nonzero(b)
        scores.append(1.0 if total == 0 else 2.0 * np.count_nonzero(a & b) / total)
    return scores, sum(scores) / len(scores)


def check_dice(reported, pred, truth, class_ids, tol=1e-12):
    """Dice recomputed from the label arrays equals the reported Dice.
    ``reported`` lists the per-class scores in ``class_ids`` order, then
    the mean."""
    scores, mean = dice_from_labels(pred, truth, class_ids)
    want = np.asarray(list(scores) + [mean])
    got = np.asarray(reported, dtype=np.float64)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))
