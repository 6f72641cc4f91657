"""Tracking-quality evaluation: label warping, Dice, PSNR, 3D SSIM,
Hausdorff distance, and displacement-field Jacobian diagnostics.

All metrics are pure functions over immutable inputs.  Labels propagate by
rendering one unit-intensity occupancy volume per anatomical class from the
deformed, labeled Gaussians and taking the per-voxel argmax over a floor —
the same differentiable representation used for fitting decides where each
structure went.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import ValidationError
from . import gauss as gauss_mod
from . import motion as motion_mod
from .volgrid import (LABEL_LV, LABEL_MYO, LABEL_RV, LabelVolume, _axis_denoms,
                      voxel_centers_normalized)

_STRUCTURES = (LABEL_RV, LABEL_MYO, LABEL_LV)

# intensity range of the scored volumes (frames are normalized to [0, 1])
DATA_RANGE = 1.0
# Wang et al.'s SSIM: Gaussian window (width, sigma) and stabilizers K1, K2
SSIM_WINDOW, SSIM_SIGMA, SSIM_K1, SSIM_K2 = 7, 1.5, 0.01, 0.03


@dataclass(frozen=True)
class DisplacementField:
    """Dense per-voxel displacement in normalized units at one time."""

    dims: tuple
    spacing: tuple
    vectors: np.ndarray  # (nx, ny, nz, 3)
    t: float

    def __post_init__(self):
        if self.vectors.shape != tuple(self.dims) + (3,):
            raise ValidationError("displacement array must be (nx, ny, nz, 3)")
        if not np.all(np.isfinite(self.vectors)):
            raise ValidationError("displacement field contains non-finite entries")


@dataclass
class MetricReport:
    """Fixed-key machine-readable summary of one evaluation."""

    dice_rv: float
    dice_lv: float
    dice_myo: float
    dice_avg: float
    psnr_db: float
    ssim: float
    hd_mm: float
    jac_dev: float
    fold_fraction: float

    def to_json(self):
        d = dict(self.__dict__)
        if math.isinf(d["psnr_db"]):
            d["psnr_db"] = "inf"
        return json.dumps(d, indent=1)


# ---------------------------------------------------------------------------
# Label propagation
# ---------------------------------------------------------------------------

def warp_labels(gaussians, nodes, net, t, grid, k, cutoff_multiplier, occupancy_floor):
    """Deform the labeled Gaussians to time ``t`` and rasterize a label map.

    Per class, a unit-intensity occupancy volume is rendered from that
    class's deformed Gaussians; each voxel takes the argmax class where the
    winning occupancy clears the floor (ties resolve to the lower label id),
    otherwise background.

    Raw occupancies scale with the local Gaussian density, so the floor is
    applied relative to the median total occupancy sampled at the deformed
    centers (clamped to at least 1, so an everywhere-faint set still maps to
    background).  The run config's default floor, 0.5, puts the decision
    surface at the half-maximum crossing — the surface of a uniformly filled
    body — whether the set has one Gaussian per voxel or one per ten.
    """
    idx = motion_mod.knn_indices(gaussians.centers, nodes.positions, k)
    deformed, _ = motion_mod.apply_motion(gaussians, nodes, net, t, idx)
    return _rasterize_labels(deformed, grid, cutoff_multiplier, occupancy_floor)


def _rasterize_labels(deformed, grid, cutoff_multiplier, occupancy_floor):
    """Label map of an already deformed, labeled set (see warp_labels)."""
    if deformed.labels is None:
        raise ValidationError("label warping needs a label per Gaussian")
    denoms = _axis_denoms(grid.dims)
    nearest = np.clip(np.rint(deformed.centers * denoms).astype(np.int64), 0,
                      np.asarray(grid.dims) - 1)
    occ = np.zeros((len(_STRUCTURES),) + tuple(grid.dims))
    for i, lab in enumerate(_STRUCTURES):
        sel = np.flatnonzero(deformed.labels == lab)
        if sel.size == 0:
            continue
        part = gauss_mod.GaussianSet(
            deformed.centers[sel], deformed.rotations[sel],
            deformed.log_scales[sel], np.ones(sel.size))
        raw = gauss_mod.render_values(part, grid.dims, cutoff_multiplier)
        # normalize by this class's own interior level (median occupancy at
        # its deformed centers) so thin structures are not out-thresholded
        # by thick ones; the >=1 clamp keeps an everywhere-faint class dark
        at = nearest[sel]
        typical = float(np.median(raw[at[:, 0], at[:, 1], at[:, 2]]))
        occ[i] = raw / max(typical, 1.0)
    winner = np.argmax(occ, axis=0)
    peak = np.take_along_axis(occ, winner[None], axis=0)[0]
    labels = np.where(peak > occupancy_floor,
                      np.array(_STRUCTURES, dtype=np.uint8)[winner], 0)
    return LabelVolume(grid.dims, grid.spacing, labels)


# ---------------------------------------------------------------------------
# Scalar metrics
# ---------------------------------------------------------------------------

def dice(pred, truth, class_id):
    """2|A n B| / (|A| + |B|); defined as 1 when both sets are empty."""
    if pred.dims != truth.dims:
        raise ValidationError("dice needs matching grids")
    a = pred.labels == class_id
    b = truth.labels == class_id
    denom = int(a.sum()) + int(b.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / denom


def psnr(pred, truth):
    """10 log10(DATA_RANGE^2 / MSE) in dB; identical volumes report +inf."""
    p = pred.values if hasattr(pred, "values") else np.asarray(pred)
    t = truth.values if hasattr(truth, "values") else np.asarray(truth)
    if p.shape != t.shape:
        raise ValidationError("psnr needs matching grids")
    mse = float(np.mean((p.astype(np.float64) - t.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(DATA_RANGE ** 2 / mse)


def _local_means(arr, kernel):
    out = arr
    for axis in range(3):
        out = ndimage.correlate1d(out, kernel, axis=axis, mode="nearest")
    return out


def ssim3d(pred, truth):
    """Mean local SSIM with Gaussian-weighted moments over a cubic window.

    The map is evaluated only where the full window fits (dims must be at
    least SSIM_WINDOW per axis), which keeps the statistic independent of
    any boundary-padding convention.
    """
    p = pred.values if hasattr(pred, "values") else np.asarray(pred)
    t = truth.values if hasattr(truth, "values") else np.asarray(truth)
    if p.shape != t.shape:
        raise ValidationError("ssim needs matching grids")
    if any(s < SSIM_WINDOW for s in p.shape):
        raise ValidationError(f"volume smaller than the {SSIM_WINDOW}^3 ssim window")
    p = p.astype(np.float64)
    t = t.astype(np.float64)
    half = SSIM_WINDOW // 2
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1, dtype=np.float64) / SSIM_SIGMA) ** 2)
    kernel /= kernel.sum()
    mu_p = _local_means(p, kernel)
    mu_t = _local_means(t, kernel)
    m_pp = _local_means(p * p, kernel)
    m_tt = _local_means(t * t, kernel)
    m_pt = _local_means(p * t, kernel)
    var_p = m_pp - mu_p * mu_p
    var_t = m_tt - mu_t * mu_t
    cov = m_pt - mu_p * mu_t
    c1 = (SSIM_K1 * DATA_RANGE) ** 2
    c2 = (SSIM_K2 * DATA_RANGE) ** 2
    ssim_map = ((2 * mu_p * mu_t + c1) * (2 * cov + c2)) / (
        (mu_p ** 2 + mu_t ** 2 + c1) * (var_p + var_t + c2))
    valid = ssim_map[half:-half, half:-half, half:-half]
    return float(valid.mean())


def _boundary_points_mm(labelvol, class_id):
    m = labelvol.labels == class_id
    if not m.any():
        raise ValidationError(f"no voxels of class {class_id}")
    eroded = ndimage.binary_erosion(m)  # border_value=0: edge voxels count
    pts = np.argwhere(m & ~eroded).astype(np.float64)
    return pts * np.array(labelvol.spacing)


def hausdorff(pred, truth, class_id):
    """Symmetric Hausdorff distance (exact maximum) between class boundaries,
    in mm.  Boundary voxels are face-connected surface voxels."""
    if pred.dims != truth.dims:
        raise ValidationError("hausdorff needs matching grids")
    a = _boundary_points_mm(pred, class_id)
    b = _boundary_points_mm(truth, class_id)
    d_ab = cKDTree(b).query(a)[0].max()
    d_ba = cKDTree(a).query(b)[0].max()
    return float(max(d_ab, d_ba))


def jacobian_stats(field):
    """Fold fraction and incompressibility deviation of a displacement field.

    The Jacobian of phi(X) = X + u(X) is formed with finite differences in
    normalized coordinates, central on the interior voxels, which are the only
    ones the statistics cover: the fraction with det <= 0 and the mean
    |det - 1|, the determinant taken by cofactors.
    """
    dims = field.dims
    if any(d < 3 for d in dims):
        raise ValidationError("jacobian diagnostics need dims >= 3 per axis")
    steps = [1.0 / (d - 1) for d in dims]
    inner = (slice(1, -1),) * 3
    # jac[i][a] = d phi_i / d X_a
    jac = [[g[inner] + float(i == a)
            for a, g in enumerate(np.gradient(field.vectors[..., i], *steps))]
           for i in range(3)]
    (a, b, c), (d, e, f), (g, h, k) = jac
    det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    fold_fraction = float(np.mean(det <= 0))
    mean_abs_dev = float(np.mean(np.abs(det - 1.0)))
    return fold_fraction, mean_abs_dev


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------

def dense_field_on_grid(nodes, net, t, grid, k):
    """Evaluate the motion model's displacement at every voxel center."""
    queries = voxel_centers_normalized(grid.dims).reshape(-1, 3)
    u = motion_mod.dense_displacement(queries, nodes, net, t, k)
    return DisplacementField(tuple(grid.dims), tuple(grid.spacing),
                             u.reshape(tuple(grid.dims) + (3,)), float(t))


def evaluate_run(gaussians, nodes, net, sequence, truth_es, k, cutoff_multiplier,
                 occupancy_floor):
    """Score a fitted state at the ES frame.

    Deforms the Gaussians to ES once: their label map gives per-structure
    Dice and the mean Hausdorff distance, their render PSNR/SSIM against
    the ES frame.  The Jacobian diagnostics run on the dense displacement
    field at the ES time.
    """
    if truth_es.dims != sequence.dims:
        raise ValidationError("truth mask geometry differs from the sequence")
    t_es = float(sequence.times[sequence.es_index])
    es_frame = sequence.frames[sequence.es_index]
    idx = motion_mod.knn_indices(gaussians.centers, nodes.positions, k)
    deformed, _ = motion_mod.apply_motion(gaussians, nodes, net, t_es, idx)
    warped = _rasterize_labels(deformed, sequence.frames[0], cutoff_multiplier,
                               occupancy_floor)
    d_rv = dice(warped, truth_es, LABEL_RV)
    d_myo = dice(warped, truth_es, LABEL_MYO)
    d_lv = dice(warped, truth_es, LABEL_LV)
    rendered = gauss_mod.render_values(deformed, sequence.dims, cutoff_multiplier)
    psnr_db = psnr(rendered, es_frame)
    ssim_val = ssim3d(rendered, es_frame)
    hds = [hausdorff(warped, truth_es, lab) for lab in _STRUCTURES]
    field = dense_field_on_grid(nodes, net, t_es, es_frame, k)
    fold_fraction, jac_dev = jacobian_stats(field)
    return MetricReport(
        dice_rv=d_rv, dice_lv=d_lv, dice_myo=d_myo,
        dice_avg=float(np.mean([d_rv, d_myo, d_lv])),
        psnr_db=psnr_db, ssim=ssim_val, hd_mm=float(np.mean(hds)),
        jac_dev=jac_dev, fold_fraction=fold_fraction)
