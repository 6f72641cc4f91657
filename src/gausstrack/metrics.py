"""Tracking-quality evaluation: label warping, Dice, PSNR, 3D SSIM,
Hausdorff distance, and displacement-field Jacobian diagnostics.

All metrics are pure functions over immutable inputs.  PSNR and SSIM score
two intensity arrays; the Jacobian diagnostics score the (nx, ny, nz, 3)
array of ``motion.grid_displacement``, the dense field at the voxel centers,
in normalized units.  Labels propagate by rendering one unit-intensity
occupancy volume per anatomical class from the deformed, labeled Gaussians
and taking the per-voxel argmax over a floor — the same differentiable
representation used for fitting decides where each structure went.
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
from .volgrid import LABEL_LV, LABEL_MYO, LABEL_RV, LabelVolume, _axis_denoms

_STRUCTURES = (LABEL_RV, LABEL_MYO, LABEL_LV)

# intensity range of the scored volumes (frames are normalized to [0, 1])
DATA_RANGE = 1.0
# Wang et al.'s SSIM: Gaussian window (width, sigma) and stabilizers K1, K2
SSIM_WINDOW, SSIM_SIGMA, SSIM_K1, SSIM_K2 = 7, 1.5, 0.01, 0.03
_JACOBIAN_PLANES = 4  # interior x-planes per slab of jacobian_stats


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
    """Label map of an already deformed, labeled set (see warp_labels), as
    a running maximum over the class renders: a later class takes a voxel
    only where it is strictly higher, so ties keep the lower label."""
    if deformed.labels is None:
        raise ValidationError("label warping needs a label per Gaussian")
    denoms = _axis_denoms(grid.dims)
    nearest = np.clip(np.rint(deformed.centers * denoms).astype(np.int64), 0,
                      np.asarray(grid.dims) - 1)
    peak = np.zeros(tuple(grid.dims))
    winner = np.full(tuple(grid.dims), _STRUCTURES[0], dtype=np.uint8)
    for lab in _STRUCTURES:
        sel = np.flatnonzero(deformed.labels == lab)
        if sel.size == 0:
            continue
        part = deformed.take(sel)
        part.intensities[:] = 1.0
        occ = gauss_mod.render_values(part, grid.dims, cutoff_multiplier)
        # normalize by this class's own interior level (median occupancy at
        # its deformed centers) so thin structures are not out-thresholded
        # by thick ones; the >=1 clamp keeps an everywhere-faint class dark
        at = nearest[sel]
        occ /= max(float(np.median(occ[at[:, 0], at[:, 1], at[:, 2]])), 1.0)
        higher = occ > peak
        np.copyto(peak, occ, where=higher)
        winner[higher] = lab
    labels = np.where(peak > occupancy_floor, winner, 0)
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
    if pred.shape != truth.shape:
        raise ValidationError("psnr needs matching grids")
    err = np.subtract(pred, truth, dtype=np.float64)
    mse = float(np.mean(np.square(err, out=err)))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(DATA_RANGE ** 2 / mse)


def _local_means(arr, kernel, out, scratch):
    """Gaussian-window means of ``arr`` into ``out``, through ``scratch``."""
    ndimage.correlate1d(arr, kernel, axis=0, output=out, mode="nearest")
    ndimage.correlate1d(out, kernel, axis=1, output=scratch, mode="nearest")
    ndimage.correlate1d(scratch, kernel, axis=2, output=out, mode="nearest")
    return out


def ssim3d(pred, truth):
    """Mean local SSIM with Gaussian-weighted moments over a cubic window.

    The map is evaluated only where the full window fits (dims must be at
    least SSIM_WINDOW per axis), which keeps the statistic independent of
    any boundary-padding convention.  The moments and the map are built in
    place in eight float64 grid volumes (seven when ``pred`` is float64),
    each operation in the order of Wang et al.'s formula.
    """
    if pred.shape != truth.shape:
        raise ValidationError("ssim needs matching grids")
    if any(s < SSIM_WINDOW for s in pred.shape):
        raise ValidationError(f"volume smaller than the {SSIM_WINDOW}^3 ssim window")
    p = np.asarray(pred, dtype=np.float64)
    t = truth.astype(np.float64)
    half = SSIM_WINDOW // 2
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1, dtype=np.float64) / SSIM_SIGMA) ** 2)
    kernel /= kernel.sum()
    mu_p, mu_t, var_p, var_t, prod, scratch = (np.empty(p.shape) for _ in range(6))
    _local_means(p, kernel, mu_p, scratch)
    _local_means(t, kernel, mu_t, scratch)
    # each second moment becomes its (co)variance: m_ab - mu_a * mu_b
    _local_means(np.multiply(p, p, out=prod), kernel, var_p, scratch)
    var_p -= np.multiply(mu_p, mu_p, out=prod)
    _local_means(np.multiply(t, t, out=prod), kernel, var_t, scratch)
    var_t -= np.multiply(mu_t, mu_t, out=prod)
    cov = _local_means(np.multiply(p, t, out=prod), kernel, t, scratch)
    cov -= np.multiply(mu_p, mu_t, out=prod)
    c1 = (SSIM_K1 * DATA_RANGE) ** 2
    c2 = (SSIM_K2 * DATA_RANGE) ** 2
    # ((2 mu_p mu_t + c1) (2 cov + c2)) / ((mu_p^2 + mu_t^2 + c1) (var_p + var_t + c2))
    ssim_map = np.multiply(np.multiply(2, mu_p, out=prod), mu_t, out=prod)
    ssim_map += c1
    cov *= 2
    cov += c2
    ssim_map *= cov
    den = np.add(np.square(mu_p, out=scratch), np.square(mu_t, out=mu_t), out=scratch)
    den += c1
    var_p += var_t
    var_p += c2
    den *= var_p
    ssim_map /= den
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
    in mm.  Boundary voxels are face-connected surface voxels.  A class neither
    map holds scores 0.0, as dice scores it 1.0; one map alone raises."""
    if pred.dims != truth.dims:
        raise ValidationError("hausdorff needs matching grids")
    if not ((pred.labels == class_id).any() or (truth.labels == class_id).any()):
        return 0.0
    a = _boundary_points_mm(pred, class_id)
    b = _boundary_points_mm(truth, class_id)
    d_ab = cKDTree(b).query(a)[0].max()
    d_ba = cKDTree(a).query(b)[0].max()
    return float(max(d_ab, d_ba))


def jacobian_stats(vectors):
    """Fold fraction and incompressibility deviation of a displacement field,
    given as its (nx, ny, nz, 3) array in normalized units.

    The Jacobian of phi(X) = X + u(X) is formed with finite differences in
    normalized coordinates, central on the interior voxels, which are the only
    ones the statistics cover: the fraction with det <= 0 and the mean
    |det - 1|, the determinant taken by cofactors.  It is made a few x-planes
    at a time, from a slab with a one-plane halo (whose central differences
    are the whole array's), into one array of the interior determinants.
    """
    if vectors.ndim != 4 or vectors.shape[3] != 3:
        raise ValidationError("displacement array must be (nx, ny, nz, 3)")
    dims = vectors.shape[:3]
    if any(d < 3 for d in dims):
        raise ValidationError("jacobian diagnostics need dims >= 3 per axis")
    steps = [1.0 / (d - 1) for d in dims]
    inner = (slice(1, -1),) * 3
    det = np.empty(tuple(d - 2 for d in dims))
    for x0 in range(0, dims[0] - 2, _JACOBIAN_PLANES):
        slab = vectors[x0:x0 + _JACOBIAN_PLANES + 2]
        # jac[i][a] = d phi_i / d X_a
        jac = [[g[inner] + float(i == a)
                for a, g in enumerate(np.gradient(slab[..., i], *steps))]
               for i in range(3)]
        (a, b, c), (d, e, f), (g, h, k) = jac
        det[x0:x0 + _JACOBIAN_PLANES] = \
            a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    fold_fraction = float(np.mean(det <= 0))
    mean_abs_dev = float(np.mean(np.abs(det - 1.0)))
    return fold_fraction, mean_abs_dev


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------

def evaluate_run(gaussians, nodes, net, sequence, truth_es, k, cutoff_multiplier,
                 occupancy_floor):
    """Score a fitted state at the ES frame.

    Runs the network once, for the ES node transforms, and hands them to
    ``motion.grid_displacement``: its workers fill the field for the Jacobian
    diagnostics while the calling thread deforms the Gaussians to ES by the
    same rows.  Their label map gives per-structure Dice and the mean
    Hausdorff distance, their render PSNR/SSIM against the ES frame; then
    the caller takes the field's slices no worker has started.
    """
    if truth_es.dims != sequence.dims:
        raise ValidationError(f"truth dims {truth_es.dims} != sequence dims {sequence.dims}")
    t_es = float(sequence.times[sequence.es_index])
    es_frame = sequence.frames[sequence.es_index]

    t6 = motion_mod.node_transforms(net, nodes.positions, t_es)[0]

    def deformed_scores():
        idx = motion_mod.knn_indices(gaussians.centers, nodes.positions, k)
        deformed, _ = motion_mod.motion_forward(gaussians, nodes, t6, idx)
        warped = _rasterize_labels(deformed, sequence.frames[0], cutoff_multiplier, occupancy_floor)
        d_rv, d_myo, d_lv = (dice(warped, truth_es, lab) for lab in _STRUCTURES)
        rendered = gauss_mod.render_values(deformed, sequence.dims, cutoff_multiplier)
        return dict(dice_rv=d_rv, dice_lv=d_lv, dice_myo=d_myo,
                    dice_avg=float(np.mean([d_rv, d_myo, d_lv])),
                    psnr_db=psnr(rendered, es_frame.values), ssim=ssim3d(rendered, es_frame.values),
                    hd_mm=float(np.mean([hausdorff(warped, truth_es, lab) for lab in _STRUCTURES])))

    u, scores = motion_mod.grid_displacement(nodes, t6, k, es_frame.dims, first=deformed_scores)
    fold_fraction, jac_dev = jacobian_stats(u.reshape(tuple(es_frame.dims) + (3,)))
    return MetricReport(**scores, jac_dev=jac_dev, fold_fraction=fold_fraction)
