"""Anisotropic 3D Gaussian volume representation and its differentiable renderer.

A volume is modeled as N Gaussians, each with a center in the normalized
unit cube, a quaternion rotation, per-axis log standard deviations and a
scalar intensity.  The covariance factorizes as ``sigma = R S S^T R^T`` with
``S = diag(exp(log_scales))``, so positivity is structural and the optimizer
can take unconstrained steps.  Rendering sums each Gaussian's density over
the voxels inside its cutoff radius; the backward pass returns exact
analytic partials for all four parameter groups.

Quaternions are stored unconstrained and canonicalized (unit norm, w >= 0)
inside every covariance build; gradients chain through that normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .volgrid import VoxelVolume, _axis_denoms, _read_container, _write_container

# Memory cap for the vectorized renderer: Gaussians are processed in chunks
# so that (chunk x support) scratch arrays stay small.
_CHUNK_ELEMS = 4_000_000


@dataclass
class GaussianSet:
    """Learnable canonical representation; arrays are float64 and owned by
    the optimizer during fitting.

    centers      (N, 3) positions in the normalized unit cube
    rotations    (N, 4) quaternions (w, x, y, z), not necessarily unit
    log_scales   (N, 3) per-axis log standard deviations, normalized units
    intensities  (N,)   signed scalar amplitude at the Gaussian center
    labels       (N,)   optional anatomical class per Gaussian (uint8)
    """

    centers: np.ndarray
    rotations: np.ndarray
    log_scales: np.ndarray
    intensities: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        self.rotations = np.asarray(self.rotations, dtype=np.float64)
        self.log_scales = np.asarray(self.log_scales, dtype=np.float64)
        self.intensities = np.asarray(self.intensities, dtype=np.float64)
        n = self.centers.shape[0]
        if n < 1:
            raise ValidationError("a GaussianSet needs at least one Gaussian")
        if self.centers.shape != (n, 3) or self.rotations.shape != (n, 4) \
                or self.log_scales.shape != (n, 3) or self.intensities.shape != (n,):
            raise ValidationError("inconsistent GaussianSet array shapes")
        if np.any(np.linalg.norm(self.rotations, axis=1) == 0):
            raise ValidationError("zero quaternion in GaussianSet")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.uint8)
            if self.labels.shape != (n,):
                raise ValidationError("labels must be one per Gaussian")

    @property
    def count(self):
        return self.centers.shape[0]

    def copy(self):
        return GaussianSet(
            self.centers.copy(), self.rotations.copy(), self.log_scales.copy(),
            self.intensities.copy(),
            None if self.labels is None else self.labels.copy(),
        )


@dataclass(frozen=True)
class Covariance:
    """Covariance of a single Gaussian plus its cutoff radius."""

    sigma: np.ndarray
    inverse: np.ndarray
    radius: float


@dataclass
class RenderGradients:
    """Partials of a scalar loss w.r.t. every GaussianSet field."""

    centers: np.ndarray
    rotations: np.ndarray
    log_scales: np.ndarray
    intensities: np.ndarray

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros((n, 3)), np.zeros((n, 4)), np.zeros((n, 3)), np.zeros(n))


# ---------------------------------------------------------------------------
# Quaternions and covariances
# ---------------------------------------------------------------------------

def canonicalize_quaternions(q):
    """Return (q_hat, norm, sign): unit quaternions with w >= 0 plus the
    factors needed to chain gradients back to the raw storage."""
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    norm = np.linalg.norm(q, axis=1)
    if np.any(norm == 0):
        raise ValidationError("cannot canonicalize a zero quaternion")
    unit = q / norm[:, None]
    sign = np.where(unit[:, 0] < 0, -1.0, 1.0)
    return unit * sign[:, None], norm, sign


def quaternions_to_matrices(q_hat):
    """Rotation matrices from unit quaternions (w, x, y, z); shape (N, 3, 3)."""
    w, x, y, z = q_hat[:, 0], q_hat[:, 1], q_hat[:, 2], q_hat[:, 3]
    R = np.empty((q_hat.shape[0], 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def _rotmat_backward(q_hat, g_R):
    # dL/dq_hat from dL/dR for the matrix built in quaternions_to_matrices.
    w, x, y, z = q_hat[:, 0], q_hat[:, 1], q_hat[:, 2], q_hat[:, 3]
    g = g_R
    gw = 2 * (-z * g[:, 0, 1] + y * g[:, 0, 2] + z * g[:, 1, 0]
              - x * g[:, 1, 2] - y * g[:, 2, 0] + x * g[:, 2, 1])
    gx = 2 * (y * g[:, 0, 1] + z * g[:, 0, 2] + y * g[:, 1, 0]
              - 2 * x * g[:, 1, 1] - w * g[:, 1, 2] + z * g[:, 2, 0]
              + w * g[:, 2, 1] - 2 * x * g[:, 2, 2])
    gy = 2 * (-2 * y * g[:, 0, 0] + x * g[:, 0, 1] + w * g[:, 0, 2]
              + x * g[:, 1, 0] + z * g[:, 1, 2] - w * g[:, 2, 0]
              + z * g[:, 2, 1] - 2 * y * g[:, 2, 2])
    gz = 2 * (-2 * z * g[:, 0, 0] - w * g[:, 0, 1] + x * g[:, 0, 2]
              + w * g[:, 1, 0] - 2 * z * g[:, 1, 1] + y * g[:, 1, 2]
              + x * g[:, 2, 0] + y * g[:, 2, 1])
    return np.stack([gw, gx, gy, gz], axis=1)


def _covariance_batch(gaussians, cutoff_multiplier):
    """Vectorized covariance build: (R, s, inverse, radii) for all Gaussians.

    The inverse uses the factorization directly (R S^-2 R^T), so it is exact
    for any finite log_scales.
    """
    q_hat, _, _ = canonicalize_quaternions(gaussians.rotations)
    R = quaternions_to_matrices(q_hat)
    s = np.exp(gaussians.log_scales)
    inv = np.einsum("nik,nk,njk->nij", R, 1.0 / (s * s), R)
    if cutoff_multiplier is None:
        radii = np.full(gaussians.count, np.inf)
    else:
        radii = cutoff_multiplier * s.max(axis=1)
    return R, s, inv, radii


def covariance_from_params(rot, log_scale, cutoff_multiplier=3.0):
    """Build sigma = R S S^T R^T, its inverse and the cutoff radius for one
    Gaussian.  Invariant to quaternion sign and scale."""
    g = GaussianSet(np.zeros((1, 3)), np.asarray(rot, dtype=np.float64).reshape(1, 4),
                    np.asarray(log_scale, dtype=np.float64).reshape(1, 3), np.ones(1))
    R, s, inv, radii = _covariance_batch(g, cutoff_multiplier)
    M = R[0] * s[0][None, :]
    sigma = M @ M.T
    return Covariance(sigma=sigma, inverse=inv[0], radius=float(radii[0]))


def eval_gaussian(center, rot, log_scale, intensity, point):
    """Density of one Gaussian at one point: I * exp(-0.5 d^T sigma^-1 d)."""
    cov = covariance_from_params(rot, log_scale, cutoff_multiplier=None)
    d = np.asarray(point, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    return float(intensity) * float(np.exp(-0.5 * d @ cov.inverse @ d))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _support_boxes(centers, radii, dims):
    """Per-Gaussian index bounding box of voxels possibly inside the cutoff
    sphere.  Returns (lo, hi) int arrays; empty boxes have hi < lo."""
    denoms = _axis_denoms(dims)
    dims_arr = np.asarray(dims)
    finite = np.isfinite(radii)
    r = np.where(finite, radii, 0.0)[:, None]
    lo = np.ceil((centers - r) * denoms - 1e-9).astype(np.int64)
    hi = np.floor((centers + r) * denoms + 1e-9).astype(np.int64)
    lo[~finite] = 0
    hi[~finite] = dims_arr - 1
    lo = np.clip(lo, 0, dims_arr - 1)
    hi = np.clip(hi, -1, dims_arr - 1)
    return lo, hi


def _iter_support_chunks(gaussians, dims, cutoff_multiplier):
    """Group Gaussians by support-box shape and yield vectorized chunks.

    Yields (sel, flat, delta, mask, inv, R, s) where ``sel`` indexes into
    the GaussianSet, ``flat`` is (G, B) flattened voxel indices, ``delta``
    the offsets from the centers in normalized coordinates, and ``mask``
    the in-sphere test shared by forward and backward passes.
    """
    denoms = _axis_denoms(dims)
    R, s, inv, radii = _covariance_batch(gaussians, cutoff_multiplier)
    lo, hi = _support_boxes(gaussians.centers, radii, dims)
    shape = hi - lo + 1
    nonempty = np.all(shape > 0, axis=1)
    order = np.flatnonzero(nonempty)
    if order.size == 0:
        return
    keys = shape[order]
    # stable grouping by box shape keeps accumulation order deterministic
    group_order = np.lexsort((order, keys[:, 2], keys[:, 1], keys[:, 0]))
    order = order[group_order]
    keys = shape[order]
    boundaries = np.flatnonzero(np.any(np.diff(keys, axis=0) != 0, axis=1)) + 1
    radii2 = radii * radii
    flat_lo_all = (lo[:, 0] * dims[1] + lo[:, 1]) * dims[2] + lo[:, 2]
    for grp in np.split(order, boundaries):
        bshape = shape[grp[0]]
        B = int(bshape.prod())
        offs = np.stack(np.meshgrid(*[np.arange(n) for n in bshape],
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        flat_off = (offs[:, 0] * dims[1] + offs[:, 1]) * dims[2] + offs[:, 2]
        offs_norm = offs / denoms
        step = max(1, _CHUNK_ELEMS // max(B, 1))
        for start in range(0, grp.size, step):
            sel = grp[start:start + step]
            flat = flat_lo_all[sel][:, None] + flat_off[None, :]
            base = lo[sel] / denoms - gaussians.centers[sel]
            delta = base[:, None, :] + offs_norm[None, :, :]
            r2 = np.einsum("gbi,gbi->gb", delta, delta)
            mask = r2 <= radii2[sel][:, None]
            yield sel, flat, delta, mask, inv[sel], R[sel], s[sel]


def render_with_cache(gaussians, dims, cutoff_multiplier=3.0):
    """Forward render plus the per-chunk intermediates the backward pass
    needs (support sets, offsets, masked exponentials).  Sharing the cache
    guarantees forward and backward use the identical cutoff set."""
    dims = tuple(int(d) for d in dims)
    nvox = dims[0] * dims[1] * dims[2]
    out = np.zeros(nvox)
    chunks = []
    for sel, flat, delta, mask, inv, R, s in _iter_support_chunks(
            gaussians, dims, cutoff_multiplier):
        # qf = delta^T P delta via batched matmul (P symmetric)
        pd = np.matmul(delta, inv)
        qf = np.einsum("gbi,gbi->gb", pd, delta)
        e = np.exp(-0.5 * qf)
        e[~mask] = 0.0
        vals = gaussians.intensities[sel][:, None] * e
        m = mask.ravel()
        out += np.bincount(flat.ravel()[m], weights=vals.ravel()[m], minlength=nvox)
        chunks.append((sel, flat, delta, pd, e, inv, R, s))
    return out.reshape(dims), chunks


def render_values(gaussians, dims, cutoff_multiplier=3.0):
    """Sum of Gaussian densities at every voxel center; returns an array of
    shape ``dims`` (float64).  Accumulation order is fixed, so results are
    reproducible run to run."""
    values, _ = render_with_cache(gaussians, dims, cutoff_multiplier)
    return values


def render_volume(gaussians, grid, cutoff_multiplier=3.0):
    """Render into the geometry of ``grid`` (anything with dims/spacing)."""
    vals = render_values(gaussians, grid.dims, cutoff_multiplier)
    return VoxelVolume(grid.dims, grid.spacing, vals)


def render_values_bruteforce(gaussians, dims):
    """All-pairs reference renderer: no cutoff, independent covariance path
    (dense matrix products and np.linalg.inv).  Used as the oracle in
    equivalence tests; slow on purpose."""
    dims = tuple(int(d) for d in dims)
    denoms = _axis_denoms(dims)
    axes = [np.arange(d, dtype=np.float64) / denoms[i] for i, d in enumerate(dims)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    out = np.zeros(pts.shape[0])
    q_hat, _, _ = canonicalize_quaternions(gaussians.rotations)
    Rs = quaternions_to_matrices(q_hat)
    for i in range(gaussians.count):
        S = np.diag(np.exp(gaussians.log_scales[i]))
        M = Rs[i] @ S
        sigma = M @ M.T
        inv = np.linalg.inv(sigma)
        d = pts - gaussians.centers[i]
        qf = np.einsum("bi,ij,bj->b", d, inv, d)
        out += gaussians.intensities[i] * np.exp(-0.5 * qf)
    return out.reshape(dims)


def render_backward(gaussians, dims, upstream, cutoff_multiplier=3.0, cache=None):
    """Analytic adjoint of render_values.

    ``upstream`` is dL/dV per voxel (shape ``dims``).  Returns exact partials
    w.r.t. centers, raw quaternions, log_scales and intensities, using the
    same cutoff set as the forward pass (pass the forward's ``cache`` to
    share it instead of recomputing).
    """
    dims = tuple(int(d) for d in dims)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != dims:
        raise ValidationError("upstream gradient shape must match the grid")
    if cache is None:
        _, cache = render_with_cache(gaussians, dims, cutoff_multiplier)
    n = gaussians.count
    grads = RenderGradients.zeros(n)
    q_hat, q_norm, q_sign = canonicalize_quaternions(gaussians.rotations)
    u_flat = upstream.ravel()
    for sel, flat, delta, pd, e, inv, R, s in cache:
        ue = u_flat[flat] * e                               # dL/dV * exp term
        grads.intensities[sel] += ue.sum(axis=1)
        common = ue * gaussians.intensities[sel][:, None]   # dL/dV * G value
        grads.centers[sel] += np.einsum("gb,gbi->gi", common, pd)
        # covariance chain: P -> sigma -> M = R S -> (R, S) -> (q, log_scales)
        wd = common[:, :, None] * delta
        gP = -0.5 * np.matmul(delta.transpose(0, 2, 1), wd)
        gSigma = -np.matmul(np.matmul(inv, gP), inv)
        M = R * s[:, None, :]
        gM = 2.0 * np.matmul(gSigma, M)
        gR = gM * s[:, None, :]
        gs = np.einsum("gik,gik->gk", R, gM)
        grads.log_scales[sel] += gs * s
        g_qhat = _rotmat_backward(q_hat[sel], gR)
        radial = np.einsum("gc,gc->g", q_hat[sel], g_qhat)
        grads.rotations[sel] += (q_sign[sel] / q_norm[sel])[:, None] * (
            g_qhat - q_hat[sel] * radial[:, None])
    return grads


# ---------------------------------------------------------------------------
# Initialization and densification
# ---------------------------------------------------------------------------

def initialize_from_mask(mask, reference, n_init, seed):
    """Seed Gaussians from a segmentation mask.

    Centers are drawn uniformly without replacement from foreground voxel
    centers, labels copied from the mask, rotations identity, log_scales one
    voxel extent per axis, intensities read from the reference frame.
    """
    if mask.dims != reference.dims:
        raise ValidationError("mask and reference volume dims differ")
    fg = np.argwhere(mask.labels > 0)
    if fg.shape[0] < n_init:
        raise ValidationError(
            f"mask has {fg.shape[0]} foreground voxels, need {n_init}")
    rng = np.random.default_rng(seed)
    pick = fg[rng.choice(fg.shape[0], size=n_init, replace=False)]
    denoms = _axis_denoms(mask.dims)
    centers = pick / denoms
    rotations = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (n_init, 1))
    log_scales = np.tile(np.log(1.0 / denoms), (n_init, 1))
    intensities = reference.values[pick[:, 0], pick[:, 1], pick[:, 2]].astype(np.float64)
    labels = mask.labels[pick[:, 0], pick[:, 1], pick[:, 2]]
    return GaussianSet(centers, rotations, log_scales, intensities, labels)


@dataclass
class DensifyConfig:
    """Thresholds for periodic clone/split/prune of Gaussians.

    grad_threshold   mean positional-gradient magnitude that triggers growth
    size_threshold   max-axis sigma separating clone (small) from split (large)
    split_factor     children of a split get scales divided by this
    intensity_floor  Gaussians with |I| below this are removed
    """

    grad_threshold: float = 2e-4
    size_threshold: float = 0.01
    split_factor: float = 1.6
    intensity_floor: float = 1e-3


@dataclass
class DensifyResult:
    gaussians: GaussianSet
    kept: np.ndarray      # indices into the input set for surviving rows
    n_children: int       # new rows appended after the survivors


def densify_and_prune(gaussians, grad_mean, config):
    """One densification event.

    Gaussians whose accumulated mean positional-gradient magnitude exceeds
    ``grad_threshold`` are cloned (small ones) or split in two with reduced
    scales (large ones, judged by max-axis sigma); Gaussians with negligible
    intensity are pruned.  Children inherit labels.  The result lists
    survivors first (original order) so optimizer state can be remapped.
    """
    grad_mean = np.asarray(grad_mean, dtype=np.float64)
    if grad_mean.shape != (gaussians.count,):
        raise ValidationError("gradient accumulator must be one value per Gaussian")
    alive = np.abs(gaussians.intensities) >= config.intensity_floor
    hot = alive & (grad_mean > config.grad_threshold)
    sigma_max = np.exp(gaussians.log_scales).max(axis=1)
    clone = hot & (sigma_max <= config.size_threshold)
    split = hot & (sigma_max > config.size_threshold)
    kept = np.flatnonzero(alive & ~split)
    if kept.size == 0 and not np.any(split):
        raise ValidationError("densify/prune would remove every Gaussian")

    def rows(mask):
        i = np.flatnonzero(mask)
        return (gaussians.centers[i], gaussians.rotations[i],
                gaussians.log_scales[i], gaussians.intensities[i],
                None if gaussians.labels is None else gaussians.labels[i])

    parts = [rows(np.isin(np.arange(gaussians.count), kept))]
    if np.any(clone):
        parts.append(rows(clone))
    if np.any(split):
        c, r, ls, inten, lab = rows(split)
        q_hat, _, _ = canonicalize_quaternions(r)
        R = quaternions_to_matrices(q_hat)
        axis = np.argmax(ls, axis=1)
        sig = np.exp(ls[np.arange(len(axis)), axis])
        direction = R[np.arange(len(axis)), :, axis]
        offset = direction * (0.5 * sig)[:, None]
        ls_child = ls - np.log(config.split_factor)
        for side in (+1.0, -1.0):
            parts.append((c + side * offset, r.copy(), ls_child.copy(),
                          inten.copy(), None if lab is None else lab.copy()))
    centers = np.concatenate([p[0] for p in parts])
    rotations = np.concatenate([p[1] for p in parts])
    log_scales = np.concatenate([p[2] for p in parts])
    intensities = np.concatenate([p[3] for p in parts])
    labels = None
    if gaussians.labels is not None:
        labels = np.concatenate([p[4] for p in parts])
    out = GaussianSet(centers, rotations, log_scales, intensities, labels)
    return DensifyResult(out, kept=kept, n_children=out.count - kept.size)


# ---------------------------------------------------------------------------
# Serialization (.gjson manifest + raw payload)
# ---------------------------------------------------------------------------

_FIELDS = ["centers", "rotations", "log_scales", "intensities"]


def save_gaussians(gaussians, path):
    """Write the set as f32le arrays concatenated in field order, labels (u8)
    last.  Round trips are bit-exact at f32 precision."""
    arrays = [getattr(gaussians, f).astype("<f4") for f in _FIELDS]
    fields = list(_FIELDS)
    if gaussians.labels is not None:
        arrays.append(gaussians.labels.astype("u1"))
        fields.append("labels")
    manifest = {"count": int(gaussians.count), "fields": fields, "dtype": "f32le"}
    _write_container(path, ".gjson", manifest, arrays)


def _parse_gaussians(manifest, payload):
    n, fields = manifest["count"], manifest["fields"]
    if fields not in (_FIELDS, _FIELDS + ["labels"]):
        raise ValidationError(f"fields must be {_FIELDS}, optionally + labels; got {fields!r}")
    arrays = [payload.take("<f4", shape) for shape in ((n, 3), (n, 4), (n, 3), (n,))]
    labels = payload.take("u1", (n,)).copy() if "labels" in fields else None
    return GaussianSet(*arrays, labels)


def load_gaussians(path):
    required = {"count": "int", "fields": "list", "dtype": ["f32le"]}
    return _read_container(path, ".gjson", required, _parse_gaussians)
