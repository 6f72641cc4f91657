"""Anisotropic 3D Gaussian volume representation and its differentiable renderer.

A volume is modeled as N Gaussians, each with a center in the normalized
unit cube, a quaternion rotation, per-axis log standard deviations and a
scalar intensity.  The covariance factorizes as ``sigma = R S S^T R^T`` with
``S = diag(exp(log_scales))``, so positivity is structural and the optimizer
can take unconstrained steps.  Rendering sums each Gaussian's density over
the voxels inside its cutoff radius; the backward pass returns exact
analytic partials for all four parameter groups.

Gaussians of one support-box shape share its offsets o from the box middle:
with b the middle minus the center, q = (b + o)^T P (b + o) is the product of
[b^T P b, 2 P b, upper P with doubled off-diagonals] with the offset moments
[1, o, o_i o_j].  The backward pass sums dL/dV against the same moments, so
the forward cache holds exp(-q/2) (float64) and the voxel index (int32, so
12 bytes a pair; int64 on a grid of 2^31 voxels or more) per Gaussian-voxel
pair, each chunk's reached offset moments, and per render the live
Gaussians' b, P, R and unit quaternions.  Each box
shape's offsets and moments are built once per process (``_box_geometry``,
read-only).  A shape's Gaussians run in cache-sized chunks (``_CHUNK_ELEMS``
box pairs).  A chunk tests its box offsets against its cutoff spheres with
the Gaussians innermost and keeps only the offsets some Gaussian reaches:
voxel indices, product, exponential, scatter and the backward's gather and
sums run on those columns alone.  A cached render writes every chunk's
exponentials and voxel indices into two buffers of a ``RenderWorkspace``,
which a fit keeps across its renders: the cache lives until the next render
on the same workspace.  The backward's covariance chain runs once
per render over every Gaussian with a non-empty box.  A set with a scale at
0 or infinity (a non-finite precision) raises NumericalAbort.

Quaternions are stored unconstrained and normalized (q and -q give one
rotation) inside the one covariance build; gradients chain through that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbort, ValidationError
from .volgrid import (_axis_denoms, _check_kinds, _read_container, _write_container,
                      voxel_centers_normalized)

# Box pairs per renderer chunk, a cache size (the sphere test's r^2 is 1 MB),
# not a memory cap: 2^17-2^20 tie on 64^3 sets, 2^17 is fastest at 128^3.
_CHUNK_ELEMS = 2 ** 17
# Largest M*N*K of one chunk product.  OpenBLAS runs a GEMM this small on
# one thread (its cut-off is 4 x 65536) and splits larger ones across
# threads, which changes the bits of the sums; the chunk products run in
# row blocks within it, so renders do not depend on the BLAS thread count.
_GEMM_MNK = 2 ** 18
# cutoff radius in standard deviations along a Gaussian's longest axis
CUTOFF_MULTIPLIER = 3.0
_FIELDS = ["centers", "rotations", "log_scales", "intensities"]
# upper-triangle pairs (i <= j) and the offset-moment column of each (i, j)
_IU = np.triu_indices(3)
_SYM = np.array([[4, 5, 6], [5, 7, 8], [6, 8, 9]])


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
        for f in _FIELDS:
            setattr(self, f, np.asarray(getattr(self, f), dtype=np.float64))
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

    def take(self, rows):
        """A new set holding copies of the given rows, in their order, with
        their labels when this set has them."""
        return GaussianSet(*(getattr(self, f)[rows] for f in _FIELDS),
                           None if self.labels is None else self.labels[rows])

    def copy(self):
        return self.take(np.arange(self.count))


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
    """Return (q_hat, norm): unit quaternions plus the norms needed to chain
    gradients back to the raw storage.  The sign is kept: every entry of
    quaternions_to_matrices is a product of two components, so q and -q give
    the same matrix bit for bit."""
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    norm = np.linalg.norm(q, axis=1)
    if np.any(norm == 0):
        raise ValidationError("cannot canonicalize a zero quaternion")
    return q / norm[:, None], norm


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
    """Vectorized covariance build: (q, R, s, inverse, radii) for all
    Gaussians, q = (q_hat, norm) from canonicalize_quaternions.  A cutoff of
    ``np.inf`` gives infinite radii (no cutoff).

    The inverse uses the factorization directly (R S^-2 R^T, as a sum of
    per-axis outer products), so it is exact for any finite log_scales.
    """
    q = canonicalize_quaternions(gaussians.rotations)
    R = quaternions_to_matrices(q[0])
    s = np.exp(gaussians.log_scales)
    Rw = R / (s * s)[:, None, :]
    inv = sum(Rw[:, :, None, k] * R[:, None, :, k] for k in range(3))
    return q, R, s, inv, cutoff_multiplier * s.max(axis=1)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _support_boxes(centers, radii, dims):
    """Per-Gaussian index bounding box of voxels possibly inside the cutoff
    sphere.  Returns (lo, hi) int arrays; empty boxes have hi < lo, as for
    a sphere wholly past either face of an axis."""
    denoms = _axis_denoms(dims)
    dims_arr = np.asarray(dims)
    r = radii[:, None]
    # clipped before the cast, so a huge or infinite radius is the whole grid
    lo = np.ceil(np.clip((centers - r) * denoms - 1e-9, 0, dims_arr)).astype(np.int64)
    hi = np.floor(np.clip((centers + r) * denoms + 1e-9, -1, dims_arr - 1)).astype(np.int64)
    return lo, hi


def _index_dtype(dims):
    """Dtype of the renderer's flat voxel indices on a grid of ``dims``,
    decided from the dims alone: int32, or int64 from 2^31 voxels on (a
    16 GiB float64 volume), where an index can pass 2^31 - 1."""
    return np.int32 if math.prod(dims) < 2 ** 31 else np.int64


@functools.lru_cache(maxsize=256)
def _box_geometry(bshape, dims):
    """Read-only geometry of one support-box shape on one grid: flat voxel
    offsets (B,) of the grid's index dtype, per-axis offsets (n_i,) and the
    offset moments ``feats`` (B, 10) = [1, o, o_i o_j], o measured from the
    box middle."""
    denoms = _axis_denoms(dims)
    bshape = np.array(bshape)
    offs = np.stack(np.meshgrid(*[np.arange(n) for n in bshape],
                                indexing="ij"), axis=-1).reshape(-1, 3)
    flat_off = ((offs[:, 0] * dims[1] + offs[:, 1]) * dims[2]
                + offs[:, 2]).astype(_index_dtype(dims))
    axes = tuple(np.arange(n) / denoms[i] for i, n in enumerate(bshape))
    o = offs / denoms - (bshape - 1) / 2 / denoms
    feats = np.concatenate([np.ones((len(o), 1)), o, o[:, _IU[0]] * o[:, _IU[1]]], axis=1)
    for a in (flat_off, feats, *axes):
        a.setflags(write=False)
    return flat_off, axes, feats


def _blocked_matmul(a, b, out):
    """a @ b into ``out`` in row blocks of at most _GEMM_MNK multiply-adds.
    When one row alone is over it (more than 26,214 reached voxels),
    einsum's own loop, which does not call BLAS, computes the product."""
    step = _GEMM_MNK // max(1, b.shape[0] * b.shape[1])
    if step == 0:
        return np.einsum("ik,kn->in", a, b, out=out)
    for i in range(0, a.shape[0], step):
        np.matmul(a[i:i + step], b, out=out[i:i + step])
    return out


class RenderWorkspace:
    """The buffers a cached render writes its cache into, kept across renders:
    ``e`` (float64 exponentials) and ``flat`` (voxel indices of the grid's
    index dtype, int32 below 2^31 voxels), one block of 12 bytes a pair
    with int32.
    The cache of a render on a workspace is views into them, so it is valid
    until the next render on the same workspace.  A render that needs more
    pairs than they hold, or another index dtype, replaces both with buffers
    of exactly its need; one that needs no more writes into their first
    elements."""

    def __init__(self):
        self.e, self.flat = np.empty(0), np.empty(0, dtype=np.int32)

    def take(self, pairs, index_dtype):
        """Views of the first ``pairs`` elements of both buffers."""
        if pairs > self.e.size or self.flat.dtype != index_dtype:
            # dropped first, so a caller holding no old cache frees them
            # before the new ones are made.  One block holds both: glibc
            # hands the free heap top back once it exceeds twice the largest
            # mapped block freed so far, and this block, the largest a fit
            # frees, sets that bound, so what a fit frees at its end mostly
            # stays in the heap for the next fit.  Two smaller blocks lower
            # the bound, and more is handed back and faulted in again.
            self.e = self.flat = None
            both = np.empty(pairs * (8 + np.dtype(index_dtype).itemsize), dtype=np.uint8)
            self.e = both[:8 * pairs].view(np.float64)
            self.flat = both[8 * pairs:].view(index_dtype)
        return self.e[:pairs], self.flat[:pairs]


def _iter_support_chunks(gaussians, dims, cutoff_multiplier, workspace=None):
    """Group Gaussians by support-box shape; yield the forward cache chunk by
    chunk: (rows, flat, feats, e, live).  ``live`` = (order, base, inv, R, q)
    is built once per render: the Gaussians with a non-empty box, grouped by
    shape, with their box middles minus centers, precisions, rotations and
    unit quaternions with their norms (q_hat, norm).  ``rows`` slices it to the
    chunk; of the chunk's box offsets only the C that some of its Gaussians
    reach are kept, with (G, C) voxel indices ``flat``, (C, 10) offset
    moments ``feats`` and (G, C) exponentials ``e``, zero off the sphere.

    Without a workspace each chunk's ``flat`` and ``e`` are its own arrays,
    freed once the caller drops the chunk.  With one, every chunk's sphere
    test runs first, keeping its reached columns and (G, C) in-sphere mask;
    then ``flat`` and ``e`` are written as views into ``workspace.take`` of
    the summed G * C, valid until the next render on that workspace."""
    denoms = _axis_denoms(dims)
    q, R, s, inv, radii = _covariance_batch(gaussians, cutoff_multiplier)
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(inv))):
        raise NumericalAbort("non-finite precision: a Gaussian scale is 0 or infinite")
    lo, hi = _support_boxes(gaussians.centers, radii, dims)
    shape = hi - lo + 1
    order = np.flatnonzero(np.all(shape > 0, axis=1))
    if order.size == 0:
        return
    # stable grouping by box shape (packed key, 1 <= shape <= dims) keeps
    # accumulation order deterministic
    key = (shape[order, 0] * (dims[1] + 1) + shape[order, 1]) * (dims[2] + 1) + shape[order, 2]
    order = order[np.argsort(key, kind="stable")]
    shape, lo = shape[order], lo[order]
    corner = lo / denoms - gaussians.centers[order]
    base, P = corner + (shape - 1) / 2 / denoms, inv[order]
    Pb = np.einsum("gij,gj->gi", P, base)
    # coef . feats = -q/2 (see the module docstring); halving is exact
    coef = np.concatenate([-0.5 * np.einsum("gi,gi->g", base, Pb)[:, None], -Pb,
                           P[:, _IU[0], _IU[1]] * [-.5, -1, -1, -.5, -1, -.5]], 1)
    r2_max = radii[order] ** 2
    index_dtype = _index_dtype(dims)
    flat_lo = ((lo[:, 0] * dims[1] + lo[:, 1]) * dims[2] + lo[:, 2]).astype(index_dtype)
    live = (order, base, P, R[order], tuple(a[order] for a in q))
    bounds = np.flatnonzero(np.any(np.diff(shape, axis=0) != 0, axis=1)) + 1

    def sphere_tests():
        for first, stop in zip(np.r_[0, bounds], np.r_[bounds, order.size]):
            flat_off, axes, feats = _box_geometry(tuple(shape[first].tolist()), dims)
            step = max(1, _CHUNK_ELEMS // flat_off.size)
            for start in range(first, stop, step):
                rows = slice(start, min(start + step, stop))
                # exact r^2 from per-axis squares summed (x + y) + z, so voxels
                # on the cutoff sphere fall on the same side in every render;
                # Gaussians innermost: (n_i, G) squares, (nx, ny, nz, G) sums
                x, y, z = ((corner[rows, i] + axes[i][:, None]) ** 2 for i in range(3))
                r2 = (x[:, None, None] + y[:, None]) + z
                inside = (r2 <= r2_max[rows]).reshape(flat_off.size, -1)
                cols = np.flatnonzero(inside.any(axis=1))
                yield rows, flat_off[cols], feats[cols], inside[cols].T

    tests = sphere_tests()
    if workspace is not None:
        tests = list(tests)
        e_all, flat_all = workspace.take(sum(mask.size for *_, mask in tests), index_dtype)
    at = 0
    for rows, offs, fc, mask in tests:
        if workspace is None:
            e, flat = np.empty(mask.shape), np.empty(mask.shape, dtype=index_dtype)
        else:
            e, flat = (a[at:at + mask.size].reshape(mask.shape) for a in (e_all, flat_all))
            at += mask.size
        np.add(flat_lo[rows, None], offs, out=flat)
        _blocked_matmul(coef[rows], fc.T, out=e)
        np.exp(e, out=e)
        e *= mask
        yield rows, flat, fc, e, live


def _scatter(gaussians, out, chunks):
    """Add each chunk's weighted exponentials into ``out``, in chunk order."""
    for rows, flat, _, e, live in chunks:
        vals = gaussians.intensities[live[0][rows]][:, None] * e
        np.add.at(out.reshape(-1), flat.ravel(), vals.ravel())
    return out


def render_with_cache(gaussians, dims, cutoff_multiplier=CUTOFF_MULTIPLIER, workspace=None):
    """Forward render plus the per-chunk intermediates the backward pass
    needs (see _iter_support_chunks).  Sharing the cache guarantees forward
    and backward use the identical cutoff set.  The cache's exponentials
    and voxel indices are views into ``workspace``'s buffers (a
    RenderWorkspace; without one, into buffers of exactly the render's need
    made for it), so the cache is valid until the next render on the same
    workspace."""
    dims = tuple(int(d) for d in dims)
    out = np.zeros(dims)
    chunks = list(_iter_support_chunks(gaussians, dims, cutoff_multiplier,
                                       RenderWorkspace() if workspace is None else workspace))
    return _scatter(gaussians, out, chunks), chunks


def render_values(gaussians, dims, cutoff_multiplier=CUTOFF_MULTIPLIER):
    """Sum of Gaussian densities at every voxel center; returns an array of
    shape ``dims`` (float64).  Accumulation order is fixed, so results are
    reproducible run to run.  Each chunk is dropped once added: no cache."""
    dims = tuple(int(d) for d in dims)
    out = np.zeros(dims)
    return _scatter(gaussians, out, _iter_support_chunks(gaussians, dims, cutoff_multiplier))


def render_values_bruteforce(gaussians, dims):
    """All-pairs reference renderer: no cutoff, independent covariance path
    (dense matrix products and np.linalg.inv).  Used as the oracle in
    equivalence tests; slow on purpose."""
    dims = tuple(int(d) for d in dims)
    pts = voxel_centers_normalized(dims).reshape(-1, 3)
    out = np.zeros(pts.shape[0])
    q_hat, _ = canonicalize_quaternions(gaussians.rotations)
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


def render_backward(gaussians, dims, upstream, cache):
    """Analytic adjoint of render_values.

    ``upstream`` is dL/dV per voxel (shape ``dims``) and ``cache`` the
    second result of ``render_with_cache`` on the same set and grid, with
    no render on its workspace since; the backward reads it alone, so it
    sums over the forward's cutoff set.
    Returns exact partials w.r.t. centers, raw quaternions, log_scales and
    intensities.
    """
    dims = tuple(int(d) for d in dims)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != dims:
        raise ValidationError("upstream gradient shape must match the grid")
    grads = RenderGradients.zeros(gaussians.count)
    if not cache:
        return grads
    # the chain runs over the live rows; Gaussians with an empty box keep 0
    order, base, inv, R, (q_hat, q_norm) = cache[0][4]
    up = upstream.ravel()
    # moments of dL/dV * exp term against [1, o, o_i o_j]
    m = np.empty((order.size, 10))
    # the gather runs on intp indices, copied chunk by chunk into one buffer:
    # np.take is slow with int32 ones, and up[flat] converts them itself
    at = np.empty(max(flat.size for _, flat, *_ in cache), dtype=np.intp)
    for rows, flat, feats, e, _ in cache:
        idx = at[:flat.size].reshape(flat.shape)
        idx[...] = flat
        _blocked_matmul(np.take(up, idx) * e, feats, out=m[rows])
    grads.intensities[order] += m[:, 0]
    m *= gaussians.intensities[order][:, None]          # now of dL/dV * G value
    s0, s1, s2 = m[:, 0], m[:, 1:4], m[:, _SYM]
    # sum of w (b + o) and of w (b + o)(b + o)^T, w = dL/dV * G value
    wd = base * s0[:, None] + s1
    grads.centers[order] += np.einsum("gij,gj->gi", inv, wd)
    gP = -0.5 * (base[:, :, None] * wd[:, None, :]
                 + s1[:, :, None] * base[:, None, :] + s2)
    # P = R S^-2 R^T: dL/dR = -2 P gP R and d log s_k = sum_i R_ik (dL/dR)_ik,
    # then R -> q_hat -> raw quaternions
    gR = -2.0 * np.matmul(inv, np.matmul(gP, R))
    grads.log_scales[order] += np.einsum("gik,gik->gk", R, gR)
    g_qhat = _rotmat_backward(q_hat, gR)
    radial = np.einsum("gc,gc->g", q_hat, g_qhat)
    grads.rotations[order] += (1.0 / q_norm)[:, None] * (
        g_qhat - q_hat * radial[:, None])
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


# max-axis sigma (normalized units) separating clone (small) from split
# (large), and the factor the children of a split divide their scales by
SIZE_THRESHOLD, SPLIT_FACTOR = 0.01, 1.6


@dataclass
class DensifyConfig:
    """Thresholds for periodic clone/split/prune of Gaussians.

    grad_threshold   mean positional-gradient magnitude that triggers growth (> 0)
    intensity_floor  Gaussians with |I| below this are removed (>= 0)
    """

    grad_threshold: float = 2e-4
    intensity_floor: float = 1e-3

    def __post_init__(self):
        _check_kinds(self)
        if not (self.grad_threshold > 0 and self.intensity_floor >= 0):
            raise ValidationError(
                "densify thresholds must be grad_threshold > 0 and intensity_floor >= 0,"
                f" got {self.grad_threshold} and {self.intensity_floor}")


@dataclass
class DensifyResult:
    gaussians: GaussianSet
    kept: np.ndarray      # indices into the input set for surviving rows
    n_children: int       # new rows appended after the survivors


def densify_and_prune(gaussians, grad_mean, config):
    """One densification event.

    Gaussians whose accumulated mean positional-gradient magnitude exceeds
    ``grad_threshold`` are cloned (max-axis sigma up to SIZE_THRESHOLD) or
    split in two with scales divided by SPLIT_FACTOR (larger ones);
    Gaussians with negligible intensity are pruned.  Children inherit
    labels.  The result lists survivors first (original order) so optimizer
    state can be remapped.
    """
    grad_mean = np.asarray(grad_mean, dtype=np.float64)
    if grad_mean.shape != (gaussians.count,):
        raise ValidationError("gradient accumulator must be one value per Gaussian")
    alive = np.abs(gaussians.intensities) >= config.intensity_floor
    hot = alive & (grad_mean > config.grad_threshold)
    sigma_max = np.exp(gaussians.log_scales).max(axis=1)
    clone = hot & (sigma_max <= SIZE_THRESHOLD)
    split = hot & (sigma_max > SIZE_THRESHOLD)
    kept = np.flatnonzero(alive & ~split)
    split = np.flatnonzero(split)
    if kept.size == 0 and split.size == 0:
        raise ValidationError("densify/prune would remove every Gaussian")
    out = gaussians.take(np.concatenate([kept, np.flatnonzero(clone), split, split]))
    # a split parent's children sit half its longest sigma from it along
    # that axis, on the + side first, then on the - side
    ls = gaussians.log_scales[split]
    R = quaternions_to_matrices(canonicalize_quaternions(gaussians.rotations[split])[0])
    axis = np.argmax(ls, axis=1)
    sig = np.exp(ls[np.arange(len(axis)), axis])
    offset = R[np.arange(len(axis)), :, axis] * (0.5 * sig)[:, None]
    children = slice(out.count - 2 * split.size, out.count)
    out.centers[children] += np.concatenate([offset, -offset])
    out.log_scales[children] -= np.log(SPLIT_FACTOR)
    return DensifyResult(out, kept=kept, n_children=out.count - kept.size)


# ---------------------------------------------------------------------------
# Serialization (.gjson manifest + raw payload)
# ---------------------------------------------------------------------------


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
