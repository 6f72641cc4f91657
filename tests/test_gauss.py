import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstrack import gauss as gauss_mod
from gausstrack.errors import ValidationError
from gausstrack.gauss import (
    DensifyConfig,
    GaussianSet,
    canonicalize_quaternions,
    densify_and_prune,
    initialize_from_mask,
    load_gaussians,
    render_backward,
    render_values,
    render_values_bruteforce,
    render_with_cache,
    save_gaussians,
)
from gausstrack.volgrid import LabelVolume, VoxelVolume, voxel_centers_normalized


def random_set(n, seed, spread=0.6, labels=True):
    rng = np.random.default_rng(seed)
    centers = 0.2 + spread * rng.random((n, 3))
    rotations = rng.normal(size=(n, 4))
    # keep |w| away from 0 so canonicalization is smooth under FD probing
    rotations[:, 0] = np.sign(rotations[:, 0]) * (np.abs(rotations[:, 0]) + 0.5)
    log_scales = np.log(rng.uniform(0.05, 0.25, (n, 3)))
    intensities = rng.uniform(0.2, 1.0, n)
    lab = rng.integers(1, 4, n).astype(np.uint8) if labels else None
    return GaussianSet(centers, rotations, log_scales, intensities, lab)


# --- covariance construction -------------------------------------------------

def covariances(rotations, log_scales, cutoff_multiplier=3.0):
    """(sigma, inverse, radii) per row from _covariance_batch, the covariance
    build the renderer runs, sigma as R S S^T R^T from its R and scales."""
    rotations = np.atleast_2d(np.asarray(rotations, dtype=np.float64))
    n = len(rotations)
    g = GaussianSet(np.zeros((n, 3)), np.ones((n, 4)), np.reshape(log_scales, (n, 3)), np.ones(n))
    g.rotations = rotations  # past the set's own zero-quaternion check
    _, R, s, inv, radii = gauss_mod._covariance_batch(g, cutoff_multiplier)
    M = R * s[:, None, :]
    return M @ M.transpose(0, 2, 1), inv, radii


def dense_sigma(q, log_scale):
    """Independent oracle: R from the normalized quaternion written out, then
    R S S^T R^T by dense products."""
    w, x, y, z = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    R = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    S = np.diag(np.exp(log_scale))
    return R @ S @ S.T @ R.T


def test_covariance_isotropic():
    s = 0.3
    sigma, inv, radii = covariances([1, 0, 0, 0], np.log(s) * np.ones(3))
    assert np.allclose(sigma[0], s**2 * np.eye(3), atol=1e-15)
    assert np.allclose(inv[0], np.eye(3) / s**2, atol=1e-12)
    assert radii[0] == pytest.approx(3 * s)


def test_covariance_90deg_rotation_permutes_axes():
    a, b, c = 0.1, 0.2, 0.4
    q = [np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)]  # 90 degrees about z
    sigma, _, radii = covariances(q, np.log([a, b, c]))
    assert np.allclose(sigma[0], np.diag([b**2, a**2, c**2]), atol=1e-15)
    assert radii[0] == pytest.approx(3 * c)


def test_covariance_matches_dense_oracle():
    rng = np.random.default_rng(11)
    q = rng.normal(size=(20, 4))
    ls = np.log(rng.uniform(0.02, 0.5, (20, 3)))
    sigma, inv, radii = covariances(q, ls)
    for i in range(20):
        want = dense_sigma(q[i], ls[i])
        assert np.max(np.abs(sigma[i] - want)) < 1e-12
        assert np.max(np.abs(inv[i] - np.linalg.inv(want))) < 1e-9
    assert np.array_equal(radii, 3 * np.exp(ls).max(axis=1))


def test_quaternion_sign_and_scale_invariance():
    rng = np.random.default_rng(4)
    q = rng.normal(size=4)
    sigma, inv, _ = covariances([q, -q, 2 * q, -3.7 * q], np.tile(np.log([0.1, 0.2, 0.3]), (4, 1)))
    assert np.max(np.abs(sigma[1:] - sigma[0])) < 1e-12
    assert np.max(np.abs(inv[1:] - inv[0])) < 1e-9


def test_zero_quaternion_rejected():
    with pytest.raises(ValidationError, match="zero quaternion"):
        covariances([[1, 0, 0, 0], [0, 0, 0, 0]], np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="zero quaternion"):
        GaussianSet(np.zeros((1, 3)), np.zeros((1, 4)), np.zeros((1, 3)), np.ones(1))


@pytest.mark.parametrize("call,match", [
    (lambda: GaussianSet(np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 3)), np.zeros(0)),
     "at least one Gaussian"),
    (lambda: GaussianSet(np.zeros((2, 3)), np.ones((2, 4)), np.zeros((2, 2)), np.zeros(2)),
     "inconsistent GaussianSet array shapes"),
    (lambda: GaussianSet(np.zeros((2, 3)), np.ones((2, 4)), np.zeros((2, 3)), np.zeros(2),
                         np.ones(3)),
     "labels must be one per Gaussian"),
    (lambda: canonicalize_quaternions([[1.0, 0, 0, 0], [0, 0, 0, 0]]),
     "cannot canonicalize a zero quaternion"),
    (lambda: render_backward(random_set(3, seed=1), (6, 6, 6), np.zeros((6, 6, 5)),
                             render_with_cache(random_set(3, seed=1), (6, 6, 6))[1]),
     "upstream gradient shape must match the grid"),
    (lambda: initialize_from_mask(LabelVolume((4, 4, 4), (1, 1, 1), np.ones((4, 4, 4))),
                                  VoxelVolume((4, 4, 5), (1, 1, 1), np.ones((4, 4, 5))), 2, 0),
     "mask and reference volume dims differ"),
    (lambda: densify_and_prune(random_set(3, seed=1), np.zeros(4), DensifyConfig()),
     "gradient accumulator must be one value per Gaussian"),
])
def test_gauss_guards_refuse_bad_arguments(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_covariance_positive_definite(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    if np.linalg.norm(q) < 1e-3:
        q = np.array([1.0, 0, 0, 0])
    sigma, inv, _ = covariances(q, rng.uniform(-5, 2, 3))
    assert np.linalg.eigvalsh(sigma[0]).min() > 0
    assert np.linalg.eigvalsh(inv[0]).min() > 0


# --- density at a point: the uncut render at voxel centres --------------------

def one_gaussian(center, rot, log_scale, intensity):
    return GaussianSet(np.reshape(center, (1, 3)), np.reshape(rot, (1, 4)),
                       np.reshape(log_scale, (1, 3)), np.array([intensity]))


def test_eval_at_center_is_intensity():
    g = one_gaussian([0.5, 0.5, 0.5], [1, 0, 0, 0], np.log([0.1, 0.2, 0.3]), 0.7)
    v = render_values(g, (9, 9, 9), cutoff_multiplier=np.inf)[4, 4, 4]
    assert v == pytest.approx(0.7, abs=1e-15)


def test_eval_at_one_sigma_isotropic():
    s = 0.25  # two voxels of the 9^3 grid
    g = one_gaussian([0.5, 0.5, 0.5], [1, 0, 0, 0], np.log(s) * np.ones(3), 1.0)
    v = render_values(g, (9, 9, 9), cutoff_multiplier=np.inf)[6, 4, 4]
    assert v == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_eval_anisotropic_matches_quadratic_form_oracle():
    rng = np.random.default_rng(9)
    center = rng.random(3)
    q = rng.normal(size=4)
    ls = np.log(rng.uniform(0.05, 0.4, 3))
    dims = (7, 6, 5)
    got = render_values(one_gaussian(center, q, ls, 1.3), dims, cutoff_multiplier=np.inf)
    d = voxel_centers_normalized(dims).reshape(-1, 3) - center
    qf = np.einsum("bi,bi->b", d, np.linalg.solve(dense_sigma(q, ls), d.T).T)
    want = 1.3 * np.exp(-0.5 * qf)
    assert np.all(np.abs(got.ravel() - want) <= 1e-12 * want)


# --- rendering ---------------------------------------------------------------

def test_render_empty_influence_is_zero():
    g = GaussianSet(np.full((3, 3), 5.0), np.tile([1.0, 0, 0, 0], (3, 1)),
                    np.log(0.01) * np.ones((3, 3)), np.ones(3))
    out = render_values(g, (8, 8, 8), cutoff_multiplier=3.0)
    assert np.all(out == 0)


def test_render_single_gaussian_at_voxel_center():
    # center exactly on voxel (2,3,1) of a 5^3 grid
    dims = (5, 5, 5)
    c = np.array([2 / 4, 3 / 4, 1 / 4])
    g = GaussianSet(c[None, :], [[1, 0, 0, 0]], np.log(0.08) * np.ones((1, 3)),
                    [0.9])
    out = render_values(g, dims)
    assert out[2, 3, 1] == pytest.approx(0.9, rel=1e-12)


def test_render_matches_bruteforce():
    # cutoff-3 truncation neglects tails of order exp(-4.5) ~ 1.1e-2 of a
    # boundary Gaussian's amplitude, so the absolute 1e-3 bound pins down the
    # scene amplitude scale
    g = random_set(32, seed=7, labels=False)
    g.intensities = 0.02 * g.intensities
    dims = (16, 16, 16)
    exact = render_values_bruteforce(g, dims)
    with_cut = render_values(g, dims, cutoff_multiplier=3.0)
    no_cut = render_values(g, dims, cutoff_multiplier=np.inf)
    assert np.max(np.abs(no_cut - exact)) < 1e-12
    assert np.max(np.abs(with_cut - exact)) < 1e-3


def test_render_cutoff_beyond_diagonal_is_exact():
    g = random_set(8, seed=3, labels=False)
    dims = (6, 7, 5)
    # sigma max ~0.25 => multiplier 40 pushes every radius past the diagonal,
    # so the cutoff excludes nothing and the disabled-cutoff render matches
    # bit for bit; the independent oracle agrees to float accumulation order
    a = render_values(g, dims, cutoff_multiplier=40.0)
    assert np.array_equal(a, render_values(g, dims, cutoff_multiplier=np.inf))
    assert np.max(np.abs(a - render_values_bruteforce(g, dims))) < 1e-12


@pytest.mark.parametrize("cutoff", [1e19, 1e20, 1e100])
def test_render_huge_finite_cutoff_is_the_whole_grid(cutoff):
    # a box bound past the int64 range is clipped to the grid before the
    # integer cast, not wrapped, so it renders as the disabled cutoff does
    g = random_set(8, seed=3, labels=False)
    dims = (6, 7, 5)
    a = render_values(g, dims, cutoff_multiplier=cutoff)
    assert a.sum() > 0
    assert np.array_equal(a, render_values(g, dims, cutoff_multiplier=np.inf))


def test_render_linear_in_intensities():
    g = random_set(12, seed=5, labels=False)
    scaled = g.copy()
    scaled.intensities = 3.25 * g.intensities
    a = render_values(g, (9, 9, 9))
    b = render_values(scaled, (9, 9, 9))
    assert np.max(np.abs(b - 3.25 * a)) < 1e-10


def test_render_volume_wraps_geometry():
    # the render command's path: values over the grid's dims, wrapped with the
    # grid's own spacing (anisotropic and non-cubic here)
    g = random_set(4, seed=1, labels=False)
    grid = VoxelVolume((6, 7, 5), (1.5, 1.5, 3.0), np.zeros((6, 7, 5)))
    values = render_values(g, grid.dims)
    out = VoxelVolume(grid.dims, grid.spacing, values)
    assert out.dims == grid.dims and out.spacing == grid.spacing
    assert np.array_equal(out.values, values)


def _render_and_grads(g, dims, upstream):
    values, cache = render_with_cache(g, dims)
    grads = render_backward(g, dims, upstream, cache)
    return [values] + [getattr(grads, f) for f in
                                       ("centers", "rotations", "log_scales", "intensities")]


@pytest.mark.parametrize("chunk_elems", [1, 700])
def test_chunked_render_matches_default(monkeypatch, chunk_elems):
    # one scale for all, so many Gaussians share a box shape and each such
    # group is split across chunks when the chunk budget is small
    g = random_set(60, seed=21)
    g.log_scales[:] = np.log([0.06, 0.09, 0.12])
    dims = (14, 13, 12)
    upstream = loss_and_upstream(dims, seed=3)
    want = _render_and_grads(g, dims, upstream)
    default_chunks = len(render_with_cache(g, dims)[1])
    monkeypatch.setattr(gauss_mod, "_CHUNK_ELEMS", chunk_elems)
    assert len(render_with_cache(g, dims)[1]) > default_chunks
    for got, ref in zip(_render_and_grads(g, dims, upstream), want):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("chunk_elems", [1, 700])
def test_a_kept_workspace_renders_the_bits_of_fresh_buffers(monkeypatch, chunk_elems):
    monkeypatch.setattr(gauss_mod, "_CHUNK_ELEMS", chunk_elems)
    dims = (40, 38, 36)
    upstream = loss_and_upstream(dims, seed=5)
    # scales up to SIZE_THRESHOLD, so a hot Gaussian is cloned, not split
    g = random_set(30, seed=42)
    g.log_scales[:] = np.log(np.random.default_rng(43).uniform(0.006, 0.01, (30, 3)))
    grown = densify_and_prune(g, np.ones(g.count), DensifyConfig()).gaussians
    pruned = densify_and_prune(g, np.zeros(g.count), DensifyConfig(
        intensity_floor=float(np.median(g.intensities)))).gaussians
    gone = g.copy()
    gone.centers[:, 1] += 3.0                           # every box empty
    assert grown.count > g.count > pruned.count
    workspace, kept, needs = gauss_mod.RenderWorkspace(), None, []
    for step in (g, g, grown, pruned, gone, g):
        want = _render_and_grads(step, dims, upstream)
        values, cache = render_with_cache(step, dims, workspace=workspace)
        grads = render_backward(step, dims, upstream, cache)
        got = [values] + [getattr(grads, f) for f in
                          ("centers", "rotations", "log_scales", "intensities")]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert all(np.shares_memory(e, workspace.e) and np.shares_memory(flat, workspace.flat)
                   for _, flat, _, e, _ in cache)
        needs.append(sum(e.size for _, _, _, e, _ in cache))
        # the buffers are replaced, at exactly the need, only when it grows
        grows = needs[-1] > max(needs[:-1], default=0)
        if kept is not None:
            assert np.shares_memory(workspace.e, kept[0]) != grows
            assert np.shares_memory(workspace.flat, kept[1]) != grows
        assert workspace.e.size == workspace.flat.size == max(needs)
        kept = workspace.e, workspace.flat
    assert needs[0] == needs[1] == needs[-1] and needs[4] == 0
    assert needs[2] > needs[0] > needs[3] > 0


def _many_shapes_set():
    # scales from 1.5 to 6 voxels give many box shapes; a third of the
    # centers sit on or past a face, so those boxes are clipped, and the
    # last Gaussian is far outside, so its box is empty
    rng = np.random.default_rng(31)
    g = random_set(48, seed=32)
    g.log_scales[:] = np.log(rng.uniform(0.02, 0.08, (48, 3)))
    g.centers[np.arange(16), rng.integers(0, 3, 16)] = rng.choice([-0.03, 0.0, 1.0, 1.04], 16)
    g.centers[-1] = [0.5, -1.0, 0.5]
    return g


def test_many_box_shapes_equal_sums_of_single_gaussian_renders():
    g, dims = _many_shapes_set(), (21, 19, 17)
    upstream = loss_and_upstream(dims, seed=9)
    values, cache = render_with_cache(g, dims)
    grads = render_backward(g, dims, upstream, cache=cache)
    # one chunk or more per box shape, each with the moments of its own offsets
    assert len({id(feats) for _, _, feats, _, _ in cache}) >= 20
    assert g.count - 1 not in cache[0][4][0]            # not among the live rows
    want = [np.zeros(dims)] + [np.zeros_like(getattr(grads, f)) for f in
                               ("centers", "rotations", "log_scales", "intensities")]
    for i in range(g.count):
        solo = GaussianSet(*(getattr(g, f)[i:i + 1] for f in
                             ("centers", "rotations", "log_scales", "intensities")))
        parts = _render_and_grads(solo, dims, upstream)
        want[0] += parts[0]
        for ref, part in zip(want[1:], parts[1:]):
            ref[i] = part[0]
    got = [values] + [getattr(grads, f) for f in
                      ("centers", "rotations", "log_scales", "intensities")]
    for a, ref in zip(got, want):
        assert np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert all(np.all(a[-1] == 0) for a in got[1:])
    # the sum itself and its (Gaussian, voxel) pairs against a direct cutoff
    # render over every voxel
    pts = np.stack(np.meshgrid(*[np.arange(n) / (n - 1) for n in dims], indexing="ij"),
                   axis=-1).reshape(-1, 3)
    direct, want_pairs = np.zeros(len(pts)), set()
    for i in range(g.count):
        sigma = dense_sigma(g.rotations[i], g.log_scales[i])
        d = pts - g.centers[i]
        qf = np.einsum("bi,ij,bj->b", d, np.linalg.inv(sigma), d)
        inside = (d * d).sum(axis=1) <= (3 * np.exp(g.log_scales[i]).max()) ** 2
        direct += inside * g.intensities[i] * np.exp(-qf / 2)
        want_pairs |= {(i, v) for v in np.flatnonzero(inside).tolist()}
    assert np.max(np.abs(values.ravel() - direct)) <= 1e-12 * np.max(np.abs(direct))
    # a chunk keeps only the box offsets some of its Gaussians reach
    pairs = set()
    for rows, flat, feats, e, live in cache:
        assert e.shape == flat.shape == (rows.stop - rows.start, feats.shape[0])
        assert np.all(np.any(e != 0, axis=0))
        gi, col = np.nonzero(e)
        pairs |= set(zip(live[0][rows][gi].tolist(), flat[gi, col].tolist()))
    assert pairs == want_pairs


def test_forward_only_render_equals_the_cached_render_and_keeps_no_cache():
    g, dims = _many_shapes_set(), (21, 19, 17)
    assert render_values(g, dims).tobytes() == render_with_cache(g, dims)[0].tobytes()
    peaks = []
    for render in (render_values, render_with_cache):
        tracemalloc.start()
        try:
            render(g, dims)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]


def test_gaussian_reaching_no_voxel_of_its_box_renders_zero_with_zero_gradients():
    # radius 0.4 voxel, center 0.3 voxel from voxel (4, 4, 4) along each
    # axis: the box is that one voxel, 0.52 voxel away, outside the sphere
    dims = (9, 9, 9)
    lone = GaussianSet([[4.3 / 8] * 3], [[0.9, 0.1, -0.2, 0.3]],
                       np.log([[0.4 / 8 / 3] * 3]), [0.7])
    others = random_set(5, seed=12, labels=False)
    both = GaussianSet(*(np.concatenate([getattr(others, f), getattr(lone, f)]) for f in
                         ("centers", "rotations", "log_scales", "intensities")))
    upstream = loss_and_upstream(dims, seed=4)
    values, cache = render_with_cache(lone, dims)
    assert [e.shape for _, _, _, e, _ in cache] == [(1, 0)]     # live, nothing reached
    assert np.all(values == 0)
    assert np.array_equal(render_values(both, dims), render_values(others, dims))
    for g in (lone, both):
        grads = render_backward(g, dims, upstream, render_with_cache(g, dims)[1])
        for f in ("centers", "rotations", "log_scales", "intensities"):
            assert np.all(getattr(grads, f)[-1] == 0), f


@pytest.mark.parametrize("y", [-1.0, 2.0])
def test_gaussian_wholly_past_a_face_gets_an_empty_box(y):
    # cutoff radius at most 3 * 0.08 = 0.24: the sphere misses the grid past
    # the low face and past the high face alike, so neither face keeps a
    # one-voxel slab of pairs that are all masked to zero
    g = random_set(4, seed=5)
    g.log_scales[:] = np.log(0.08)
    g.centers[-1] = [0.5, y, 0.5]
    dims = (21, 19, 17)
    values, cache = render_with_cache(g, dims)
    assert set(cache[0][4][0]) == {0, 1, 2}                # the live rows
    grads = render_backward(g, dims, loss_and_upstream(dims, seed=9), cache=cache)
    for f in ("centers", "rotations", "log_scales", "intensities"):
        assert np.all(getattr(grads, f)[-1] == 0), f


def _render_bytes(g, dims):
    return b"".join(a.tobytes() for a in _render_and_grads(g, dims, loss_and_upstream(dims)))


def test_box_geometry_is_read_only_and_shared_renders_stay_exact():
    flat_off, axes, feats = gauss_mod._box_geometry((3, 4, 5), (10, 11, 12))
    for a in (flat_off, feats, *axes):
        with pytest.raises(ValueError):
            a[0] = 1
    dims = (16, 15, 14)
    b_set = random_set(40, seed=33)
    b_set.log_scales[:] = np.log(np.random.default_rng(34).uniform(0.04, 0.1, (40, 3)))
    a_set = b_set.copy()
    a_set.centers[::2] = a_set.centers[::-2] + 0.01    # overlapping box shapes
    a_set.intensities *= -2.0
    want = _render_bytes(b_set, dims)
    hits = gauss_mod._box_geometry.cache_info().hits
    _render_bytes(a_set, dims)
    assert gauss_mod._box_geometry.cache_info().hits > hits
    assert _render_bytes(b_set, dims) == want
    gauss_mod._box_geometry.cache_clear()
    assert _render_bytes(b_set, dims) == want


def test_lattice_tied_support_matches_per_axis_reference():
    # centers on voxels and a radius of exactly 3 voxels put voxels on the
    # cutoff sphere; the rendered support must match r^2 formed the direct
    # way: (box corner - center + offset), squares summed x, y, then z
    mask, ref = make_mask_and_reference(dims=(12, 12, 12), seed=4)
    g = initialize_from_mask(mask, ref, 60, seed=2)
    dims = mask.dims
    denoms = np.array([d - 1 for d in dims], dtype=np.float64)
    top = np.array(dims) - 1
    ties = 0
    for i in range(g.count):
        c = g.centers[i]
        solo = GaussianSet(c[None], g.rotations[i:i + 1], g.log_scales[i:i + 1], np.ones(1))
        r = 3.0 * np.exp(g.log_scales[i]).max()
        lo = np.clip(np.ceil((c - r) * denoms - 1e-9), 0, top).astype(int)
        hi = np.clip(np.floor((c + r) * denoms + 1e-9), -1, top).astype(int)
        offs = np.stack(np.meshgrid(*[np.arange(n) for n in hi - lo + 1], indexing="ij"),
                        axis=-1).reshape(-1, 3) / denoms
        d = (lo / denoms - c) + offs
        r2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
        ties += np.count_nonzero(np.isclose(r2, r * r, rtol=1e-9, atol=0))
        assert np.count_nonzero(render_values(solo, dims)) == np.count_nonzero(r2 <= r * r)
    assert ties > 0


_DETERMINISM_SCRIPT = """
import hashlib, numpy as np
from gausstrack.gauss import GaussianSet, render_backward, render_with_cache
rng = np.random.default_rng(17)
n, dims, lo, hi, s_lo, s_hi = {scene}
g = GaussianSet(rng.uniform(lo, hi, (n, 3)), rng.normal(size=(n, 4)),
                np.log(rng.uniform(s_lo, s_hi, (n, 3))), rng.uniform(-1, 1, n))
values, cache = render_with_cache(g, dims)
grads = render_backward(g, dims, rng.normal(size=dims), cache=cache)
h = hashlib.sha256(values.tobytes())
for f in ("centers", "rotations", "log_scales", "intensities"):
    h.update(getattr(grads, f).tobytes())
print(h.hexdigest())
"""


def test_render_bits_do_not_depend_on_blas_threads():
    src = str(Path(gauss_mod.__file__).resolve().parent.parent)
    # (count, dims, center range, scale range); the second scene's chunk
    # products reach about 1.1M multiply-adds, where a threaded OpenBLAS GEMM
    # sums in a different order than one thread; in the third, one Gaussian
    # reaches over 26,214 voxels, so its row products run in einsum
    big = (2, (40, 40, 40), 0.45, 0.55, 0.2, 0.25)
    for scene in [(1500, (28, 28, 28), 0, 1, 0.03, 0.08),
                  (600, (48, 48, 48), 0.2, 0.8, 0.03, 0.05), big]:
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            script = _DETERMINISM_SCRIPT.format(scene=scene)
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1], scene
    # the script's set for the third scene
    n, dims, lo, hi, s_lo, s_hi = big
    rng = np.random.default_rng(17)
    g = GaussianSet(rng.uniform(lo, hi, (n, 3)), rng.normal(size=(n, 4)),
                    np.log(rng.uniform(s_lo, s_hi, (n, 3))), rng.uniform(-1, 1, n))
    _, cache = render_with_cache(g, dims)
    assert max(feats.size for _, _, feats, _, _ in cache) > gauss_mod._GEMM_MNK
    exact = render_values_bruteforce(g, dims)
    assert np.max(np.abs(render_values(g, dims, cutoff_multiplier=np.inf) - exact)) < 1e-12
    # the cutoff-3 render drops at most exp(-4.5) of each amplitude
    assert np.max(np.abs(render_values(g, dims) - exact)) <= \
        np.abs(g.intensities).sum() * np.exp(-4.5)


# --- analytic backward vs finite differences ---------------------------------

def loss_and_upstream(dims, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=dims)


def fd_check(g, dims, upstream, attr, shape, h=1e-4, cutoff=np.inf):
    def loss(gs):
        return float(np.sum(upstream * render_values(gs, dims, cutoff)))

    analytic = render_backward(g, dims, upstream, render_with_cache(g, dims, cutoff)[1])
    got = getattr(analytic, attr)
    fd = np.zeros(shape)
    flat_param = getattr(g, attr)
    it = np.nditer(np.zeros(shape), flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = flat_param[i]
        flat_param[i] = orig + h
        lp = loss(g)
        flat_param[i] = orig - h
        lm = loss(g)
        flat_param[i] = orig
        fd[i] = (lp - lm) / (2 * h)
    err = np.abs(got - fd) / (np.maximum(np.abs(got), np.abs(fd)) + 1e-6)
    return np.max(err), got, fd


def test_backward_zero_upstream():
    g = random_set(5, seed=2, labels=False)
    grads = render_backward(g, (6, 6, 6), np.zeros((6, 6, 6)),
                            render_with_cache(g, (6, 6, 6))[1])
    assert np.all(grads.centers == 0) and np.all(grads.rotations == 0)
    assert np.all(grads.log_scales == 0) and np.all(grads.intensities == 0)


def test_backward_intensity_partial_at_center():
    dims = (5, 5, 5)
    c = np.array([2 / 4, 2 / 4, 2 / 4])
    g = GaussianSet(c[None, :], [[1, 0, 0, 0]], np.log(0.05) * np.ones((1, 3)), [0.5])
    upstream = np.zeros(dims)
    upstream[2, 2, 2] = 1.0
    grads = render_backward(g, dims, upstream, render_with_cache(g, dims, 3.0)[1])
    assert grads.intensities[0] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("attr,cols", [
    ("centers", 3), ("rotations", 4), ("log_scales", 3), ("intensities", None),
])
def test_backward_matches_finite_differences(attr, cols):
    g = random_set(8, seed=42)
    dims = (8, 8, 8)
    upstream = loss_and_upstream(dims, seed=1)
    shape = (g.count,) if cols is None else (g.count, cols)
    err, got, fd = fd_check(g, dims, upstream, attr, shape)
    assert err < 1e-4, f"{attr}: max rel err {err}"


@pytest.mark.parametrize("attr", ["rotations", "log_scales"])
def test_backward_matches_finite_differences_anisotropic(attr):
    # axis scales 1 : 1.7 : 3 on rotated Gaussians, where P = R S^-2 R^T is
    # far from isotropic, so a wrong product order or transpose in the
    # rotation and scale adjoint shows
    g = random_set(6, seed=44, labels=False)
    g.log_scales = np.log(np.random.default_rng(45).uniform(0.04, 0.06, (6, 1))
                          * [[1.0, 1.7, 3.0]])
    dims = (9, 9, 9)
    err, got, fd = fd_check(g, dims, loss_and_upstream(dims, seed=6), attr,
                            getattr(g, attr).shape)
    assert err < 1e-4, f"{attr}: max rel err {err}"


def test_backward_respects_cutoff_set():
    # forward and backward share the cutoff: with a finite cutoff the
    # intensity gradient only sums voxels inside the sphere
    g = random_set(6, seed=8, labels=False)
    dims = (10, 10, 10)
    upstream = np.ones(dims)
    grads = render_backward(g, dims, upstream, render_with_cache(g, dims, 3.0)[1])
    # oracle: d(sum V)/dI_i computed from rendering each Gaussian alone
    for i in range(g.count):
        solo = GaussianSet(g.centers[i:i + 1], g.rotations[i:i + 1],
                           g.log_scales[i:i + 1], np.ones(1))
        expect = render_values(solo, dims, cutoff_multiplier=3.0).sum()
        assert grads.intensities[i] == pytest.approx(expect, rel=1e-10)


def test_negated_quaternions_render_the_same_bits_and_negate_the_rotation_gradient():
    g = random_set(10, seed=46)
    neg = g.copy()
    neg.rotations = -g.rotations
    dims = (11, 10, 9)
    upstream = loss_and_upstream(dims, seed=5)
    (v, cache), (v_neg, cache_neg) = render_with_cache(g, dims), render_with_cache(neg, dims)
    grads = render_backward(g, dims, upstream, cache=cache)
    grads_neg = render_backward(neg, dims, upstream, cache=cache_neg)
    assert np.array_equal(v, v_neg)
    for f in ("centers", "log_scales", "intensities"):
        assert np.array_equal(getattr(grads, f), getattr(grads_neg, f)), f
    assert np.array_equal(grads_neg.rotations, -grads.rotations)


# --- initialization ----------------------------------------------------------

def make_mask_and_reference(dims=(10, 10, 10), seed=0):
    rng = np.random.default_rng(seed)
    labels = np.zeros(dims, dtype=np.uint8)
    labels[2:8, 2:8, 2:8] = rng.integers(1, 4, (6, 6, 6))
    mask = LabelVolume(dims, (1, 1, 1), labels)
    ref = VoxelVolume(dims, (1, 1, 1), rng.random(dims))
    return mask, ref


def test_initialize_exhaustive_when_counts_match():
    mask, ref = make_mask_and_reference()
    n_fg = int(np.count_nonzero(mask.labels))
    g = initialize_from_mask(mask, ref, n_fg, seed=0)
    assert g.count == n_fg
    denoms = np.array([d - 1 for d in mask.dims], dtype=float)
    idx = np.rint(g.centers * denoms).astype(int)
    covered = set(map(tuple, idx))
    assert covered == set(map(tuple, np.argwhere(mask.labels > 0)))
    # intensities come from the reference frame at the sampled voxel
    assert np.allclose(g.intensities, ref.values[idx[:, 0], idx[:, 1], idx[:, 2]])
    assert np.array_equal(g.labels, mask.labels[idx[:, 0], idx[:, 1], idx[:, 2]])


def test_initialize_deterministic():
    mask, ref = make_mask_and_reference()
    a = initialize_from_mask(mask, ref, 50, seed=123)
    b = initialize_from_mask(mask, ref, 50, seed=123)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.intensities, b.intensities)
    c = initialize_from_mask(mask, ref, 50, seed=124)
    assert not np.array_equal(a.centers, c.centers)


def test_initialize_label_histogram_tracks_mask():
    rng = np.random.default_rng(5)
    dims = (24, 24, 24)
    labels = np.zeros(dims, dtype=np.uint8)
    labels[2:22, 2:22, 2:22] = rng.integers(1, 4, (20, 20, 20))
    mask = LabelVolume(dims, (1, 1, 1), labels)
    ref = VoxelVolume(dims, (1, 1, 1), rng.random(dims))
    g = initialize_from_mask(mask, ref, 4096, seed=7)
    fg = mask.labels[mask.labels > 0]
    for lab in (1, 2, 3):
        frac_mask = np.mean(fg == lab)
        frac_g = np.mean(g.labels == lab)
        assert abs(frac_mask - frac_g) < 0.05


def test_initialize_insufficient_foreground():
    mask, ref = make_mask_and_reference()
    with pytest.raises(ValidationError, match="foreground"):
        initialize_from_mask(mask, ref, 10**6, seed=0)


def test_initialize_scales_are_one_voxel():
    mask, ref = make_mask_and_reference()
    g = initialize_from_mask(mask, ref, 8, seed=0)
    assert np.allclose(np.exp(g.log_scales[0]), [1 / 9, 1 / 9, 1 / 9])
    assert np.allclose(g.rotations, np.tile([1, 0, 0, 0], (8, 1)))


# --- densify / prune ---------------------------------------------------------

def test_densify_noop_below_thresholds():
    g = random_set(6, seed=3)
    cfg = DensifyConfig()
    res = densify_and_prune(g, np.zeros(6), cfg)
    assert res.gaussians.count == 6 and res.n_children == 0
    assert np.array_equal(res.gaussians.centers, g.centers)
    assert np.array_equal(res.kept, np.arange(6))


def test_densify_clone_adds_exactly_one():
    g = random_set(4, seed=6)
    g.log_scales[:] = np.log(0.004)  # sigma_max below size threshold
    grad = np.zeros(4)
    grad[2] = 1.0
    res = densify_and_prune(g, grad, DensifyConfig())
    assert res.gaussians.count == 5
    assert res.n_children == 1
    # the clone copies the hot Gaussian
    assert np.allclose(res.gaussians.centers[-1], g.centers[2])
    assert res.gaussians.labels[-1] == g.labels[2]


def test_densify_split_replaces_with_two_smaller():
    g = random_set(3, seed=9)
    g.log_scales[1] = np.log(0.05)  # sigma_max above size threshold
    grad = np.array([0.0, 1.0, 0.0])
    res = densify_and_prune(g, grad, DensifyConfig())
    assert res.gaussians.count == 4  # 2 survivors + 2 children
    assert res.kept.tolist() == [0, 2]
    children = res.gaussians.log_scales[2:]
    assert np.allclose(children, g.log_scales[1] - np.log(1.6))
    assert np.all(res.gaussians.labels[2:] == g.labels[1])
    assert np.all(np.isfinite(res.gaussians.centers))


def test_densify_event_orders_rows_and_places_split_children():
    # rows: 0 pruned, 1 survives, 2 is cloned, 3 and 4 split; the split
    # parents are rotated (one with w < 0) and anisotropic, with their
    # longest axes on different columns of R
    g = GaussianSet(
        [[0.2, 0.3, 0.4], [0.5, 0.5, 0.5], [0.6, 0.4, 0.3], [0.4, 0.6, 0.5], [0.3, 0.5, 0.7]],
        [[1, 0, 0, 0], [0.8, 0.1, -0.3, 0.2], [0.9, 0.2, 0.1, -0.1],
         [-0.7, 0.2, 0.5, 0.3], [0.9, -0.3, 0.1, 0.4]],
        np.log([[0.02, 0.02, 0.02], [0.03, 0.02, 0.01], [0.004, 0.006, 0.005],
                [0.02, 0.05, 0.03], [0.04, 0.02, 0.06]]),
        [0.0, 0.7, 0.5, 0.9, -0.6], np.array([1, 2, 3, 1, 2], dtype=np.uint8))
    res = densify_and_prune(g, np.array([1.0, 0.0, 1.0, 1.0, 1.0]), DensifyConfig())
    out, parents = res.gaussians, [1, 2, 2, 3, 4, 3, 4]
    assert res.kept.tolist() == [1, 2] and res.n_children == 5
    assert out.count == len(parents)
    for f in ("rotations", "intensities", "labels"):
        assert np.array_equal(getattr(out, f), getattr(g, f)[parents]), f
    assert np.array_equal(out.centers[:3], g.centers[[1, 2, 2]])
    assert np.array_equal(out.log_scales[:3], g.log_scales[[1, 2, 2]])
    assert np.array_equal(out.log_scales[3:], g.log_scales[[3, 4, 3, 4]] - np.log(1.6))
    q = g.rotations / np.linalg.norm(g.rotations, axis=1)[:, None]
    R = gauss_mod.quaternions_to_matrices(q)
    for row, p, side in [(3, 3, 1), (4, 4, 1), (5, 3, -1), (6, 4, -1)]:
        axis = int(np.argmax(g.log_scales[p]))
        offset = 0.5 * np.exp(g.log_scales[p, axis]) * R[p, :, axis]
        assert np.array_equal(out.centers[row], g.centers[p] + side * offset), row
    assert np.argmax(g.log_scales[3]) != np.argmax(g.log_scales[4])


def test_densify_prunes_zero_intensity():
    g = random_set(3, seed=1)
    g.intensities[1] = 0.0
    res = densify_and_prune(g, np.zeros(3), DensifyConfig())
    assert res.gaussians.count == 2
    assert res.kept.tolist() == [0, 2]


def test_densify_refuses_to_empty_the_set():
    g = random_set(2, seed=1)
    g.intensities[:] = 0.0
    with pytest.raises(ValidationError, match="every Gaussian"):
        densify_and_prune(g, np.zeros(2), DensifyConfig())


# --- serialization -----------------------------------------------------------

def test_gaussians_round_trip_bit_exact(tmp_path):
    g = random_set(17, seed=13)
    save_gaussians(g, tmp_path / "g")
    back = load_gaussians(tmp_path / "g")
    assert back.count == 17
    assert np.array_equal(back.centers, g.centers.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.labels, g.labels)
    save_gaussians(back, tmp_path / "g2")
    assert (tmp_path / "g.raw").read_bytes() == (tmp_path / "g2.raw").read_bytes()


def test_gaussians_round_trip_without_labels(tmp_path):
    g = random_set(5, seed=2, labels=False)
    save_gaussians(g, tmp_path / "g")
    back = load_gaussians(tmp_path / "g")
    assert back.labels is None
    assert np.allclose(back.intensities, g.intensities, atol=1e-7)
