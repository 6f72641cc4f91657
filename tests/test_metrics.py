import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy import ndimage

from gausstrack import motion
from gausstrack.errors import NumericalAbort, ValidationError
from gausstrack.gauss import GaussianSet, initialize_from_mask, render_values
from gausstrack.metrics import (
    SSIM_K1,
    SSIM_K2,
    SSIM_SIGMA,
    SSIM_WINDOW,
    MetricReport,
    dice,
    evaluate_run,
    hausdorff,
    jacobian_stats,
    psnr,
    ssim3d,
    warp_labels,
)
from gausstrack.motion import (ControlNodeSet, DeformNet, apply_motion, dense_displacement,
                               init_control_nodes, knn_indices)
from gausstrack.optim import FitConfig
from gausstrack.volgrid import (
    LabelVolume,
    Sequence4D,
    VoxelVolume,
    voxel_centers_normalized,
)

# the query settings of a default run config
_RUN = FitConfig()
QUERY = dict(k=_RUN.k_neighbors, cutoff_multiplier=_RUN.cutoff_multiplier,
             occupancy_floor=_RUN.occupancy_floor)


def labeled_cube_scene(dims=(16, 16, 16), seed=0):
    """Mask with one labeled cube per structure plus a textured reference."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(dims, dtype=np.uint8)
    labels[2:8, 2:14, 2:14] = 1     # RV slab
    labels[9:14, 2:14, 2:8] = 2     # Myo slab
    labels[9:14, 2:14, 9:14] = 3    # LV slab
    mask = LabelVolume(dims, (1.5, 1.5, 1.5), labels)
    ref = VoxelVolume(dims, (1.5, 1.5, 1.5),
                      0.3 + 0.5 * ndimage.gaussian_filter(rng.random(dims), 1.0))
    return mask, ref


def identity_state(mask, ref, n_init=None, seed=0):
    n = int(np.count_nonzero(mask.labels)) if n_init is None else n_init
    g = initialize_from_mask(mask, ref, n, seed)
    nodes = init_control_nodes(g.centers, max(4, n // 8), seed + 1)
    net = DeformNet.create(l_space=2, l_time=2, hidden_width=8, hidden_depth=2,
                           seed=seed)  # zero head: identity motion
    return g, nodes, net


# --- warp_labels ---------------------------------------------------------------

def test_warp_labels_identity_self_reconstruction():
    mask, ref = labeled_cube_scene()
    g, nodes, net = identity_state(mask, ref)
    warped = warp_labels(g, nodes, net, t=0.0, grid=mask, **QUERY)
    for lab in (1, 2, 3):
        assert dice(warped, mask, lab) >= 0.95


def test_warp_labels_single_class_only():
    mask, ref = labeled_cube_scene()
    single = LabelVolume(mask.dims, mask.spacing,
                         np.where(mask.labels > 0, 2, 0).astype(np.uint8))
    g, nodes, net = identity_state(single, ref)
    warped = warp_labels(g, nodes, net, 0.0, single, **QUERY)
    assert set(np.unique(warped.labels)) <= {0, 2}


def test_warp_labels_below_floor_is_background():
    # Gaussians parked between voxel centers with tiny sigma: occupancy at
    # every voxel center stays below the floor
    dims = (8, 8, 8)
    centers = np.array([[0.5 / 7 + 1 / 14, 0.5, 0.5]]) + 0.0
    g = GaussianSet(centers, [[1, 0, 0, 0]], np.log(0.005) * np.ones((1, 3)),
                    [1.0], np.array([2], dtype=np.uint8))
    nodes = ControlNodeSet(centers.copy(), np.log([0.2]))
    net = DeformNet.create(l_space=2, l_time=2, hidden_width=4, hidden_depth=1, seed=0)
    grid = LabelVolume(dims, (1, 1, 1), np.zeros(dims, dtype=np.uint8))
    warped = warp_labels(g, nodes, net, 0.0, grid, **dict(QUERY, k=1))
    assert np.all(warped.labels == 0)


def test_warp_labels_requires_labels():
    mask, ref = labeled_cube_scene()
    g, nodes, net = identity_state(mask, ref)
    g.labels = None
    with pytest.raises(ValidationError, match="label"):
        warp_labels(g, nodes, net, 0.0, mask, **QUERY)


# --- dice ------------------------------------------------------------------------

def test_dice_identity_and_disjoint():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    a[:2] = 1
    b = np.zeros((4, 4, 4), dtype=np.uint8)
    b[2:] = 1
    va = LabelVolume((4, 4, 4), (1, 1, 1), a)
    vb = LabelVolume((4, 4, 4), (1, 1, 1), b)
    assert dice(va, va, 1) == 1.0
    assert dice(va, vb, 1) == 0.0
    assert dice(va, vb, 3) == 1.0  # both empty


def test_dice_half_overlap():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    a[0, 0, :4] = 1
    a[0, 1, :4] = 1
    b = np.zeros((4, 4, 4), dtype=np.uint8)
    b[0, 1, :4] = 1
    b[0, 2, :4] = 1
    va = LabelVolume((4, 4, 4), (1, 1, 1), a)
    vb = LabelVolume((4, 4, 4), (1, 1, 1), b)
    assert dice(va, vb, 1) == pytest.approx(0.5)


# --- psnr ------------------------------------------------------------------------

def test_psnr_known_mse():
    t = np.zeros((4, 4, 4))
    assert psnr(t + 0.1, t) == pytest.approx(20.0, abs=1e-9)


def test_psnr_identical_is_inf():
    t = np.random.default_rng(0).random((4, 4, 4))
    assert math.isinf(psnr(t, t.copy()))


def test_psnr_matches_direct_formula():
    rng = np.random.default_rng(2)
    a, b = rng.random((6, 5, 4)), rng.random((6, 5, 4))
    want = 10 * math.log10(1.0 / np.mean((a - b) ** 2))
    assert psnr(a, b) == pytest.approx(want, abs=1e-9)


def test_psnr_decreases_with_noise():
    rng = np.random.default_rng(3)
    t = rng.random((8, 8, 8))
    noise = rng.normal(size=(8, 8, 8))
    values = [psnr(t + s * noise, t) for s in (0.01, 0.03, 0.1, 0.3)]
    assert all(x > y for x, y in zip(values, values[1:]))


# --- ssim ------------------------------------------------------------------------

def ssim3d_loop_oracle(p, t, window=7, sigma=1.5, k1=0.01, k2=0.03, data_range=1.0):
    """Plain-loop reimplementation: explicit window gather per voxel."""
    half = window // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    w3 = k[:, None, None] * k[None, :, None] * k[None, None, :]
    c1, c2 = (k1 * data_range) ** 2, (k2 * data_range) ** 2
    vals = []
    for i in range(half, p.shape[0] - half):
        for j in range(half, p.shape[1] - half):
            for l in range(half, p.shape[2] - half):
                wp = p[i - half:i + half + 1, j - half:j + half + 1, l - half:l + half + 1]
                wt = t[i - half:i + half + 1, j - half:j + half + 1, l - half:l + half + 1]
                mp, mt = (w3 * wp).sum(), (w3 * wt).sum()
                vp = (w3 * wp * wp).sum() - mp * mp
                vt = (w3 * wt * wt).sum() - mt * mt
                cov = (w3 * wp * wt).sum() - mp * mt
                vals.append(((2 * mp * mt + c1) * (2 * cov + c2))
                            / ((mp * mp + mt * mt + c1) * (vp + vt + c2)))
    return float(np.mean(vals))


def test_ssim_identical_is_one():
    v = np.random.default_rng(1).random((9, 9, 9))
    assert ssim3d(v, v.copy()) == pytest.approx(1.0, abs=1e-9)


def test_ssim_symmetric():
    rng = np.random.default_rng(4)
    a, b = rng.random((8, 8, 8)), rng.random((8, 8, 8))
    assert ssim3d(a, b) == pytest.approx(ssim3d(b, a), abs=1e-12)


def test_ssim_constant_shift_matches_loop_oracle():
    rng = np.random.default_rng(5)
    t = ndimage.gaussian_filter(rng.random((9, 9, 9)), 1.0)
    t = (t - t.min()) / (t.max() - t.min())
    p = t + 0.1
    got = ssim3d(p, t)
    assert got < 1.0
    assert got == pytest.approx(ssim3d_loop_oracle(p, t), abs=1e-6)


def test_ssim_in_unit_interval_on_perturbation_families():
    # the (0, 1] range claim holds on the metric's operating domain —
    # a volume against corrupted versions of itself (noise, bias, blur);
    # independent white-noise pairs can push the covariance term negative
    rng = np.random.default_rng(6)
    t = ndimage.gaussian_filter(rng.random((10, 10, 10)), 1.0)
    t = (t - t.min()) / (t.max() - t.min())
    candidates = [
        t + 0.05 * rng.normal(size=t.shape),
        0.8 * t + 0.1,
        ndimage.gaussian_filter(t, 1.5),
        t.copy(),
    ]
    for p in candidates:
        s = ssim3d(p, t)
        assert 0.0 < s <= 1.0
    assert ssim3d(t.copy(), t) == pytest.approx(1.0, abs=1e-12)
    assert all(ssim3d(p, t) < 1.0 for p in candidates[:3])


def _labels(dims):
    return LabelVolume(dims, (1.0, 1.0, 1.0), np.ones(dims, dtype=np.uint8))


@pytest.mark.parametrize("call,match", [
    (lambda: dice(_labels((8, 8, 8)), _labels((8, 8, 9)), 1), "dice needs matching grids"),
    (lambda: psnr(np.zeros((8, 8, 8)), np.zeros((8, 8, 9))), "psnr needs matching grids"),
    (lambda: ssim3d(np.zeros((8, 8, 8)), np.zeros((8, 8, 9))), "ssim needs matching grids"),
    (lambda: hausdorff(_labels((8, 8, 8)), _labels((8, 8, 9)), 1),
     "hausdorff needs matching grids"),
])
def test_scores_refuse_mismatched_grids(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


def test_ssim_window_larger_than_volume_rejected():
    with pytest.raises(ValidationError, match="window"):
        ssim3d(np.zeros((5, 9, 9)), np.zeros((5, 9, 9)))


# --- hausdorff ----------------------------------------------------------------------

def test_hausdorff_identical_masks():
    mask, _ = labeled_cube_scene()
    assert hausdorff(mask, mask, 1) == 0.0


def test_hausdorff_single_voxels():
    a = np.zeros((8, 4, 4), dtype=np.uint8)
    a[1, 1, 1] = 1
    b = np.zeros((8, 4, 4), dtype=np.uint8)
    b[4, 1, 1] = 1  # 3 voxels apart on x, spacing 1.5mm
    va = LabelVolume((8, 4, 4), (1.5, 1.0, 1.0), a)
    vb = LabelVolume((8, 4, 4), (1.5, 1.0, 1.0), b)
    assert hausdorff(va, vb, 1) == pytest.approx(4.5)


def test_hausdorff_matches_bruteforce_and_symmetric():
    rng = np.random.default_rng(7)
    dims = (12, 12, 12)
    spacing = (1.5, 1.5, 3.0)

    def blob(seed):
        r = np.random.default_rng(seed)
        lab = np.zeros(dims, dtype=np.uint8)
        cx, cy, cz = r.integers(3, 9, 3)
        rad = r.integers(2, 4)
        gx, gy, gz = np.indices(dims)
        lab[(gx - cx) ** 2 + (gy - cy) ** 2 + (gz - cz) ** 2 <= rad ** 2] = 1
        return LabelVolume(dims, spacing, lab)

    for seed in range(4):
        a, b = blob(seed), blob(seed + 100)
        got = hausdorff(a, b, 1)
        assert got == pytest.approx(hausdorff(b, a, 1), abs=1e-12)

        # brute-force oracle over boundary voxel centers
        def boundary_pts(vol):
            m = vol.labels == 1
            er = ndimage.binary_erosion(m)
            return np.argwhere(m & ~er) * np.array(spacing)

        pa, pb = boundary_pts(a), boundary_pts(b)
        d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
        want = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert got == pytest.approx(want, abs=1e-12)


def test_hausdorff_of_a_class_neither_map_holds_is_zero():
    # as dice scores it 1.0; the class on one side only still raises below
    mask, _ = labeled_cube_scene()
    empty = LabelVolume(mask.dims, mask.spacing, np.zeros(mask.dims, dtype=np.uint8))
    assert hausdorff(empty, empty, 1) == 0.0
    assert hausdorff(mask, mask, 7) == 0.0 and dice(mask, mask, 7) == 1.0


def test_hausdorff_empty_structure_rejected():
    mask, _ = labeled_cube_scene()
    empty = LabelVolume(mask.dims, mask.spacing, np.zeros(mask.dims, dtype=np.uint8))
    with pytest.raises(ValidationError, match="class"):
        hausdorff(mask, empty, 1)


# --- jacobian ----------------------------------------------------------------------

def field_from_fn(dims, fn):
    return fn(voxel_centers_normalized(dims))


def test_jacobian_zero_displacement():
    f = field_from_fn((6, 6, 6), lambda X: np.zeros_like(X))
    fold, dev = jacobian_stats(f)
    assert fold == 0.0 and dev == 0.0


def test_jacobian_uniform_dilation():
    f = field_from_fn((7, 7, 7), lambda X: 0.1 * X)
    fold, dev = jacobian_stats(f)
    assert fold == 0.0
    assert dev == pytest.approx(1.1 ** 3 - 1.0, abs=1e-12)


def test_jacobian_fold_detection():
    def fn(X):
        u = np.zeros_like(X)
        u[..., 0] = -2.0 * X[..., 0]
        return u

    fold, dev = jacobian_stats(field_from_fn((6, 6, 6), fn))
    assert fold == 1.0
    # deviation measures |det - 1| with det = -1 everywhere
    assert dev == pytest.approx(2.0, abs=1e-12)


def test_jacobian_affine_matches_closed_form():
    rng = np.random.default_rng(8)
    A = 0.1 * rng.normal(size=(3, 3))
    b = rng.normal(size=3)

    f = field_from_fn((8, 9, 7), lambda X: X @ A.T + b)
    fold, dev = jacobian_stats(f)
    det = np.linalg.det(np.eye(3) + A)
    assert dev == pytest.approx(abs(det - 1.0), abs=1e-10)
    assert fold == (1.0 if det <= 0 else 0.0)


def det_reference(vectors):
    """Jacobian statistics through np.gradient on the whole grid and
    np.linalg.det per voxel, trimmed to the interior afterwards."""
    steps = [1.0 / (d - 1) for d in vectors.shape[:3]]
    grad = np.stack([np.stack(np.gradient(vectors[..., i], *steps), axis=-1)
                     for i in range(3)], axis=-2)
    det = np.linalg.det(grad + np.eye(3))[1:-1, 1:-1, 1:-1]
    return float(np.mean(det <= 0)), float(np.mean(np.abs(det - 1.0)))


def test_jacobian_cofactors_match_linalg_det():
    rng = np.random.default_rng(21)
    freqs = rng.uniform(0.5, 2.0, (4, 3))
    amps, phases = 0.25 * rng.normal(size=(4, 3)), rng.uniform(0, 2 * np.pi, 4)

    def smooth(X):
        return np.sin(2 * np.pi * X @ freqs.T + phases) @ amps

    folded = field_from_fn((6, 6, 6), lambda X: X * [-2.0, 0.0, 0.0])
    smooth_field = field_from_fn((13, 11, 12), smooth)
    for f in (smooth_field, folded):
        fold, dev = jacobian_stats(f)
        want_fold, want_dev = det_reference(f)
        assert fold == want_fold
        assert dev == pytest.approx(want_dev, abs=1e-12)
    assert 0.0 < jacobian_stats(smooth_field)[0] < 1.0


def test_jacobian_small_grid_rejected():
    with pytest.raises(ValidationError, match="dims"):
        jacobian_stats(np.zeros((2, 6, 6, 3)))
    # a field of two components, and a scalar volume, are not (nx, ny, nz, 3)
    for shape in ((6, 6, 6, 2), (6, 6, 6)):
        with pytest.raises(ValidationError, match=r"must be \(nx, ny, nz, 3\)"):
            jacobian_stats(np.zeros(shape))


# --- evaluate_run ---------------------------------------------------------------------

def test_evaluate_run_identity_on_static_sequence():
    mask, ref = labeled_cube_scene()
    g, nodes, net = identity_state(mask, ref)
    frames = [ref, ref, ref]
    seq = Sequence4D(frames, [0.0, 0.5, 1.0], ed_index=0, es_index=2)
    report = evaluate_run(g, nodes, net, seq, mask, **QUERY)
    self_recon = warp_labels(g, nodes, net, 0.0, mask, **QUERY)
    assert report.dice_myo == pytest.approx(dice(self_recon, mask, 2))
    assert report.fold_fraction == 0.0
    assert report.jac_dev == 0.0
    assert report.dice_avg >= 0.9
    assert report.hd_mm >= 0.0
    assert 0 < report.ssim <= 1.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_evaluate_run_refuses_a_non_finite_node_before_the_network_runs(bad):
    # the network's encoding of inf would warn on sin, an error in this suite
    mask, ref = labeled_cube_scene()
    g, nodes, net = identity_state(mask, ref)
    nodes.positions[0, 0] = bad
    seq = Sequence4D([ref, ref, ref], [0.0, 0.5, 1.0], ed_index=0, es_index=2)
    with pytest.raises(NumericalAbort, match="node positions must be finite"):
        evaluate_run(g, nodes, net, seq, mask, **QUERY)


def serial_report(g, nodes, net, seq, truth, k, cutoff_multiplier, occupancy_floor):
    """evaluate_run's report composed from the public steps, one at a time."""
    t_es = float(seq.times[seq.es_index])
    es_frame = seq.frames[seq.es_index]
    warped = warp_labels(g, nodes, net, t_es, seq.frames[0], k, cutoff_multiplier,
                         occupancy_floor)
    deformed, _ = apply_motion(g, nodes, net, t_es, knn_indices(g.centers, nodes.positions, k))
    rendered = render_values(deformed, seq.dims, cutoff_multiplier)
    d_rv, d_myo, d_lv = (dice(warped, truth, lab) for lab in (1, 2, 3))
    hds = [hausdorff(warped, truth, lab) for lab in (1, 2, 3)]
    u = dense_displacement(voxel_centers_normalized(seq.dims).reshape(-1, 3), nodes, net, t_es, k)
    fold_fraction, jac_dev = jacobian_stats(u.reshape(seq.dims + (3,)))
    return MetricReport(d_rv, d_lv, d_myo, float(np.mean([d_rv, d_myo, d_lv])),
                        psnr(rendered, es_frame.values), ssim3d(rendered, es_frame.values),
                        float(np.mean(hds)), jac_dev, fold_fraction)


@pytest.mark.parametrize("pool", [1, 2, 3])
def test_evaluate_run_report_is_byte_equal_to_the_serial_steps(monkeypatch, pool):
    # 16 x 16 x 40 voxels: three field slices, the last one partial
    mask, ref = labeled_cube_scene(dims=(16, 16, 40))
    g, nodes, net = identity_state(mask, ref)
    rng = np.random.default_rng(5)
    net.weights[-1] = 0.2 * rng.normal(size=net.weights[-1].shape)
    net.biases[-1] = 0.05 * rng.normal(size=6)
    seq = Sequence4D([ref, ref, ref], [0.0, 0.5, 1.0], ed_index=0, es_index=1)
    want = serial_report(g, nodes, net, seq, mask, **QUERY).to_json()
    monkeypatch.setattr(motion, "_pool_size", lambda: pool)
    assert evaluate_run(g, nodes, net, seq, mask, **QUERY).to_json() == want


def test_evaluate_run_runs_the_network_once(monkeypatch):
    # the dense field and the deformed set read one set of ES node transforms
    mask, ref = labeled_cube_scene()
    g, nodes, net = identity_state(mask, ref)
    seq = Sequence4D([ref, ref, ref], [0.0, 0.5, 1.0], ed_index=0, es_index=1)
    times, real = [], motion.node_transforms
    monkeypatch.setattr(motion, "node_transforms",
                        lambda net, positions, t: times.append(t) or real(net, positions, t))
    evaluate_run(g, nodes, net, seq, mask, **QUERY)
    assert times == [0.5]


def test_metric_report_round_trip():
    r = MetricReport(0.9, 0.91, 0.88, 0.897, math.inf, 0.99, 3.2, 0.01, 0.0)
    d = json.loads(r.to_json())
    assert list(d) == ["dice_rv", "dice_lv", "dice_myo", "dice_avg", "psnr_db",
                       "ssim", "hd_mm", "jac_dev", "fold_fraction"]
    # JSON has no infinity, so an infinite PSNR is written as the string "inf"
    assert d == {**asdict(r), "psnr_db": "inf"}
    finite = MetricReport(0.9, 0.91, 0.88, 0.897, 31.5, 0.99, 3.2, 0.01, 0.0)
    assert json.loads(finite.to_json()) == asdict(finite)


def test_dense_displacement_on_the_voxel_grid_is_zero_for_identity_net():
    mask, ref = labeled_cube_scene()
    _, nodes, net = identity_state(mask, ref)
    u = dense_displacement(voxel_centers_normalized(ref.dims).reshape(-1, 3), nodes, net, 0.7,
                           QUERY["k"])
    assert u.shape == (np.prod(ref.dims), 3) and np.all(u == 0.0)


# --- streamed metrics against their whole-array forms -------------------------------

def ssim3d_whole_array(pred, truth):
    """ssim3d as one expression over whole-grid moment arrays."""
    p, t = pred.astype(np.float64), truth.astype(np.float64)
    half = SSIM_WINDOW // 2
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1, dtype=np.float64) / SSIM_SIGMA) ** 2)
    kernel /= kernel.sum()

    def means(a):
        for axis in range(3):
            a = ndimage.correlate1d(a, kernel, axis=axis, mode="nearest")
        return a

    mu_p, mu_t = means(p), means(t)
    var_p = means(p * p) - mu_p * mu_p
    var_t = means(t * t) - mu_t * mu_t
    cov = means(p * t) - mu_p * mu_t
    c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
    ssim_map = ((2 * mu_p * mu_t + c1) * (2 * cov + c2)) / (
        (mu_p ** 2 + mu_t ** 2 + c1) * (var_p + var_t + c2))
    return float(ssim_map[half:-half, half:-half, half:-half].mean())


def jacobian_whole_array(vectors):
    """jacobian_stats with np.gradient over the whole grid at once, cropped
    to the interior afterwards."""
    steps = [1.0 / (d - 1) for d in vectors.shape[:3]]
    inner = (slice(1, -1),) * 3
    jac = [[g[inner] + float(i == a)
            for a, g in enumerate(np.gradient(vectors[..., i], *steps))]
           for i in range(3)]
    (a, b, c), (d, e, f), (g, h, k) = jac
    det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    return float(np.mean(det <= 0)), float(np.mean(np.abs(det - 1.0)))


def label_map_argmax(deformed, grid, cutoff_multiplier, occupancy_floor):
    """The label map as an argmax over the stacked, normalized class renders."""
    denoms = np.array([max(d - 1, 1) for d in grid.dims], dtype=np.float64)
    nearest = np.clip(np.rint(deformed.centers * denoms).astype(np.int64), 0,
                      np.asarray(grid.dims) - 1)
    occ = np.zeros((3,) + tuple(grid.dims))
    for i, lab in enumerate((1, 2, 3)):
        sel = np.flatnonzero(deformed.labels == lab)
        if sel.size == 0:
            continue
        part = deformed.take(sel)
        part.intensities[:] = 1.0
        raw = render_values(part, grid.dims, cutoff_multiplier)
        at = nearest[sel]
        occ[i] = raw / max(float(np.median(raw[at[:, 0], at[:, 1], at[:, 2]])), 1.0)
    winner = np.argmax(occ, axis=0)
    peak = np.take_along_axis(occ, winner[None], axis=0)[0]
    return np.where(peak > occupancy_floor, np.array([1, 2, 3], dtype=np.uint8)[winner], 0)


@pytest.mark.parametrize("dims", [(7, 7, 7), (11, 8, 30), (20, 13, 9), (64, 64, 64),
                                  (12, 7, 10)])
def test_ssim_equals_the_whole_array_formula(dims):
    # the map on the interior alone against the moments and map of the whole
    # grid, down to the smallest window on one axis only
    rng = np.random.default_rng(sum(dims))
    truth = ndimage.gaussian_filter(rng.random(dims), 1.0).astype(np.float32)
    for pred in (truth + 0.1 * rng.normal(size=dims), rng.random(dims).astype(np.float32)):
        assert ssim3d(pred, truth) == ssim3d_whole_array(pred, truth)


@pytest.mark.parametrize("dims", [(3, 3, 3), (11, 4, 30), (20, 13, 9), (64, 64, 64),
                                  (10, 7, 5)])
def test_jacobian_equals_the_whole_array_formula(dims):
    # x-extents of 1, 9, 18, 62 and 8 interior planes: a last slab cut short
    # by the grid's end, and (8, two whole slabs) one that ends where it does
    rng = np.random.default_rng(sum(dims))
    smooth = ndimage.gaussian_filter(0.05 * rng.normal(size=dims + (3,)), (1, 1, 1, 0))
    rough = rng.normal(size=dims + (3,)) / np.array(dims)  # folds at a share of voxels
    for vectors in (smooth, rough):
        assert jacobian_stats(vectors) == jacobian_whole_array(vectors)


def moving_labeled_state(dims=(20, 16, 18), seed=3):
    rng = np.random.default_rng(seed)
    labels = np.zeros(dims, dtype=np.uint8)
    labels[2:9, 2:14, 2:16] = 1
    labels[10:18, 2:14, 2:8] = 2
    labels[10:18, 2:14, 9:16] = 3
    mask = LabelVolume(dims, (1.5, 1.5, 1.5), labels)
    ref = VoxelVolume(dims, (1.5, 1.5, 1.5), 0.3 + 0.5 * rng.random(dims))
    g, nodes, net = identity_state(mask, ref, n_init=500, seed=seed)
    net.weights[-1] = 0.1 * rng.normal(size=net.weights[-1].shape)
    return mask, g, nodes, net


def test_label_map_equals_the_argmax_over_stacked_classes():
    mask, g, nodes, net = moving_labeled_state()
    deformed, _ = apply_motion(g, nodes, net, 0.4, knn_indices(g.centers, nodes.positions, 4))
    want = label_map_argmax(deformed, mask, QUERY["cutoff_multiplier"], QUERY["occupancy_floor"])
    warped = warp_labels(g, nodes, net, 0.4, mask, **QUERY)
    assert np.array_equal(warped.labels, want)
    assert set(np.unique(want)) == {0, 1, 2, 3}


def test_label_map_ties_keep_the_lower_label_as_argmax_does():
    # each Myo Gaussian twice, once as LV: the two class renders are equal
    mask, g, nodes, net = moving_labeled_state()
    myo = g.take(np.flatnonzero(g.labels == 2))
    twins = GaussianSet(*(np.concatenate([getattr(myo, f)] * 2) for f in
                          ("centers", "rotations", "log_scales", "intensities")),
                        np.repeat(np.array([2, 3], dtype=np.uint8), myo.count))
    deformed, _ = apply_motion(twins, nodes, net, 0.4,
                               knn_indices(twins.centers, nodes.positions, 4))
    want = label_map_argmax(deformed, mask, QUERY["cutoff_multiplier"], QUERY["occupancy_floor"])
    warped = warp_labels(twins, nodes, net, 0.4, mask, **QUERY)
    assert np.array_equal(warped.labels, want)
    assert set(np.unique(want)) == {0, 2}


def test_label_map_without_an_rv_equals_the_argmax():
    mask, g, nodes, net = moving_labeled_state()
    no_rv = g.take(np.flatnonzero(g.labels != 1))
    deformed, _ = apply_motion(no_rv, nodes, net, 0.4,
                               knn_indices(no_rv.centers, nodes.positions, 4))
    want = label_map_argmax(deformed, mask, QUERY["cutoff_multiplier"], QUERY["occupancy_floor"])
    warped = warp_labels(no_rv, nodes, net, 0.4, mask, **QUERY)
    assert np.array_equal(warped.labels, want)
    assert set(np.unique(want)) == {0, 2, 3}


# --- memory: peaks in float64 grid volumes ------------------------------------------

def peak_volumes(dims, call):
    """tracemalloc peak of ``call()`` in float64 volumes of ``dims``."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (np.prod(dims) * 8)


DIMS_64 = (64, 64, 64)


def test_ssim_holds_at_most_nine_grid_volumes():
    # a render (float64) against a frame (float32), as evaluate_run scores
    # them: the whole-array formula holds 13
    rng = np.random.default_rng(1)
    frame = rng.random(DIMS_64).astype(np.float32)
    rendered = frame + 0.1 * rng.normal(size=DIMS_64)
    assert peak_volumes(DIMS_64, lambda: ssim3d(rendered, frame)) < 9


def test_jacobian_stats_holds_at_most_five_grid_volumes():
    # the whole-array gradients hold 11
    vectors = 0.05 * np.random.default_rng(2).normal(size=DIMS_64 + (3,))
    assert peak_volumes(DIMS_64, lambda: jacobian_stats(vectors)) < 5


def test_evaluate_run_holds_at_most_sixteen_grid_volumes(monkeypatch):
    # with the voxel centres beside the field and the whole-array metrics,
    # 20-21; the field's (n, 3) output alone is three
    rng = np.random.default_rng(4)
    labels = np.zeros(DIMS_64, dtype=np.uint8)
    labels[8:31, 8:56, 8:56] = 1
    labels[33:56, 8:56, 8:31] = 2
    labels[33:56, 8:56, 33:56] = 3
    mask = LabelVolume(DIMS_64, (1.5, 1.5, 1.5), labels)
    ref = VoxelVolume(DIMS_64, (1.5, 1.5, 1.5), (0.3 + 0.5 * ndimage.gaussian_filter(
        rng.random(DIMS_64), 1.0)).astype(np.float32))
    g, nodes, net = identity_state(mask, ref, n_init=400)
    net.weights[-1] = 0.2 * rng.normal(size=net.weights[-1].shape)
    seq = Sequence4D([ref, ref, ref], [0.0, 0.5, 1.0], ed_index=0, es_index=1)
    monkeypatch.setattr(motion, "_pool_size", lambda: 2)
    assert peak_volumes(DIMS_64, lambda: evaluate_run(g, nodes, net, seq, mask, **QUERY)) < 16


def test_psnr_makes_one_float64_difference():
    rng = np.random.default_rng(3)
    truth = rng.random(DIMS_64).astype(np.float32)
    pred = truth + 0.1 * rng.normal(size=DIMS_64)
    assert peak_volumes(DIMS_64, lambda: psnr(pred, truth)) < 1.5
    err = pred - truth.astype(np.float64)
    assert psnr(pred, truth) == 10.0 * math.log10(1.0 / float(np.mean(err ** 2)))
