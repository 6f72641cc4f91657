import numpy as np
import pytest
from scipy import ndimage

from gausstrack.errors import ValidationError
from gausstrack.metrics import jacobian_stats
from gausstrack.phantom import (
    PhantomField,
    PhantomSpec,
    _axial_window,
    _forward_rho,
    _inverse_rho,
    _layout_labels,
    _SupportGrid,
    _world_points,
    analytic_displacement,
    analytic_inverse,
    build_ed_labels,
    build_ed_volume,
    generate_phantom,
    warp_labels_analytic,
)
from gausstrack.volgrid import (LABEL_LV, LABEL_MYO, LABEL_RV, load_volume, save_volume,
                                voxel_centers_normalized)


def small_spec(**over):
    kw = dict(dims=(32, 32, 32), spacing=(3.0, 3.0, 3.0), frames=4)
    kw.update(over)
    return PhantomSpec(**kw)


# --- spec validation ----------------------------------------------------------

def test_spec_rejects_bad_geometry():
    with pytest.raises(ValidationError, match="inner < outer"):
        PhantomSpec(inner_radius_mm=20, outer_radius_mm=17)
    with pytest.raises(ValidationError, match="folds"):
        PhantomSpec(inner_radius_mm=6, outer_radius_mm=20, peak_contraction=0.5)
    with pytest.raises(ValidationError, match="two frames"):
        PhantomSpec(frames=1)


@pytest.mark.parametrize("over", [{"frames": 3.0}, {"texture_seed": True},
                                  {"texture_amplitude": "0.15"},
                                  {"rv_angle_deg": (100.0, "260")}])
def test_spec_refuses_values_of_the_wrong_kind_without_json(over):
    with pytest.raises(ValidationError, match="must be"):
        small_spec(**over)


def test_without_a_z_taper_the_motion_stops_at_the_shell_ends():
    spec = small_spec(z_taper_mm=0.0)
    c, half = spec.center_mm, spec.shell_height_mm / 2
    dz = np.array([0.0, half, half + 0.5, half + 1.0])
    assert np.array_equal(_axial_window(spec, c[2] + dz), [1.0, 1.0, 0.0, 0.0])
    r = (spec.inner_radius_mm + spec.outer_radius_mm) / 2
    pts = np.stack([np.full(4, c[0] + r), np.full(4, c[1]), c[2] - dz], axis=1)
    u = analytic_displacement(pts, 0.5, spec)
    assert np.all(u[:2, 0] < 0) and np.array_equal(u[2:], np.zeros((2, 3)))
    assert np.array_equal(u[0], u[1])


def test_spec_round_trip(tmp_path):
    spec = small_spec(texture_seed=7)
    spec.save(tmp_path / "spec.json")
    back = PhantomSpec.load(tmp_path / "spec.json")
    assert back == spec


# --- analytic field -------------------------------------------------------------

def test_zero_displacement_at_reference_time():
    spec = PhantomSpec()
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 94, (200, 3))
    u = analytic_displacement(pts, 0.0, spec)
    assert np.max(np.abs(u)) == 0.0
    # periodic: a(1) collapses to numerical zero
    u1 = analytic_displacement(pts, 1.0, spec)
    assert np.max(np.abs(u1)) < 1e-12


def test_zero_displacement_outside_support():
    spec = PhantomSpec()
    c = spec.center_mm
    pts = np.array([
        [c[0] + spec.support_radius_mm + 2.0, c[1], c[2]],
        [c[0], c[1] - spec.support_radius_mm - 5.0, c[2]],
        [c[0] + 1.0, c[1], c[2] + spec.shell_height_mm / 2 + spec.z_taper_mm + 1.0],
    ])
    u = analytic_displacement(pts, 0.5, spec)
    assert np.max(np.abs(u)) == 0.0


def test_mid_shell_radius_follows_closed_form():
    spec = PhantomSpec()
    c = spec.center_mm
    r = 0.5 * (spec.inner_radius_mm + spec.outer_radius_mm)
    p = np.array([[c[0] + r, c[1], c[2]]])
    t = 0.5
    moved = p + analytic_displacement(p, t, spec)
    a = spec.contraction_at(t)
    delta = spec.outer_radius_mm ** 2 - spec.inner_radius_mm ** 2
    want = np.sqrt(r * r - a * delta)
    assert moved[0, 0] - c[0] == pytest.approx(want, abs=1e-12)


def test_in_plane_jacobian_is_one_in_shell():
    # finite-difference jacobian of the analytic map at mid-z shell points
    spec = PhantomSpec()
    c = spec.center_mm
    rng = np.random.default_rng(1)
    t, h = 0.37, 1e-5
    for _ in range(50):
        r = rng.uniform(spec.inner_radius_mm + 0.2, spec.outer_radius_mm - 0.2)
        ang = rng.uniform(0, 2 * np.pi)
        p = np.array([c[0] + r * np.cos(ang), c[1] + r * np.sin(ang), c[2]])

        def phi(q):
            return (q + analytic_displacement(q[None, :], t, spec)[0])[:2]

        J = np.empty((2, 2))
        for j in range(2):
            dp = np.zeros(3)
            dp[j] = h
            J[:, j] = (phi(p + dp) - phi(p - dp)) / (2 * h)
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-6)


def test_forward_inverse_identity():
    spec = PhantomSpec()
    c = spec.center_mm
    rng = np.random.default_rng(2)
    # cover every branch: core, shell, outer ramp, beyond support, taper z
    radii = np.concatenate([
        rng.uniform(0.1, spec.inner_radius_mm, 50),
        rng.uniform(spec.inner_radius_mm, spec.outer_radius_mm, 50),
        rng.uniform(spec.outer_radius_mm, spec.support_radius_mm, 50),
        rng.uniform(spec.support_radius_mm, spec.support_radius_mm + 10, 20),
    ])
    ang = rng.uniform(0, 2 * np.pi, radii.size)
    z = rng.uniform(c[2] - 30, c[2] + 30, radii.size)
    pts = np.stack([c[0] + radii * np.cos(ang), c[1] + radii * np.sin(ang), z], axis=1)
    for t in (0.2, 0.5, 0.9):
        moved = pts + analytic_displacement(pts, t, spec)
        back = analytic_inverse(moved, t, spec)
        assert np.max(np.abs(back - pts)) < 1e-10


def test_field_handle_normalized_units():
    spec = PhantomSpec()
    field = PhantomField(spec)
    pts_norm = voxel_centers_normalized(spec.dims).reshape(-1, 3)[::997]
    extent = np.array([(d - 1) * s for d, s in zip(spec.dims, spec.spacing)])
    u_norm = field.displacement_normalized(pts_norm, 0.5)
    u_mm = analytic_displacement(pts_norm * extent, 0.5, spec)
    assert np.allclose(u_norm * extent, u_mm, atol=1e-12)


# --- generated sequence ------------------------------------------------------------

def test_frame_zero_is_ed_bit_exact():
    spec = small_spec()
    seq, ed_labels, _ = generate_phantom(spec)
    ed = build_ed_volume(spec, ed_labels)
    assert np.array_equal(seq.frames[0].values, ed.values)
    assert seq.ed_index == 0
    assert 0 < seq.es_index < spec.frames
    # ES is the frame of peak contraction
    a = spec.contraction_at(seq.times)
    assert a[seq.es_index] == a.max()


def test_frames_stay_in_unit_range_and_textured():
    spec = small_spec()
    seq, ed_labels, _ = generate_phantom(spec)
    for f in seq.frames:
        assert f.values.min() >= 0.0 and f.values.max() <= 1.0
    myo = ed_labels.labels == LABEL_MYO
    assert np.std(seq.frames[0].values[myo]) > 0.02  # texture present


def test_myocardial_volume_conserved():
    # volume oracle: sub-voxel membership counting (plain voxel counts carry
    # annulus-perimeter quantization noise of ~4% at 1.5 mm; supersampling
    # brings the discretization error under the 2% budget)
    from gausstrack.phantom import _layout_labels, analytic_inverse

    spec = PhantomSpec()
    sub = 3
    axes = [np.arange(d * sub) * (s / sub) - s * (sub - 1) / (2 * sub)
            for d, s in zip(spec.dims, spec.spacing)]
    gx, gy, gz = np.meshgrid(axes[0][::2], axes[1][::2], axes[2], indexing="ij")
    pts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)

    def myo_volume(t):
        src = analytic_inverse(pts, t, spec) if t > 0 else pts
        return int(np.count_nonzero(_layout_labels(src, spec) == LABEL_MYO))

    base = myo_volume(0.0)
    for t in (0.25, 0.5, 0.75):
        assert abs(myo_volume(t) - base) / base < 0.02


def test_warped_labels_match_analytic_bands():
    # the warped Myo region must be the analytic annulus image
    spec = PhantomSpec()
    ed_labels = build_ed_labels(spec)
    t = 0.5
    warped = warp_labels_analytic(ed_labels, t, spec)
    a = spec.contraction_at(t)
    rho1 = spec.inner_radius_mm ** 2
    rho2 = spec.outer_radius_mm ** 2
    a_del = a * spec.areal_amplitude
    gx = np.arange(spec.dims[0]) * spec.spacing[0]
    gy = np.arange(spec.dims[1]) * spec.spacing[1]
    gz = np.arange(spec.dims[2]) * spec.spacing[2]
    GX, GY, GZ = np.meshgrid(gx, gy, gz, indexing="ij")
    c = spec.center_mm
    rho = (GX - c[0]) ** 2 + (GY - c[1]) ** 2
    mid_z = np.abs(GZ - c[2]) <= spec.shell_height_mm / 2 - spec.spacing[2]
    expected = (rho >= rho1 - a_del) & (rho <= rho2 - a_del) & mid_z
    got = warped.labels == LABEL_MYO
    agree = np.mean(expected[mid_z] == got[mid_z])
    assert agree > 0.99  # disagreement only in the half-voxel rounding ring


def test_all_structures_present():
    spec = PhantomSpec()
    labels = build_ed_labels(spec)
    for lab in (LABEL_RV, LABEL_MYO, LABEL_LV):
        assert np.count_nonzero(labels.labels == lab) > 200


def test_analytic_field_is_fold_free_on_grid():
    spec = PhantomSpec()
    field = PhantomField(spec)
    pts = voxel_centers_normalized(spec.dims).reshape(-1, 3)
    t = 0.5
    u = field.displacement_normalized(pts, t).reshape(spec.dims + (3,))
    fold, dev = jacobian_stats(u)
    assert fold == 0.0
    assert dev < 0.03  # whole grid, including pool and outer ramp
    # u is the forward displacement at source points, so det(grad phi) is
    # exactly area preserving over the source-frame shell (the plateau
    # covers it with margin); only grid discretization remains
    ed_labels = build_ed_labels(spec)
    steps = [1.0 / (d - 1) for d in spec.dims]
    grad = np.empty(spec.dims + (3, 3))
    for i in range(3):
        gxa, gya, gza = np.gradient(u[..., i], *steps)
        grad[..., i, 0] = gxa
        grad[..., i, 1] = gya
        grad[..., i, 2] = gza
    det = np.linalg.det(grad + np.eye(3))
    myo = ed_labels.labels == LABEL_MYO
    myo[0, :, :] = myo[-1, :, :] = False
    myo[:, 0, :] = myo[:, -1, :] = False
    myo[:, :, 0] = myo[:, :, -1] = False
    assert np.mean(np.abs(det[myo] - 1.0)) <= 0.02


def test_generation_deterministic():
    spec = small_spec(texture_seed=3)
    a, la, _ = generate_phantom(spec)
    b, lb, _ = generate_phantom(spec)
    assert np.array_equal(la.labels, lb.labels)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.values, fb.values)


# --- byte-identity oracle: the whole-grid generator ---------------------------------
#
# The generator maps only the voxels inside the support cylinder, resamples
# only those that move, and builds the ED labels and volume on the box that
# can hold a label; these references map every point, sample every voxel at
# its source and build the ED frame on the whole grid.

def reference_map(points_mm, t, spec, inverse):
    """In-plane displacement of the radial map at every point, support or not."""
    pts = np.atleast_2d(np.asarray(points_mm, dtype=np.float64))
    center = spec.center_mm
    dx = pts[:, 0] - center[0]
    dy = pts[:, 1] - center[1]
    rho = dx * dx + dy * dy
    a_eff = spec.contraction_at(t) * _axial_window(spec, pts[:, 2])
    rho_new = _inverse_rho(rho, a_eff, spec) if inverse else _forward_rho(rho, a_eff, spec)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.sqrt(rho_new / rho)
    factor = np.where(rho > 0, scale - 1.0, 0.0)
    u = np.zeros_like(pts)
    u[:, 0] = dx * factor
    u[:, 1] = dy * factor
    return u


def reference_sources(t, spec):
    pts = _world_points(spec).reshape(-1, 3)
    return pts, pts + reference_map(pts, t, spec, inverse=True)


def reference_ed_labels(spec):
    return _layout_labels(_world_points(spec), spec)


def reference_ed_volume(spec):
    """The ED frame from the whole-grid labels, every class mask and the clip
    over the whole grid."""
    rng = np.random.default_rng(spec.texture_seed)
    noise = rng.standard_normal(spec.dims)
    tex = ndimage.gaussian_filter(noise, 1.2) + 0.5 * ndimage.gaussian_filter(noise, 3.0)
    tex = tex / np.max(np.abs(tex)) * spec.texture_amplitude
    labels = reference_ed_labels(spec)
    values = np.zeros(spec.dims)
    for lab, base in ((LABEL_LV, 0.85), (LABEL_MYO, 0.5), (LABEL_RV, 0.75)):
        values[labels == lab] = base + tex[labels == lab]
    return np.clip(values, 0.0, 1.0)


def reference_frames(spec):
    """Every frame's values: ED, then ED where the map leaves a voxel in
    place and ED sampled at its source everywhere else."""
    ed = reference_ed_volume(spec)
    frames = [ed]
    for t in np.linspace(0.0, 1.0, spec.frames)[1:]:
        pts, src = reference_sources(t, spec)
        sampled = ndimage.map_coordinates(ed, list((src / np.array(spec.spacing)).T),
                                          order=1, mode="nearest")
        in_place = np.all(src == pts, axis=1)
        frames.append(np.where(in_place, ed.ravel(), sampled).reshape(spec.dims))
    return frames


def reference_warp_labels(t, spec):
    return _layout_labels(reference_sources(t, spec)[1].reshape(spec.dims + (3,)), spec)


ORACLE_SPECS = {
    "default": {},
    "anisotropic": dict(dims=(40, 36, 24), spacing=(2.2, 2.6, 3.1)),
    # i * 1.3 / 1.3 != i for i = 7, 13, 14, ...: an order-1 sample at such a
    # voxel's own position is not its value, so an unmoved voxel keeps ED's
    "inexact-1.3mm": dict(dims=(40, 40, 40), spacing=(1.3, 1.3, 1.3)),
    # foreground off the support, where no voxel moves
    "rv-past-the-support": dict(dims=(40, 36, 24), spacing=(2.2, 2.6, 3.1),
                                rv_thickness_mm=15.0),
    "two-frames": dict(frames=2),
    "support-past-the-grid": dict(dims=(32, 32, 32), spacing=(3.0, 3.0, 3.0),
                                  support_radius_mm=60.0),
    # the label box clipped by the grid on every side
    "labels-past-the-grid": dict(dims=(24, 24, 16), spacing=(3.0, 3.0, 3.0),
                                 rv_thickness_mm=14.0, shell_height_mm=60.0,
                                 support_radius_mm=40.0),
    # a crescent of negative thickness is empty; the box still holds the shell
    "no-rv": dict(dims=(40, 36, 24), spacing=(2.2, 2.6, 3.1), rv_thickness_mm=-10.0),
    # the axial window a hard step at half the shell height
    "no-z-taper": dict(dims=(40, 36, 24), spacing=(2.2, 2.6, 3.1), z_taper_mm=0.0),
}


@pytest.mark.parametrize("over", list(ORACLE_SPECS.values()), ids=list(ORACLE_SPECS))
def test_phantom_is_byte_identical_to_the_whole_grid_reference(over, tmp_path):
    spec = PhantomSpec(texture_seed=1, **over)
    seq, ed_labels, _ = generate_phantom(spec)
    assert ed_labels.labels.tobytes() == reference_ed_labels(spec).tobytes()
    want = reference_frames(spec)  # frame 0 is the whole-grid reference ED
    assert len(seq.frames) == len(want)
    for got, ref in zip(seq.frames, want):
        assert got.values.dtype == ref.dtype and got.values.tobytes() == ref.tobytes()
    # the ED labels as built, and as read back from disk (x-fastest order)
    save_volume(ed_labels, tmp_path / "ed_labels")
    for labels in (ed_labels, load_volume(tmp_path / "ed_labels")):
        for t in (seq.times[seq.es_index], 0.37):
            got = warp_labels_analytic(labels, t, spec).labels
            assert got.tobytes() == reference_warp_labels(t, spec).tobytes()


def test_warp_labels_refuses_labels_of_another_grid():
    with pytest.raises(ValidationError, match="do not match"):
        warp_labels_analytic(build_ed_labels(small_spec()), 0.5, PhantomSpec())


@pytest.mark.parametrize("over", list(ORACLE_SPECS.values()), ids=list(ORACLE_SPECS))
def test_support_grid_holds_every_voxel_the_map_moves(over):
    # outside the support cylinder the whole-grid map returns each voxel's
    # own position bit for bit, so skipping those voxels loses nothing
    spec = PhantomSpec(**over)
    grid = _SupportGrid(spec)
    inside = np.zeros(int(np.prod(spec.dims)), dtype=bool)
    inside[grid.flat.ravel()] = True
    pts = _world_points(spec).reshape(-1, 3)
    c = spec.center_mm
    rho = (pts[:, 0] - c[0]) ** 2 + (pts[:, 1] - c[1]) ** 2
    assert np.array_equal(inside, rho < spec.support_radius_mm ** 2)
    for t in (0.2, 0.5, 1.0):
        pts, src = reference_sources(t, spec)
        assert np.array_equal(src[~inside], pts[~inside])
        flat, moved = grid.moved(t)
        changed = np.flatnonzero(np.any(src != pts, axis=1))
        assert np.array_equal(np.sort(flat), changed)
        assert np.array_equal(moved[np.argsort(flat)], src[changed])


def test_point_maps_equal_the_whole_array_reference_off_grid():
    spec = PhantomSpec()
    c = spec.center_mm
    rng = np.random.default_rng(5)
    r = np.concatenate([rng.uniform(0.0, spec.support_radius_mm, 400),
                        rng.uniform(spec.support_radius_mm, 60.0, 200),
                        [0.0, spec.support_radius_mm]])
    ang = rng.uniform(0, 2 * np.pi, r.size)
    z = rng.uniform(-10.0, 110.0, r.size)
    pts = np.stack([c[0] + r * np.cos(ang), c[1] + r * np.sin(ang), z], axis=1)
    for t in (0.0, 0.2, 0.5, 0.93, 1.0):
        assert np.array_equal(analytic_inverse(pts, t, spec),
                              pts + reference_map(pts, t, spec, inverse=True))
        assert np.array_equal(analytic_displacement(pts, t, spec),
                              reference_map(pts, t, spec, inverse=False))
