"""Synthetic 4D phantom with an analytic, topology-preserving deformation.

The anatomy is a cylindrical shell (myocardium) around a bright inner pool
(LV), with a crescent attached outside (RV), embedded in a zero background.
Motion is an in-plane radial contraction about the shell axis, built in
areal coordinates rho = r^2:

    rho' = rho - a(t) * (rho_out - rho_in) * w(rho)

where ``w`` ramps 0 -> 1 inside the pool, holds exactly 1 over the shell
plus a margin, and ramps back to 0 at the support radius, with
``a(t) = a_max sin^2(pi t)`` scaled by a smooth axial window.  Because the
profile is piecewise linear in rho, the map has a closed-form inverse per
z-slice, is globally monotone (no folds while ``a_max * (rho_out - rho_in)``
stays below the inner plateau edge), and the in-plane Jacobian determinant
is exactly 1 throughout the shell — the incompressibility diagnostics have
a known-zero target there.  The plateau margin keeps the profile kinks a
couple of voxels clear of the warped shell, so grid-based central
differences see the exact region, not the kinks.

Frames are backward-warped from frame 0 through the exact inverse, so the
ground-truth displacement, the inverse, and the per-frame labels are all
mutually consistent by construction.  Only voxels inside the support
cylinder can move, so the warps map those alone; a frame resamples only
the voxels whose source is not their own position, the others keep their
ED value.  Only the box around the shell and crescent can hold a label, so
the ED labels and class intensities are built there alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import ndimage

from .errors import ValidationError
from .volgrid import (LABEL_LV, LABEL_MYO, LABEL_RV, LabelVolume, Sequence4D, VoxelVolume,
                      _check_geometry, _check_kinds, _from_dict, _read_json, _write_json,
                      normalized_to_world, world_to_normalized)

_BASE_INTENSITY = {LABEL_LV: 0.85, LABEL_MYO: 0.5, LABEL_RV: 0.75}


@dataclass
class PhantomSpec:
    """Geometry, motion and texture parameters.  Defaults are the desk-scale
    acceptance configuration (64^3 voxels at 1.5 mm, 8 frames)."""

    dims: tuple = (64, 64, 64)
    spacing: tuple = (1.5, 1.5, 1.5)
    inner_radius_mm: float = 13.0
    outer_radius_mm: float = 20.0
    support_radius_mm: float = 32.0
    plateau_margin_mm: float = 2.0
    shell_height_mm: float = 36.0
    z_taper_mm: float = 9.0
    rv_thickness_mm: float = 7.0
    rv_angle_deg: tuple = (100.0, 260.0)
    peak_contraction: float = 0.36
    frames: int = 8
    texture_seed: int = 0
    texture_amplitude: float = 0.15

    def __post_init__(self):
        _check_kinds(self)
        self.dims, self.spacing = _check_geometry(self.dims, self.spacing)
        if not 0 < self.inner_radius_mm < self.outer_radius_mm < self.support_radius_mm:
            raise ValidationError("need 0 < inner < outer < support radius")
        if not 0 < self.plateau_margin_mm < self.inner_radius_mm:
            raise ValidationError("plateau margin must lie in (0, inner radius)")
        if self.outer_radius_mm + self.plateau_margin_mm >= self.support_radius_mm:
            raise ValidationError("support radius leaves no room for the outer ramp")
        if not 0 < self.peak_contraction < 1:
            raise ValidationError("peak contraction must lie in (0, 1)")
        if self.frames < 2:
            raise ValidationError("a sequence needs at least two frames")
        if len(self.rv_angle_deg) != 2:
            raise ValidationError(f"rv_angle_deg must be two angles, got {self.rv_angle_deg}")
        if not 0 <= self.rv_angle_deg[0] < self.rv_angle_deg[1] <= 360:
            raise ValidationError(
                f"rv_angle_deg must be (lo, hi) with 0 <= lo < hi <= 360, got {self.rv_angle_deg}")
        if not self.shell_height_mm > 0:
            raise ValidationError(f"shell_height_mm must be > 0, got {self.shell_height_mm}")
        if not self.z_taper_mm >= 0:
            raise ValidationError(f"z_taper_mm must be >= 0, got {self.z_taper_mm}")
        if self.texture_seed < 0:
            raise ValidationError(f"texture_seed must be >= 0, got {self.texture_seed}")
        try:
            folds = self.peak_contraction * self.areal_amplitude >= self.profile_breaks[0]
        except OverflowError:
            raise ValidationError("radii too large: their squares overflow") from None
        if folds:
            raise ValidationError(
                "contraction too strong for the pool: a_max*(r_out^2-r_in^2) "
                "must stay below the inner plateau edge or the core map folds")
        if any(d < 8 for d in self.dims):
            raise ValidationError("phantom grid too small to carry the shell")

    @property
    def center_mm(self):
        return np.array([(d - 1) * s / 2.0 for d, s in zip(self.dims, self.spacing)])

    @property
    def areal_amplitude(self):
        """Areal shrink carried by the plateau: rho_out - rho_in (mm^2)."""
        return self.outer_radius_mm ** 2 - self.inner_radius_mm ** 2

    @property
    def profile_breaks(self):
        """(rho_a, rho_b, rho_s): plateau start/end and support edge in rho.
        The plateau covers the shell plus the margin on both sides."""
        return ((self.inner_radius_mm - self.plateau_margin_mm) ** 2,
                (self.outer_radius_mm + self.plateau_margin_mm) ** 2,
                self.support_radius_mm ** 2)

    def contraction_at(self, t):
        return self.peak_contraction * np.sin(np.pi * t) ** 2

    def save(self, path):
        _write_json(path, asdict(self))

    @classmethod
    def load(cls, path):
        return _from_dict(cls, _read_json(path, "phantom spec"), "phantom spec")


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _axial_window(spec, z_mm):
    dz = np.abs(z_mm - spec.center_mm[2])
    half = spec.shell_height_mm / 2.0
    if spec.z_taper_mm <= 0:
        return (dz <= half).astype(np.float64)
    return 1.0 - _smoothstep((dz - half) / spec.z_taper_mm)


def _areal_profile(rho, spec):
    """w(rho): piecewise-linear areal weight (0 at the axis, 1 across the
    shell-plus-margin plateau, 0 beyond the support radius)."""
    rho_a, rho_b, rho_s = spec.profile_breaks
    w = np.zeros_like(rho)
    rise = rho < rho_a
    w[rise] = rho[rise] / rho_a
    w[(rho >= rho_a) & (rho <= rho_b)] = 1.0
    fall = (rho > rho_b) & (rho < rho_s)
    w[fall] = (rho_s - rho[fall]) / (rho_s - rho_b)
    return w


def _forward_rho(rho, a_eff, spec):
    return rho - a_eff * spec.areal_amplitude * _areal_profile(rho, spec)


def _inverse_rho(rho_p, a_eff, spec):
    """Closed-form branchwise inverse of _forward_rho (monotone piecewise
    linear in rho)."""
    rho_a, rho_b, rho_s = spec.profile_breaks
    a_del = np.broadcast_to(a_eff * spec.areal_amplitude, np.shape(rho_p))
    out = np.array(rho_p, dtype=np.float64, copy=True)
    core = rho_p < rho_a - a_del
    plateau = (rho_p >= rho_a - a_del) & (rho_p < rho_b - a_del)
    ramp = (rho_p >= rho_b - a_del) & (rho_p < rho_s)
    out[core] = rho_p[core] / (1.0 - a_del[core] / rho_a)
    out[plateau] = rho_p[plateau] + a_del[plateau]
    a_ramp = a_del[ramp]
    out[ramp] = (rho_p[ramp] * (rho_s - rho_b) + a_ramp * rho_s) / (rho_s - rho_b + a_ramp)
    return out


def _radial_displacement(dx, dy, rho, a_eff, spec, inverse):
    """In-plane displacement (dx, dy) * (r'/r - 1) of the radial map, point by
    point, so that zero-motion cases are exactly zero (no absolute-position
    rounding)."""
    rho_new = _inverse_rho(rho, a_eff, spec) if inverse else _forward_rho(rho, a_eff, spec)
    # radial scale r'/r == sqrt(rho'/rho); exactly 1 at the axis (linear core)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.sqrt(rho_new / rho)
    factor = np.where(rho > 0, scale - 1.0, 0.0)
    return dx * factor, dy * factor


def _apply_map(points_mm, t, spec, inverse):
    """Radial map at arbitrary points: the displacement, computed only for
    the points inside the support cylinder (rho < rho_s).  Outside it both
    maps are the identity (_inverse_rho and _forward_rho return rho there),
    so the displacement is 0."""
    pts = np.atleast_2d(np.asarray(points_mm, dtype=np.float64))
    center = spec.center_mm
    dx = pts[:, 0] - center[0]
    dy = pts[:, 1] - center[1]
    rho = dx * dx + dy * dy
    m = np.flatnonzero(rho < spec.profile_breaks[2])
    a_eff = spec.contraction_at(t) * _axial_window(spec, pts[m, 2])
    u = np.zeros_like(pts)
    u[m, 0], u[m, 1] = _radial_displacement(dx[m], dy[m], rho[m], a_eff, spec, inverse)
    return u


def analytic_displacement(points_mm, t, spec):
    """Ground-truth displacement u(X, t) in mm; zero outside the support
    cylinder and at t in {0, 1}."""
    return _apply_map(points_mm, t, spec, inverse=False)


def analytic_inverse(points_mm, t, spec):
    """Exact preimage: where the material now at ``points_mm`` started."""
    pts = np.atleast_2d(np.asarray(points_mm, dtype=np.float64))
    return pts + _apply_map(pts, t, spec, inverse=True)


@dataclass(frozen=True)
class PhantomField:
    """Handle bundling the analytic maps with the grid geometry, so
    evaluation code can query displacements in normalized coordinates."""

    spec: PhantomSpec

    def displacement_normalized(self, points_norm, t):
        pts_mm = normalized_to_world(np.atleast_2d(points_norm), self.spec)
        return world_to_normalized(analytic_displacement(pts_mm, t, self.spec), self.spec)


# ---------------------------------------------------------------------------
# Volume construction
# ---------------------------------------------------------------------------

def _world_points(spec, box=(slice(None),) * 3):
    """(nx, ny, nz, 3) world coordinates of the voxel centers in ``box``."""
    axes = [(np.arange(d, dtype=np.float64) * s)[sl]
            for d, s, sl in zip(spec.dims, spec.spacing, box)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _label_box(spec):
    """Index slices of the box that can hold a label, widened by one voxel
    and clipped to the grid: x, y within the RV's reach of the axis, z within
    half the shell height of the centre.  Every voxel outside it is 0."""
    reach = spec.outer_radius_mm + max(spec.rv_thickness_mm, 0.0)
    reach = np.array([reach, reach, spec.shell_height_mm / 2.0])
    c, s = spec.center_mm, np.array(spec.spacing)
    lo = np.clip(np.floor((c - reach) / s) - 1, 0, spec.dims)
    hi = np.clip(np.ceil((c + reach) / s) + 2, 0, spec.dims)
    return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))


def _layout_labels(points_mm, spec):
    """Analytic anatomy membership at arbitrary points: LV pool inside,
    Myo shell, RV crescent hugging the shell on one side."""
    pts = np.asarray(points_mm, dtype=np.float64)
    cx, cy, cz = spec.center_mm
    r = np.sqrt((pts[..., 0] - cx) ** 2 + (pts[..., 1] - cy) ** 2)
    in_z = np.abs(pts[..., 2] - cz) <= spec.shell_height_mm / 2.0
    labels = np.zeros(pts.shape[:-1], dtype=np.uint8)
    labels[(r < spec.inner_radius_mm) & in_z] = LABEL_LV
    labels[(r >= spec.inner_radius_mm) & (r <= spec.outer_radius_mm) & in_z] = LABEL_MYO
    ang = np.degrees(np.arctan2(pts[..., 1] - cy, pts[..., 0] - cx)) % 360.0
    lo, hi = spec.rv_angle_deg
    crescent = ((r > spec.outer_radius_mm)
                & (r <= spec.outer_radius_mm + spec.rv_thickness_mm)
                & (ang >= lo) & (ang <= hi) & in_z)
    labels[crescent] = LABEL_RV
    return labels


def build_ed_labels(spec):
    """Reference-phase label grid: the analytic layout at voxel centers,
    evaluated on the label box (``_label_box``) and 0 elsewhere."""
    box = _label_box(spec)
    labels = np.zeros(spec.dims, dtype=np.uint8)
    labels[box] = _layout_labels(_world_points(spec, box), spec)
    return LabelVolume(spec.dims, spec.spacing, labels)


def build_ed_volume(spec, labels):
    """Reference frame: per-class base intensity plus band-limited texture
    inside the foreground, zero background, clipped to [0, 1].  Of the spec's
    ED labels (``build_ed_labels``) only the label box is read."""
    rng = np.random.default_rng(spec.texture_seed)
    noise = rng.standard_normal(spec.dims)
    tex = ndimage.gaussian_filter(noise, 1.2) + 0.5 * ndimage.gaussian_filter(noise, 3.0)
    peak = np.max(np.abs(tex))
    if peak > 0:
        tex = tex / peak * spec.texture_amplitude
    values = np.zeros(spec.dims, dtype=np.float64)
    box = _label_box(spec)
    inside, tex, lab_box = values[box], tex[box], labels.labels[box]
    for lab, base in _BASE_INTENSITY.items():
        m = lab_box == lab
        inside[m] = base + tex[m]
    np.clip(inside, 0.0, 1.0, out=inside)
    return VoxelVolume(spec.dims, spec.spacing, values)


class _SupportGrid:
    """The inverse map on the voxel grid, inside the support cylinder only:
    outside it _inverse_rho returns rho, so every source is its voxel's own
    position bit for bit.  Arrays are (S, nz), z innermost, over the S
    in-plane points with rho < rho_s, built once per grid."""

    def __init__(self, spec):
        self.spec = spec
        x, y, self.z = (np.arange(d, dtype=np.float64) * s
                        for d, s in zip(spec.dims, spec.spacing))
        center = spec.center_mm
        dx, dy = (x - center[0])[:, None], (y - center[1])[None, :]
        rho = dx * dx + dy * dy
        ix, iy = np.nonzero(rho < spec.profile_breaks[2])
        self.x, self.y = x[ix, None], y[iy, None]
        self.dx, self.dy = dx[ix], dy[0, iy, None]
        self.rho = np.broadcast_to(rho[ix, iy, None], (ix.size, self.z.size))
        nz = self.z.size
        self.flat = (ix * spec.dims[1] + iy)[:, None] * nz + np.arange(nz)

    def moved(self, t):
        """(flat voxel indices, source points (n, 3)) of the support voxels
        whose source at ``t`` is not their own position.  A source keeps its
        voxel's z."""
        a_eff = self.spec.contraction_at(t) * _axial_window(self.spec, self.z)
        ux, uy = _radial_displacement(self.dx, self.dy, self.rho, a_eff, self.spec, True)
        sx, sy = self.x + ux, self.y + uy
        sel = np.nonzero((sx != self.x) | (sy != self.y))
        return self.flat[sel], np.stack([sx[sel], sy[sel], self.z[sel[1]]], axis=-1)


def warp_labels_analytic(ed_labels, t, spec):
    """Ground-truth label map at time ``t``: the analytic layout evaluated
    at the exactly inverted positions.  ``ed_labels`` is the spec's ED label
    grid (``build_ed_labels``); voxels the map leaves in place keep it, the
    others get the layout at their source.

    Evaluating the continuous layout (rather than nearest-sampling the
    discrete ED grid) avoids the half-voxel aliasing that nearest lookup
    introduces whenever the displacement crosses half-integer voxel
    offsets; at t=0 it reproduces ``ed_labels`` bit for bit.
    """
    if ed_labels.dims != spec.dims:
        raise ValidationError(
            f"ED labels dims {ed_labels.dims} do not match the spec's {spec.dims}")
    flat, src = _SupportGrid(spec).moved(t)
    # C order, so the flat view below writes into it (a loaded grid is x-fastest)
    warped = np.array(ed_labels.labels, dtype=np.uint8, order="C")
    warped.reshape(-1)[flat] = _layout_labels(src, spec)
    return LabelVolume(spec.dims, spec.spacing, warped)


def generate_phantom(spec):
    """Build the full sequence plus the ED labels and the analytic field
    handle.

    Frame 0 is the constructed ED volume bit for bit.  In frame t a voxel
    the exact inverse map leaves in place keeps its ED value, and every
    other voxel samples frame 0 at its source (order 1).  ED is frame 0
    (time 0); ES is the frame with the strongest contraction.
    """
    ed_labels = build_ed_labels(spec)
    ed = build_ed_volume(spec, ed_labels)
    times = np.linspace(0.0, 1.0, spec.frames)
    grid = _SupportGrid(spec)
    frames = [ed]
    for t in times[1:]:
        flat, src = grid.moved(t)
        vals = ed.values.copy()
        vals.reshape(-1)[flat] = ndimage.map_coordinates(
            ed.values, (src / spec.spacing).T, order=1, mode="nearest")
        frames.append(VoxelVolume(spec.dims, spec.spacing, vals))
    es_index = int(np.argmax(spec.contraction_at(times)))
    seq = Sequence4D(frames, times, ed_index=0, es_index=es_index)
    return seq, ed_labels, PhantomField(spec)
