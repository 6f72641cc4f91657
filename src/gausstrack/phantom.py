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
mutually consistent by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import ndimage

from .errors import ValidationError
from .volgrid import (LABEL_LV, LABEL_MYO, LABEL_RV, LabelVolume, Sequence4D, VoxelVolume,
                      _from_dict, _read_json, _write_json)

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
        self.dims = tuple(int(d) for d in self.dims)
        self.spacing = tuple(float(s) for s in self.spacing)
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
        rho_a = self.profile_breaks[0]
        if self.peak_contraction * self.areal_amplitude >= rho_a:
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
    a_del = np.asarray(a_eff * spec.areal_amplitude)
    out = np.array(rho_p, dtype=np.float64, copy=True)
    core = rho_p < rho_a - a_del
    plateau = (rho_p >= rho_a - a_del) & (rho_p < rho_b - a_del)
    ramp = (rho_p >= rho_b - a_del) & (rho_p < rho_s)
    a_core = a_del[core] if a_del.ndim else a_del
    a_plat = a_del[plateau] if a_del.ndim else a_del
    a_ramp = a_del[ramp] if a_del.ndim else a_del
    out[core] = rho_p[core] / (1.0 - a_core / rho_a)
    out[plateau] = rho_p[plateau] + a_plat
    out[ramp] = (rho_p[ramp] * (rho_s - rho_b) + a_ramp * rho_s) / (rho_s - rho_b + a_ramp)
    return out


def _apply_map(points_mm, t, spec, inverse):
    """Shared radial-map kernel: returns the in-plane displacement so that
    zero-motion cases are exactly zero (no absolute-position rounding)."""
    pts = np.atleast_2d(np.asarray(points_mm, dtype=np.float64))
    center = spec.center_mm
    dx = pts[:, 0] - center[0]
    dy = pts[:, 1] - center[1]
    rho = dx * dx + dy * dy
    a_eff = spec.contraction_at(t) * _axial_window(spec, pts[:, 2])
    rho_new = _inverse_rho(rho, a_eff, spec) if inverse else _forward_rho(rho, a_eff, spec)
    # radial scale r'/r == sqrt(rho'/rho); exactly 1 at the axis (linear core)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.sqrt(rho_new / rho)
    factor = np.where(rho > 0, scale - 1.0, 0.0)
    u = np.zeros_like(pts)
    u[:, 0] = dx * factor
    u[:, 1] = dy * factor
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

    def displacement_mm(self, points_mm, t):
        return analytic_displacement(points_mm, t, self.spec)

    def inverse_mm(self, points_mm, t):
        return analytic_inverse(points_mm, t, self.spec)

    def displacement_normalized(self, points_norm, t):
        extent = np.array([(d - 1) * s for d, s in
                           zip(self.spec.dims, self.spec.spacing)])
        pts_mm = np.atleast_2d(np.asarray(points_norm, dtype=np.float64)) * extent
        return analytic_displacement(pts_mm, t, self.spec) / extent


# ---------------------------------------------------------------------------
# Volume construction
# ---------------------------------------------------------------------------

def _world_grids(spec):
    axes = [np.arange(d, dtype=np.float64) * s for d, s in zip(spec.dims, spec.spacing)]
    return np.meshgrid(*axes, indexing="ij")


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
    """Reference-phase label grid: the analytic layout at voxel centers."""
    gx, gy, gz = _world_grids(spec)
    pts = np.stack([gx, gy, gz], axis=-1)
    return LabelVolume(spec.dims, spec.spacing, _layout_labels(pts, spec))


def build_ed_volume(spec, labels):
    """Reference frame: per-class base intensity plus band-limited texture
    inside the foreground, zero background, clipped to [0, 1]."""
    rng = np.random.default_rng(spec.texture_seed)
    noise = rng.standard_normal(spec.dims)
    tex = ndimage.gaussian_filter(noise, 1.2) + 0.5 * ndimage.gaussian_filter(noise, 3.0)
    peak = np.max(np.abs(tex))
    if peak > 0:
        tex = tex / peak * spec.texture_amplitude
    values = np.zeros(spec.dims, dtype=np.float64)
    for lab, base in _BASE_INTENSITY.items():
        m = labels.labels == lab
        values[m] = base + tex[m]
    return VoxelVolume(spec.dims, spec.spacing, np.clip(values, 0.0, 1.0))


def _sample_at(values, points_mm, spec, order):
    coords = points_mm / np.array(spec.spacing)
    stacked = [coords[..., i] for i in range(3)]
    return ndimage.map_coordinates(values, stacked, order=order, mode="nearest")


def warp_labels_analytic(ed_labels, t, spec):
    """Ground-truth label map at time ``t``: the analytic layout evaluated
    at the exactly inverted positions.

    Evaluating the continuous layout (rather than nearest-sampling the
    discrete ED grid) avoids the half-voxel aliasing that nearest lookup
    introduces whenever the displacement crosses half-integer voxel
    offsets; at t=0 it reproduces ``ed_labels`` bit for bit.
    """
    gx, gy, gz = _world_grids(spec)
    pts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    src = analytic_inverse(pts, t, spec)
    warped = _layout_labels(src.reshape(spec.dims + (3,)), spec)
    return LabelVolume(spec.dims, spec.spacing, warped)


def generate_phantom(spec):
    """Build the full sequence plus the ED labels and the analytic field
    handle.

    Frame 0 is the constructed ED volume bit for bit; frame t samples frame
    0 at the exactly inverted positions.  ED is frame 0 (time 0); ES is the
    frame with the strongest contraction.
    """
    ed_labels = build_ed_labels(spec)
    ed = build_ed_volume(spec, ed_labels)
    times = np.linspace(0.0, 1.0, spec.frames)
    gx, gy, gz = _world_grids(spec)
    pts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    frames = [ed]
    for t in times[1:]:
        src = analytic_inverse(pts, t, spec).reshape(spec.dims + (3,))
        vals = _sample_at(np.asarray(ed.values, dtype=np.float64), src, spec, order=1)
        frames.append(VoxelVolume(spec.dims, spec.spacing, vals))
    es_index = int(np.argmax(spec.contraction_at(times)))
    seq = Sequence4D(frames, times, ed_index=0, es_index=es_index)
    return seq, ed_labels, PhantomField(spec)
