"""Voxel grids, label grids, 4D sequences, and their on-disk container format.

Conventions used throughout the package:

* Arrays are indexed ``values[ix, iy, iz]`` with shape ``(nx, ny, nz)``.
* The raw payload on disk is little-endian, x-fastest (Fortran ravel of the
  array above).
* World coordinates are millimetres with the first voxel center at the
  origin, so voxel ``(i, j, k)`` sits at ``(i*sx, j*sy, k*sz)``.
* Normalized coordinates map the bounding box of voxel centers onto the
  unit cube: ``i/(n-1)`` per axis.

The container is deliberately minimal (JSON manifest + raw payload) so
round trips are bit-exact and testable without a DICOM/NIfTI stack.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalAbort, ValidationError

# Anatomical label ids carried by LabelVolume (and by Gaussians sampled from it).
LABEL_BACKGROUND = 0
LABEL_RV = 1
LABEL_MYO = 2
LABEL_LV = 3
LABEL_SET = (LABEL_BACKGROUND, LABEL_RV, LABEL_MYO, LABEL_LV)

_DTYPE_TAGS = {"f32le": np.dtype("<f4"), "u8": np.dtype("u1")}


def _check_geometry(dims, spacing):
    try:
        dims, whole = tuple(dims), tuple(int(d) for d in dims)
        spacing = tuple(float(s) for s in spacing)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"dims/spacing must be numeric, got {dims!r}, {spacing!r}") from None
    if whole != dims:
        raise ValidationError(f"dims must be whole numbers, got {list(dims)}")
    dims = whole
    if len(dims) != 3 or len(spacing) != 3:
        raise ValidationError(f"dims/spacing must be 3-vectors, got {dims}, {spacing}")
    if any(d < 1 for d in dims):
        raise ValidationError(f"dims components must be >= 1, got {dims}")
    if not all(0 < s < np.inf for s in spacing):
        raise ValidationError(f"spacing components must be finite and > 0, got {spacing}")
    return dims, spacing


def _freeze_grid(volume, name, array):
    """Check and set a volume's geometry; return its array, checked against
    the dims, for the caller to store read-only."""
    dims, spacing = _check_geometry(volume.dims, volume.spacing)
    object.__setattr__(volume, "dims", dims)
    object.__setattr__(volume, "spacing", spacing)
    array = np.asarray(array)
    if array.shape != dims:
        raise ValidationError(f"{name} array shape {array.shape} does not match dims {dims}")
    return array


@dataclass(frozen=True)
class VoxelVolume:
    """Scalar intensity grid. ``values`` has shape ``dims`` and is never
    mutated after construction."""

    dims: tuple
    spacing: tuple
    values: np.ndarray

    def __post_init__(self):
        values = _freeze_grid(self, "value", self.values).copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LabelVolume:
    """Small-integer segmentation grid over the same geometry as VoxelVolume."""

    dims: tuple
    spacing: tuple
    labels: np.ndarray

    def __post_init__(self):
        labels = _freeze_grid(self, "label", self.labels)
        bad = np.setdiff1d(np.unique(labels), np.array(LABEL_SET))
        if bad.size:
            raise ValidationError(f"labels outside declared set {LABEL_SET}: {bad.tolist()}")
        labels = labels.astype(np.uint8)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class Sequence4D:
    """Time-ordered frames sharing one grid, with normalized times and the
    end-diastole / end-systole frame indices."""

    frames: tuple
    times: np.ndarray
    ed_index: int
    es_index: int

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ValidationError("sequence must contain at least one frame")
        dims, spacing = frames[0].dims, frames[0].spacing
        for i, f in enumerate(frames):
            if f.dims != dims or f.spacing != spacing:
                raise ValidationError(f"frame {i} geometry differs from frame 0")
        times = np.asarray(self.times, dtype=np.float64)
        if times.shape != (len(frames),):
            raise ValidationError("one normalized time per frame required")
        if not np.all(np.isfinite(times)):
            raise ValidationError("times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("times must be strictly increasing")
        if not (0 <= self.ed_index < len(frames) and 0 <= self.es_index < len(frames)):
            raise ValidationError("ed/es indices out of range")
        times.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "times", times)

    @property
    def dims(self):
        return self.frames[0].dims

    @property
    def spacing(self):
        return self.frames[0].spacing

    def __len__(self):
        return len(self.frames)


# ---------------------------------------------------------------------------
# File container: a JSON manifest plus a raw payload, shared by volumes,
# Gaussian sets, control nodes and deformation networks
# ---------------------------------------------------------------------------

def _write_json(path, data):
    Path(path).write_text(json.dumps(data, indent=1), encoding="utf-8")


def _read_json(path, what):
    """Parse a JSON object from ``path``.  A missing file raises the OSError
    (an I/O failure); malformed text or a non-object raises ValidationError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ValidationError(f"{path}: malformed {what}: {e}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    return data


# value checks by name: JSON kinds, and the dataclass field annotations of the
# run config and the phantom spec ("dict" is a map of learning rates); a
# "float" is a finite float or an integer within the float range
_KINDS = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "str": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "tuple": lambda v: isinstance(v, (list, tuple)) and all(map(_KINDS["float"], v)),
    "dict": lambda v: isinstance(v, dict) and all(map(_KINDS["float"], v.values())),
}


def _check_keys(where, data, spec):
    """Require every key of ``spec`` in ``data``, holding a value of the
    named kind (see _KINDS) or, where the spec is a list, one of its items."""
    for key, want in spec.items():
        if key not in data:
            raise ValidationError(f"{where}: missing key '{key}'")
        value = data[key]
        if not (value in want if isinstance(want, list) else _KINDS[want](value)):
            raise ValidationError(f"{where}: '{key}' must be {want}, got {value!r}")


def _check_kinds(config):
    """Check each field of a config against its annotated kind (see _KINDS)
    or nested config class; every config's __post_init__ calls this first."""
    for name, f in config.__dataclass_fields__.items():
        value, nested = getattr(config, name), f.default_factory
        if not (isinstance(value, nested) if is_dataclass(nested) else _KINDS[f.type](value)):
            raise ValidationError(
                f"{type(config).__name__}: '{name}' must be {f.type}, got {value!r}")


def _from_dict(cls, data, where):
    """Build dataclass ``cls`` from a parsed JSON object: unknown keys are
    rejected, fields whose default is a dataclass are built from nested
    objects and tuple fields from lists; the dataclass checks the kinds."""
    fields = cls.__dataclass_fields__
    unknown = set(data) - set(fields)
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")
    values = dict(data)
    for key, value in data.items():
        nested = fields[key].default_factory
        if is_dataclass(nested):
            _check_keys(where, data, {key: "object"})
            values[key] = _from_dict(nested, value, key)
        elif fields[key].type == "tuple" and isinstance(value, list):
            values[key] = tuple(value)
    return cls(**values)


class _Payload:
    """Raw payload bytes, taken as arrays front to back."""

    def __init__(self, raw):
        self.raw = memoryview(raw)
        self.offset = 0

    def take(self, dtype, shape, order="C"):
        """Next array of ``shape`` as a read-only view of the payload (the
        object constructors copy it); float data must be finite."""
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ValidationError(f"bad array shape {list(shape)}")
        dtype = np.dtype(dtype)
        end = self.offset + dtype.itemsize * math.prod(shape)
        if end > len(self.raw):
            raise ValidationError(
                f"payload is {len(self.raw)} bytes, the manifest needs at least {end}")
        flat = np.frombuffer(self.raw[self.offset:end], dtype=dtype)
        self.offset = end
        if dtype.kind == "f" and not np.all(np.isfinite(flat)):
            raise ValidationError("payload contains non-finite values")
        return flat.reshape(shape, order=order)


def _write_container(path, suffix, manifest, arrays):
    """Write ``<name><suffix>`` (``manifest`` plus the payload name) and
    ``<name>.raw`` (the bytes of ``arrays``, C order, back to back).  A
    non-finite float, which the reader would reject, raises NumericalAbort
    before anything is written."""
    path = Path(path)
    if path.suffix == suffix:
        path = path.with_suffix("")
    if any(a.dtype.kind == "f" and not np.all(np.isfinite(a)) for a in arrays):
        raise NumericalAbort(f"{path.name}{suffix}: non-finite values in the payload")
    raw_name = path.name + ".raw"
    path.parent.mkdir(parents=True, exist_ok=True)
    (path.parent / raw_name).write_bytes(b"".join(a.tobytes() for a in arrays))
    _write_json(path.with_name(path.name + suffix), {**manifest, "payload": raw_name})


def _read_container(path, suffix, required, parse):
    """Read a ``<name><suffix>`` manifest, which must hold exactly the keys
    of ``required`` (see _check_keys) plus ``payload``, and build the object
    with ``parse(manifest, payload)``, which must take every payload byte.  A
    missing manifest raises the OSError, every other fault ValidationError."""
    path = Path(path)
    if path.suffix != suffix:
        path = path.with_name(path.name + suffix)
    manifest = _read_json(path, "manifest")
    required = {**required, "payload": "str"}
    _check_keys(path, manifest, required)
    unknown = set(manifest) - set(required)
    if unknown:
        raise ValidationError(f"{path}: unknown manifest keys {sorted(unknown)}")
    raw_path = path.parent / manifest["payload"]
    if not raw_path.is_file():
        raise ValidationError(f"{path}: missing raw payload {raw_path.name}")
    payload = _Payload(raw_path.read_bytes())
    try:
        obj = parse(manifest, payload)
        if payload.offset != len(payload.raw):
            raise ValidationError(f"payload is {len(payload.raw)} bytes, "
                                  f"the manifest accounts for {payload.offset}")
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None
    return obj


def save_volume(volume, path):
    """Write ``<path>.vjson`` manifest plus ``<path>.raw`` payload.

    VoxelVolume is stored as f32le, LabelVolume as u8; both round-trip
    bit-exactly through load_volume.
    """
    if isinstance(volume, LabelVolume):
        tag, data = "u8", volume.labels.astype("u1")
    elif isinstance(volume, VoxelVolume):
        tag, data = "f32le", volume.values.astype("<f4")
    else:
        raise ValidationError(f"cannot save object of type {type(volume).__name__}")
    manifest = {"dims": list(volume.dims), "spacing_mm": list(volume.spacing),
                "dtype": tag, "order": "x-fastest"}
    _write_container(path, ".vjson", manifest, [data.ravel(order="F")])


def _parse_volume(manifest, payload):
    dims, spacing = _check_geometry(manifest["dims"], manifest["spacing_mm"])
    tag = manifest["dtype"]
    data = payload.take(_DTYPE_TAGS[tag], dims, order="F")
    if tag == "u8":
        return LabelVolume(dims, spacing, data)
    return VoxelVolume(dims, spacing, data)


def load_volume(path):
    """Read a ``.vjson`` manifest and its raw payload.

    Returns VoxelVolume for f32le payloads and LabelVolume for u8. Rejects
    missing payloads, size mismatches, unknown dtype tags and non-finite
    float data.
    """
    required = {"dims": "list", "spacing_mm": "list", "dtype": list(_DTYPE_TAGS),
                "order": ["x-fastest"]}
    return _read_container(path, ".vjson", required, _parse_volume)


def save_sequence(sequence, dirpath):
    """Write a sequence directory: one volume container per frame plus
    ``sequence.vjson`` carrying times and the ED/ES indices."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    names = [f"frame_{i:03d}.vjson" for i in range(len(sequence.frames))]
    for name, frame in zip(names, sequence.frames):
        save_volume(frame, dirpath / name)
    _write_json(dirpath / "sequence.vjson", {
        "frames": names,
        "times": [float(t) for t in sequence.times],
        "ed_index": int(sequence.ed_index),
        "es_index": int(sequence.es_index),
    })


def load_sequence(dirpath):
    dirpath = Path(dirpath)
    index_path = dirpath / "sequence.vjson"
    if not index_path.exists():
        raise ValidationError(f"{dirpath}: no sequence.vjson found")
    index = _read_json(index_path, "sequence index")
    _check_keys(index_path, index, {"frames": "list", "times": "tuple",
                                    "ed_index": "int", "es_index": "int"})
    if not all(isinstance(name, str) for name in index["frames"]):
        raise ValidationError(f"{index_path}: frame names must be strings")
    frames = []
    for name in index["frames"]:
        vol = load_volume(dirpath / name)
        if not isinstance(vol, VoxelVolume):
            raise ValidationError(f"{dirpath}/{name}: sequence frames must be f32le volumes")
        frames.append(vol)
    return Sequence4D(frames, index["times"], index["ed_index"], index["es_index"])


# ---------------------------------------------------------------------------
# Coordinate transforms
# ---------------------------------------------------------------------------

def _axis_denoms(dims):
    # i/(n-1) per axis; a single-voxel axis maps to coordinate 0
    return np.array([max(d - 1, 1) for d in dims], dtype=np.float64)


def _extent(grid):
    if any(d < 2 for d in grid.dims):
        raise ValidationError("normalized coordinates need dims >= 2 on each axis")
    return np.array(grid.spacing) * _axis_denoms(grid.dims)


def world_to_normalized(points_mm, grid):
    """Map world (mm) points onto the unit cube spanned by voxel centers.

    ``grid`` is anything with ``dims``/``spacing`` (VoxelVolume, LabelVolume,
    Sequence4D). Requires dims >= 2 per axis so the box is non-degenerate.
    """
    extent = _extent(grid)
    return np.asarray(points_mm, dtype=np.float64) / extent


def normalized_to_world(points_norm, grid):
    """Inverse of world_to_normalized."""
    extent = _extent(grid)
    return np.asarray(points_norm, dtype=np.float64) * extent


def voxel_centers_normalized(dims):
    """(nx, ny, nz, 3) array of normalized voxel-center coordinates."""
    denoms = _axis_denoms(dims)
    axes = [np.arange(d, dtype=np.float64) / denoms[i] for i, d in enumerate(dims)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
