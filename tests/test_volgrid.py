import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstrack.errors import NumericalAbort, ValidationError
from gausstrack import volgrid
from gausstrack.optim import DEFAULT_LEARNING_RATES, FitConfig
from gausstrack.phantom import PhantomSpec
from gausstrack.volgrid import (
    LabelVolume,
    Sequence4D,
    VoxelVolume,
    load_volume,
    load_sequence,
    normalized_to_world,
    save_sequence,
    save_volume,
    world_to_normalized,
)


def make_volume(dims=(4, 4, 4), spacing=(1.0, 1.0, 1.0), seed=0):
    rng = np.random.default_rng(seed)
    return VoxelVolume(dims, spacing, rng.random(dims).astype(np.float32))


# --- container round trips -------------------------------------------------

def test_round_trip_bit_exact(tmp_path):
    vol = make_volume(dims=(8, 8, 4), seed=3)
    save_volume(vol, tmp_path / "v")
    back = load_volume(tmp_path / "v.vjson")
    assert back.dims == vol.dims
    assert back.spacing == vol.spacing
    assert back.values.dtype == np.float32
    assert np.array_equal(back.values, vol.values)
    # saving the loaded volume again reproduces the payload byte for byte
    save_volume(back, tmp_path / "v2")
    assert (tmp_path / "v.raw").read_bytes() == (tmp_path / "v2.raw").read_bytes()


def test_label_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    lab = LabelVolume((5, 4, 3), (1.5, 1.5, 3.15), rng.integers(0, 4, (5, 4, 3)))
    save_volume(lab, tmp_path / "m")
    back = load_volume(tmp_path / "m")
    assert isinstance(back, LabelVolume)
    assert np.array_equal(back.labels, lab.labels)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_random_payloads(tmp_path_factory, seed):
    tmp = tmp_path_factory.mktemp("rt")
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 7, 3))
    vol = VoxelVolume(dims, (1.0, 2.0, 0.5), rng.random(dims).astype(np.float32))
    save_volume(vol, tmp / "v")
    back = load_volume(tmp / "v")
    assert np.array_equal(back.values, vol.values)


def test_x_fastest_payload_order(tmp_path):
    # payload of eight f32 values 0..7 lands as (1,0,0)=1, (0,1,0)=2, (0,0,1)=4
    manifest = {
        "dims": [2, 2, 2],
        "spacing_mm": [1, 1, 1],
        "dtype": "f32le",
        "order": "x-fastest",
        "payload": "v.raw",
    }
    (tmp_path / "v.vjson").write_text(json.dumps(manifest))
    (tmp_path / "v.raw").write_bytes(np.arange(8, dtype="<f4").tobytes())
    vol = load_volume(tmp_path / "v.vjson")
    assert vol.values[0, 0, 0] == 0
    assert vol.values[1, 0, 0] == 1
    assert vol.values[0, 1, 0] == 2
    assert vol.values[0, 0, 1] == 4


def test_size_mismatch_rejected(tmp_path):
    manifest = {
        "dims": [4, 4, 4],
        "spacing_mm": [1, 1, 1],
        "dtype": "f32le",
        "order": "x-fastest",
        "payload": "v.raw",
    }
    (tmp_path / "v.vjson").write_text(json.dumps(manifest))
    (tmp_path / "v.raw").write_bytes(b"\x00" * 252)  # should be 256
    with pytest.raises(ValidationError, match="252"):
        load_volume(tmp_path / "v.vjson")


def test_missing_payload_rejected(tmp_path):
    manifest = {
        "dims": [2, 2, 2],
        "spacing_mm": [1, 1, 1],
        "dtype": "f32le",
        "order": "x-fastest",
        "payload": "gone.raw",
    }
    (tmp_path / "v.vjson").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="missing raw payload"):
        load_volume(tmp_path / "v.vjson")


def test_unknown_dtype_rejected(tmp_path):
    manifest = {
        "dims": [2, 2, 2],
        "spacing_mm": [1, 1, 1],
        "dtype": "f64le",
        "order": "x-fastest",
        "payload": "v.raw",
    }
    (tmp_path / "v.vjson").write_text(json.dumps(manifest))
    (tmp_path / "v.raw").write_bytes(b"\x00" * 64)
    with pytest.raises(ValidationError, match="dtype"):
        load_volume(tmp_path / "v.vjson")


def test_nan_payload_is_refused_on_save_and_on_load(tmp_path):
    vals = np.zeros((2, 2, 2), dtype=np.float32)
    vals[1, 1, 1] = np.nan
    with pytest.raises(NumericalAbort, match="non-finite"):
        save_volume(VoxelVolume((2, 2, 2), (1, 1, 1), vals), tmp_path / "v")
    assert list(tmp_path.iterdir()) == []
    # a float64 value that overflows the f32 payload is refused the same way
    with np.errstate(over="ignore"), pytest.raises(NumericalAbort, match="non-finite"):
        save_volume(VoxelVolume((2, 2, 2), (1, 1, 1), np.full((2, 2, 2), 1e300)),
                    tmp_path / "v")
    # a NaN written into the payload by other means is rejected on load
    save_volume(VoxelVolume((2, 2, 2), (1, 1, 1), np.zeros((2, 2, 2))), tmp_path / "v")
    raw = tmp_path / "v.raw"
    raw.write_bytes(raw.read_bytes()[:-4] + np.array([np.nan], "<f4").tobytes())
    with pytest.raises(ValidationError, match="non-finite"):
        load_volume(tmp_path / "v")


def test_label_set_enforced():
    with pytest.raises(ValidationError, match="labels outside"):
        LabelVolume((2, 2, 2), (1, 1, 1), np.full((2, 2, 2), 7))


def test_sequence_round_trip(tmp_path):
    frames = [make_volume(seed=i) for i in range(3)]
    seq = Sequence4D(frames, [0.0, 0.4, 1.0], ed_index=0, es_index=1)
    save_sequence(seq, tmp_path / "seq")
    back = load_sequence(tmp_path / "seq")
    assert len(back) == 3
    assert back.ed_index == 0 and back.es_index == 1
    assert np.allclose(back.times, seq.times)
    for a, b in zip(back.frames, seq.frames):
        assert np.array_equal(a.values, b.values)


def test_sequence_frame_name_must_stay_inside_the_sequence_directory(tmp_path):
    seq = Sequence4D([make_volume(seed=i) for i in range(3)], [0.0, 0.4, 1.0],
                     ed_index=0, es_index=1)
    save_sequence(seq, tmp_path / "seq")
    save_volume(make_volume(seed=7), tmp_path / "elsewhere" / "frame")
    index_path = tmp_path / "seq" / "sequence.vjson"
    index = json.loads(index_path.read_text())
    for name in (str(tmp_path / "elsewhere" / "frame.vjson"), "../elsewhere/frame.vjson"):
        frames = [index["frames"][0], name, index["frames"][2]]
        index_path.write_text(json.dumps({**index, "frames": frames}))
        with pytest.raises(ValidationError, match="'frames' must be paths inside"):
            load_sequence(tmp_path / "seq")


def test_volume_guards_refuse_bad_arguments(tmp_path):
    with pytest.raises(ValidationError, match=r"value array shape \(2, 2, 3\) does not match"):
        VoxelVolume((2, 2, 2), (1.0, 1.0, 1.0), np.zeros((2, 2, 3)))
    with pytest.raises(ValidationError, match="cannot save object of type dict"):
        save_volume({"dims": (2, 2, 2)}, tmp_path / "v")
    assert not list(tmp_path.iterdir())
    with pytest.raises(ValidationError, match="normalized coordinates need dims >= 2"):
        world_to_normalized([0.0, 0.0, 0.0], make_volume(dims=(4, 1, 4)))


def test_sequence_times_must_increase():
    frames = [make_volume(seed=i) for i in range(2)]
    with pytest.raises(ValidationError, match="strictly increasing"):
        Sequence4D(frames, [0.5, 0.5], 0, 1)
    # NaN compares False under `diff <= 0`, so finiteness is checked on its own
    frames = [make_volume(seed=i) for i in range(3)]
    for times in ([0.0, np.nan, 1.0], [0.0, 0.5, np.inf]):
        with pytest.raises(ValidationError, match="finite"):
            Sequence4D(frames, times, 0, 2)


# --- coordinates -----------------------------------------------------------

def test_corner_voxels_map_to_unit_cube_corners():
    vol = make_volume(dims=(5, 5, 5), spacing=(2.0, 1.0, 3.0))
    assert np.allclose(world_to_normalized([0, 0, 0], vol), [0, 0, 0])
    corner = [4 * 2.0, 4 * 1.0, 4 * 3.0]
    assert np.allclose(world_to_normalized(corner, vol), [1, 1, 1])
    mid = [2 * 2.0, 2 * 1.0, 2 * 3.0]
    assert np.allclose(world_to_normalized(mid, vol), [0.5, 0.5, 0.5])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_coordinate_round_trip(seed):
    rng = np.random.default_rng(seed)
    vol = make_volume(dims=tuple(int(d) for d in rng.integers(2, 9, 3)),
                      spacing=tuple(rng.uniform(0.5, 4.0, 3)))
    pts = rng.uniform(-10, 50, (16, 3))
    back = normalized_to_world(world_to_normalized(pts, vol), vol)
    assert np.max(np.abs(back - pts)) < 1e-12 * max(1.0, np.max(np.abs(pts)))


# --- the run-config and phantom-spec parsers ------------------------------------

_HUGE = st.integers(min_value=2 ** 1024, max_value=2 ** 1100)  # beyond the float range
_NUMBERS = st.one_of(st.integers(), _HUGE, _HUGE.map(lambda n: -n),
                     st.floats(-1e308, 1e308, allow_nan=False))
_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | _NUMBERS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _objects(cls):
    """JSON objects keyed by some of the fields of ``cls``: numbers or any
    JSON as values, nested objects for the dataclass fields, number lists for
    the tuples and rate maps for the learning rates."""
    def values(f):
        if dataclasses.is_dataclass(f.default_factory):
            return _objects(f.default_factory) | _JSON
        if f.name == "learning_rates":
            return st.dictionaries(st.sampled_from(sorted(DEFAULT_LEARNING_RATES)),
                                   _NUMBERS) | _JSON
        if f.type == "tuple":
            return st.lists(_NUMBERS, max_size=4) | _JSON
        return _NUMBERS | _JSON
    return st.fixed_dictionaries({}, optional={f.name: values(f)
                                               for f in dataclasses.fields(cls)})


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([FitConfig, PhantomSpec]).flatmap(
    lambda cls: st.tuples(st.just(cls), _objects(cls))))
def test_config_and_spec_parsers_build_or_refuse(case):
    cls, data = case
    try:
        built = volgrid._from_dict(cls, data, cls.__name__)
    except ValidationError:
        return
    assert isinstance(built, cls)
