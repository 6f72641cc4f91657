"""The manifest+raw container shared by volumes, Gaussian sets, control nodes
and deformation networks: a pinned on-disk format, and one error (a
ValidationError) for every way a container can be damaged."""

import hashlib
import json

import numpy as np
import pytest

from gausstrack.errors import ValidationError
from gausstrack.gauss import GaussianSet, load_gaussians, save_gaussians
from gausstrack.motion import (ControlNodeSet, DeformNet, load_network, load_nodes,
                               save_network, save_nodes)
from gausstrack.volgrid import LabelVolume, VoxelVolume, load_volume, save_volume


def sample_objects():
    """Small fixed objects of every container kind, built without an RNG."""
    dims = (3, 2, 4)
    vol = VoxelVolume(dims, (1.5, 2.0, 0.5),
                      (np.arange(24, dtype=np.float32) / 7 - 1).reshape(dims))
    labels = LabelVolume(dims, (1.5, 2.0, 0.5), (np.arange(24) % 4).reshape(dims))
    n = 5
    i = np.arange(n, dtype=np.float64)
    g = GaussianSet(np.stack([i / 5, 1 - i / 7, (i % 3) / 3], axis=1),
                    np.stack([1 + i, i / 3, -i / 4, 0.5 + 0 * i], axis=1),
                    np.stack([-2 - i / 9, -3 + i / 11, -2.5 + 0 * i], axis=1),
                    np.sin(i), (np.arange(n) % 3 + 1).astype(np.uint8))
    nodes = ControlNodeSet(np.stack([i / 4, i / 6, 1 - i / 8], axis=1), -2.1)
    sizes = [6 + 2, 3, 6]
    net = DeformNet([np.arange(a * b).reshape(a, b) / (a * b) - 0.5
                     for a, b in zip(sizes, sizes[1:])],
                    [np.linspace(-1, 1, b) for b in sizes[1:]], l_space=1, l_time=1)
    return {"volume": (vol, save_volume, load_volume, ".vjson"),
            "labels": (labels, save_volume, load_volume, ".vjson"),
            "gaussians": (g, save_gaussians, load_gaussians, ".gjson"),
            "nodes": (nodes, save_nodes, load_nodes, ".njson"),
            "network": (net, save_network, load_network, ".wjson")}


# sha256 of each written file, computed with the codecs as they were before
# the four of them shared one container reader and writer
PINNED = {
    "gaussians.gjson": "96773d18b2217bdb8723154569f5f0e2a8898bde16113650a4a2881063af07b3",
    "gaussians.raw": "337393ab826ee55cab81a86e7afbb14ebcf997a97e3ca65a9c49ead4498930d0",
    "labels.raw": "3bc57cae2c3ff76849f29e85a2d72361835300e324960368a495ec9dd7609fb3",
    "labels.vjson": "4a93bedde07068449023f79f9fe3671aad19e5c9f565e744b4c7678f9592b181",
    "network.raw": "620a9a5b28df13e554aae0c1d0bf8f3389a283305b3b3d7c299fdec6252a10af",
    "network.wjson": "9ac604926b79448206c8a8afad356d28c4a534cbe35a0da253b01cb2f80d2da7",
    # the node container holds one radius (fields positions, log_radius)
    "nodes.njson": "c39075ec092d1f292eb9d1f5a4f4a254203c31127de021946fb3d50aeee140e4",
    "nodes.raw": "12ab71226b0bdac66bee4e963a90da3136bfa65b9a54e821d6107b06a0b60bca",
    "volume.raw": "dadc6546fc1fdf430bf1da166baf8904ef61b0ffc3060834a6e2d45cd8f66f67",
    "volume.vjson": "ec5f7d197e3783f51c2dd1d4848875330aa1745a9e693a648bd03f6b2055497a",
}


def test_written_files_are_pinned(tmp_path):
    for name, (obj, save, _, _) in sample_objects().items():
        save(obj, tmp_path / name)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == PINNED


FLOAT_KINDS = ("volume", "gaussians", "nodes", "network")


def _saved(tmp_path, kind):
    """Save the sample of ``kind``; returns its loader, manifest and payload."""
    obj, save, load, suffix = sample_objects()[kind]
    save(obj, tmp_path / kind)
    return load, tmp_path / f"{kind}{suffix}", tmp_path / f"{kind}.raw"


def _rewrite(manifest_path, **changes):
    manifest_path.write_text(json.dumps({**json.loads(manifest_path.read_text()), **changes}))


DAMAGE = {
    "truncated payload": lambda man, raw: raw.write_bytes(raw.read_bytes()[:-3]),
    "payload too long": lambda man, raw: raw.write_bytes(raw.read_bytes() + bytes(4)),
    "nan payload": lambda man, raw: raw.write_bytes(
        np.array([np.nan], dtype="<f4").tobytes() + raw.read_bytes()[4:]),
    "missing payload": lambda man, raw: raw.unlink(),
    "malformed json": lambda man, raw: man.write_text(man.read_text()[:-2]),
    "not an object": lambda man, raw: man.write_text("[1, 2]"),
    "unknown manifest key": lambda man, raw: _rewrite(man, extra=1),
}


@pytest.mark.parametrize("what", DAMAGE)
@pytest.mark.parametrize("kind", FLOAT_KINDS)
def test_damaged_container_is_a_validation_error(tmp_path, kind, what):
    load, manifest_path, raw_path = _saved(tmp_path, kind)
    DAMAGE[what](manifest_path, raw_path)
    with pytest.raises(ValidationError, match=kind):
        load(manifest_path)


@pytest.mark.parametrize("kind", FLOAT_KINDS)
def test_payload_name_must_stay_inside_the_manifest_directory(tmp_path, kind):
    # the payload is whole wherever it lies; only a name that leaves the
    # manifest's directory, absolute or through '..', is refused
    load, manifest_path, raw_path = _saved(tmp_path / "here", kind)
    elsewhere = tmp_path / "elsewhere" / raw_path.name
    elsewhere.parent.mkdir()
    raw_path.rename(elsewhere)
    for name in (str(elsewhere), f"../elsewhere/{raw_path.name}",
                 f"sub/../../elsewhere/{raw_path.name}"):
        _rewrite(manifest_path, payload=name)
        with pytest.raises(ValidationError, match=f"{kind}.*'payload' must be path inside"):
            load(manifest_path)
    (tmp_path / "here" / "sub").mkdir()
    elsewhere.rename(tmp_path / "here" / "sub" / raw_path.name)
    _rewrite(manifest_path, payload=f"sub/{raw_path.name}")
    load(manifest_path)


@pytest.mark.parametrize("kind", FLOAT_KINDS)
def test_dropped_or_mistyped_manifest_key_is_a_validation_error(tmp_path, kind):
    load, manifest_path, _ = _saved(tmp_path, kind)
    manifest = json.loads(manifest_path.read_text())
    for key, value in manifest.items():
        dropped = {k: v for k, v in manifest.items() if k != key}
        mistyped = {**manifest, key: 7 if isinstance(value, str) else "junk"}
        for broken in (dropped, mistyped):
            manifest_path.write_text(json.dumps(broken))
            with pytest.raises(ValidationError, match=kind):
                load(manifest_path)


@pytest.mark.parametrize("kind,key,value", [
    ("gaussians", "fields", ["centers", "rotations", "log_scales", "opacity"]),
    ("gaussians", "fields", ["rotations", "centers", "log_scales", "intensities"]),
    ("nodes", "fields", ["positions", "radii"]),
    ("gaussians", "count", -1),
    ("gaussians", "count", True),
    ("nodes", "count", 4),
    ("network", "layer_sizes", [8, "3", 6]),
    ("network", "layer_sizes", [8, -3, 6]),
    ("network", "layer_sizes", []),
    ("volume", "dims", [3, 2]),
    ("volume", "dims", [3, "x", 4]),
    ("volume", "dims", [3.9, 2, 4]),
    ("volume", "dims", [3, 2, float("inf")]),
    ("volume", "spacing_mm", [1.5, 0, 0.5]),
])
def test_inconsistent_manifest_value_is_a_validation_error(tmp_path, kind, key, value):
    load, manifest_path, _ = _saved(tmp_path, kind)
    _rewrite(manifest_path, **{key: value})
    with pytest.raises(ValidationError, match=kind):
        load(manifest_path)


def test_missing_manifest_is_an_os_error(tmp_path):
    for kind, (_, _, load, _) in sample_objects().items():
        with pytest.raises(FileNotFoundError):
            load(tmp_path / kind)


@pytest.mark.parametrize("kind", ["volume", "labels", "gaussians", "nodes", "network"])
def test_dotted_name_keeps_its_whole_name(tmp_path, kind):
    obj, save, load, suffix = sample_objects()[kind]
    save(obj, tmp_path / f"{kind}_t0.5")
    assert {p.name for p in tmp_path.iterdir()} == {f"{kind}_t0.5.raw",
                                                    f"{kind}_t0.5{suffix}"}
    for path in (tmp_path / f"{kind}_t0.5", tmp_path / f"{kind}_t0.5{suffix}"):
        save(load(path), tmp_path / "again" / kind)
        assert (tmp_path / "again" / f"{kind}.raw").read_bytes() == \
            (tmp_path / f"{kind}_t0.5.raw").read_bytes()
