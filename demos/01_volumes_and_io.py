"""Volume containers: construction, the bit-exact file format, coordinates.

Run:  python3 demos/01_volumes_and_io.py
"""

import tempfile
from pathlib import Path

import numpy as np

from gausstrack import (
    LabelVolume,
    Sequence4D,
    VoxelVolume,
    load_sequence,
    load_volume,
    save_sequence,
    save_volume,
    world_to_normalized,
)

rng = np.random.default_rng(0)

# A small anisotropic grid: values indexed [ix, iy, iz], spacing in mm.
vol = VoxelVolume(dims=(24, 24, 12), spacing=(1.5, 1.5, 3.15),
                  values=rng.random((24, 24, 12)).astype(np.float32))
# Labels share the geometry: 0 background, 1 RV, 2 myocardium, 3 LV.
labels = LabelVolume(vol.dims, vol.spacing, rng.integers(0, 4, vol.dims))
# A sequence is frames on one grid, normalized times and the ED/ES indices.
seq = Sequence4D([vol, VoxelVolume(vol.dims, vol.spacing, 1 - vol.values)],
                 times=[0.0, 0.5], ed_index=0, es_index=1)

# The container is a JSON manifest + raw little-endian payload and round
# trips bit-exactly: f32 intensities, u8 labels, and a sequence directory.
with tempfile.TemporaryDirectory() as tmp:
    save_volume(vol, Path(tmp) / "demo")
    back = load_volume(Path(tmp) / "demo")
    print("volume round trip bit-exact:", np.array_equal(back.values, vol.values))
    save_volume(labels, Path(tmp) / "labels")
    back = load_volume(Path(tmp) / "labels")
    print("labels load as", type(back).__name__, "bit-exact:",
          np.array_equal(back.labels, labels.labels))
    save_sequence(seq, Path(tmp) / "sequence")
    back = load_sequence(Path(tmp) / "sequence")
    print("sequence of", len(back), "frames, times", back.times.tolist(),
          "bit-exact:", all(np.array_equal(a.values, b.values)
                            for a, b in zip(back.frames, seq.frames)))

# World <-> normalized coordinates span the voxel-center bounding box.
corner = [(d - 1) * s for d, s in zip(vol.dims, vol.spacing)]
print("far corner maps to:", world_to_normalized(corner, vol))
