"""gausstrack: per-instance 4D motion tracking with deformable Gaussian volumes.

A reference 3D frame is represented as a set of anisotropic Gaussians; a
sparse control-node field driven by a small time-conditioned network deforms
them so that rendered volumes match every frame of a 4D sequence.  Everything
is fit per instance by gradient descent against the sequence itself — no
training data, no precomputed correspondences.
"""

from .errors import NumericalAbort, ValidationError
from .volgrid import (
    LabelVolume,
    Sequence4D,
    VoxelVolume,
    load_sequence,
    load_volume,
    normalized_to_world,
    save_sequence,
    save_volume,
    world_to_normalized,
)

__version__ = "0.1.0"
