"""Control nodes + deformation network + linear blend skinning.

Run:  python3 demos/03_motion_model.py
"""

import numpy as np

from gausstrack.motion import (
    ControlNodeSet,
    DeformNet,
    blend_transforms,
    blend_weights,
    dense_displacement,
    knn_indices,
    node_transforms,
    positional_encoding,
)

rng = np.random.default_rng(1)

# Sinusoidal encoding lifts coordinates/time into multi-frequency features.
print("gamma(0.5, L=2) =", positional_encoding(0.5, 2))

nodes = ControlNodeSet(positions=rng.random((64, 3)),
                       log_radii=np.log(np.full(64, 0.15)))
net = DeformNet.create(l_space=6, l_time=4, hidden_width=32, hidden_depth=3, seed=0)

# One (M, 6) array per time: translation, then scale factor exp(raw).  The
# zero-initialized head makes the motion start as the exact identity.
t6, _ = node_transforms(net, nodes.positions, t=0.5)
print("identity at start:", np.all(t6[:, :3] == 0), np.all(t6[:, 3:] == 1))
assert np.all(t6[:, :3] == 0) and np.all(t6[:, 3:] == 1)

# Give the head some weights so there is motion to interpolate.
net.weights[-1] = 0.02 * rng.normal(size=net.weights[-1].shape)
t6, _ = node_transforms(net, nodes.positions, t=0.5)

# Dense motion at any point: k nearest nodes, normalized RBF weights (a
# softmax of -d^2 / (2 o^2) over the neighbours), convex combination of
# their transforms.
queries = rng.random((5, 3))
idx = knn_indices(queries, nodes.positions, k=4)
w = blend_weights(queries, nodes.positions, nodes.log_radii, idx)
print("first query: neighbors", idx[0], "weights", w[0].round(3),
      "(sum:", w[0].sum().round(6), ")")
assert np.all(np.abs(w.sum(axis=1) - 1) < 1e-12)
delta, alpha = blend_transforms(w, idx, t6)
print("blended translation:", delta[0].round(4), " scale factor:", alpha[0].round(4))

# Or in one call, the displacement field evaluated anywhere.
u = dense_displacement(queries, nodes, net, t=0.5, k=4)
print("dense displacement matches:", np.allclose(u, delta))
assert np.array_equal(u, delta)
