"""Control nodes + deformation network + linear blend skinning.

Run:  python3 demos/03_motion_model.py
"""

import numpy as np

from gausstrack.gauss import GaussianSet
from gausstrack.motion import (
    ControlNodeSet,
    DeformNet,
    apply_motion,
    blend_operator,
    dense_displacement,
    knn_indices,
    motion_forward,
    node_transforms,
    positional_encoding,
)

rng = np.random.default_rng(1)

# Sinusoidal encoding lifts coordinates/time into multi-frequency features.
print("gamma(0.5, L=2) =", positional_encoding(0.5, 2))

# 64 nodes that share one RBF radius, 0.15 of the normalized cube; the set
# is frozen and its positions are read-only
nodes = ControlNodeSet(positions=rng.random((64, 3)), log_radius=np.log(0.15))
print("nodes:", nodes.count, " shared radius:", round(float(np.exp(nodes.log_radius)), 3))
net = DeformNet.create(l_space=6, l_time=4, hidden_width=32, hidden_depth=3, seed=0)

# One (M, 6) array per time: translation, then per-axis log-scale offset.
# The zero-initialized head makes every row zero: the identity.
t6, _ = node_transforms(net, nodes.positions, t=0.5)
print("zero rows at start:", np.all(t6 == 0))
assert np.all(t6 == 0)

# Give the head some weights so there is motion to interpolate.
net.weights[-1] = 0.02 * rng.normal(size=net.weights[-1].shape)
t6, _ = node_transforms(net, nodes.positions, t=0.5)

# Dense motion at any point: k nearest nodes, normalized RBF weights (a
# softmax of -d^2 / (2 o^2) over the neighbours), convex combination of
# their transforms.  The blend is one sparse (queries x nodes) matrix W,
# one row per query with its k weights in neighbour order.
queries = rng.random((5, 3))
idx = knn_indices(queries, nodes.positions, k=4)
w = blend_operator(queries, nodes, idx)
row = w.data[:4]
print("first query: neighbors", w.indices[:4], "weights", row.round(3),
      "(sum:", row.sum().round(6), ")")
assert np.all(np.abs(w @ np.ones(nodes.count) - 1) < 1e-12)
b6 = w @ t6
delta, log_offset = b6[:, :3], b6[:, 3:]
print("blended translation:", delta[0].round(4), " log-scale offset:", log_offset[0].round(4))

# Or in one call, the displacement field evaluated anywhere.
u = dense_displacement(queries, nodes, net, t=0.5, k=4)
print("dense displacement matches:", np.allclose(u, delta))
assert np.array_equal(u, delta)

# Its transpose carries a gradient on the blended rows back to the nodes:
# W.T @ g is the blend's whole adjoint, since W itself is held fixed.
g6 = rng.normal(size=b6.shape)
adjoint = np.isclose(np.sum(b6 * g6), np.sum(t6 * (w.T @ g6)))
print("adjoint identity <W t, g> = <t, W.T g>:", adjoint)
assert adjoint

# A Gaussian set moves in two layers, the way fit chains them: the network
# gives the (M, 6) node transforms, then the blend's forward deforms the set
# by them.  apply_motion is the same composition in one call.
g = GaussianSet(rng.random((8, 3)), np.tile([1.0, 0, 0, 0], (8, 1)),
                np.log(np.full((8, 3), 0.05)), rng.uniform(0.3, 1.0, 8))
idx = knn_indices(g.centers, nodes.positions, k=4)
# The blend is linear in the node rows, so zero rows leave the set as it was.
still, _ = motion_forward(g, nodes, np.zeros((nodes.count, 6)), idx)
kept = all(np.array_equal(getattr(still, name), getattr(g, name))
           for name in ("centers", "rotations", "log_scales", "intensities"))
print("zero rows keep the set:", kept)
assert kept
t6, _ = node_transforms(net, nodes.positions, t=0.5)
deformed, _ = motion_forward(g, nodes, t6, idx)
print("first center moved by:", (deformed.centers[0] - g.centers[0]).round(4))
composed, _ = apply_motion(g, nodes, net, 0.5, idx)
print("apply_motion matches:", np.array_equal(composed.centers, deformed.centers))
for name in ("centers", "rotations", "log_scales", "intensities"):
    assert getattr(composed, name).tobytes() == getattr(deformed, name).tobytes()
