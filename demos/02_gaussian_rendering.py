"""Anisotropic Gaussians: covariance factorization, rendering, exact
gradients.  Exits non-zero if the uncut render departs from the all-pairs
oracle or the intensity partial from its finite difference.

Run:  python3 demos/02_gaussian_rendering.py
"""

import numpy as np

from gausstrack.gauss import (
    GaussianSet,
    canonicalize_quaternions,
    quaternions_to_matrices,
    render_backward,
    render_values,
    render_values_bruteforce,
    render_with_cache,
)

rng = np.random.default_rng(3)

# Covariance = R S S^T R^T from a quaternion and per-axis log scales, as the
# renderer builds it for every Gaussian at once.
q_hat, _ = canonicalize_quaternions([np.cos(np.pi / 8), 0, 0, np.sin(np.pi / 8)])
R = quaternions_to_matrices(q_hat)[0]
s = np.exp(np.log([0.2, 0.05, 0.05]))
M = R * s
print("sigma:\n", (M @ M.T).round(4))
print("cutoff radius (3 sigma_max):", round(3 * s.max(), 3))

# A random scene rendered with the production path and the all-pairs oracle.
n = 24
scene = GaussianSet(
    centers=0.2 + 0.6 * rng.random((n, 3)),
    rotations=rng.normal(size=(n, 4)),
    log_scales=np.log(rng.uniform(0.03, 0.1, (n, 3))),
    intensities=rng.uniform(0.2, 0.8, n),
)
dims = (24, 24, 24)
fast, cache = render_with_cache(scene, dims)    # default cutoff, 3 sigma_max
exact = render_values_bruteforce(scene, dims)
print("max |cutoff render - bruteforce|:", float(np.abs(fast - exact).max()))
uncut = render_values(scene, dims, cutoff_multiplier=np.inf)
print("max |uncut render - bruteforce|:", float(np.abs(uncut - exact).max()))
assert np.abs(uncut - exact).max() < 1e-12

# The analytic backward pass reads the forward's cache and gives partials
# for every parameter group.
upstream = np.sign(fast - exact + 0.1)  # any per-voxel loss gradient
grads = render_backward(scene, dims, upstream, cache)
print("gradient shapes:", grads.centers.shape, grads.rotations.shape,
      grads.log_scales.shape, grads.intensities.shape)

# Spot-check one intensity partial with central differences.
i, h = 7, 1e-4


def loss(g):
    return float(np.sum(upstream * render_values(g, dims)))


scene.intensities[i] += h
up = loss(scene)
scene.intensities[i] -= 2 * h
dn = loss(scene)
scene.intensities[i] += h
fd = (up - dn) / (2 * h)
print(f"dL/dI[{i}]: analytic {grads.intensities[i]:.6f} vs fd {fd:.6f}")
assert abs(grads.intensities[i] - fd) <= 1e-6 * abs(fd)
