"""The evaluation metrics on synthetic cases with known answers.

Run:  python3 demos/06_metrics_suite.py
"""

import numpy as np

from gausstrack.metrics import dice, hausdorff, jacobian_stats, psnr, ssim3d
from gausstrack.volgrid import LabelVolume, voxel_centers_normalized

dims = (16, 16, 16)
rng = np.random.default_rng(0)

# Dice on shifted boxes.
a = np.zeros(dims, dtype=np.uint8)
a[4:12, 4:12, 4:12] = 2
b = np.zeros(dims, dtype=np.uint8)
b[6:14, 4:12, 4:12] = 2
va = LabelVolume(dims, (1.5, 1.5, 1.5), a)
vb = LabelVolume(dims, (1.5, 1.5, 1.5), b)
print("dice of a box shifted by 2 of 8 voxels:", dice(va, vb, 2))
print("hausdorff (mm):", hausdorff(va, vb, 2))

# PSNR/SSIM against noisy copies.
t = rng.random(dims)
for s in (0.01, 0.1):
    p = t + s * rng.normal(size=dims)
    print(f"noise sigma {s}: psnr {psnr(p, t):.1f} dB, ssim {ssim3d(p, t):.3f}")

# Jacobian diagnostics on analytic fields, each an (nx, ny, nz, 3) array of
# displacements in normalized units.
pts = voxel_centers_normalized(dims)
fold, dev = jacobian_stats(0.1 * pts)
print(f"uniform 10% dilation: folds {fold}, |det-1| {dev:.3f} (exact: 0.331)")

flip = np.zeros(dims + (3,))
flip[..., 0] = -2.0 * pts[..., 0]
fold, dev = jacobian_stats(flip)
print(f"axis flip: fold fraction {fold} (every interior voxel folds)")
