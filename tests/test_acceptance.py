"""The tracking ladder: one rung per layer of the motion model, each a test
of seconds on the real code path against the phantom's analytic field."""

import numpy as np
from scipy.sparse.linalg import lsqr

from gausstrack.gauss import initialize_from_mask
from gausstrack.motion import blend_operator, init_control_nodes, knn_indices
from gausstrack.phantom import PhantomField, PhantomSpec, generate_phantom
from gausstrack.volgrid import LABEL_MYO

# fit-densify-32's phantom and sizes; the texture moves no label and no
# displacement, so every texture seed scores the same
DIMS, SPACING, FRAMES = (32, 32, 32), (3.0, 3.0, 3.0), 5
N_INIT, NODE_BUDGET, K = 1024, 512, 4


def tracks(epe_mm, zero_mm):
    """The rung's margin: under 0.5 mm and under a fifth of zero motion's."""
    return epe_mm < 0.5 and epe_mm < 0.2 * zero_mm


def test_rung_a_least_squares_node_translations_represent_the_es_field():
    # the blend can represent the motion: node translations solved by least
    # squares through blend_operator at the Gaussian centers reproduce the
    # analytic ES displacement on the ED myocardium voxels
    spec = PhantomSpec(dims=DIMS, spacing=SPACING, frames=FRAMES, texture_seed=1)
    seq, ed_labels, _ = generate_phantom(spec)
    field = PhantomField(spec)
    t_es = float(seq.times[seq.es_index])
    g = initialize_from_mask(ed_labels, seq.frames[seq.ed_index], N_INIT, seed=0)
    nodes = init_control_nodes(g.centers, NODE_BUDGET, seed=1)

    def blend(points):
        return blend_operator(points, nodes, knn_indices(points, nodes.positions, K))

    a = blend(g.centers)
    target = field.displacement_normalized(g.centers, t_es)
    translations = np.stack([lsqr(a, target[:, c], atol=1e-12, btol=1e-12)[0]
                             for c in range(3)], axis=1)

    denoms = np.array(DIMS) - 1.0
    extent = denoms * np.array(SPACING)
    myo = np.argwhere(ed_labels.labels == LABEL_MYO) / denoms
    u_true = field.displacement_normalized(myo, t_es)
    w = blend(myo)

    def epe_mm(trans):
        u = w @ trans
        return float(np.linalg.norm((u - u_true) * extent, axis=1).mean())

    zero = epe_mm(np.zeros_like(translations))
    assert zero > 2.0  # the ES motion is large enough to score
    assert tracks(epe_mm(translations), zero)
    assert not tracks(epe_mm(-translations), zero)
