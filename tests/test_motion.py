import numpy as np
import pytest

from gausstrack.errors import NumericalAbort, ValidationError
from gausstrack.gauss import GaussianSet, render_backward, render_values
from gausstrack.motion import (
    ControlNodeSet,
    DeformNet,
    NodeTransforms,
    apply_motion,
    blend_transforms,
    blend_weights,
    deform_gaussians,
    dense_displacement,
    encode_inputs,
    forward_deform,
    init_control_nodes,
    knn_indices,
    load_network,
    load_nodes,
    motion_backward,
    positional_encoding,
    save_network,
    save_nodes,
    transforms_from_features,
)


def tiny_scene(seed=0, n=6, m=4, k=2, zero_head=False):
    rng = np.random.default_rng(seed)
    g = GaussianSet(
        0.25 + 0.5 * rng.random((n, 3)),
        np.concatenate([np.sign(rng.normal(size=(n, 1))) * (0.5 + rng.random((n, 1))),
                        rng.normal(size=(n, 3))], axis=1),
        np.log(rng.uniform(0.08, 0.2, (n, 3))),
        rng.uniform(0.3, 1.0, n),
    )
    nodes = ControlNodeSet(0.2 + 0.6 * rng.random((m, 3)),
                           np.log(rng.uniform(0.15, 0.4, m)))
    net = DeformNet.create(l_space=2, l_time=2, hidden_width=8, hidden_depth=2,
                           seed=seed + 1)
    if not zero_head:
        net.weights[-1] = 0.05 * rng.normal(size=net.weights[-1].shape)
        net.biases[-1] = 0.05 * rng.normal(size=6)
    return g, nodes, net, k


# --- positional encoding -----------------------------------------------------

def test_encoding_at_zero():
    assert np.allclose(positional_encoding(0.0, 2), [0, 1, 0, 1], atol=1e-15)


def test_encoding_at_half():
    got = positional_encoding(0.5, 2)
    assert np.allclose(got, [1, 0, 0, -1], atol=1e-12)


def test_encoding_matches_direct_trig():
    rng = np.random.default_rng(3)
    p = rng.normal(size=5)
    got = positional_encoding(p, 6)
    expect = []
    for comp in p:
        for kf in range(6):
            expect += [np.sin(2**kf * np.pi * comp), np.cos(2**kf * np.pi * comp)]
    assert np.max(np.abs(got - np.array(expect))) < 1e-12
    assert got.shape == (5 * 2 * 6,)


def test_encoding_batched_shape():
    pts = np.random.default_rng(0).random((7, 3))
    out = positional_encoding(pts, 4)
    assert out.shape == (7, 3 * 2 * 4)
    assert np.allclose(out[2], positional_encoding(pts[2], 4))


# --- deformation network -----------------------------------------------------

def test_zero_initialized_head_gives_identity_transform():
    _, nodes, _, _ = tiny_scene(zero_head=True)
    net = DeformNet.create(l_space=3, l_time=2, hidden_width=16, hidden_depth=3, seed=5)
    tr = forward_deform(net, nodes, t=0.37)
    assert np.all(tr.translations == 0.0)
    assert np.all(tr.scales == 1.0)


def test_forward_is_pure_and_time_sensitive():
    _, nodes, net, _ = tiny_scene(seed=2)
    a = forward_deform(net, nodes, 0.2)
    b = forward_deform(net, nodes, 0.2)
    c = forward_deform(net, nodes, 0.8)
    assert np.array_equal(a.translations, b.translations)
    assert np.array_equal(a.scales, b.scales)
    assert not np.allclose(a.translations, c.translations)


def test_input_width_contract():
    net = DeformNet.create(l_space=10, l_time=6, hidden_width=8, hidden_depth=1)
    assert net.input_width == 6 * 10 + 2 * 6
    assert net.weights[0].shape[0] == net.input_width
    assert net.weights[-1].shape[1] == 6


# --- knn ----------------------------------------------------------------------

def test_knn_query_at_node():
    pos = np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9], [0.5, 0.5, 0.5]])
    idx = knn_indices(pos[2], pos, k=1)
    assert idx.tolist() == [[2]]


def test_knn_k_equals_m_gives_distance_order():
    pos = np.array([[0.0, 0, 0], [0.5, 0, 0], [0.2, 0, 0], [0.9, 0, 0]])
    idx = knn_indices(np.array([[0.05, 0, 0]]), pos, k=4)
    assert idx.tolist() == [[0, 2, 1, 3]]


def test_knn_tie_breaks_by_lower_index():
    pos = np.array([[0.4, 0.5, 0.5], [0.6, 0.5, 0.5], [0.5, 0.4, 0.5]])
    # query equidistant from nodes 0 and 1
    idx = knn_indices(np.array([[0.5, 0.5, 0.5]]), pos, k=2)
    assert idx[0, 0] == 0 and idx[0, 1] == 1


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(12)
    pos = rng.random((60, 3))
    q = rng.random((1000, 3))
    got = knn_indices(q, pos, k=5)
    d2 = ((q[:, None, :] - pos[None]) ** 2).sum(axis=2)
    want = np.argsort(d2, axis=1, kind="stable")[:, :5]
    assert np.array_equal(got, want)


def test_knn_on_grid_points_matches_bruteforce():
    # structured queries produce exact distance ties; both paths must agree
    xs = np.linspace(0, 1, 5)
    q = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    pos = np.stack(np.meshgrid(xs[::2], xs[::2], xs[::2], indexing="ij"), axis=-1).reshape(-1, 3)
    got = knn_indices(q, pos, k=3)
    d2 = ((q[:, None, :] - pos[None]) ** 2).sum(axis=2)
    want = np.argsort(d2, axis=1, kind="stable")[:, :3]
    assert np.array_equal(got, want)


def test_knn_k_too_large():
    pos = np.random.default_rng(0).random((4, 3))
    with pytest.raises(ValidationError, match="k=5"):
        knn_indices(pos, pos, k=5)


# --- blend weights and transforms ---------------------------------------------

def test_single_neighbor_weight_is_one():
    w = blend_weights(np.array([[0.3, 0.3, 0.3]]), np.array([[0.6, 0.6, 0.6]]),
                      np.log([0.2]), np.array([[0]]))
    assert np.allclose(w, [[1.0]])


def test_equidistant_equal_radii_weights():
    pos = np.array([[0.4, 0.5, 0.5], [0.6, 0.5, 0.5]])
    w = blend_weights(np.array([[0.5, 0.5, 0.5]]), pos, np.log([0.2, 0.2]),
                      np.array([[0, 1]]))
    assert np.allclose(w, [[0.5, 0.5]])


def test_blend_weight_formula():
    # distances (1, 2), radii (1, 1): w_hat = (e^-0.5, e^-2)
    pos = np.array([[1.0, 0, 0], [2.0, 0, 0]])
    w = blend_weights(np.array([[0.0, 0, 0]]), pos, np.log([1.0, 1.0]),
                      np.array([[0, 1]]))
    w_hat = np.array([np.exp(-0.5), np.exp(-2.0)])
    assert np.allclose(w, (w_hat / w_hat.sum())[None, :], rtol=1e-14)


def test_blend_weight_underflow_falls_back_to_uniform():
    pos = np.array([[50.0, 0, 0], [60.0, 0, 0], [70.0, 0, 0]])
    w = blend_weights(np.zeros((1, 3)), pos, np.log([1e-4, 1e-4, 1e-4]),
                      np.array([[0, 1, 2]]))
    assert np.allclose(w, 1.0 / 3.0)


def test_blend_weights_normalized_and_scale_invariant():
    rng = np.random.default_rng(8)
    q = rng.random((20, 3))
    pos = rng.random((10, 3))
    idx = knn_indices(q, pos, 4)
    w = blend_weights(q, pos, np.log(rng.uniform(0.05, 0.3, 10)), idx)
    assert np.all(w >= 0) and np.all(w <= 1)
    assert np.max(np.abs(w.sum(axis=1) - 1)) < 1e-6


def test_blend_transforms_shared_transform():
    tr = NodeTransforms(np.tile([0.1, -0.2, 0.3], (4, 1)), np.tile([2.0, 1.0, 0.5], (4, 1)))
    w = np.array([[0.25, 0.25, 0.25, 0.25]])
    d, a = blend_transforms(w, np.array([[0, 1, 2, 3]]), tr)
    assert np.allclose(d, [[0.1, -0.2, 0.3]]) and np.allclose(a, [[2, 1, 0.5]])


def test_blend_transforms_selects_first_on_degenerate_weights():
    rng = np.random.default_rng(1)
    tr = NodeTransforms(rng.normal(size=(3, 3)), np.exp(rng.normal(size=(3, 3))))
    d, a = blend_transforms(np.array([[1.0, 0.0]]), np.array([[2, 0]]), tr)
    assert np.allclose(d, tr.translations[2]) and np.allclose(a, tr.scales[2])


def test_blend_transforms_matches_direct_sum():
    rng = np.random.default_rng(5)
    tr = NodeTransforms(rng.normal(size=(6, 3)), np.exp(rng.normal(size=(6, 3))))
    idx = np.array([[0, 3, 5]])
    w = rng.random((1, 3))
    w /= w.sum()
    d, a = blend_transforms(w, idx, tr)
    want = sum(w[0, j] * np.concatenate([tr.translations[idx[0, j]],
                                         tr.scales[idx[0, j]]]) for j in range(3))
    assert np.max(np.abs(np.concatenate([d[0], a[0]]) - want)) < 1e-12


def test_blend_transforms_linear_in_transforms():
    rng = np.random.default_rng(9)
    t1 = NodeTransforms(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
    t2 = NodeTransforms(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
    mix = NodeTransforms(2 * t1.translations + 3 * t2.translations,
                         2 * t1.scales + 3 * t2.scales)
    idx = np.array([[1, 4], [0, 2]])
    w = np.array([[0.3, 0.7], [0.9, 0.1]])
    d, a = blend_transforms(w, idx, mix)
    d1, a1 = blend_transforms(w, idx, t1)
    d2, a2 = blend_transforms(w, idx, t2)
    assert np.allclose(d, 2 * d1 + 3 * d2) and np.allclose(a, 2 * a1 + 3 * a2)


# --- deform -------------------------------------------------------------------

def test_deform_identity():
    g, *_ = tiny_scene()
    out = deform_gaussians(g, np.zeros((g.count, 3)), np.ones((g.count, 3)))
    assert np.array_equal(out.centers, g.centers)
    assert np.array_equal(out.log_scales, g.log_scales)


def test_deform_shift_x_only():
    g, *_ = tiny_scene()
    delta = np.tile([0.1, 0.0, 0.0], (g.count, 1))
    out = deform_gaussians(g, delta, np.ones((g.count, 3)))
    assert np.allclose(out.centers[:, 0], g.centers[:, 0] + 0.1)
    assert np.array_equal(out.centers[:, 1:], g.centers[:, 1:])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_deform_rejects_scale_factors_that_are_not_positive(bad):
    # an explicit check rather than an assert, so it holds under python -O too
    g = GaussianSet([[0.5, 0.5, 0.5]], [[1.0, 0, 0, 0]],
                    np.log([[0.06, 0.06, 0.06]]), [1.0])
    with pytest.raises(NumericalAbort, match="scale factors"):
        deform_gaussians(g, np.zeros((1, 3)), np.array([[1.0, bad, 1.0]]))


def test_deform_scale_widens_render_along_x():
    # alpha=(2,1,1) must render identically to a Gaussian built with 2*sigma_x
    g = GaussianSet([[0.5, 0.5, 0.5]], [[1.0, 0, 0, 0]],
                    np.log([[0.06, 0.06, 0.06]]), [1.0])
    out = deform_gaussians(g, np.zeros((1, 3)), np.array([[2.0, 1.0, 1.0]]))
    oracle = GaussianSet([[0.5, 0.5, 0.5]], [[1.0, 0, 0, 0]],
                         np.log([[0.12, 0.06, 0.06]]), [1.0])
    a = render_values(out, (9, 9, 9), None)
    b = render_values(oracle, (9, 9, 9), None)
    assert np.max(np.abs(a - b)) < 1e-12
    # widened along x only: farther x-voxels gain density
    base = render_values(g, (9, 9, 9), None)
    assert a[6, 4, 4] > base[6, 4, 4]
    assert abs(a[4, 4, 6] - base[4, 4, 6]) < 1e-12


# --- dense displacement ---------------------------------------------------------

def test_dense_displacement_zero_for_zero_head():
    g, nodes, _, k = tiny_scene(zero_head=True)
    net = DeformNet.create(l_space=2, l_time=2, hidden_width=8, hidden_depth=2, seed=3)
    u = dense_displacement(np.random.default_rng(0).random((50, 3)), nodes, net, 0.4, k)
    assert np.all(u == 0.0)


def test_dense_displacement_concentrates_on_isolated_node():
    # one node right at the query with a sane radius, others far with tiny radii
    nodes = ControlNodeSet(np.array([[0.5, 0.5, 0.5], [5.0, 5, 5], [6.0, 6, 6]]),
                           np.log([0.2, 1e-5, 1e-5]))
    net = DeformNet.create(l_space=2, l_time=2, hidden_width=8, hidden_depth=2, seed=9)
    net.weights[-1] = np.random.default_rng(4).normal(size=net.weights[-1].shape)
    tr = forward_deform(net, nodes, 0.3)
    u = dense_displacement(np.array([[0.5, 0.5, 0.5]]), nodes, net, 0.3, k=3)
    assert np.max(np.abs(u[0] - tr.translations[0])) < 1e-6


def test_dense_displacement_agrees_with_fit_path():
    g, nodes, net, k = tiny_scene(seed=7)
    idx = knn_indices(g.centers, nodes.positions, k)
    deformed, cache = apply_motion(g, nodes, net, 0.6, idx)
    u = dense_displacement(g.centers, nodes, net, 0.6, k)
    assert np.max(np.abs((deformed.centers - g.centers) - u)) < 1e-14


# --- backward: finite-difference oracles ----------------------------------------

DIMS = (6, 6, 6)


def pipeline_loss(g, nodes, net, t, idx, upstream, feats=None):
    if feats is None:
        feats = encode_inputs(net, nodes.positions, t)
    transforms, _ = transforms_from_features(net, feats)
    weights = blend_weights(g.centers, nodes.positions, nodes.log_radii, idx)
    delta, alpha = blend_transforms(weights, idx, transforms)
    deformed = deform_gaussians(g, delta, alpha)
    return float(np.sum(upstream * render_values(deformed, DIMS, None)))


def analytic_motion_grads(g, nodes, net, t, idx, upstream):
    deformed, cache = apply_motion(g, nodes, net, t, idx)
    rg = render_backward(deformed, DIMS, upstream, None)
    return motion_backward(cache, g, nodes, net, rg)


def rel_err(a, b):
    return np.max(np.abs(a - b) / (np.maximum(np.abs(a), np.abs(b)) + 1e-6))


def test_motion_backward_zero_upstream():
    g, nodes, net, k = tiny_scene(seed=4)
    idx = knn_indices(g.centers, nodes.positions, k)
    mg = analytic_motion_grads(g, nodes, net, 0.5, idx, np.zeros(DIMS))
    assert all(np.all(w == 0) for w in mg.weight_grads)
    assert np.all(mg.node_positions == 0) and np.all(mg.node_log_radii == 0)
    assert np.all(mg.canonical.centers == 0)


def test_network_gradients_match_fd():
    g, nodes, net, k = tiny_scene(seed=11)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(2).normal(size=DIMS)
    t = 0.35
    mg = analytic_motion_grads(g, nodes, net, t, idx, upstream)
    h = 1e-4
    for layer in range(len(net.weights)):
        fd = np.zeros_like(net.weights[layer])
        it = np.nditer(fd, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = net.weights[layer][i]
            net.weights[layer][i] = orig + h
            lp = pipeline_loss(g, nodes, net, t, idx, upstream)
            net.weights[layer][i] = orig - h
            lm = pipeline_loss(g, nodes, net, t, idx, upstream)
            net.weights[layer][i] = orig
            fd[i] = (lp - lm) / (2 * h)
        assert rel_err(mg.weight_grads[layer], fd) < 1e-4, f"layer {layer}"
        fdb = np.zeros_like(net.biases[layer])
        for j in range(fdb.size):
            orig = net.biases[layer][j]
            net.biases[layer][j] = orig + h
            lp = pipeline_loss(g, nodes, net, t, idx, upstream)
            net.biases[layer][j] = orig - h
            lm = pipeline_loss(g, nodes, net, t, idx, upstream)
            net.biases[layer][j] = orig
            fdb[j] = (lp - lm) / (2 * h)
        assert rel_err(mg.bias_grads[layer], fdb) < 1e-4, f"bias {layer}"


def test_node_position_gradients_match_fd_with_frozen_encodings():
    g, nodes, net, k = tiny_scene(seed=13)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(3).normal(size=DIMS)
    t = 0.7
    feats = encode_inputs(net, nodes.positions, t)
    mg = analytic_motion_grads(g, nodes, net, t, idx, upstream)
    h = 1e-4
    fd = np.zeros_like(nodes.positions)
    it = np.nditer(fd, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = nodes.positions[i]
        nodes.positions[i] = orig + h
        lp = pipeline_loss(g, nodes, net, t, idx, upstream, feats=feats)
        nodes.positions[i] = orig - h
        lm = pipeline_loss(g, nodes, net, t, idx, upstream, feats=feats)
        nodes.positions[i] = orig
        fd[i] = (lp - lm) / (2 * h)
    assert rel_err(mg.node_positions, fd) < 1e-4


def test_stop_gradient_excludes_encoding_path():
    # finite differences with re-encoded inputs include the encoding term,
    # so they must disagree with the analytic (stop-gradient) node gradient
    g, nodes, net, k = tiny_scene(seed=13)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(3).normal(size=DIMS)
    t = 0.7
    mg = analytic_motion_grads(g, nodes, net, t, idx, upstream)
    h = 1e-4
    fd_full = np.zeros_like(nodes.positions)
    it = np.nditer(fd_full, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = nodes.positions[i]
        nodes.positions[i] = orig + h
        lp = pipeline_loss(g, nodes, net, t, idx, upstream)  # re-encodes
        nodes.positions[i] = orig - h
        lm = pipeline_loss(g, nodes, net, t, idx, upstream)
        nodes.positions[i] = orig
        fd_full[i] = (lp - lm) / (2 * h)
    assert rel_err(mg.node_positions, fd_full) > 1e-3


def test_node_radius_gradients_match_fd():
    g, nodes, net, k = tiny_scene(seed=17)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(5).normal(size=DIMS)
    t = 0.25
    mg = analytic_motion_grads(g, nodes, net, t, idx, upstream)
    h = 1e-4
    fd = np.zeros_like(nodes.log_radii)
    for j in range(fd.size):
        orig = nodes.log_radii[j]
        nodes.log_radii[j] = orig + h
        lp = pipeline_loss(g, nodes, net, t, idx, upstream)
        nodes.log_radii[j] = orig - h
        lm = pipeline_loss(g, nodes, net, t, idx, upstream)
        nodes.log_radii[j] = orig
        fd[j] = (lp - lm) / (2 * h)
    assert rel_err(mg.node_log_radii, fd) < 1e-4


def test_canonical_gaussian_gradients_through_motion_match_fd():
    g, nodes, net, k = tiny_scene(seed=19)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(6).normal(size=DIMS)
    t = 0.45
    mg = analytic_motion_grads(g, nodes, net, t, idx, upstream)
    # h below the acceptance default: the RBF weights are curved enough that
    # 1e-4 steps leave ~2e-4 truncation residue (verified to shrink as h^2)
    h = 1e-5
    for attr, grad in (("centers", mg.canonical.centers),
                       ("log_scales", mg.canonical.log_scales),
                       ("rotations", mg.canonical.rotations),
                       ("intensities", mg.canonical.intensities)):
        arr = getattr(g, attr)
        fd = np.zeros_like(arr)
        it = np.nditer(fd, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + h
            lp = pipeline_loss(g, nodes, net, t, idx, upstream)
            arr[i] = orig - h
            lm = pipeline_loss(g, nodes, net, t, idx, upstream)
            arr[i] = orig
            fd[i] = (lp - lm) / (2 * h)
        assert rel_err(grad, fd) < 1e-4, attr


# --- node init and serialization -------------------------------------------------

def test_init_control_nodes_deterministic_and_bounded():
    rng = np.random.default_rng(0)
    centers = rng.random((100, 3))
    a = init_control_nodes(centers, 20, seed=5)
    b = init_control_nodes(centers, 20, seed=5)
    assert np.array_equal(a.positions, b.positions)
    assert a.count == 20
    assert np.all(np.exp(a.log_radii) > 0)
    with pytest.raises(ValidationError, match="budget"):
        init_control_nodes(centers, 101, seed=0)


def test_nodes_round_trip(tmp_path):
    nodes = ControlNodeSet(np.random.default_rng(1).random((9, 3)),
                           np.log(np.random.default_rng(2).uniform(0.1, 0.3, 9)))
    save_nodes(nodes, tmp_path / "n")
    back = load_nodes(tmp_path / "n")
    assert back.count == 9
    save_nodes(back, tmp_path / "n2")
    assert (tmp_path / "n.raw").read_bytes() == (tmp_path / "n2.raw").read_bytes()


def test_network_round_trip(tmp_path):
    net = DeformNet.create(l_space=3, l_time=2, hidden_width=12, hidden_depth=2, seed=3)
    net.weights[-1] = np.random.default_rng(0).normal(size=net.weights[-1].shape)
    save_network(net, tmp_path / "w")
    back = load_network(tmp_path / "w")
    assert back.l_space == 3 and back.l_time == 2
    assert all(a.shape == b.shape for a, b in zip(back.weights, net.weights))
    save_network(back, tmp_path / "w2")
    assert (tmp_path / "w.raw").read_bytes() == (tmp_path / "w2.raw").read_bytes()
    nodes = ControlNodeSet(np.random.default_rng(5).random((4, 3)), np.log([0.2] * 4))
    a = forward_deform(back, nodes, 0.5)
    b = forward_deform(load_network(tmp_path / "w2"), nodes, 0.5)
    assert np.array_equal(a.translations, b.translations)
