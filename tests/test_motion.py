import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstrack import motion
from gausstrack.errors import NumericalAbort, ValidationError
from gausstrack.gauss import GaussianSet, render_backward, render_values, render_with_cache
from gausstrack.motion import (
    ControlNodeSet,
    DeformNet,
    apply_motion,
    blend_operator,
    deform_gaussians,
    dense_displacement,
    init_control_nodes,
    knn_indices,
    load_network,
    load_nodes,
    motion_backward,
    motion_forward,
    node_transforms,
    node_transforms_backward,
    positional_encoding,
    save_network,
    save_nodes,
)
from gausstrack.volgrid import voxel_centers_normalized


def tiny_scene(seed=0, n=6, m=4, k=2, zero_head=False):
    rng = np.random.default_rng(seed)
    g = GaussianSet(
        0.25 + 0.5 * rng.random((n, 3)),
        np.concatenate([np.sign(rng.normal(size=(n, 1))) * (0.5 + rng.random((n, 1))),
                        rng.normal(size=(n, 3))], axis=1),
        np.log(rng.uniform(0.08, 0.2, (n, 3))),
        rng.uniform(0.3, 1.0, n),
    )
    nodes = ControlNodeSet(0.2 + 0.6 * rng.random((m, 3)), np.log(rng.uniform(0.15, 0.4)))
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
    t6, _ = node_transforms(net, nodes.positions, t=0.37)
    assert t6.shape == (nodes.count, 6)
    assert np.all(t6 == 0.0)


def test_forward_is_pure_and_time_sensitive():
    _, nodes, net, _ = tiny_scene(seed=2)
    a, _ = node_transforms(net, nodes.positions, 0.2)
    b, _ = node_transforms(net, nodes.positions, 0.2)
    c, _ = node_transforms(net, nodes.positions, 0.8)
    assert np.array_equal(a, b)
    assert not np.allclose(a[:, :3], c[:, :3])


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       n=st.sampled_from([1, 37, motion._KNN_CHUNK + 3]), lattice=st.integers(0, 3),
       duplicates=st.booleans(), on_nodes=st.booleans())
def test_knn_equals_full_sort_reference(seed, m, n, lattice, duplicates, on_nodes):
    """Every row, for every k, equals a full sort by (squared distance, index)."""
    rng = np.random.default_rng(seed)
    pos = rng.random((m, 3))
    q = rng.random((n, 3))
    if lattice:  # nodes on a small lattice, queries on its half steps: exact ties
        pos = np.rint(pos * lattice) / lattice
        q = np.rint(q * 2 * lattice) / (2 * lattice)
    if duplicates:
        pos = pos[rng.integers(0, m, m)]
    if on_nodes:
        q[:min(n, m)] = pos[:min(n, m)]
    d2 = ((q[:, None, :] - pos[None]) ** 2).sum(axis=-1)
    want = np.lexsort((np.broadcast_to(np.arange(m), d2.shape), d2), axis=-1)
    for k in range(1, m + 1):
        assert np.array_equal(knn_indices(q, pos, k), want[:, :k])


def test_knn_tie_block_beyond_the_candidates_is_queried_again(monkeypatch):
    # the centre of a lattice cube is equally far from its eight corners, more
    # than the first candidate list holds; listing every node twice makes a
    # tie block of sixteen, which takes a second doubling
    calls = []

    class CountingTree(motion.cKDTree):
        def query(self, x, k):
            calls.append(k)
            return super().query(x, k=k)

    monkeypatch.setattr(motion, "cKDTree", CountingTree)
    xs = np.array([0.0, 0.5, 1.0])
    pos = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    centre = [[0.25, 0.25, 0.25]]
    assert knn_indices(centre, pos, k=4).tolist() == [[0, 1, 3, 4]]
    assert len(calls) == 2
    calls.clear()
    assert knn_indices(centre, np.repeat(pos, 2, axis=0), k=4).tolist() == [[0, 1, 2, 3]]
    assert len(calls) == 3


def test_knn_rejects_non_finite_input():
    pos = np.random.default_rng(0).random((4, 3))
    with pytest.raises(NumericalAbort):
        knn_indices([[np.nan, 0.5, 0.5]], pos, k=2)


def test_knn_k_too_large():
    pos = np.random.default_rng(0).random((4, 3))
    with pytest.raises(ValidationError, match="k=5"):
        knn_indices(pos, pos, k=5)


# --- the blend operator ---------------------------------------------------------

def test_single_neighbor_weight_is_one():
    w = blend_operator(np.array([[0.3, 0.3, 0.3]]),
                       ControlNodeSet(np.array([[0.6, 0.6, 0.6]]), np.log(0.2)),
                       np.array([[0]]))
    assert w.shape == (1, 1) and np.allclose(w.toarray(), [[1.0]])


def test_equidistant_equal_radii_weights():
    pos = np.array([[0.4, 0.5, 0.5], [0.6, 0.5, 0.5]])
    w = blend_operator(np.array([[0.5, 0.5, 0.5]]), ControlNodeSet(pos, np.log(0.2)),
                       np.array([[0, 1]]))
    assert np.allclose(w.toarray(), [[0.5, 0.5]])


def test_blend_weight_formula():
    # distances (1, 2), radius 1: w_hat = (e^-0.5, e^-2)
    pos = np.array([[1.0, 0, 0], [2.0, 0, 0]])
    w = blend_operator(np.array([[0.0, 0, 0]]), ControlNodeSet(pos, 0.0),
                       np.array([[0, 1]]))
    w_hat = np.array([np.exp(-0.5), np.exp(-2.0)])
    assert np.allclose(w.toarray(), (w_hat / w_hat.sum())[None, :], rtol=1e-14)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6))
def test_blend_weights_equal_the_normalized_rbf_formula(seed, k):
    # a radius >= 0.15 in the unit cube keeps every exponent above -67, far from
    # underflow; shifting by the row maximum then rounds each exponent
    # difference to within 67 * 2^-53, so 1e-14 holds element by element
    rng = np.random.default_rng(seed)
    q, pos = rng.random((40, 3)), rng.random((8, 3))
    log_radius = np.log(rng.uniform(0.15, 1.0))
    idx = np.stack([rng.choice(8, k, replace=False) for _ in range(40)])
    w = blend_operator(q, ControlNodeSet(pos, log_radius), idx)
    # one row per query, its k entries in idx order
    assert w.shape == (40, 8)
    assert np.array_equal(w.indptr, np.arange(0, 40 * k + 1, k))
    assert np.array_equal(w.indices, idx.ravel())
    diff = q[:, None, :] - pos[idx]
    o = np.exp(log_radius)
    w_hat = np.exp(-np.einsum("qki,qki->qk", diff, diff) / (2.0 * o * o))
    want = w_hat / w_hat.sum(axis=1, keepdims=True)
    assert np.all(np.abs(w.data.reshape(40, k) - want) <= 1e-14 * want)


def _axis_reduction_weights(points, nodes, idx):
    """The blend weights with each row's maximum and sum as reductions along
    axis 1 of the (n, k) array, in the operator's order of operations, and
    with one radius per neighbour, as the operator read them when every node
    kept its own radius."""
    diff = points[:, None, :] - nodes.positions[idx]
    o = np.exp(np.full(nodes.count, nodes.log_radius)[idx])
    w = np.einsum("qki,qki->qk", diff, diff) / (-2.0 * o * o)
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    return w / w.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_blend_operator_equals_the_axis_reduction_form(k):
    # the row maximum and sum go column by column, and the one shared radius
    # is read once: the same bits on random rows, on voxel centres with nodes
    # on the voxel lattice (equal kernels within a row, as the seeded nodes
    # give) and where every kernel underflows
    rng = np.random.default_rng(k)
    q = voxel_centers_normalized((9, 10, 11)).reshape(-1, 3)
    cases = [(rng.random((500, 3)), rng.random((40, 3)), rng.uniform(0.05, 0.4)),
             (q, q[rng.choice(len(q), 60, replace=False)], 0.1),
             (rng.random((200, 3)), 50.0 + rng.random((30, 3)), rng.uniform(1e-4, 1e-3))]
    for points, pos, radius in cases:
        # a radius as the container holds it (float32) and as init computes it
        for log_radius in (np.float32(np.log(radius)), np.log(radius)):
            nodes = ControlNodeSet(pos, log_radius)
            idx = knn_indices(points, pos, k)
            got = blend_operator(points, nodes, idx).data.reshape(idx.shape)
            assert got.tobytes() == _axis_reduction_weights(points, nodes, idx).tobytes()
    # the lattice rows hold ties, and the far rows all of their weight on one node
    ties = _axis_reduction_weights(q, ControlNodeSet(cases[1][1], np.log(cases[1][2])),
                                   knn_indices(q, cases[1][1], k))
    assert k == 1 or np.any(ties[:, 0] == ties[:, 1])
    assert np.all(got.max(axis=1) == 1.0)


def test_blend_weight_underflow_keeps_the_largest_kernel():
    # every kernel underflows (exp(-1.25e11) == 0); the row still sums to 1,
    # all on the nearest node, and the adjoint stays finite
    nodes = ControlNodeSet(np.array([[50.0, 0, 0], [60.0, 0, 0], [70.0, 0, 0]]), np.log(1e-4))
    idx = np.array([[0, 1, 2]])
    w = blend_operator(np.zeros((1, 3)), nodes, idx)
    assert np.array_equal(w.toarray(), [[1.0, 0.0, 0.0]])
    _, _, net, _ = tiny_scene(seed=2)
    g = GaussianSet([[0.5, 0.5, 0.5]], [[1.0, 0, 0, 0]], np.log([[0.1, 0.1, 0.1]]), [1.0])
    t6, acts = node_transforms(net, nodes.positions, 0.4)
    deformed, w = apply_motion(g, nodes, net, 0.4, idx)
    assert np.array_equal(deformed.centers, g.centers + t6[:1, :3])
    rg = render_backward(deformed, DIMS, np.random.default_rng(1).normal(size=DIMS),
                         render_with_cache(deformed, DIMS, np.inf)[1])
    g_t6 = motion_backward(w, rg)
    g_w, g_b = node_transforms_backward(net, acts, g_t6)
    for a in g_w + g_b + [g_t6]:
        assert np.all(np.isfinite(a))
    assert np.array_equal(g_t6[0], np.concatenate([rg.centers[0], rg.log_scales[0]]))
    assert np.all(g_t6[1:] == 0)


def test_blend_weights_normalized_and_scale_invariant():
    rng = np.random.default_rng(8)
    q = rng.random((20, 3))
    pos = rng.random((10, 3))
    idx = knn_indices(q, pos, 4)
    w = blend_operator(q, ControlNodeSet(pos, np.log(rng.uniform(0.05, 0.3))), idx)
    assert np.all(w.data >= 0) and np.all(w.data <= 1)
    assert np.max(np.abs(w @ np.ones(10) - 1)) < 1e-6


def blend_scene(seed, n=3, m=6, k=3):
    rng = np.random.default_rng(seed)
    q = rng.random((n, 3))
    nodes = ControlNodeSet(rng.random((m, 3)), np.log(rng.uniform(0.1, 0.4)))
    idx = knn_indices(q, nodes.positions, k)
    return blend_operator(q, nodes, idx), idx, rng


def test_blend_transforms_shared_transform():
    w, _, _ = blend_scene(3, m=4, k=4)
    b6 = w @ np.tile([0.1, -0.2, 0.3, 2.0, 1.0, 0.5], (4, 1))
    assert np.allclose(b6, [[0.1, -0.2, 0.3, 2.0, 1.0, 0.5]] * 3)


def test_blend_transforms_selects_first_on_degenerate_weights():
    # every kernel underflows: the row is all on its first (largest) kernel
    rng = np.random.default_rng(1)
    t6 = np.exp(rng.normal(size=(3, 6)))
    nodes = ControlNodeSet(np.array([[60.0, 0, 0], [70.0, 0, 0], [50.0, 0, 0]]), np.log(1e-4))
    w = blend_operator(np.zeros((1, 3)), nodes, np.array([[2, 0]]))
    assert np.array_equal(w @ t6, t6[2:])


def test_blend_transforms_matches_direct_sum():
    w, idx, rng = blend_scene(5)
    t6 = np.exp(rng.normal(size=(6, 6)))
    weights = w.data.reshape(idx.shape)
    want = np.stack([sum(weights[i, j] * t6[idx[i, j]] for j in range(3)) for i in range(3)])
    assert np.max(np.abs(w @ t6 - want)) < 1e-12


def test_blend_transforms_linear_in_transforms():
    w, _, rng = blend_scene(9)
    t1 = rng.normal(size=(6, 6))
    t2 = rng.normal(size=(6, 6))
    assert np.allclose(w @ (2 * t1 + 3 * t2), 2 * (w @ t1) + 3 * (w @ t2))


# --- deform -------------------------------------------------------------------

def test_deform_identity():
    g, *_ = tiny_scene()
    out = deform_gaussians(g, np.zeros((g.count, 3)), np.zeros((g.count, 3)))
    assert np.array_equal(out.centers, g.centers)
    assert np.array_equal(out.log_scales, g.log_scales)


def test_deform_shift_x_only():
    g, *_ = tiny_scene()
    delta = np.tile([0.1, 0.0, 0.0], (g.count, 1))
    out = deform_gaussians(g, delta, np.zeros((g.count, 3)))
    assert np.allclose(out.centers[:, 0], g.centers[:, 0] + 0.1)
    assert np.array_equal(out.centers[:, 1:], g.centers[:, 1:])


@pytest.mark.parametrize("half", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_deform_rejects_non_finite_transforms(bad, half):
    # an explicit check rather than an assert, so it holds under python -O too;
    # a NaN center would otherwise be dropped by the renderer without a word
    g = GaussianSet([[0.5, 0.5, 0.5]], [[1.0, 0, 0, 0]],
                    np.log([[0.06, 0.06, 0.06]]), [1.0])
    halves = [np.zeros((1, 3)), np.zeros((1, 3))]
    halves[half][0, 1] = bad
    with pytest.raises(NumericalAbort, match="must stay finite"):
        deform_gaussians(g, *halves)


def test_deform_scale_widens_render_along_x():
    # an offset of (log 2, 0, 0) must render identically to a Gaussian built
    # with 2*sigma_x
    g = GaussianSet([[0.5, 0.5, 0.5]], [[1.0, 0, 0, 0]],
                    np.log([[0.06, 0.06, 0.06]]), [1.0])
    out = deform_gaussians(g, np.zeros((1, 3)), np.array([[np.log(2.0), 0.0, 0.0]]))
    oracle = GaussianSet([[0.5, 0.5, 0.5]], [[1.0, 0, 0, 0]],
                         np.log([[0.12, 0.06, 0.06]]), [1.0])
    a = render_values(out, (9, 9, 9), np.inf)
    b = render_values(oracle, (9, 9, 9), np.inf)
    assert np.max(np.abs(a - b)) < 1e-12
    # widened along x only: farther x-voxels gain density
    base = render_values(g, (9, 9, 9), np.inf)
    assert a[6, 4, 4] > base[6, 4, 4]
    assert abs(a[4, 4, 6] - base[4, 4, 6]) < 1e-12


# --- dense displacement ---------------------------------------------------------

def test_dense_displacement_zero_for_zero_head():
    g, nodes, _, k = tiny_scene(zero_head=True)
    net = DeformNet.create(l_space=2, l_time=2, hidden_width=8, hidden_depth=2, seed=3)
    u = dense_displacement(np.random.default_rng(0).random((50, 3)), nodes, net, 0.4, k)
    assert np.all(u == 0.0)


def test_dense_displacement_concentrates_on_isolated_node():
    # one node right at the query, the others far beyond the radius
    nodes = ControlNodeSet(np.array([[0.5, 0.5, 0.5], [5.0, 5, 5], [6.0, 6, 6]]), np.log(0.2))
    net = DeformNet.create(l_space=2, l_time=2, hidden_width=8, hidden_depth=2, seed=9)
    net.weights[-1] = np.random.default_rng(4).normal(size=net.weights[-1].shape)
    t6, _ = node_transforms(net, nodes.positions, 0.3)
    u = dense_displacement(np.array([[0.5, 0.5, 0.5]]), nodes, net, 0.3, k=3)
    assert np.max(np.abs(u[0] - t6[0, :3])) < 1e-6


def test_dense_displacement_agrees_with_fit_path():
    g, nodes, net, k = tiny_scene(seed=7)
    idx = knn_indices(g.centers, nodes.positions, k)
    deformed, _ = apply_motion(g, nodes, net, 0.6, idx)
    u = dense_displacement(g.centers, nodes, net, 0.6, k)
    assert np.max(np.abs((deformed.centers - g.centers) - u)) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 4])
def test_motion_forward_with_identity_node_transforms_keeps_the_canonical_set(k):
    # the network-free start: every node at translation 0 and log-scale
    # offset 0.  The blend is linear in the rows, so it adds exact zeros.
    g, nodes, _, _ = tiny_scene(seed=29, n=40, m=8)
    idx = knn_indices(g.centers, nodes.positions, k)
    deformed, _ = motion_forward(g, nodes, np.zeros((nodes.count, 6)), idx)
    for name in ("centers", "rotations", "log_scales", "intensities"):
        assert np.array_equal(getattr(deformed, name), getattr(g, name))


@pytest.mark.parametrize("channel", [0, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_motion_forward_rejects_a_non_finite_node_row(bad, channel):
    g, nodes, _, k = tiny_scene(seed=29, n=40, m=8)
    idx = knn_indices(g.centers, nodes.positions, k)
    t6 = np.zeros((nodes.count, 6))
    t6[idx[0, 0], channel] = bad
    with pytest.raises(NumericalAbort, match="must stay finite"):
        motion_forward(g, nodes, t6, idx)


def test_apply_motion_is_node_transforms_then_motion_forward():
    g, nodes, net, k = tiny_scene(seed=31, n=12, m=5, k=3)
    idx = knn_indices(g.centers, nodes.positions, k)
    deformed, _ = apply_motion(g, nodes, net, 0.45, idx)
    chained, _ = motion_forward(g, nodes, node_transforms(net, nodes.positions, 0.45)[0], idx)
    for name in ("centers", "rotations", "log_scales", "intensities"):
        assert getattr(deformed, name).tobytes() == getattr(chained, name).tobytes()


def field_scene(n, seed=11):
    rng = np.random.default_rng(seed)
    nodes = ControlNodeSet(rng.random((40, 3)), np.log(rng.uniform(0.05, 0.3)))
    net = DeformNet.create(l_space=2, l_time=2, hidden_width=8, hidden_depth=2, seed=seed)
    net.weights[-1] = 0.1 * rng.normal(size=net.weights[-1].shape)
    return rng.random((n, 3)), nodes, net


def public_field(q, nodes, net, t, k):
    """The dense field through the public steps, all rows at once: the
    translation columns of the whole blend."""
    w = blend_operator(q, nodes, knn_indices(q, nodes.positions, k))
    return (w @ node_transforms(net, nodes.positions, t)[0])[:, :3]


def counting_threads(monkeypatch):
    """Record the thread of every slice motion's KNN repair runs on, and
    every worker pool it makes."""
    threads, pools = [], []
    knn_rows = motion._knn_rows

    def recorded(*args):
        threads.append(threading.get_ident())
        return knn_rows(*args)

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(motion, "_knn_rows", recorded)
    monkeypatch.setattr(motion, "ThreadPoolExecutor", Pool)
    return threads, pools


C = motion._KNN_CHUNK


@pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 3 * C + 5])
def test_dense_displacement_is_byte_equal_to_the_public_steps(n):
    q, nodes, net = field_scene(n)
    assert dense_displacement(q, nodes, net, 0.3, 4).tobytes() == \
        public_field(q, nodes, net, 0.3, 4).tobytes()


def test_lattice_ties_on_both_sides_of_a_chunk_boundary():
    xs = np.array([0.0, 0.5, 1.0])
    pos = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    half = np.arange(5) / 4  # the node lattice and its half steps
    lattice = np.stack(np.meshgrid(half, half, half, indexing="ij"), axis=-1).reshape(-1, 3)
    q = lattice[np.arange(2 * C + 7) % len(lattice)]
    # a cube centre is equally far from eight nodes
    q[C - 2:C + 2] = [0.25, 0.25, 0.75]
    d2 = ((q[:, None, :] - pos[None]) ** 2).sum(axis=-1)
    want = np.lexsort((np.broadcast_to(np.arange(len(pos)), d2.shape), d2), axis=-1)
    for k in (1, 4, 8, 9):
        assert np.array_equal(knn_indices(q, pos, k), want[:, :k])
    nodes = ControlNodeSet(pos, np.log(0.3))
    _, _, net = field_scene(1)
    assert dense_displacement(q, nodes, net, 0.7, 8).tobytes() == \
        public_field(q, nodes, net, 0.7, 8).tobytes()


def full_sort(q, pos):
    """Every node per query, by (squared distance, index)."""
    d2 = ((q[:, None, :] - pos[None]) ** 2).sum(axis=-1)
    return np.lexsort((np.broadcast_to(np.arange(len(pos)), d2.shape), d2), axis=-1)


def counting_resorts(monkeypatch):
    """Rows that reach the exact (squared distance, index) re-sort, one
    entry per np.lexsort call, from whichever thread makes it."""
    rows, lexsort = [], np.lexsort

    def counted(keys, axis=-1):
        rows.append(len(keys[0]))
        return lexsort(keys, axis=axis)

    monkeypatch.setattr(np, "lexsort", counted)
    return rows


def test_rows_whose_tree_distances_are_apart_skip_the_re_sort(monkeypatch):
    q, nodes, net = field_scene(2 * C + 9)
    want = full_sort(q, nodes.positions)
    resorted = counting_resorts(monkeypatch)
    for k in (1, 4, 12):
        assert np.array_equal(knn_indices(q, nodes.positions, k), want[:, :k])
        dense_displacement(q, nodes, net, 0.3, k)
    assert resorted == []


def test_lattice_tie_rows_alone_reach_the_re_sort(monkeypatch):
    xs = np.array([0.0, 0.5, 1.0])
    pos = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    half = np.arange(5) / 4
    lattice = np.stack(np.meshgrid(half, half, half, indexing="ij"), axis=-1).reshape(-1, 3)
    # every query on the lattice's half steps has a tie within its first
    # nine nodes; the random queries have none
    q = np.concatenate([lattice, np.random.default_rng(6).random((50, 3))])
    want = full_sort(q, pos)
    resorted = counting_resorts(monkeypatch)
    for k in (1, 4, 8):
        resorted.clear()
        assert np.array_equal(knn_indices(q, pos, k), want[:, :k])
        assert 0 < resorted[0] <= len(lattice)


def test_near_ties_inside_the_margin_equal_the_full_sort(monkeypatch):
    # nodes 0.1 from q0 along each axis, each moved out by 0 to 2 ulp, those
    # at distances the tree tells apart kept: their distances to q0 differ
    # by a few ulp, far inside the 1e-9 margin, so q0's row is re-sorted
    q0 = np.array([0.3, 0.55, 0.7])
    near = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            p = q0.copy()
            p[axis] += sign * 0.1
            for _ in range(3):
                near.append(p.copy())
                p[axis] = np.nextafter(p[axis], sign * np.inf)
    d, keep = np.unique(np.sqrt(((np.array(near) - q0) ** 2).sum(axis=1)), return_index=True)
    assert len(d) >= 4 and d[-1] < d[0] * (1 + 1e-12)
    rng = np.random.default_rng(8)
    pos = np.concatenate([np.array(near)[keep], rng.random((6, 3))])
    q = np.concatenate([[q0], rng.random((40, 3))])
    want = full_sort(q, pos)
    nodes = ControlNodeSet(pos, np.log(0.3))
    _, _, net = field_scene(1)
    resorted = counting_resorts(monkeypatch)
    for k in range(1, len(pos) + 1):
        resorted.clear()
        assert np.array_equal(knn_indices(q[:1], pos, k), want[:1, :k])
        assert resorted[:1] == [1]  # q0's row is re-sorted
        assert np.array_equal(knn_indices(q, pos, k), want[:, :k])
        assert dense_displacement(q, nodes, net, 0.4, k).tobytes() == \
            public_field(q, nodes, net, 0.4, k).tobytes()


def test_dense_displacement_checks_inputs_before_any_row_runs(monkeypatch):
    threads, _ = counting_threads(monkeypatch)
    q, nodes, net = field_scene(2 * C)
    for k in (0, nodes.count + 1):
        with pytest.raises(ValidationError, match=f"k={k}"):
            dense_displacement(q, nodes, net, 0.3, k)
    q[C + 1, 1] = np.nan
    with pytest.raises(NumericalAbort):
        dense_displacement(q, nodes, net, 0.3, 4)
    assert threads == []


def grid_field(dims, nodes, net, t, k, first=None):
    """The field's grid form, as eval and export-field run it."""
    return motion.grid_displacement(nodes, node_transforms(net, nodes.positions, t)[0], k,
                                    dims, first)


POOLS = [1, 2, 3, 8]  # CPUs: one worker for one or two, then one per further CPU


# voxel counts that are no multiple of the 4096-row slice: a cube, an
# anisotropic grid, a 1-voxel axis (its coordinate is 0) and a single voxel
@pytest.mark.parametrize("dims", [(17, 16, 16), (40, 9, 23), (13, 1, 700), (1, 1, 1)])
def test_the_grid_form_is_the_field_at_the_voxel_centres(monkeypatch, dims):
    _, nodes, net = field_scene(1)
    want = dense_displacement(voxel_centers_normalized(dims).reshape(-1, 3), nodes, net, 0.3,
                              4).tobytes()
    threads, _ = counting_threads(monkeypatch)
    for workers in POOLS:
        monkeypatch.setattr(motion, "_pool_size", lambda: workers)
        threads.clear()
        u, result = grid_field(dims, nodes, net, 0.3, 4)
        assert u.tobytes() == want and result is None
        assert len(threads) == -(-int(np.prod(dims)) // C)


def test_the_grid_form_checks_k_and_the_nodes_before_any_worker_starts(monkeypatch):
    threads, pools = counting_threads(monkeypatch)
    _, nodes, net = field_scene(1)
    t6 = node_transforms(net, nodes.positions, 0.3)[0]
    for k in (0, nodes.count + 1):
        with pytest.raises(ValidationError, match=f"k={k}"):
            motion.grid_displacement(nodes, t6, k, (20, 20, 21))
    # a node set with a non-finite position is refused where it is built
    bad = nodes.positions.copy()
    bad[3, 2] = np.nan
    with pytest.raises(ValidationError, match="must be finite"):
        ControlNodeSet(bad, nodes.log_radius)
    assert threads == [] and pools == []


def recording_slices(monkeypatch, dims, slow=None):
    """Record (slice start, thread) of every field slice as its KNN runs,
    and run ``slow(start)`` first there."""
    starts = {tuple(c): i * C
              for i, c in enumerate(voxel_centers_normalized(dims).reshape(-1, 3)[::C])}
    calls, knn_rows = [], motion._knn_rows

    def recorded(tree, pos, q, k):
        start = starts[tuple(q[0])]
        calls.append((start, threading.get_ident()))
        if slow:
            slow(start)
        return knn_rows(tree, pos, q, k)

    monkeypatch.setattr(motion, "_knn_rows", recorded)
    return calls


@pytest.mark.parametrize("pool", POOLS)
def test_grid_displacement_runs_each_slice_once_and_first_on_the_caller(monkeypatch, pool):
    monkeypatch.setattr(motion, "_pool_size", lambda: pool)
    dims = (20, 16, 64)  # 20480 voxels: five slices
    _, nodes, net = field_scene(1)
    want = grid_field(dims, nodes, net, 0.3, 4)[0].tobytes()
    calls = recording_slices(monkeypatch, dims)
    first_threads = []

    def first():
        first_threads.append(threading.get_ident())
        return "scores"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            u, result = grid_field(dims, nodes, net, 0.3, 4, first)
            assert u.tobytes() == want and result == "scores"
            assert sorted(start for start, _ in calls) == list(range(0, 5 * C, C))
    finally:
        sys.setswitchinterval(interval)
    assert set(first_threads) == {threading.get_ident()}


@pytest.mark.parametrize("pool", POOLS)
def test_grid_workers_held_in_the_front_slices_leave_the_back_ones_to_the_caller(
        monkeypatch, pool):
    # every worker holds a front slice until the caller has run all the rest
    monkeypatch.setattr(motion, "_pool_size", lambda: pool)
    workers, n_slices, caller = max(pool - 1, 1), 11, threading.get_ident()
    dims = (11, 16, 256)  # 45056 voxels: eleven slices
    _, nodes, net = field_scene(1)
    want = grid_field(dims, nodes, net, 0.3, 4)[0].tobytes()
    held, released = threading.Event(), threading.Event()

    def slow(start):
        if threading.get_ident() != caller:
            # each thread appends before it counts, so the last one sees all
            if sum(thread != caller for _, thread in calls) == workers:
                held.set()
            assert released.wait(10)
        elif len(calls) == n_slices:
            released.set()

    calls = recording_slices(monkeypatch, dims, slow)
    u, result = grid_field(dims, nodes, net, 0.3, 4, lambda: held.wait(10))
    assert u.tobytes() == want and result is True
    assert [start for start, thread in calls if thread == caller] == \
        [i * C for i in range(n_slices - 1, workers - 1, -1)]
    assert sorted(start for start, thread in calls if thread != caller) == \
        [i * C for i in range(workers)]


@pytest.mark.parametrize("pool", POOLS)
def test_grid_displacement_raises_the_error_of_first_over_a_non_finite_slice(
        monkeypatch, pool):
    # a zero radius makes every slice non-finite; first raises only once a worker
    # has started its second slice, so its first slice has already failed
    monkeypatch.setattr(motion, "_pool_size", lambda: pool)
    dims = (20, 16, 128)  # ten slices, more than the workers
    _, nodes, net = field_scene(1)
    nodes = replace(nodes, log_radius=-1e30)
    second, caller = threading.Event(), threading.get_ident()

    def count(start):
        me = threading.get_ident()
        if me != caller and sum(thread == me for _, thread in calls) > 1:
            second.set()

    calls = recording_slices(monkeypatch, dims, count)

    def first():
        assert second.wait(10)
        raise NumericalAbort("first")

    with np.errstate(all="ignore"):
        with pytest.raises(NumericalAbort, match="^first$"):
            grid_field(dims, nodes, net, 0.3, 4, first)
        with pytest.raises(ValidationError,
                           match="^displacement field contains non-finite entries$"):
            grid_field(dims, nodes, net, 0.3, 4)


def test_both_field_forms_run_under_the_callers_error_state(monkeypatch):
    # the points form runs on the calling thread: a zero radius makes every
    # kernel exponent d^2 / 0, division by zero, then -inf - (-inf) in the
    # softmax shift.  With the errors ignored, the NaN field is refused
    q, nodes, net = field_scene(2 * C)
    nodes = replace(nodes, log_radius=-1e30)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        dense_displacement(q, nodes, net, 0.3, 4)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match="^displacement field contains non-finite entries$"):
            dense_displacement(q, nodes, net, 0.3, 4)
    # in the grid form a worker divides by zero in its slice while the
    # caller is in first
    dims = (20, 16, 64)
    _, nodes, net = field_scene(1)
    want = grid_field(dims, nodes, net, 0.3, 4)[0].tobytes()
    divided, caller = threading.Event(), threading.get_ident()

    def divide(start):
        if threading.get_ident() != caller:
            try:
                np.ones(1) / np.zeros(1)
            finally:
                divided.set()

    recording_slices(monkeypatch, dims, divide)
    for pool in POOLS:
        monkeypatch.setattr(motion, "_pool_size", lambda: pool)
        divided.clear()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError,
                                                     match="divide by zero"):
            grid_field(dims, nodes, net, 0.3, 4, lambda: divided.wait(10))
        divided.clear()
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            u, result = grid_field(dims, nodes, net, 0.3, 4, lambda: divided.wait(10))
        assert u.tobytes() == want and result is True


# --- backward: finite-difference oracles ----------------------------------------

DIMS = (6, 6, 6)


def pipeline_loss(g, nodes, net, t, idx, upstream, w=None):
    """The loss through the public steps, with the blend ``w`` (default: the
    blend_operator of g's centers) held fixed: the stop-gradient forward."""
    t6, _ = node_transforms(net, nodes.positions, t)
    b6 = (blend_operator(g.centers, nodes, idx) if w is None else w) @ t6
    deformed = deform_gaussians(g, b6[:, :3], b6[:, 3:])
    return float(np.sum(upstream * render_values(deformed, DIMS, np.inf)))


def analytic_motion_grads(g, nodes, net, t, idx, upstream):
    """The render gradients, which the canonical set takes as they are; the
    blend adjoint's (M, 6) node-transform gradient; and the network's
    (weights, biases) from it, as fit chains them."""
    t6, acts = node_transforms(net, nodes.positions, t)
    deformed, w = motion_forward(g, nodes, t6, idx)
    rg = render_backward(deformed, DIMS, upstream, render_with_cache(deformed, DIMS, np.inf)[1])
    g_t6 = motion_backward(w, rg)
    return rg, g_t6, node_transforms_backward(net, acts, g_t6)


def rel_err(a, b):
    return np.max(np.abs(a - b) / (np.maximum(np.abs(a), np.abs(b)) + 1e-6))


def test_motion_backward_zero_upstream():
    g, nodes, net, k = tiny_scene(seed=4)
    idx = knn_indices(g.centers, nodes.positions, k)
    rg, g_t6, (g_w, _) = analytic_motion_grads(g, nodes, net, 0.5, idx, np.zeros(DIMS))
    assert all(np.all(w == 0) for w in g_w)
    assert np.all(g_t6 == 0) and np.all(rg.centers == 0)


def test_network_gradients_match_fd():
    g, nodes, net, k = tiny_scene(seed=11)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(2).normal(size=DIMS)
    t = 0.35
    *_, (g_w, g_b) = analytic_motion_grads(g, nodes, net, t, idx, upstream)
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
        assert rel_err(g_w[layer], fd) < 1e-4, f"layer {layer}"
        fdb = np.zeros_like(net.biases[layer])
        for j in range(fdb.size):
            orig = net.biases[layer][j]
            net.biases[layer][j] = orig + h
            lp = pipeline_loss(g, nodes, net, t, idx, upstream)
            net.biases[layer][j] = orig - h
            lm = pipeline_loss(g, nodes, net, t, idx, upstream)
            net.biases[layer][j] = orig
            fdb[j] = (lp - lm) / (2 * h)
        assert rel_err(g_b[layer], fdb) < 1e-4, f"bias {layer}"


def test_node_transform_gradients_match_fd():
    # the blend adjoint ends at d(loss)/d(t6), before the network backward:
    # the gradient that node-level terms and per-node solves read
    g, nodes, net, k = tiny_scene(seed=29, n=12)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(8).normal(size=DIMS)
    t = 0.6
    _, g_t6, _ = analytic_motion_grads(g, nodes, net, t, idx, upstream)
    t6, _ = node_transforms(net, nodes.positions, t)
    w = blend_operator(g.centers, nodes, idx)

    def loss(t6):
        b6 = w @ t6
        deformed = deform_gaussians(g, b6[:, :3], b6[:, 3:])
        return float(np.sum(upstream * render_values(deformed, DIMS, np.inf)))

    h = 1e-4
    fd = np.zeros_like(t6)
    for i in np.ndindex(t6.shape):
        orig = t6[i]
        t6[i] = orig + h
        lp = loss(t6)
        t6[i] = orig - h
        lm = loss(t6)
        t6[i] = orig
        fd[i] = (lp - lm) / (2 * h)
    assert g_t6.shape == (nodes.count, 6) and np.all(fd != 0)
    assert rel_err(g_t6, fd) < 1e-4


def test_canonical_gaussian_gradients_through_motion_match_fd():
    # the blend is held fixed at the canonical centers (stop-gradient), so
    # the canonical set's gradients are the render gradients as they are
    g, nodes, net, k = tiny_scene(seed=19)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(6).normal(size=DIMS)
    t = 0.45
    rg, _, _ = analytic_motion_grads(g, nodes, net, t, idx, upstream)
    w = blend_operator(g.centers, nodes, idx)
    # h below the acceptance default: the narrow kernels are curved enough
    # that 1e-4 steps leave ~3e-3 truncation residue on a small entry
    h = 1e-5
    for attr in ("centers", "log_scales", "rotations", "intensities"):
        arr = getattr(g, attr)
        fd = np.zeros_like(arr)
        it = np.nditer(fd, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + h
            lp = pipeline_loss(g, nodes, net, t, idx, upstream, w)
            arr[i] = orig - h
            lm = pipeline_loss(g, nodes, net, t, idx, upstream, w)
            arr[i] = orig
            fd[i] = (lp - lm) / (2 * h)
        assert rel_err(getattr(rg, attr), fd) < 1e-4, attr


def test_motion_scatters_equal_add_at_with_repeated_neighbours():
    # 3 nodes, k = 3: every Gaussian lists every node, so each node row is
    # hit 50 times; W.T @ g must add in np.add.at's order to the bit
    g, nodes, net, k = tiny_scene(seed=5, n=50, m=3, k=3)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(6).normal(size=DIMS)
    rg, g_t6, _ = analytic_motion_grads(g, nodes, net, 0.45, idx, upstream)
    weights = blend_operator(g.centers, nodes, idx).data.reshape(idx.shape)
    g_b6 = np.concatenate([rg.centers, rg.log_scales], axis=1)
    want = np.zeros((nodes.count, 6))
    np.add.at(want, idx, weights[:, :, None] * g_b6[:, None, :])
    assert g_t6.tobytes() == want.tobytes()


def test_motion_backward_leaves_its_cache_and_inputs_as_they_were():
    # the backward reads the forward's W, its cache; nothing it reads may
    # change, so two calls on one cache agree to the byte
    g, nodes, net, k = tiny_scene(seed=23, n=12, m=5, k=3)
    idx = knn_indices(g.centers, nodes.positions, k)
    t6, acts = node_transforms(net, nodes.positions, 0.55)
    deformed, w = motion_forward(g, nodes, t6, idx)
    rg = render_backward(deformed, DIMS, np.random.default_rng(7).normal(size=DIMS),
                         render_with_cache(deformed, DIMS, np.inf)[1])

    def read():
        return [a.tobytes() for a in (w.data, w.indices, w.indptr, t6, *acts, rg.centers,
                                      rg.rotations, rg.log_scales, rg.intensities,
                                      nodes.positions, *net.weights)]

    def grads(g_t6):
        before = g_t6.tobytes()
        g_w, g_b = node_transforms_backward(net, acts, g_t6)
        assert g_t6.tobytes() == before
        return [a.tobytes() for a in (*g_w, *g_b, g_t6)]

    before = read()
    first = grads(motion_backward(w, rg))
    assert read() == before
    assert grads(motion_backward(w, rg)) == first
    assert read() == before


# --- node init and serialization -------------------------------------------------

def test_init_control_nodes_deterministic_and_bounded():
    rng = np.random.default_rng(0)
    centers = rng.random((100, 3))
    a = init_control_nodes(centers, 20, seed=5)
    b = init_control_nodes(centers, 20, seed=5)
    assert np.array_equal(a.positions, b.positions)
    assert a.count == 20
    assert np.exp(a.log_radius) > 0 and a.log_radius == b.log_radius
    with pytest.raises(ValidationError, match="budget"):
        init_control_nodes(centers, 101, seed=0)


@pytest.mark.parametrize("call,match", [
    (lambda: ControlNodeSet(np.zeros((0, 3)), 0.0), "at least one control node"),
    (lambda: ControlNodeSet(np.zeros((2, 3)), np.zeros(3)), "inconsistent ControlNodeSet shapes"),
    (lambda: positional_encoding(np.zeros(3), 0), "at least one frequency"),
    # l_space = l_time = 2 encode 16 inputs
    (lambda: DeformNet([np.zeros((5, 8)), np.zeros((8, 6))], [np.zeros(8), np.zeros(6)], 2, 2),
     "first layer expects 5 inputs, encoding produces 16"),
    (lambda: DeformNet([np.zeros((16, 8)), np.zeros((8, 5))], [np.zeros(8), np.zeros(5)], 2, 2),
     "output head must have 6 channels"),
    (lambda: deform_gaussians(GaussianSet(np.zeros((2, 3)), np.ones((2, 4)), np.zeros((2, 3)),
                                          np.ones(2)), np.zeros((3, 3)), np.zeros((2, 3))),
     "misaligned with Gaussian order"),
])
def test_motion_guards_refuse_bad_arguments(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_node_set_refuses_non_finite_values_where_it_is_built(bad):
    pos = np.random.default_rng(3).random((5, 3))
    one_bad = pos.copy()
    one_bad[2, 1] = bad
    for positions, log_radius in ((one_bad, -1.5), (pos, bad)):
        with pytest.raises(ValidationError, match="positions and radius must be finite"):
            ControlNodeSet(positions, log_radius)


def test_a_node_set_holds_read_only_float64_positions_and_one_radius():
    pos = np.random.default_rng(4).random((5, 3))
    for positions, log_radius in ((pos[:, :2], -1.5), (pos.ravel(), -1.5), (pos[None], -1.5),
                                  (pos, np.full(5, -1.5)), (pos, [-1.5])):
        with pytest.raises(ValidationError, match="inconsistent ControlNodeSet shapes"):
            ControlNodeSet(positions, log_radius)
    nodes = ControlNodeSet(pos.astype(np.float32), np.float32(-1.5))
    assert nodes.positions.dtype == np.float64 and type(nodes.log_radius) is float
    with pytest.raises(ValueError, match="read-only"):
        nodes.positions[0, 0] = 0.5
    with pytest.raises(FrozenInstanceError):
        nodes.log_radius = 0.0
    # the set keeps its own copy of the caller's array
    nodes = ControlNodeSet(pos, -1.5)
    pos[0, 0] = 7.0
    assert nodes.positions[0, 0] != 7.0


def test_nodes_round_trip(tmp_path):
    nodes = ControlNodeSet(np.random.default_rng(1).random((9, 3)),
                           np.log(np.random.default_rng(2).uniform(0.1, 0.3)))
    save_nodes(nodes, tmp_path / "n")
    back = load_nodes(tmp_path / "n")
    assert back.count == 9
    assert back.log_radius == float(np.float32(nodes.log_radius))
    assert (tmp_path / "n.raw").stat().st_size == 4 * (9 * 3 + 1)
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
    nodes = ControlNodeSet(np.random.default_rng(5).random((4, 3)), np.log(0.2))
    a, _ = node_transforms(back, nodes.positions, 0.5)
    b, _ = node_transforms(load_network(tmp_path / "w2"), nodes.positions, 0.5)
    assert np.array_equal(a, b)
