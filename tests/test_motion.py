import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

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
    blend_transforms,
    blend_weights,
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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6))
def test_blend_weights_equal_the_normalized_rbf_formula(seed, k):
    # radii >= 0.15 in the unit cube keep every exponent above -67, far from
    # underflow; shifting by the row maximum then rounds each exponent
    # difference to within 67 * 2^-53, so 1e-14 holds element by element
    rng = np.random.default_rng(seed)
    q, pos = rng.random((40, 3)), rng.random((8, 3))
    log_radii = np.log(rng.uniform(0.15, 1.0, 8))
    idx = np.stack([rng.choice(8, k, replace=False) for _ in range(40)])
    w = blend_weights(q, pos, log_radii, idx)
    diff = q[:, None, :] - pos[idx]
    o = np.exp(log_radii[idx])
    w_hat = np.exp(-np.einsum("qki,qki->qk", diff, diff) / (2.0 * o * o))
    want = w_hat / w_hat.sum(axis=1, keepdims=True)
    assert np.all(np.abs(w - want) <= 1e-14 * want)


def test_blend_weight_underflow_keeps_the_largest_kernel():
    # every kernel underflows (exp(-1.25e11) == 0); the row still sums to 1,
    # all on the nearest node, and the adjoint stays finite
    nodes = ControlNodeSet(np.array([[50.0, 0, 0], [60.0, 0, 0], [70.0, 0, 0]]),
                           np.log([1e-4, 1e-4, 1e-4]))
    idx = np.array([[0, 1, 2]])
    w = blend_weights(np.zeros((1, 3)), nodes.positions, nodes.log_radii, idx)
    assert np.array_equal(w, [[1.0, 0.0, 0.0]])
    _, _, net, _ = tiny_scene(seed=2)
    g = GaussianSet([[0.5, 0.5, 0.5]], [[1.0, 0, 0, 0]], np.log([[0.1, 0.1, 0.1]]), [1.0])
    t6, acts = node_transforms(net, nodes.positions, 0.4)
    deformed, cache = apply_motion(g, nodes, net, 0.4, idx)
    assert np.array_equal(deformed.centers, g.centers + t6[:1, :3])
    rg = render_backward(deformed, DIMS, np.random.default_rng(1).normal(size=DIMS),
                         render_with_cache(deformed, DIMS, np.inf)[1])
    mg = motion_backward(cache, nodes, rg)
    g_w, g_b = node_transforms_backward(net, acts, mg.node_transforms)
    for a in g_w + g_b + [mg.node_transforms, mg.node_positions, mg.node_log_radii,
                          mg.canonical.centers]:
        assert np.all(np.isfinite(a))
    assert np.all(mg.node_log_radii == 0) and np.all(mg.node_positions == 0)


def test_blend_weights_normalized_and_scale_invariant():
    rng = np.random.default_rng(8)
    q = rng.random((20, 3))
    pos = rng.random((10, 3))
    idx = knn_indices(q, pos, 4)
    w = blend_weights(q, pos, np.log(rng.uniform(0.05, 0.3, 10)), idx)
    assert np.all(w >= 0) and np.all(w <= 1)
    assert np.max(np.abs(w.sum(axis=1) - 1)) < 1e-6


def test_blend_transforms_shared_transform():
    t6 = np.tile([0.1, -0.2, 0.3, 2.0, 1.0, 0.5], (4, 1))
    w = np.array([[0.25, 0.25, 0.25, 0.25]])
    d, a = blend_transforms(w, np.array([[0, 1, 2, 3]]), t6)
    assert np.allclose(d, [[0.1, -0.2, 0.3]]) and np.allclose(a, [[2, 1, 0.5]])


def test_blend_transforms_selects_first_on_degenerate_weights():
    rng = np.random.default_rng(1)
    t6 = np.exp(rng.normal(size=(3, 6)))
    d, a = blend_transforms(np.array([[1.0, 0.0]]), np.array([[2, 0]]), t6)
    assert np.allclose(d, t6[2, :3]) and np.allclose(a, t6[2, 3:])


def test_blend_transforms_matches_direct_sum():
    rng = np.random.default_rng(5)
    t6 = np.exp(rng.normal(size=(6, 6)))
    idx = np.array([[0, 3, 5]])
    w = rng.random((1, 3))
    w /= w.sum()
    d, a = blend_transforms(w, idx, t6)
    want = sum(w[0, j] * t6[idx[0, j]] for j in range(3))
    assert np.max(np.abs(np.concatenate([d[0], a[0]]) - want)) < 1e-12


def test_blend_transforms_linear_in_transforms():
    rng = np.random.default_rng(9)
    t1 = rng.normal(size=(5, 6))
    t2 = rng.normal(size=(5, 6))
    mix = 2 * t1 + 3 * t2
    idx = np.array([[1, 4], [0, 2]])
    w = np.array([[0.3, 0.7], [0.9, 0.1]])
    d, a = blend_transforms(w, idx, mix)
    d1, a1 = blend_transforms(w, idx, t1)
    d2, a2 = blend_transforms(w, idx, t2)
    assert np.allclose(d, 2 * d1 + 3 * d2) and np.allclose(a, 2 * a1 + 3 * a2)


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
    # one node right at the query with a sane radius, others far with tiny radii
    nodes = ControlNodeSet(np.array([[0.5, 0.5, 0.5], [5.0, 5, 5], [6.0, 6, 6]]),
                           np.log([0.2, 1e-5, 1e-5]))
    net = DeformNet.create(l_space=2, l_time=2, hidden_width=8, hidden_depth=2, seed=9)
    net.weights[-1] = np.random.default_rng(4).normal(size=net.weights[-1].shape)
    t6, _ = node_transforms(net, nodes.positions, 0.3)
    u = dense_displacement(np.array([[0.5, 0.5, 0.5]]), nodes, net, 0.3, k=3)
    assert np.max(np.abs(u[0] - t6[0, :3])) < 1e-6


def test_dense_displacement_agrees_with_fit_path():
    g, nodes, net, k = tiny_scene(seed=7)
    idx = knn_indices(g.centers, nodes.positions, k)
    deformed, cache = apply_motion(g, nodes, net, 0.6, idx)
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
    nodes = ControlNodeSet(rng.random((40, 3)), np.log(rng.uniform(0.05, 0.3, 40)))
    net = DeformNet.create(l_space=2, l_time=2, hidden_width=8, hidden_depth=2, seed=seed)
    net.weights[-1] = 0.1 * rng.normal(size=net.weights[-1].shape)
    return rng.random((n, 3)), nodes, net


def public_field(q, nodes, net, t, k):
    """The dense field through the public steps, all rows at once."""
    idx = knn_indices(q, nodes.positions, k)
    weights = blend_weights(q, nodes.positions, nodes.log_radii, idx)
    delta, _ = blend_transforms(weights, idx, node_transforms(net, nodes.positions, t)[0])
    return delta


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
def test_dense_displacement_is_byte_equal_for_any_pool_size(monkeypatch, n):
    q, nodes, net = field_scene(n)
    want = public_field(q, nodes, net, 0.3, 4).tobytes()
    for workers in (1, 2, 3):
        monkeypatch.setattr(motion, "_pool_size", lambda: workers)
        assert dense_displacement(q, nodes, net, 0.3, 4).tobytes() == want


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
    nodes = ControlNodeSet(pos, np.full(len(pos), np.log(0.3)))
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
    nodes = ControlNodeSet(pos, np.full(len(pos), np.log(0.3)))
    _, _, net = field_scene(1)
    resorted = counting_resorts(monkeypatch)
    for k in range(1, len(pos) + 1):
        resorted.clear()
        assert np.array_equal(knn_indices(q[:1], pos, k), want[:1, :k])
        assert resorted[:1] == [1]  # q0's row is re-sorted
        assert np.array_equal(knn_indices(q, pos, k), want[:, :k])
        assert dense_displacement(q, nodes, net, 0.4, k).tobytes() == \
            public_field(q, nodes, net, 0.4, k).tobytes()


def test_dense_displacement_checks_inputs_before_any_worker_starts(monkeypatch):
    threads, pools = counting_threads(monkeypatch)
    q, nodes, net = field_scene(2 * C)
    for k in (0, nodes.count + 1):
        with pytest.raises(ValidationError, match=f"k={k}"):
            dense_displacement(q, nodes, net, 0.3, k)
    q[C + 1, 1] = np.nan
    with pytest.raises(NumericalAbort):
        dense_displacement(q, nodes, net, 0.3, 4)
    q[C + 1, 1] = 0.5
    nodes.positions[3, 2] = np.inf
    with pytest.raises(NumericalAbort):
        dense_displacement(q, nodes, net, 0.3, 4)
    assert threads == [] and pools == []


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
    nodes.positions[3, 2] = np.nan
    with pytest.raises(NumericalAbort):
        motion.grid_displacement(nodes, t6, 4, (20, 20, 21))
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
    # zero radii make every slice non-finite; first raises only once a worker
    # has started its second slice, so its first slice has already failed
    monkeypatch.setattr(motion, "_pool_size", lambda: pool)
    dims = (20, 16, 128)  # ten slices, more than the workers
    _, nodes, net = field_scene(1)
    nodes.log_radii[:] = -1e30
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


def test_dense_displacement_workers_run_under_the_callers_error_state(monkeypatch):
    # the points form runs on the calling thread: zero radii make every
    # kernel exponent d^2 / 0, division by zero, then -inf - (-inf) in the
    # softmax shift.  With the errors ignored, the NaN field is refused
    q, nodes, net = field_scene(2 * C)
    nodes.log_radii[:] = -1e30
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


def pipeline_loss(g, nodes, net, t, idx, upstream, encoded=None):
    """The loss through the public steps; ``encoded`` (default: the live
    node positions) are the positions the network input is encoded from."""
    t6, _ = node_transforms(net, nodes.positions if encoded is None else encoded, t)
    weights = blend_weights(g.centers, nodes.positions, nodes.log_radii, idx)
    delta, alpha = blend_transforms(weights, idx, t6)
    deformed = deform_gaussians(g, delta, alpha)
    return float(np.sum(upstream * render_values(deformed, DIMS, np.inf)))


def analytic_motion_grads(g, nodes, net, t, idx, upstream):
    """The blend adjoint's gradients, then the network's (weights, biases)
    from its node-transform gradient, as fit chains them."""
    t6, acts = node_transforms(net, nodes.positions, t)
    deformed, cache = motion_forward(g, nodes, t6, idx)
    rg = render_backward(deformed, DIMS, upstream, render_with_cache(deformed, DIMS, np.inf)[1])
    mg = motion_backward(cache, nodes, rg)
    return mg, node_transforms_backward(net, acts, mg.node_transforms)


def rel_err(a, b):
    return np.max(np.abs(a - b) / (np.maximum(np.abs(a), np.abs(b)) + 1e-6))


def test_motion_backward_zero_upstream():
    g, nodes, net, k = tiny_scene(seed=4)
    idx = knn_indices(g.centers, nodes.positions, k)
    mg, (g_w, _) = analytic_motion_grads(g, nodes, net, 0.5, idx, np.zeros(DIMS))
    assert all(np.all(w == 0) for w in g_w)
    assert np.all(mg.node_positions == 0) and np.all(mg.node_log_radii == 0)
    assert np.all(mg.canonical.centers == 0)


def test_network_gradients_match_fd():
    g, nodes, net, k = tiny_scene(seed=11)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(2).normal(size=DIMS)
    t = 0.35
    _, (g_w, g_b) = analytic_motion_grads(g, nodes, net, t, idx, upstream)
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
    mg, _ = analytic_motion_grads(g, nodes, net, t, idx, upstream)
    t6, _ = node_transforms(net, nodes.positions, t)
    w = blend_weights(g.centers, nodes.positions, nodes.log_radii, idx)

    def loss(t6):
        deformed = deform_gaussians(g, *blend_transforms(w, idx, t6))
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
    assert mg.node_transforms.shape == (nodes.count, 6) and np.all(fd != 0)
    assert rel_err(mg.node_transforms, fd) < 1e-4


def test_node_position_gradients_match_fd_with_frozen_encodings():
    g, nodes, net, k = tiny_scene(seed=13)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(3).normal(size=DIMS)
    t = 0.7
    frozen = nodes.positions.copy()
    mg, _ = analytic_motion_grads(g, nodes, net, t, idx, upstream)
    h = 1e-4
    fd = np.zeros_like(nodes.positions)
    it = np.nditer(fd, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = nodes.positions[i]
        nodes.positions[i] = orig + h
        lp = pipeline_loss(g, nodes, net, t, idx, upstream, encoded=frozen)
        nodes.positions[i] = orig - h
        lm = pipeline_loss(g, nodes, net, t, idx, upstream, encoded=frozen)
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
    mg, _ = analytic_motion_grads(g, nodes, net, t, idx, upstream)
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
    mg, _ = analytic_motion_grads(g, nodes, net, t, idx, upstream)
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
    mg, _ = analytic_motion_grads(g, nodes, net, t, idx, upstream)
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


def test_motion_scatters_equal_add_at_with_repeated_neighbours(monkeypatch):
    # 3 nodes, k = 3: every Gaussian lists every node, so each node row is
    # hit 50 times; the scatters must add in np.add.at's order to the bit
    g, nodes, net, k = tiny_scene(seed=5, n=50, m=3, k=3)
    idx = knn_indices(g.centers, nodes.positions, k)
    upstream = np.random.default_rng(6).normal(size=DIMS)
    scatters = []

    def add_at(idx, vals, m):
        out = np.zeros((m,) + vals.shape[2:])
        np.add.at(out, idx, vals)
        scatters.append((idx, vals, m, out))
        return out.reshape(m, -1)

    got, got_net = analytic_motion_grads(g, nodes, net, 0.45, idx, upstream)
    monkeypatch.setattr(motion, "_scatter_rows", add_at)
    ref, ref_net = analytic_motion_grads(g, nodes, net, 0.45, idx, upstream)
    # node transforms (6 columns), positions (3) and radii (1)
    assert [v.shape[2:] for _, v, _, _ in scatters] == [(6,), (3,), ()]
    monkeypatch.undo()
    for i, v, m, out in scatters:
        assert np.array_equal(motion._scatter_rows(i, v, m), out.reshape(m, -1))
    assert np.array_equal(got.node_positions, ref.node_positions)
    assert np.array_equal(got.node_log_radii, ref.node_log_radii)
    for a, b in zip(got_net[0] + got_net[1], ref_net[0] + ref_net[1]):
        assert np.array_equal(a, b)


def test_motion_backward_leaves_its_cache_and_inputs_as_they_were():
    # the backward reads the one (M, 6) node-transform array of the forward;
    # nothing it reads may change, so two calls on one cache agree to the byte
    g, nodes, net, k = tiny_scene(seed=23, n=12, m=5, k=3)
    idx = knn_indices(g.centers, nodes.positions, k)
    t6, acts = node_transforms(net, nodes.positions, 0.55)
    deformed, cache = motion_forward(g, nodes, t6, idx)
    rg = render_backward(deformed, DIMS, np.random.default_rng(7).normal(size=DIMS),
                         render_with_cache(deformed, DIMS, np.inf)[1])

    def read():
        return [a.tobytes() for a in (cache.t6, cache.weights, cache.diff,
                                      cache.d2, cache.o, cache.idx, *acts, rg.centers,
                                      rg.rotations, rg.log_scales, rg.intensities,
                                      nodes.positions, nodes.log_radii, *net.weights)]

    def grads(mg):
        g_t6 = mg.node_transforms.tobytes()
        g_w, g_b = node_transforms_backward(net, acts, mg.node_transforms)
        assert mg.node_transforms.tobytes() == g_t6
        return [a.tobytes() for a in (*g_w, *g_b, mg.node_transforms, mg.node_positions,
                                      mg.node_log_radii, mg.canonical.centers)]

    before = read()
    first = grads(motion_backward(cache, nodes, rg))
    assert read() == before
    assert grads(motion_backward(cache, nodes, rg)) == first
    assert read() == before


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


@pytest.mark.parametrize("call,match", [
    (lambda: ControlNodeSet(np.zeros((0, 3)), np.zeros(0)), "at least one control node"),
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
    a, _ = node_transforms(back, nodes.positions, 0.5)
    b, _ = node_transforms(load_network(tmp_path / "w2"), nodes.positions, 0.5)
    assert np.array_equal(a, b)
