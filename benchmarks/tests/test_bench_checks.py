"""Each benchmark check accepts a right output and rejects a corrupted one;
the traced run's pair counter agrees with a voxel-by-voxel count."""

import numpy as np
import pytest

import checks
from spans import support_pairs
from gausstrack import gauss, metrics, motion
from gausstrack.volgrid import LABEL_LV, LABEL_MYO, LABEL_RV, LabelVolume

DIMS = (12, 10, 9)
DENOMS = np.array([d - 1 for d in DIMS], dtype=np.float64)


@pytest.fixture
def gaussians():
    rng = np.random.default_rng(3)
    n = 40
    return gauss.GaussianSet(
        centers=rng.uniform(0.1, 0.9, (n, 3)),
        rotations=rng.normal(size=(n, 4)),
        log_scales=np.log(rng.uniform(0.04, 0.12, (n, 3))),
        intensities=rng.uniform(-0.5, 1.0, n))


def _samples(values, n=24, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, d, n) for d in values.shape], axis=1)


def test_render_accepts_renderer_output(gaussians):
    values = gauss.render_values(gaussians, DIMS, 3.0)
    vox = _samples(values)
    assert checks.check_render(values[tuple(vox.T)], gaussians, vox, DENOMS, 3.0)
    # the same values after an f32 round trip
    as_f32 = values.astype(np.float32)[tuple(vox.T)]
    assert checks.check_render(as_f32, gaussians, vox, DENOMS, 3.0)


def test_render_rejects_corrupted_value(gaussians):
    values = gauss.render_values(gaussians, DIMS, 3.0)
    vox = np.argwhere(values != 0)[:24]
    got = values[tuple(vox.T)].copy()
    got[5] += 1e-4 * max(abs(got[5]), 1e-3)
    assert not checks.check_render(got, gaussians, vox, DENOMS, 3.0)


def test_render_rejects_a_missing_cutoff(gaussians):
    # summing every Gaussian with no cutoff differs from the cut-off render
    full = gauss.render_values_bruteforce(gaussians, DIMS)
    cut = gauss.render_values(gaussians, DIMS, 3.0)
    vox = np.argwhere(np.abs(full - cut) > 1e-9)[:8]
    assert len(vox)
    assert not checks.check_render(full[tuple(vox.T)], gaussians, vox, DENOMS, 3.0)


def _lattice(seed):
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, 6, (30, 3)) / 5.0
    queries = rng.integers(0, 6, (50, 3)) / 5.0
    return queries, nodes


def test_knn_accepts_program_output_with_ties():
    queries, nodes = _lattice(1)
    assert checks.count_boundary_ties(queries, nodes, 4) > 0
    got = motion.knn_indices(queries, nodes, 4)
    assert checks.check_knn(got, queries, nodes, 4)


def test_knn_rejects_wrong_tie_order_and_wrong_neighbour():
    queries, nodes = _lattice(1)
    got = motion.knn_indices(queries, nodes, 4)
    want = checks.reference_knn(queries, nodes, 4)
    # a tie broken towards the higher node index
    d2 = ((queries[:, None] - nodes[None]) ** 2).sum(axis=2)
    row = next(i for i in range(len(queries))
               if np.sum(d2[i] == d2[i, want[i, 0]]) > 1)
    tied = np.flatnonzero(d2[row] == d2[row, want[row, 0]])
    swapped = got.copy()
    swapped[row, 0] = tied[-1]
    assert not checks.check_knn(swapped, queries, nodes, 4)
    # a neighbour that is not among the nearest
    wrong = got.copy()
    wrong[0, 3] = np.argmax(d2[0])
    assert not checks.check_knn(wrong, queries, nodes, 4)


def test_losses():
    assert checks.check_losses([10.0, 8.0, 6.0, 5.0, 4.0], cycle=2)
    assert not checks.check_losses([10.0, 8.0, np.nan, 5.0, 4.0], cycle=2)
    assert not checks.check_losses([10.0, 8.0, np.inf, 5.0, 4.0], cycle=2)
    assert not checks.check_losses([4.0, 8.0, 6.0, 5.0, 4.0], cycle=2)
    assert not checks.check_losses([10.0], cycle=2)


def test_field_f32_round_trip():
    rng = np.random.default_rng(2)
    mem = rng.normal(scale=0.02, size=(50, 3))
    mem[0, 0] = 0.0
    mem[1, 1] = 1e-300
    exported = mem.astype("<f4")
    assert checks.check_field(exported, mem)
    corrupted = exported.astype(np.float64)
    corrupted[7, 2] *= 1.0 + 1e-5
    assert not checks.check_field(corrupted, mem)
    assert not checks.check_field(exported[:-1], mem)


def test_dice_matches_metrics_and_rejects_wrong_scores():
    rng = np.random.default_rng(4)
    classes = (LABEL_RV, LABEL_MYO, LABEL_LV)
    pred = rng.integers(0, 4, DIMS).astype(np.uint8)
    truth = rng.integers(0, 4, DIMS).astype(np.uint8)
    p = LabelVolume(DIMS, (1.0, 1.0, 1.0), pred)
    t = LabelVolume(DIMS, (1.0, 1.0, 1.0), truth)
    scores = [metrics.dice(p, t, c) for c in classes]
    reported = scores + [float(np.mean(scores))]
    assert checks.check_dice(reported, pred, truth, classes)
    for i in range(4):
        bad = list(reported)
        bad[i] += 1e-6
        assert not checks.check_dice(bad, pred, truth, classes)
    # scores of the wrong label arrays
    assert not checks.check_dice(reported, truth, truth, classes)


def test_support_pairs_match_a_voxel_by_voxel_count(gaussians):
    grid = np.stack(np.meshgrid(*[np.arange(d) / (d - 1) for d in DIMS],
                                indexing="ij"), axis=-1).reshape(-1, 3)
    r = 3.0 * np.exp(gaussians.log_scales).max(axis=1)
    pairs = useful = 0
    for c, ri in zip(gaussians.centers, r):
        d = grid - c
        in_box = np.all(np.abs(d) <= ri + 1e-12, axis=1)
        pairs += int(in_box.sum())
        useful += int(np.sum(in_box & ((d * d).sum(axis=1) <= ri * ri)))
    assert support_pairs(gaussians.centers, gaussians.log_scales, DIMS, 3.0) == (pairs, useful)
