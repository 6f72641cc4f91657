import json
import sys
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from gausstrack.errors import NumericalAbort, ValidationError
from gausstrack import gauss
from gausstrack.gauss import DensifyConfig
from gausstrack.optim import (
    DECAYING,
    LR_DECAY_END,
    AdamState,
    FitConfig,
    FitSchedule,
    NetworkConfig,
    fit,
    l1_loss,
    learning_rates,
    lr_at,
)
from gausstrack.volgrid import LabelVolume, Sequence4D, VoxelVolume


# --- l1 -----------------------------------------------------------------------

def test_l1_zero_for_equal():
    a = np.random.default_rng(0).random((3, 3, 3))
    loss, grad = l1_loss(a, a.copy())
    assert loss == 0.0 and np.all(grad == 0)


def test_l1_constant_offset():
    t = np.zeros((2, 2, 2))
    loss, grad = l1_loss(t + 0.5, t)
    assert loss == pytest.approx(4.0)
    assert np.all(grad == 1.0)


def test_l1_matches_direct_sum():
    rng = np.random.default_rng(1)
    a, b = rng.random((5, 4, 3)), rng.random((5, 4, 3))
    loss, grad = l1_loss(a, b)
    assert abs(loss - np.abs(a - b).sum()) < 1e-10
    assert np.array_equal(grad, np.sign(a - b))


def test_l1_geometry_mismatch():
    with pytest.raises(ValidationError, match="mismatch"):
        l1_loss(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))


# --- adam -----------------------------------------------------------------------

def test_adam_first_step_is_signed_lr():
    state = AdamState()
    p = np.array([1.0, -2.0, 3.0])
    g = np.array([0.3, -0.7, 0.0001])
    before = p.copy()
    state.step(0.01, {"p": (p, g)})
    assert np.allclose(p, before - 0.01 * np.sign(g), atol=1e-12)


def test_adam_zero_gradient_never_moves():
    state = AdamState()
    p = np.array([1.0, 2.0])
    for _ in range(50):
        state.step(0.1, {"p": (p, np.zeros(2))})
    assert np.array_equal(p, [1.0, 2.0])


def test_adam_converges_on_quadratic():
    state = AdamState()
    x = np.array([1.0])
    for _ in range(100):
        state.step(0.1, {"x": (x, 2.0 * x)})
    assert abs(x[0]) < 0.1


def test_adam_rejects_non_finite_gradient():
    state = AdamState()
    with pytest.raises(NumericalAbort, match="non-finite"):
        state.step(0.1, {"p": (np.zeros(2), np.array([1.0, np.nan]))})


def test_adam_first_update_direction_invariant_to_gradient_scale():
    rng = np.random.default_rng(3)
    g = rng.normal(size=8)
    p1, p2 = np.zeros(8), np.zeros(8)
    AdamState().step(0.05, {"p": (p1, g)})
    AdamState().step(0.05, {"p": (p2, 7.3 * g)})
    assert np.array_equal(np.sign(p1), np.sign(p2))


def test_adam_remap_after_densify():
    # two arrays of different shapes: the remap carries every array of the group
    state = AdamState()
    grads = {"rotations": np.arange(16.0).reshape(4, 4) + 1,
             "log_scales": np.arange(12.0).reshape(4, 3) + 1}
    state.step(0.1, {key: (np.zeros_like(g), g) for key, g in grads.items()})
    before = {key: (state.m[key].copy(), state.v[key].copy()) for key in grads}
    kept = np.array([3, 1])
    state.remap(kept, n_new=3)
    for key, moments in before.items():
        for new, old in zip((state.m[key], state.v[key]), moments):
            assert new.shape == (5,) + old.shape[1:]
            assert np.array_equal(new[:2], old[kept])
            assert not new[2:].any()


# --- schedule and groups ----------------------------------------------------------

def test_lr_decay_endpoints_and_midpoint():
    sched = FitSchedule()
    lr = learning_rates()["positions"]
    assert lr_at(0, "positions", lr, sched) == pytest.approx(1e-4)
    assert lr_at(20000, "positions", lr, sched) == pytest.approx(1e-7)
    assert lr_at(10000, "positions", lr, sched) == pytest.approx(10 ** -5.5, rel=1e-12)
    # the closed form, bit for bit
    for it in (0, 1, 10000, 20000):
        assert lr_at(it, "positions", lr, sched) == lr * (LR_DECAY_END / lr) ** (it / 20000)


def test_constant_groups_do_not_decay():
    sched = FitSchedule()
    lrs = learning_rates()
    for name in ("intensity", "rotscale", "network"):
        assert lr_at(0, name, lrs[name], sched) == lr_at(17000, name, lrs[name], sched)


def test_group_table_matches_recipe():
    lrs = learning_rates()
    assert lrs["intensity"] == pytest.approx(5e-3)
    assert lrs["network"] == pytest.approx(1e-6)
    assert lrs["positions"] == pytest.approx(1e-4)
    assert lrs["rotscale"] == pytest.approx(1e-4)
    assert lrs["nodes"] == pytest.approx(1e-4)
    assert FitSchedule().node_unfreeze_at == 5000
    assert "positions" in DECAYING and "nodes" in DECAYING
    assert "network" not in DECAYING


def test_schedule_validation():
    with pytest.raises(ValidationError):
        FitSchedule(total_iters=100, canonical_only_until=90, node_unfreeze_at=80)
    with pytest.raises(ValidationError, match="densify interval/start must be >= 1"):
        FitSchedule(total_iters=100, canonical_only_until=10, node_unfreeze_at=20,
                    densify_interval=0)
    sched = FitSchedule(total_iters=100, canonical_only_until=10, node_unfreeze_at=20)
    for it in (-1, 101):
        with pytest.raises(ValidationError, match="iteration outside the schedule"):
            lr_at(it, "positions", 1e-4, sched)


def test_config_round_trip_and_unknown_keys(tmp_path):
    cfg = FitConfig(n_init=128, node_budget=32, seed=9,
                    schedule=FitSchedule(total_iters=2000, canonical_only_until=100,
                                         node_unfreeze_at=500, densify_interval=50,
                                         densify_start=50),
                    network=NetworkConfig(l_space=4, l_time=2, hidden_width=16,
                                          hidden_depth=2))
    cfg.save(tmp_path / "run.json")
    back = FitConfig.load(tmp_path / "run.json")
    assert back == cfg
    with pytest.raises(ValidationError, match="unknown config keys"):
        FitConfig.from_dict({"not_a_key": 1})
    with pytest.raises(ValidationError, match="schedule"):
        FitConfig.from_dict({"schedule": {"bogus": 2}})


@pytest.mark.parametrize("make", [
    lambda: FitConfig(learning_rates={"intensity": float("inf")}),
    lambda: FitConfig(learning_rates={"rotscale": -1e-4}),
    lambda: FitConfig(learning_rates={"positions": 0.0}),
    lambda: FitConfig(cutoff_multiplier=float("nan")),
    lambda: FitConfig(seed=-1),
    lambda: NetworkConfig(hidden_width=0),
    lambda: NetworkConfig(l_space=0),
    lambda: NetworkConfig(l_time=-1),
    lambda: NetworkConfig(hidden_depth=0),
    lambda: FitConfig(k_neighbors=0),
    lambda: FitConfig(n_init=64, node_budget=3),
    lambda: FitConfig(n_init=64, node_budget=65),
    lambda: FitConfig(n_init=0),
    lambda: FitConfig(node_budget=-5),
    # values of the wrong kind: each used to be built, or to raise OverflowError
    lambda: FitConfig(learning_rates={"network": 10**400}),
    lambda: FitConfig(cutoff_multiplier=10**400),
    lambda: FitConfig(seed=0.5),
    lambda: FitConfig(k_neighbors=4.0),
    lambda: FitConfig(schedule={"total_iters": 40}),
    lambda: FitSchedule(total_iters=4.5, canonical_only_until=1, node_unfreeze_at=2),
    lambda: NetworkConfig(l_space=2.0),
    lambda: DensifyConfig(grad_threshold="2e-4"),
    # densify thresholds out of range: each used to be built
    lambda: DensifyConfig(grad_threshold=-1.0),
    lambda: DensifyConfig(grad_threshold=0.0),
    lambda: DensifyConfig(intensity_floor=-1e-3),
])
def test_out_of_range_settings_are_refused_without_json(make):
    with pytest.raises(ValidationError, match="must be"):
        make()


def test_a_constant_group_may_have_rate_zero():
    assert learning_rates({"network": 0.0})["network"] == 0.0


def test_densify_thresholds_in_use_build():
    # the defaults, the densifying benchmark's threshold and a no-growth pair
    for kw in ({}, {"grad_threshold": 8e-4}, {"grad_threshold": 1e9, "intensity_floor": 0.0}):
        DensifyConfig(**kw)


# --- fit smoke run -----------------------------------------------------------------

def toy_problem(dims=(12, 12, 12), n_frames=3, shift_per_t=1.0, seed=0, cube=slice(3, 9)):
    """Textured cube that slides along x over time; trackable at toy scale."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(dims, dtype=np.uint8)
    labels[cube, cube, cube] = 2
    base = ndimage.gaussian_filter(rng.random(dims), 1.2)
    base = (base - base.min()) / (base.max() - base.min())
    ed_vals = np.where(labels > 0, 0.25 + 0.6 * base, 0.0)
    frames = []
    grid = np.indices(dims).astype(np.float64)
    times = np.linspace(0, 1, n_frames) if n_frames > 1 else np.array([0.0])
    for t in times:
        coords = grid.copy()
        coords[0] -= shift_per_t * t  # sample upstream: content moves +x
        vals = ndimage.map_coordinates(ed_vals, coords, order=1, mode="nearest")
        frames.append(VoxelVolume(dims, (1, 1, 1), vals))
    seq = Sequence4D(frames, times, 0, n_frames - 1)
    return seq, LabelVolume(dims, (1, 1, 1), labels)


def toy_config(total=120, seed=0):
    return FitConfig(
        schedule=FitSchedule(total_iters=total, canonical_only_until=30,
                             node_unfreeze_at=60, densify_interval=40,
                             densify_start=40),
        network=NetworkConfig(l_space=3, l_time=2, hidden_width=16, hidden_depth=2),
        densify=DensifyConfig(),
        n_init=64, node_budget=16, k_neighbors=4, seed=seed,
    )


def test_fit_smoke_and_loss_improves():
    seq, mask = toy_problem()
    cfg = toy_config()
    result = fit(seq, mask, cfg)
    assert len(result.report.losses) == 120
    assert all(np.isfinite(result.report.losses))
    # canonical fit progresses within stage 1
    assert result.report.losses[29] < result.report.losses[0]
    # joint fit ends below its starting loss
    stage2 = result.report.losses[30:]
    assert np.mean(stage2[-20:]) < np.mean(stage2[:20])
    assert result.report.final_gaussians >= 64
    names = [e[1] for e in result.report.events]
    assert "stage2_start" in names and "nodes_unfrozen" in names


def test_fit_stage1_purity_and_node_freeze():
    seq, mask = toy_problem()
    cfg = toy_config()
    snaps = {}

    def hook(it, state):
        if it in (0, 30, 60):
            snaps[it] = {
                "net": [w.copy() for w in state["net"].weights]
                + [b.copy() for b in state["net"].biases],
                "nodes_pos": state["nodes"].positions.copy(),
                "nodes_rad": state["nodes"].log_radii.copy(),
            }

    fit(seq, mask, cfg, inspect_hook=hook)
    # no motion parameter moved during stage 1
    for a, b in zip(snaps[0]["net"], snaps[30]["net"]):
        assert np.array_equal(a, b)
    assert np.array_equal(snaps[0]["nodes_pos"], snaps[30]["nodes_pos"])
    # nodes bit-identical while frozen (iteration 30 to 60), but the network
    # must have moved during stage 2
    assert np.array_equal(snaps[30]["nodes_pos"], snaps[60]["nodes_pos"])
    assert np.array_equal(snaps[30]["nodes_rad"], snaps[60]["nodes_rad"])
    assert any(not np.array_equal(a, b)
               for a, b in zip(snaps[30]["net"], snaps[60]["net"]))


def test_fit_deterministic_across_runs():
    seq, mask = toy_problem()
    cfg = toy_config(total=70)
    r1 = fit(seq, mask, cfg)
    r2 = fit(seq, mask, cfg)
    # everything the report holds except the wall clock
    assert ({**asdict(r1.report), "wall_clock_s": None}
            == {**asdict(r2.report), "wall_clock_s": None})
    assert np.array_equal(r1.gaussians.centers, r2.gaussians.centers)
    assert all(np.array_equal(a, b)
               for a, b in zip(r1.net.weights, r2.net.weights))


def test_fit_single_frame_sequence():
    seq, mask = toy_problem(n_frames=1)
    seq = Sequence4D(seq.frames, [0.0], 0, 0)
    cfg = toy_config(total=70)
    result = fit(seq, mask, cfg)
    assert np.mean(result.report.losses[-10:]) < np.mean(result.report.losses[:10])


def with_frames_as(seq, dtype):
    return Sequence4D([VoxelVolume(f.dims, f.spacing, f.values.astype(dtype)) for f in seq.frames],
                      seq.times, seq.ed_index, seq.es_index)


SHORT = FitSchedule(total_iters=12, canonical_only_until=4, node_unfreeze_at=8,
                    densify_interval=6, densify_start=6)


def test_fit_on_float32_frames_equals_the_fit_on_their_float64_values():
    seq, mask = toy_problem()
    single = with_frames_as(seq, np.float32)
    double = with_frames_as(single, np.float64)
    cfg = toy_config(total=70)
    a, b = fit(single, mask, cfg), fit(double, mask, cfg)
    assert a.report.losses == b.report.losses
    for name in ("centers", "rotations", "log_scales", "intensities"):
        assert getattr(a.gaussians, name).tobytes() == getattr(b.gaussians, name).tobytes()
    assert a.nodes.positions.tobytes() == b.nodes.positions.tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.net.weights, b.net.weights))


def test_fit_makes_no_float64_copy_of_the_frames():
    # 38 more float32 frames would cost 38 float64 volumes as a copy; the
    # fit reads the frames in place, so its peak does not grow with them
    cfg = replace(toy_config(), schedule=SHORT)
    peaks = []
    for n_frames in (2, 40):
        seq, mask = toy_problem(n_frames=n_frames)
        seq = with_frames_as(seq, np.float32)
        tracemalloc.start()
        try:
            fit(seq, mask, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    copy_bytes = 38 * np.prod(seq.dims) * 8
    assert peaks[1] - peaks[0] < 0.1 * copy_bytes


def cache_bytes(cache):
    """Bytes of a render cache: every chunk's voxel indices, offset moments
    and exponentials, and the live Gaussians' geometry once."""
    order, base, inv, R, q = cache[0][4]
    return sum(flat.nbytes + feats.nbytes + e.nbytes for _, flat, feats, e, _ in cache) \
        + sum(a.nbytes for a in (order, base, inv, R, *q))


def test_fit_holds_one_render_cache_and_refits_the_same_bits(monkeypatch):
    # small chunks keep the renderer's per-chunk scratch small beside the
    # cache; the set keeps its size, so its caches stay near the first one's
    monkeypatch.setattr(gauss, "_CHUNK_ELEMS", 4096)
    seq, mask = toy_problem(dims=(20, 20, 20), cube=slice(3, 17))
    cfg = replace(toy_config(), schedule=SHORT, n_init=1024,
                  densify=DensifyConfig(grad_threshold=1e9, intensity_floor=0.0))
    first = gauss.initialize_from_mask(mask, seq.frames[seq.ed_index], cfg.n_init, cfg.seed)
    one_cache = cache_bytes(gauss.render_with_cache(first, seq.dims)[1])
    volume = np.prod(seq.dims) * 8
    fits = []
    for _ in range(2):
        tracemalloc.start()
        try:
            fits.append(fit(seq, mask, cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 40 volumes (2.6 MB) cover all else the fit holds at its peak:
        # the set with its Adam moments and gradients, the motion state, the
        # next render's sphere tests and the L1 terms (28-30 volumes here).
        # A second cache alive beside the first is 45 volumes more.
        assert peak < one_cache + 40 * volume
    a, b = fits
    assert a.report.losses == b.report.losses
    for name in ("centers", "rotations", "log_scales", "intensities"):
        assert getattr(a.gaussians, name).tobytes() == getattr(b.gaussians, name).tobytes()
    assert a.nodes.positions.tobytes() == b.nodes.positions.tobytes()
    assert a.nodes.log_radii.tobytes() == b.nodes.log_radii.tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.net.weights + a.net.biases,
                                                           b.net.weights + b.net.biases))


def test_fit_aborts_on_non_finite_loss():
    seq, mask = toy_problem()
    bad = np.array(seq.frames[1].values, dtype=np.float64)
    bad[0, 0, 0] = np.inf
    frames = list(seq.frames)
    frames[1] = VoxelVolume(seq.dims, seq.spacing, bad)
    seq_bad = Sequence4D(frames, seq.times, 0, 2)
    with pytest.raises(NumericalAbort) as err:
        fit(seq_bad, mask, toy_config())
    assert err.value.iteration is not None


def test_fit_validates_geometry_and_budgets():
    seq, mask = toy_problem()
    small_mask = LabelVolume((6, 6, 6), (1, 1, 1), np.zeros((6, 6, 6), dtype=np.uint8))
    with pytest.raises(ValidationError, match=r"mask dims \(6, 6, 6\) do not match sequence dims"):
        fit(seq, small_mask, toy_config())
    cfg = toy_config()
    cfg.node_budget = cfg.n_init + 1
    with pytest.raises(ValidationError, match="node budget"):
        fit(seq, mask, cfg)


_SIZE = st.integers(-1, 3)
# the densify thresholds' whole ranges: tiny thresholds grow every live
# Gaussian at each event, large floors prune every one
_GRAD_THRESHOLD = st.floats(0.0, sys.float_info.max, exclude_min=True)
_INTENSITY_FLOOR = st.floats(0.0, sys.float_info.max)


_DENSIFY = st.fixed_dictionaries({"grad_threshold": _GRAD_THRESHOLD,
                                  "intensity_floor": _INTENSITY_FLOOR})
_SCHEDULE = dict(canonical_only_until=1, node_unfreeze_at=2, densify_interval=2,
                 densify_start=2)


@st.composite
def _ordered_sizes(draw):
    """(n_init, node_budget, k_neighbors) with 1 <= k <= budget <= n_init <= 40."""
    n_init = draw(st.integers(1, 40))
    node_budget = draw(st.integers(1, n_init))
    return n_init, node_budget, draw(st.integers(1, node_budget))


@settings(max_examples=60, deadline=None)
@given(network=st.fixed_dictionaries({"l_space": st.integers(1, 3), "l_time": st.integers(1, 3),
                                      "hidden_width": st.integers(1, 3),
                                      "hidden_depth": st.integers(1, 3)}),
       sizes=_ordered_sizes(), total=st.integers(4, 6), densify=_DENSIFY)
@example(network={"l_space": 1, "l_time": 1, "hidden_width": 2, "hidden_depth": 1},
         sizes=(40, 8, 8), total=5, densify={"grad_threshold": 2e-4, "intensity_floor": 1e-3})
@example(network={"l_space": 1, "l_time": 1, "hidden_width": 2, "hidden_depth": 1},
         sizes=(40, 8, 4), total=6, densify={"grad_threshold": 5e-324, "intensity_floor": 0.0})
@example(network={"l_space": 1, "l_time": 1, "hidden_width": 2, "hidden_depth": 1},
         sizes=(40, 8, 4), total=4, densify={"grad_threshold": 2e-4, "intensity_floor": 1e300})
def test_a_config_that_builds_runs_fit_to_the_end(network, sizes, total, densify):
    # every setting is checked when the config is built, so fit refuses none
    # but the floor that depends on the frames' intensities; every drawn
    # config builds, so every example runs fit
    n_init, node_budget, k_neighbors = sizes
    cfg = FitConfig(schedule=FitSchedule(total_iters=total, **_SCHEDULE),
                    densify=DensifyConfig(**densify), network=NetworkConfig(**network),
                    n_init=n_init, node_budget=node_budget, k_neighbors=k_neighbors)
    seq, mask = toy_problem(dims=(10, 10, 10))
    assert np.count_nonzero(mask.labels) >= 40
    try:
        result = fit(seq, mask, cfg)
    except NumericalAbort:
        return
    except ValidationError as e:
        assert str(e) == "densify/prune would remove every Gaussian"
        return
    assert len(result.report.losses) == total


def _in_documented_ranges(network, n_init, node_budget, k_neighbors, densify):
    """Every network size >= 1, 1 <= k_neighbors <= node_budget <= n_init,
    grad_threshold > 0 and intensity_floor >= 0."""
    return (min(network.values()) >= 1 and 1 <= k_neighbors <= node_budget <= n_init
            and densify["grad_threshold"] > 0 and densify["intensity_floor"] >= 0)


@settings(max_examples=200, deadline=None)
@given(network=st.fixed_dictionaries({"l_space": _SIZE, "l_time": _SIZE,
                                      "hidden_width": _SIZE, "hidden_depth": _SIZE}),
       n_init=st.integers(0, 40), node_budget=st.integers(0, 40),
       k_neighbors=st.integers(-1, 8), total=st.integers(4, 6), densify=_DENSIFY)
def test_a_config_builds_exactly_when_its_settings_are_in_range(network, n_init, node_budget,
                                                                 k_neighbors, total, densify):
    try:
        FitConfig(schedule=FitSchedule(total_iters=total, **_SCHEDULE),
                  densify=DensifyConfig(**densify), network=NetworkConfig(**network),
                  n_init=n_init, node_budget=node_budget, k_neighbors=k_neighbors)
        built = True
    except ValidationError:
        built = False
    assert built == _in_documented_ranges(network, n_init, node_budget, k_neighbors, densify)


def test_fit_report_round_trip():
    seq, mask = toy_problem()
    result = fit(seq, mask, toy_config(total=70))
    assert json.loads(result.report.to_json()) == asdict(result.report)
