import json
from pathlib import Path

import numpy as np
import pytest

from gausstrack.cli import main
from gausstrack.optim import FitConfig, FitSchedule, NetworkConfig
from gausstrack.phantom import PhantomSpec
from gausstrack import volgrid


def tiny_phantom_spec(tmp_path, seed=0):
    spec = PhantomSpec(dims=(20, 20, 16), spacing=(3.0, 3.0, 3.0),
                       inner_radius_mm=9.0, outer_radius_mm=15.0,
                       support_radius_mm=24.0, plateau_margin_mm=2.0,
                       shell_height_mm=21.0, z_taper_mm=6.0,
                       rv_thickness_mm=5.0, peak_contraction=0.25,
                       frames=3, texture_seed=seed)
    path = tmp_path / f"spec_{seed}.json"
    spec.save(path)
    return path


def tiny_fit_config(tmp_path):
    cfg = FitConfig(
        schedule=FitSchedule(total_iters=40, canonical_only_until=10,
                             node_unfreeze_at=20, densify_interval=15,
                             densify_start=15),
        network=NetworkConfig(l_space=2, l_time=2, hidden_width=8, hidden_depth=2),
        n_init=48, node_budget=16, k_neighbors=4, seed=1,
    )
    path = tmp_path / "config.json"
    cfg.save(path)
    return path


def dir_bytes(root):
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_phantom_writes_sequence_and_is_deterministic(tmp_path):
    spec = tiny_phantom_spec(tmp_path)
    assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "a")]) == 0
    assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 0
    a, b = dir_bytes(tmp_path / "a"), dir_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name
    seq = volgrid.load_sequence(tmp_path / "a" / "sequence")
    assert len(seq) == 3
    labels = volgrid.load_volume(tmp_path / "a" / "ed_labels")
    assert isinstance(labels, volgrid.LabelVolume)
    manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
    assert manifest["kind"] == "gausstrack-phantom"


def test_phantom_invalid_spec_fails_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"inner_radius_mm": 30.0, "outer_radius_mm": 10.0}))
    rc = main(["phantom", "--spec", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2


def fitted_run(tmp_path):
    spec = tiny_phantom_spec(tmp_path)
    main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "ph")])
    cfg = tiny_fit_config(tmp_path)
    rc = main(["fit", "--sequence", str(tmp_path / "ph" / "sequence"),
               "--mask", str(tmp_path / "ph" / "ed_labels.vjson"),
               "--config", str(cfg), "--out", str(tmp_path / "fit")])
    assert rc == 0
    return tmp_path / "ph", tmp_path / "fit"


def test_fit_writes_artifacts_and_refuses_overwrite(tmp_path):
    ph, fit_dir = fitted_run(tmp_path)
    for name in ("gaussians.gjson", "nodes.njson", "network.wjson",
                 "report.json", "run_manifest.json", "config.json"):
        assert (fit_dir / name).exists(), name
    report = json.loads((fit_dir / "report.json").read_text())
    assert len(report["losses"]) == 40
    # non-empty output dir without --overwrite is refused before compute
    rc = main(["fit", "--sequence", str(ph / "sequence"),
               "--mask", str(ph / "ed_labels.vjson"),
               "--config", str(tmp_path / "config.json"),
               "--out", str(fit_dir)])
    assert rc == 2


def test_fit_missing_frame_fails_before_optimizing(tmp_path):
    spec = tiny_phantom_spec(tmp_path)
    main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "ph")])
    (tmp_path / "ph" / "sequence" / "frame_001.raw").unlink()
    cfg = tiny_fit_config(tmp_path)
    rc = main(["fit", "--sequence", str(tmp_path / "ph" / "sequence"),
               "--mask", str(tmp_path / "ph" / "ed_labels.vjson"),
               "--config", str(cfg), "--out", str(tmp_path / "fit")])
    assert rc == 2
    assert not (tmp_path / "fit" / "report.json").exists()


def test_fit_rejects_unknown_config_keys(tmp_path):
    spec = tiny_phantom_spec(tmp_path)
    main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "ph")])
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"n_init": 48, "learning_rate": 1.0}))
    rc = main(["fit", "--sequence", str(tmp_path / "ph" / "sequence"),
               "--mask", str(tmp_path / "ph" / "ed_labels.vjson"),
               "--config", str(bad_cfg), "--out", str(tmp_path / "fit")])
    assert rc == 2


def test_eval_writes_metric_report(tmp_path):
    ph, fit_dir = fitted_run(tmp_path)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--fitted", str(fit_dir), "--sequence", str(ph / "sequence"),
               "--truth", str(ph / "ed_labels.vjson"), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    for key in ("dice_rv", "dice_lv", "dice_myo", "dice_avg", "psnr_db",
                "ssim", "hd_mm", "jac_dev", "fold_fraction"):
        assert key in report


def test_eval_mismatched_mask_dims(tmp_path):
    ph, fit_dir = fitted_run(tmp_path)
    small = volgrid.LabelVolume((8, 8, 8), (3, 3, 3),
                                np.zeros((8, 8, 8), dtype=np.uint8))
    volgrid.save_volume(small, tmp_path / "small")
    rc = main(["eval", "--fitted", str(fit_dir), "--sequence", str(ph / "sequence"),
               "--truth", str(tmp_path / "small.vjson"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_render_and_export_field(tmp_path):
    ph, fit_dir = fitted_run(tmp_path)
    rc = main(["render", "--fitted", str(fit_dir), "--time", "0.5",
               "--out", str(tmp_path / "r_es")])
    assert rc == 0
    vol = volgrid.load_volume(tmp_path / "r_es")
    assert vol.dims == (20, 20, 16)
    rc = main(["export-field", "--fitted", str(fit_dir), "--time", "0.5",
               "--out", str(tmp_path / "field" / "u_es")])
    assert rc == 0
    index = json.loads((tmp_path / "field" / "u_es.json").read_text())
    comps = [volgrid.load_volume(tmp_path / "field" / index["components"][c])
             for c in ("ux", "uy", "uz")]
    assert all(c.dims == (20, 20, 16) for c in comps)
    # lossless round trip through the container
    volgrid.save_volume(comps[0], tmp_path / "field" / "again")
    assert (tmp_path / "field" / "u_es_ux.raw").read_bytes() == \
        (tmp_path / "field" / "again.raw").read_bytes()


def untrained_state_dir(tmp_path):
    """Hand-built fit directory holding an identity (zero-head) state."""
    from gausstrack import gauss as gauss_mod
    from gausstrack import motion as motion_mod

    rng = np.random.default_rng(3)
    g = gauss_mod.GaussianSet(
        0.3 + 0.4 * rng.random((12, 3)),
        np.tile([1.0, 0, 0, 0], (12, 1)),
        np.log(0.08) * np.ones((12, 3)),
        rng.uniform(0.2, 0.9, 12),
        rng.integers(1, 4, 12).astype(np.uint8))
    nodes = motion_mod.init_control_nodes(g.centers, 6, seed=0)
    net = motion_mod.DeformNet.create(l_space=2, l_time=2, hidden_width=8,
                                      hidden_depth=2, seed=0)
    out = tmp_path / "untrained"
    out.mkdir()
    gauss_mod.save_gaussians(g, out / "gaussians")
    motion_mod.save_nodes(nodes, out / "nodes")
    motion_mod.save_network(net, out / "network")
    manifest = {
        "kind": "gausstrack-fit",
        "artifacts": {"gaussians": "gaussians.gjson", "nodes": "nodes.njson",
                      "network": "network.wjson"},
        "grid": {"dims": [10, 10, 10], "spacing": [2.0, 2.0, 2.0]},
        "k_neighbors": 4, "cutoff_multiplier": 3.0, "occupancy_floor": 0.5,
    }
    (out / "run_manifest.json").write_text(json.dumps(manifest))
    return out


def test_untrained_render_matches_canonical_and_field_is_zero(tmp_path):
    from gausstrack import gauss as gauss_mod

    state = untrained_state_dir(tmp_path)
    rc = main(["render", "--fitted", str(state), "--time", "0.0",
               "--out", str(tmp_path / "r0")])
    assert rc == 0
    rendered = volgrid.load_volume(tmp_path / "r0")
    g = gauss_mod.load_gaussians(state / "gaussians")
    canonical = gauss_mod.render_values(g, (10, 10, 10), 3.0)
    # zero-initialized head: the deformed render IS the canonical render
    assert np.array_equal(rendered.values, canonical.astype(np.float32))
    rc = main(["export-field", "--fitted", str(state), "--time", "0.0",
               "--out", str(tmp_path / "f0" / "u0")])
    assert rc == 0
    for comp in ("ux", "uy", "uz"):
        vol = volgrid.load_volume(tmp_path / "f0" / f"u0_{comp}")
        assert np.all(vol.values == 0.0)


# --- error contract: every bad input exits 2 (validation) or 4 (I/O) with one
# line on stderr, and makes no output directory -----------------------------------

def _damage_state(state, what):
    """Break one file of a fit directory the way ``what`` names."""
    if what == "truncated gaussians.raw":
        raw = state / "gaussians.raw"
        raw.write_bytes(raw.read_bytes()[:-5])
    elif what == "nodes.njson without count":
        manifest = json.loads((state / "nodes.njson").read_text())
        del manifest["count"]
        (state / "nodes.njson").write_text(json.dumps(manifest))
    elif what == "malformed network.wjson":
        (state / "network.wjson").write_text('{"l_space": 2,')
    elif what == "nan in nodes.raw":
        raw = state / "nodes.raw"
        raw.write_bytes(np.array([np.nan], dtype="<f4").tobytes() + raw.read_bytes()[4:])
    elif what == "missing nodes.raw":
        (state / "nodes.raw").unlink()
    else:
        manifest = json.loads((state / "run_manifest.json").read_text())
        if what == "malformed run_manifest.json":
            text = json.dumps(manifest)[:-1]
        elif what.startswith("run manifest without "):
            del manifest[what.rsplit(" ", 1)[1]]
            text = json.dumps(manifest)
        elif what == "run manifest with a bad grid":
            manifest["grid"] = {"dims": [10, 10], "spacing": [2.0, 2.0, 2.0]}
            text = json.dumps(manifest)
        elif what == "run manifest with a string k_neighbors":
            manifest["k_neighbors"] = "4"
            text = json.dumps(manifest)
        (state / "run_manifest.json").write_text(text)


STATE_DAMAGE = ["truncated gaussians.raw", "nodes.njson without count",
                "malformed network.wjson", "nan in nodes.raw", "missing nodes.raw",
                "malformed run_manifest.json", "run manifest without kind",
                "run manifest without artifacts", "run manifest without grid",
                "run manifest with a bad grid", "run manifest with a string k_neighbors"]


def _one_line_failure(capsys, argv, code=2):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == code, err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("what", STATE_DAMAGE)
@pytest.mark.parametrize("command", ["render", "export-field"])
def test_damaged_fit_directory_exits_2(tmp_path, capsys, what, command):
    state = untrained_state_dir(tmp_path)
    _damage_state(state, what)
    _one_line_failure(capsys, [command, "--fitted", str(state), "--time", "0.5",
                               "--out", str(tmp_path / "out" / "q")])
    assert not (tmp_path / "out").exists()


def test_missing_artifact_manifest_exits_4(tmp_path, capsys):
    state = untrained_state_dir(tmp_path)
    (state / "gaussians.gjson").unlink()
    _one_line_failure(capsys, ["render", "--fitted", str(state), "--time", "0.5",
                               "--out", str(tmp_path / "out" / "q")], code=4)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("time", ["nan", "inf", "-0.1", "1.5"])
@pytest.mark.parametrize("command", ["render", "export-field"])
def test_time_outside_unit_interval_exits_2(tmp_path, capsys, time, command):
    state = untrained_state_dir(tmp_path)
    err = _one_line_failure(capsys, [command, "--fitted", str(state), "--time", time,
                                     "--out", str(tmp_path / "out" / "q")])
    assert "--time" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    {"n_init": "many"},
    {"n_init": 48.0},
    {"seed": True},
    {"cutoff_multiplier": "3"},
    {"schedule": {"total_iters": "40"}},
    {"schedule": 40},
    {"densify": {"grad_threshold": None}},
    {"network": {"hidden_width": 8.5}},
    {"learning_rates": {"network": "fast"}},
    {"learning_rates": {"everything": 1e-3}},
    {"workers": 2},
    {"deterministic": False},
])
def test_bad_config_exits_2_before_making_the_output_dir(tmp_path, capsys, config):
    ph = tmp_path / "ph"
    main(["phantom", "--spec", str(tiny_phantom_spec(tmp_path)), "--out", str(ph)])
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(config))
    _one_line_failure(capsys, ["fit", "--sequence", str(ph / "sequence"),
                               "--mask", str(ph / "ed_labels.vjson"),
                               "--config", str(bad_cfg), "--out", str(tmp_path / "fitbad")])
    assert not (tmp_path / "fitbad").exists()


@pytest.mark.parametrize("what", ["missing frame raw", "malformed sequence.vjson",
                                  "frame names not strings", "malformed config"])
def test_bad_fit_input_exits_2(tmp_path, capsys, what):
    ph = tmp_path / "ph"
    main(["phantom", "--spec", str(tiny_phantom_spec(tmp_path)), "--out", str(ph)])
    cfg = tiny_fit_config(tmp_path)
    index = ph / "sequence" / "sequence.vjson"
    if what == "missing frame raw":
        (ph / "sequence" / "frame_001.raw").unlink()
    elif what == "malformed sequence.vjson":
        index.write_text(index.read_text()[:-3])
    elif what == "frame names not strings":
        index.write_text(json.dumps({**json.loads(index.read_text()), "frames": [0, 1, 2]}))
    else:
        cfg.write_text(cfg.read_text()[:-1])
    _one_line_failure(capsys, ["fit", "--sequence", str(ph / "sequence"),
                               "--mask", str(ph / "ed_labels.vjson"),
                               "--config", str(cfg), "--out", str(tmp_path / "fit")])
    assert not (tmp_path / "fit").exists()


def test_bad_phantom_spec_exits_2(tmp_path, capsys):
    for spec in ('{"frames": "eight"}', '{"dims": [64, 64]', '{"dims": "big"}'):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        _one_line_failure(capsys, ["phantom", "--spec", str(path),
                                   "--out", str(tmp_path / "ph")])
        assert not (tmp_path / "ph").exists()


def test_removed_fit_flags_are_unknown(tmp_path, capsys):
    for flag in (["--workers", "2"], ["--non-deterministic"]):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--sequence", "s", "--mask", "m", "--out", "o"] + flag)
        assert exc.value.code == 2
    capsys.readouterr()
