import contextlib
import io
import json
import shutil
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstrack.cli import main
from gausstrack.errors import NumericalAbort
from gausstrack.optim import FitConfig, fit
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


# a 40-iteration fit on the tiny phantom
TINY_FIT = {"schedule": {"total_iters": 40, "canonical_only_until": 10,
                         "node_unfreeze_at": 20, "densify_interval": 15, "densify_start": 15},
            "network": {"l_space": 2, "l_time": 2, "hidden_width": 8, "hidden_depth": 2},
            "n_init": 48, "node_budget": 16, "k_neighbors": 4}


def tiny_fit_config(tmp_path):
    path = tmp_path / "config.json"
    FitConfig.from_dict(dict(TINY_FIT, seed=1)).save(path)
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


def test_eval_creates_the_missing_parent_of_its_output(tmp_path):
    # as render and export-field do; it used to exit 4 after the evaluation
    ph, fit_dir = fitted_run(tmp_path)
    out = tmp_path / "new" / "es" / "metrics.json"
    rc = main(["eval", "--fitted", str(fit_dir), "--sequence", str(ph / "sequence"),
               "--truth", str(ph / "ed_labels.vjson"), "--out", str(out)])
    assert rc == 0
    assert "dice_avg" in json.loads(out.read_text())


def test_eval_scores_the_phantom_without_an_rv(tmp_path):
    # rv_thickness_mm <= 0 leaves no RV voxel in the truth or the warped
    # labels: Dice scores the RV 1.0 and Hausdorff 0.0, and eval exits 0
    spec = tmp_path / "no_rv.json"
    replace(PhantomSpec.load(tiny_phantom_spec(tmp_path)), rv_thickness_mm=-10.0).save(spec)
    assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "ph")]) == 0
    truth = str(tmp_path / "ph" / "ed_labels.vjson")
    assert not np.any(volgrid.load_volume(truth).labels == volgrid.LABEL_RV)
    assert main(["fit", "--sequence", str(tmp_path / "ph" / "sequence"), "--mask", truth,
                 "--config", str(tiny_fit_config(tmp_path)), "--out", str(tmp_path / "fit")]) == 0
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--fitted", str(tmp_path / "fit"), "--sequence",
               str(tmp_path / "ph" / "sequence"), "--truth", truth, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["dice_rv"] == 1.0 and np.isfinite(report["hd_mm"])


def test_eval_mismatched_mask_dims(tmp_path, capsys):
    ph, fit_dir = fitted_run(tmp_path)
    small = volgrid.LabelVolume((8, 8, 8), (3, 3, 3),
                                np.zeros((8, 8, 8), dtype=np.uint8))
    volgrid.save_volume(small, tmp_path / "small")
    # an f32 truth on the right grid is refused too
    volgrid.save_volume(volgrid.load_sequence(ph / "sequence").frames[0], tmp_path / "f32")
    capsys.readouterr()
    for truth, want in (("small", "truth dims (8, 8, 8) != sequence dims (20, 20, 16)"),
                        ("f32", "truth mask must be a u8 label volume")):
        err = _one_line_failure(capsys, [
            "eval", "--fitted", str(fit_dir), "--sequence", str(ph / "sequence"),
            "--truth", str(tmp_path / f"{truth}.vjson"), "--out", str(tmp_path / "m.json")])
        assert want in err
        assert not (tmp_path / "m.json").exists()


def test_fit_dir_states_each_fact_once(tmp_path):
    _, fit_dir = fitted_run(tmp_path)
    manifest = json.loads((fit_dir / "run_manifest.json").read_text())
    assert sorted(manifest) == ["artifacts", "grid", "kind"]
    report = json.loads((fit_dir / "report.json").read_text())
    assert sorted(report) == ["events", "final_gaussians", "losses", "wall_clock_s"]
    assert FitConfig.load(fit_dir / manifest["artifacts"]["config"]) == \
        FitConfig.load(tmp_path / "config.json")


def test_queries_take_their_settings_from_the_run_config(tmp_path):
    from gausstrack import motion as motion_mod

    _, fit_dir = fitted_run(tmp_path)
    config = json.loads((fit_dir / "config.json").read_text())
    (fit_dir / "config.json").write_text(json.dumps(dict(config, k_neighbors=2)))
    assert main(["export-field", "--fitted", str(fit_dir), "--time", "0.5",
                 "--out", str(tmp_path / "u")]) == 0
    exported = np.stack([volgrid.load_volume(tmp_path / f"u_{c}").values
                         for c in ("ux", "uy", "uz")], axis=-1).reshape(-1, 3)
    nodes = motion_mod.load_nodes(fit_dir / "nodes")
    net = motion_mod.load_network(fit_dir / "network")
    queries = volgrid.voxel_centers_normalized((20, 20, 16)).reshape(-1, 3)
    for k, same in ((2, True), (4, False)):
        u = motion_mod.dense_displacement(queries, nodes, net, 0.5, k).astype(np.float32)
        assert np.array_equal(exported, u) == same, k


def test_render_and_export_field(tmp_path):
    from gausstrack import motion as motion_mod

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
    # each component is the trained field at the voxel centers, element for element
    u = motion_mod.dense_displacement(
        volgrid.voxel_centers_normalized((20, 20, 16)).reshape(-1, 3),
        motion_mod.load_nodes(fit_dir / "nodes"), motion_mod.load_network(fit_dir / "network"),
        0.5, TINY_FIT["k_neighbors"]).astype(np.float32)
    assert np.any(u != 0.0)
    for i, comp in enumerate(comps):
        assert np.array_equal(comp.values, u[:, i].reshape(20, 20, 16))
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
    FitConfig(k_neighbors=4, cutoff_multiplier=3.0, occupancy_floor=0.5).save(
        out / "config.json")
    manifest = {
        "kind": "gausstrack-fit",
        "artifacts": {"gaussians": "gaussians.gjson", "nodes": "nodes.njson",
                      "network": "network.wjson", "config": "config.json"},
        "grid": {"dims": [10, 10, 10], "spacing": [2.0, 2.0, 2.0]},
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
    assert rendered.dims == (10, 10, 10) and rendered.spacing == (2.0, 2.0, 2.0)
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
    elif what == "config.json with a string k_neighbors":
        config = json.loads((state / "config.json").read_text())
        config["k_neighbors"] = "4"
        (state / "config.json").write_text(json.dumps(config))
    elif what == "malformed config.json":
        (state / "config.json").write_text('{"n_init": 48,')
    elif what == "no run_manifest.json":
        (state / "run_manifest.json").unlink()
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
        elif what == "run manifest with a fractional grid":
            manifest["grid"] = {"dims": [10.5, 10, 10], "spacing": [2.0, 2.0, 2.0]}
            text = json.dumps(manifest)
        elif what == "run manifest with a grid past numpy's array size limit":
            # more voxels than a float64 (n, 3) field holds in sys.maxsize bytes
            manifest["grid"] = {"dims": [3e9, 3e9, 8], "spacing": [2.0, 2.0, 2.0]}
            text = json.dumps(manifest)
        (state / "run_manifest.json").write_text(text)


STATE_DAMAGE = ["truncated gaussians.raw", "nodes.njson without count",
                "malformed network.wjson", "nan in nodes.raw", "missing nodes.raw",
                "malformed run_manifest.json", "run manifest without kind",
                "run manifest without artifacts", "run manifest without grid",
                "run manifest with a bad grid", "run manifest with a fractional grid",
                "run manifest with a grid past numpy's array size limit",
                "config.json with a string k_neighbors", "malformed config.json",
                "no run_manifest.json"]


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


@pytest.mark.parametrize("command", ["export-field", "eval"])
def test_collapsed_node_radii_exit_2_with_one_line_and_no_warning(
        tmp_path, capsys, monkeypatch, command):
    # four nodes of zero radius at the far corner, while every Gaussian keeps
    # a live neighbour: the weights of the voxels there are 0/0, computed in
    # the second of two slices, on whichever thread takes it
    from gausstrack import motion as motion_mod

    monkeypatch.setattr(motion_mod, "_pool_size", lambda: 2)
    state = untrained_state_dir(tmp_path)
    nodes = motion_mod.load_nodes(state / "nodes")
    motion_mod.save_nodes(motion_mod.ControlNodeSet(
        np.concatenate([nodes.positions, np.ones((4, 3))]),
        np.concatenate([nodes.log_radii, np.full(4, -1e30)])), state / "nodes")
    manifest = json.loads((state / "run_manifest.json").read_text())
    manifest["grid"]["dims"] = [20, 20, 16]  # the phantom's: 6400 voxels
    (state / "run_manifest.json").write_text(json.dumps(manifest))
    main(["phantom", "--spec", str(tiny_phantom_spec(tmp_path)), "--out", str(tmp_path / "ph")])
    capsys.readouterr()
    if command == "eval":
        argv = ["eval", "--fitted", str(state), "--sequence", str(tmp_path / "ph" / "sequence"),
                "--truth", str(tmp_path / "ph" / "ed_labels.vjson"),
                "--out", str(tmp_path / "out.json")]
    else:
        argv = ["export-field", "--fitted", str(state), "--time", "0.5",
                "--out", str(tmp_path / "out" / "u")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _one_line_failure(capsys, argv)
    assert "non-finite" in err
    assert "RuntimeWarning" not in err
    assert not any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_eval_with_every_node_radius_collapsed_exits_3_on_the_deformed_set(
        tmp_path, capsys, monkeypatch):
    # the deformed set's blended transforms fail first (exit 3), ahead of the
    # field's non-finite voxels (exit 2), for any number of CPUs
    from gausstrack import motion as motion_mod

    state = untrained_state_dir(tmp_path)
    nodes = motion_mod.load_nodes(state / "nodes")
    motion_mod.save_nodes(motion_mod.ControlNodeSet(
        nodes.positions, np.full(nodes.count, -1e30)), state / "nodes")
    manifest = json.loads((state / "run_manifest.json").read_text())
    manifest["grid"]["dims"] = [20, 20, 16]
    (state / "run_manifest.json").write_text(json.dumps(manifest))
    main(["phantom", "--spec", str(tiny_phantom_spec(tmp_path)), "--out", str(tmp_path / "ph")])
    capsys.readouterr()
    for pool in (1, 2, 3):
        monkeypatch.setattr(motion_mod, "_pool_size", lambda: pool)
        err = _one_line_failure(capsys, [
            "eval", "--fitted", str(state), "--sequence", str(tmp_path / "ph" / "sequence"),
            "--truth", str(tmp_path / "ph" / "ed_labels.vjson"),
            "--out", str(tmp_path / "out.json")], code=3)
        assert "blended node transforms must stay finite" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["export-field", "eval"])
def test_an_infinite_node_exits_3_before_the_network_runs(tmp_path, capsys, monkeypatch,
                                                          command):
    # the node container refuses non-finite payloads, so the loaded set is
    # changed in memory
    from gausstrack import motion as motion_mod

    state = untrained_state_dir(tmp_path)
    manifest = json.loads((state / "run_manifest.json").read_text())
    manifest["grid"]["dims"] = [20, 20, 16]
    (state / "run_manifest.json").write_text(json.dumps(manifest))
    main(["phantom", "--spec", str(tiny_phantom_spec(tmp_path)), "--out", str(tmp_path / "ph")])
    capsys.readouterr()
    load_nodes = motion_mod.load_nodes

    def load_with_an_infinite_node(path):
        nodes = load_nodes(path)
        nodes.positions[0, 0] = np.inf
        return nodes

    monkeypatch.setattr(motion_mod, "load_nodes", load_with_an_infinite_node)
    if command == "eval":
        argv = ["eval", "--fitted", str(state), "--sequence", str(tmp_path / "ph" / "sequence"),
                "--truth", str(tmp_path / "ph" / "ed_labels.vjson"),
                "--out", str(tmp_path / "out" / "metrics.json")]
    else:
        argv = ["export-field", "--fitted", str(state), "--time", "0.5",
                "--out", str(tmp_path / "out" / "u")]
    err = _one_line_failure(capsys, argv, code=3)
    assert "node positions must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("absolute", [False, True])
@pytest.mark.parametrize("key,files", [
    ("config", ["config.json"]), ("gaussians", ["gaussians.gjson", "gaussians.raw"]),
    ("nodes", ["nodes.njson", "nodes.raw"]), ("network", ["network.wjson", "network.raw"])])
def test_artifact_name_outside_the_fit_directory_exits_2(tmp_path, capsys, key, files,
                                                        absolute):
    # a whole copy of the artifact lies in a sibling directory
    state = untrained_state_dir(tmp_path)
    (tmp_path / "other").mkdir()
    for name in files:
        (tmp_path / "other" / name).write_bytes((state / name).read_bytes())
    manifest = json.loads((state / "run_manifest.json").read_text())
    manifest["artifacts"][key] = str(tmp_path / "other" / files[0]) if absolute \
        else f"../other/{files[0]}"
    (state / "run_manifest.json").write_text(json.dumps(manifest))
    err = _one_line_failure(capsys, ["render", "--fitted", str(state), "--time", "0.5",
                                     "--out", str(tmp_path / "out" / "q")])
    assert f"'{key}' must be path inside the directory" in err
    assert not (tmp_path / "out").exists()


def test_missing_artifact_manifest_exits_4(tmp_path, capsys):
    state = untrained_state_dir(tmp_path)
    (state / "gaussians.gjson").unlink()
    _one_line_failure(capsys, ["render", "--fitted", str(state), "--time", "0.5",
                               "--out", str(tmp_path / "out" / "q")], code=4)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["render", "export-field"])
def test_missing_config_exits_4(tmp_path, capsys, command):
    state = untrained_state_dir(tmp_path)
    (state / "config.json").unlink()
    _one_line_failure(capsys, [command, "--fitted", str(state), "--time", "0.5",
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


# each fuzzed manifest under the case root and the command that reads it:
# the fit directory's four containers, run manifest and config, the sequence
# and the run config given to fit; render reads no volume, so the label
# volume is eval's --truth
CONTAINERS = {"untrained/gaussians.gjson": "render", "untrained/nodes.njson": "render",
              "untrained/network.wjson": "render", "untrained/run_manifest.json": "render",
              "untrained/config.json": "render", "untrained/truth.vjson": "eval",
              "sequence/sequence.vjson": "fit", "config.json": "fit"}
# a run config given to fit may leave any key out, which then takes its
# default, so its keys are mistyped and never dropped; a fit directory's
# config is whole, as fit wrote it
DEFAULTED = {"config.json"}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def query_inputs(tmp_path_factory):
    """An untrained fit directory holding truth labels of every class on its
    grid, beside a two-frame sequence on the same grid and a mask and config
    on which ``fit`` runs that sequence to the end: unchanged, each reading
    command exits 0."""
    root = tmp_path_factory.mktemp("query_inputs")
    state = untrained_state_dir(root)
    dims, spacing = (10, 10, 10), (2.0, 2.0, 2.0)
    frame = volgrid.VoxelVolume(dims, spacing, np.full(dims, 0.5))
    volgrid.save_sequence(volgrid.Sequence4D([frame, frame], [0.0, 0.5], 0, 1),
                          root / "sequence")
    slabs = np.repeat(np.array([1, 1, 1, 2, 2, 2, 2, 3, 3, 3], dtype=np.uint8), 100)
    volgrid.save_volume(volgrid.LabelVolume(dims, spacing, slabs.reshape(dims)), state / "truth")
    mask = np.zeros(dims, dtype=np.uint8)
    mask[2:8, 2:8, 2:8] = 2
    volgrid.save_volume(volgrid.LabelVolume(dims, spacing, mask), root / "mask")
    tiny_fit_config(root)
    return root


def fuzz_argv(case, name):
    state, out = case / "untrained", case / "out"
    argv = {"render": ["render", "--fitted", state, "--time", "0.5", "--out", out],
            "eval": ["eval", "--fitted", state, "--sequence", case / "sequence",
                     "--truth", case / name, "--out", out],
            "fit": ["fit", "--sequence", case / "sequence", "--mask", case / "mask.vjson",
                    "--config", case / "config.json", "--out", out]}[CONTAINERS[name]]
    return [str(a) for a in argv]


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_each_fuzzed_manifest_is_read_by_a_command_that_runs_on_the_inputs(
        query_inputs, tmp_path, name):
    # so a fault the reader misses shows as an exit 0 in the fuzz below
    case = tmp_path / "case"
    shutil.copytree(query_inputs, case)
    assert main(fuzz_argv(case, name)) == 0
    assert list(case.glob("out*"))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_dropped_or_mistyped_container_key_exits_2_or_4(query_inputs, tmp_path_factory, data):
    case = tmp_path_factory.mktemp("case")
    shutil.copytree(query_inputs, case, dirs_exist_ok=True)
    name = data.draw(st.sampled_from(sorted(CONTAINERS)), "manifest")
    manifest = json.loads((case / name).read_text())
    key = data.draw(st.sampled_from(sorted(manifest)), "key")
    if name not in DEFAULTED and data.draw(st.booleans(), "drop"):
        del manifest[key]
    else:
        # an integer is a number too where a float is
        kinds = (int, float) if type(manifest[key]) is float else (type(manifest[key]),)
        manifest[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) not in kinds), "value")
    (case / name).write_text(json.dumps(manifest))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(fuzz_argv(case, name))
    assert rc in (2, 4), err.getvalue()
    assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    assert not list(case.glob("out*"))


@pytest.mark.parametrize("name", ["phantom spec"] + sorted(CONTAINERS))
def test_json_nested_too_deep_to_parse_exits_2(query_inputs, tmp_path, capsys, name):
    # valid JSON 100,000 arrays deep, past the parser's recursion limit
    case = tmp_path / "case"
    shutil.copytree(query_inputs, case)
    deep = "[" * 100_000 + "]" * 100_000
    if name == "phantom spec":
        (case / "spec.json").write_text(deep)
        argv = ["phantom", "--spec", str(case / "spec.json"), "--out", str(case / "out")]
    else:
        (case / name).write_text(deep)
        argv = fuzz_argv(case, name)
    assert "malformed" in _one_line_failure(capsys, argv)
    assert not list(case.glob("out*"))


def test_a_grid_within_numpys_limit_but_too_large_for_memory_names_its_array(tmp_path, capsys):
    # 10^15 voxels pass the array size check; their allocation fails at once
    (tmp_path / "spec.json").write_text('{"dims": [100000, 100000, 100000]}')
    err = _one_line_failure(capsys, ["phantom", "--spec", str(tmp_path / "spec.json"),
                                     "--out", str(tmp_path / "out")])
    assert "Unable to allocate" in err and not (tmp_path / "out").exists()


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
    # settings that are constants now, at their old defaults on the tiny fit
    # (which runs when they are accepted): the config of an older run
    dict(TINY_FIT, schedule=dict(TINY_FIT["schedule"], lr_decay_end=1e-7)),
    dict(TINY_FIT, densify={"split_factor": 1.6}),
    dict(TINY_FIT, densify={"size_threshold": 0.01}),
    # out of range, on the tiny fit so that a value the checks miss ends the
    # test quickly: each ran into a traceback, a late abort or an empty render
    dict(TINY_FIT, learning_rates={"positions": 0.0}),
    dict(TINY_FIT, learning_rates={"nodes": -1e-4}),
    dict(TINY_FIT, learning_rates={"network": 10 ** 400}),
    dict(TINY_FIT, network=dict(TINY_FIT["network"], hidden_width=0)),
    dict(TINY_FIT, seed=-1),
    dict(TINY_FIT, node_budget=-1),
    dict(TINY_FIT, n_init=-3, node_budget=-5),
    dict(TINY_FIT, cutoff_multiplier=0.0),
    dict(TINY_FIT, cutoff_multiplier=-3.0),
    dict(TINY_FIT, cutoff_multiplier=10 ** 400),
    dict(TINY_FIT, occupancy_floor=0.0),
    dict(TINY_FIT, occupancy_floor=-1.0),
    dict(TINY_FIT, occupancy_floor=1.0),
    dict(TINY_FIT, occupancy_floor=2.0),
    # network and neighbour settings fit used to check only when it first
    # used them: a traceback (exit 1), or an exit 2 after stage 1
    dict(TINY_FIT, network=dict(TINY_FIT["network"], l_space=0, l_time=0)),
    dict(TINY_FIT, network=dict(TINY_FIT["network"], l_space=0, l_time=-1)),
    dict(TINY_FIT, network=dict(TINY_FIT["network"], l_space=0)),
    dict(TINY_FIT, network=dict(TINY_FIT["network"], hidden_depth=0)),
    dict(TINY_FIT, k_neighbors=0),
    dict(TINY_FIT, k_neighbors=17, node_budget=16),
    dict(TINY_FIT, node_budget=49, n_init=48),
    # densify thresholds out of range (a grad_threshold <= 0 clones or splits
    # every live Gaussian at each event)
    dict(TINY_FIT, densify={"grad_threshold": -1.0}),
    dict(TINY_FIT, densify={"grad_threshold": 0.0}),
    dict(TINY_FIT, densify={"intensity_floor": -1e-3}),
])
def test_bad_config_exits_2_before_making_the_output_dir(tmp_path, capsys, monkeypatch,
                                                         config):
    def refused_fit(*args, **kwargs):
        pytest.fail("a refused config reached optim.fit")

    monkeypatch.setattr("gausstrack.optim.fit", refused_fit)
    ph = tmp_path / "ph"
    main(["phantom", "--spec", str(tiny_phantom_spec(tmp_path)), "--out", str(ph)])
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(config))
    _one_line_failure(capsys, ["fit", "--sequence", str(ph / "sequence"),
                               "--mask", str(ph / "ed_labels.vjson"),
                               "--config", str(bad_cfg), "--out", str(tmp_path / "fitbad")])
    assert not (tmp_path / "fitbad").exists()


# the part of the one stderr line that names the fault, where a test checks it
FIT_INPUT_FAULTS = {
    "missing frame raw": "", "malformed sequence.vjson": "", "frame names not strings": "",
    "malformed config": "", "fractional mask dims": "", "time beyond the float range": "",
    "mask from another grid": "mask dims (8, 8, 8) do not match sequence dims (20, 20, 16)",
    "f32 mask": "mask must be a u8 label volume",
    "no sequence.vjson": "no sequence.vjson found",
    "u8 frame": "frame_001.vjson: sequence frames must be f32le volumes",
    "zero mask dim": "dims components must be >= 1",
    "no frames": "sequence must contain at least one frame",
    "frames of two geometries": "frame 1 geometry differs from frame 0",
    "fewer times than frames": "one normalized time per frame required",
    "es index past the frames": "ed/es indices out of range",
    "ed frame not at time 0": "canonical fitting expects time 0 at the ED frame",
}


@pytest.mark.parametrize("what", list(FIT_INPUT_FAULTS))
def test_bad_fit_input_exits_2(tmp_path, capsys, what):
    ph = tmp_path / "ph"
    main(["phantom", "--spec", str(tiny_phantom_spec(tmp_path)), "--out", str(ph)])
    cfg = tiny_fit_config(tmp_path)
    index = ph / "sequence" / "sequence.vjson"
    seq_index = json.loads(index.read_text())
    index_with = {"frame names not strings": {"frames": [0, 1, 2]}, "no frames": {"frames": []},
                  "time beyond the float range": {"times": [0, 0.5, 10 ** 400]},
                  "fewer times than frames": {"times": [0, 0.5]},
                  "es index past the frames": {"es_index": 3},
                  "ed frame not at time 0": {"times": [0.25, 0.5, 1.0]}}
    if what in index_with:
        index.write_text(json.dumps({**seq_index, **index_with[what]}))
    elif what == "zero mask dim":
        mask = ph / "ed_labels.vjson"
        mask.write_text(json.dumps({**json.loads(mask.read_text()), "dims": [0, 20, 16]}))
    elif what == "frames of two geometries":
        volgrid.save_volume(volgrid.VoxelVolume((20, 20, 16), (2.0, 3.0, 3.0),
                                                np.zeros((20, 20, 16))),
                            ph / "sequence" / "frame_001")
    elif what == "missing frame raw":
        (ph / "sequence" / "frame_001.raw").unlink()
    elif what == "malformed sequence.vjson":
        index.write_text(index.read_text()[:-3])
    elif what == "fractional mask dims":
        mask = ph / "ed_labels.vjson"
        mask.write_text(json.dumps({**json.loads(mask.read_text()), "dims": [20.5, 20, 16]}))
    elif what == "mask from another grid":
        volgrid.save_volume(volgrid.LabelVolume((8, 8, 8), (3, 3, 3),
                                                np.zeros((8, 8, 8), dtype=np.uint8)),
                            ph / "ed_labels")
    elif what == "f32 mask":
        volgrid.save_volume(volgrid.load_sequence(ph / "sequence").frames[0], ph / "ed_labels")
    elif what == "no sequence.vjson":
        index.unlink()
    elif what == "u8 frame":
        labels = volgrid.load_volume(ph / "ed_labels")
        volgrid.save_volume(labels, ph / "sequence" / "frame_001")
    else:
        cfg.write_text(cfg.read_text()[:-1])
    err = _one_line_failure(capsys, ["fit", "--sequence", str(ph / "sequence"),
                                     "--mask", str(ph / "ed_labels.vjson"),
                                     "--config", str(cfg), "--out", str(tmp_path / "fit")])
    assert not (tmp_path / "fit").exists()
    assert FIT_INPUT_FAULTS[what] in err


def test_bad_phantom_spec_exits_2(tmp_path, capsys):
    huge = "1" + "0" * 400  # an integer beyond the float range
    for spec in ('{"frames": "eight"}', '{"dims": [64, 64]', '{"dims": "big"}',
                 '{"dims": [64.5, 64, 64]}', '{"texture_seed": -1}',
                 '{"rv_angle_deg": [100.0, 180.0, 260.0]}',
                 # no labels at all, then an RV that is empty or clipped
                 '{"shell_height_mm": 0}', '{"shell_height_mm": -5}',
                 '{"rv_angle_deg": [300, 10]}', '{"rv_angle_deg": [-60, 40]}',
                 '{"rv_angle_deg": [100, 500]}', '{"z_taper_mm": -1}',
                 '{"peak_contraction": %s}' % huge, '{"spacing": [3, 3, %s]}' % huge,
                 # a plateau margin of 0, no room for the outer ramp, a peak
                 # contraction of 1 and a grid of 7 voxels on one axis
                 '{"plateau_margin_mm": 0}', '{"support_radius_mm": 21.0}',
                 '{"peak_contraction": 1.0}', '{"dims": [7, 64, 64]}',
                 # radii whose squares overflow a float
                 '{"inner_radius_mm": 1e200, "outer_radius_mm": 2e200,'
                 ' "support_radius_mm": 4e200}',
                 # a 909 TiB grid: malloc refuses it at once (a grid of a few
                 # GiB could be overcommitted and then run out of memory)
                 '{"dims": [100000, 100000, 100000]}',
                 # grids past numpy's array size limit, which it refused with
                 # a ValueError, not a MemoryError
                 '{"dims": [3e9, 3e9, 8]}', '{"dims": [1e30, 8, 8]}'):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        _one_line_failure(capsys, ["phantom", "--spec", str(path),
                                   "--out", str(tmp_path / "ph")])
        assert not (tmp_path / "ph").exists()


def test_phantom_overwrite_replaces_the_sequence_and_keeps_foreign_files(tmp_path):
    three = tiny_phantom_spec(tmp_path)
    replace(PhantomSpec.load(three), frames=2).save(tmp_path / "two.json")
    assert main(["phantom", "--spec", str(tmp_path / "two.json"),
                 "--out", str(tmp_path / "want")]) == 0
    out = tmp_path / "ph"
    assert main(["phantom", "--spec", str(three), "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    assert main(["phantom", "--spec", str(tmp_path / "two.json"), "--out", str(out),
                 "--overwrite"]) == 0
    # the third frame is gone with the old sequence/
    assert dir_bytes(out) == {**dir_bytes(tmp_path / "want"), "notes.txt": b"kept"}
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []


def test_removed_fit_flags_are_unknown(tmp_path, capsys):
    for flag in (["--workers", "2"], ["--non-deterministic"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--sequence", "s", "--mask", "m", "--out", "o"] + flag)
        assert exc.value.code == 2
    capsys.readouterr()


# --- a fit that aborts leaves no run directory behind -----------------------------

def _diverging_fit(tmp_path, learning_rates=None):
    """A 16^3 phantom and a 6-iteration fit; with 1e300 learning rates its
    first step sends every scale to 0."""
    if not (tmp_path / "ph16").exists():
        PhantomSpec(dims=(16, 16, 16), spacing=(6.0, 6.0, 6.0), frames=3).save(
            tmp_path / "spec16.json")
        main(["phantom", "--spec", str(tmp_path / "spec16.json"),
              "--out", str(tmp_path / "ph16")])
    cfg = {"n_init": 64, "node_budget": 16,
           "schedule": {"total_iters": 6, "canonical_only_until": 2, "node_unfreeze_at": 4,
                        "densify_interval": 3, "densify_start": 3}}
    if learning_rates is not None:
        cfg["learning_rates"] = learning_rates
    path = tmp_path / f"cfg{len(list(tmp_path.glob('cfg*.json')))}.json"
    path.write_text(json.dumps(cfg))
    return ["fit", "--sequence", str(tmp_path / "ph16" / "sequence"),
            "--mask", str(tmp_path / "ph16" / "ed_labels.vjson"), "--config", str(path)]


DIVERGE = {"intensity": 1e300, "rotscale": 1e300}


def test_diverged_fit_exits_3_and_leaves_no_output_dir(tmp_path, capsys):
    argv = _diverging_fit(tmp_path, DIVERGE)
    err = _one_line_failure(capsys, argv + ["--out", str(tmp_path / "out" / "fit")], code=3)
    assert "non-finite" in err
    # no run dir and no temp dir beside it
    assert not (tmp_path / "out" / "fit").exists()
    assert list((tmp_path / "out").iterdir()) == []


def test_collapsed_fit_aborts_at_the_first_render_after_it(tmp_path, capsys):
    # in-process: after iteration 0 every scale is exp(-huge) = 0, so the
    # render of iteration 1 meets an infinite precision
    argv = _diverging_fit(tmp_path, DIVERGE)
    capsys.readouterr()
    config = FitConfig.load(argv[argv.index("--config") + 1])
    sequence = volgrid.load_sequence(argv[argv.index("--sequence") + 1])
    mask = volgrid.load_volume(argv[argv.index("--mask") + 1])
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort, match="non-finite") as err:
        fit(sequence, mask, config)
    assert err.value.iteration == 1 and str(err.value).endswith("at iteration 1")


def test_aborted_overwrite_keeps_the_previous_run(tmp_path, capsys):
    out = tmp_path / "fit"
    assert main(_diverging_fit(tmp_path) + ["--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    before = dir_bytes(out)
    _one_line_failure(capsys, _diverging_fit(tmp_path, DIVERGE)
                      + ["--out", str(out), "--overwrite"], code=3)
    assert dir_bytes(out) == before
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []
    # a successful --overwrite replaces the run's files and keeps the others
    assert main(_diverging_fit(tmp_path, {"intensity": 1e-3}) + ["--out", str(out),
                                                                "--overwrite"]) == 0
    after = dir_bytes(out)
    assert after.keys() == before.keys() and after["notes.txt"] == b"kept"
    assert after["gaussians.raw"] != before["gaussians.raw"]
