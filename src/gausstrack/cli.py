"""Command-line entry point: phantom generation, fitting, evaluation,
rendering and field export.

Every subcommand validates all of its inputs before any compute starts and
uses stable exit codes for CI: 0 success, 2 validation failure, 3 numerical
abort, 4 I/O failure.  Errors print as a single machine-parsable line on
stderr.  Outputs land under one run directory together with a manifest of
the produced artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import shutil
import sys
import uuid
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import NumericalAbort, ValidationError
from . import gauss, metrics, motion, optim, phantom, volgrid

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@contextlib.contextmanager
def _run_dir(path, overwrite):
    """Check that ``path`` may take a run, then yield a sibling temp dir.
    Only if the block succeeds does the temp dir become ``path``, or, when
    ``path`` exists, do its entries replace their namesakes there; an abort
    leaves ``path`` as it was."""
    path = Path(path)
    if path.exists() and any(path.iterdir()) and not overwrite:
        raise ValidationError(
            f"output directory {path} is not empty (pass --overwrite to reuse)")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{uuid.uuid4().hex}"
    tmp.mkdir()
    try:
        yield tmp
        if not path.exists():
            tmp.rename(path)
        else:
            for entry in tmp.iterdir():
                target = path / entry.name
                if target.is_dir() and not target.is_symlink():
                    shutil.rmtree(target)
                entry.replace(target)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _write_manifest(out_dir, kind, artifacts, extra=None):
    manifest = {"kind": kind, "artifacts": artifacts, **(extra or {})}
    volgrid._write_json(Path(out_dir) / "run_manifest.json", manifest)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_phantom(args):
    spec = phantom.PhantomSpec.load(args.spec) if args.spec else phantom.PhantomSpec()
    with _run_dir(args.out, args.overwrite) as out:
        seq, ed_labels, _ = phantom.generate_phantom(spec)
        volgrid.save_sequence(seq, out / "sequence")
        volgrid.save_volume(ed_labels, out / "ed_labels")
        spec.save(out / "phantom_spec.json")
        _write_manifest(out, "gausstrack-phantom", {
            "sequence": "sequence", "ed_labels": "ed_labels.vjson",
            "spec_echo": "phantom_spec.json"})
    return EXIT_OK


def _load_fit_inputs(args):
    config = optim.FitConfig.load(args.config) if args.config else optim.FitConfig()
    sequence = volgrid.load_sequence(args.sequence)
    mask = volgrid.load_volume(args.mask)
    if not isinstance(mask, volgrid.LabelVolume):
        raise ValidationError(f"{args.mask}: mask must be a u8 label volume")
    return config, sequence, mask


def cmd_fit(args):
    config, sequence, mask = _load_fit_inputs(args)
    with _run_dir(args.out, args.overwrite) as out:
        result = optim.fit(sequence, mask, config)
        gauss.save_gaussians(result.gaussians, out / "gaussians")
        motion.save_nodes(result.nodes, out / "nodes")
        motion.save_network(result.net, out / "network")
        (out / "report.json").write_text(result.report.to_json(), encoding="utf-8")
        config.save(out / "config.json")
        artifacts = {"gaussians": "gaussians.gjson", "nodes": "nodes.njson",
                     "network": "network.wjson", "report": "report.json",
                     "config": "config.json"}
        _write_manifest(out, "gausstrack-fit", artifacts, extra={
            "grid": {"dims": list(sequence.dims), "spacing": list(sequence.spacing)}})
    return EXIT_OK


def _load_fitted(fitted_dir):
    """The fitted state, its grid and the run's config (the query settings);
    a missing or mistyped manifest or config entry is a validation failure."""
    fitted = Path(fitted_dir)
    manifest_path = fitted / "run_manifest.json"
    if not manifest_path.exists():
        raise ValidationError(f"{fitted}: no run_manifest.json (not a fit output?)")
    manifest = volgrid._read_json(manifest_path, "run manifest")
    volgrid._check_keys(manifest_path, manifest, {
        "kind": ["gausstrack-fit"], "artifacts": "object", "grid": "object"})
    artifacts, grid = manifest["artifacts"], manifest["grid"]
    volgrid._check_keys(manifest_path, artifacts, dict.fromkeys(
        ["gaussians", "nodes", "network", "config"], "path inside the directory"))
    dims, spacing = volgrid._check_geometry(grid.get("dims"), grid.get("spacing"))
    config_path = fitted / artifacts["config"]
    config = volgrid._read_json(config_path, "config")
    missing = sorted(set(optim.FitConfig.__dataclass_fields__) - set(config))
    if missing:
        raise ValidationError(f"{config_path}: missing keys {missing}")
    config = optim.FitConfig.from_dict(config)
    g = gauss.load_gaussians(fitted / artifacts["gaussians"])
    nodes = motion.load_nodes(fitted / artifacts["nodes"])
    net = motion.load_network(fitted / artifacts["network"])
    return g, nodes, net, SimpleNamespace(dims=dims, spacing=spacing), config


def _check_time(t):
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"--time must be a finite normalized time in [0, 1], got {t}")


def cmd_eval(args):
    g, nodes, net, _, config = _load_fitted(args.fitted)
    sequence = volgrid.load_sequence(args.sequence)
    truth = volgrid.load_volume(args.truth)
    if not isinstance(truth, volgrid.LabelVolume):
        raise ValidationError(f"{args.truth}: truth mask must be a u8 label volume")
    report = metrics.evaluate_run(
        g, nodes, net, sequence, truth, k=config.k_neighbors,
        cutoff_multiplier=config.cutoff_multiplier,
        occupancy_floor=config.occupancy_floor)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_json(), encoding="utf-8")
    return EXIT_OK


def cmd_render(args):
    _check_time(args.time)
    g, nodes, net, grid, config = _load_fitted(args.fitted)
    idx = motion.knn_indices(g.centers, nodes.positions, config.k_neighbors)
    deformed, _ = motion.apply_motion(g, nodes, net, args.time, idx)
    values = gauss.render_values(deformed, grid.dims, config.cutoff_multiplier)
    volgrid.save_volume(volgrid.VoxelVolume(grid.dims, grid.spacing, values), args.out)
    return EXIT_OK


def cmd_export_field(args):
    _check_time(args.time)
    _, nodes, net, grid, config = _load_fitted(args.fitted)
    t6 = motion.node_transforms(net, nodes.positions, args.time)[0]
    u, _ = motion.grid_displacement(nodes, t6, config.k_neighbors, grid.dims)
    out = Path(args.out)
    names = {}
    for i, comp in enumerate(("ux", "uy", "uz")):
        vol = volgrid.VoxelVolume(grid.dims, grid.spacing, u[:, i].reshape(grid.dims))
        volgrid.save_volume(vol, out.parent / f"{out.name}_{comp}")
        names[comp] = f"{out.name}_{comp}.vjson"
    index = {"kind": "gausstrack-field", "t": float(args.time),
             "units": "normalized", "components": names}
    volgrid._write_json(out.parent / f"{out.name}.json", index)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="gausstrack",
        description="4D motion tracking with deformable Gaussian volumes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic 4D sequence")
    p.add_argument("--spec", help="phantom spec JSON (defaults when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("fit", help="fit Gaussians + motion to a sequence")
    p.add_argument("--sequence", required=True, help="sequence directory")
    p.add_argument("--mask", required=True, help="ED label volume (.vjson)")
    p.add_argument("--config", help="run-config JSON (defaults when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score a fitted state at the ES frame")
    p.add_argument("--fitted", required=True, help="fit output directory")
    p.add_argument("--sequence", required=True, help="sequence directory")
    p.add_argument("--truth", required=True, help="ES truth labels (.vjson)")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render the deformed volume at a time")
    p.add_argument("--fitted", required=True)
    p.add_argument("--time", type=float, required=True, help="normalized time in [0, 1]")
    p.add_argument("--out", required=True, help="output volume path (.vjson)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("export-field", help="export the dense displacement field")
    p.add_argument("--fitted", required=True)
    p.add_argument("--time", type=float, required=True, help="normalized time in [0, 1]")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_export_field)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # failures surface as an exit code and one stderr line, so numpy's
        # floating-point warnings (overflow on the way to a NumericalAbort)
        # are not printed
        with np.errstate(all="ignore"):
            return args.func(args)
    except ValidationError as e:
        print(f"gausstrack: validation: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as e:
        # numpy names the array it could not allocate ("Unable to allocate
        # 7.11 PiB for an array with shape ..."): a grid too large for memory
        print(f"gausstrack: validation: {e or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalAbort as e:
        print(f"gausstrack: numerical: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"gausstrack: io: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
