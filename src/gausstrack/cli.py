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
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import NumericalAbort, ValidationError
from . import gauss, metrics, motion, optim, phantom, volgrid

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _require_empty_dir(path, overwrite):
    path = Path(path)
    if path.exists() and any(path.iterdir()) and not overwrite:
        raise ValidationError(
            f"output directory {path} is not empty (pass --overwrite to reuse)")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir, kind, artifacts, extra=None):
    manifest = {"kind": kind, "artifacts": artifacts}
    if extra:
        manifest.update(extra)
    volgrid._write_json(Path(out_dir) / "run_manifest.json", manifest)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_phantom(args):
    spec = phantom.PhantomSpec.load(args.spec) if args.spec else phantom.PhantomSpec()
    out = _require_empty_dir(args.out, args.overwrite)
    seq, ed_labels, _ = phantom.generate_phantom(spec)
    volgrid.save_sequence(seq, out / "sequence")
    volgrid.save_volume(ed_labels, out / "ed_labels")
    spec.save(out / "phantom_spec.json")
    artifacts = {
        "sequence": "sequence",
        "ed_labels": "ed_labels.vjson",
        "spec_echo": "phantom_spec.json",
    }
    _write_manifest(out, "gausstrack-phantom", artifacts)
    return EXIT_OK


def _load_fit_inputs(args):
    config = optim.FitConfig.load(args.config) if args.config else optim.FitConfig()
    if args.seed is not None:
        config.seed = args.seed
    sequence = volgrid.load_sequence(args.sequence)
    mask = volgrid.load_volume(args.mask)
    if not isinstance(mask, volgrid.LabelVolume):
        raise ValidationError(f"{args.mask}: mask must be a u8 label volume")
    if mask.dims != sequence.dims:
        raise ValidationError(
            f"mask dims {mask.dims} do not match sequence dims {sequence.dims}")
    return config, sequence, mask


def cmd_fit(args):
    config, sequence, mask = _load_fit_inputs(args)
    out = _require_empty_dir(args.out, args.overwrite)
    result = optim.fit(sequence, mask, config)
    gauss.save_gaussians(result.gaussians, out / "gaussians")
    motion.save_nodes(result.nodes, out / "nodes")
    motion.save_network(result.net, out / "network")
    (out / "report.json").write_text(result.report.to_json(), encoding="utf-8")
    config.save(out / "config.json")
    artifacts = {
        "gaussians": "gaussians.gjson",
        "nodes": "nodes.njson",
        "network": "network.wjson",
        "report": "report.json",
        "config": "config.json",
    }
    _write_manifest(out, "gausstrack-fit", artifacts, extra={
        "grid": {"dims": list(sequence.dims), "spacing": list(sequence.spacing)},
        "k_neighbors": config.k_neighbors,
        "cutoff_multiplier": config.cutoff_multiplier,
        "occupancy_floor": config.occupancy_floor,
    })
    return EXIT_OK


# query settings a fit manifest may leave out
_QUERY_DEFAULTS = {"k_neighbors": 4, "cutoff_multiplier": 3.0, "occupancy_floor": 0.5}


def _load_fitted(fitted_dir):
    """The fitted state, its grid and its manifest (query settings filled
    in); a missing or mistyped manifest entry is a validation failure."""
    fitted = Path(fitted_dir)
    manifest_path = fitted / "run_manifest.json"
    if not manifest_path.exists():
        raise ValidationError(f"{fitted}: no run_manifest.json (not a fit output?)")
    manifest = {**_QUERY_DEFAULTS, **volgrid._read_json(manifest_path, "run manifest")}
    volgrid._check_keys(manifest_path, manifest, {
        "kind": ["gausstrack-fit"], "artifacts": "object", "grid": "object",
        "k_neighbors": "int", "cutoff_multiplier": "float", "occupancy_floor": "float"})
    artifacts, grid = manifest["artifacts"], manifest["grid"]
    volgrid._check_keys(manifest_path, artifacts,
                        {"gaussians": "str", "nodes": "str", "network": "str"})
    dims, spacing = volgrid._check_geometry(grid.get("dims"), grid.get("spacing"))
    g = gauss.load_gaussians(fitted / artifacts["gaussians"])
    nodes = motion.load_nodes(fitted / artifacts["nodes"])
    net = motion.load_network(fitted / artifacts["network"])
    return g, nodes, net, SimpleNamespace(dims=dims, spacing=spacing), manifest


def _check_time(t):
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"--time must be a finite normalized time in [0, 1], got {t}")


def cmd_eval(args):
    g, nodes, net, _, manifest = _load_fitted(args.fitted)
    sequence = volgrid.load_sequence(args.sequence)
    truth = volgrid.load_volume(args.truth)
    if not isinstance(truth, volgrid.LabelVolume):
        raise ValidationError(f"{args.truth}: truth mask must be a u8 label volume")
    if truth.dims != sequence.dims:
        raise ValidationError(
            f"truth dims {truth.dims} do not match sequence dims {sequence.dims}")
    report = metrics.evaluate_run(
        g, nodes, net, sequence, truth, k=manifest["k_neighbors"],
        cutoff_multiplier=manifest["cutoff_multiplier"],
        occupancy_floor=manifest["occupancy_floor"])
    Path(args.out).write_text(report.to_json(), encoding="utf-8")
    return EXIT_OK


def cmd_render(args):
    _check_time(args.time)
    g, nodes, net, grid, manifest = _load_fitted(args.fitted)
    idx = motion.knn_indices(g.centers, nodes.positions, manifest["k_neighbors"])
    deformed, _ = motion.apply_motion(g, nodes, net, args.time, idx)
    vol = gauss.render_volume(deformed, grid, manifest["cutoff_multiplier"])
    volgrid.save_volume(vol, args.out)
    return EXIT_OK


def cmd_export_field(args):
    _check_time(args.time)
    g, nodes, net, grid, manifest = _load_fitted(args.fitted)
    field = metrics.dense_field_on_grid(g, nodes, net, args.time, grid,
                                        k=manifest["k_neighbors"])
    out = Path(args.out)
    names = {}
    for i, comp in enumerate(("ux", "uy", "uz")):
        vol = volgrid.VoxelVolume(grid.dims, grid.spacing, field.vectors[..., i])
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
    p.add_argument("--seed", type=int, help="override the config seed")
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
        return args.func(args)
    except ValidationError as e:
        print(f"gausstrack: validation: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalAbort as e:
        print(f"gausstrack: numerical: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"gausstrack: io: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
