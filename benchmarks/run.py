"""Run one benchmark workload in this process and print its metrics.

    python3 benchmarks/run.py --workload fit-static-64 --seed 1 --seconds 25 --trace 0

A run sets the workload up (``gausstrack phantom``, then reading the
sequence back) for ``SETUP_SECONDS`` and at least ``SETUP_MIN`` times,
then repeats whole rounds of fit (CLI) -> ``evaluate_run`` -> CLI
``export-field`` and ``render`` until ``--seconds`` have passed, checking
the outputs of every round.  Timings are medians over the set-ups, the
fits and the rounds.  With ``--trace 1`` the
public functions of the package are wrapped in timing spans and the
per-layer metrics are printed instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files go to
``.bench_runs/`` under the checkout root and are removed at the end; the
spans of a traced run are kept there as JSON lines.
"""

from __future__ import annotations

import os

# One BLAS thread: with a thread pool on a small shared machine the fit's
# wall time depends on what else runs, and the trace's CPU/wall ratio
# would measure OpenBLAS rather than the program.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS

# A set-up takes 0.04-0.6 s; a median over this many seconds of them
# keeps the short ones from reading mostly noise.
SETUP_SECONDS = 2.0
SETUP_MIN = 5

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Ledger:
    """Operations attempted and failed; a failed check makes the run
    incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def op(self):
        self.attempted += 1

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            print(f"CHECK FAILED: {name}", file=sys.stderr)


def cli(gt, *argv):
    code = gt.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"gausstrack {argv[0]} exited with {code}")


class Session:
    """One workload run: the set-ups, the rounds and their outputs."""

    def __init__(self, gt, workload, seed, work, ledger, tracer=None):
        self.gt, self.w, self.seed, self.work = gt, workload, seed, work
        self.ledger, self.tracer = ledger, tracer
        self.setup_s, self.fit_s, self.eval_s, self.query_s = [], [], [], []
        self.quality = {}
        self.info = {}

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    # -- set-up --------------------------------------------------------------
    def setup(self):
        gt = self.gt
        spec_path = self.work / "phantom_spec.json"
        spec_path.write_text(json.dumps(self.w.phantom_spec(self.seed)), encoding="utf-8")
        start = time.perf_counter()
        rep = 0
        while rep < SETUP_MIN or time.perf_counter() - start < SETUP_SECONDS:
            out = self.work / f"phantom{rep}"
            with self._span("bench.setup"):
                t0 = time.perf_counter()
                cli(gt, "phantom", "--spec", spec_path, "--out", out)
                seq = gt.volgrid.load_sequence(out / "sequence")
                labels = gt.volgrid.load_volume(out / "ed_labels")
                self.setup_s.append(time.perf_counter() - t0)
            self.ledger.op()
            if rep:
                shutil.rmtree(self.work / f"phantom{rep - 1}")
            rep += 1
        self.phantom_dir = out
        self.seq, self.ed_labels = seq, labels
        self.spec = gt.phantom.PhantomSpec.load(spec_path)
        self.t_es = float(seq.times[seq.es_index])
        self.truth_es = gt.phantom.warp_labels_analytic(labels, self.t_es, self.spec)
        self.config_path = self.work / "config.json"
        self.config = gt.optim.FitConfig.from_dict(self.w.fit_config())
        self.config.save(self.config_path)

    # -- rounds ----------------------------------------------------------------
    def fit(self, out):
        t0 = time.perf_counter()
        cli(self.gt, "fit", "--sequence", self.phantom_dir / "sequence",
            "--mask", self.phantom_dir / "ed_labels.vjson",
            "--config", self.config_path, "--out", out)
        self.ledger.op()
        return time.perf_counter() - t0

    def round(self, r):
        gt, cfg = self.gt, self.config
        out = self.work / f"fit{r}"
        with self._span("bench.round"):
            # the traced run fits once a round, so its per-round layer
            # totals are those of one fit
            for i in range(1 if self.tracer else self.w.fits_per_round):
                if i:
                    shutil.rmtree(out)
                self.fit_s.append(self.fit(out))
            g = gt.gauss.load_gaussians(out / "gaussians")
            nodes = gt.motion.load_nodes(out / "nodes")
            net = gt.motion.load_network(out / "network")
            t0 = time.perf_counter()
            report = gt.metrics.evaluate_run(
                g, nodes, net, self.seq, self.truth_es, k=cfg.k_neighbors,
                cutoff_multiplier=cfg.cutoff_multiplier,
                occupancy_floor=cfg.occupancy_floor)
            self.eval_s.append(time.perf_counter() - t0)
            self.ledger.op()
            t0 = time.perf_counter()
            cli(gt, "export-field", "--fitted", out, "--time", repr(self.t_es),
                "--out", out / "u_es")
            self.ledger.op()
            cli(gt, "render", "--fitted", out, "--time", repr(self.t_es),
                "--out", out / "es")
            self.ledger.op()
            self.query_s.append(time.perf_counter() - t0)
        # outside a benchmark span the tracer records nothing
        self.check_round(out, g, nodes, net, report)
        shutil.rmtree(out)

    def check_round(self, out, g, nodes, net, report):
        gt, cfg, seq, led = self.gt, self.config, self.seq, self.ledger
        k, cutoff = cfg.k_neighbors, cfg.cutoff_multiplier
        dims = seq.dims
        denoms = np.array([max(d - 1, 1) for d in dims], dtype=np.float64)
        extent = denoms * np.asarray(seq.spacing)
        rng = np.random.default_rng([self.seed, 7])
        losses = json.loads((out / "report.json").read_text(encoding="utf-8"))["losses"]
        cycle = len(seq.frames)
        n_vox = float(np.prod(dims))

        # render: CLI output at sampled voxels vs a direct sum over the
        # deformed Gaussians, half of the samples where the render is nonzero
        rendered = gt.volgrid.load_volume(out / "es").values
        idx = gt.motion.knn_indices(g.centers, nodes.positions, k)
        deformed, _ = gt.motion.apply_motion(g, nodes, net, self.t_es, idx)
        lit = np.argwhere(rendered != 0)
        vox = np.concatenate([
            lit[rng.choice(len(lit), size=min(32, len(lit)), replace=False)],
            np.stack([rng.integers(0, d, size=32) for d in dims], axis=1)])
        led.check("render", checks.check_render(
            rendered[tuple(vox.T)], deformed, vox, denoms, cutoff))

        # knn: sampled voxel rows against the fitted nodes, and against the
        # nodes snapped to the voxel lattice, where distance ties are common
        q = vox / denoms
        lattice = np.clip(np.rint(nodes.positions * denoms), 0, denoms) / denoms
        ok = True
        for pos in (nodes.positions, lattice):
            got = gt.motion.knn_indices(q, pos, k)
            ok = ok and checks.check_knn(got, q, pos, k)
        led.check("knn", ok)
        self.info["knn_tie_rows"] = checks.count_boundary_ties(q, lattice, k)

        led.check("losses", checks.check_losses(losses, cycle))

        # exported field vs the in-memory dense displacement at the samples
        comps = [gt.volgrid.load_volume(out / f"u_es_{c}").values for c in ("ux", "uy", "uz")]
        exported = np.stack([c[tuple(vox.T)] for c in comps], axis=1)
        in_mem = gt.motion.dense_displacement(vox / denoms, nodes, net, self.t_es, k)
        led.check("field", checks.check_field(exported, in_mem))

        classes = (gt.volgrid.LABEL_RV, gt.volgrid.LABEL_MYO, gt.volgrid.LABEL_LV)
        warped = gt.metrics.warp_labels(g, nodes, net, self.t_es, seq.frames[0], k=k,
                                        cutoff_multiplier=cutoff,
                                        occupancy_floor=cfg.occupancy_floor)
        led.check("dice", checks.check_dice(
            [report.dice_rv, report.dice_myo, report.dice_lv, report.dice_avg],
            warped.labels, self.truth_es.labels, classes))

        # quality: endpoint error on the ED myocardium at ES, in mm
        myo = np.argwhere(self.ed_labels.labels == gt.volgrid.LABEL_MYO) / denoms
        u_fit = gt.motion.dense_displacement(myo, nodes, net, self.t_es, k)
        u_true = gt.phantom.PhantomField(self.spec).displacement_normalized(myo, self.t_es)
        self.quality = {
            "final_loss": float(np.mean(losses[-cycle:])) / n_vox,
            "psnr_db": float(report.psnr_db),
            "dice_avg": float(report.dice_avg),
            "epe_myo_mm": float(np.linalg.norm((u_fit - u_true) * extent, axis=1).mean()),
        }
        self.info["epe_zero_motion_mm"] = float(
            np.linalg.norm(u_true * extent, axis=1).mean())
        self.info["final_gaussians"] = int(g.count)

    def run_rounds(self, seconds):
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds:
            self.round(r)
            r += 1
        self.info["rounds"] = r


def run(argv):
    args = parse_args(argv)
    if not (SRC / "gausstrack" / "__init__.py").is_file():
        print(f"run.py: no gausstrack package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gausstrack as gt
    import gausstrack.cli  # noqa: F401  (loads every module the CLI uses)

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-s{args.seed}-", dir=WORK))
    ledger = Ledger()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(gt)
        tracer.install()
    try:
        s = Session(gt, workload, args.seed, work, ledger, tracer)
        s.setup()
        s.run_rounds(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    med = statistics.median
    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (med(s.setup_s), "s"),
            "fit_s": (med(s.fit_s), "s"),
            "eval_s": (med(s.eval_s), "s"),
            "query_s": (med(s.query_s), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "final_loss": (s.quality["final_loss"], "L1/voxel"),
            "psnr_db": (s.quality["psnr_db"], "dB"),
            "dice_avg": (s.quality["dice_avg"], "ratio"),
            "epe_myo_mm": (s.quality["epe_myo_mm"], "mm"),
        }
    else:
        from layers import layer_metrics
        metrics = layer_metrics(tracer.spans, tracer.span_cost())
        tracer.write(WORK / f"trace-{workload.name}-s{args.seed}.jsonl")
    info = dict(s.info, workload=workload.name, seed=args.seed,
                blas_threads=BLAS_THREADS, setups=len(s.setup_s),
                failed_checks=ledger.failed)
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not ledger.failed,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
