"""Per-layer metrics derived from the spans of a traced run.

Spans sit under one of the benchmark's root spans, ``bench.setup`` (one
per set-up) or ``bench.round`` (one per fit -> evaluate -> query round).
A total reported "per round" sums a layer's spans under each kind of root
and divides by the number of those roots, so set-up work counts once,
as in a user's session of one set-up and one round.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import finish_counts

ROUND = "bench.round"


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
        self.roots = defaultdict(int)
        for s in spans:
            if s.parent is None:
                self.roots[s.name] += 1

    def root_name(self, span):
        return self.spans[span.root].name

    def self_time(self, span):
        """Duration minus the child spans and the counters run after them."""
        return span.duration - sum(c.duration + (c.info or {}).get("count_s", 0.0)
                                   for c in self.children[span.sid])

    def under(self, span, ancestor_names):
        """True when some ancestor of ``span`` has one of the given names."""
        sid = span.parent
        while sid is not None:
            anc = self.spans[sid]
            if anc.name in ancestor_names:
                return True
            sid = anc.parent
        return False

    def outermost(self, names):
        """Spans with one of ``names`` that are not inside another of them."""
        names = set(names)
        return [s for n in names for s in self.by_name[n] if not self.under(s, names)]

    def per_round(self, spans, value):
        """Sum ``value(span)`` per root kind, divided by that kind's count."""
        totals = defaultdict(float)
        for s in spans:
            totals[self.root_name(s)] += value(s)
        return sum(t / self.roots[r] for r, t in totals.items())

    def median_self_ms(self, name):
        spans = self.by_name[name]
        return 1e3 * statistics.median(self.self_time(s) for s in spans) if spans else 0.0


def layer_metrics(spans, span_cost_s):
    """Every per-layer metric, as {name: (value, unit)}.

    The tracing overhead is estimated from what tracing adds inside the
    fit: ``span_cost_s`` per traced call plus the time the counters took,
    over the fit's wall time without them.  (A traced fit against an
    untraced one in the same process measures mostly how the machine's
    speed drifted between the two; see README.)
    """
    finish_counts(spans)
    ix = SpanIndex(spans)
    dur = lambda s: s.duration
    info = lambda key: (lambda s: s.info[key])
    renders = ix.by_name["gauss.render_with_cache"]
    backward = ix.by_name["gauss.render_backward"]
    fits = ix.by_name["optim.fit"]
    knn = ix.by_name["motion.knn_indices"]
    evals = ix.by_name["metrics.evaluate_run"]
    in_fit = lambda spans: [s for s in spans if ix.under(s, {"optim.fit"})]
    fit_spans = in_fit(spans)
    added_s = len(fit_spans) * span_cost_s + sum(
        (s.info or {}).get("count_s", 0.0) for s in fit_spans)
    fit_wall_s = sum(s.duration for s in fits)
    in_eval = lambda spans: [s for s in spans if ix.under(s, {"metrics.evaluate_run"})]
    in_query = lambda spans: [s for s in spans
                              if ix.under(s, {"cli.cmd_export_field", "cli.cmd_render"})]
    iterations = len(in_fit(ix.by_name["optim.l1_loss"])) / max(ix.roots[ROUND], 1)
    pairs = sum(s.info["pairs"] for s in renders)
    n_eval = max(len(evals), 1)
    saves = ix.outermost(["volgrid.save_volume", "volgrid.save_sequence"])
    loads = ix.outermost(["volgrid.load_volume", "volgrid.load_sequence"])
    metric_total = lambda name: ix.per_round(in_eval(ix.by_name[name]), dur)
    m = {
        "gauss.render_fwd_ms": (ix.median_self_ms("gauss.render_with_cache"), "ms"),
        "gauss.render_bwd_ms": (ix.median_self_ms("gauss.render_backward"), "ms"),
        "gauss.render_pairs": (
            statistics.median(s.info["pairs"] for s in renders) if renders else 0, "count"),
        "gauss.render_fill": (
            sum(s.info["useful_pairs"] for s in renders) / pairs if pairs else 0.0, "ratio"),
        "gauss.render_cache_mb": (
            max((s.info["cache_bytes"] for s in renders), default=0) / 2 ** 20, "MB"),
        "gauss.densify_s": (ix.per_round(ix.by_name["gauss.densify_and_prune"], dur), "s"),
        "gauss.gaussian_iters": (
            ix.per_round(in_fit(backward), info("gaussians")), "count"),
        "motion.apply_ms": (ix.median_self_ms("motion.apply_motion"), "ms"),
        "motion.backward_ms": (ix.median_self_ms("motion.motion_backward"), "ms"),
        "motion.knn_fit_s": (ix.per_round(in_fit(knn), dur), "s"),
        "motion.knn_eval_s": (ix.per_round(in_eval(knn), dur), "s"),
        "motion.knn_query_s": (ix.per_round(in_query(knn), dur), "s"),
        "motion.knn_calls": (ix.per_round(knn, lambda s: 1), "count"),
        "motion.dense_s": (ix.per_round(ix.by_name["motion.dense_displacement"], dur), "s"),
        "optim.adam_ms": (
            1e3 * ix.per_round(in_fit(ix.by_name["optim.AdamState.step"]), dur)
            / max(iterations, 1), "ms"),
        "optim.l1_ms": (ix.median_self_ms("optim.l1_loss"), "ms"),
        "optim.fit_self_s": (ix.per_round(fits, ix.self_time), "s"),
        "optim.cpu_per_wall": (
            sum(s.info["cpu_s"] for s in fits) / sum(s.duration for s in fits)
            if fits else 0.0, "ratio"),
        "metrics.warp_labels_s": (metric_total("metrics.warp_labels"), "s"),
        "metrics.ssim_s": (metric_total("metrics.ssim3d"), "s"),
        "metrics.hausdorff_s": (metric_total("metrics.hausdorff"), "s"),
        "metrics.jacobian_s": (metric_total("metrics.jacobian_stats"), "s"),
        "metrics.dense_field_s": (metric_total("metrics.dense_field_on_grid"), "s"),
        "metrics.eval_knn_calls": (len(in_eval(knn)) / n_eval, "count"),
        "metrics.eval_motion_calls": (
            len(in_eval(ix.by_name["motion.apply_motion"])) / n_eval, "count"),
        "volgrid.save_s": (ix.per_round(saves, dur), "s"),
        "volgrid.load_s": (ix.per_round(loads, dur), "s"),
        "volgrid.bytes_written": (
            ix.per_round(ix.by_name["volgrid.save_volume"], info("bytes")), "B"),
        "volgrid.bytes_read": (
            ix.per_round(ix.by_name["volgrid.load_volume"], info("bytes")), "B"),
        "phantom.generate_s": (
            ix.per_round(ix.by_name["phantom.generate_phantom"], dur), "s"),
        "cli.export_field_s": (ix.per_round(ix.by_name["cli.cmd_export_field"], dur), "s"),
        "cli.render_s": (ix.per_round(ix.by_name["cli.cmd_render"], dur), "s"),
        "trace.overhead_pct": (
            100.0 * added_s / (fit_wall_s - added_s) if fits else 0.0, "%"),
    }
    return m
