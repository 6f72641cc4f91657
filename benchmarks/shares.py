"""Each layer's share of a workload, from the spans a traced run wrote.

    python3 benchmarks/shares.py .bench_runs/trace-fit-static-64-s3.jsonl

Self time (a span's duration minus its child spans) is summed per layer,
the module a span's name starts with, and per phase: set-up, and the fit,
evaluation and query steps of a round.  ``bench`` is the benchmark's own
code between calls.  Each line gives seconds per set-up or per round and
the share of that phase's time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from layers import SpanIndex
from spans import Span

PHASES = {"bench.setup": "setup", "cli.cmd_fit": "fit",
          "metrics.evaluate_run": "evaluate",
          "cli.cmd_export_field": "query", "cli.cmd_render": "query"}


def load(path):
    spans = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            d = json.loads(line)
            # a parent is opened, and so written, before its children
            root = d["id"] if d["parent"] is None else spans[d["parent"]].root
            span = Span(d["id"], d["name"], d["parent"], root, d["start"])
            span.end, span.info = d["end"], d["info"]
            spans.append(span)
    return spans


def shares(spans):
    """({phase: seconds}, {(phase, layer): self seconds}), per set-up or
    per round."""
    ix = SpanIndex(spans)
    total, self_s = defaultdict(float), defaultdict(float)
    for s in spans:
        top = s
        while top is not None and top.name not in PHASES:
            top = None if top.parent is None else spans[top.parent]
        if top is None:
            continue
        phase = PHASES[top.name]
        per = ix.roots[ix.root_name(s)]
        self_s[phase, s.name.split(".")[0]] += ix.self_time(s) / per
        if s is top:
            total[phase] += s.duration / per
    return total, self_s


def main(path):
    total, self_s = shares(load(path))
    for phase in dict.fromkeys(PHASES.values()):
        if not total[phase]:
            continue
        print(f"{phase}: {total[phase]:.3f} s")
        layers = sorted(((v, layer) for (p, layer), v in self_s.items() if p == phase),
                        reverse=True)
        for v, layer in layers:
            print(f"  {layer:8s} {v:8.3f} s  {100 * v / total[phase]:5.1f} %")


if __name__ == "__main__":
    main(sys.argv[1])
