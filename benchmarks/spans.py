"""Timing spans around the program's public functions, for the traced run.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent) and, for a
few functions, counts taken from the arguments or the result.  The wrapper
is put in every namespace that holds the function, because some modules
import functions by name (``optim`` calls ``apply_motion``,
``knn_indices`` and ``densify_and_prune`` from its own namespace).  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from pathlib import Path

import numpy as np

TRACED_MODULES = ("volgrid", "gauss", "motion", "optim", "metrics", "phantom", "cli")
# class methods that are layer boundaries too
TRACED_METHODS = (("optim", "AdamState", "step"),)


class Span:
    __slots__ = ("sid", "name", "parent", "root", "start", "end", "info")

    def __init__(self, sid, name, parent, root, start):
        self.sid, self.name, self.parent, self.root = sid, name, parent, root
        self.start, self.end, self.info = start, None, None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "info": self.info}


class Tracer:
    """Records nested spans; ``span`` opens one from the benchmark's own
    code, the installed wrappers open one per traced call."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._saved = []
        self._counters = {
            "gauss.render_with_cache": _render_counts,
            "gauss.render_backward": lambda args, kw, res: {
                "gaussians": _arg(args, kw, 0, "gaussians").count},
            "volgrid.save_volume": lambda args, kw, res: {
                "bytes": _volume_bytes(_arg(args, kw, 1, "path"))},
            "volgrid.load_volume": lambda args, kw, res: {
                "bytes": _volume_bytes(_arg(args, kw, 0, "path"))},
        }

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, None if parent is None else parent.sid,
                    sid if parent is None else parent.root, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        count = self._counters.get(name)
        is_fit = name == "optim.fit"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:     # outside the benchmark's measured phases
                return fn(*args, **kwargs)
            span = self._open(name)
            cpu0 = time.process_time() if is_fit else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if is_fit:
                span.info = {"cpu_s": time.process_time() - cpu0}
            elif count is not None:
                t0 = time.perf_counter()
                span.info = count(args, kwargs, result)
                span.info["count_s"] = time.perf_counter() - t0
            return result

        return traced

    # -- installing --------------------------------------------------------
    def install(self):
        """Wrap every public function of the traced modules in place."""
        mods = {m: getattr(self.package, m) for m in TRACED_MODULES}
        namespaces = list(mods.values()) + [self.package]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._saved.append((ns, attr, obj))
                        setattr(ns, attr, wrapped)
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(mods[short], cls_name)
            obj = vars(cls)[meth]
            self._saved.append((cls, meth, obj))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", obj))

    def uninstall(self):
        while self._saved:
            ns, attr, obj = self._saved.pop()
            setattr(ns, attr, obj)

    @staticmethod
    def span_cost(calls=50_000):
        """Seconds one traced call adds to a call, measured on a function
        that does nothing."""
        probe = Tracer(None)
        noop = lambda: None
        traced = probe._wrap("probe.noop", noop)
        with probe.span("probe"):
            t0 = time.perf_counter()
            for _ in range(calls):
                traced()
            wrapped = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        return max(wrapped - (time.perf_counter() - t0), 0.0) / calls

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s.as_dict()) + "\n")


# -- counters taken from arguments and results --------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _render_counts(args, kwargs, result):
    """Keep what the pair counts need (they are computed after the run, off
    the clock) and the bytes of the returned forward cache."""
    gaussians = _arg(args, kwargs, 0, "gaussians")
    dims = tuple(int(d) for d in _arg(args, kwargs, 1, "dims"))
    cutoff = args[2] if len(args) > 2 else kwargs.get("cutoff_multiplier", 3.0)
    return {"cache_bytes": _nbytes(result[1] if isinstance(result, tuple) else None),
            "_pending": (gaussians.centers.copy(), gaussians.log_scales.copy(), dims, cutoff)}


def support_pairs(centers, log_scales, dims, cutoff):
    """(pairs, useful): Gaussian-voxel pairs in the support boxes the
    renderer visits, and how many of those lie inside the cutoff sphere."""
    denoms = np.array([max(d - 1, 1) for d in dims], dtype=np.float64)
    top = np.asarray(dims) - 1
    r = cutoff * np.exp(log_scales).max(axis=1)
    lo = np.clip(np.ceil((centers - r[:, None]) * denoms - 1e-9), 0, top).astype(np.int64)
    hi = np.clip(np.floor((centers + r[:, None]) * denoms + 1e-9), -1, top).astype(np.int64)
    shape = np.maximum(hi - lo + 1, 0)
    boxes = shape.prod(axis=1)
    useful = 0
    live = np.flatnonzero(boxes > 0)
    shapes, inverse = np.unique(shape[live], axis=0, return_inverse=True)
    for j, box in enumerate(shapes):
        offs = np.stack(np.meshgrid(*[np.arange(n) for n in box], indexing="ij"),
                        axis=-1).reshape(-1, 3) / denoms
        members = live[inverse.ravel() == j]
        step = max(1, 1_000_000 // len(offs))
        for a in range(0, members.size, step):
            sel = members[a:a + step]
            d = (lo[sel] / denoms - centers[sel])[:, None, :] + offs[None]
            useful += int(np.count_nonzero(
                np.einsum("gbi,gbi->gb", d, d) <= (r[sel] ** 2)[:, None]))
    return int(boxes.sum()), useful


def finish_counts(spans):
    """Turn the arguments kept by ``_render_counts`` into pair counts."""
    for s in spans:
        if s.info and "_pending" in s.info:
            pairs, useful = support_pairs(*s.info.pop("_pending"))
            s.info.update(pairs=pairs, useful_pairs=useful)


def _nbytes(obj, seen=None):
    """Bytes held by the distinct numpy arrays in a nested list/tuple."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o, seen) for o in obj)
    return 0


def _volume_bytes(path):
    """Manifest plus payload bytes of a volume container on disk."""
    path = Path(path)
    if path.suffix == ".vjson":
        path = path.with_suffix("")
    total = 0
    for f in (path.parent / (path.name + ".vjson"), path.parent / (path.name + ".raw")):
        if f.exists():
            total += f.stat().st_size
    return total
