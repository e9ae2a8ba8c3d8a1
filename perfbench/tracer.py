"""Span tracing of the package's public functions, installed from outside.

Every public function of the traced modules, plus the listed methods, is
replaced by a wrapper in every package namespace that holds it, so calls
made inside the package go through the wrapper too.  Spans are
(name id, start ns, end ns, parent index) tuples kept in memory in start
order; ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from pathlib import Path

import numpy as np

PACKAGE = "legendreflow"
MODULES = ("curves", "spectral", "flows", "inequalities", "cli")
METHODS = (("curves", "SupportFourier", "evaluate"),
           ("curves", "SupportFourier", "__post_init__"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        nid = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module(PACKAGE)
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}")
                for m in MODULES}
        namespaces = [pkg, *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, traced)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Gzipped tab-separated spans: name, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for nid, start, end, parent in self.spans:
                out.write(f"{self.names[nid]}\t{start}\t{end}\t{parent}\n")


def self_times(spans: list) -> np.ndarray:
    """Self time (ns) of each span: its duration minus its children's.

    In one thread children are nested in their parent and do not overlap,
    so their durations simply add.
    """
    start = np.array([s[1] for s in spans], dtype=np.int64)
    end = np.array([s[2] for s in spans], dtype=np.int64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    dur = end - start
    child = np.zeros_like(dur)
    inside = parent >= 0
    np.add.at(child, parent[inside], dur[inside])
    return dur - child
