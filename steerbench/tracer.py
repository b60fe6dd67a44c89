"""Span recorder that times steerdist's public functions from outside.

``Tracer.install`` replaces each listed function by a timing wrapper in
every ``steerdist`` module namespace that holds the same function object,
so a span stays in place when a later change moves an import.  Spans are
kept in memory as (span id, parent span id, request id, name, start, end)
and written out once, after the run.  A span's self time is its duration
minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, extra counter taken from the return value)
SPANS = (
    ("cli", "main", None),
    ("distillation", "optimize_kappa", ("evaluations", lambda r: r.evaluations)),
    ("distillation", "distill", None),
    ("distillation", "apply_filter", None),
    ("metrics", "assemblage_fidelity", None),
    ("metrics", "witness_1sdi", None),
    ("metrics", "witness_2sdi", None),
    ("assemblage", "gghz_assemblage_1sdi", None),
    ("assemblage", "gghz_assemblage_2sdi", None),
    ("assemblage", "ghz_assemblage", None),
    ("assemblage", "validate", None),
    ("assemblage", "Assemblage.load", None),
    ("assemblage", "convex_mix", None),
    ("protocol", "run_protocol", ("trials", lambda r: r.trials)),
    ("protocol", "success_probability", None),
)
# Counted, not timed: they sit inside the fidelity span they serve.
COUNTED = (("linalg", "psd_sqrt"), ("linalg", "eig_hermitian"))
# numpy functions whose decomposed matrices are counted, as computed counts.
NUMPY_COUNTED = (("eigvalsh", "linalg.eigvalsh_mats"), ("eigh", "linalg.eigh_mats"))

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in SPANS)
EXTRA_COUNTS = tuple(f"{mod}.{attr}.{extra[0]}" for mod, attr, extra in SPANS if extra)
COUNT_NAMES = (
    EXTRA_COUNTS
    + tuple(f"{mod}.{attr}.calls" for mod, attr in COUNTED)
    + tuple(name for _, name in NUMPY_COUNTED)
)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.request_id: int | None = None
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._next_id = 0

    def _span(self, name: str, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                self.spans.append((
                    frame[0], parent[0] if parent else None, self.request_id, name, start, end,
                ))
            if extra is not None:
                self.counts[f"{name}.{extra[0]}"] += extra[1](result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _matrices_counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            # Only decompositions made inside a request count; the oracles
            # call numpy too.
            if self._stack:
                self.counts[name] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "steerdist" or mod_name.startswith("steerdist.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        """Wrap every listed function wherever steerdist binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, extra in SPANS:
            module = sys.modules[f"steerdist.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, classmethod(self._span(name, original.__func__, extra)))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self._span(name, original, extra))
        for mod_name, attr in COUNTED:
            original = getattr(sys.modules[f"steerdist.{mod_name}"], attr)
            self._patch_everywhere(original, self._counted(f"{mod_name}.{attr}.calls", original))
        for attr, name in NUMPY_COUNTED:
            self._patch(np.linalg, attr, self._matrices_counted(name, getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        """Restore every wrapped binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        keys = ("span", "parent", "request", "name", "start", "end")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
