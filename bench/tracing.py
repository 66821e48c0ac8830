"""In-memory spans around the benchmark's calls into nclp, plus LAPACK counts.

A span records name, layer, start, end and parent.  While a `Tracer` is
installed, `numpy.linalg.svd`, `eigh`, `eigvalsh` and `norm(ord=2)` are
wrapped: each call becomes a child span of layer `linalg` under the
innermost open span, so a layer's self time is the time it spends outside
LAPACK.  `norm(ord=2)` computes an SVD, so it counts as a factorization.
Nothing here touches nclp itself; the wrappers are removed by `uninstall()`.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

LINALG = ("svd", "eigh", "eigvalsh", "norm2")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "error", "counts", "hashing")

    def __init__(self, name, layer, start, parent):
        self.name, self.layer, self.start, self.parent = name, layer, start, parent
        self.end = None
        self.error = False
        self.counts = None  # linalg kind -> calls made directly under this span
        self.hashing = 0.0  # time spent fingerprinting those calls' inputs

    def to_obj(self, index):
        return {"id": index, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "parent": self.parent,
                "error": self.error, "linalg": self.counts}


class Tracer:
    """Span recorder; `call` has the signature of `tasks.direct`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = {}
        self.items = 0
        self.item_counts = dict.fromkeys(LINALG, 0)  # LAPACK calls made inside items
        self.distinct = 0  # of those, calls on an input not yet seen in the same item
        self._seen = None

    # -- spans ---------------------------------------------------------------

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)

    def close(self, error=False):
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        span.error = error

    def call(self, layer, name, fn, *args):
        self.open(f"{layer}.{name}", layer)
        try:
            out = fn(*args)
        except BaseException:
            self.close(error=True)
            raise
        self.close()
        return out

    def begin_item(self):
        """Start a new item: distinct inputs are counted per item."""
        self.items += 1
        self._seen = set()

    def end_item(self):
        self._seen = None

    # -- numpy.linalg wrappers ----------------------------------------------

    def install(self):
        linalg = np.linalg
        self._saved = {k: getattr(linalg, k) for k in ("svd", "eigh", "eigvalsh", "norm")}

        def counted(kind, fn):
            def wrapper(a, *args, **kwargs):
                if not self._stack:
                    return fn(a, *args, **kwargs)
                self._count(kind, a)
                self.open("linalg." + kind, "linalg")
                try:
                    return fn(a, *args, **kwargs)
                finally:
                    self.close()
            return wrapper

        norm = self._saved["norm"]
        norm2 = counted("norm2", norm)

        def norm_wrapper(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                return norm2(x, ord, *args, **kwargs)
            return norm(x, ord, *args, **kwargs)

        linalg.svd = counted("svd", self._saved["svd"])
        linalg.eigh = counted("eigh", self._saved["eigh"])
        linalg.eigvalsh = counted("eigvalsh", self._saved["eigvalsh"])
        linalg.norm = norm_wrapper

    def uninstall(self):
        for k, fn in self._saved.items():
            setattr(np.linalg, k, fn)
        self._saved = {}

    def _count(self, kind, a):
        t0 = time.perf_counter()
        owner = self.spans[self._stack[-1]]
        if owner.counts is None:
            owner.counts = dict.fromkeys(LINALG, 0)
        owner.counts[kind] += 1
        if self._seen is not None:
            self.item_counts[kind] += 1
            arr = np.ascontiguousarray(a)
            key = hashlib.blake2b(arr.tobytes(), digest_size=16)
            key.update(repr((arr.shape, arr.dtype.str)).encode())
            digest = key.digest()
            if digest not in self._seen:
                self._seen.add(digest)
                self.distinct += 1
        owner.hashing += time.perf_counter() - t0

    # -- summaries ------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its child spans cover.

        Fingerprinting the inputs of LAPACK calls is tracing cost, not work
        of the layer, so it is left out too.
        """
        child = [s.hashing for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.to_obj(i)) + "\n")
