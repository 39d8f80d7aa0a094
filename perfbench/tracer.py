"""Span tracer that wraps pendnf's functions from outside the program.

install() wraps the functions of each layer module and rebinds every name
that refers to them: the module attribute, each `from`-imported copy in any
pendnf module (normal_form.product_series, the package's re-exports), and
methods on the classes themselves, which covers every binding of a class.
restore() puts every original back.

Spans (id, name, start, end, parent id) are kept in memory up to a cap and
written out at the end; the per-name aggregates (calls, inclusive and self
time, errors, and calls per root request kind) are updated as each span
closes, so they cover every span even past the cap.  Self time is a span's
duration minus the durations of its direct children; spans of one thread
nest, so that is the time not covered by any child.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

LAYERS = ("elliptic", "series", "normal_form", "dynamics", "cli")

# Private helpers that carry layer metrics; every other traced name is public.
# Inner-loop helpers (coefficient conversion, list kernels) stay unwrapped so
# the wrappers do not dominate what they measure.
_PRIVATE = {
    "cli": ("_suite_",),
    "dynamics": ("_rk_batch", "_rescale_factor"),
}
_DUNDERS = frozenset(
    ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__", "__pow__", "__call__")
)


def _wanted(layer: str, name: str) -> bool:
    if not name.startswith("_"):
        return True
    return any(name.startswith(prefix) for prefix in _PRIVATE.get(layer, ()))


def _defined_in(fn, path: str) -> bool:
    code = getattr(getattr(fn, "__wrapped__", fn), "__code__", None)
    return code is not None and code.co_filename == path


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}        # name -> [calls, total, self, errors]
        self.by_root: dict[tuple, list] = {}    # (root, name) -> [calls, total]
        self._stack: list[list] = []
        self._next = 0
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str):
        parent = self._stack[-1] if self._stack else None
        root = parent[5] if parent else name
        self._next += 1
        self._stack.append([self._next, name, time.perf_counter(), 0.0,
                            parent[0] if parent else 0, root])

    def _exit(self, ok: bool):
        end = time.perf_counter()
        sid, name, start, children, parent, root = self._stack.pop()
        dur = end - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - children
        st[3] += 0 if ok else 1
        br = self.by_root.setdefault((root, name), [0, 0.0])
        br[0] += 1
        br[1] += dur
        if self._stack:
            self._stack[-1][3] += dur
        if len(self.spans) < self.keep:
            self.spans.append((sid, name, start, end, parent))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a request."""
        self._enter(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(ok)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer._exit(ok)

        return traced

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's functions and rebind all their names."""
        originals = {}                           # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"pendnf.{layer}")
            path = mod.__file__
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__:
                        self._wrap_class(layer, obj, path)
                elif callable(obj) and _wanted(layer, attr) and _defined_in(obj, path):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pendnf" or mod_name.startswith("pendnf.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        return self

    def _wrap_class(self, layer: str, cls: type, path: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if _defined_in(fn, path):
                    name = f"{layer}.{cls.__name__}.{fn.__name__}"
                    self._set(cls, attr, type(raw)(self.wrap(name, fn)))
            elif callable(raw) and _defined_in(raw, path):
                # aliases such as __rmul__ = __mul__ share the span name
                self._set(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{raw.__name__}", raw))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "by_root": [[root, name, c, t] for (root, name), (c, t) in self.by_root.items()],
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
