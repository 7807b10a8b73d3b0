"""Span tracer that wraps the package's public functions from outside.

`SpanTracer.install()` replaces every public function of each layer
module, as bound in every loaded finegames module, with a wrapper that
records a span (name, start, end, parent). Public methods and the
construction-time validation (`__post_init__`) of the classes a layer
defines are wrapped on the class. `uninstall()` puts the originals
back, so untraced runs execute the unmodified program.

Self time is a span's duration minus the durations of its direct child
spans; calls happen on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "qstates",
    "measurement",
    "fine",
    "games",
    "equilibrium",
    "serialize",
    "scenarios",
    "cli",
)

_PACKAGE = "finegames"
KEEP_SPANS = 50_000  # spans kept for write(); later calls still count


def _is_traceable(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def _layer_targets(module) -> list[tuple[str, object, str, object]]:
    """(qualified name, owner, attribute, function) of one layer's targets.

    Owner is None for module-level functions (which are rebound in every
    package module) and the class for methods (patched on the class).
    """
    layer = module.__name__.rsplit(".", 1)[-1]
    targets = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if _is_traceable(obj):
            targets.append((f"{layer}.{name}", None, name, obj))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (
                    not attr.startswith("_") or attr == "__post_init__"
                ):
                    targets.append((f"{layer}.{name}.{attr}", obj, attr, member))
    return targets


class SpanTracer:
    """In-memory span recorder with per-layer call and self-time totals."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []
        self.dropped = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        self._after: dict[str, object] = {}
        self.reset()

    def reset(self):
        """Zero the aggregates (spans already kept stay)."""
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.layer_self_ns = {layer: 0 for layer in LAYERS}
        self.fn_calls: dict[str, int] = {}

    def after(self, name: str, hook):
        """Call hook(args, kwargs, result, duration_ns) after `name` returns."""
        self._after[name] = hook

    # ---------------------------------------------------------- patching

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == _PACKAGE or key.startswith(_PACKAGE + "."))
        ]
        targets = []
        for m in modules:
            if m.__name__.rsplit(".", 1)[-1] in LAYERS:
                targets.extend(_layer_targets(m))
        plain = {}
        for qualname, owner, attr, fn in targets:
            if qualname not in self._wrappers:
                self._wrappers[qualname] = self._wrap(fn, qualname, qualname.split(".", 1)[0])
            wrapper = self._wrappers[qualname]
            if owner is None:
                plain[id(fn)] = wrapper
            else:
                self._patch(owner, attr, wrapper)
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if id(obj) in plain and _is_traceable(obj):
                    self._patch(m, attr, plain[id(obj)])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, qualname: str, layer: str):
        name_id = len(self.names)
        self.names.append(qualname)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(spans) < KEEP_SPANS:
                span_id = len(spans)
                spans.append((name_id, 0, 0, parent))
            else:
                span_id = -1
                tracer.dropped += 1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if span_id >= 0:
                    spans[span_id] = (name_id, start, end, parent)
                tracer.layer_calls[layer] += 1
                tracer.layer_self_ns[layer] += duration - frame[1]
                tracer.fn_calls[qualname] = tracer.fn_calls.get(qualname, 0) + 1
            hook = tracer._after.get(qualname)
            if hook is not None:
                hook(args, kwargs, result, duration)
            return result

        return wrapper

    # ------------------------------------------------------------ output

    def write(self, path):
        """Write kept spans as [name, start_ns, end_ns, parent index]."""
        rows = [[self.names[n], s, e, p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "dropped": self.dropped}, fh)
