"""Outside-in tracing of the sedkit modules.

The tracer replaces, for the duration of a traced region, every module
binding of every public sedkit function with a wrapper that records a
span, plus a handful of class methods. Modules import names directly
(`from .encoder import encode_batch`), so each binding is replaced, not
only the defining one; intra-module calls go through the module globals
and are traced as well. Nothing under `src/` is edited.

A span is (run, id, parent, name, start, end). Spans stay in memory and
are written out once, at the end. A layer is a module; its self time is
the total span time of its functions minus the time their child spans
cover. Counters are recorded at the same boundaries by per-function
hooks, so ratios come from where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("diffcore", "encoder", "objectives", "flow", "evalsts",
           "experiments", "checkpoint", "synthetic", "config", "cli")

# Methods wrapped on their classes: (module, class, method).
METHODS = (("encoder", "EncoderModel", "forward_ids"),
           ("diffcore", "Tensor", "backward"),
           ("diffcore", "Adam", "step"),
           ("diffcore", "RMSProp", "step"),
           ("flow", "CouplingFlow", "forward"))

_clock = time.perf_counter


class _HashlibProxy:
    """Stands in for `hashlib` inside `sedkit.checkpoint` so that the
    SHA-256 work of checkpoint saves and loads shows as its own span."""

    def __init__(self, tracer, real):
        self._real = real
        self.sha256 = tracer.wrap("checkpoint.sha256", "checkpoint",
                                  real.sha256)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple] = []
        self._module_of: dict[str, str] = {}

    # -- recording --------------------------------------------------------

    def begin(self, run_id: int) -> None:
        """Start run `run_id`: new spans carry it and counters restart."""
        self.run_id = run_id
        self.counts = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, module: str, fn, hook=None):
        """Wrapper of `fn` recording span `name`; `hook(args, kwargs,
        result, seconds)` runs after each call to update counters."""
        self._module_of[name] = module
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((span_id, name))
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[span_id] = (self.run_id, span_id, parent, name,
                                  start, end)
            if hook is not None:
                hook(args, kwargs, result, end - start)
            return result

        return traced

    def inside(self, names) -> bool:
        """Whether a span with one of `names` is open around the caller."""
        return any(name in names for _, name in self._stack)

    # -- installation -----------------------------------------------------

    def install(self, hooks: dict) -> None:
        """Wrap every public function binding and the METHODS list.

        `hooks` maps a span name (`module.function` or
        `module.Class.method`) to a counter hook for that span.
        """
        pkg = importlib.import_module("sedkit")
        mods = {m: importlib.import_module(f"sedkit.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(fn)] = self.wrap(name, short, fn,
                                                 hooks.get(name))
        for mod in [pkg, *mods.values()]:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            name = f"{short}.{cls_name}.{meth}"
            self._set(cls, meth, self.wrap(name, short, vars(cls)[meth],
                                           hooks.get(name)))
        ckpt = mods["checkpoint"]
        self._set(ckpt, "hashlib", _HashlibProxy(self, ckpt.hashlib))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def run_spans(self, run_id: int) -> list[tuple]:
        return [s for s in self.spans if s is not None and s[0] == run_id]

    @staticmethod
    def _child_time(spans) -> dict[int, float]:
        """Span id -> seconds covered by its direct children."""
        covered: dict[int, float] = {}
        for _, _, parent, _, start, end in spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + end - start
        return covered

    def self_times(self, run_id: int) -> tuple[dict, dict, float]:
        """Per-module (calls, self seconds) for one run, plus the time
        covered by top-level spans."""
        spans = self.run_spans(run_id)
        covered = self._child_time(spans)
        calls = {m: 0 for m in MODULES}
        self_s = {m: 0.0 for m in MODULES}
        top = 0.0
        for _, span_id, parent, name, start, end in spans:
            module = self._module_of[name]
            calls[module] += 1
            self_s[module] += end - start - covered.get(span_id, 0.0)
            if parent < 0:
                top += end - start
        return calls, self_s, top

    def span_total(self, run_id: int, name: str) -> float:
        """Inclusive seconds of every span called `name` in one run."""
        return sum(end - start for _, _, _, n, start, end
                   in self.run_spans(run_id) if n == name)

    def span_count(self, run_id: int, name: str) -> int:
        return sum(1 for s in self.run_spans(run_id) if s[3] == name)

    def self_total(self, run_id: int, name: str) -> float:
        """Self seconds of every span called `name` in one run."""
        spans = self.run_spans(run_id)
        covered = self._child_time(spans)
        return sum(end - start - covered.get(span_id, 0.0)
                   for _, span_id, _, n, start, end in spans if n == name)

    def write(self, path: str) -> None:
        """Spans as JSON lines: run, id, parent, name, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
