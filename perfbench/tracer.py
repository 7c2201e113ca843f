"""Spans around the package's layers, recorded from outside the package.

``Tracer.install`` wraps each layer's public functions (the plain
functions in each module's ``__all__``, plus the ``SetFamily`` methods
that build, parse and render families) and rebinds the wrapper in every
package module that imported the function by name, so calls between
layers are seen as well.  Generator functions are left alone: their span
would close before any work happens.

A span is (id, name, start, end, parent id, operation id).  Spans are kept
in memory and written out by ``write``.  A span's self time is its
duration minus the durations of its child spans; every time the per-layer
metrics report is a self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("setcore", "nonneg", "hallflow", "matching", "ekrshift", "cli")
SETFAMILY_METHODS = ("__post_init__", "of", "from_masks", "parse", "render")

# Self-time metrics: metric -> functions ("layer.name") whose self time it sums.
SELF_TIME = {
    "nonneg.verify_s": ("nonneg.verify_theorem1", "nonneg.verify_theorem2"),
    "nonneg.enumerate_s": ("nonneg.enumerate_nonneg", "nonneg.classify_nonneg_structure"),
    "matching.build_s": (
        "matching.build_disjointness_graph",
        "matching.build_blocked_disjointness_graph",
        "matching.build_gi_graph",
    ),
    "matching.hk_s": ("matching.hopcroft_karp",),
    "hallflow.validate_s": ("hallflow.validate_biregular", "hallflow.reduce"),
    "hallflow.flow_s": ("hallflow.solve_transportation",),
    "hallflow.hall_s": ("hallflow.reduced_hall_condition",),
    "ekrshift.property_s": ("ekrshift.has_property",),
    "ekrshift.upset_s": ("ekrshift.to_upset", "ekrshift.push_up", "ekrshift.is_upset"),
    "ekrshift.oracle_s": ("ekrshift.max_family_oracle",),
    "setcore.family_s": tuple(f"setcore.SetFamily.{m}" for m in SETFAMILY_METHODS)
    + ("setcore.family_is_intersecting",),
}


def _subsets(args: dict) -> int:
    if "s" in args:
        return 1 << args["s"].n
    return args["trials"] << args["n"]


# Work counts computed from a call's arguments: function -> ((counter, fn(args)), ...).
COUNTERS: dict[str, tuple[tuple[str, Callable[[dict], int]], ...]] = {
    "nonneg.enumerate_nonneg": (("nonneg.subsets", _subsets),),
    "nonneg.classify_nonneg_structure": (("nonneg.subsets", _subsets),),
    "nonneg.verify_theorem1": (("nonneg.subsets", _subsets),),
    "nonneg.verify_theorem2": (("nonneg.subsets", _subsets),),
    "matching.hopcroft_karp": (
        ("matching.vertices", lambda a: len(a["adj"]) + a["n_right"]),
        ("matching.edges", lambda a: sum(len(row) for row in a["adj"])),
    ),
    "ekrshift.has_property": (("ekrshift.pair_checks", lambda a: len(a["f"]) * (len(a["f"]) - 1) // 2),),
    "setcore.SetFamily.__post_init__": (("setcore.members", lambda a: len(a["self"].members)),),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._stack: list[list[Any]] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._undo: list[tuple[Any, str, Any]] = []
        self._wrapped: set[str] = set()

    # ---------------------------------------------------------- spans

    def open(self, name: str) -> list[Any]:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        span_id, name, start, child = frame
        self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, name, start, end, parent, self.op_id))
        self.self_s[name] += duration - child
        self.calls[name] += 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        signature = inspect.signature(fn)
        counters = COUNTERS.get(name, ())

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for counter, count in counters:
                    tracer.counts[counter] += count(bound.arguments)
            frame = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        return traced

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "nonnegsets"]
        for layer in LAYERS:
            mod = importlib.import_module(f"nonnegsets.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                own = inspect.isfunction(fn) and fn.__module__ == mod.__name__
                if not own or inspect.isgeneratorfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                self._wrapped.add(name)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._undo.append((other, key, value))
                            setattr(other, key, wrapper)
        family_cls = importlib.import_module("nonnegsets.setcore").SetFamily
        for method in SETFAMILY_METHODS:
            raw = family_cls.__dict__[method]
            name = f"setcore.SetFamily.{method}"
            self._wrapped.add(name)
            self._undo.append((family_cls, method, raw))
            if isinstance(raw, classmethod):
                setattr(family_cls, method, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(family_cls, method, self._wrap(name, raw))
        for names in list(SELF_TIME.values()) + [tuple(COUNTERS)]:
            for name in names:
                if name not in self._wrapped:
                    print(f"perfbench: {name} is not traced; its metric reads 0", file=sys.stderr)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # ---------------------------------------------------------- results

    def layer_metrics(self, rounds: int, out_bytes: int) -> dict[str, float]:
        """Per-layer metrics per traced round."""
        per = 1.0 / max(rounds, 1)
        metrics: dict[str, float] = {
            "cli.self_s": sum(v for k, v in self.self_s.items() if k.startswith("cli.")) * per,
            "cli.out_mb": out_bytes / 1e6 * per,
        }
        for metric, names in SELF_TIME.items():
            metrics[metric] = sum(self.self_s.get(name, 0.0) for name in names) * per
        counters = ("nonneg.subsets", "matching.vertices", "matching.edges", "ekrshift.pair_checks", "setcore.members")
        for counter in counters:
            metrics[counter] = self.counts.get(counter, 0) * per
        nonneg_self = sum(v for k, v in self.self_s.items() if k.startswith("nonneg."))
        metrics["nonneg.subsets_per_s"] = self.counts.get("nonneg.subsets", 0) / nonneg_self if nonneg_self else 0.0
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = sum(v for k, v in self.calls.items() if k.startswith(layer + ".")) * per
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                span = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                fh.write(json.dumps(span) + "\n")
