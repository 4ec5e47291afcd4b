"""In-memory span tracing around the public functions the runner calls.

Nothing under ``src/`` is instrumented: ``Tracer.install`` replaces each
target function, in every loaded ``stratacast`` module that binds it, with a
wrapper that opens a span, and ``Tracer.uninstall`` puts the originals back.
Spans carry a name, start, end, parent span, the (strategy, seed) cell they
ran in, whether the call raised, and shape-derived counts.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time

ROOT = "experiment.run"

# (defining module, function) -> span name; the name's prefix is the layer.
TARGETS = {
    ("stratacast.synthetic", "generate"): "synthetic.generate",
    ("stratacast.dataset", "load_dataset"): "dataset.load_dataset",
    ("stratacast.dataset", "fit_standardization"): "dataset.fit_standardization",
    ("stratacast.dataset", "standardize"): "dataset.standardize",
    ("stratacast.dataset", "split_time_indices"): "dataset.split_time_indices",
    ("stratacast.dataset", "valid_init_times"): "dataset.valid_init_times",
    ("stratacast.selection", "run_strategy"): "selection.run_strategy",
    ("stratacast.selection", "pca_features"): "features.pca_features",
    ("stratacast.selection", "kmeans"): "selection.kmeans",
    ("stratacast.forecast", "train"): "forecast.train",
    ("stratacast.forecast", "rollout"): "forecast.rollout",
    ("stratacast.metrics", "evaluate_forecast"): "metrics.evaluate_forecast",
}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    cell: str | None
    start: float
    end: float = float("nan")
    failed: bool = False
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _args(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _run_strategy_attrs(a: dict) -> dict:
    return {"strategy": str(a["name"]), "seed": int(a["seed"])}


def _train_attrs(a: dict) -> dict:
    return {"kind": str(a["spec"].kind)}


def _rollout_attrs(a: dict) -> dict:
    n_inits = len(a["init_indices"])
    return {
        "kind": getattr(a["forecaster"], "kind", None),
        "member_steps": n_inits * int(a["n_members"]) * int(a["n_steps"]),
        "state_size": int(a["ds"].data[0].size),
    }


def _evaluate_attrs(a: dict) -> dict:
    n_init, m, _, n_var, n_lat, n_lon = a["forecast"].trajectories.shape
    pairs = m * (m - 1) // 2 * n_init * n_lat * n_lon * n_var * len(a["leads_days"])
    return {"crps_pairs": int(pairs)}


# Span name -> function of the bound call arguments giving the span's attrs.
ATTRS = {
    "selection.run_strategy": _run_strategy_attrs,
    "forecast.train": _train_attrs,
    "forecast.rollout": _rollout_attrs,
    "metrics.evaluate_forecast": _evaluate_attrs,
}


class Tracer:
    """Collects spans in memory; install/uninstall swap the wrappers in and out."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._cell: str | None = None
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        if name == "selection.run_strategy" and attrs:
            self._cell = f"{attrs['strategy']}/{attrs['seed']}"
        span = Span(len(self.spans), name, parent, self._cell, time.perf_counter(),
                    attrs=attrs or {})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, failed: bool) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn, sig, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        attrs = None
        if name in ATTRS:
            try:
                attrs = ATTRS[name](_args(sig, args, kwargs))
            except (TypeError, KeyError, AttributeError, ValueError) as e:
                attrs = {"attr_error": repr(e)}
        span = self.open(name, attrs)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.close(span, failed=not ok)

    def begin_run(self) -> Span:
        self._cell = None
        return self.open(ROOT)

    # -- wrapping ----------------------------------------------------------
    def _wrapper(self, name: str, fn):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            return self.call(name, fn, sig, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "stratacast" or k.startswith("stratacast."))]
        self.missing = []
        for (mod_name, attr), span_name in TARGETS.items():
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrapper(span_name, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            mod, key, fn = self._patched.pop()
            setattr(mod, key, fn)

    def records(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def children(spans: list[Span], parent: Span) -> list[Span]:
    return [s for s in spans if s.parent == parent.id]


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(spans: list[Span], span: Span) -> float:
    """The span's duration minus the part of it its children cover."""
    kids = [(max(c.start, span.start), min(c.end, span.end)) for c in children(spans, span)]
    return span.duration - covered(kids)


def outermost(spans: list[Span], names: set[str], keep=lambda s: True) -> list[Span]:
    """Spans named in ``names`` (and passing ``keep``) with no ancestor of those names."""
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name in names:
                return True
            p = by_id[p].parent
        return False

    return [s for s in spans if s.name in names and keep(s) and not nested(s)]
