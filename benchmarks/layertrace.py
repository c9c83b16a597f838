"""Per-layer timing of protofilter from outside the library.

While a :class:`LayerTrace` is active, each mapped function is replaced,
under the name its caller looks it up by, with a wrapper that records a
span: call count, wall time, and self time (wall time minus the time of
the mapped calls made inside it).  Leaving the context restores every
original.  A mapped name the library no longer has is listed in
``missing`` and reports zero calls; the run goes on.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from functools import wraps

# (module, attribute, group).  The module is the one whose global or
# package attribute the caller resolves at call time, so the wrapper sits
# exactly on the boundary between two layers.
TARGETS = (
    ("protofilter", "evaluate", "harness"),
    ("protofilter", "lambda_sweep", "harness"),
    ("protofilter", "train", "training"),
    ("protofilter.harness", "evaluate", "harness"),
    ("protofilter.harness", "build_episode", "harness"),
    ("protofilter.harness", "sample_episode", "data"),
    ("protofilter.harness", "classify_episode", "classifier"),
    ("protofilter.training", "sample_training_batch", "training"),
    ("protofilter.training", "episodes_loss", "training"),
    ("protofilter.training", "finite_difference_gradient", "training.fd"),
    ("protofilter.training", "sample_episode", "data"),
    ("protofilter.training", "classify_episode", "classifier"),
    ("protofilter.classifier", "gram_support", "kernels"),
    ("protofilter.classifier", "gram_query", "kernels"),
    ("protofilter.classifier", "center_support", "centering"),
    ("protofilter.classifier", "center_cross", "centering"),
    ("protofilter.classifier", "centered_query_norm", "centering"),
    ("protofilter.classifier", "symmetric_eig", "spectral.eig"),
    ("protofilter.classifier", "resolve_lambda", "spectral.filter"),
    ("protofilter.classifier", "filter_matrix", "spectral.filter"),
    ("protofilter.classifier", "shrinkage_coefficients", "classifier.distance"),
    ("protofilter.classifier", "distance_sq", "classifier.distance"),
    ("protofilter.classifier", "class_probabilities", "classifier.softmax_loss"),
    ("protofilter.classifier", "episode_loss", "classifier.softmax_loss"),
)

#: Groups whose wrappers also count the kernel values their results hold.
VALUE_COUNTED = frozenset({"kernels"})


def _value_count(result) -> int:
    parts = result if isinstance(result, tuple) else (result,)
    return sum(int(getattr(p, "size", 1)) for p in parts)


class _Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name: str, span_id: int) -> None:
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0


class LayerTrace:
    """Context manager installing the wrappers; holds the recorded spans.

    Every call is aggregated; spans are kept verbatim only for request 0
    (the benchmark's first call), so their number stays bounded.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.values: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.request = 0
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTrace":
        for module_name, attr, group in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, group))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, group: str):
        counts_values = group in VALUE_COUNTED
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = _Frame(name, self._next_id)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame.child_s
                parent_name = parent.name if parent else "<benchmark>"
                edge = self.edges.setdefault((parent_name, name), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
                if parent is not None:
                    parent.child_s += elapsed
                if self.request == 0:
                    self.spans.append((self.request, frame.span_id,
                                       parent.span_id if parent else 0, name, start, end))
            if counts_values:
                self.values[name] += _value_count(result)
            return result

        return traced

    def group_sum(self, table: dict, group: str):
        """Sum of ``table`` over the mapped functions of one group."""
        zero = table.default_factory()
        return sum((table.get(f"{m}.{a}", zero) for m, a, g in TARGETS if g == group), zero)

    def report(self) -> dict:
        """Per-function and per-edge aggregates, for the run's info line."""
        return {
            "missing": list(self.missing),
            "functions": {
                f"{m}.{a}": {
                    "group": g,
                    "calls": self.calls.get(f"{m}.{a}", 0),
                    "total_s": self.total_s.get(f"{m}.{a}", 0.0),
                    "self_s": self.self_s.get(f"{m}.{a}", 0.0),
                }
                for m, a, g in TARGETS
            },
            "edges": [
                {"parent": p, "child": c, "calls": n, "total_s": t}
                for (p, c), (n, t) in sorted(self.edges.items())
            ],
            "spans_kept": len(self.spans),
        }

    def span_records(self):
        """Kept spans as dicts; ``request`` is the benchmark call index and
        ``parent`` 0 marks a span entered from the benchmark itself."""
        for request, span_id, parent, name, start, end in self.spans:
            yield {"request": request, "id": span_id, "parent": parent, "name": name,
                   "start_s": start, "end_s": end}
