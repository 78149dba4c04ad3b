"""Per-module spans recorded from outside the package.

``Tracer`` replaces each traced function with a timing wrapper at every name
the package looks it up by (``lowerbound.grid_golden_max`` as well as
``_search.grid_golden_max``, ``cli.lower_bound`` as well as
``lowerbound.lower_bound``, and so on) and puts the originals back when the
``with`` block ends. Spans (name, start, end, parent, op id) are kept in memory
in flat arrays and written out once, by ``save``.

Self time is a span's duration minus the time its traced children cover. The
private objective evaluators that ``_search`` calls back into are traced too,
and their time is credited to the nearest enclosing traced function of their
own module: evaluating the upper-bound objective is upper-bound work even when
the golden-section loop asks for it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (module, function) pairs reported as per-layer metrics.
REPORTED = (
    ("cli", "main"),
    ("lowerbound", "lower_bound"),
    ("lowerbound", "optimal_shift_two_class"),
    ("lowerbound", "optimal_shift_numeric"),
    ("_search", "grid_golden_max"),
    ("_search", "golden_max"),
    ("moments", "is_feasible"),
    ("moments", "sequence_rank"),
    ("moments", "max_shared_mass"),
    ("moments", "shift_moments"),
    ("moments", "recover_atoms"),
    ("upperbound", "upper_bound"),
    ("gaussian", "gaussian_pair_bayes_error"),
    ("witness", "verify_witness"),
    ("witness", "build_witness"),
    ("witness", "discrete_bayes_error"),
)

#: callbacks whose time belongs to the enclosing function of their module.
CREDITED = (
    ("lowerbound", "_objective_vec"),
    ("upperbound", "_worst_error_vec"),
)

PACKAGE = "momentbounds"


def metric_prefix(module: str, func: str) -> str:
    """Metric name prefix; metric names cannot start with '_'."""
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    """Timing wrappers plus the span arrays and per-function totals."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in REPORTED + CREDITED]
        self.module_of = [m for m, _ in REPORTED + CREDITED]
        self.reported = len(REPORTED)
        count = len(self.names)
        self.calls = [0] * count
        self.errors = [0] * count
        self.self_ns = [0] * count
        self.total_ns = [0] * count
        self.active = [0] * count
        self.probes_under_shared_mass = 0
        self.op = -1
        # span columns
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._stack: list[list[int]] = []  # open spans: [index, name id, children's ns]
        self._saved: list[tuple[object, str, object]] = []
        self._is_feasible = self.names.index("moments.is_feasible")
        self._shared_mass = self.names.index("moments.max_shared_mass")

    # -- installation -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = {name: mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        for nid, (m, f) in enumerate(REPORTED + CREDITED):
            original = getattr(mods[f"{PACKAGE}.{m}"], f)
            wrapper = self._wrap(nid, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, nid: int, fn):
        clock = time.perf_counter_ns
        credited = nid >= self.reported
        stack, active, calls = self._stack, self.active, self.calls
        errors, self_ns, total_ns = self.errors, self.self_ns, self.total_ns
        name_append, parent_append = self.span_name.append, self.span_parent.append
        op_append, start_append = self.span_op.append, self.span_start.append
        span_end = self.span_end
        probe = nid == self._is_feasible
        shared_mass = self._shared_mass

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_end)
            name_append(nid)
            parent_append(stack[-1][0] if stack else -1)
            op_append(self.op)
            span_end.append(0)
            frame = [idx, nid, 0]
            stack.append(frame)
            active[nid] += 1
            if probe and active[shared_mass]:
                self.probes_under_shared_mass += 1
            start = clock()
            start_append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                end = clock()
                span_end[idx] = end
                stack.pop()
                active[nid] -= 1
                span = end - start
                calls[nid] += 1
                if not active[nid]:  # outermost of a recursion: count its span once
                    total_ns[nid] += span
                owner = self._owner(nid) if credited else nid
                self_ns[nid if owner is None else owner] += span - frame[2]
                if stack:
                    stack[-1][2] += span

        return wrapper

    def _owner(self, nid: int) -> int | None:
        module = self.module_of[nid]
        for _, parent, _ in reversed(self._stack):
            if parent < self.reported and self.module_of[parent] == module:
                return parent
        return None

    # -- results ------------------------------------------------------------------

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, self_ms, total_ms and errors of each reported function."""
        out = {}
        for nid, (m, f) in enumerate(REPORTED):
            out[metric_prefix(m, f)] = {
                "calls": self.calls[nid],
                "self_ms": self.self_ns[nid] / 1e6,
                "total_ms": self.total_ns[nid] / 1e6,
                "errors": self.errors[nid],
            }
        return out

    def save(self, path) -> None:
        """Write the spans as one compressed NumPy archive."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            start_ns=np.frombuffer(self.span_start, np.int64),
            end_ns=np.frombuffer(self.span_end, np.int64),
            parent=np.frombuffer(self.span_parent, np.int64),
            op=np.frombuffer(self.span_op, np.int32))
