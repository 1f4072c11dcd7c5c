"""In-memory span tracer that wraps geomeans functions where their callers bind them.

Only the traced benchmark run installs it. Each wrapped call records one span
(layer, start, end, parent) and, through an optional count hook, adds to
named counters. The hooks run after the span has closed, and their time is
also taken out of every span still open, so counting never shows up as layer
time. The self time of a span is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.hook_s = 0.0
        self._stack = []

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, module, attr: str, layer: str | None, hook=None) -> None:
        """Replace module.attr by a wrapper.

        With a layer (named as the metric of its self time), each call is a
        span of that layer; without one the call is only counted. `hook(result, *args, **kwargs)` returns a dict of
        counter increments.
        """
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                span = {"layer": layer, "name": f"{module.__name__}.{attr}",
                        "parent": tracer._stack[-1] if tracer._stack else None,
                        "hook_at_start": tracer.hook_s}
                tracer.spans.append(span)
                tracer._stack.append(len(tracer.spans) - 1)
                span["start"] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span["end"] = perf_counter()
                    tracer._stack.pop()
                    span["duration"] = (span["end"] - span["start"]
                                        - (tracer.hook_s - span.pop("hook_at_start")))
            if hook is not None:
                start = perf_counter()
                for name, value in hook(result, *args, **kwargs).items():
                    tracer.count(name, value)
                tracer.hook_s += perf_counter() - start
            return result

        setattr(module, attr, wrapper)

    def self_times(self) -> dict:
        """Sums of span self times, by layer."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["duration"]
        out = {}
        for s, c in zip(self.spans, child):
            out[s["layer"]] = out.get(s["layer"], 0.0) + s["duration"] - c
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every pipeline layer at their binding sites."""
    from geomeans import cli, forward, fractional, inversion, spaces

    tracer.wrap(spaces, "boundary_grid", "spaces.boundary_grid.s",
                lambda bd, *a, **k: {"spaces.boundary_grid.centres": bd.m})

    # forward: the entry points the benchmark calls, forward_means as the
    # trace generators bind it, and the per-centre row builders as counters
    for name in ("forward_means", "epd_trace_euclidean", "epd_trace_sphere"):
        tracer.wrap(forward, name, "forward.self_s")
    for name in ("_exact_means_row", "forward_field_profile"):
        tracer.wrap(forward, name, None, lambda *a, **k: {"forward.profiles": 1})

    # fractional operators, as forward and inversion bind them
    calls = lambda *a, **k: {"fractional.calls": 1}
    for module in (forward, inversion):
        for name in ("ek_matrix", "ek_ac_matrix", "rl_matrix"):
            tracer.wrap(module, name, "fractional.s", calls)
    tracer.wrap(fractional, "quintic_interp", None,
                lambda r, values, grid, x, *a, **k: {
                    "fractional.interp_points": np.atleast_2d(values).shape[0] * x.size})

    # t-filters, as inversion and the fractional continuation bind them
    for module, names in ((inversion, ("d_operator_matrix", "darboux_L_matrix", "diff_matrix")),
                          (fractional, ("d_operator_matrix", "diff_matrix"))):
        for name in names:
            tracer.wrap(module, name, "numerics.filters.s")

    tracer.wrap(inversion, "log_kernel_table", "numerics.log_kernel_table.s",
                lambda r, profiles, grid, targets, *a, **k: {
                    "numerics.log_kernel_table.rows": np.atleast_2d(profiles).shape[0],
                    "numerics.log_kernel_table.targets": np.size(targets)})
    tracer.wrap(inversion, "laplacian_fd", "numerics.laplacian_fd.self_s",
                lambda r, field, x, h: {
                    "numerics.laplacian_fd.stencil_points": x.shape[0] * (2 * x.shape[1] + 1)})
    tracer.wrap(inversion, "backproject", "inversion.backproject.s", _backproject_counts)
    tracer.wrap(inversion, "invert", "inversion.invert.self_s")

    tracer.wrap(cli, "write_means", "cli.write_means.s",
                lambda r, data, path: {"cli.means_bytes": os.path.getsize(path)})
    tracer.wrap(cli, "read_means", "cli.read_means.s")
    tracer.wrap(cli, "write_report", "cli.write_report.s")


def _backproject_counts(result, boundary, grid, F, x, *args, **kwargs):
    points = np.atleast_2d(x).shape[0]
    distinct = len({row.tobytes() for row in np.atleast_2d(F)})
    return {
        "inversion.backproject.calls": 1,
        "inversion.backproject.points": points,
        "inversion.backproject.gathers": boundary.m * points,
        "inversion.backproject.distinct_rows": distinct,
    }
