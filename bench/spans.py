"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

The recorder wraps public functions of the cohgeom modules from outside the
program.  A function is replaced in every cohgeom module namespace that binds
it, because ``pullback`` and ``cli`` import from ``states`` (and others) by
name.  Spans ``(name, start, end, parent)`` are kept in memory and written out
once, when the repetition ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# span names whose function is bound under another name in its module
ATTRIBUTES = {
    "berezin.symbol_at_disc": "_symbol_at_disc",
    "cli.report_all": "cmd_report_all",
}

# modules measured as one layer: every public function they define is
# wrapped, and the layer's metrics count the calls that enter it from outside
WHOLE_LAYERS = ("sut",)

# the per-layer metrics reported, in BENCHMARK.json order
METRICS = (
    "berezin.disc_inner.calls", "berezin.disc_inner.s",
    "berezin.roots_jacobi.calls", "berezin.roots_jacobi.s",
    "berezin.basis_psi.calls", "berezin.basis_psi.s",
    "berezin.gram_matrix.calls", "berezin.gram_matrix.s",
    "berezin.toeplitz_operator.calls", "berezin.toeplitz_operator.s",
    "berezin.halfplane_inner.calls", "berezin.halfplane_inner.s",
    "berezin.symbol_at_disc.calls", "berezin.symbol_at_disc.s",
    "berezin.correspondence_report.calls", "berezin.correspondence_report.s",
    "berezin.correspondence_report.self_s",
    "states.kernel_vector.calls", "states.kernel_vector.s",
    "states.squeezed_vacuum.calls", "states.squeezed_vacuum.s",
    "states.su2_squeezed_vacuum.calls",
    "states.wh_displacement.calls", "states.wh_displacement.s",
    "states.su2_displacement.calls", "states.su2_displacement.s",
    "states.wh_coherent.calls",
    "states.su11_coherent.calls",
    "states.truncation_dim.calls", "states.truncation_dim.s",
    "pullback.pullback_form.calls", "pullback.pullback_form.s",
    "pullback.pullback_form.self_s",
    "pullback.family_state.calls", "pullback.family_state.s",
    "pullback.analytic_tangent.calls", "pullback.analytic_tangent.s",
    "pullback.analytic_tangent.self_s",
    "pullback.expm_frechet.calls", "pullback.expm_frechet.s",
    "pullback.numeric_tangent.calls", "pullback.numeric_tangent.s",
    "pullback.squeeze_prefactor.calls", "pullback.squeeze_prefactor.s",
    "pullback.closed_form.calls",
    "pullback.kahler_verdict.calls", "pullback.kahler_verdict.s",
    "statespace.project_orthogonal.calls", "statespace.project_orthogonal.s",
    "statespace.inner.calls",
    "uncertainty.quadrature_pair.calls",
    "uncertainty.moments.calls", "uncertainty.moments.s",
    "uncertainty.rs_report.calls", "uncertainty.rs_report.s",
    "uncertainty.min_uncertainty_residual.calls",
    "uncertainty.min_uncertainty_residual.s",
    "sut.calls", "sut.s",
    "prequant.dirac_residual.calls", "prequant.dirac_residual.s",
    "prequant.commutator_apply.calls",
    "prequant.flow_generator_residual.calls",
    "prequant.flow_generator_residual.s",
    "prequant.potential_residual.calls",
    "cli.report_all.s", "cli.report_all.self_s",
    "cli.write_report.s",
)


def unit(metric: str) -> str:
    return "count" if metric.endswith(".calls") else "s"


class Recorder:
    """Wraps the traced functions and records one span per call.

    Single-threaded: the parent of a span is the innermost span open when it
    starts.  ``uninstall`` restores every replaced binding.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = clock()

        return traced

    def install(self) -> "Recorder":
        modules = {name[len("cohgeom."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("cohgeom.")}
        targets = {}
        for span_name in {m.rsplit(".", 1)[0] for m in METRICS} - set(WHOLE_LAYERS):
            mod, attr = span_name.split(".")
            fn = getattr(modules[mod], ATTRIBUTES.get(span_name, attr))
            targets[id(fn)] = span_name
        for layer in WHOLE_LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets[id(fn)] = f"{layer}.{attr}"
        wrappers = {}
        for mod in list(modules.values()) + [sys.modules["cohgeom"]]:
            for attr, obj in list(vars(mod).items()):
                name = targets.get(id(obj))
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one repetition, derived from its spans.

    ``<name>.calls`` counts the spans; ``<name>.s`` is their inclusive time,
    counting a span only when no enclosing span has the same name, so
    recursion is not counted twice; ``<name>.self_s`` subtracts the time of
    direct child spans.  For a whole layer (``sut``) the calls and time are
    those of spans entering the layer from outside it.
    """
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer in WHOLE_LAYERS:
            if parent >= 0 and spans[parent][0].startswith(layer + "."):
                continue
            name = layer
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != spans[i][0]:
            p = spans[p][3]
        if p < 0:
            incl[name] = incl.get(name, 0.0) + (end - start)
    out = {}
    for metric in METRICS:
        name, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = calls.get(name, 0)
        elif kind == "s":
            out[metric] = incl.get(name, 0.0)
        else:
            out[metric] = self_s.get(name, 0.0)
    return out
