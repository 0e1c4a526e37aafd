"""Spans and counters around calls into optomech's public functions.

The tracer patches module attributes from outside the package, so the
program itself is unchanged. Spans (name, start, end, parent) and
counters are kept in memory and written to one JSON file at the end.
A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from optomech import backaction, coupling, mechanics, qba, runner, sensing

LAYERS = ("cli", "runner", "mechanics", "quadrature", "sensing", "coupling",
          "backaction", "qba")

# spans whose inclusive time is reported as `<name>.ms`
SPAN_TIMES = ("quadrature", "mechanics.effective_mass",
              "mechanics.thermal_spectrum", "mechanics.resonance_grid",
              "sensing.fit_response", "sensing.ResponseCurve.from_csv",
              "sensing.noise_budget", "coupling.fit_exponential",
              "coupling.ShiftCurve.from_csv", "coupling.coupling_rate",
              "backaction.linewidth_vs_coupling", "qba")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def start(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list):
        record[2] = time.perf_counter()
        self._stack.pop()

    def replace(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, size=None):
        """Wrap owner.attr in a span `name` and count its calls. With
        size = (suffix, fn), fn(result) is added to `<name>.<suffix>`.
        Class methods stay class methods."""
        func = getattr(owner, attr)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = self.start(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(record)
            self.counters[name + ".calls"] += 1
            if size is not None:
                self.counters[f"{name}.{size[0]}"] += size[1](result)
            return result

        if isinstance(owner.__dict__[attr], classmethod):
            self.replace(owner, attr, classmethod(
                lambda cls, *args, **kwargs: traced(*args, **kwargs)))
        else:
            self.replace(owner, attr, traced)

    def install(self):
        """Patch every traced optomech entry point."""
        c = self.counters
        self.patch(runner, "run_scenario", "runner.run_scenario")
        for attr in ("build_cavity", "build_oscillator", "build_geometry",
                     "build_drive", "build_mode", "build_grid"):
            self.patch(runner, attr, "runner.build")

        quadrature = mechanics.adaptive_quadrature

        def counted_quadrature(f, a, b, *args, **kwargs):
            def integrand(y):
                c["quadrature.integrand_evals"] += 1
                return f(y)
            return quadrature(integrand, a, b, *args, **kwargs)

        self.replace(mechanics, "adaptive_quadrature", counted_quadrature)
        self.patch(mechanics, "adaptive_quadrature", "quadrature")
        self.patch(mechanics, "effective_mass", "mechanics.effective_mass")

        for owner in (mechanics, sensing):
            self.patch(owner, "thermal_spectrum",
                       "mechanics.thermal_spectrum",
                       ("points", lambda r: r.frequencies.size))
        self.patch(mechanics, "resonance_grid", "mechanics.resonance_grid")

        self.patch(sensing, "fit_response", "sensing.fit_response")
        self.patch(sensing.ResponseCurve, "from_csv",
                   "sensing.ResponseCurve.from_csv",
                   ("rows", lambda r: r.frequencies_hz.size))
        self.patch(sensing, "noise_budget", "sensing.noise_budget")
        self.patch(coupling, "fit_exponential", "coupling.fit_exponential")
        self.patch(coupling.ShiftCurve, "from_csv",
                   "coupling.ShiftCurve.from_csv",
                   ("rows", lambda r: len(r.points)))
        self.patch(coupling, "coupling_rate", "coupling.coupling_rate")

        for owner, prefix in ((sensing, "sensing.fit_response"),
                              (coupling, "coupling.fit_exponential")):
            self.replace(owner, "least_squares",
                         _counted_least_squares(owner.least_squares, c,
                                                prefix))

        self.patch(backaction, "linewidth_vs_coupling",
                   "backaction.linewidth_vs_coupling", ("points", len))
        for attr in ("thermal_force_psd", "qba_force_psd",
                     "qba_thermal_ratio"):
            self.patch(qba, attr, "qba")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Inclusive ms per traced function (outermost calls only), self
        ms per span name and per layer."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_ms: dict[str, float] = defaultdict(float)
        layer_ms: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = (end - start - child[i]) * 1e3
            self_ms[name] += own
            layer_ms[name.split(".")[0]] += own
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += (end - start) * 1e3
        out = {f"{name}.ms": inclusive[name] for name in SPAN_TIMES}
        out["runner.run_scenario.self_ms"] = self_ms["runner.run_scenario"]
        out["runner.build.self_ms"] = self_ms["runner.build"]
        out.update({f"layer.{layer}.self_ms": layer_ms[layer]
                    for layer in LAYERS})
        return out

    def write(self, path: Path, extra: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra, counters=dict(self.counters),
                       spans=[{"name": n, "start": s, "end": e, "parent": p}
                              for n, s, e, p in self.spans])
        path.write_text(json.dumps(payload), encoding="utf-8")


def _counted_least_squares(least_squares, counters, prefix):
    def counted(*args, **kwargs):
        sol = least_squares(*args, **kwargs)
        counters[prefix + ".nfev"] += sol.nfev
        counters["fit.attempts"] += 1
        counters["fit.converged"] += sol.status > 0
        return sol
    return counted
