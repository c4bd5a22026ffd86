"""Spans and counters recorded around the public entry points of ``lbmf``.

The tracer replaces module attributes (``sim.run``, ``dispatch.field``, ...)
with wrappers for the duration of a traced run. The package calls its own
layers through those attributes (``ode`` calls ``dispatch.field``,
``systemtime`` calls ``ilt.talbot``), so nesting shows up without any change
to the package itself.

Every span keeps its name, start, end, parent and the time covered by its
children, in memory until the run ends. The two hot boundaries,
``dispatch.field`` and transform evaluations, are recorded as a count plus
total time instead of one span per call. A span's self time is its duration
minus its children's time; a layer's self time is the sum over its spans
plus its counted calls.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("sim", "dispatch", "ode", "stationary", "systemtime", "ilt", "model", "cli")

# (module, attribute) pairs wrapped with a span; the layer is the module name.
SPANNED = (
    ("cli", "main"), ("cli", "cmd_transient"), ("cli", "cmd_table"),
    ("cli", "cmd_dist"), ("cli", "cmd_jsqd_sweep"),
    ("model", "parse_config"), ("cli", "parse_config"),
    ("sim", "run"),
    ("ode", "integrate"), ("ode", "solve_to_stationarity"), ("ode", "rhs"),
    ("stationary", "solve"), ("stationary", "little"),
    ("systemtime", "mean_sojourn"), ("systemtime", "distribution"),
    ("systemtime", "transform"),
    ("ilt", "talbot"), ("ilt", "euler"),
)
# Counted instead of spanned, with their layers. Transform evaluations are
# the calls of the evaluators that systemtime.transform returns.
FIELD, EVAL = "dispatch.field", "systemtime.eval"
COUNTED = {FIELD: "dispatch", EVAL: "systemtime"}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_s", "work")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = self.child_s = 0.0
        self.work = 0  # events, steps or points, depending on the span

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Install with ``install()``; record only while ``enabled``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.count = Counter()       # counted boundary -> calls
        self.count_s = Counter()     # counted boundary -> seconds
        self.count_under = Counter()  # (counted boundary, enclosing layer) -> calls
        self.enabled = False
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, layer, fn, before=None, after=None):
        tracer = self

        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = Span(name, layer, parent)
            if before is not None:
                span.work = before(*args, **kwargs)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
                if parent >= 0:
                    tracer.spans[parent].child_s += span.duration
            if after is not None:
                span.work, result = after(result)
            return result

        return wrapped

    def _counted(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.count[name] += 1
                tracer.count_s[name] += dt
                if tracer.stack:
                    top = tracer.spans[tracer.stack[-1]]
                    top.child_s += dt
                    tracer.count_under[name, top.layer] += 1

        return wrapped

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the entry points of every lbmf module."""
        modules = {name: importlib.import_module(f"lbmf.{name}") for name in LAYERS}
        ode = modules["ode"]
        hooks = {
            "sim.run": (None, lambda res: (res.arrivals + res.completions, res)),
            "ode.integrate": (_with_args(ode.integrate, _integrate_steps), None),
            "ode.solve_to_stationarity": (
                _with_args(ode.solve_to_stationarity, _steps_per_check), None),
            "systemtime.transform": (None, lambda ev: (0, self._counted(EVAL, ev))),
            "ilt.talbot": (None, lambda out: (len(out), out)),
            "ilt.euler": (None, lambda out: (len(out), out)),
        }
        for mod, attr in SPANNED:
            target = modules[mod]
            fn = getattr(target, attr)
            # cli binds parse_config from model; record it under model.
            layer = "model" if attr == "parse_config" else mod
            name = f"{layer}.{attr}"
            self._saved.append((target, attr, fn))
            setattr(target, attr, self._span(name, layer, fn, *hooks.get(name, (None, None))))
        dispatch = modules["dispatch"]
        self._saved.append((dispatch, "field", dispatch.field))
        dispatch.field = self._counted(FIELD, dispatch.field)

    def uninstall(self):
        for target, attr, fn in reversed(self._saved):
            setattr(target, attr, fn)
        self._saved.clear()

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics over everything recorded; ``wall_s`` is the
        traced wall clock the spans were recorded in."""
        spans = self.spans
        self_s = dict.fromkeys(LAYERS, 0.0)
        for s in spans:
            self_s[s.layer] += s.self_s
        for name, layer in COUNTED.items():
            self_s[layer] += self.count_s[name]

        def named(name):
            return [s for s in spans if s.name == name]

        sims = named("sim.run")
        events = sum(s.work for s in sims)
        sim_incl = sum(s.duration for s in sims)

        ode_top = [s for s in spans if s.name in ("ode.integrate", "ode.solve_to_stationarity")]
        steps = sum(s.work for s in named("ode.integrate"))
        for i, s in enumerate(spans):
            if s.name == "ode.solve_to_stationarity":
                checks = sum(1 for c in spans if c.parent == i and c.name == "ode.rhs")
                steps += checks * s.work
        ode_incl = sum(s.duration for s in ode_top)
        fallback = sum(1 for s in named("ode.solve_to_stationarity")
                       if s.parent >= 0 and spans[s.parent].name == "stationary.solve")

        solves_ms = np.array([s.duration * 1e3 for s in named("stationary.solve")])
        fields = self.count[FIELD]
        evals = self.count[EVAL]

        m = {
            "sim.calls": len(sims),
            "sim.events": events,
            "sim.self_s": self_s["sim"],
            "sim.events_per_s": events / sim_incl if sim_incl else 0.0,
            "dispatch.field_calls": fields,
            "dispatch.field_us": 1e6 * self.count_s[FIELD] / fields if fields else 0.0,
            "dispatch.self_s": self_s["dispatch"],
            "ode.calls": len(ode_top),
            "ode.steps": steps,
            "ode.fields_per_step": (self.count_under[FIELD, "ode"] / steps
                                    if steps else 0.0),
            "ode.self_s": self_s["ode"],
            "ode.steps_per_s": steps / ode_incl if ode_incl else 0.0,
            "ode.fallback_calls": fallback,
            "stationary.calls": len(solves_ms),
            "stationary.self_s": self_s["stationary"],
            "stationary.solve_ms_p50": float(np.percentile(solves_ms, 50)) if len(solves_ms) else 0.0,
            "stationary.solve_ms_p90": float(np.percentile(solves_ms, 90)) if len(solves_ms) else 0.0,
            "systemtime.transform_evals": evals,
            "systemtime.eval_us": 1e6 * self.count_s[EVAL] / evals if evals else 0.0,
            "systemtime.self_s": self_s["systemtime"],
            "ilt.points": sum(s.work for s in spans if s.layer == "ilt"),
            "ilt.self_s": self_s["ilt"],
            "cli.self_s": self_s["cli"],
        }
        for layer in LAYERS:
            m[f"{layer}.share"] = self_s[layer] / wall_s
        m["trace.unattributed_frac"] = (wall_s - sum(self_s.values())) / wall_s
        m["trace.spans"] = len(spans)
        return m


def _with_args(fn, compute):
    """Hook calling ``compute`` on the call's arguments, defaults filled in."""
    sig = inspect.signature(fn)

    def before(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return compute(bound.arguments)

    return before


def _integrate_steps(a):
    """Outer steps of ``ode.integrate``, snapped the way the integrator does."""
    per_sample = max(1, round(a["sample_interval"] / a["dt"]))
    n_samples = int(a["horizon"] / a["sample_interval"] + 1e-9) + 1
    return (n_samples - 1) * per_sample


def _steps_per_check(a):
    """Steps of ``ode.solve_to_stationarity`` between residual checks; the
    number of checks is read off its ``ode.rhs`` child spans."""
    return max(1, round(a["check_interval"] / a["dt"]))
