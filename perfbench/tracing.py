"""Layer wrappers installed from outside the package under test.

Every public function that marks a layer boundary is replaced, at every
module attribute bound to it, by a wrapper that counts calls and, in timed
mode, records a span. Bindings are found by identity, so a
``from .dynamics import adaptive_rk`` in another module is wrapped too.
A layer entered again from inside itself (``models.build`` calling
``build_vslq``) is not a new call. RHS evaluations are counted, and in
timed mode timed, in aggregate by wrapping the ``f`` handed to
``adaptive_rk``; they are not spans.

Count-only mode is what the timed end-to-end reps use: it keeps the
deterministic counters at the cost of one extra Python frame per call.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# layer name -> (module, attribute) of each function that marks it. Class
# attributes are given as "Class.method".
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "optimize.gradient": (("aqec.optimize", "gradient"),),
    "optimize.fidelity": (("aqec.optimize", "fidelity"),),
    "optimize.scan_reset_time": (("aqec.optimize", "scan_reset_time"),),
    "optimize.optimize_constant_coupling": (
        ("aqec.optimize", "optimize_constant_coupling"),),
    "optimize.vslq_fixed_lifetime": (("aqec.optimize", "vslq_fixed_lifetime"),),
    "dynamics.adaptive_rk": (("aqec.dynamics", "adaptive_rk"),),
    "dynamics.evolve_lindblad": (("aqec.dynamics", "evolve_lindblad"),),
    "dynamics.evolve_cycles": (("aqec.dynamics", "evolve_cycles"),),
    "dynamics.segment_propagator": (("aqec.dynamics", "segment_propagator"),),
    "dynamics.apply_propagator": (("aqec.dynamics", "apply_propagator"),),
    "dynamics.evolve_constant_lindblad": (
        ("aqec.dynamics", "evolve_constant_lindblad"),),
    "dynamics.steady_state": (("aqec.dynamics", "steady_state"),),
    "analysis.fit": (("aqec.analysis", "fit_lifetime"),
                     ("aqec.analysis", "fit_power_law")),
    "runner.point": (("aqec.runner", "_residual_point"),
                     ("aqec.runner", "_vslq_fixed_point")),
    "hilbert.observables": (("aqec.hilbert", "expectation"),
                            ("aqec.hilbert", "state_fidelity")),
    "runner.io": (("aqec.runner", "RunContext.write_csv"),
                  ("aqec.runner", "RunContext.write_json"),
                  ("aqec.runner", "RunContext.finish"),
                  ("aqec.runner", "save_pulse"),
                  ("aqec.dynamics", "trajectory_to_csv"),
                  ("aqec.dynamics", "dump_states")),
    "models.build": (("aqec.models", "build"),
                     ("aqec.models", "build_single_qubit"),
                     ("aqec.models", "build_three_qubit"),
                     ("aqec.models", "build_vslq")),
    "config.parse": (("aqec.config", "parse_config"),),
    "linalg.expm": (("scipy.linalg", "expm"),),
}



@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    layer: str
    span_id: int
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    """Counts (and with ``timed``, times) calls at every layer boundary."""

    timed: bool
    layers: dict[str, LayerStats] = field(default_factory=dict)
    hits: dict[str, int] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    rhs_calls: int = 0
    rhs_s: float = 0.0
    cycles: int = 0
    spans: list[tuple[int, int, str, float, float]] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every binding; aliases are searched in the loaded aqec modules."""
        searched = [m for name, m in list(sys.modules.items())
                    if name == "aqec" or name.startswith("aqec.")]
        for layer, targets in LAYERS.items():
            self.layers[layer] = LayerStats()
            for module_name, attr in targets:
                owner, name = _resolve_owner(module_name, attr)
                fn = getattr(owner, name, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patch(owner, name, layer, f"{module_name}.{attr}", fn)
                for mod in searched:
                    for alias, value in list(vars(mod).items()):
                        if value is fn and not (mod is owner and alias == name):
                            self._patch(mod, alias, layer,
                                        f"{mod.__name__}.{alias}", fn)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name: str, layer: str, binding: str, fn) -> None:
        self.hits[binding] = 0
        self._patched.append((owner, name, fn))
        setattr(owner, name, self._wrapper(fn, layer, binding))

    # --- wrappers -------------------------------------------------------

    def _wrapper(self, fn, layer: str, binding: str):
        stats = self.layers[layer]
        hits = self.hits
        stack = self._stack
        prepare = {"dynamics.adaptive_rk": self._wrap_rhs,
                   "dynamics.evolve_cycles": self._count_cycles}.get(layer)

        def wrapper(*args, **kwargs):
            hits[binding] += 1
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            frame = _Frame(layer, len(self.spans) + len(stack),
                           time.perf_counter() if self.timed else 0.0)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                stats.calls += 1
                if self.timed:
                    end = time.perf_counter()
                    dur = end - frame.start
                    stats.s += dur
                    stats.self_s += dur - frame.child_s
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent.child_s += dur
                    self.spans.append((frame.span_id,
                                       parent.span_id if parent else -1,
                                       layer, frame.start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_rhs(self, args, kwargs):
        if args:
            f, args = args[0], args[1:]
        else:
            f = kwargs.pop("f")
        if self.timed:
            def counted(t, y):
                self.rhs_calls += 1
                start = time.perf_counter()
                try:
                    return f(t, y)
                finally:
                    self.rhs_s += time.perf_counter() - start
        else:
            def counted(t, y):
                self.rhs_calls += 1
                return f(t, y)
        return (counted,) + tuple(args), kwargs

    def _count_cycles(self, args, kwargs):
        schedule = kwargs["schedule"] if "schedule" in kwargs else args[2]
        self.cycles += int(schedule.n_cycles)
        return args, kwargs

    # --- results --------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Deterministic work counters: identical on every run of one input."""
        out = {f"{name}.calls": st.calls for name, st in self.layers.items()}
        out["dynamics.rhs.calls"] = self.rhs_calls
        out["dynamics.cycles"] = self.cycles
        return out

    def timings(self) -> dict[str, dict[str, float]]:
        out = {name: {"calls": st.calls, "s": st.s, "self_s": st.self_s}
               for name, st in self.layers.items()}
        out["dynamics.rhs"] = {"calls": self.rhs_calls, "s": self.rhs_s,
                               "self_s": self.rhs_s}
        return out

    def span_records(self) -> list[dict]:
        return [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                for i, p, n, a, b in sorted(self.spans)]


def _resolve_owner(module_name: str, attr: str):
    """(object holding the attribute, attribute name), or (None, attr)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    return owner, name
