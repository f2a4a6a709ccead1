"""Per-module spans and counters, installed from outside the package.

Every public function of every `wavereg` module is replaced by a wrapper
that records a span: its duration, minus the time its child spans cover,
is charged to the defining module as self time.  `from .spectral import
multiply` binds a second name to the same function object, so the wrapper
is installed under every name that points at the original, in every
`wavereg` module.

`SpectralField` constructions and FFTs are counted, not spanned, so that
tracing stays affordable: a picard run builds about half a million fields.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# layer -> the per-call counts reported for it, as (metric, function names)
CALL_COUNTS = {
    "spectral": (("multiply_calls", ("multiply",)),),
    "model": (("q_apply_calls", ("q_apply",)), ("energy_calls", ("energy",))),
    "normalform": (
        ("reduced_rhs_calls", ("reduced_rhs",)),
        ("to_normal_coords_calls", ("to_normal_coords",)),
        ("apply_M_calls", ("apply_M",)),
    ),
    "integrate": (("step_calls", ("step_full", "step_reduced")),),
    "jets_ibp": (("f_n_calls", ("f_n",)),),
    "experiments": (("make_datum_calls", ("make_datum",)),),
}
LAYERS = ("spectral", "model", "normalform", "integrate", "quadrature",
          "jets_ibp", "experiments", "cli")
_FFT_NAMES = ("fft", "ifft", "rfft", "irfft")
_STEP_NAMES = ("step_full", "step_reduced")
_TERMINATED = ("blowup", "diverged")


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)  # module -> self time
        self.calls = Counter()  # "module.function" -> calls
        self.root_s = 0.0  # summed duration of spans with no parent span
        self.field_constructions = 0
        self.fft_calls = 0
        self.fft_points = 0
        self.accepted_steps = 0
        self.bisection_probes = 0
        self._stack = []  # [module, time covered by child spans]
        self._solves = []  # per open solve: [distinct step start times, calls, last t]

    # -- spans ------------------------------------------------------------

    def span(self, module: str, name: str, fn):
        key = f"{module}.{name}"
        stack = self._stack

        def traced(*args, **kwargs):
            self.calls[key] += 1
            frame = [module, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.self_s[module] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration

        return traced

    # -- integrator bookkeeping --------------------------------------------

    def step_hook(self, fn):
        """Classify each step by its start time: inside one solve, a step
        that starts where the previous one started is a bisection probe."""
        signature = inspect.signature(fn)

        def hooked(*args, **kwargs):
            if self._solves:
                bound = signature.bind(*args, **kwargs).arguments
                t = bound.get("t")
                if t is None:  # the reduced stepper reads t from its state
                    t = next(v.t for v in bound.values() if hasattr(v, "t"))
                record = self._solves[-1]
                record[1] += 1
                if record[2] is None or t != record[2]:
                    record[0] += 1
                    record[2] = t
            return fn(*args, **kwargs)

        return hooked

    def solve_hook(self, fn):
        def hooked(*args, **kwargs):
            self._solves.append([0, 0, None])
            try:
                trajectory = fn(*args, **kwargs)
            finally:
                distinct, calls, _ = self._solves.pop()
            # the last distinct step of a stopped run was never accepted
            stopped = trajectory.terminal_status in _TERMINATED and distinct > 0
            self.accepted_steps += distinct - (1 if stopped else 0)
            self.bisection_probes += calls - distinct
            return trajectory

        return hooked

    # -- counters -----------------------------------------------------------

    def count_fields(self, init):
        def counted(obj, *args, **kwargs):
            self.field_constructions += 1
            return init(obj, *args, **kwargs)

        return counted

    def count_fft(self, fn):
        def counted(a, n=None, axis=-1, *args, **kwargs):
            shape = np.shape(a)
            self.fft_calls += 1
            self.fft_points += (n or shape[axis]) * (math.prod(shape) // shape[axis])
            return fn(a, n, axis, *args, **kwargs)

        return counted


def install(tracer: Tracer):
    """Import `wavereg.cli` (and through it every module), then wrap.

    Returns the `wavereg.cli` module whose `main` is now traced."""
    cli = importlib.import_module("wavereg.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("wavereg.") and m is not None]

    replacement = {}
    for module in modules:
        layer = module.__name__.split(".", 1)[1]
        for name, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                wrapped = obj
                if layer == "integrate" and name in _STEP_NAMES:
                    wrapped = tracer.step_hook(wrapped)
                if layer == "integrate" and name == "solve":
                    wrapped = tracer.solve_hook(wrapped)
                replacement[id(obj)] = (obj, tracer.span(layer, name, wrapped))

    import scipy.fft
    for fft_module in (np.fft, scipy.fft):
        for name in _FFT_NAMES:
            original = getattr(fft_module, name)
            counted = tracer.count_fft(original)
            setattr(fft_module, name, counted)
            replacement[id(original)] = (original, counted)

    for module in modules:
        for name, obj in list(vars(module).items()):
            hit = replacement.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])

    field_class = sys.modules["wavereg.spectral"].SpectralField
    field_class.__init__ = tracer.count_fields(field_class.__init__)
    return cli


def cache_entries() -> int:
    """Entries held by the integrator's module-level propagator caches."""
    integrate = sys.modules["wavereg.integrate"]
    total = 0
    for name, obj in vars(integrate).items():
        if isinstance(obj, dict) and "CACHE" in name.upper():
            total += len(obj)
        elif hasattr(obj, "cache_info"):
            total += obj.cache_info().currsize
    return total


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """The per-module metrics of one traced run, keyed by metric name."""
    out = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0) for layer in LAYERS}
    for layer, counts in CALL_COUNTS.items():
        for metric, names in counts:
            out[f"{layer}.{metric}"] = sum(tracer.calls[f"{layer}.{n}"] for n in names)
    out["spectral.field_constructions"] = tracer.field_constructions
    out["spectral.fft_calls"] = tracer.fft_calls
    out["spectral.fft_points"] = tracer.fft_points
    out["quadrature.calls"] = sum(
        count for key, count in tracer.calls.items() if key.startswith("quadrature."))
    out["integrate.accepted_steps"] = tracer.accepted_steps
    out["integrate.bisection_probes"] = tracer.bisection_probes
    out["integrate.propagator_cache_entries"] = cache_entries()
    out["cli.bytes_written"] = bytes_written
    return out
