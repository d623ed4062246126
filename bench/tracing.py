"""Per-layer tracing of ncqo by wrapping its functions from outside.

`Tracer.install` replaces each traced function, in every loaded ncqo
module that binds it, with a wrapper that records a span while the tracer
is active. Spans are folded into per-function totals as they close, so a
long run keeps no span list in memory.

Self time is a span's duration minus the part of it that its traced
children cover. Children may run on other threads (the `run_scan` worker
pool), so each span counts its open children and adds to its covered time
only while at least one is open: overlapping children count once.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

TRACED = {
    "scan": ("run_scan", "emit"),
    "states": ("build_state", "raw_coherent_coeffs", "perturbative_warning_indicator"),
    "deformation": ("coefficient_C", "amplitude_inv_f_factorial", "perturbed_eigenvector"),
    "beamsplitter": (
        "entropy_for_kind",
        "split_state",
        "reduced_density",
        "linear_entropy_oracle",
        "linear_entropy_closed",
    ),
    "observables": (
        "quad_moments_closed",
        "mandel_closed",
        "cat_validity_value",
        "quad_moments_oracle",
        "mandel_oracle",
        "metric_quadratures",
        "photon_distribution",
    ),
    "fock": ("quadratures", "expectation"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class _Span:
    __slots__ = ("parent", "start", "open_children", "cover_start", "covered")

    def __init__(self, parent, start):
        self.parent = parent
        self.start = start
        self.open_children = 0
        self.cover_start = 0.0
        self.covered = 0.0


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.states_built = 0
        self.cutoff_sum = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # a pool worker's outermost span belongs to the call open on the main thread
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            now = time.perf_counter()
            span = _Span(parent, now)
            if parent is not None:
                with tracer._lock:
                    if parent.open_children == 0:
                        parent.cover_start = now
                    parent.open_children += 1
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    if parent is not None:
                        parent.open_children -= 1
                        if parent.open_children == 0:
                            parent.covered += end - parent.cover_start
                    tracer.calls[name] += 1
                    tracer.self_s[name] += (end - span.start) - span.covered
            if name == "states.build_state":
                with tracer._lock:
                    tracer.states_built += 1
                    tracer.cutoff_sum += result.cutoff
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an ncqo module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ncqo" or n.startswith("ncqo.")]
        for mod_name, fns in TRACED.items():
            owner = sys.modules[f"ncqo.{mod_name}"]
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
