"""Span tracer for the benchmark's traced run.

It wraps milburnsim's public callables from outside the package, so the
library itself carries no timing code.  Each wrapped call is a span; a
span's self time is its duration minus the time of the spans it caused.

Layers are the package's modules.  Every public function defined in one
of ``MODULES`` is wrapped and the wrapper is rebound in every
``milburnsim`` module namespace that holds the original, because
``cli`` imports most callables by name.  Methods of the classes named in
``CLASSES`` are patched on the class; the span of ``__init__`` carries the
class name.  A callable that does not exist simply records no spans, so
a metric named after it reads 0.
"""

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

PACKAGE = "milburnsim"
MODULES = ("fock", "params", "hamiltonians", "dynamics", "observables", "cli")
CLASSES = {"dynamics": ("SpectralPropagator",)}


def _argument(sig, args, kwargs, name):
    try:
        return sig.bind_partial(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _csv_bytes(counts, sig, args, kwargs, result):
    path = _argument(sig, args, kwargs, "path")
    if path is not None:
        counts["cli.write_csv.bytes"] += os.path.getsize(path)


def _poisson_kicks(counts, sig, args, kwargs, result):
    m_lo, m_hi = result
    counts["dynamics.kicks"] += m_hi - m_lo + 1


def _rk4_steps(counts, sig, args, kwargs, result):
    t = _argument(sig, args, kwargs, "t")
    dt = _argument(sig, args, kwargs, "dt")
    if t is not None and dt:
        # the step count lindblad_first_order_evolve derives from t and dt
        counts["dynamics.rk4_steps"] += max(1, int(math.ceil(t / dt)))


def _evolve_flop(counts, sig, args, kwargs, result):
    # two basis changes of two dense complex n x n products each; one
    # complex multiply-add is 8 real flops
    n = result.shape[0]
    counts["dynamics.SpectralPropagator.evolve.flop"] += 4 * 8 * n**3


# extra counters, keyed by span name; each runs after its span has closed
HOOKS = {
    "cli.write_csv": _csv_bytes,
    "dynamics.poisson_window": _poisson_kicks,
    "dynamics.lindblad_first_order_evolve": _rk4_steps,
    "dynamics.SpectralPropagator.evolve": _evolve_flop,
}


class Tracer:
    """Accumulates calls, self time and counters per span name.

    ``install`` patches the loaded package; ``uninstall`` restores every
    original.  Use ``with tracer:`` around the calls to trace.
    """

    def __init__(self):
        self._stack = []
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - child[0]
                if stack:
                    stack[-1][0] += duration
            if hook:
                hook(self.counts, sig, args, kwargs, result)
            return result

        return traced

    def _patch(self, namespace, attr, original, wrapper):
        self._patches.append((namespace, attr, original))
        setattr(namespace, attr, wrapper)

    def install(self):
        loaded = [m for n, m in list(sys.modules.items())
                  if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short in MODULES:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for ns in loaded:
                    for name, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, name, obj, wrapper)
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(mod, cls_name, None)
                if not inspect.isclass(cls):
                    continue
                for attr, obj in list(vars(cls).items()):
                    if not inspect.isfunction(obj):
                        continue
                    if attr == "__init__":
                        span = f"{short}.{cls_name}"
                    elif not attr.startswith("_"):
                        span = f"{short}.{cls_name}.{attr}"
                    else:
                        continue
                    self._patch(cls, attr, obj, self._wrap(span, obj))

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
