"""Nested spans around the public functions of bisurf's modules.

Installing the tracer replaces every public module-level function of the
layer modules, in its own module and in every bisurf namespace that imported
it, by a wrapper that records calls, inclusive time and self time (inclusive
time minus the time of the traced calls it made), aggregated per function and
per caller -> callee edge. Uninstalling puts the original functions back, so
an untraced round runs the program exactly as shipped.
"""

from __future__ import annotations

import inspect
import sys
import time
from functools import wraps

LAYERS = ("biparam", "segre", "zcomplex", "exactla", "tpoly", "matrixrep", "cli")


class Tracer:
    def __init__(self, hooks=None):
        # hooks: span name -> f(counts, args, result) adding exact counts
        self.hooks = hooks or {}
        self.spans = {}  # name -> [calls, inclusive s, self s]
        self.edges = {}  # (caller, callee) -> [calls, inclusive s]
        self.counts = {}
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                span = self.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += spent
                span[2] += spent - frame[1]
                caller = stack[-1][0] if stack else "-"
                edge = self.edges.setdefault((caller, name), [0, 0.0])
                edge[0] += 1
                edge[1] += spent
                if stack:
                    stack[-1][1] += spent
            if hook:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self, package="bisurf"):
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == package or n.startswith(package + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        setattr(ns, attr, traced)
                        self._patched.append((ns, attr, fn))

    def uninstall(self):
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched = []
