"""In-memory span tracer that wraps perispec's public functions from outside.

``Tracer.install()`` scans each traced module for the public functions it
defines and replaces every attribute of every loaded ``perispec`` module that
refers to one of them (``from .energy import x`` copies included). Nothing
under ``src/`` changes, and a renamed or merged entry point is traced under
its new name instead of breaking the benchmark.

A span is ``[name, start, end, parent]`` with ``perf_counter`` seconds and
the index of the enclosing span (-1 at top level). Layer self time is a
span's duration minus its direct children's, so nested public calls (for
example ``energy_total`` calling ``fractional_energy``) are not counted twice.

With ``memory`` on, tracemalloc runs around each cold call (the call that
builds a tableau) to measure the memory it retains. tracemalloc slows those
calls down several times, so the benchmark measures memory and time in
separate draws.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc

LAYERS = ("mesh", "energy", "eigensolver", "kernelmath", "harness")

# Unit of each metric that Tracer.metrics() returns.
UNITS = {
    "energy.eval_calls": "count",
    "energy.grad_calls": "count",
    "energy.eval_ms": "ms",
    "energy.grad_ms": "ms",
    "energy.self_s": "s",
    "energy.cold_calls": "count",
    "energy.cold_excess_s": "s",
    "energy.tableau_mb": "MB",
    "eigensolver.outer_iters": "count",
    "eigensolver.inner_iters": "count",
    "eigensolver.evals_per_inner": "ratio",
    "eigensolver.recoveries": "count",
    "eigensolver.max_residual": "1",
    "eigensolver.self_s": "s",
    "eigensolver.assemble_s": "s",
    "eigensolver.p2_self_s": "s",
    "mesh.self_s": "s",
    "kernelmath.self_s": "s",
    "harness.self_s": "s",
    "harness.report_s": "s",
}


def _tableau_key(args, kwargs):
    """(mesh fingerprint, s, p, delta) when a call carries a mesh and kernel params."""
    fingerprint = params = None
    for a in (*args, *kwargs.values()):
        if params is None and all(hasattr(a, k) for k in ("s", "p", "delta")):
            params = a
        elif fingerprint is None:
            mesh = getattr(a, "mesh", a)
            fingerprint = getattr(mesh, "fingerprint", None)
    if fingerprint is None or params is None:
        return None
    return (fingerprint, params.s, params.p, params.delta)


def _eigenpairs(result):
    """The eigenpair objects in a solver result (one pair or a list of pairs)."""
    items = result if isinstance(result, (list, tuple)) else [result]
    return [r for r in items if hasattr(r, "residual") and hasattr(r, "iterations")]


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []      # [qualified name, start, end, parent]
        self.keys = {}       # span index -> tableau key of the call
        self.cold = {}       # span index -> bytes retained by a cold call
        self.pairs = {}      # span index -> eigenpairs an eigensolver call returned
        self._stack = []
        self._seen = set()
        self._holder = {}    # key -> open span that will build its tableau
        self._baseline = 0
        self._originals = {}

    def _enter_key(self, key, idx):
        """Track which call of a new key builds its tableau: the innermost one."""
        if key not in self._seen:
            self._seen.add(key)
            self._holder[key] = idx
            if self.memory and not tracemalloc.is_tracing():
                tracemalloc.start()
                self._baseline = 0
        elif self._holder.get(key) in self._stack:
            self._holder[key] = idx
            if tracemalloc.is_tracing():
                self._baseline = tracemalloc.get_traced_memory()[0]

    def _exit_key(self, key, idx):
        if self._holder.get(key) != idx:
            return
        del self._holder[key]
        retained = 0
        if tracemalloc.is_tracing():
            retained = tracemalloc.get_traced_memory()[0] - self._baseline
            tracemalloc.stop()
        self.cold[idx] = retained

    def _wrap(self, fn, qualname):
        spans, stack = self.spans, self._stack
        is_solver = qualname.startswith("eigensolver.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            key = _tableau_key(args, kwargs)
            spans.append([qualname, 0.0, 0.0, stack[-1] if stack else -1])
            if key is not None:
                self.keys[idx] = key
                self._enter_key(key, idx)
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
                if key is not None:
                    self._exit_key(key, idx)
            if is_solver:
                self.pairs[idx] = _eigenpairs(result)
            return result

        return wrapper

    def install(self, package="perispec"):
        """Wrap the public functions of each traced layer module in place."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._originals[(module, attr)] = value
        return len(wrappers)

    def reset(self):
        """Forget the spans so far; tableau keys already built stay warm."""
        for store in (self.spans, self.keys, self.cold, self.pairs):
            store.clear()

    def uninstall(self):
        for (module, attr), value in self._originals.items():
            setattr(module, attr, value)
        self._originals.clear()

    def metrics(self):
        """Per-layer metrics of everything traced so far."""
        spans, keys = self.spans, self.keys
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        layer = [s[0].split(".")[0] for s in spans]
        fname = [s[0].split(".", 1)[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_s = {ly: 0.0 for ly in LAYERS}
        for i in range(n):
            self_s[layer[i]] += dur[i] - child[i]

        def outermost(i):
            parent = spans[i][3]
            return parent < 0 or layer[parent] != layer[i]

        def under_solver(i):
            j = spans[i][3]
            while j >= 0:
                if layer[j] == "eigensolver":
                    return True
                j = spans[j][3]
            return False

        # energy: calls that evaluate a tableau (they carry mesh and params)
        evals, grads, in_solves = [], [], 0
        for i in range(n):
            if layer[i] == "energy" and outermost(i) and i in keys:
                (grads if "grad" in fname[i] else evals).append(dur[i])
                in_solves += under_solver(i)

        # cold calls: the call that built a key's tableau, minus the median
        # warm call of the same function on the same key (if there is one)
        warm = {}
        for i, key in keys.items():
            if i not in self.cold:
                warm.setdefault((spans[i][0], key), []).append(dur[i])
        cold_excess = 0.0
        for i in self.cold:
            ref = warm.get((spans[i][0], keys[i]))
            cold_excess += dur[i] - (statistics.median(ref) if ref else 0.0)

        pairs = [pr for i, found in self.pairs.items() if outermost(i) for pr in found]
        outer = sum(pr.iterations for pr in pairs)
        inner = sum(pr.diagnostics.get("inner_iterations", 0) for pr in pairs)
        recoveries = sum(pr.diagnostics.get("recoveries", 0) for pr in pairs)

        def inclusive(name):
            return sum(dur[i] for i in range(n) if fname[i] == name)

        assemble = inclusive("assemble_p2_matrices")
        p2_assemble = sum(dur[i] for i in range(n) if fname[i] == "assemble_p2_matrices"
                          and spans[i][3] >= 0 and fname[spans[i][3]] == "solve_p2_spectrum")

        def mean_ms(values):
            return 1e3 * sum(values) / len(values) if values else 0.0

        return {
            "energy.eval_calls": len(evals),
            "energy.grad_calls": len(grads),
            "energy.eval_ms": mean_ms(evals),
            "energy.grad_ms": mean_ms(grads),
            "energy.self_s": self_s["energy"],
            "energy.cold_calls": len(self.cold),
            "energy.cold_excess_s": cold_excess,
            "energy.tableau_mb": sum(self.cold.values()) / 2**20 if self.memory else None,
            "eigensolver.outer_iters": outer,
            "eigensolver.inner_iters": inner,
            "eigensolver.evals_per_inner": in_solves / inner if inner else 0.0,
            "eigensolver.recoveries": recoveries,
            "eigensolver.max_residual": max((pr.residual for pr in pairs), default=0.0),
            "eigensolver.self_s": self_s["eigensolver"],
            "eigensolver.assemble_s": assemble,
            "eigensolver.p2_self_s": inclusive("solve_p2_spectrum") - p2_assemble,
            "mesh.self_s": self_s["mesh"],
            "kernelmath.self_s": self_s["kernelmath"],
            "harness.self_s": self_s["harness"],
            "harness.report_s": inclusive("write_report"),
        }
