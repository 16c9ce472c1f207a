"""One workload process: runs study configs through ``perispec.cli.main``.

Usage: python3 perfbench/child.py JOB.json SPAWN_TIME

The job names the checkout root, whether to trace, and the draws to run in
order: each draw is a list of config files and a report directory (one s
offset of the workload). SPAWN_TIME is the ``time.monotonic()`` reading (the
system-wide CLOCK_MONOTONIC) at which the parent spawned this interpreter.
The child writes one result JSON, and the spans of each draw when traced, to
the paths the job gives. Study stdout goes to stderr so the benchmark's own
stdout stays parseable. A traced job measures tableau memory in the draws
that ``memory_draws`` lists (see tracer.py). A set-up probe (``"probe": true``) stops at the first
compute call, so it measures only set-up.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback

_SUBCOMMAND = {"zero": "sweep-zero", "inf": "sweep-inf", "bbm": "bbm"}


def _blas_threads():
    """OpenBLAS thread counts in effect, per library that numpy and scipy load."""
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def _blas_versions():
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        try:
            blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            found[pkg.__name__] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError, AttributeError):
            found[pkg.__name__] = None
    return found


def machine():
    """Facts about the machine and libraries that a results file records."""
    import platform
    import numpy
    import scipy
    try:
        # glibc's _SC_LEVEL3_CACHE_SIZE (read from cpuid on x86)
        llc = os.sysconf(os.sysconf_names.get("SC_LEVEL3_CACHE_SIZE", 194))
    except (OSError, ValueError):
        llc = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "llc_bytes": llc,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_versions(),
        "blas_threads": _blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class _SetupDone(BaseException):
    """Raised at the first compute call of a set-up probe; no study catches it."""


def _patch_first_call(package, target, on_call):
    """Route every module attribute bound to ``target`` through ``on_call`` first."""
    def hook(*args, **kwargs):
        on_call()
        return target(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for attr, value in list(vars(module).items()):
                if value is target:
                    setattr(module, attr, hook)


def main(job_path, t_spawn):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    import perispec
    import perispec.cli
    if os.path.commonpath([os.path.abspath(perispec.__file__), src]) != src:
        raise SystemExit(f"perispec imported from {perispec.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    first_compute = []

    def on_compute():
        if not first_compute:
            first_compute.append(time.monotonic())
            if job.get("probe"):
                raise _SetupDone

    runner = getattr(sys.modules["perispec.harness"], "run_study", None)
    if runner is not None:
        _patch_first_call("perispec", runner, on_compute)

    draws = []
    cli_entry = None
    try:
        for i, draw in enumerate(job["draws"]):
            if tracer is not None:
                tracer.memory = i in job.get("memory_draws", ())
            studies = []
            cpu0 = time.process_time()
            for path in draw["configs"]:
                with open(path, encoding="utf-8") as fh:
                    study = json.load(fh)["study"]
                argv = [_SUBCOMMAND[study], "--config", path, "--out", draw["out_dir"],
                        "--threads", "1"]
                raised = None
                t0 = time.perf_counter()
                cli_entry = cli_entry or time.monotonic()
                with contextlib.redirect_stdout(sys.stderr):
                    try:
                        rc = perispec.cli.main(argv)
                    except SystemExit as exc:
                        rc = exc.code
                    except Exception:  # a study that raises is a failed study, not a crash
                        raised = traceback.format_exc()
                        traceback.print_exc()
                        rc = None
                studies.append({"config": path, "rc": rc, "raised": raised,
                                "wall_s": time.perf_counter() - t0})
            draws.append({"wall_s": sum(st["wall_s"] for st in studies),
                          "cpu_s": time.process_time() - cpu0, "studies": studies,
                          "layers": tracer.metrics() if tracer is not None else None,
                          "memory": tracer is not None and tracer.memory})
            if tracer is not None:
                with open(draw["spans"], "w", encoding="utf-8") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(span) + "\n")
                tracer.reset()
    except _SetupDone:
        pass

    if tracer is not None:
        tracer.uninstall()
    start = first_compute[0] if first_compute else cli_entry
    result = {
        "setup_s": start - t_spawn,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "draws": draws,
        "machine": machine(),
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
