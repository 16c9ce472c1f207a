"""Self-test of the benchmark on tiny inputs (n about 16; under a minute).

Usage (from the root of a perispec checkout):

    python3 perfbench/selftest.py

For each workload it pins tiny references, then checks that:

* a run with tracing off and one with tracing on are correct and print every
  metric BENCHMARK.json names for that mode, each with its declared unit;
* a run against a deliberately perturbed pinned reference reports failed
  rows (``fail_frac`` above 0) and ``correct: false``;

and finally that the benchmark, copied into a directory that holds only
BENCHMARK.json and its own files, exits non-zero without a result line.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def _run(args, cwd):
    proc = subprocess.run([sys.executable, RUN, "--seed", "0", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    work = os.path.join(root, ".bench_work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    refs = os.path.join(work, "tiny-references.json")
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        proc, _ = _run(["--workload", w, "--trace", "0", "--tiny", "--pin", refs], root)
        check(proc.returncode == 0, f"{w}: pin tiny references")
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc, result = _run(["--workload", w, "--trace", str(trace), "--tiny",
                                 "--references", refs], root)
            check(result is not None and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{w} trace {trace}: correct, no failed rows")
            printed = (result or {}).get("metrics", {})
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v.get("unit") for k, v in printed.items()}
            check(got == want and all(isinstance(v.get("value"), (int, float))
                                      for v in printed.values()),
                  f"{w} trace {trace}: prints exactly the {len(want)} declared metrics "
                  f"with their units")

    with open(refs, encoding="utf-8") as fh:
        pins = json.load(fh)
    study = next(iter(pins["collarless-p3"].values()))["inf-p3"]
    study["rows"][0][2] *= 1.0 + 1e-4
    perturbed = os.path.join(work, "perturbed-references.json")
    with open(perturbed, "w", encoding="utf-8") as fh:
        json.dump(pins, fh)
    proc, result = _run(["--workload", "collarless-p3", "--trace", "0", "--tiny",
                         "--references", perturbed], root)
    fail_frac = [float(line.split("=")[1].split()[0]) for line in proc.stdout.splitlines()
                 if line.strip().startswith("fail_frac =")]
    check(result is not None and result["failed"] > 0 and not result["correct"]
          and fail_frac and fail_frac[0] > 0,
          "perturbed pinned reference makes fail_frac non-zero")

    bare = os.path.join(work, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(bench["command"] + ["--workload", WORKLOADS[0], "--seed", "0",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the program's sources: non-zero exit and no result")

    print(f"{'FAILED' if failures else 'OK'}: {len(failures)} of the checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
