"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the root of a perispec checkout):

    python3 perfbench/spread.py --seeds 0-9 [--workloads collar-p3,...]
                                [--trace-seeds 0] [--out perfbench/results/BENCH_x.json]

For every workload and end-to-end metric it prints the median over the seeds
and the quartile spread, (q3 - q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound. Runs with
``--trace-seeds`` add the per-layer metrics. ``--out`` writes every run's
result line, the summaries, the git commit, a digest of the sources and the
machine facts to one results file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    if not text:
        return []
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record_path = os.path.join(".bench_work", "results",
                               f"{workload}-seed{seed}-trace{trace}.json")
    record = None
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    return {"workload": workload, "seed": seed, "trace": trace, "rc": proc.returncode,
            "result": result,
            "samples": len([p for p in (record or {}).get("passes", []) if not p["trace"]])}, record


def _summary(values, bound=None):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    out = {"n": len(values), "median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else 0.0}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    runs, machine, commit, source = [], None, None, None
    for trace, seeds in ((0, _seeds(args.seeds)), (1, _seeds(args.trace_seeds))):
        for seed in seeds:
            for w in workloads:
                run, record = _run(bench, w, seed, trace)
                runs.append(run)
                if record:
                    machine, commit, source = (record["machine"], record["commit"],
                                               record["source_sha1"])
                res = run["result"] or {}
                fail_frac = res["failed"] / res["attempted"] if res else 1.0
                print(f"{w} seed {seed} trace {trace}: rc {run['rc']} correct "
                      f"{res.get('correct')} fail_frac={fail_frac:.4g} "
                      f"({res.get('failed')}/{res.get('attempted')} rows) "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in res.get("metrics", {}).items()
                                 if trace == 0 or k.endswith("self_s") or k.startswith("trace")),
                      flush=True)

    summary = {}
    for w in workloads:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            results = [r["result"] for r in runs
                       if r["workload"] == w and r["trace"] == trace and r["result"]]
            if not results:
                continue
            for m in declared:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                s = _summary(values, m.get("bound"))
                summary.setdefault(w, {})[m["name"]] = s
                if trace == 0:
                    verdict = "ok" if s["spread"] < m["bound"] / 3 else "WIDE"
                    print(f"{w:14s} {m['name']:12s} median {s['median']:.4g} "
                          f"spread {s['spread']:.4f} bound {m['bound']} ({verdict}; n={s['n']})")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"commit": commit, "source_sha1": source, "machine": machine,
                       "run_seconds": bench["run_seconds"],
                       "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["result"] and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
