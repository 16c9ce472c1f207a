"""perispec benchmark: runs one workload, checks its outputs, prints metrics.

Usage (from the root of a perispec checkout):

    python3 perfbench/run.py --workload collarless-p3 --seed 0 --seconds 40 --trace 0

Each pass spawns a fresh interpreter (perfbench/child.py) that runs the
workload's study configs through ``perispec.cli.main`` with ``--threads 1``,
as a user would, importing perispec from this checkout's ``src/``. BLAS
threads stay at the machine default and are recorded. A pass runs several
draws, each the workload's configs at one s offset (see workloads.py). A run
makes whole cycles over the workload's offsets: as many as fit in
``--seconds`` at the workload's nominal cycle time, at least one. Reports of
the same offset from different processes must be byte-identical; a run of a
single cycle repeats its first draw in a fresh interpreter to check that.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median time of one
draw over the complete cycles, from CLI entry until its reports are written;
every offset counts equally often), ``setup_s`` (median time
from spawning the interpreter to the first study compute call) and
``peak_rss_mb`` (median peak resident memory of a workload process). Each
cycle of an untraced run also spawns SETUP_PROBES interpreters that stop at
the first compute call, so ``setup_s`` has enough samples to be steady.
``--trace 1`` runs each draw twice, untraced then traced, and prints the
per-layer metrics of tracer.py plus ``process.cpu_s``,
``trace.overhead_frac`` and ``trace.coverage_frac``. The first traced draw of
each cycle measures tableau memory with tracemalloc, which slows it down, so
it gives ``energy.tableau_mb`` and the other traced draws give the rest.

Every pass is checked against the pinned references of references.json: a
row fails if its study raised, it did not converge, or its ``lambda_raw`` is
off by more than REL_TOL relative; a study whose verdicts differ from the
pinned ones fails all its rows. The last stdout line is one JSON object with
``correct``, ``attempted`` and ``failed`` (rows) and ``metrics``.

``--pin FILE`` instead runs one cycle and writes its outputs to FILE as the
pinned references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import UNITS  # noqa: E402
from workloads import (CYCLE_SECONDS, DRAWS_PER_PASS, WORKLOADS, configs,  # noqa: E402
                       offset_key, offsets)

# Well below the discretization error at these sizes (~1e-3 relative) and
# well above the inverse-power solver tolerance (1e-10).
REL_TOL = 1e-6
# Every run must end within 180 s; no cycle starts that would end after this.
HARD_LIMIT_S = 150.0
# Nor one that would end after this many times --seconds, in a slow spell.
OVERRUN = 1.5
REFERENCES = os.path.join(HERE, "references.json")
SETUP_PROBES = 2


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (n about 16), for the self-test")
    ap.add_argument("--references", default=REFERENCES,
                    help="pinned references to check against")
    ap.add_argument("--pin", metavar="FILE",
                    help="write pinned references for each offset to FILE instead of checking")
    return ap.parse_args(argv)


def _source_digest(root):
    """SHA-1 over the program's sources, which names the code where git cannot."""
    digest = hashlib.sha1()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src"],
                               check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


class Runner:
    """Spawns and times the passes of one run.

    A pass is one workload process; it runs ``DRAWS_PER_PASS[workload]``
    draws, each the workload's configs at one s offset.
    """

    def __init__(self, root, workload, seed, tiny, work):
        self.root, self.workload, self.tiny, self.work = root, workload, tiny, work
        self.cycle = offsets(workload, seed)
        self.t0 = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def elapsed(self):
        return time.monotonic() - self.t0

    def chunks(self):
        """The cycle split into the offset lists of its passes."""
        k = DRAWS_PER_PASS[self.workload]
        return [self.cycle[i:i + k] for i in range(0, len(self.cycle), k)]

    def run_pass(self, index, offsets_, trace, probe=False, memory=False):
        pdir = os.path.join(self.work, f"pass{index:03d}")
        draws = []
        for i, offset in enumerate(offsets_):
            ddir = os.path.join(pdir, f"draw{i}")
            os.makedirs(os.path.join(ddir, "configs"))
            paths = []
            for cfg in configs(self.workload, offset, self.tiny):
                path = os.path.join(ddir, "configs", cfg["name"] + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh, indent=2)
                paths.append(path)
            draws.append({"configs": paths, "out_dir": os.path.join(ddir, "reports"),
                          "spans": os.path.join(ddir, "spans.jsonl")})
        job = {"root": self.root, "trace": bool(trace), "probe": probe, "draws": draws,
               "memory_draws": [0] if memory else [],
               "result": os.path.join(pdir, "result.json")}
        job_path = os.path.join(pdir, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        timeout = max(1.0, HARD_LIMIT_S + 20.0 - self.elapsed())
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), job_path, repr(time.monotonic())],
            cwd=self.root, env=self.env, stdout=sys.stderr, stderr=sys.stderr)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            rc = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        result = None
        if rc == 0:
            with open(job["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        if probe:
            return {"index": index, "trace": False, "probe": True, "rc": rc, "result": result,
                    "draws": []}
        return {"index": index, "trace": bool(trace), "rc": rc, "result": result,
                "draws": [{"pass": index, "offset": offset, "trace": bool(trace),
                           "dir": os.path.dirname(d["out_dir"]),
                           "result": result["draws"][i] if result else None}
                          for i, (offset, d) in enumerate(zip(offsets_, draws))]}


def _schedule(runner, seconds, trace, pin):
    """Run the run's whole cycles; returns the passes in order.

    An untraced run makes as many cycles as fit in ``seconds`` at the nominal
    cycle time of its workload, so every run does the same work whether the
    machine is in a slow spell or not; only a spell that would stretch the run
    past OVERRUN times ``seconds`` cuts it short. Traced and pinning runs make
    one.
    """
    wanted = 1 if (trace or pin) else max(1, int(seconds // CYCLE_SECONDS[runner.workload]))
    limit = min(HARD_LIMIT_S, OVERRUN * seconds)
    passes = []
    cycles = 0
    while cycles < wanted and (cycles == 0 or runner.elapsed() * (cycles + 1) / cycles <= limit):
        if not (trace or pin):
            for _ in range(SETUP_PROBES):
                passes.append(runner.run_pass(len(passes), runner.cycle[:1], False, probe=True))
        for i, chunk in enumerate(runner.chunks()):
            passes.append(runner.run_pass(len(passes), chunk, trace=False))
            if trace:
                passes.append(runner.run_pass(len(passes), chunk, trace=True, memory=i == 0))
        cycles += 1
    if cycles == 1 and not (trace or pin):
        passes.append(runner.run_pass(len(passes), runner.cycle[:1], trace=False))
        passes[-1]["repeat"] = True
    return passes


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _outputs(draw, study_name):
    """(parsed JSON report or None, raw JSON bytes, raw CSV bytes) of one study."""
    base = os.path.join(draw["dir"], "reports", study_name)
    raw_json, raw_csv = _read(base + ".json"), _read(base + ".csv")
    report = json.loads(raw_json) if raw_json is not None else None
    return report, raw_json, raw_csv


def _pinned(report):
    return {
        "passed": report["passed"],
        "verdicts": report["verdicts"],
        "rows": [[r["delta_requested"], r["k"], r["lambda_raw"], r["converged"]]
                 for r in report["rows"]],
    }


def _check_study(draw, name, ref, problems):
    """(attempted, failed) rows of one study in one draw."""
    where = f"pass {draw['pass']} {offset_key(draw['offset'])}: {name}"
    expected = {(row[0], row[1]): row for row in ref["rows"]}
    report = _outputs(draw, name)[0]
    study = next((s for s in draw["result"]["studies"]
                  if os.path.basename(s["config"]) == name + ".json"), None)
    if study is None or study["raised"] or study["rc"] not in (0, 1) or report is None:
        problems.append(f"{where} raised or wrote no report")
        return len(expected), len(expected)
    if report["passed"] != ref["passed"] or report["verdicts"] != ref["verdicts"]:
        problems.append(f"{where} verdicts {report['verdicts']} (passed={report['passed']}) "
                        f"differ from the pinned ones")
        return len(expected), len(expected)
    attempted = failed = 0
    seen = set()
    for row in report["rows"]:
        key = (row["delta_requested"], row["k"])
        seen.add(key)
        attempted += 1
        pinned = expected.get(key)
        if pinned is None or not row["converged"] or \
                abs(row["lambda_raw"] - pinned[2]) > REL_TOL * abs(pinned[2]):
            failed += 1
            problems.append(f"{where} row delta={key[0]} k={key[1]} "
                            f"lambda_raw={row['lambda_raw']!r} converged={row['converged']} "
                            f"pinned={pinned}")
    missing = len(set(expected) - seen)
    if missing:
        problems.append(f"{where} lacks {missing} pinned rows")
    return attempted + missing, failed + missing


def _check(draws, refs, names):
    """Row counts and problems of all draws, and whether reports repeat byte for byte."""
    attempted = failed = 0
    problems = []
    for d in draws:
        ref = refs[offset_key(d["offset"])]
        if d["result"] is None:
            problems.append(f"pass {d['pass']}: workload process failed")
            rows = sum(len(ref[n]["rows"]) for n in names)
            attempted, failed = attempted + rows, failed + rows
            continue
        for name in names:
            a, f = _check_study(d, name, ref[name], problems)
            attempted, failed = attempted + a, failed + f
    identical = True
    first = {}
    for d in draws:
        for name in names:
            out = _outputs(d, name)[1:]
            key = (d["offset"], name)
            if key in first and out != first[key]:
                identical = False
                problems.append(f"pass {d['pass']}: {name} reports differ from an earlier "
                                f"draw with the same offset")
            first.setdefault(key, out)
    repeated = len(first) < len(draws) * len(names)
    if not repeated:
        problems.append("no draw was repeated, so report identity was not checked")
    return attempted, failed, identical and repeated, problems


def _median(values):
    return statistics.median(values) if values else 0.0


def _metrics(passes, trace):
    plain = [p for p in passes if p["result"] and not p["trace"]]
    # a repeat pass would count one offset more often than the others, and it
    # runs fewer draws, so it holds fewer tableaus; a probe runs none
    cycled = [p for p in plain if not (p.get("repeat") or p.get("probe"))]
    plain_draws = [d["result"] for p in cycled for d in p["draws"]]
    wall_plain = _median([d["wall_s"] for d in plain_draws])
    if not trace:
        return {
            "wall_s": (wall_plain, "s"),
            "setup_s": (_median([p["result"]["setup_s"] for p in plain]), "s"),
            "peak_rss_mb": (_median([p["result"]["peak_rss_mb"] for p in cycled]), "MB"),
        }
    traced = [d["result"] for p in passes if p["result"] and p["trace"] for d in p["draws"]]
    memory = [d for d in traced if d["memory"]]
    traced = [d for d in traced if not d["memory"]]
    layers = {name: (_median([d["layers"][name]
                              for d in (memory if name == "energy.tableau_mb" else traced)]), unit)
              for name, unit in UNITS.items()}
    covered = [sum(v for k, v in d["layers"].items() if k.endswith(".self_s")) / d["wall_s"]
               for d in traced]
    wall_traced = _median([d["wall_s"] for d in traced])
    layers["process.cpu_s"] = (_median([d["cpu_s"] for d in plain_draws]), "s")
    layers["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    layers["trace.coverage_frac"] = (_median(covered), "ratio")
    return layers


def main(argv=None):
    args = _parse_args(argv)
    # a terminated run unwinds, so run_pass stops the workload process it waits on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "perispec", "__init__.py")):
        print(f"error: no perispec sources under {root}/src; run from a perispec checkout",
              file=sys.stderr)
        return 2
    refs = {}
    if not args.pin:
        try:
            with open(args.references, encoding="utf-8") as fh:
                refs = json.load(fh)[args.workload]
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: no pinned references for {args.workload} in {args.references}: "
                  f"{exc!r}", file=sys.stderr)
            return 2

    tag = args.workload + ("-tiny" if args.tiny else "")
    work = os.path.join(root, ".bench_work", f"{tag}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, args.workload, args.seed, args.tiny, work)
    passes = _schedule(runner, args.seconds, args.trace == 1 and not args.pin, bool(args.pin))

    if args.pin:
        return _write_pins(args, passes)

    names = [c["name"] for c in configs(args.workload, 0.0, args.tiny)]
    draws = [d for p in passes for d in p["draws"]]
    missing = sorted({offset_key(d["offset"]) for d in draws} - set(refs))
    if missing:
        print(f"error: no pinned references for {args.workload} {missing}", file=sys.stderr)
        return 2
    attempted, failed, identical, problems = _check(draws, refs, names)
    correct = failed == 0 and identical and all(p["result"] for p in passes)
    metrics = _metrics(passes, args.trace == 1)
    plain = [p for p in passes if p["result"] and not p["trace"]]
    for line in problems[:20]:
        print("problem:", line, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} processes, "
          f"{len(draws)} draws in {runner.elapsed():.1f} s; medians over "
          f"{sum(len(p['draws']) for p in plain if not p.get('repeat'))} untraced draws "
          f"of {len(runner.cycle)} offsets, {len(plain)} processes")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_frac = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} rows)")
    print(f"  reports byte-identical across repeats: {identical}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "commit": _git_commit(root), "source_sha1": _source_digest(root),
        "machine": (plain[0]["result"]["machine"] if plain else None),
        "passes": [{"index": p["index"], "trace": p["trace"], "rc": p["rc"],
                    "offsets": [d["offset"] for d in p["draws"]], "result": p["result"]}
                   for p in passes],
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = os.path.join(root, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{tag}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def _write_pins(args, passes):
    names = [c["name"] for c in configs(args.workload, 0.0, args.tiny)]
    try:
        with open(args.pin, encoding="utf-8") as fh:
            pins = json.load(fh)
    except (OSError, ValueError):
        pins = {}
    pinned = pins.setdefault(args.workload, {})
    draws = [d for p in passes for d in p["draws"]]
    for d in draws:
        key = offset_key(d["offset"])
        if d["result"] is None:
            print(f"error: the process of {key} failed", file=sys.stderr)
            return 1
        studies = {}
        for name in names:
            report = _outputs(d, name)[0]
            if report is None or not all(r["converged"] for r in report["rows"]):
                print(f"error: {name} at {key} raised or did not converge", file=sys.stderr)
                return 1
            studies[name] = _pinned(report)
        pinned[key] = studies
    with open(args.pin, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len({d['offset'] for d in draws})} offsets of {args.workload} into {args.pin}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
