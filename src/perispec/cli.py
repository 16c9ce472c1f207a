"""Command-line entry point for the sweep harness.

Subcommands:

* ``gamma N P``  — print the sphere moment constant gamma(N, p).
* ``eigen``      — solve one eigenproblem from a config and print the pair.
* ``sweep-zero`` — run a horizon-to-zero study from a config file.
* ``sweep-inf``  — run a horizon-to-infinity study from a config file.
* ``bbm``        — run the localization cross-check from a config file.
* ``all``        — run every study config in a directory.

Exit codes: 0 all verdicts pass, 1 a study failed, 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .kernelmath import INFINITE, KernelParams, gamma_constant
from .mesh import Mesh
from .harness import _check_keys, run_all, run_configs
from .eigensolver import SpectrumRequestError, solve_eigenpairs


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each build reads gettext catalogues (~1 ms)."""
    parser = argparse.ArgumentParser(
        prog="perispec",
        description="Horizon sweeps for the truncated fractional p-Laplacian spectrum",
    )
    parser.add_argument("--version", action="version", version=f"perispec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="print the sphere moment constant gamma(N, p)")
    g.add_argument("N", type=int, help="spatial dimension (1, 2 or 3)")
    g.add_argument("P", type=float, help="exponent p > 1")

    def study_flags(sp, config_help="path to a JSON study config"):
        sp.add_argument("--config", required=True, help=config_help)
        sp.add_argument("--out", default=None, help="report output directory")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker threads for zero and bbm horizons (default 1)")

    e = sub.add_parser("eigen", help="solve a single eigenproblem from a config")
    e.add_argument("--config", required=True,
                   help="JSON with p, s, delta (number or \"INF\"), a, b, n_interior, k_max")
    e.add_argument("--out", default=None, help="write the eigenpair JSON here (default stdout)")

    for name, help_text in (
        ("sweep-zero", "horizon-to-zero eigenvalue sweep"),
        ("sweep-inf", "horizon-to-infinity eigenvalue sweep"),
        ("bbm", "localization cross-check on a fixed test function"),
    ):
        study_flags(sub.add_parser(name, help=help_text))

    study_flags(sub.add_parser("all", help="run every study config in a directory"),
                "directory of JSON study configs")
    return parser


_STUDY_OF_COMMAND = {"sweep-zero": "zero", "sweep-inf": "inf", "bbm": "bbm"}


def _config_error(exc) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return 2


def _cmd_gamma(args) -> int:
    try:
        value = gamma_constant(args.N, args.P)
    except ValueError as exc:
        return _config_error(exc)
    print(repr(value))
    return 0


def _cmd_eigen(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        _check_keys(d, {"p", "s", "delta", "a", "b", "n_interior", "k_max"}, args.config)
        a, b = float(d.get("a", 0.0)), float(d.get("b", 1.0))
        delta = INFINITE if d.get("delta") == "INF" else float(d["delta"])
        n_interior, k_max = d.get("n_interior", 128), d.get("k_max", 1)
        if not (isinstance(n_interior, int) and isinstance(k_max, int)):
            raise TypeError(f"n_interior and k_max must be integers: {n_interior!r}, {k_max!r}")
        mesh = Mesh(a, b, n_interior)
        params = KernelParams(float(d["s"]), float(d["p"]), mesh.snap(delta))
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise ValueError(f"--out {args.out} is a directory or lies in a missing one")
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        return _config_error(exc)
    try:
        pairs = solve_eigenpairs(mesh, params, k_max)
    except SpectrumRequestError as exc:
        return _config_error(exc)
    out = json.dumps([ep.to_json_dict() for ep in pairs], sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0 if all(ep.converged for ep in pairs) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    if args.command == "gamma":
        return _cmd_gamma(args)
    if args.command == "eigen":
        return _cmd_eigen(args)
    if args.command == "all":
        return run_all(args.config, out_dir=args.out, threads=args.threads)
    return run_configs([args.config], args.out or ".", args.threads,
                       study=_STUDY_OF_COMMAND[args.command])


if __name__ == "__main__":
    sys.exit(main())
