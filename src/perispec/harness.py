"""Sweep studies over the horizon and pass/fail reporting for the two limits.

Three study kinds run from JSON configs:

* ``zero``  — horizon-to-zero sweep with mesh coupled to the horizon
  (h = delta/m); scaled eigenvalues are extrapolated over the last three
  horizons and compared against gamma(1,p) times the local p-Laplacian
  eigenvalue.
* ``inf``   — horizon-to-infinity sweep on a fixed mesh of Omega;
  checks monotonicity in delta, the explicit norm-equivalence sandwich, and
  the gap between the largest finite horizon and the untruncated limit.
* ``bbm``   — localization cross-check on a fixed sine interpolant: the
  rescaled energies (no eigensolve) must converge to gamma(1,p) times the
  local gradient energy, independently of s.

The kinds share one skeleton. ``run_study`` dispatches by kind and times the
study. Zero and bbm map a row function over their horizons with
``_timed_rows``, in a thread pool when threads > 1. The inf study makes one
timed solve at INF, and every finite row is lambda_k(INF) less the horizon
shift. Every row's mesh and kernel come from ``build_problem``, which
``SweepConfig.from_dict`` and the ``eigen`` subcommand call before any solve,
and every eigenvalue from ``eigensolver.solve_eigenpairs``. Zero and bbm judge
their extrapolated limits with one verdict, ``_judge_limits``.
``run_configs`` parses every study config file, then runs them, writes their
reports and prints one status line each; ``run_all`` and the study subcommands
of the CLI both go through it.

Reports are deterministic byte-for-byte for a fixed config and package
version: per-row runtimes and timestamps go to a separate metadata file, and
all numbers are serialized with shortest round-trip ``repr``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields

from . import __version__
from .kernelmath import (
    INFINITE,
    KernelParams,
    embedding_constant,
    gamma_constant,
    horizon_shift,
    scaling_factor,
)
from .mesh import Mesh, interpolate
from .energy import nonlocal_energy
from .eigensolver import available_pairs, local_reference_lambda, solve_eigenpairs


class ConfigError(ValueError):
    """Malformed or schema-incompatible sweep configuration (CLI exit code 2)."""


def _check_keys(d, allowed, name: str) -> None:
    """ConfigError unless d is a JSON object whose keys all lie in allowed and whose values,
    but study and name, are finite numbers or arrays of them: "INF" only where a horizon
    goes, no NaN or Infinity (json reads both), no bool (true would pass as 1)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{name}: config must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {unknown}")
    bad = sorted(k for k, v in d.items() if k not in ("study", "name") and not all(
        (x == "INF" and k in ("delta", "delta_list"))
        or (type(x) in (int, float) and abs(x) < math.inf)
        for x in (v if isinstance(v, list) else [v])))
    if bad:
        raise ConfigError(f"{name}: {bad} must hold numbers only")


def build_problem(d, delta, k, n_interior=None, m=None, name="config") -> tuple:
    """The (Mesh, KernelParams) of one solve of k eigenpairs: p, s, a and b (default 0 and 1)
    from d, the horizon delta ("INF" or a number) snapped to a mesh of n_interior cells or,
    given m, of max(2, round(|Omega| m / delta)) cells, so that h = delta/m.  ConfigError,
    labelled name, for a value that KernelParams, Mesh or Mesh.snap refuses, a size that is
    not an integer, and a k outside [1, available_pairs]."""
    try:
        delta = INFINITE if delta == "INF" else float(delta)
        kernel = KernelParams(float(d["s"]), float(d["p"]), delta)  # delta > 0 before m / delta
        a, b = float(d.get("a", 0.0)), float(d.get("b", 1.0))
        n = n_interior if m is None else max(2, round((b - a) * m / delta))
        if not (isinstance(n, int) and isinstance(k, int)):
            raise TypeError(f"n_interior and k must be integers, got {n!r} and {k!r}")
        mesh = Mesh(a, b, n)
        params = KernelParams(kernel.s, kernel.p, mesh.snap(delta))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    limit = available_pairs(params.p, n - 1)
    if not 1 <= k <= limit:
        raise ConfigError(f"{name}: k={k} must lie in [1, {limit}] at p={params.p} "
                          f"with {n - 1} interior nodes")
    return mesh, params


_SCHEMA_VERSION = 1
_STUDIES = ("zero", "inf", "bbm")
_CSV_HEADER = "delta_requested,delta_effective,k,lambda_raw,lambda_scaled,reference,rel_err,verdict"


@dataclass(frozen=True)
class SweepConfig:
    """Validated description of one sweep study."""

    name: str
    study: str
    p: float
    s: float
    a: float
    b: float
    delta_list: tuple
    k_list: tuple
    thresholds: tuple
    cells_per_horizon: int = 8
    n_interior: int = 256

    @staticmethod
    def from_dict(d: dict, name: str = "study") -> "SweepConfig":
        """The config that d describes; name labels its errors and, without a "name" key,
        names its reports.  ``build_problem`` builds the problem of every horizon on its
        study's mesh, and INF on n_interior cells, which the report echoes in every study:
        a config is a ConfigError (exit 2) if one of them cannot be built."""
        _check_keys(d, {f.name for f in fields(SweepConfig)} | {"schema_version"}, name)
        missing = [k for k in ("schema_version", "study", "p", "s", "delta_list") if k not in d]
        if missing:
            raise ConfigError(f"{name}: missing required keys {missing}")
        if d["schema_version"] != _SCHEMA_VERSION:
            raise ConfigError(
                f"{name}: schema_version {d['schema_version']!r} unsupported "
                f"(this build reads version {_SCHEMA_VERSION})"
            )
        study = d["study"]
        if study not in _STUDIES:
            raise ConfigError(f"{name}: study must be one of {_STUDIES}, got {study!r}")
        raw_deltas = d["delta_list"]
        if not isinstance(raw_deltas, list) or not raw_deltas:
            raise ConfigError(f"{name}: delta_list must be a nonempty array")
        k_list = d.get("k_list", [1])
        if not isinstance(k_list, list) or not k_list or any(
            not isinstance(k, int) or k < 1 for k in k_list
        ) or len(set(k_list)) < len(k_list):
            raise ConfigError(f"{name}: k_list must be a nonempty array of distinct integers >= 1")
        if study == "bbm" and k_list != [1]:
            raise ConfigError(f"{name}: bbm studies take no k_list")

        thresholds = d.get("thresholds", [0.05] * len(k_list))
        if (not isinstance(thresholds, list) or len(thresholds) != len(k_list)
                or any(not t > 0 for t in thresholds)):
            raise ConfigError(f"{name}: thresholds must be positive reals, one per k")

        m = d.get("cells_per_horizon", 8)
        if not isinstance(m, int) or m < 4:
            raise ConfigError(f"{name}: cells_per_horizon must be an integer >= 4, got {m!r}")
        study_name = str(d.get("name", name))  # the stem of its report files
        if (study_name in ("", ".", "..") or os.path.basename(study_name) != study_name
                or "\0" in study_name):
            raise ConfigError(f"{name}: name {study_name!r} must be a file name, not a path")
        n_interior = d.get("n_interior", 256)
        mesh, params = build_problem(d, INFINITE, 1, n_interior, name=name)
        for x in raw_deltas:
            build_problem(d, x, max(k_list), n_interior, None if study == "inf" else m, name)
        deltas = [INFINITE if x == "INF" else float(x) for x in raw_deltas]
        if study == "zero" or study == "bbm":
            if any(math.isinf(x) for x in deltas):
                raise ConfigError(f"{name}: INF horizon is only valid in 'inf' studies")
            if not all(x > y for x, y in zip(deltas, deltas[1:])):
                raise ConfigError(f"{name}: delta_list must be strictly decreasing")
            if len(deltas) < 3:
                raise ConfigError(f"{name}: extrapolation needs at least 3 horizons")
            ratios = [x / y for x, y in zip(deltas, deltas[1:])]
            if not all(math.isclose(r, ratios[0], rel_tol=1e-9) for r in ratios):
                raise ConfigError(f"{name}: delta_list must be geometric, got ratios {ratios}")
        else:
            if not all(x < y for x, y in zip(deltas, deltas[1:])):
                raise ConfigError(f"{name}: delta_list must be strictly increasing")
            if not math.isinf(deltas[-1]):
                raise ConfigError(f"{name}: inf studies must end with the INF horizon")
            if len(deltas) < 3:
                raise ConfigError(f"{name}: need at least two finite horizons plus INF")
            if not mesh.spans(deltas[0]):
                raise ConfigError(
                    f"{name}: inf studies need every finite horizon >= |Omega|={mesh.length}")
        return SweepConfig(
            name=study_name, study=study, p=params.p, s=params.s, a=mesh.a, b=mesh.b,
            delta_list=tuple(deltas), k_list=tuple(k_list), thresholds=tuple(thresholds),
            cells_per_horizon=m, n_interior=n_interior,
        )

    @staticmethod
    def from_file(path) -> "SweepConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return SweepConfig.from_dict(data, name=os.path.splitext(os.path.basename(path))[0])

    def echo(self) -> dict:
        """The config as a schema-v1 object, with the INF horizon as "INF"."""
        return dict(asdict(self), schema_version=_SCHEMA_VERSION,
                    delta_list=["INF" if math.isinf(x) else x for x in self.delta_list])

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass
class Row:
    """One (delta, k) record of a sweep."""

    delta_requested: float
    delta_effective: float
    k: int
    lambda_raw: float
    lambda_scaled: float
    converged: bool = True
    runtime: float = 0.0


@dataclass
class SweepReport:
    """Study outcome: rows plus per-k limits, references and verdicts."""

    config: SweepConfig
    rows: list = field(default_factory=list)
    extrapolated: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    references: dict = field(default_factory=dict)
    rel_errors: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values()) and all(self.checks.values())

    def to_json(self) -> str:
        def fmt(x):
            if x is None or math.isfinite(x):
                return x
            return "INF" if x > 0 else "-INF"

        payload = {
            "schema_version": _SCHEMA_VERSION,
            "version": __version__,
            "config": self.config.echo(),
            "rows": [
                {
                    "delta_requested": fmt(r.delta_requested),
                    "delta_effective": fmt(r.delta_effective),
                    "k": r.k,
                    "lambda_raw": r.lambda_raw,
                    "lambda_scaled": r.lambda_scaled,
                    "converged": r.converged,
                }
                for r in self.rows
            ],
            "extrapolated": {str(k): v for k, v in self.extrapolated.items()},
            "rates": {str(k): v for k, v in self.rates.items()},
            "references": {str(k): v for k, v in self.references.items()},
            "rel_errors": {str(k): v for k, v in self.rel_errors.items()},
            "verdicts": {str(k): v for k, v in self.verdicts.items()},
            "checks": self.checks,
            "passed": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        def num(x):
            if math.isinf(x):
                return "INF"
            return repr(float(x))

        lines = [_CSV_HEADER]
        for r in self.rows:
            ref = self.references.get(r.k, float("nan"))
            rel = abs(r.lambda_scaled - ref) / ref if ref else float("nan")
            verdict = "pass" if self.verdicts.get(r.k, False) else "fail"
            lines.append(",".join([
                num(r.delta_requested), num(r.delta_effective), str(r.k),
                num(r.lambda_raw), num(r.lambda_scaled), num(ref), num(rel), verdict,
            ]))
        return "\n".join(lines) + "\n"

    def metadata(self) -> str:
        payload = {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "total_runtime_seconds": self.runtime,
            "row_runtimes_seconds": [r.runtime for r in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def extrapolate_limit(deltas, values):
    """Limit and rate from the last three (delta, value) points; a study has three or more.

    Fits value ~ L + c*delta^alpha assuming roughly geometric horizons; the
    limit is the Aitken accelerant of the last three values, the rate comes
    from successive log-differences. Returns (limit, rate); falls back to the
    last value with rate 0 when differences degenerate.
    """
    v1, v2, v3 = (float(v) for v in values[-3:])
    d1, d2, d3 = (float(d) for d in deltas[-3:])
    d21 = v2 - v1
    d32 = v3 - v2
    denom = d32 - d21
    if denom == 0.0 or d21 == 0.0 or d32 == 0.0:
        return v3, 0.0
    limit = v3 - d32 * d32 / denom
    ratio = d21 / d32
    if ratio > 0.0 and d2 != d3:
        rate = math.log(ratio) / math.log(d2 / d3)
    else:
        rate = 0.0
    return limit, rate


def _timed_rows(rows_of, deltas, threads: int):
    """The rows of every horizon in order, each row timed at an equal share of
    its horizon; horizons go to a pool of `threads` workers when threads > 1."""
    def timed(delta):
        t0 = time.perf_counter()
        rows = rows_of(delta)
        elapsed = time.perf_counter() - t0
        for r in rows:
            r.runtime = elapsed / len(rows)
        return rows

    if threads > 1:
        import concurrent.futures  # loads logging too; a serial run needs neither
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(timed, deltas))
    else:
        blocks = [timed(d) for d in deltas]
    return [r for block in blocks for r in block]


def _judge(report: SweepReport, k: int, thr: float, value, rate, ref, ok: bool) -> None:
    """Record k's limit estimate; it passes within thr of ref when ok."""
    rel = abs(value - ref) / ref
    report.extrapolated[k] = value
    report.rates[k] = rate
    report.references[k] = ref
    report.rel_errors[k] = rel
    report.verdicts[k] = bool(rel <= thr and ok)


def _judge_limits(report: SweepReport, reference, ok: bool = True) -> None:
    """Per k: extrapolate the scaled values to delta -> 0 and pass when the
    limit is within the threshold of reference(k) at a positive rate."""
    config = report.config
    for k, thr in zip(config.k_list, config.thresholds):
        rows = [r for r in report.rows if r.k == k]
        limit, rate = extrapolate_limit([r.delta_effective for r in rows],
                                        [r.lambda_scaled for r in rows])
        _judge(report, k, thr, limit, rate, reference(k), ok and rate > 0.0)


def _zero_study(report: SweepReport, threads: int) -> None:
    """Horizon-to-zero sweep with h = delta/m; extrapolated scaled eigenvalues
    are compared against gamma(1,p) times the local reference eigenvalue."""
    config = report.config

    def rows_of(delta):
        mesh, params = build_problem(vars(config), delta, max(config.k_list),
                                     m=config.cells_per_horizon)
        pairs = solve_eigenpairs(mesh, params, max(config.k_list))
        factor = scaling_factor(params)
        return [Row(delta, params.delta, k, pairs[k - 1].lam, factor * pairs[k - 1].lam,
                    pairs[k - 1].converged) for k in config.k_list]

    report.rows = _timed_rows(rows_of, config.delta_list, threads)
    flag_ok = sum(not r.converged for r in report.rows) <= 0.2 * len(report.rows)
    report.checks["flagged_rows_within_budget"] = bool(flag_ok)
    gamma = gamma_constant(1, config.p)
    _judge_limits(report, lambda k: gamma * local_reference_lambda(config.p, config.length, k),
                  flag_ok)


def _inf_study(report: SweepReport) -> None:
    """Horizon-to-infinity sweep on a fixed mesh of Omega.

    ``SweepConfig.from_dict`` ensures every finite horizon is at least the domain length,
    so the energy at delta is that at INF less horizon_shift times the L^p mass.  So only
    INF is solved: the eigenpairs at delta are (lambda(INF) - horizon_shift, u(INF)), and
    a finite row takes INF's converged flag.  Checks monotonicity in delta, the
    norm-equivalence sandwich, and the gap at the largest finite horizon; a failed check
    fails the verdicts of the report.
    """
    config = report.config
    finite = config.delta_list[:-1]
    t0 = time.perf_counter()
    pairs = solve_eigenpairs(*build_problem(vars(config), INFINITE, max(config.k_list),
                                            config.n_interior), max(config.k_list))
    elapsed = time.perf_counter() - t0
    for delta in config.delta_list:
        kappa = horizon_shift(KernelParams(config.s, config.p, delta))
        report.rows += [Row(delta, delta, k, pairs[k - 1].lam - kappa, pairs[k - 1].lam - kappa,
                            pairs[k - 1].converged) for k in config.k_list]
    for r in report.rows[-len(config.k_list):]:  # the INF rows hold the solve
        r.runtime = elapsed / len(config.k_list)
    lam = {(r.delta_requested, r.k): r.lambda_raw for r in report.rows}

    monotone_ok = True
    for k in config.k_list:
        seq = [lam[(d, k)] for d in config.delta_list]
        monotone_ok = monotone_ok and all(lo <= hi + 1e-10 * max(1.0, abs(hi))
                                          for lo, hi in zip(seq, seq[1:]))
    report.checks["monotonicity"] = monotone_ok

    # Sandwich: lambda(delta) <= lambda(inf) <= C(delta)^p * lambda(delta),
    # with C built from the first eigenvalue at that horizon.
    sandwich_ok = True
    for k in config.k_list:
        lam_inf = lam[(INFINITE, k)]
        for d in finite:
            params = KernelParams(config.s, config.p, d)
            c = embedding_constant(params, pairs[0].lam - horizon_shift(params))
            lo = lam[(d, k)]
            if not (lo <= lam_inf * (1.0 + 1e-12)
                    and lam_inf <= c ** config.p * lo * (1.0 + 1e-12)):
                sandwich_ok = False
    report.checks["sandwich"] = bool(sandwich_ok)

    for k, thr in zip(config.k_list, config.thresholds):
        _judge(report, k, thr, lam[(finite[-1], k)], 0.0, lam[(INFINITE, k)],
               monotone_ok and sandwich_ok)


def _sine_gradient_integral(p: float, length: float) -> float:
    """Integral over [0, L] of |d/dx sin(pi x / L)|^p, in closed form:
    (pi/L)^p (L/pi) sqrt(pi) Gamma((p+1)/2) / Gamma(p/2 + 1)."""
    return ((math.pi / length) ** p * (length / math.pi) * math.sqrt(math.pi)
            * math.gamma((p + 1.0) / 2.0) / math.gamma(p / 2.0 + 1.0))


def _bbm_study(report: SweepReport, threads: int) -> None:
    """Localization check on the sine interpolant: rescaled energies converge
    to gamma(1,p) times the local gradient energy of the sine, for any s."""
    config = report.config
    a, b, length, p = config.a, config.b, config.length, config.p
    truncated = {}  # per horizon: the sine is nonzero on the collar, where u is zero

    def sine(x):
        return math.sin(math.pi * (x - a) / length)

    def rows_of(delta):
        mesh, params = build_problem(vars(config), delta, 1, m=config.cells_per_horizon)
        u = interpolate(sine, mesh)
        h = mesh.h  # the sine at the snapped collar grid a - j h, b + j h, j = 1..r
        collar = [sine(x) for j in range(1, round(params.delta / h) + 1)
                  for x in (a - j * h, b + j * h)]
        truncated[delta] = max(map(abs, collar)) > 1e-14 * abs(u.values).max()
        val = scaling_factor(params) * nonlocal_energy(u, params).total
        return [Row(delta, params.delta, 1, val, val)]

    report.rows = _timed_rows(rows_of, config.delta_list, threads)
    ref = gamma_constant(1, p) * _sine_gradient_integral(p, length)
    _judge_limits(report, lambda k: ref)
    report.checks["interpolant_truncated_on_collar"] = all(truncated.values())


def run_study(config: SweepConfig, threads: int = 1) -> SweepReport:
    """Run the study of config's kind; the horizons of a zero or bbm study go to
    `threads` workers (an inf study solves one horizon)."""
    t_start = time.perf_counter()
    report = SweepReport(config=config)
    if config.study == "inf":
        _inf_study(report)
    else:
        {"zero": _zero_study, "bbm": _bbm_study}[config.study](report, threads)
    report.runtime = time.perf_counter() - t_start
    return report


def write_report(report: SweepReport, out_dir) -> None:
    """Write <name>.json, <name>.csv and <name>.meta.json in the directory out_dir."""
    base = os.path.join(out_dir, report.config.name)
    for suffix, text in ((".json", report.to_json()), (".csv", report.to_csv()),
                         (".meta.json", report.metadata())):
        with open(base + suffix, "w", encoding="utf-8") as fh:
            fh.write(text)


def run_configs(paths, out_dir, threads: int = 1, study=None) -> int:
    """Parse every study config file and make out_dir, then run each in order, writing its
    reports in out_dir and printing its status line; 0 pass, 1 fail, 2 config error
    before any study runs (also for a config not of kind `study`, if given, for two
    configs of one name, and for an out_dir that cannot be made or written to)."""
    configs = []
    try:
        for path in paths:
            config = SweepConfig.from_file(path)
            if study is not None and config.study != study:
                raise ConfigError(f"{config.name}: config is a {config.study!r} study, "
                                  f"but the {study!r} runner was requested")
            if any(c.name == config.name for c in configs):
                raise ConfigError(f"{path}: a second config named {config.name!r}, "
                                  f"whose reports would overwrite the first's")
            configs.append(config)
        os.makedirs(out_dir, exist_ok=True)
        tempfile.NamedTemporaryFile(dir=out_dir).close()  # a probe file, removed on close
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    all_pass = True
    for config in configs:
        report = run_study(config, threads=threads)
        write_report(report, out_dir)
        print(f"{'PASS' if report.passed else 'FAIL'} {config.name} [{config.study}] "
              f"rel_errors={ {k: float(f'{v:.3e}') for k, v in report.rel_errors.items()} }")
        all_pass = all_pass and report.passed
    return 0 if all_pass else 1


def run_all(config_dir, out_dir=None, threads: int = 1) -> int:
    """Run every *.json study config in config_dir; 0 pass, 1 fail, 2 config error."""
    try:
        entries = sorted(f for f in os.listdir(config_dir) if f.endswith(".json"))
    except OSError as exc:
        print(f"config error: cannot list {config_dir}: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"warning: no study configs found in {config_dir}")
        return 0
    if out_dir is None:
        out_dir = os.path.join(config_dir, "reports")
    return run_configs([os.path.join(config_dir, f) for f in entries], out_dir, threads)
