"""Sweep studies over the horizon and pass/fail reporting for the two limits.

Three study kinds run from JSON configs:

* ``zero``  — horizon-to-zero sweep with mesh coupled to the horizon
  (h = delta/m); scaled eigenvalues are extrapolated over the last three
  horizons and compared against gamma(1,p) times the local p-Laplacian
  eigenvalue.
* ``inf``   — horizon-to-infinity sweep on a fixed collarless mesh of Omega;
  checks monotonicity in delta, the explicit norm-equivalence sandwich, and
  the gap between the largest finite horizon and the untruncated limit.
* ``bbm``   — localization cross-check on a fixed sine interpolant: the
  rescaled energies (no eigensolve) must converge to gamma(1,p) times the
  local gradient energy, independently of s.

The kinds share one skeleton. ``run_study`` dispatches by kind and times the
study. Zero and bbm map a row function over their horizons with
``_timed_rows``, in a thread pool when threads > 1. The inf study makes one
timed solve at INF, and every finite row is lambda_k(INF) less the horizon
shift. Every eigenvalue comes from ``eigensolver.solve_eigenpairs``. Zero and
bbm judge their extrapolated limits with one verdict, ``_judge_limits``.
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
from .mesh import DomainSpec, build_mesh, interpolate
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
        try:
            p = float(d["p"])
            s = float(d["s"])
            a = float(d.get("a", 0.0))
            b = float(d.get("b", 1.0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}: non-numeric scalar field: {exc}") from exc
        if not (p > 1.0 and math.isfinite(p)):
            raise ConfigError(f"{name}: p must lie in (1, inf), got {p}")
        if not (0.0 < s < 1.0):
            raise ConfigError(f"{name}: s must lie in (0, 1), got {s}")
        if not a < b:
            raise ConfigError(f"{name}: need a < b, got a={a}, b={b}")

        raw_deltas = d["delta_list"]
        if not isinstance(raw_deltas, list) or not raw_deltas:
            raise ConfigError(f"{name}: delta_list must be a nonempty array")
        deltas = []
        for entry in raw_deltas:
            if entry == "INF":
                deltas.append(INFINITE)
            elif entry > 0.0:
                deltas.append(float(entry))
            else:
                raise ConfigError(f"{name}: horizons must be positive, got {entry}")
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
                raise ConfigError(f"{name}: need at least one finite horizon plus INF")
            if deltas[0] < (b - a) * (1.0 - 1e-12):
                raise ConfigError(
                    f"{name}: inf studies need every finite horizon >= |Omega|={b - a}"
                )

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
        n_interior = d.get("n_interior", 256)
        if not isinstance(n_interior, int) or not 2 <= n_interior <= sys.float_info.max:
            raise ConfigError(f"{name}: n_interior must be an integer >= 2 that a float holds, "
                              f"got {n_interior!r}")

        config = SweepConfig(
            name=str(d.get("name", name)), study=study, p=p, s=s, a=a, b=b,
            delta_list=tuple(deltas), k_list=tuple(k_list), thresholds=tuple(thresholds),
            cells_per_horizon=m, n_interior=n_interior,
        )
        try:
            limit = available_pairs(p, min(config.mesh_cells(x) for x in deltas) - 1)
        except OverflowError as exc:
            raise ConfigError(f"{name}: the mesh size overflows: {exc}") from exc
        if max(k_list) > limit:
            raise ConfigError(f"{name}: k={max(k_list)} exceeds the {limit} eigenpair(s) "
                              f"of the coarsest mesh at p={p}")
        return config

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

    def mesh_cells(self, delta: float) -> int:
        """Interior elements of the mesh at one horizon: n_interior in an inf
        study, otherwise max(2, round(|Omega| m / delta)) so that h = delta/m."""
        if self.study == "inf":
            return self.n_interior
        return max(2, round(self.length * self.cells_per_horizon / delta))


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
    """Limit and rate from the last three (delta, value) points.

    Fits value ~ L + c*delta^alpha assuming roughly geometric horizons; the
    limit is the Aitken accelerant of the last three values, the rate comes
    from successive log-differences. Returns (limit, rate); falls back to the
    last value with rate 0 when differences degenerate.
    """
    if len(values) < 3:
        return float(values[-1]), 0.0
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


def _horizon_mesh(config: SweepConfig, delta: float):
    """Mesh with h = delta/m for one zero/bbm horizon, and the kernel on its snapped horizon."""
    mesh = build_mesh(DomainSpec(config.a, config.b, delta), config.mesh_cells(delta))
    return mesh, KernelParams(config.s, config.p, mesh.delta_effective)


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
        mesh, params = _horizon_mesh(config, delta)
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
    """Horizon-to-infinity sweep on a fixed collarless mesh of Omega.

    ``SweepConfig.from_dict`` ensures every finite horizon is at least the
    domain length, so the collar carries only the analytic tail, and the energy
    at delta is that at INF less horizon_shift times the L^p mass. So only INF
    is solved: the eigenpairs at delta are (lambda(INF) - horizon_shift, u(INF)),
    and a finite row takes INF's converged flag. Checks monotonicity in delta,
    the norm-equivalence sandwich, and the gap at the largest finite horizon; a
    failed check fails the verdicts of the report.
    """
    config = report.config
    finite = config.delta_list[:-1]
    mesh = build_mesh(DomainSpec(config.a, config.b, INFINITE), config.n_interior)
    t0 = time.perf_counter()
    pairs = solve_eigenpairs(mesh, KernelParams(config.s, config.p, INFINITE), max(config.k_list))
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
            c = embedding_constant(params, config.length, pairs[0].lam - horizon_shift(params))
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
    a, length, p = config.a, config.length, config.p
    truncated = {}  # per horizon: the sine was nonzero on the collar and cut to zero

    def rows_of(delta):
        mesh, params = _horizon_mesh(config, delta)
        u = interpolate(lambda x: math.sin(math.pi * (x - a) / length), mesh)
        truncated[delta] = u.truncated
        val = scaling_factor(params) * nonlocal_energy(u, params).total
        return [Row(delta, mesh.delta_effective, 1, val, val)]

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
    """Write <name>.json, <name>.csv and <name>.meta.json under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, report.config.name)
    for suffix, text in ((".json", report.to_json()), (".csv", report.to_csv()),
                         (".meta.json", report.metadata())):
        with open(base + suffix, "w", encoding="utf-8") as fh:
            fh.write(text)


def run_configs(paths, out_dir, threads: int = 1, study=None) -> int:
    """Parse every study config file, then run each in order, writing its reports
    under out_dir and printing its status line; 0 pass, 1 fail, 2 config error
    before any study runs (also for a config not of kind `study`, if given)."""
    configs = []
    try:
        for path in paths:
            config = SweepConfig.from_file(path)
            if study is not None and config.study != study:
                raise ConfigError(f"{config.name}: config is a {config.study!r} study, "
                                  f"but the {study!r} runner was requested")
            configs.append(config)
    except ConfigError as exc:
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
