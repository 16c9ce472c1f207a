import inspect
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import types

import pytest
from scipy.integrate import quad

from perispec.harness import (
    ConfigError,
    SweepConfig,
    extrapolate_limit,
    run_all,
    run_study,
    write_report,
)
from perispec import cli, harness

from test_eigensolver import blas_thread_getters


def base_config(**overrides):
    d = {
        "schema_version": 1,
        "study": "zero",
        "p": 2.0,
        "s": 0.5,
        "delta_list": [0.4, 0.2, 0.1],
        "cells_per_horizon": 4,
        "k_list": [1],
        "thresholds": [0.5],
    }
    d.update(overrides)
    return d


def refuse(*args, **kwargs):
    raise AssertionError("compute started for an invalid request")


def run_python(script):
    """stdout of script run by a fresh interpreter that imports perispec from this checkout."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestConfigValidation:
    def test_valid_roundtrip(self):
        cfg = SweepConfig.from_dict(base_config(), name="demo")
        assert cfg.study == "zero" and cfg.delta_list == (0.4, 0.2, 0.1)
        assert cfg.echo()["name"] == "demo"

    @pytest.mark.parametrize("patch", [
        {"schema_version": 99},
        {"study": "sideways"},
        {"p": 1.0},
        {"s": 1.5},
        {"delta_list": []},
        {"delta_list": [0.1, 0.2, 0.4]},           # must decrease for zero studies
        {"delta_list": [0.4, 0.2]},                 # too few points to extrapolate
        {"delta_list": [0.4, 0.2, "INF"]},          # INF only in inf studies
        {"k_list": []},
        {"k_list": [0]},
        {"k_list": [1, 2], "p": 3.0, "thresholds": [0.5, 0.5]},  # k>1 needs p=2
        {"thresholds": [0.5, 0.5]},                 # one per k
        {"cells_per_horizon": 2},
        {"unexpected_key": 1},
        {"seed": 0},                                # no solver read it; now an unknown key
        {"k_list": [1, 12], "thresholds": [0.5, 0.5]},  # coarsest mesh has 9 nodes
        {"delta_list": [0.4, 0.2, 0.15]},           # not geometric: breaks extrapolation
        # bool is an int in Python: true must not pass as 1
        {"k_list": [True]},
        {"thresholds": [True]},
        {"schema_version": True},
        {"b": True},
        # float() parses strings: only a horizon may be the string "INF"
        {"p": "2.0"},
        {"s": "0.5"},
        {"b": "INF"},
        {"delta_list": ["0.4", 0.2, 0.1]},
        {"thresholds": ["0.5"]},
        {"b": None},
        # Python's json reads NaN and Infinity as numbers
        {"thresholds": [math.inf]},
        {"s": math.nan},
        {"b": math.inf},
        {"study": "inf", "delta_list": [1.0, 2.0, math.inf], "n_interior": 16},
        # finite, but the mesh size overflows
        {"b": 1e308},
        {"b": 10 ** 400},
        {"study": "inf", "delta_list": [1.0, 2.0, "INF"], "n_interior": 10 ** 400},
        {"k_list": [1, 1], "thresholds": [0.5, 0.5]},  # each k once: one row and verdict
        # the domains that KernelParams and Mesh hold
        {"a": 2.0},
        {"n_interior": 1},
        {"delta_list": [0.4, 0.2, 0.0]},
        {"delta_list": [0.4, 0.2, -0.1]},
        # the name is the stem of the report files, not a path
        {"name": "../escaped"},
        {"name": ""},
        {"name": "."},
        {"name": ".."},
        {"name": "sub/x"},
        {"name": "a\0b"},                          # open() refuses it after the compute
        {"study": "bbm", "k_list": [1, 2], "thresholds": [0.5, 0.5]},  # bbm takes no k_list
        # one finite horizon: the inf study's checks compare two or more
        {"study": "inf", "delta_list": [1.0, "INF"], "n_interior": 16},
    ])
    def test_rejected(self, patch):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict(base_config(**patch))

    @pytest.mark.parametrize("key", ["schema_version", "study", "p", "s", "delta_list"])
    def test_missing_required_key(self, key):
        d = base_config()
        del d[key]
        with pytest.raises(ConfigError, match=f"missing required keys \\['{key}'\\]"):
            SweepConfig.from_dict(d)

    def test_inf_study_message_names_its_rule(self):
        d = base_config(study="inf", delta_list=[1.0, "INF"], n_interior=16)
        with pytest.raises(ConfigError, match="at least two finite horizons plus INF"):
            SweepConfig.from_dict(d)

    def test_inf_study_requires_increasing_deltas(self):
        d = base_config(study="inf", delta_list=[4.0, 2.0, "INF"])
        with pytest.raises(ConfigError):
            SweepConfig.from_dict(d)

    def test_inf_token_parsed(self):
        d = base_config(study="inf", delta_list=[1.0, 2.0, "INF"], n_interior=16)
        cfg = SweepConfig.from_dict(d)
        assert math.isinf(cfg.delta_list[-1])

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            SweepConfig.from_file(tmp_path / "missing.json")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            SweepConfig.from_file(path)


class TestExtrapolation:
    def test_recovers_power_law_limit(self):
        limit, alpha = 7.25, 1.0
        deltas = [0.2, 0.1, 0.05, 0.025]
        values = [limit - 3.0 * d ** alpha for d in deltas]
        est, rate = extrapolate_limit(deltas, values)
        assert est == pytest.approx(limit, rel=1e-12)
        assert rate == pytest.approx(alpha, rel=1e-10)

    def test_fractional_rate(self):
        limit, alpha = 2.0, 0.5
        deltas = [0.4, 0.2, 0.1]
        values = [limit + 1.3 * d ** alpha for d in deltas]
        est, rate = extrapolate_limit(deltas, values)
        assert est == pytest.approx(limit, rel=1e-10)
        assert rate == pytest.approx(alpha, rel=1e-10)

    def test_degenerate_differences_fall_back(self):
        est, rate = extrapolate_limit([0.4, 0.2, 0.1], [1.0, 1.0, 1.0])
        assert est == 1.0 and rate == 0.0


class TestStudies:
    def test_small_zero_study(self):
        cfg = SweepConfig.from_dict(base_config(), name="tiny-zero")
        report = run_study(cfg)
        assert len(report.rows) == 3
        assert report.rates[1] > 0.0
        assert report.verdicts[1]
        # scaled values approach 2*pi^2 from below
        scaled = [r.lambda_scaled for r in report.rows]
        assert all(a < b for a, b in zip(scaled, scaled[1:]))
        assert report.references[1] == pytest.approx(2.0 * math.pi ** 2, rel=1e-12)

    def test_zero_study_below_p2(self):
        # the delta -> 0+ limit at p = 1.5: gamma(1, p) times the local eigenvalue
        cfg = SweepConfig.from_dict(base_config(p=1.5, delta_list=[0.2, 0.1, 0.05],
                                                thresholds=[0.01]), name="zero-p15")
        report = run_study(cfg)
        assert all(r.converged for r in report.rows)
        assert report.verdicts[1] and report.rel_errors[1] <= 0.01

    def test_small_bbm_study(self):
        cfg = SweepConfig.from_dict(base_config(study="bbm", thresholds=[0.1]),
                                    name="tiny-bbm")
        report = run_study(cfg)
        assert report.references[1] == pytest.approx(math.pi ** 2, rel=1e-9)
        assert report.verdicts[1]
        assert report.checks["interpolant_truncated_on_collar"] and report.passed

    def test_bbm_check_reads_the_interpolant_flag(self, monkeypatch):
        # the check samples the sine on the collar grid beyond the ends of Omega: its zero
        # extension, the same function on Omega, is not truncated there
        zero_extended = types.SimpleNamespace(**dict(vars(math),
                                                     sin=lambda t: max(0.0, math.sin(t))))
        monkeypatch.setattr(harness, "math", zero_extended)
        cfg = SweepConfig.from_dict(base_config(study="bbm", thresholds=[0.1]),
                                    name="tiny-bbm")
        report = run_study(cfg)
        assert report.verdicts[1]
        assert report.checks["interpolant_truncated_on_collar"] is False
        assert not report.passed

    @pytest.mark.parametrize("length", [1.0, 2.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_sine_gradient_integral_matches_quadrature(self, p, length):
        integral, _ = quad(lambda x: abs(math.pi / length * math.cos(math.pi * x / length)) ** p,
                           0.0, length, limit=200)
        assert abs(harness._sine_gradient_integral(p, length) - integral) <= 1e-10 * integral

    def test_inf_study_requires_horizon_at_least_domain(self):
        d = base_config(study="inf", delta_list=[0.5, 1.0, "INF"], n_interior=16)
        with pytest.raises(ConfigError):
            SweepConfig.from_dict(d)

    def test_failed_sandwich_still_writes_report(self, tmp_path, monkeypatch):
        # an embedding constant of 1 puts lambda(inf) above the sandwich's upper bound
        # C^p lambda(delta), so the check fails, and the study still finishes and leaves
        # its report behind
        monkeypatch.setattr(harness, "embedding_constant", lambda params, lam1: 1.0)
        cfg_path = tmp_path / "sandwich.json"
        cfg_path.write_text(json.dumps(base_config(
            study="inf", p=3.0, delta_list=[1.0, 2.0, "INF"], n_interior=8, name="sandwich")))
        assert cli.main(["sweep-inf", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        payload = json.loads((tmp_path / "out" / "sandwich.json").read_text())
        assert payload["checks"] == {"monotonicity": True, "sandwich": False}
        assert payload["verdicts"] == {"1": False}
        assert payload["passed"] is False
        assert (tmp_path / "out" / "sandwich.csv").exists()

    @pytest.mark.parametrize("p, s, k_list", [(2.0, 0.1, [1, 2]), (3.0, 0.001, [1])])
    def test_sandwich_holds_where_ps_2_to_the_p_is_below_1(self, p, s, k_list):
        # lambda(inf) - lambda(delta) = kappa at delta >= |Omega|, and C(delta)^p lambda(delta)
        # must reach it at every horizon, also where ps 2^p < 1 and delta is large
        report = run_study(SweepConfig.from_dict(base_config(
            study="inf", p=p, s=s, delta_list=[1.0, 2.0, 4.0, 8.0, "INF"], n_interior=32,
            k_list=k_list, thresholds=[0.5] * len(k_list))))
        assert report.checks["sandwich"] and report.checks["monotonicity"]

    def test_inf_study_without_k1(self):
        # the sandwich constant of every k reads the first eigenvalue, which every
        # horizon solves whether k = 1 is reported or not
        d = base_config(study="inf", delta_list=[1.0, 2.0, "INF"], n_interior=12)
        both = run_study(SweepConfig.from_dict(dict(d, k_list=[1, 2], thresholds=[0.5, 0.5])))
        report = run_study(SweepConfig.from_dict(dict(d, k_list=[2])))
        assert [r.lambda_raw for r in report.rows] == [r.lambda_raw for r in both.rows
                                                       if r.k == 2]
        assert report.checks == both.checks and report.checks["sandwich"]

    def test_report_determinism_across_threads(self):
        for overrides in ({}, {"study": "inf", "p": 3.0, "delta_list": [1.0, 2.0, 4.0, "INF"],
                               "n_interior": 12}):
            cfg = SweepConfig.from_dict(base_config(**overrides), name="det")
            serial = run_study(cfg, threads=1)
            threaded = run_study(cfg, threads=2)
            assert serial.to_csv() == threaded.to_csv()
            assert serial.to_json() == threaded.to_json()

    def test_inf_rows_obey_horizon_shift_identity(self):
        # on a collarless mesh, lambda(delta) = lambda(inf) - (4/(ps)) delta^(-ps)
        cfg = SweepConfig.from_dict(base_config(
            study="inf", p=3.0, delta_list=[1.0, 2.0, 4.0, 8.0, "INF"], n_interior=16),
            name="shift")
        report = run_study(cfg, threads=2)
        lam = {r.delta_requested: r.lambda_raw for r in report.rows}
        ps = cfg.p * cfg.s
        for delta in cfg.delta_list[:-1]:
            expected = lam[math.inf] - 4.0 / ps * delta ** (-ps)
            assert abs(lam[delta] - expected) <= 1e-9 * abs(expected)
        assert all(r.converged for r in report.rows)

    @pytest.mark.parametrize("n_interior", [16, 64])
    def test_p2_inf_rows_obey_horizon_shift_identity(self, n_interior):
        # at p = 2, A(delta) = A(inf) - 2 c(delta) M; the eigenvalues are Rayleigh
        # quotients, good to ~1e-14
        cfg = SweepConfig.from_dict(base_config(
            study="inf", p=2.0, delta_list=[1.0, 2.0, 4.0, 8.0, "INF"],
            n_interior=n_interior), name="shift-p2")
        lam = {r.delta_requested: r.lambda_raw for r in run_study(cfg).rows}
        ps = cfg.p * cfg.s
        for delta in cfg.delta_list[:-1]:
            expected = lam[math.inf] - 4.0 / ps * delta ** (-ps)
            assert abs(lam[delta] - expected) <= 1e-12 * abs(expected)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds need glibc")
    def test_run_study_keeps_freed_heap(self):
        # importing perispec raises glibc's heap thresholds, so the
        # temporaries of each energy call reuse pages instead of faulting them in
        config = base_config(p=3.0, delta_list=[0.2, 0.1, 0.05], thresholds=[0.05])
        script = (
            "import resource\n"
            "from perispec.harness import SweepConfig, run_study\n"
            f"cfg = SweepConfig.from_dict({config!r}, name='collar-p3')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_study(cfg)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(run_python(script)) < 5000

    def test_write_report_files(self, tmp_path):
        cfg = SweepConfig.from_dict(base_config(), name="files")
        report = run_study(cfg)
        write_report(report, tmp_path)
        assert (tmp_path / "files.json").exists()
        assert (tmp_path / "files.csv").exists()
        assert (tmp_path / "files.meta.json").exists()
        csv = (tmp_path / "files.csv").read_text().splitlines()
        assert csv[0] == ("delta_requested,delta_effective,k,lambda_raw,"
                          "lambda_scaled,reference,rel_err,verdict")
        assert len(csv) == 4
        payload = json.loads((tmp_path / "files.json").read_text())
        assert payload["passed"] is True
        # snapped horizons are reported, never the request silently
        for row in payload["rows"]:
            assert "delta_effective" in row


class TestRunAll:
    def test_empty_directory_warns_and_passes(self, tmp_path, capsys):
        assert run_all(tmp_path) == 0
        assert "warning" in capsys.readouterr().out.lower()

    def test_missing_directory_is_config_error(self, tmp_path):
        assert run_all(tmp_path / "nope") == 2

    def test_malformed_config_exits_2(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps(base_config(p=0.5)))
        assert run_all(tmp_path) == 2

    def test_failing_study_exits_1(self, tmp_path):
        cfg = base_config(thresholds=[1e-9])  # unreachable accuracy
        (tmp_path / "strict.json").write_text(json.dumps(cfg))
        assert run_all(tmp_path, out_dir=tmp_path / "reports") == 1

    def test_every_config_parsed_before_any_study(self, tmp_path, monkeypatch):
        calls = []
        real = harness.solve_eigenpairs

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_eigenpairs", counting)
        (tmp_path / "a.json").write_text(json.dumps(base_config()))
        (tmp_path / "b.json").write_text(json.dumps(base_config(p=0.5)))
        assert run_all(tmp_path, out_dir=tmp_path / "reports") == 2
        assert calls == []
        assert not list(tmp_path.glob("reports/a.*"))

    def test_two_configs_of_one_name_exit_2_before_any_study(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "run_study", refuse)
        for stem in ("a", "b"):
            (tmp_path / f"{stem}.json").write_text(json.dumps(base_config(name="a")))
        assert run_all(tmp_path, out_dir=tmp_path / "reports") == 2
        assert not (tmp_path / "reports").exists()

    def test_out_dir_that_is_a_file_exits_2_before_any_study(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "run_study", refuse)
        (tmp_path / "ok.json").write_text(json.dumps(base_config()))
        out = tmp_path / "out"
        out.write_text("kept")
        assert run_all(tmp_path, out_dir=out) == 2
        assert out.read_text() == "kept"

    def test_out_dir_that_cannot_be_written_exits_2_before_any_study(self, tmp_path,
                                                                      monkeypatch):
        # a probe file in --out fails as an unwritable directory or a full disk would; a
        # process running as root ignores permissions, so the failure is injected
        def unwritable(*args, dir=None, **kwargs):
            raise PermissionError(13, "Permission denied", dir)

        monkeypatch.setattr(harness, "run_study", refuse)
        monkeypatch.setattr(tempfile, "NamedTemporaryFile", unwritable)
        (tmp_path / "ok.json").write_text(json.dumps(base_config()))
        assert run_all(tmp_path, out_dir=tmp_path / "reports") == 2
        assert list((tmp_path / "reports").iterdir()) == []

    def test_passing_study_exits_0(self, tmp_path):
        (tmp_path / "ok.json").write_text(json.dumps(base_config()))
        assert run_all(tmp_path, out_dir=tmp_path / "reports") == 0
        assert (tmp_path / "reports" / "ok.csv").exists()
        # the probe of --out leaves nothing behind
        assert sorted(os.listdir(tmp_path / "reports")) == ["ok.csv", "ok.json", "ok.meta.json"]


class TestCli:
    def test_import_and_p15_p2_p3_studies_load_no_scipy(self):
        # scipy.linalg alone takes ~0.15 s to import; scipy is a test dependency only
        script = ("import sys, perispec.cli\n"
                  "from perispec.harness import SweepConfig, run_study\n"
                  "def scipy_modules():\n"
                  "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
                  "print(scipy_modules())\n")
        for p in (3.0, 2.0, 1.5):
            config = base_config(p=p, delta_list=[0.4, 0.2, 0.1], thresholds=[0.5])
            script += (f"assert run_study(SweepConfig.from_dict({config!r}, name='tiny'))"
                       ".rows[0].converged\n"
                       "print(scipy_modules())\n")
        assert run_python(script).split() == ["[]"] * 4

    def test_import_and_serial_study_load_no_thread_pool(self):
        # concurrent.futures, and the logging it imports, serve only --threads > 1
        config = base_config(p=3.0, delta_list=[0.4, 0.2, 0.1], thresholds=[0.5])
        script = ("import sys, perispec.cli\n"
                  "from perispec.harness import SweepConfig, run_study\n"
                  f"assert run_study(SweepConfig.from_dict({config!r}, name='tiny'))"
                  ".rows[0].converged\n"
                  "print(sorted(m for m in ('concurrent.futures', 'logging') "
                  "if m in sys.modules))\n")
        assert run_python(script).split() == ["[]"]

    def test_import_starts_no_blas_worker_thread(self):
        # numpy's OpenBLAS starts worker threads as it loads unless the environment names a
        # thread count; importing perispec names one for that load only, and never
        # overrides the user's.  Either way numpy's OpenBLAS then runs on one thread.
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("native tasks are not listed in /proc/self/task")
        if not blas_thread_getters():
            pytest.skip("no bundled OpenBLAS")
        threads = ("import ctypes, glob\nimport numpy as np\n"
                   + inspect.getsource(blas_thread_getters)
                   + "print([get() for get in blas_thread_getters()])\n")
        script = ("import os\n"
                  "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
                  "import perispec.cli, numpy.linalg\n"
                  "print(len(os.listdir('/proc/self/task')), "
                  "'OPENBLAS_NUM_THREADS' in os.environ)\n")
        assert run_python(script + threads).split() == ["1", "False", "[1]"]
        script = ("import os\n"
                  "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
                  "import perispec\n"
                  "print(os.environ['OPENBLAS_NUM_THREADS'])\n")
        assert run_python(script + threads).split() == ["2", "[1]"]

    def test_gamma(self, capsys):
        assert cli.main(["gamma", "1", "2.7"]) == 0
        assert capsys.readouterr().out.strip() == "2.0"

    def test_gamma_bad_dimension(self, capsys):
        assert cli.main(["gamma", "7", "2.0"]) == 2

    def test_gamma_non_finite_p_is_config_error(self, capsys):
        assert cli.main(["gamma", "1", "inf"]) == 2
        assert capsys.readouterr().out == ""

    def test_gamma_at_large_p(self, capsys):
        assert cli.main(["gamma", "1", "400"]) == 0
        assert capsys.readouterr().out.strip() == "2.0"

    def test_sweep_zero_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(base_config(name="tiny")))
        rc = cli.main(["sweep-zero", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "tiny.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_study_kind_mismatch_exits_2(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(base_config()))
        assert cli.main(["bbm", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("command", ["sweep-zero", "sweep-inf", "bbm", "all"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, command, threads):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(base_config()))
        config = str(tmp_path if command == "all" else cfg_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", config, "--threads", threads])
        assert exc.value.code == 2

    def test_parser_is_built_once_per_process(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        assert cli.main(["gamma", "1", "2.7"]) == 0
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(base_config()))
        with pytest.raises(SystemExit) as exc:  # the reused parser still rejects it
            cli.main(["sweep-zero", "--config", str(cfg_path), "--threads", "0"])
        assert exc.value.code == 2
        assert cli._build_parser.cache_info().misses == 1

    def test_eigen_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "eig.json"
        cfg_path.write_text(json.dumps({
            "p": 2.0, "s": 0.5, "delta": 0.25, "a": 0.0, "b": 1.0,
            "n_interior": 16, "k_max": 2,
        }))
        assert cli.main(["eigen", "--config", str(cfg_path)]) == 0
        pairs = json.loads(capsys.readouterr().out)
        assert len(pairs) == 2
        assert pairs[0]["lambda"] < pairs[1]["lambda"]

    def test_eigen_out_writes_the_printed_bytes(self, tmp_path, capsys):
        cfg_path, out = tmp_path / "eig.json", tmp_path / "eig.out"
        cfg_path.write_text(json.dumps({"p": 3, "s": 0.5, "delta": 0.25, "n_interior": 16}))
        assert cli.main(["eigen", "--config", str(cfg_path)]) == 0
        printed = capsys.readouterr().out
        assert cli.main(["eigen", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "" and out.read_text(encoding="utf-8") == printed

    def test_eigen_at_a_collarless_finite_horizon(self, tmp_path, capsys):
        # delta >= b - a: no collar, and the energy is the INF one less kappa times the
        # L^p mass, kappa = (4/(ps)) delta^-ps, so lambda(2) = lambda(INF) - kappa
        cfg_path = tmp_path / "eig.json"
        for p in (3.0, 1.5):
            lams = []
            for delta in (2.0, "INF"):
                cfg_path.write_text(json.dumps({"p": p, "s": 0.5, "delta": delta,
                                                "n_interior": 24}))
                assert cli.main(["eigen", "--config", str(cfg_path)]) == 0
                (pair,) = json.loads(capsys.readouterr().out)
                lams.append(pair["lambda"])
            expected = lams[1] - 4.0 / (0.5 * p) * 2.0 ** (-0.5 * p)
            assert abs(lams[0] - expected) <= 1e-10 * expected

    def test_eigen_snaps_the_horizon(self, tmp_path, capsys):
        # 0.23 is 2.3 cells of 0.1: the kernel takes 2 cells and writes the bytes of 0.2
        cfg_path = tmp_path / "eig.json"
        outputs = []
        for delta in (0.23, 0.2):
            cfg_path.write_text(json.dumps({"p": 3, "s": 0.5, "delta": delta, "n_interior": 10}))
            assert cli.main(["eigen", "--config", str(cfg_path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_eigen_and_a_study_solve_one_problem(self, tmp_path, capsys):
        # both build their problems with build_problem: eigen at a study's keys prints the
        # lambda_raw of the study's row bit for bit, at INF and at h = delta/4
        zero = base_config(p=3.0, delta_list=[0.2, 0.1, 0.05])
        inf = base_config(p=3.0, study="inf", delta_list=[1.0, 2.0, "INF"], n_interior=24)
        lam = {r.delta_requested: r.lambda_raw for config in (zero, inf)
               for r in run_study(SweepConfig.from_dict(config)).rows}
        cfg_path = tmp_path / "eig.json"
        for delta, n in (("INF", 24), (0.2, 20), (0.1, 40), (0.05, 80)):
            cfg_path.write_text(json.dumps({"p": 3, "s": 0.5, "delta": delta, "n_interior": n}))
            assert cli.main(["eigen", "--config", str(cfg_path)]) == 0
            (pair,) = json.loads(capsys.readouterr().out)
            assert pair["lambda"] == lam[math.inf if delta == "INF" else delta]

    def test_eigen_bad_config(self, tmp_path):
        cfg_path = tmp_path / "eig.json"
        k_max_cfg = {"p": 2, "s": 0.5, "delta": 0.25, "n_interior": 8}
        for cfg in ({"p": 2.0}, [1, 2],
                    # horizon below one cell: the mesh cannot be built
                    {"p": 3, "s": 0.5, "delta": 0.001, "n_interior": 8},
                    # k_max outside [1, interior nodes], or above 1 at p != 2
                    dict(k_max_cfg, k_max=0), dict(k_max_cfg, k_max=-1),
                    dict(k_max_cfg, k_max=50), dict(k_max_cfg, p=3, k_max=2),
                    # non-integer sizes, not silently truncated
                    dict(k_max_cfg, n_interior=16.5), dict(k_max_cfg, k_max=1.5),
                    # a misspelt key, not silently the default n_interior = 128
                    {"p": 3.0, "s": 0.5, "delta": "INF", "n_interor": 8},
                    # booleans, not silently 1
                    dict(k_max_cfg, k_max=True), dict(k_max_cfg, delta=True),
                    # strings, not parsed as numbers; "INF" only as the horizon
                    {"p": "3", "s": "0.5", "delta": "0.25", "n_interior": 8},
                    dict(k_max_cfg, delta="0.25"), dict(k_max_cfg, b="INF"),
                    # NaN and Infinity, which Python's json reads as numbers
                    dict(k_max_cfg, delta=math.inf), dict(k_max_cfg, s=math.nan),
                    dict(k_max_cfg, b=-math.inf),
                    # a mesh size beyond float range, with and without a collar
                    dict(k_max_cfg, n_interior=10 ** 400),
                    dict(k_max_cfg, delta="INF", n_interior=10 ** 400),
                    # a domain whose cell width is inf or 0
                    dict(k_max_cfg, p=3, delta="INF", a=-1e308, b=1e308),
                    dict(k_max_cfg, p=3, delta="INF", b=5e-324, n_interior=2)):
            cfg_path.write_text(json.dumps(cfg))
            assert cli.main(["eigen", "--config", str(cfg_path)]) == 2

    def test_all_rejects_a_name_that_is_a_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "run_study", refuse)
        configs = tmp_path / "configs"
        configs.mkdir()
        (configs / "x.json").write_text(json.dumps(base_config(name="../escaped")))
        assert cli.main(["all", "--config", str(configs),
                         "--out", str(configs / "out")]) == 2
        assert sorted(tmp_path.rglob("*")) == [configs, configs / "x.json"]

    @pytest.mark.parametrize("out", ["", "missing/eig.out"], ids=["directory", "missing-parent"])
    def test_eigen_bad_out_exits_2_before_the_solve(self, tmp_path, monkeypatch, out):
        monkeypatch.setattr(cli, "solve_eigenpairs", refuse)
        cfg_path = tmp_path / "eig.json"
        cfg_path.write_text(json.dumps({"p": 3, "s": 0.5, "delta": 0.25, "n_interior": 8}))
        assert cli.main(["eigen", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 2
        assert sorted(tmp_path.rglob("*")) == [cfg_path]

    def test_sweep_inf_config_error_before_any_solve(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            raise AssertionError("solver called for an invalid config")

        monkeypatch.setattr(harness, "solve_eigenpairs", counting)
        cfg_path = tmp_path / "noinf.json"
        cfg_path.write_text(json.dumps(base_config(
            study="inf", delta_list=[1.0, 2.0, 4.0], n_interior=16)))
        assert cli.main(["sweep-inf", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        assert calls == []
