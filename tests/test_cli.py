"""Tests for the command-line front end: config handling, output format,
exit codes, and the determinism contracts."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import dirtail as dt
from dirtail import cli
from dirtail.errors import (DirtailError, DomainError, NumericError, UnsupportedClassError,
                            ValidationError, WrongRegimeError)

KOTZ_CONFIG = {
    "alpha": [1.0, 1.0],
    "lambda": [1.0, 0.0],
    "p": 1.0,
    "radial": {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}},
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def child_env():
    """The environment of a child interpreter that imports the same dirtail tree as the
    tests: PYTHONPATH starts with the directory that holds the package."""
    root = os.path.dirname(os.path.dirname(dt.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")]))}


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    meta, header, rows = lines[0], lines[1].split(","), [l.split(",") for l in lines[2:]]
    return meta, header, rows


class TestApprox:
    def test_d1_exponential(self, tmp_path):
        cfg = {"alpha": [1.0], "lambda": [1.0], "p": 1.0,
               "radial": {"family": "gamma", "params": {"shape": 1.0, "rate": 1.0}},
               "thresholds": [10.0]}
        out = tmp_path / "out.csv"
        rc = cli.main(["approx", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert header == ["threshold", "depth", "prediction_log", "regime"]
        assert float(rows[0][2]) == pytest.approx(-10.0, rel=1e-12)

    def test_depth_grid(self, tmp_path):
        cfg = dict(KOTZ_CONFIG, depths=[1e-6, 1e-8])
        out = tmp_path / "out.csv"
        rc = cli.main(["approx", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(1e-6, rel=1e-8)
        assert float(rows[1][1]) == pytest.approx(1e-8, rel=1e-8)

    def test_endpoint_regime_depth_mapping(self, tmp_path):
        # with a uniform radius the survival at the 1e-3 depth sits at
        # position 1 - 1e-3, so the emitted threshold is 1 - 1e-3 and the
        # prediction is (1e-3)^2 / 2
        cfg = {"alpha": [1.0, 1.0], "lambda": [1.0, 0.0], "p": 1.0,
               "radial": {"family": "beta", "params": {"a": 1.0, "b": 1.0}},
               "depths": [1e-3]}
        out = tmp_path / "out.csv"
        rc = cli.main(["approx", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][0]) == pytest.approx(1.0 - 1e-3, rel=1e-12)
        assert float(rows[0][1]) == pytest.approx(1e-3, rel=1e-9)
        assert float(rows[0][2]) == pytest.approx(math.log(0.5e-6), rel=1e-9)
        assert rows[0][3] == "weibull"

    @pytest.mark.parametrize("p, radial", [
        (0.5, {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}}),  # Gumbel base
        (1.0, {"family": "beta", "params": {"a": 2.0, "b": 3.0}}),          # endpoint base
    ])
    def test_rows_are_the_asymptotic_depth_maps(self, tmp_path, p, radial):
        depths = [1e-3, 1e-6, 1e-9]
        cfg = {"alpha": [1.0, 2.0], "lambda": [1.0, 0.5], "p": p, "radial": radial,
               "depths": depths}
        out = tmp_path / "out.csv"
        rc = cli.main(["approx", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        asym = dt.tail_asymptotic(cli._build_spec(cfg))
        for depth, row in zip(depths, rows):
            assert float(row[0]) == asym.threshold_at_depth(depth)
            assert float(row[1]) == asym.depth_at(float(row[0]))


class TestConstants:
    def test_equal_pair(self, tmp_path):
        cfg = {"alpha": [1.0, 1.0], "lambda": [1.0, 1.0], "p": 0.5,
               "radial": {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}}}
        out = tmp_path / "out.csv"
        rc = cli.main(["constants", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["k", "lambda_tilde", "theta", "curvature", "c_tilde", "rv_index"]
        assert float(rows[0][4]) == pytest.approx(2 ** 1.25, rel=1e-12)

    def test_near_unit_power_is_3_and_names_column(self, tmp_path, capsys):
        # the curvature exp(3.6e5) has no double; the command must not print inf
        cfg = {"alpha": [1, 1, 1], "lambda": [1, 0.7, 0.4], "p": 0.999999,
               "radial": {"family": "gamma", "params": {"shape": 3, "rate": 1}}}
        out = tmp_path / "out.csv"
        rc = cli.main(["constants", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 3
        assert "column curvature" in capsys.readouterr().err
        assert not out.exists()


class TestRatio:
    def test_kotz_final_row_band(self, tmp_path):
        cfg = dict(KOTZ_CONFIG, depths=[1e-6, 1e-8, 1e-10], n=10 ** 6, seed=20240808)
        out = tmp_path / "out.csv"
        rc = cli.main(["ratio", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["threshold", "depth", "prediction_log", "oracle_log", "ratio"]
        assert 0.95 <= float(rows[-1][4]) <= 1.05

    def test_quadrature_oracle_no_seed_needed(self, tmp_path):
        cfg = dict(KOTZ_CONFIG, depths=[1e-6], oracle="quadrature")
        out = tmp_path / "out.csv"
        rc = cli.main(["ratio", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0

    def test_conditional_without_seed_fails(self, tmp_path, capsys):
        cfg = dict(KOTZ_CONFIG, depths=[1e-6])
        rc = cli.main(["ratio", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("simulate", "method"), ("ratio", "oracle")])
@pytest.mark.parametrize("method", ["conditional", "crude"])
def test_one_sampling_pass_per_command(tmp_path, monkeypatch, command, key, method):
    passes = []
    chunked = dt.montecarlo._chunked

    def counting(*args, **kwargs):
        passes.append(args)
        return chunked(*args, **kwargs)

    monkeypatch.setattr(dt.montecarlo, "_chunked", counting)
    cfg = dict(KOTZ_CONFIG, depths=[1e-4, 1e-6, 1e-8], n=1000, seed=5, **{key: method})
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(read_csv(out)[2]) == 3 and len(passes) == 1


@pytest.mark.parametrize("p, lam, radial, method, estimator", [
    (2.0, [1.0, 0.5], {"family": "beta", "params": {"a": 2.0, "b": 3.0}}, "conditional",
     dt.conditional_mc_tail),  # p > 1 outside the Gumbel class
    (0.5, [1.0, 0.0], {"family": "gamma", "params": {"shape": 3.0}}, "crude",
     dt.crude_mc_tail),  # p < 1 with a zero weight
], ids=["p2-beta", "p05-zero-weight"])
def test_simulate_at_thresholds_needs_no_asymptotic(tmp_path, p, lam, radial, method,
                                                    estimator):
    # no asymptotic covers these specs, but the Monte Carlo oracles do
    cfg = {"alpha": [1.0, 2.0], "lambda": lam, "p": p, "radial": radial, "method": method,
           "thresholds": [0.5 if p > 1 else 5.0], "n": 4000, "seed": 11}
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    spec = cli._build_spec(cfg)
    (e,) = estimator(spec, cfg["thresholds"], cfg["n"], cfg["seed"])
    expected = [cfg["thresholds"][0], method, 4000, 11, e.p_hat, e.log_p_hat, e.stderr]
    assert read_csv(out)[2] == [[cli._fmt_cell(v) for v in expected]]


class TestVarEs:
    def test_exponential(self, tmp_path):
        cfg = {"alpha": [1.0], "lambda": [1.0], "p": 1.0,
               "radial": {"family": "gamma", "params": {"shape": 1.0, "rate": 1.0}},
               "levels": [0.999]}
        out = tmp_path / "out.csv"
        rc = cli.main(["var-es", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(-math.log(1e-3), rel=1e-9)
        assert float(rows[0][2]) == pytest.approx(1.0, rel=1e-9)
        assert rows[0][3] == "false"


class TestDiagnoseMda:
    def test_radial_mode(self, tmp_path):
        cfg = {"alpha": [1.0], "lambda": [1.0], "p": 1.0,
               "radial": {"family": "gamma", "params": {"shape": 1.0, "rate": 1.0}},
               "mode": "gumbel_ratio", "x": 1.0}
        out = tmp_path / "out.csv"
        rc = cli.main(["diagnose-mda", "--config", write_config(tmp_path, cfg),
                       "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        for row in rows:
            assert float(row[1]) == pytest.approx(math.exp(-1), rel=1e-10)

    def test_empirical_mode(self, tmp_path):
        cfg = {"alpha": [1.0], "lambda": [1.0], "p": 1.0,
               "radial": {"family": "gamma", "params": {"shape": 1.0, "rate": 1.0}},
               "mode": "empirical", "x_grid": [1.0], "depths": [1e-4], "n": 1000,
               "seed": 5}
        out = tmp_path / "out.csv"
        rc = cli.main(["diagnose-mda", "--config", write_config(tmp_path, cfg),
                       "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][3]) == pytest.approx(math.exp(-1), rel=1e-9)


class TestMaxstable:
    def test_identity_weights(self, tmp_path):
        cfg = {"alpha": [1.0, 1.0], "lambda": [1.0, 1.0], "p": 2.0,
               "radial": {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}},
               "weights": [[1.0, 0.0], [0.0, 1.0]], "n_grid": [1000], "n": 20000,
               "seed": 9}
        out = tmp_path / "out.csv"
        rc = cli.main(["maxstable", "--config", write_config(tmp_path, cfg),
                       "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["n_level", "b_n", "a_n", "pair_ratio"]
        assert float(rows[0][3]) < 0.2

    def test_weight_rows_follow_config_alpha_order(self, tmp_path):
        # lambda sorts the spec's alpha to (3, 0.5); the weight rows, and so
        # column 0's law, stay in the config's order (0.5, 3)
        cfg = {"alpha": [0.5, 3.0], "lambda": [0.4, 1.0], "p": 2.0,
               "radial": {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}},
               "weights": [[1.0, 0.0], [0.0, 1.0]], "n_grid": [1000], "n": 2000,
               "seed": 9}
        out = tmp_path / "out.csv"
        rc = cli.main(["maxstable", "--config", write_config(tmp_path, cfg),
                       "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        column = dt.norming_constants(dt.validate_spec([0.5, 3], [1, 0], 2, dt.GammaLaw(2, 1)),
                                      1000)
        assert float(rows[0][1]) == column.b_n and float(rows[0][2]) == column.a_n

    def test_no_gumbel_norming_is_2_before_sampling(self, tmp_path, monkeypatch, capsys):
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before raising")

        monkeypatch.setattr(dt.montecarlo, "_chunked", no_draws)
        cfg = {"alpha": [1.0, 1.0], "lambda": [1.0, 1.0], "p": 1.0,
               "radial": {"family": "beta", "params": {"a": 2.0, "b": 3.0}},
               "weights": [[1.0, 0.0], [0.0, 1.0]], "n": 10 ** 6, "seed": 9}
        assert cli.main(["maxstable", "--config", write_config(tmp_path, cfg)]) == 2
        assert "Gumbel-class" in capsys.readouterr().err


class TestOutputContracts:
    def test_metadata_line(self, tmp_path):
        cfg = dict(KOTZ_CONFIG, depths=[1e-6], oracle="quadrature", seed=77)
        out = tmp_path / "out.csv"
        cli.main(["ratio", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        meta, _, _ = read_csv(out)
        assert meta.startswith("# dirtail=")
        assert "seed=77" in meta and "spec_sha256=" in meta and "command=ratio" in meta

    def test_seventeen_digit_floats(self, tmp_path):
        cfg = {"alpha": [1.0], "lambda": [1.0], "p": 1.0,
               "radial": {"family": "gamma", "params": {"shape": 1.0, "rate": 1.0}},
               "thresholds": [10.0]}
        out = tmp_path / "out.csv"
        cli.main(["approx", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        _, _, rows = read_csv(out)
        mantissa = rows[0][2].split("e")[0]
        assert len(mantissa.lstrip("-").replace(".", "")) == 17
        assert "." in mantissa
        # 17 significant digits round-trip the double exactly
        assert float(rows[0][2]) == -10.0

    def test_json_format(self, tmp_path):
        cfg = dict(KOTZ_CONFIG, depths=[1e-6], oracle="quadrature", format="json")
        out = tmp_path / "out.json"
        rc = cli.main(["ratio", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "threshold"
        assert len(doc["rows"]) == 1
        assert doc["meta"]["command"] == "ratio"

    def test_dump_config_roundtrip(self, tmp_path):
        cfg = dict(KOTZ_CONFIG, depths=[1e-6, 1e-8], n=20000, seed=123)
        out1 = tmp_path / "a.csv"
        dumped = tmp_path / "resolved.json"
        rc = cli.main(["ratio", "--config", write_config(tmp_path, cfg),
                       "--out", str(out1), "--dump-config", str(dumped)])
        assert rc == 0
        out2 = tmp_path / "b.csv"
        rc = cli.main(["ratio", "--config", str(dumped), "--out", str(out2)])
        assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path, monkeypatch):
        # every command that samples passes the worker count to the chunk
        # engine (None when --workers is left out), and the bytes do not move
        seen = []
        chunked = dt.montecarlo._chunked

        def recording(*args, **kwargs):
            seen.append(args[4] if len(args) > 4 else kwargs.get("workers"))
            return chunked(*args, **kwargs)

        monkeypatch.setattr(dt.montecarlo, "_chunked", recording)
        gamma2 = {"family": "gamma", "params": {"shape": 2.0}}
        for command, cfg in [
            ("simulate", dict(KOTZ_CONFIG, thresholds=[5.0], n=170000, seed=2024)),
            ("diagnose-mda", {"alpha": [1.0, 1.0], "lambda": [1.0, 0.5], "p": 2.0,
                              "radial": gamma2, "mode": "empirical", "x_grid": [1.0],
                              "depths": [1e-4, 1e-6], "n": 140000, "seed": 7}),
            ("maxstable", {"alpha": [1.0, 2.0], "lambda": [1.0, 1.0], "p": 0.5,
                           "radial": gamma2, "weights": [[0.8, 0.6], [0.6, 0.8]],
                           "n_grid": [100, 1000], "n": 140000, "seed": 11}),
        ]:
            seen.clear()
            outs = []
            for flags, name in [(["--workers", "1"], "w1.csv"), (["--workers", "4"], "w4.csv"),
                                ([], "default.csv")]:
                out = tmp_path / name
                rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                               "--out", str(out), *flags])
                assert rc == 0, command
                outs.append(out.read_bytes())
            assert outs[0] == outs[1] == outs[2], command
            assert seen == [1, 4, None], command

    @pytest.mark.parametrize("command, extra", [
        ("simulate", {"thresholds": [5.0], "n": 1000, "seed": 1}),
        ("approx", {"thresholds": [5.0]}),
        ("var-es", {"levels": [0.99]}),
        ("constants", {}),
    ], ids=["simulate", "approx", "var-es", "constants"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_is_2(self, tmp_path, capsys, command, extra, workers):
        # checked for every command, whether it samples or not
        assert cli.main([command, "--config", write_config(tmp_path, {**KOTZ_CONFIG, **extra}),
                         "--workers", workers]) == 2
        assert "workers must be an integer >= 1" in capsys.readouterr().err


class TestImportWeight:
    def test_no_integrate_or_optimize(self):
        # a fresh import is what every CLI call pays before any work
        code = ("import sys, dirtail, dirtail.cli; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=child_env()).stdout
        assert out.strip() == "[]"


class TestParser:
    EQUAL_PAIR = {"alpha": [1.0, 1.0], "lambda": [1.0, 1.0], "p": 0.5,
                  "radial": {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}}}

    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def test_back_to_back_commands_print_their_lone_bytes(self, tmp_path, capsys):
        runs = [["approx", "--config",
                 write_config(tmp_path, dict(KOTZ_CONFIG, thresholds=[5.0, 9.0]), "a.json")],
                ["constants", "--config", write_config(tmp_path, self.EQUAL_PAIR, "c.json")]]
        together = []
        for argv in runs:
            assert cli.main(argv) == 0
            together.append(capsys.readouterr().out)
        code = "import sys; from dirtail import cli; sys.exit(cli.main(sys.argv[1:]))"
        alone = [subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, check=True, env=child_env()).stdout for argv in runs]
        assert together == alone

    def test_unknown_command_after_a_call_is_2_with_usage(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(KOTZ_CONFIG, thresholds=[5.0]))
        assert cli.main(["approx", "--config", path]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["simluate", "--config", path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: dirtail ") and "invalid choice: 'simluate'" in err


class TestExitCodes:
    def test_malformed_json_is_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": [1.0,\n  "lambda"')
        rc = cli.main(["approx", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.json:2" in err

    def test_unknown_key_is_2(self, tmp_path, capsys):
        cfg = dict(KOTZ_CONFIG, thresholds=[1.0], typo_key=1)
        rc = cli.main(["approx", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "typo_key" in capsys.readouterr().err

    def test_wrong_regime_is_2_and_names_precondition(self, tmp_path, capsys):
        cfg = {"alpha": [1.0, 1.0], "lambda": [1.0, 0.0], "p": 0.5,
               "radial": {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}},
               "thresholds": [1.0]}
        rc = cli.main(["approx", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "zero weights" in capsys.readouterr().err

    def test_missing_config_key_is_2(self, tmp_path, capsys):
        rc = cli.main(["approx", "--config", write_config(tmp_path, {"alpha": [1.0]})])
        assert rc == 2

    def test_bad_radial_family_is_2(self, tmp_path):
        cfg = dict(KOTZ_CONFIG, radial={"family": "cauchy", "params": {}}, thresholds=[1.0])
        assert cli.main(["approx", "--config", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize("command, extra, key", [
        ("simulate", {"n": "abc"}, "n"),
        ("simulate", {"p": "0.5"}, "p"),
        ("approx", {"depths": ["x"]}, "depths"),
        ("approx", {"thresholds": 5.0}, "thresholds"),
        ("approx", {"thresholds": [float("nan")]}, "thresholds"),
        ("maxstable", {"weights": [[1, "a"], [0, 1]]}, "weights"),
        ("approx", {"out": ["a.csv"]}, "out"),
        # counts and column indices must be whole numbers, not truncated
        ("simulate", {"n": 1.9}, "n"),
        ("maxstable", {"pair": [0.7, 1]}, "pair"),
        ("maxstable", {"n_grid": [100.9]}, "n_grid"),
        # a key left out, or one that clashes with another
        ("approx", {"thresholds": [1.0], "depths": [1e-6]}, "thresholds"),
        ("diagnose-mda", {}, "mode"),
        ("maxstable", {}, "weights"),
        ("maxstable", {"weights": [[1, 0], [0, 1]], "pair": [0, 1, 1]}, "pair"),
    ])
    def test_wrong_type_is_2_and_names_key(self, tmp_path, capsys, command, extra, key):
        cfg = dict(KOTZ_CONFIG, seed=1, **extra)
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, extra", [
        # a line's Beta shape past the quadrature rule's range
        ("ratio", {"alpha": [1e-17, 1.0], "depths": [1e-6], "oracle": "quadrature"}),
        ("ratio", {"alpha": [1e-15, 1.0], "depths": [1e-6], "oracle": "quadrature"}),
        ("ratio", {"alpha": [1e300, 1.0], "depths": [1e-6], "oracle": "quadrature"}),
        # u w(u) underflows to 0 (var-es: the radial quantile overflows first)
        ("var-es", {"radial": {"family": "weibulltail", "params": {"index": 1e-300}},
                    "levels": [0.99]}),
        ("diagnose-mda", {"radial": {"family": "weibulltail", "params": {"index": 1e-300}},
                          "mode": "empirical", "n": 1000}),
        ("diagnose-mda", {"radial": {"family": "unitgumbel", "params": {"kappa": 1e300}},
                          "mode": "davis_resnick", "mu": 1.0, "c": 2.0}),
        # a diagnostic parameter left out
        ("diagnose-mda", {"mode": "davis_resnick", "mu": 1.0}),
        # crude draws of radii past e^709
        ("simulate", {"radial": {"family": "weibulltail", "params": {"index": 0.001}},
                      "method": "crude", "thresholds": [10.0], "n": 1000}),
    ])
    def test_valid_looking_input_exits_without_traceback(self, tmp_path, capsys, command, extra):
        cfg = {**KOTZ_CONFIG, "lambda": [1.0, 0.5], "seed": 1, **extra}
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) in (2, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra, match", [
        ("approx", {"depths": [1.5]}, "depths must lie in (0, 1)"),
        ("approx", {"depths": [0.0]}, "depths must lie in (0, 1)"),
        ("simulate", {"thresholds": [3.0], "method": "bogus"}, "method must be one of"),
        ("diagnose-mda", {"mode": "empirical", "seed": None}, "needs an explicit seed"),
        ("maxstable", {"weights": [[1, 0], [0, 1]], "seed": None}, "needs an explicit seed"),
        ("approx", {"thresholds": [3.0], "format": "xml"}, "format must be 'csv' or 'json'"),
        ("approx", {"thresholds": [3.0], "seed": -1}, "seed must be a non-negative integer"),
    ])
    def test_invalid_value_is_2_in_one_line(self, tmp_path, capsys, command, extra, match):
        # the valid-looking cases above may exit 2 or 3; these are the caller's fault
        cfg = {**KOTZ_CONFIG, "seed": 1, **extra}
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and match in err[0]

    def test_overflowing_quantile_is_3_in_one_line(self, tmp_path, capsys):
        cfg = {**KOTZ_CONFIG, "radial": {"family": "weibulltail", "params": {"index": 1e-300}},
               "levels": [0.99]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["var-es", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "quantile at level" in err[0] and "overflows" in err[0]

    def test_infinite_radial_parameter_is_2_in_one_line(self, tmp_path, capsys):
        # JSON Infinity parses to a float, which no radial law takes
        cfg = {"alpha": [1, 2], "lambda": [1, 0.5], "p": 1.0,
               "radial": {"family": "gamma", "params": {"shape": math.inf}}, "levels": [0.999]}
        assert cli.main(["var-es", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "GammaLaw needs shape, rate positive and finite" in err[0]

    @pytest.mark.parametrize("extra, match", [
        # the Gamma quantile passes DBL_MAX in the division by the rate
        ({"radial": {"family": "gamma", "params": {"shape": 1e308, "rate": 1e-308}},
          "depths": [1e-6]}, "quantile at level 1e-06 is not a finite number"),
        # (t / scale)^(1/p) passes DBL_MAX in Python's float power
        ({"p": 0.01, "thresholds": [1e4]}, "(t / (scale * pivot))^(1/p) overflows at t=10000.0"),
    ], ids=["quantile", "power"])
    def test_overflow_in_approx_is_3_in_one_line(self, tmp_path, capsys, extra, match):
        cfg = {"alpha": [1, 1], "lambda": [1, 0.5], "p": 1.0,
               "radial": {"family": "gamma", "params": {"shape": 2.0}}, **extra}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["approx", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("dirtail: numeric failure: ") and match in err[0]

    def test_weibull_ratio_at_the_endpoint_is_3_in_one_line(self, tmp_path, capsys):
        cfg = {"alpha": [1, 2], "lambda": [1, 0.5], "p": 1.0,
               "radial": {"family": "beta", "params": {"a": 1, "b": 2}},
               "mode": "weibull_ratio", "t": 2.0, "depths": [1e-2, 1e-17]}
        assert cli.main(["diagnose-mda", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("dirtail: numeric failure: weibull_ratio")
        assert "1 - t*u or 1 - u rounds to 1" in err[0]

    def test_small_alpha_row_sum_underflow_is_3_in_one_line(self, tmp_path, capsys):
        # alpha = 0.001 draws gamma rows that sum to 0: a loud failure, not a
        # silently biased estimate, until small alphas are sampled another way
        cfg = {"alpha": [0.001, 0.001], "lambda": [1.0, 0.5], "p": 2.0,
               "radial": {"family": "gamma", "params": {"shape": 3.0, "rate": 1.0}},
               "thresholds": [30.0], "n": 10 ** 5, "method": "conditional", "seed": 1}
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "simplex row sum underflowed" in err[0]

    def test_integral_float_count_runs(self, tmp_path):
        cfg = dict(KOTZ_CONFIG, seed=1, n=2e3, thresholds=[3.0])
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert rows[0][header.index("n")] == "2000"

    @staticmethod
    def _raising_approx(tmp_path, monkeypatch, capsys, error):
        """The exit code and stderr lines of 'approx' when its command raises error."""
        def boom(cfg, spec, seed, workers):
            raise error("iteration failed to converge")
        monkeypatch.setitem(cli._COMMANDS, "approx", (boom, cli._COMMANDS["approx"][1]))
        cfg = dict(KOTZ_CONFIG, thresholds=[1.0])
        rc = cli.main(["approx", "--config", write_config(tmp_path, cfg)])
        return rc, capsys.readouterr().err.splitlines()

    def test_numeric_failure_is_3(self, tmp_path, monkeypatch, capsys):
        # a bare ArithmeticError from numpy or scipy counts as one too
        for error in (NumericError, ArithmeticError):
            rc, err = self._raising_approx(tmp_path, monkeypatch, capsys, error)
            assert rc == 3
            assert err == ["dirtail: numeric failure: iteration failed to converge"]

    @pytest.mark.parametrize("error", [ValidationError, DomainError, WrongRegimeError,
                                       UnsupportedClassError, DirtailError])
    def test_caller_error_is_2_in_one_line(self, tmp_path, monkeypatch, capsys, error):
        # every other DirtailError is the caller's fault
        rc, err = self._raising_approx(tmp_path, monkeypatch, capsys, error)
        assert rc == 2
        assert err == ["dirtail: iteration failed to converge"]

    def test_overflow_near_unit_power_is_0(self, tmp_path):
        # at p = 0.999999 the saddle sits exp(-3.6e5) from an endpoint and the
        # curvature is exp(3.6e5): only the log-scale recursion represents them;
        # -636478.3356071607 is the independent 40-digit mpmath value
        cfg = {"alpha": [1, 1, 1], "lambda": [1, 0.7, 0.4], "p": 0.999999,
               "radial": {"family": "gamma", "params": {"shape": 3, "rate": 1}},
               "depths": [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14]}
        out = tmp_path / "out.csv"
        rc = cli.main(["approx", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][2]) == pytest.approx(-636478.3356071607, rel=1e-11)
        assert all(math.isfinite(float(row[2])) for row in rows)

    def test_deep_endpoint_quadrature_is_0(self, tmp_path):
        # at depth 1e-12 the d = 2 integrand lives on b > 1 - 1.3e-4 only;
        # -47.89211545592941 is the independent mpmath value
        cfg = {"alpha": [1, 2], "lambda": [1, 0.5], "p": 1.0,
               "radial": {"family": "beta", "params": {"a": 2, "b": 3}},
               "depths": [1e-12], "oracle": "quadrature"}
        out = tmp_path / "out.csv"
        rc = cli.main(["ratio", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][3]) == pytest.approx(-47.89211545592941, abs=1e-5)
