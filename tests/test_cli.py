"""Tests for the command-line front end: config handling, output format,
exit codes, and the determinism contracts."""

import json
import math
import subprocess
import sys

import pytest

import dirtail as dt
from dirtail import cli
from dirtail.errors import NumericError

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
        column = dt.validate_spec([0.5, 3], [1, 0], 2, dt.GammaLaw(2, 1))
        assert float(rows[0][1]) == dt.norming_constants(column, 1000).b_n


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

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = dict(KOTZ_CONFIG, thresholds=[5.0], n=170000, seed=2024)
        outs = []
        for workers, name in [(1, "w1.csv"), (4, "w4.csv")]:
            out = tmp_path / name
            rc = cli.main(["simulate", "--config", write_config(tmp_path, cfg),
                           "--out", str(out), "--workers", str(workers)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestImportWeight:
    def test_no_integrate_or_optimize(self):
        # a fresh import is what every CLI call pays before any work
        code = ("import sys, dirtail, dirtail.cli; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"


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
    ])
    def test_wrong_type_is_2_and_names_key(self, tmp_path, capsys, command, extra, key):
        cfg = dict(KOTZ_CONFIG, seed=1, **extra)
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "Traceback" not in err

    def test_numeric_failure_is_3(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, spec, seed, workers):
            raise NumericError("iteration failed to converge")
        monkeypatch.setitem(cli._COMMANDS, "approx", boom)
        cfg = dict(KOTZ_CONFIG, thresholds=[1.0])
        rc = cli.main(["approx", "--config", write_config(tmp_path, cfg)])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

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
