"""CLI subcommands, config handling, output schemas, exit codes."""

import json
import math

import pytest

import oracles
from qdephase import BathSpec, DisplacementSpec, ModelSpec, find_lambda_c
from qdephase.cli import CSV_HEADER, main, parse_config

BENCHMARK_CONFIG = """
# weak-coupling scenario with long-time distance gain
alpha = 0.0025
gamma = 0.05
mu = 0.01
nu = 0.05
lambda1 = 0.25
lambda2 = 0
"""

STRONG_CONFIG = BENCHMARK_CONFIG.replace("alpha = 0.0025", "alpha = 0.05")


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(BENCHMARK_CONFIG, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_parses_known_keys(self, config_path):
        values = parse_config(config_path)
        assert values["alpha"] == 0.0025
        assert values["lambda2"] == 0.0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha=0.1\nbeta=2\n", encoding="utf-8")
        code = main(["evolve", "--config", str(path)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.cfg"
        path.write_text("alpha=0.1\nalpha=0.2\n", encoding="utf-8")
        assert main(["evolve", "--config", str(path)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        path = tmp_path / "incomplete.cfg"
        path.write_text("alpha=0.1\ngamma=0.05\nmu=0.01\n", encoding="utf-8")
        assert main(["evolve", "--config", str(path)]) == 2
        assert "nu" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["evolve", "--config", "/nonexistent/path.cfg"]) == 2

    def test_malformed_number(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text("alpha=abc\n", encoding="utf-8")
        assert main(["evolve", "--config", str(path)]) == 2

    def test_amplitudes_must_come_together(self, tmp_path, capsys):
        path = tmp_path / "amp.cfg"
        path.write_text(
            BENCHMARK_CONFIG + "b_plus = 0.9\n", encoding="utf-8"
        )
        assert main(["evolve", "--config", str(path)]) == 2
        assert "b_minus" in capsys.readouterr().err


class TestEvolve:
    def test_csv_schema_and_defaults(self, config_path, tmp_path):
        out = tmp_path / "series.csv"
        code = main(["evolve", "--config", config_path, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 401
        first = [float(x) for x in lines[1].split(",")]
        assert len(first) == 7
        assert first[1] == pytest.approx(oracles.SCENARIO_D0, rel=1e-4)

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["evolve", "--config", config_path, "--out", str(out1)]) == 0
        assert main(["evolve", "--config", config_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_degenerate_weights_give_zero_column(self, tmp_path):
        path = tmp_path / "deg.cfg"
        path.write_text(
            BENCHMARK_CONFIG.replace("lambda1 = 0.25", "lambda1 = 0.3").replace(
                "lambda2 = 0", "lambda2 = 0.3"
            ),
            encoding="utf-8",
        )
        out = tmp_path / "deg.csv"
        assert main(["evolve", "--config", str(path), "--out", str(out), "--points", "20"]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert all(float(row.split(",")[1]) == 0.0 for row in rows)

    def test_backends_agree(self, config_path, tmp_path):
        out_c = tmp_path / "closed.csv"
        out_q = tmp_path / "quad.csv"
        base = ["evolve", "--config", config_path, "--points", "25"]
        assert main(base + ["--backend", "closed", "--out", str(out_c)]) == 0
        assert main(base + ["--backend", "quad", "--out", str(out_q)]) == 0
        rows_c = out_c.read_text().strip().split("\n")[1:]
        rows_q = out_q.read_text().strip().split("\n")[1:]
        for rc, rq in zip(rows_c, rows_q):
            dc, dq = float(rc.split(",")[1]), float(rq.split(",")[1])
            assert dq == pytest.approx(dc, rel=1e-6, abs=1e-9)

    def test_normalized_flag(self, config_path, tmp_path):
        out_raw = tmp_path / "raw.csv"
        out_norm = tmp_path / "norm.csv"
        base = ["evolve", "--config", config_path, "--points", "10"]
        assert main(base + ["--out", str(out_raw)]) == 0
        assert main(base + ["--normalized", "--out", str(out_norm)]) == 0
        raw = [float(r.split(",")[1]) for r in out_raw.read_text().strip().split("\n")[1:]]
        norm = [float(r.split(",")[1]) for r in out_norm.read_text().strip().split("\n")[1:]]
        for a, b in zip(raw, norm):
            assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_stdout_default(self, config_path, capsys):
        assert main(["evolve", "--config", config_path, "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)

    def test_nonconvergence_exits_1(self, tmp_path, capsys):
        path = tmp_path / "harsh.cfg"
        path.write_text(
            BENCHMARK_CONFIG
            + "backend = quad\nabs_tol = 1e-300\nrel_tol = 1e-300\n",
            encoding="utf-8",
        )
        assert main(["evolve", "--config", str(path), "--points", "4"]) == 1
        assert "converge" in capsys.readouterr().err

    def test_gamma_overflow_is_a_domain_error(self, tmp_path, capsys):
        # Gamma(200) overflows a double: one diagnostic line and exit 2
        path = tmp_path / "mu200.cfg"
        path.write_text(BENCHMARK_CONFIG.replace("mu = 0.01", "mu = 200"), encoding="utf-8")
        assert main(["evolve", "--config", str(path), "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gamma" in err
        assert err.count("\n") == 1

    def test_cutoff_power_overflow_is_a_domain_error(self, tmp_path, capsys):
        # omega_c**mu = 100**160 overflows a double while Gamma(160) does not
        path = tmp_path / "mu160.cfg"
        path.write_text(
            BENCHMARK_CONFIG.replace("mu = 0.01", "mu = 160") + "omega_c = 100\n",
            encoding="utf-8",
        )
        assert main(["evolve", "--config", str(path), "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err
        assert err.count("\n") == 1

    def test_moment_product_overflow_is_a_domain_error(self, tmp_path, capsys):
        # Gamma(160) and 10**160 are each finite, their product is not
        path = tmp_path / "mu160wc10.cfg"
        path.write_text(
            BENCHMARK_CONFIG.replace("mu = 0.01", "mu = 160") + "omega_c = 10\n",
            encoding="utf-8",
        )
        assert main(["evolve", "--config", str(path), "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err
        assert err.count("\n") == 1

    def test_huge_epsilon_keeps_abs_a_finite(self, tmp_path, capsys):
        # 2*epsilon*t overflows at t = 1e4, but |A| does not depend on epsilon
        path = tmp_path / "eps.cfg"
        path.write_text(BENCHMARK_CONFIG + "epsilon = 1e305\n", encoding="utf-8")
        assert main(["evolve", "--config", str(path), "--points", "3"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 3
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.split(","))

    def test_unnormalized_amplitudes_rejected(self, tmp_path, capsys):
        path = tmp_path / "amp2.cfg"
        path.write_text(
            BENCHMARK_CONFIG + "b_plus = 0.9\nb_minus = 0.1\n", encoding="utf-8"
        )
        assert main(["evolve", "--config", str(path)]) == 2

    def test_grid_flags(self, config_path, tmp_path):
        out = tmp_path / "lin.csv"
        assert (
            main(
                ["evolve", "--config", config_path, "--grid", "linear",
                 "--t-max", "10", "--points", "11", "--out", str(out)]
            )
            == 0
        )
        rows = out.read_text().strip().split("\n")[1:]
        times = [float(r.split(",")[0]) for r in rows]
        assert times[-1] == 10.0
        assert len(times) == 11


class TestRegion:
    def test_json_schema(self, config_path, tmp_path):
        out = tmp_path / "map.json"
        code = main(
            ["region", "--config", config_path, "--plane", "alpha,lambda1",
             "--x-range", "1e-5:0.02:4", "--y-range", "0.05:0.95:5",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"axes", "labels", "gain_ratio"}
        assert payload["axes"]["x"]["name"] == "alpha"
        assert len(payload["labels"]) == 5
        assert all(len(row) == 4 for row in payload["labels"])
        flat = [c for row in payload["labels"] for c in row]
        assert "+" in flat and "-" in flat

    def test_zero_area_range(self, config_path, capsys):
        code = main(
            ["region", "--config", config_path, "--plane", "alpha,lambda1",
             "--x-range", "0.0025:0.0025:1", "--y-range", "0.1:0.9:3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(len(row) == 1 for row in payload["labels"])

    def test_no_gain_without_displacement(self, tmp_path, capsys):
        path = tmp_path / "quiet.cfg"
        path.write_text(
            BENCHMARK_CONFIG.replace("gamma = 0.05", "gamma = 0"), encoding="utf-8"
        )
        code = main(
            ["region", "--config", str(path), "--plane", "alpha,lambda1",
             "--x-range", "0.001:0.01:3", "--y-range", "0.1:0.9:3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(c != "+" for row in payload["labels"] for c in row)

    def test_refine_boundary_key(self, config_path, capsys):
        code = main(
            ["region", "--config", config_path, "--plane", "alpha,lambda1",
             "--x-range", "0.0025:0.0025:1", "--y-range", "0.3:0.7:2",
             "--refine-boundary"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "boundary" in payload
        assert payload["boundary"]

    def test_bad_plane(self, config_path, capsys):
        assert (
            main(
                ["region", "--config", config_path, "--plane", "alpha,beta",
                 "--x-range", "0:1:2", "--y-range", "0:1:2"]
            )
            == 2
        )

    def test_bad_range(self, config_path):
        assert (
            main(
                ["region", "--config", config_path, "--plane", "alpha,lambda1",
                 "--x-range", "1:0:5", "--y-range", "0:1:2"]
            )
            == 2
        )


class TestCritical:
    def test_benchmark_lambda_c(self, config_path, capsys):
        code = main(
            ["critical", "--config", config_path, "--vary", "lambda1",
             "--bracket", "0.05:0.95", "--tol", "1e-4"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["lambda_c"] == pytest.approx(oracles.SCENARIO_LAMBDA_C, abs=5e-4)
        assert payload["ratio_lo"] > 1.0 > payload["ratio_hi"]

    def test_no_bracket_exit_code(self, tmp_path, capsys):
        path = tmp_path / "strong.cfg"
        path.write_text(STRONG_CONFIG, encoding="utf-8")
        code = main(["critical", "--config", str(path), "--bracket", "0.05:0.95"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "no-bracket"
        assert payload["lambda_c"] is None

    def test_inverted_bracket(self, config_path, capsys):
        assert main(["critical", "--config", config_path, "--bracket", "0.9:0.1"]) == 2

    def test_vary_lambda2(self, tmp_path, capsys):
        # gain region along lambda2 at fixed lambda1 = 0.25
        path = tmp_path / "l2.cfg"
        path.write_text(BENCHMARK_CONFIG, encoding="utf-8")
        code = main(
            ["critical", "--config", str(path), "--vary", "lambda2",
             "--bracket", "0.01:0.99", "--tol", "1e-3"]
        )
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "ok"
        assert payload["ratio_lo"] > 1.0 > payload["ratio_hi"]
        model = ModelSpec(
            epsilon=1.0,
            bath=BathSpec(alpha=0.0025, mu=0.01, omega_c=1.0),
            displacement=DisplacementSpec(gamma_coef=0.05, nu=0.05),
        )
        expected = find_lambda_c(model, 0.25, bracket=(0.01, 0.99), tol=1e-3, vary="lambda2")
        assert payload["lambda_c"] == expected
        assert 0.01 < expected < 0.99


class TestValidate:
    def test_small_run_passes(self, capsys):
        code = main(["validate", "--samples", "8", "--tol", "1e-6", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend-agreement" in out
        assert "all suites passed" in out

    def test_zero_samples_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--samples", "0"])
        assert excinfo.value.code == 2

    def test_corrupted_s_offset_fails_consistency(self, capsys):
        code = main(
            ["validate", "--samples", "8", "--seed", "42", "--debug-double-s-offset"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "overlap-consistency: FAIL" in out

    def test_deterministic_output(self, capsys):
        main(["validate", "--samples", "8", "--seed", "7"])
        first = capsys.readouterr().out
        main(["validate", "--samples", "8", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
