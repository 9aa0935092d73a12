"""CLI subcommands, config handling, output schemas, exit codes."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qdephase import (
    BathSpec,
    DisplacementSpec,
    ModelSpec,
    QuadratureSettings,
    analysis,
    cli,
    find_lambda_c,
    gain_ratio,
)
from qdephase.cli import (
    _BOOL_KEYS,
    _FLOAT_KEYS,
    _INT_KEYS,
    CONFIG_KEYS,
    CSV_HEADER,
    build_parser,
    main,
    parse_config,
)

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

# gamma/2 * Gamma(nu) * omega_c**nu overflows a double: orthogonal branches
ORTHOGONAL_CONFIG = """
alpha = 1.93e-72
mu = 0.5
omega_c = 4.48e42
gamma = 0.00918
nu = 29.0
lambda1 = 0.25
lambda2 = 0
"""

BENCHMARK_MODEL = ModelSpec(
    epsilon=1.0,
    bath=BathSpec(alpha=0.0025, mu=0.01, omega_c=1.0),
    displacement=DisplacementSpec(gamma_coef=0.05, nu=0.05),
)


def assert_one_error_line(err: str) -> None:
    assert err.startswith("error:") and err.count("\n") == 1, err


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

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["evolve", "--config", str(tmp_path)]) == 2
        assert_one_error_line(capsys.readouterr().err)

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(BENCHMARK_CONFIG.encode("utf-8") + b"# \xe9t\xe9\n")
        assert main(["evolve", "--config", str(path)]) == 2
        assert_one_error_line(capsys.readouterr().err)

    def test_out_is_a_directory(self, config_path, tmp_path, capsys):
        argv = ["evolve", "--config", config_path, "--points", "3", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert_one_error_line(capsys.readouterr().err)

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

    def test_closed_form_overflow_is_a_domain_error(self, tmp_path, capsys):
        # r(t) past a double at mu = -0.5 warned and printed r = inf before
        path = tmp_path / "r-overflow.cfg"
        path.write_text(
            "alpha = 1.42e270\nmu = -0.5\nomega_c = 1.41e-4\ngamma = 0\nnu = 6.6e-6\n"
            "lambda1 = 0.25\nlambda2 = 0\nt_max = 6.16e123\n",
            encoding="utf-8",
        )
        assert main(["evolve", "--config", str(path), "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "overflows a double" in err

    def test_quadrature_exponent_bound_is_a_domain_error(self, tmp_path, capsys):
        # mu = 1e300 on quadrature printed a raw overflow RuntimeWarning
        path = tmp_path / "quad-mu.cfg"
        path.write_text(
            BENCHMARK_CONFIG.replace("mu = 0.01", "mu = 1e300") + "backend = quad\n",
            encoding="utf-8",
        )
        assert main(["evolve", "--config", str(path), "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exponent" in err
        assert err.count("\n") == 1

    def test_huge_relative_tolerance_accepts_every_row(self, tmp_path, capsys):
        # rel_tol * |value| overflowed with a raw RuntimeWarning; an infinite
        # tolerance accepts the row
        path = tmp_path / "huge-tol.cfg"
        path.write_text(
            "alpha = 0.01\ngamma = 0.05\nmu = 0.5\nnu = 1e-300\nlambda1 = 0.25\n"
            "backend = quad\nrel_tol = 1e300\n",
            encoding="utf-8",
        )
        assert main(["evolve", "--config", str(path), "--points", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.split()) == 4

    def test_sub_ohmic_default_backend_matches_quadrature(self, tmp_path, capsys):
        # the default closed-form backend serves mu in (-1, 0)
        path = tmp_path / "sub-ohmic.cfg"
        path.write_text(BENCHMARK_CONFIG.replace("mu = 0.01", "mu = -0.5"), encoding="utf-8")
        assert main(["evolve", "--config", str(path), "--points", "40"]) == 0
        closed = capsys.readouterr().out.split()
        assert main(["evolve", "--config", str(path), "--points", "40", "--backend", "quad"]) == 0
        quadr = capsys.readouterr().out.split()
        assert closed[0] == quadr[0] == CSV_HEADER and len(closed) == len(quadr) == 41
        for row, row_q in zip(closed[1:], quadr[1:]):
            for got, want in zip(map(float, row.split(",")), map(float, row_q.split(","))):
                assert abs(got - want) <= max(1e-8, 1e-6 * abs(want))

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

    def test_overflowing_amplitude_rejected(self, tmp_path, capsys):
        # |b+|**2 overflows a double: a domain error, not an OverflowError
        path = tmp_path / "amp3.cfg"
        path.write_text(BENCHMARK_CONFIG + "b_plus = 1e200\nb_minus = 0\n", encoding="utf-8")
        assert main(["evolve", "--config", str(path)]) == 2
        assert_one_error_line(capsys.readouterr().err)

    def test_time_beyond_bound_rejected(self, tmp_path, capsys):
        path = tmp_path / "late.cfg"
        path.write_text(BENCHMARK_CONFIG + "t_max = 1e160\n", encoding="utf-8")
        assert main(["evolve", "--config", str(path), "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "t <= 1e+150" in err

    def test_orthogonal_displaced_branches(self, tmp_path, capsys):
        # gamma = 1e6 underflows the ground/coherent overlap to 0
        path = tmp_path / "far.cfg"
        path.write_text(BENCHMARK_CONFIG.replace("gamma = 0.05", "gamma = 1e6"), encoding="utf-8")
        assert main(["evolve", "--config", str(path), "--points", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = captured.out.strip().split("\n")[1:]
        assert len(rows) == 5
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

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

    def test_overflowing_overlap_moment_is_served(self, tmp_path, capsys):
        # the overlap is 0: ratio e^-r(inf) = 1.0 above the ohmic point, 0 below
        path = tmp_path / "orthogonal.cfg"
        path.write_text(ORTHOGONAL_CONFIG, encoding="utf-8")
        code = main(["region", "--config", str(path), "--plane", "lambda1,mu",
                     "--x-range", "0.05:0.95:3", "--y-range=-0.5:0.5:3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gain_ratio"] == [[0.0] * 3, [0.0] * 3, [1.0] * 3]

    @pytest.mark.parametrize("mu", ["-0.5", "0"])
    def test_ohmic_and_sub_ohmic_baths_are_all_loss(self, tmp_path, capsys, mu):
        # r(t) diverges for mu <= 0: every coherence dies and every ratio is 0
        path = tmp_path / "sub-ohmic.cfg"
        path.write_text(BENCHMARK_CONFIG.replace("mu = 0.01", f"mu = {mu}"), encoding="utf-8")
        code = main(
            ["region", "--config", str(path), "--plane", "alpha,lambda1",
             "--x-range", "1e-5:0.02:4", "--y-range", "0.05:0.95:5", "--refine-boundary"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["labels"] == [["-"] * 4] * 5
        assert payload["gain_ratio"] == [[0.0] * 4] * 5
        assert payload["boundary"] == []

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

    def test_weight_axis_outside_unit_interval_is_one_line(self, config_path, capsys):
        code = main(
            ["region", "--config", config_path, "--plane", "lambda1,lambda2",
             "--x-range=-1:2:30", "--y-range", "0:1:5"]
        )
        assert code == 2
        assert_one_error_line(capsys.readouterr().err)

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

    def test_overflowing_overlap_moment_has_no_bracket(self, tmp_path, capsys):
        path = tmp_path / "orthogonal.cfg"
        path.write_text(ORTHOGONAL_CONFIG, encoding="utf-8")
        assert main(["critical", "--config", str(path)]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "no-bracket"
        assert (payload["ratio_lo"], payload["ratio_hi"]) == (1.0, 1.0)

    @pytest.mark.parametrize("mu", ["-0.5", "0"])
    def test_ohmic_and_sub_ohmic_baths_have_no_bracket(self, tmp_path, capsys, mu):
        # the ratio is 0 at both bracket ends: no gain region, exit 3
        path = tmp_path / "sub-ohmic.cfg"
        path.write_text(BENCHMARK_CONFIG.replace("mu = 0.01", f"mu = {mu}"), encoding="utf-8")
        assert main(["critical", "--config", str(path), "--bracket", "0.05:0.95"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["status"] == "no-bracket" and payload["lambda_c"] is None
        assert (payload["ratio_lo"], payload["ratio_hi"]) == (0.0, 0.0)

    def test_inverted_bracket(self, config_path, capsys):
        assert main(["critical", "--config", config_path, "--bracket", "0.9:0.1"]) == 2

    @pytest.mark.parametrize("bracket", ["--bracket=-0.5:0.5", "--bracket=0.5:1.5"])
    def test_out_of_range_bracket_gets_the_library_message(self, config_path, capsys, bracket):
        assert main(["critical", "--config", config_path, bracket]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)
        assert "bracket must satisfy 0 <= lo < hi <= 1" in captured.err

    @pytest.mark.parametrize("bracket", ["0.1", "a:b"])
    def test_malformed_bracket(self, config_path, capsys, bracket):
        assert main(["critical", "--config", config_path, "--bracket", bracket]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "--bracket must be" in err and repr(bracket) in err

    def test_unknown_vary_rejected(self, config_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["critical", "--config", config_path, "--vary", "alpha"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("vary", ["lambda1", "lambda2"])
    def test_one_search_prints_its_own_ratios(self, config_path, capsys, monkeypatch, vary):
        # the bracket-end ratios come from the search's one evaluator call,
        # with the bisection path predicted from the closed-form root
        calls = []
        real = analysis._gain_ratios
        monkeypatch.setattr(analysis, "_gain_ratios", lambda *a: calls.append(a) or real(*a))
        argv = ["critical", "--config", config_path, "--vary", vary, "--tol", "1e-4"]
        assert main(argv) == 0
        assert len(calls) == 1
        payload = json.loads(capsys.readouterr().out)
        model = BENCHMARK_MODEL
        fixed = 0.0 if vary == "lambda1" else 0.25
        # one end each way round: the ratio is symmetric in the weights
        assert payload["ratio_lo"] == gain_ratio(model, 0.01, fixed)
        assert payload["ratio_hi"] == gain_ratio(model, fixed, 0.99)

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
        model = BENCHMARK_MODEL
        # the search is symmetric in the weights: the same call as --vary lambda1
        expected = find_lambda_c(model, 0.25, bracket=(0.01, 0.99), tol=1e-3)
        assert payload["lambda_c"] == expected
        ratio = lambda lam: gain_ratio(model, 0.25, lam)
        assert expected == oracles.bisect_lambda_c(ratio, bracket=(0.01, 0.99), tol=1e-3)
        assert 0.01 < expected < 0.99


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--plane", "alpha,lambda2", "--x-range", "1e-4:0.01:6",
         "--y-range", "0:0.9:7", "--refine-boundary"],
        ["critical", "--vary", "lambda2", "--bracket", "0.01:0.99"],
    ],
)
def test_region_and_critical_default_lambda1_to_a_quarter(tmp_path, capsys, argv):
    # evolve refuses a config without lambda1; these two read it as 0.25
    outputs = []
    for config in (BENCHMARK_CONFIG, BENCHMARK_CONFIG.replace("lambda1 = 0.25\n", "")):
        path = tmp_path / "scenario.cfg"
        path.write_text(config, encoding="utf-8")
        assert main([argv[0], "--config", str(path), *argv[1:]]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["boundary"] if argv[0] == "region" else payload["status"] == "ok"


class TestValidate:
    def test_small_run_passes(self, capsys):
        code = main(["validate", "--samples", "8", "--tol", "1e-6", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend-agreement" in out
        assert "all suites passed" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tol, capsys):
        assert main(["validate", "--samples", "2", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)

    def test_negative_seed_is_a_domain_error(self, capsys):
        assert main(["validate", "--samples", "2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)

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

    @pytest.mark.parametrize(
        "config,argv,message",
        [
            ("alpha 0.1\n", ["evolve"], "expected key=value, got 'alpha 0.1'"),
            ("points = 3.5\n", ["evolve"], "points needs an integer, got '3.5'"),
            ("", ["region", "--plane", "alpha,lambda1", "--x-range", "1:2", "--y-range", "0:1:2"],
             "range must be lo:hi:n, got '1:2'"),
            ("", ["region", "--plane", "alpha,lambda1", "--x-range", "a:b:3", "--y-range", "0:1:2"],
             "range must be lo:hi:n with numeric fields, got 'a:b:3'"),
            ("", ["region", "--plane", "alpha,lambda1", "--x-range", "0:1:0", "--y-range", "0:1:2"],
             "range needs at least one point, got '0:1:0'"),
            ("", ["region", "--plane", "alpha", "--x-range", "0:1:2", "--y-range", "0:1:2"],
             "--plane must be X,Y, got 'alpha'"),
            # numpy refuses these counts before it allocates (a raw ValueError and exit 1 before)
            ("", ["evolve", "--points", str(10**20)],
             f"a grid of {10**20} points does not fit in memory"),
            ("", ["evolve", "--grid", "linear", "--points", str(10**20)],
             f"a grid of {10**20} points does not fit in memory"),
            ("", ["region", "--plane", "alpha,lambda1", "--x-range", f"0.1:0.2:{10**20}",
                  "--y-range", "0:1:2"], f"range of {10**20} points does not fit in memory"),
            ("", ["region", "--plane", "alpha,lambda1", "--x-range", "0.1:0.2:2",
                  "--y-range", f"0:1:{10**20}"], f"range of {10**20} points does not fit in memory"),
        ],
        ids=["no-equals", "fractional-points", "two-field-range", "non-numeric-range",
             "zero-point-range", "one-plane-name", "unallocatable-log-grid",
             "unallocatable-linear-grid", "unallocatable-x-range", "unallocatable-y-range"],
    )
    def test_parse_errors(self, tmp_path, capsys, config, argv, message):
        path = tmp_path / "scenario.cfg"
        path.write_text(BENCHMARK_CONFIG + config, encoding="utf-8")
        assert main([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)
        assert message in captured.err


def _benchmark_csv():
    """evolve's stdout for BENCHMARK_CONFIG and no flags: the default 400-point log grid."""
    series = analysis.distance_series(
        BENCHMARK_MODEL, 0.25, 0.0, grid=analysis.TimeGrid("log", 1e-3, 1e4, 400))
    return oracles.evolve_csv(series.rows())


class TestSharedParser:
    """main parses with one parser per process; no call sees another's flags."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        yield built
        cli._parser.cache_clear()

    def test_flags_do_not_leak_into_the_next_call(self, config_path, capsys):
        argv = ["evolve", "--config", config_path, "--points", "3", "--t-max", "10",
                "--normalized", "--backend", "quad"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert main(["evolve", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 401
        assert out == _benchmark_csv()

    @pytest.mark.parametrize(
        "flags,code",
        [(["--points", "3", "--normalized", "--grid", "cubic"], 2),
         (["--points", "3", "--normalized", "--help"], 0)],
        ids=["parse-error", "help"],
    )
    def test_an_exit_inside_the_parser_leaves_it_whole(self, config_path, capsys, flags, code):
        # the flags before the exit are parsed, and must not reach the next call
        with pytest.raises(SystemExit) as excinfo:
            main(["evolve", "--config", config_path, *flags])
        assert excinfo.value.code == code
        capsys.readouterr()
        assert main(["evolve", "--config", config_path]) == 0
        assert capsys.readouterr().out == _benchmark_csv()

    def test_main_builds_the_parser_once(self, builds, config_path, capsys):
        for points in ("2", "3", "4"):
            assert main(["evolve", "--config", config_path, "--points", points]) == 0
        assert len(builds) == 1
        assert len(capsys.readouterr().out.splitlines()) == 3 + 4 + 5

    def test_build_parser_returns_a_fresh_parser(self):
        first, second = build_parser(), build_parser()
        assert first is not second and cli._parser() not in (first, second)


class TestCsvFormat:
    """evolve's CSV is byte for byte the per-value f"{v:.17g}" join."""

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1e16],
    )
    def test_percent_format_is_the_f_string(self, value):
        assert "%.17g" % value == f"{value:.17g}"

    @pytest.mark.parametrize("quad", [False, True], ids=["closed", "quad"])
    @pytest.mark.parametrize("grid", ["log", "linear"])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(-4.0, -1.0).map(lambda e: 10.0**e),
        mu=st.floats(-0.9, 2.0),
        gamma_coef=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
        nu=st.floats(0.01, 2.0),
        epsilon=st.floats(0.0, 2.0),
        omega_c=st.floats(0.5, 2.0),
        lambdas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        t_max=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
        points=st.integers(2, 400),
    )
    def test_evolve_matches_the_f_string_join(self, alpha, mu, gamma_coef, nu, epsilon, omega_c,
                                              lambdas, grid, t_max, quad, normalized, points):
        # quadrature at a few times; a linear grid from t_min = 0
        points = 2 + points % 6 if quad else points
        t_min = 0.0 if grid == "linear" else 1e-3
        model = ModelSpec(
            epsilon=epsilon,
            bath=BathSpec(alpha=alpha, mu=mu, omega_c=omega_c),
            displacement=DisplacementSpec(gamma_coef=gamma_coef, nu=nu),
        )
        series = analysis.distance_series(
            model, *lambdas, grid=analysis.TimeGrid(grid, t_min, t_max, points),
            backend="quadrature" if quad else "closed_form", settings=QuadratureSettings(),
            normalized=normalized,
        )
        values = dict(alpha=alpha, mu=mu, gamma=gamma_coef, nu=nu, epsilon=epsilon,
                      omega_c=omega_c, lambda1=lambdas[0], lambda2=lambdas[1], grid=grid,
                      t_min=t_min, t_max=t_max, points=points)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "scenario.cfg"
            # str of a float is its repr: the config reads back the same bits
            path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
            argv = ["evolve", "--config", str(path)]
            argv += ["--backend", "quad"] * quad + ["--normalized"] * normalized
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
        # line lists with their ends: equal as the texts are, and cheap to report
        want = oracles.evolve_csv(series.rows())
        assert out.getvalue().splitlines(True) == want.splitlines(True)


def _float_values():
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1e300, 1e200, 1e-200, 1e160]
    return st.one_of(st.sampled_from(specials), st.floats(0.0, 1.0), st.floats()).map(repr)


_AMPLITUDES = ("b_plus", "b_minus")
_VALUES = {
    **{key: _float_values() for key in _FLOAT_KEYS},
    # normalized pairs such as (0.6, 0.8) and (1, 0) are drawn now and then
    **{key: _float_values() | st.sampled_from(["0.6", "0.8", "1", "0"]) for key in _AMPLITUDES},
    **{key: st.integers(-3, 40).map(str) for key in _INT_KEYS},
    **{key: st.sampled_from(["true", "false", "0", "1", "yes"]) for key in _BOOL_KEYS},
    "grid": st.sampled_from(["linear", "log", "cubic"]),
    "backend": st.sampled_from(["closed", "quad", "closed_form", "quadrature", "exact"]),
    # resolved against a scratch directory; "." is the directory itself
    "out": st.sampled_from(["result.txt", "."]),
}
assert set(_VALUES) == set(CONFIG_KEYS)
# the amplitudes come in pairs: a lone one is a plain config error
_KEY_GROUPS = [(key,) for key in CONFIG_KEYS if key not in _AMPLITUDES] + [_AMPLITUDES]

_BASE = dict(line.split(" = ") for line in BENCHMARK_CONFIG.strip().splitlines()[1:])

_COMMANDS = [
    ["evolve"],
    ["region", "--plane", "alpha,lambda1", "--x-range", "1e-4:0.02:4",
     "--y-range", "0.02:0.98:4", "--refine-boundary"],
    ["critical"],
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            assert exc.code == 2
            return 2, None
    return code, err.getvalue()


class TestConfigProperty:
    """Any config text: a documented exit code, never a traceback."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        overrides=st.lists(st.sampled_from(_KEY_GROUPS), unique=True, max_size=4).flatmap(
            lambda groups: st.fixed_dictionaries(
                {key: _VALUES[key] for group in groups for key in group}
            )
        ),
        # one required key in three is left out
        dropped=st.sampled_from([None, None, None, *_BASE]),
        points_flag=st.none() | st.integers(-3, 40),
    )
    @example(overrides={"b_plus": "1e200", "b_minus": "0"}, dropped=None, points_flag=None)
    @example(overrides={"t_max": "1e160"}, dropped=None, points_flag=3)
    def test_exit_codes(self, overrides, dropped, points_flag):
        with tempfile.TemporaryDirectory() as scratch:
            values = {key: v for key, v in _BASE.items() if key != dropped}
            values.update(overrides)
            if values.get("out") is not None:
                values["out"] = str(Path(scratch) / values["out"])
            path = Path(scratch) / "scenario.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
            for command in _COMMANDS:
                argv = [*command, "--config", str(path)]
                if command == ["evolve"] and points_flag is not None:
                    argv += ["--points", str(points_flag)]
                code, err = _run(argv)
                assert code in (0, 1, 2, 3)
                if code == 2 and err is not None:
                    assert_one_error_line(err)
