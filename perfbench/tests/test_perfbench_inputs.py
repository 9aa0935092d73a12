"""Seeded workload inputs, the import-time split and BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import importsplit  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    for k in (-1, 0, 7):
        assert wl.make_ops(workload, 3, k) == wl.make_ops(workload, 3, k)
    assert wl.make_ops(workload, 3, 0) != wl.make_ops(workload, 4, 0)
    assert wl.make_ops(workload, 3, 0) != wl.make_ops(workload, 3, 1)


def _model_key(op):
    model = op.get("model", op)
    return tuple(model.get(k) for k in ("alpha", "mu", "gamma", "nu", "epsilon", "lambda1", "lambda2"))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_no_two_timed_ops_share_a_model_and_warmup_is_disjoint(workload):
    timed = [op for k in range(6) for op in wl.make_ops(workload, 11, k) if op.get("kind") != "validate"]
    keys = [_model_key(op) for op in timed]
    assert len(set(keys)) == len(keys)
    warm = [_model_key(op) for op in wl.make_ops(workload, 11, -1)]
    assert not set(warm) & set(keys)


def test_inputs_stay_in_the_declared_domain():
    for k in range(5):
        for op in wl.make_ops("series", 5, k):
            assert 0.0 <= op["mu"] <= 1.0 and 0.0 <= op["lambda1"] <= 1.0
        quad = wl.make_ops("quad", 5, k)
        mus = [op["mu"] for op in quad]
        assert all(-1.0 < m <= 0.0 for m in mus[:6])
        assert all(0.0 <= m <= 1.0 for m in mus[6:12])
        assert all(1.0 < m <= 2.0 for m in mus[12:])
        assert all(1e-3 <= op["t_min"] < op["t_max"] <= 1e4 for op in quad)
        assert all(op["t_max"] <= 10**wl.SUB_OHMIC_LOG_T_MAX for op in quad[:6])
        for op in wl.make_ops("plane", 5, k):
            for name, (lo, hi) in zip(op["plane"], (op["x_range"], op["y_range"])):
                a, b = wl.PLANE_AXES[name]
                assert a <= lo < hi <= b
        kinds = [op["kind"] for op in wl.make_ops("cli", 5, k)]
        assert kinds == list(wl.CLI_KINDS) * (wl.PASS_OPS["cli"] // len(wl.CLI_KINDS))


def test_validate_seeds_do_not_repeat_in_a_run_and_skip_known_failures():
    def seeds(seed, passes):
        return [op["seed"] for k in range(passes) for op in wl.make_ops("cli", seed, k) if op["kind"] == "validate"]

    run = seeds(9, 400)
    assert len(set(run)) == len(run) == 2000
    assert all(1 <= s <= wl.VALIDATE_SEED_MAX for s in run)
    assert not set(run) & set(wl.VALIDATE_FAILING)
    # every run takes the same sequence; the other ops follow the seed
    assert seeds(10, 40) == run[:200]


def test_known_defects_lie_outside_the_timed_domain():
    (probe,) = wl.KNOWN_DEFECTS["quad"]
    assert probe["mu"] < 0.0 and probe["t_max"] > 10**wl.SUB_OHMIC_LOG_T_MAX
    failing = {op["seed"] for op in wl.KNOWN_DEFECTS["cli"]}
    assert set(wl.VALIDATE_FAILING) <= failing


def test_plane_axes_mirror_the_library():
    analysis = pytest.importorskip("qdephase.analysis")
    assert set(wl.PLANE_AXES) == set(analysis.PLANE_PARAMETERS)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | site
import time:        50 |         50 |     qdephase.errors
import time:        20 |         20 |         numpy.linalg
import time:       300 |        320 |       scipy.integrate
import time:        10 |        330 |     qdephase.numerics
import time:        40 |         40 |       numpy.core
import time:       200 |        240 |     numpy
import time:         5 |        625 | qdephase
"""


def test_import_split_charges_each_module_to_its_cause():
    got = importsplit.parse(IMPORTTIME)
    assert got["total_s"] == pytest.approx(625e-6)
    assert got["scipy_s"] == pytest.approx(320e-6)
    assert got["numpy_s"] == pytest.approx(240e-6)
    assert got["qdephase_self_s"] == pytest.approx(65e-6)
    assert got["scipy_s"] + got["numpy_s"] + got["qdephase_self_s"] == pytest.approx(got["total_s"])


def test_import_split_needs_the_root_import():
    with pytest.raises(ValueError):
        importsplit.parse("import time:       100 |        100 | site\n")


def test_benchmark_json_matches_what_run_prints():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
