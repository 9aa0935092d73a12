"""Layered end-to-end benchmark of qdephase.

    python3 perfbench/run.py --workload series --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in fresh interpreters
started by this script (``worker.py``), importing ``qdephase`` from the
checkout's ``src``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer split from the span tracer and the import-time
split.  ``--workload all`` runs the four workloads one after another.
Every metric is printed with its unit; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero, and no result is printed, when the library cannot be found or a
correctness check cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import importsplit  # noqa: E402
import stats  # noqa: E402
from tracer import TRACE_TARGETS, span_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 170.0

END_TO_END = (("wall_ref", "ref"), ("op_p50_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

RATIOS = (
    ("numerics.quad.calls_per_profile", "calls/profile"),
    ("analysis.find_lambda_c.gain_ratio_per_call", "calls/call"),
    ("analysis.find_extremum.profile_per_call", "calls/call"),
)
IMPORT_METRICS = ("import.total_s", "import.numpy_s", "import.scipy_s", "import.qdephase_self_s")
TRACE_METRICS = (("trace.overhead_ratio", "ratio"), ("trace.unattributed_s", "s"), ("trace.wall_s", "s"))
# Layers whose self time is non-zero on every workload.
LAYER_SELF = ("numerics", "bath", "dynamics", "analysis")


def per_layer_spec() -> list[tuple[str, str]]:
    """The per-layer metrics on the last line of a ``--trace 1`` run."""
    spec = [(f"{name}.calls", "count") for name in span_names()]
    spec += [(f"{layer}.self_s", "s") for layer in LAYER_SELF]
    spec.append(("numerics.gamma.self_s", "s"))
    spec += list(RATIOS)
    spec += [(name, "s") for name in IMPORT_METRICS]
    spec += list(TRACE_METRICS)
    return spec


class BenchError(Exception):
    """The benchmark cannot run or cannot check the library."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def _worker(root: Path, env: dict, args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until READY, everything after READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(_remaining(deadline), proc.kill)
    timer.start()
    try:
        ready = None
        rest = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif ready is not None:
                rest.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready, "".join(rest)


def _import_split(root: Path, env: dict, deadline: float) -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qdephase"],
            env=env, cwd=root, capture_output=True, text=True,
            timeout=_remaining(deadline), check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"import qdephase failed: {proc.stderr.strip()[-500:]}")
        samples.append(importsplit.parse(proc.stderr))
    return {f"import.{key}": stats.median(s[key] for s in samples) for key in samples[0]}


def provenance(root: Path, workload: str, seed: int, seconds: float, trace: int, versions: dict) -> dict:
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_files": len(src),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        **versions,
    }


def _e2e(report: dict, setup: list[float]) -> tuple[dict, list]:
    """End-to-end metrics of an untraced run.

    ``wall_ref`` and ``op_p50_ref`` divide each pass's wall time and median
    op latency by the reference time measured around that pass (see
    ``workloads.time_reference``) and take the median over passes.
    """
    walls, per_pass, refs = report["walls"], report["latencies"], report["refs"]
    ops = [x for p in per_pass for x in p]
    n = len(walls)
    metrics = {
        "wall_ref": (stats.median(w / r for w, r in zip(walls, refs)), "ref"),
        "op_p50_ref": (stats.median(stats.median(p) / r for p, r in zip(per_pass, refs)), "ref"),
        "setup_s": (stats.median(setup), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    rows = [
        ("wall_ref", metrics["wall_ref"][0], "ref", f"median of {n} passes x {report['pass_ops']} ops"),
        ("op_p50_ref", metrics["op_p50_ref"][0], "ref", f"median of {n} per-pass medians"),
        ("setup_s", metrics["setup_s"][0], "s", f"median of {len(setup)} fresh interpreters"),
        ("peak_rss_mb", report["peak_rss_mb"], "MB", "workload process"),
        ("wall_s", stats.median(walls), "s", f"median of {n} passes"),
        ("op_p50_ms", stats.median(ops) * 1e3, "ms", f"median of {len(ops)} ops"),
    ]
    if report["pass_ops"] >= 100 and stats.percentile_defined(len(ops), 90.0):
        rows.append(("op_p90_ms", stats.percentile(ops, 90.0) * 1e3, "ms", f"of {len(ops)} ops"))
    rows.append(("ref_ms", stats.median(refs) * 1e3, "ms", f"median reference time of {n} passes"))
    failed = len(report["op_errors"]) + len(report["check_errors"])
    rows.append(("failed_ratio", failed / report["attempted"], "ratio", f"{failed} of {report['attempted']} ops"))
    if report["known_defects"]:
        known = report["known_defects"]
        still = sum(d["fails"] for d in known)
        rows.append(("known_defects_failing", still, "count", f"of {len(known)} probes, not timed, not in failed"))
    if report.get("cli_process_s") is not None:
        rows.append(("cli_process_s", report["cli_process_s"], "s", "one python -m qdephase.cli evolve"))
    if report.get("worst_of_tol") is not None:
        rows.append(("worst_of_tol", report["worst_of_tol"], "tol", f"over {report['checked']} checked ops, mu >= 0"))
    return {name: value for name, (value, _) in metrics.items()}, rows


def _layers(report: dict, untraced_wall: float, imports: dict) -> tuple[dict, list]:
    tr = report["trace"]
    per = tr["per_pass"]
    values = dict(per)
    for layer in TRACE_TARGETS:
        values[f"{layer}.self_s"] = sum(
            v for k, v in per.items() if k.startswith(layer + ".") and k.endswith(".self_s")
        )
    nested = tr["nested_per_pass"]
    bases = {
        "numerics.quad.calls_per_profile": (per["numerics.quad.calls"], per["bath.profile_at.quadrature.calls"]),
        "analysis.find_lambda_c.gain_ratio_per_call": (
            nested.get("analysis.gain_ratio<analysis.find_lambda_c", 0.0), per["analysis.find_lambda_c.calls"]),
        "analysis.find_extremum.profile_per_call": (
            nested.get("bath.profile_at<analysis.find_extremum", 0.0), per["analysis.find_extremum.calls"]),
    }
    for name, (num, base) in bases.items():
        values[name] = num / base if base else 0.0
    values.update(imports)
    values["trace.wall_s"] = tr["wall_s"]
    values["trace.unattributed_s"] = tr["unattributed_s"]
    values["trace.overhead_ratio"] = tr["wall_s"] / untraced_wall
    n = tr["traced_passes"]
    rows = []
    for name in span_names():
        rows.append((f"{name}.calls", per[f"{name}.calls"], "count", f"per traced pass ({n} passes)"))
        rows.append((f"{name}.self_s", per[f"{name}.self_s"], "s", "absent" if name in tr["absent"] else ""))
    for layer in TRACE_TARGETS:
        rows.append((f"{layer}.self_s", values[f"{layer}.self_s"], "s", "layer total"))
    for name, unit in RATIOS:
        num, base = bases[name]
        rows.append((name, values[name], unit, f"{num:g} / {base:g} per pass"))
    rows += [(name, values[name], "s", f"median of {IMPORT_SAMPLES} -X importtime") for name in IMPORT_METRICS]
    rows.append(("trace.wall_s", values["trace.wall_s"], "s", "mean traced pass"))
    rows.append(("trace.unattributed_s", values["trace.unattributed_s"], "s", "trace.wall_s - sum of self times"))
    rows.append(("trace.overhead_ratio", values["trace.overhead_ratio"], "ratio",
                 f"traced / untraced mean pass ({untraced_wall:.4g} s)"))
    return values, rows


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = _env(root)
    prime = subprocess.run(
        [sys.executable, "-c", "import qdephase"], env=env, cwd=root,
        capture_output=True, text=True, timeout=_remaining(deadline), check=False,
    )
    if prime.returncode != 0:
        raise BenchError(f"cannot import qdephase from {root / 'src'}: {prime.stderr.strip()[-500:]}")
    base = ["--workload", workload, "--seed", str(seed)]
    # set-up samples: the timed worker plus probes before and after it, so
    # the median does not hang on the machine's speed at one moment
    probes = (SETUP_SAMPLES - 1) // 2 if not trace else 0
    setup = [_worker(root, env, [*base, "--setup-only"], deadline)[0] for _ in range(probes)]
    ready, out = _worker(root, env, [*base, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setup.append(ready)
    if not trace:
        setup += [_worker(root, env, [*base, "--setup-only"], deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1 - probes)]
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc

    if trace:
        imports = _import_split(root, env, deadline)
        untraced = sum(report["walls"]) / len(report["walls"])
        values, rows = _layers(report, untraced, imports)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_spec()}
    else:
        values, rows = _e2e(report, setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": not report["run_errors"] and not report["check_errors"],
        "attempted": report["attempted"],
        "failed": len(report["op_errors"]) + len(report["check_errors"]),
        "metrics": metrics,
    }
    return {
        "result": result,
        "rows": rows,
        "provenance": provenance(root, workload, seed, seconds, trace, report["versions"]),
        "failures": report["check_errors"] + report["run_errors"] + report["op_errors"],
        "report": report,
    }


def _print_rows(workload: str, outcome: dict) -> None:
    res = outcome["result"]
    print(f"== {workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    for name, value, unit, note in outcome["rows"]:
        print(f"  {name:48s} {value:14.6g} {unit:14s} {note}")
    for message in outcome["failures"][:10]:
        print(f"  failure: {message}")
    for probe in outcome["report"].get("known_defects", []):
        status = "still fails: " + probe["message"] if probe["fails"] else "passes now"
        print(f"  known defect {probe['probe']}: {status}")
    print("provenance " + json.dumps(outcome["provenance"], sort_keys=True))


def _save(root: Path, workload: str, seed: int, trace: int, outcome: dict) -> None:
    out_dir = root / ".perfbench" / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    report = dict(outcome["report"])
    spans = report.get("trace", {}).pop("spans", None) if "trace" in report else None
    record = {
        "provenance": outcome["provenance"],
        "result": outcome["result"],
        "rows": outcome["rows"],
        "failures": outcome["failures"],
        "report": report,
    }
    stem = f"{workload}-seed{seed}-trace{trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        fields = ["span_id", "parent_id", "op_id", "name", "start", "end"]
        (out_dir / f"{stem}-spans.json").write_text(
            json.dumps({"fields": fields, "spans": spans}) + "\n", encoding="utf-8"
        )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "qdephase" / "__init__.py").is_file():
        print(f"error: no qdephase sources under {root / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    try:
        for name in names:
            outcome = run_workload(root, name, args.seed, args.seconds, args.trace)
            _print_rows(name, outcome)
            _save(root, name, args.seed, args.trace, outcome)
            outcomes[name] = outcome["result"]
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in outcomes.values()),
            "attempted": sum(r["attempted"] for r in outcomes.values()),
            "failed": sum(r["failed"] for r in outcomes.values()),
            "metrics": {f"{w}.{k}": v for w, r in outcomes.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
