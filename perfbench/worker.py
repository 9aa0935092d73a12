"""One workload in a fresh interpreter: import, warm up, time, check.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints ``READY`` as soon as ``import qdephase`` and one warm-up op
have finished (the end of set-up), then runs closed-loop passes over the
workload's seeded ops until the time budget is spent, checks the results
outside the timed region and prints one JSON line.

With ``--trace 1`` odd passes run with the span tracer installed and even
passes without it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import workloads as wl
from tracer import NESTED_COUNTS, Tracer, span_names


def _import_library(root: str):
    lib = importlib.import_module("qdephase")
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(lib.__file__).startswith(src + os.sep):
        raise ImportError(f"qdephase imported from {lib.__file__}, not from {src}")
    return lib


def _prepare(workload: str, ops: list[dict], workdir: str, offset: int) -> None:
    if workload == "cli":
        for i, op in enumerate(ops):
            op["argv"] = wl.cli_argv(op, workdir, offset + i)


def run_passes(lib, workload: str, seed: int, seconds: float, ctx: dict, tracer: Tracer | None):
    """Closed loop: each op starts when the previous one has returned."""
    fail_types = wl.failure_types(lib)
    clock = time.perf_counter
    walls, traced_walls, latencies, refs = [], [], [], []
    kept, failures = [], []
    attempted = 0
    min_passes = 2 if tracer is not None else 1  # a traced run needs both kinds
    begin = clock()
    k = 0
    while True:
        ops = wl.make_ops(workload, seed, k)
        _prepare(workload, ops, ctx["workdir"], k * len(ops))
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        results, pass_latencies, pass_refs = [], [], []
        for i, op in enumerate(ops):
            if not traced and i % wl.REFERENCE_EVERY[workload] == 0:
                pass_refs.append(wl.time_reference())
            if traced:
                tracer.op_id += 1
            t0 = clock()
            try:
                result = wl.run_op(lib, workload, op)
            except fail_types as exc:
                result = exc
            pass_latencies.append(clock() - t0)
            results.append(result)
        # a pass's wall time is the time spent in its ops, so the reference
        # timings between ops do not count
        wall = sum(pass_latencies)
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
        else:
            pass_refs.append(wl.time_reference())
            walls.append(wall)
            latencies.append(pass_latencies)
            refs.append(sum(pass_refs) / len(pass_refs))
        attempted += len(ops)
        for i, (op, result) in enumerate(zip(ops, results)):
            if isinstance(result, BaseException):
                failures.append(f"pass {k} op {i}: {type(result).__name__}: {result}")
            elif k < wl.CHECK_PASSES and i % wl.CHECK_EVERY[workload] == 0:
                kept.append((op, result))
        k += 1
        per_pass = (clock() - begin) / k
        if k >= min_passes and clock() - begin + per_pass > seconds:
            break
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "latencies": latencies,
        "refs": refs,
        "attempted": attempted,
        "kept": kept,
        "op_failures": failures,
        "pass_ops": wl.PASS_OPS[workload],
    }


def _check(lib, workload: str, run: dict, ctx: dict) -> dict:
    """Correctness checks, outside the timed region."""
    check = wl.CHECKS[workload]
    check_errors, op_errors = [], list(run["op_failures"])
    worst = 0.0
    for op, result in run["kept"]:
        errors = check(lib, op, result)
        failed = [e for e in errors if e.startswith(wl.OP_FAILED)]
        wrong = [e for e in errors if not e.startswith(wl.OP_FAILED)]
        if wrong:
            check_errors.append("; ".join(wrong))
        elif failed:
            op_errors.append("; ".join(failed))
        if workload == "quad" and op["mu"] >= 0.0:
            worst = max(worst, wl.quad_worst_of_tol(lib, op, result))
    known, wrong = wl.probe_known_defects(lib, workload)
    check_errors += wrong
    run_errors, process_s = [], None
    if workload == "plane":
        run_errors += wl.check_fixed_model(lib)
    if workload == "cli":
        errors, process_s = _cli_process(run, ctx)
        run_errors += errors
    return {
        "cli_process_s": process_s,
        "known_defects": known,
        "checked": len(run["kept"]),
        "op_errors": op_errors,
        "check_errors": check_errors,
        "run_errors": run_errors,
        "worst_of_tol": worst if workload == "quad" else None,
    }


def _cli_process(run: dict, ctx: dict) -> tuple[list[str], float | None]:
    """Rerun the first evolve op as ``python -m qdephase.cli``.

    Its CSV must be byte-identical to the in-process result; the call's wall
    time, interpreter start and imports included, is reported unbounded.
    """
    for op, result in run["kept"]:
        if op["kind"] == "evolve":
            code, out, seconds = wl.run_cli_process(op, ctx)
            same = (code, out) == tuple(result)
            return ([] if same else ["evolve CSV differs between reruns"]), seconds
    return ["no evolve op completed, rerun check could not run"], None


def _trace_report(tracer: Tracer, run: dict) -> dict:
    n = max(len(run["traced_walls"]), 1)
    per_pass = {}
    for name in span_names():
        stat = tracer.stats.get(name)
        per_pass[f"{name}.calls"] = (stat.calls if stat else 0) / n
        per_pass[f"{name}.self_s"] = (stat.self_s if stat else 0.0) / n
    nested = {f"{child}<{ancestor}": count / n for (child, ancestor), count in tracer.nested.items()}
    traced_wall = sum(run["traced_walls"]) / n
    return {
        "traced_passes": len(run["traced_walls"]),
        "per_pass": per_pass,
        "nested_per_pass": nested,
        "wall_s": traced_wall,
        "unattributed_s": traced_wall - tracer.root_time / n,
        "absent": tracer.absent,
        "bound_sites": tracer.bound_sites(),
        "spans": tracer.spans,
        "dropped_spans": tracer.dropped,
    }


def _versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for name in ("numpy", "scipy"):
        mod = sys.modules.get(name)
        out[name] = getattr(mod, "__version__", None)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    lib = _import_library(args.root)
    scratch = os.path.join(args.root, ".perfbench", "tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        env = dict(os.environ)
        ctx = {"workdir": workdir, "env": env}
        warm = wl.make_ops(args.workload, args.seed, -1)
        _prepare(args.workload, warm, workdir, -1)
        try:
            wl.run_op(lib, args.workload, warm[0])
            warmup_error = None
        except wl.failure_types(lib) as exc:
            warmup_error = f"{type(exc).__name__}: {exc}"
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.prepare()
        run = run_passes(lib, args.workload, args.seed, args.seconds, ctx, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = _check(lib, args.workload, run, ctx)
        report = {
            "walls": run["walls"],
            "traced_walls": run["traced_walls"],
            "latencies": run["latencies"],
            "refs": run["refs"],
            "pass_ops": run["pass_ops"],
            "attempted": run["attempted"],
            "peak_rss_mb": peak_rss_mb,
            "versions": _versions(),
            "warmup_error": warmup_error,
            **checks,
        }
        if tracer is not None:
            report["trace"] = _trace_report(tracer, run)
            report["trace"]["nested_counts"] = [list(pair) for pair in NESTED_COUNTS]
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
