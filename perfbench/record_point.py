"""Run the benchmark over several seeds and record a trajectory point.

    python3 perfbench/record_point.py --seeds 1-10 --workloads all \
        --trace-seeds 1 --out perfbench/points/BENCH_<name>.json

For each workload, runs ``run.py --trace 0`` once per seed and ``--trace 1``
once per trace seed, one run at a time.  For every metric it records the
median, the quartiles (``statistics.quantiles(n=4)``), the spread
``(Q3 - Q1) / median`` and the sample count, and checks each end-to-end
spread against the bound in BENCHMARK.json (setup_s excepted).  The point
carries the provenance of its first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    prov = next((json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance ")), None)
    return json.loads(lines[-1]), prov


def _summary(values: list[float]) -> dict:
    out = {"median": stats.median(values), "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=stats.quartile_spread(values))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="1")
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--out", help="write the point as JSON here")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = WORKLOADS if args.workloads == "all" else tuple(args.workloads.split(","))
    point = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in names:
        entry = {"end_to_end": {}, "per_layer": {}, "failed": [], "attempted": [], "correct": []}
        for trace, seeds, key in ((0, _seeds(args.seeds), "end_to_end"), (1, _seeds(args.trace_seeds), "per_layer")):
            samples: dict[str, list[float]] = {}
            units = {}
            for seed in seeds:
                result, prov = _run(workload, seed, seconds, trace)
                point.setdefault("provenance", prov)
                entry["failed"].append(result["failed"])
                entry["attempted"].append(result["attempted"])
                entry["correct"].append(result["correct"])
                for name, metric in result["metrics"].items():
                    samples.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
            entry[key] = {name: {"unit": units[name], **_summary(v)} for name, v in samples.items()}
        for name, summary in entry["end_to_end"].items():
            spread = summary.get("spread", 0.0)
            limit = bounds.get(name)
            flag = ""
            if limit is not None and name != "setup_s":
                if spread > limit:
                    flag, ok = "  OVER BOUND", False
                elif spread > limit / 3:
                    flag = "  above a third of the bound"
            print(f"{workload:7s} {name:14s} median {summary['median']:.6g} {summary['unit']:4s} "
                  f"spread {spread:.4f} (bound {limit}){flag}", flush=True)
        point["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
