"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/prove.py --runs 10 --out bench/baseline.json
    python3 bench/prove.py --runs 10 --against bench/baseline.json

Runs ``bench/run.py`` once per (seed, workload) for seeds 1 to ``--runs``,
seeds outermost, on every workload in BENCHMARK.json with its
``run_seconds``, then one traced run per workload with seed 1.  For every
end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
keeps the per-seed values, and flags a spread above a third of the metric's
bound (``setup_s`` is exempt).  With ``--against`` it also flags a median
that is worse than the earlier summary's by more than the bound.  It prints
a table and, with ``--out``, writes the summary, the environment of the
first run and the traced per-layer values as JSON.  It exits 1 if anything
is flagged or any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr.strip()[-2000:]}")
    report = json.loads(lines[-2][len("report "):])
    return json.loads(lines[-1]), report


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values), "values": values}


def worse_by(old: float, new: float, better: str) -> float:
    """Share by which ``new`` is worse than ``old`` (negative when better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--against", help="an earlier summary to compare medians with")
    parser.add_argument("--out", help="write the summary here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))

    results = {w: [] for w in workloads}
    environment = None
    for seed in seeds:
        for w in workloads:
            result, report = run_once(w, seed, spec["run_seconds"], 0)
            environment = environment or report["environment"]
            results[w].append((seed, result, report["environment"]))
    traced = {w: run_once(w, TRACE_SEED, spec["run_seconds"], 1)[0] for w in workloads}

    previous = json.loads(Path(args.against).read_text())["workloads"] if args.against else None
    summary, ok = {}, True
    for w in workloads:
        rows = results[w]
        incorrect = [seed for seed, r, _ in rows if not r["correct"]]
        ok &= not incorrect
        per_metric = {}
        for name, m in metrics.items():
            s = summarise([r["metrics"][name]["value"] for _, r, _ in rows])
            s.update(unit=m["unit"], bound=m["bound"], steady=name == "setup_s" or s["spread"] <= m["bound"] / 3)
            if previous and w in previous:
                s["worse_than_previous"] = worse_by(previous[w]["end_to_end"][name]["median"], s["median"], m["better"])
                s["agrees"] = s["worse_than_previous"] <= m["bound"]
                ok &= s["agrees"]
            ok &= s["steady"]
            per_metric[name] = s
        summary[w] = {
            "seeds": seeds, "incorrect_seeds": incorrect,
            "attempted": sum(r["attempted"] for _, r, _ in rows),
            "failed": sum(r["failed"] for _, r, _ in rows),
            "loadavg_1m": [[e["loadavg_1m_before"], e["loadavg_1m_after"]] for _, _, e in rows],
            "end_to_end": per_metric,
            "per_layer_traced": {"seed": TRACE_SEED, "metrics": traced[w]["metrics"]},
        }
        print(f"{w}: {len(rows)} runs, {summary[w]['failed']} of {summary[w]['attempted']} operations failed")
        for name, s in per_metric.items():
            extra = f" vs previous {s['worse_than_previous']:+.4f}" if "worse_than_previous" in s else ""
            flag = "" if s["steady"] else "  <-- spread above bound/3"
            flag += "" if s.get("agrees", True) else "  <-- worse than previous by more than bound"
            print(f"  {name:<16} median {s['median']:<12.6g} {s['unit']:<6} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){extra}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "run_seconds": spec["run_seconds"], "environment": environment, "workloads": summary,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
