"""scanprune benchmark: one workload, closed loop, for a fixed number of seconds.

    python3 bench/run.py --workload probe-mlp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Whole repeats of the workload run back to back; a new repeat
starts only while it is expected to finish inside ``--seconds``, and at
least two run, so that every output can be checked against another repeat
of the same seed.  Set-up (corpus generation and the dataset file round
trip) runs before the first repeat and again after each one, for at least
0.1 s each time; ``setup_s`` is the median of all of them.

``--trace 0`` reports the end-to-end metrics, medians over repeats.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics, medians over the traced repeats; ``trace.overhead_frac``
compares the two kinds.  BLAS thread variables are left as the environment
has them; the thread count OpenBLAS reports is recorded.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it, starting with ``report``,
holds the environment, the configuration and every failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SETUP_SLOT_SECONDS = 0.1


def load_library():
    """Import scanprune from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "scanprune" / "__init__.py").is_file():
        raise SystemExit(f"error: no scanprune sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import scanprune

    if Path(scanprune.__file__).resolve().parent != (src / "scanprune").resolve():
        raise SystemExit(f"error: imported scanprune from {scanprune.__file__}, not {src}")


def metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def warm_up_blas() -> None:
    """Start OpenBLAS's worker threads before anything is timed."""
    import numpy as np

    a = np.ones((256, 256))
    for _ in range(4):
        a = (a @ a) / 256.0


class Setup:
    """Set-up measured in slots spread over the run, so that its median sees
    the same mix of host conditions as the repeats do."""

    def __init__(self, workload, seed: int, work: Path, trace: bool):
        self.spec = workload.spec(seed)
        self.seed = seed
        self.work = work
        self.trace = trace
        self.times: list[float] = []
        self.tracers: list = []
        self.ctx = None

    def slot(self) -> None:
        import hostspeed
        from tracer import Tracer
        from workloads import Context, setup_once

        spent = 0.0
        while spent < SETUP_SLOT_SECONDS:
            path = self.work / "setup.bin"
            tracer = Tracer() if self.trace else None
            before = hostspeed.probe()
            t0 = time.perf_counter()
            with tracer if tracer is not None else contextlib.nullcontext():
                ds, sha = setup_once(self.spec, path)
            took = time.perf_counter() - t0
            self.times.append(hostspeed.adjust(took, before, hostspeed.probe()))
            path.unlink()
            spent += took
            if tracer is not None:
                self.tracers.append(tracer)
            if self.ctx is None:
                self.ctx = Context(seed=self.seed, spec=self.spec, ds=ds, corpus_sha=sha)
            elif sha != self.ctx.corpus_sha:
                raise RuntimeError("corpus generation is not deterministic for a fixed seed")


def run_repeats(workload, setup: Setup, state, seconds: float, trace: bool) -> list:
    """Repeats back to back, each followed by a set-up slot, until the next
    one is not expected to finish within ``seconds`` (at least two run)."""
    from tracer import Tracer
    from workloads import OpFailed, Repeat

    reps = []
    start = time.perf_counter()
    setup.slot()
    while True:
        traced = trace and len(reps) % 2 == 1
        tracer = Tracer() if traced else None
        rep = Repeat(state, workload.ops, tracer)
        t0 = time.perf_counter()
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                workload.repeat(rep, setup.ctx)
        except OpFailed:
            pass
        except Exception as exc:  # a check on the outputs could not run: the last operation failed
            op = rep.done[-1] if rep.done else workload.ops[0]
            rep.fail(op, f"check raised {type(exc).__name__}: {exc}")
        setup.slot()
        rep.elapsed_s = time.perf_counter() - t0
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if len(reps) >= 2 and elapsed + max(r.elapsed_s for r in reps) > seconds:
            return reps


def end_to_end(good, setup_times, ok_frac: float) -> dict:
    """Medians over the repeats that succeeded; ``ok_frac`` counts every repeat."""
    return {
        "setup_s": median(setup_times),
        "wall_s": median(r.wall_s for r in good),
        "cpu_s": median(r.cpu_s for r in good),
        "samples_per_s": median(r.values["sample_steps"] / r.values["train_wall_s"] for r in good),
        "scan_cpu_ratio": median(r.values["scan_cpu_ratio"] for r in good),
        "probe_acc": median(r.values["probe_acc"] for r in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok_frac,
    }


def repeat_layers(rep, workload, ctx) -> dict:
    """Per-layer values of one traced repeat."""
    from workloads import candidate_precision

    t = rep.tracer

    def own(name):
        return t.self_s.get(name, 0.0)

    def total(name):
        return t.total_s.get(name, 0.0)

    runs = rep.runs
    scans = [res for name, res in runs if name == "train_scan"]
    batch = workload.cfg["batch_size"]
    batches = sum(math.ceil(r.active_size / batch) for _, res in runs for r in res.records)
    phases = Counter(r.phase for res in scans for r in res.records)
    ill, red = candidate_precision(runs, ctx.ds.corruption)
    pruner = ("pruner.batch_candidates", "pruner.accumulate", "pruner.sample_pruned", "pruner.active_indices")
    train_spans = [n for n in t.calls if n.startswith("trainer.train_")]
    cli_spans = [n for n in t.calls if n.startswith("cli.")]
    m = {}
    for layer in ("encoder.forward_tower", "encoder.normalize_rows", "infonce.gradients"):
        m[f"{layer}.calls"] = t.calls.get(layer, 0)
        m[f"{layer}.self_s"] = own(layer)
    m["infonce.per_sample_losses.self_s"] = own("infonce.per_sample_losses")
    m["infonce.step.gflop_per_s"] = t.flops / total("infonce.gradients") / 1e9
    for layer in pruner:
        m[f"{layer}.self_s"] = own(layer)
    m["pruner.self_s"] = sum(own(layer) for layer in pruner)
    m["pruner.ill_precision"] = ill
    m["pruner.red_precision"] = red
    m["scheduler.warmup_epochs"] = phases["WarmUp"]
    m["scheduler.prepare_epochs"] = phases["Prepare"]
    m["scheduler.mutate_epochs"] = phases["Mutate"]
    m["trainer.self_s"] = sum(own(n) for n in train_spans)
    m["trainer.span_s"] = sum(total(n) for n in train_spans)
    m["trainer.sample_steps"] = sum(r.active_size for _, res in runs for r in res.records)
    m["trainer.batches"] = batches
    m["trainer.forward_passes_per_batch"] = t.calls.get("infonce.gradients", 0) / batches
    m["trainer.bookkeep_share"] = sum(r.bookkeep_ms for r in scans) / sum(r.cpu_ms for r in scans)
    m["trainer.bookkeep_cpu_s"] = sum(r.bookkeep_ms for r in scans) / 1e3
    m["trainer.linear_probe.self_s"] = own("trainer.linear_probe")
    m["trainer.save_checkpoint.s"] = total("trainer.save_checkpoint")
    m["trainer.load_checkpoint.s"] = total("trainer.load_checkpoint")
    m["coreset.export_coreset.s"] = total("coreset.export_coreset")
    m["coreset.size"] = rep.values["coreset_size"]
    for cmd in ("gen-data", "train", "export-coreset", "compare"):
        m[f"cli.{cmd}.wall_s"] = total(f"cli.{cmd}")
    m["cli.self_s"] = sum(own(n) for n in cli_spans)
    m["cli.artifact_bytes"] = rep.values.get("artifact_bytes", 0)
    m["cli.artifact_files"] = rep.values.get("artifact_files", 0)
    return m


def per_layer(traced, plain, setup_tracers, workload, ctx) -> dict:
    per_rep = [repeat_layers(r, workload, ctx) for r in traced]
    m = {name: median(d[name] for d in per_rep) for name in per_rep[0]}
    for fn in ("generate_paired_dataset", "save_dataset", "load_dataset"):
        m[f"dataset.{fn}.s"] = median(t.total_s.get(f"dataset.{fn}", 0.0) for t in setup_tracers)
    m["trace.overhead_frac"] = median(r.wall_s for r in traced) / median(r.wall_s for r in plain) - 1.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    import envinfo
    import tracer
    from workloads import WORKLOADS, RunState

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    e2e_units, layer_units = metric_units()
    load_before = os.getloadavg()[0]
    if args.trace:
        tracer.self_test()

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        warm_up_blas()
        setup = Setup(workload, args.seed, work, bool(args.trace))
        reps = run_repeats(workload, setup, RunState(work), args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    attempted = sum(len(r.ops) for r in reps)
    failed = sum(r.failed for r in reps)
    failures = [{"repeat": i, "op": op, "error": msg} for i, r in enumerate(reps) for op, msg in r.failures.items()]
    # Metrics come from repeats in which every operation succeeded.
    plain = [r for r in reps if r.tracer is None and r.failed == 0]
    traced = [r for r in reps if r.tracer is not None and r.failed == 0]
    if not plain or (args.trace and not traced):
        raise SystemExit(f"error: too few repeats succeeded to measure anything; failures: {failures}")

    env = envinfo.environment(ROOT)
    env["loadavg_1m_before"] = load_before
    env["loadavg_1m_after"] = os.getloadavg()[0]
    if args.trace:
        values = per_layer(traced, plain, setup.tracers, workload, setup.ctx)
        units = layer_units
    else:
        values, units = end_to_end(plain, setup.times, 1.0 - failed / attempted), e2e_units
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    for name in units:
        print(f"{args.workload:<13} {name:<36} {values[name]:>14.6g} {units[name]}")
    print("report " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "config": {"corpus": asdict(setup.spec), "train": workload.cfg},
        "environment": env,
        "setup_repeats": len(setup.times),
        "repeats": [{"traced": r.tracer is not None, "elapsed_s": r.elapsed_s, "wall_s": r.wall_s,
                     "cpu_s": r.cpu_s, "ops": {op: list(v) for op, v in r.timings.items()},
                     "raw_wall_cpu_probes": {op: list(v) for op, v in r.raw.items()}} for r in reps],
        "untraced_sites": sorted({s for r in reps if r.tracer is not None for s in r.tracer.missing}),
        "failures": failures,
    }, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
