"""The benchmark's three workloads and the checks on their outputs.

Every workload is closed-loop and single-process: one repeat runs its
operations one after another, and the next repeat starts only when the
previous one has returned.  An operation is one call into the program (a
``train_*`` call, ``linear_probe``, ``export_coreset`` or one ``scan``
command).  It fails if it raises, if the CLI exits non-zero, or if a check
on its output fails; a repeat stops at the first operation that raises, and
the operations it did not reach count as failed too.

All calls go through module attributes (``trainer.train_scan``), so that the
tracer's wrappers, which replace those attributes, see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
from scanprune import cli, coreset, dataset, trainer
from scanprune.dataset import DUPLICATE, MISMATCHED, GenSpec
from scanprune.pruner import Tag
from scanprune.trainer import TrainConfig

PROBE_SEED = 0  # the default of `scan compare --probe-seed`


class OpFailed(Exception):
    """An operation raised or exited non-zero; the repeat cannot go on."""


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def masked_records(records) -> list:
    """Epoch records as dicts without ``wall_ms``, the one timing field."""
    out = []
    for rec in records:
        d = asdict(rec) if not isinstance(rec, dict) else dict(rec)
        d.pop("wall_ms", None)
        out.append(d)
    return out


@dataclass
class RunState:
    """What outlives one repeat: the work directory and reference outputs."""

    work: Path
    reference: dict = field(default_factory=dict)


@dataclass
class Context:
    """Inputs built by set-up, shared by every repeat of a run."""

    seed: int
    spec: GenSpec
    ds: object
    corpus_sha: str


class Repeat:
    """Timings, results and failures of one pass over a workload's operations."""

    def __init__(self, state: RunState, ops: tuple, tracer=None):
        self.state = state
        self.ops = ops
        self.tracer = tracer
        self.done: list[str] = []
        self.failures: dict[str, str] = {}
        self.wall_s = 0.0
        self.cpu_s = 0.0
        # Wall and CPU seconds per operation, at reference host speed for
        # timed operations; ``raw`` keeps their measured seconds and probes.
        self.timings: dict[str, tuple[float, float]] = {}
        self.raw: dict[str, tuple[float, float, float, float]] = {}
        self.values: dict[str, float] = {}
        # (trainer name, RunResult) of every training, kept on traced repeats
        # only, for the per-layer counts; untraced repeats hold no results.
        self.runs: list[tuple[str, object]] = []
        self.elapsed_s = 0.0

    @property
    def failed(self) -> int:
        ok = [op for op in self.done if op not in self.failures]
        return len(self.ops) - len(ok)

    def call(self, op: str, fn, *args, timed: bool = True, span: str | None = None):
        """Run one operation; its wall and CPU time count toward the repeat if
        ``timed``.  A timed operation is bracketed by host-speed probes and its
        times are adjusted to reference speed."""
        span_cm = self.tracer.span(span) if (self.tracer is not None and span) else contextlib.nullcontext()
        before = hostspeed.probe() if timed else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with span_cm:
                result = fn(*args)
        except Exception as exc:  # any failure of the program is a failed operation
            self.failures[op] = f"{type(exc).__name__}: {exc}"
            raise OpFailed(op) from exc
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if timed:
            after = hostspeed.probe()
            self.raw[op] = (wall, cpu, before, after)
            wall, cpu = hostspeed.adjust(wall, before, after), hostspeed.adjust(cpu, before, after)
            self.wall_s += wall
            self.cpu_s += cpu
        self.timings[op] = (wall, cpu)
        self.done.append(op)
        return result

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, message)

    def expect_same(self, op: str, key: str, value) -> None:
        """Fail ``op`` if ``value`` differs from what an earlier repeat produced."""
        ref = self.state.reference.setdefault(key, value)
        if ref != value:
            self.fail(op, f"{key} differs from an earlier repeat of the same seed")


def check_run_result(rep: Repeat, op: str, result, cfg: TrainConfig) -> None:
    """Checks on a RunResult: finite losses, one forward pass per batch, batch count."""
    losses = [v for r in result.records for v in (r.mean_loss_fg, r.mean_loss_gf)]
    if not all(math.isfinite(v) for v in losses):
        rep.fail(op, "non-finite loss")
    if result.forward_passes != sum(result.batches_per_epoch):
        rep.fail(op, f"forward_passes {result.forward_passes} != sum(batches_per_epoch)")
    want = [math.ceil(r.active_size / cfg.batch_size) for r in result.records]
    if list(result.batches_per_epoch) != want:
        rep.fail(op, "batches_per_epoch does not match the epochs' active sizes")


def check_checkpoint(rep: Repeat, op: str, params, path: Path) -> None:
    """Save, hash and reload a checkpoint; the reload must be bit-identical."""
    trainer.save_checkpoint(params, path)
    rep.expect_same(op, f"{op}.checkpoint_sha256", sha256_file(path))
    back = trainer.load_checkpoint(path)
    names = ("w_f", "w_g", "w_f_hidden", "w_g_hidden")
    same = back.log_temp == params.log_temp and all(
        (getattr(back, n) is None and getattr(params, n) is None)
        or np.array_equal(getattr(back, n), getattr(params, n))
        for n in names
    )
    if not same:
        rep.fail(op, "checkpoint does not round-trip")


def coreset_size_ok(rep: Repeat, op: str, ids, n: int, rho: float) -> None:
    want = n - int(rho * n + 1e-9)
    if len(ids) != want:
        rep.fail(op, f"coreset has {len(ids)} ids, want n - floor(rho n) = {want}")
    rep.expect_same(op, f"{op}.ids", hashlib.sha256(np.asarray(ids, dtype=np.int64).tobytes()).hexdigest())


TRAINERS = ("train_scan", "train_full", "train_random_baseline", "train_static_coreset")


@contextlib.contextmanager
def keep_results(module, names):
    """Wrap ``module.<name>`` for each of ``names`` so that its calls are
    kept, in order, as (name, return value) in the list this yields; restore
    the names on exit."""
    kept = []
    originals = {name: getattr(module, name) for name in names}

    def keeping(name, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            kept.append((name, result))
            return result

        return call

    for name, fn in originals.items():
        setattr(module, name, keeping(name, fn))
    try:
        yield kept
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


# ------------------------------------------------------------------ set-up

def setup_once(spec: GenSpec, path: Path):
    """Corpus generation plus the dataset file round trip."""
    ds = dataset.generate_paired_dataset(spec)
    dataset.save_dataset(ds, path)
    back = dataset.load_dataset(path)
    if back != ds:
        raise RuntimeError("dataset does not round-trip through its file format")
    return ds, sha256_file(path)


# ------------------------------------------------------------------ workloads

def _corpus(n: int, dim: int, seed: int) -> GenSpec:
    return GenSpec(n=n, dim=dim, num_classes=8, mismatch_frac=0.1,
                   duplicate_frac=0.1, noise_sigma=0.1, seed=seed)


class LibraryWorkload:
    """``train_scan`` then a reference trainer, through the library API.

    Only the two training calls are timed.  After them, untimed, the scan
    encoder's ``linear_probe`` accuracy is taken and a static coreset is
    exported from the scan run's last two candidate rounds.
    """

    def __init__(self, name: str, n: int, dim: int, ref: str, cfg: dict):
        self.name = name
        self.n, self.dim = n, dim
        self.ref = ref
        self.cfg = cfg
        self.ops = ("train_scan", ref, "linear_probe", "export_coreset")

    def spec(self, seed: int) -> GenSpec:
        return _corpus(self.n, self.dim, seed)

    def config(self, seed: int) -> TrainConfig:
        return TrainConfig(seed=seed, **self.cfg)

    def repeat(self, rep: Repeat, ctx: Context) -> None:
        ds, cfg = ctx.ds, self.config(ctx.seed)
        results = {}
        for op in ("train_scan", self.ref):
            result = rep.call(op, getattr(trainer, op), ds, cfg)
            results[op] = result
            check_run_result(rep, op, result, cfg)
            rep.expect_same(op, f"{op}.records", masked_records(result.records))
            check_checkpoint(rep, op, result.params, rep.state.work / f"{op}.ckpt")
        if rep.tracer is not None:
            rep.runs += results.items()
        scan = results["train_scan"]
        rep.values["train_wall_s"] = rep.timings["train_scan"][0] + rep.timings[self.ref][0]
        rep.values["sample_steps"] = sum(r.active_size for res in results.values() for r in res.records)
        # Measured CPU: the two calls run back to back, so the host's slow
        # swings cancel in the ratio without adjustment.
        rep.values["scan_cpu_ratio"] = rep.raw["train_scan"][1] / rep.raw[self.ref][1]

        acc = rep.call("linear_probe", trainer.linear_probe, scan.params, ds, PROBE_SEED, timed=False)
        if not (0.0 <= acc <= 1.0):
            rep.fail("linear_probe", f"accuracy {acc} outside [0, 1]")
        rep.expect_same("linear_probe", "linear_probe.acc", acc)
        rep.values["probe_acc"] = acc

        if len(scan.candidate_history) < 2:
            raise RuntimeError("scan run built fewer than two candidate rounds")
        summaries = [coreset.PrunedSummary.from_candidates(f"round{c.built_at_epoch}", c, ds.n)
                     for c in scan.candidate_history[-2:]]
        ids = rep.call("export_coreset", coreset.export_coreset, summaries[0], summaries[1], cfg.rho,
                       timed=False)
        coreset_size_ok(rep, "export_coreset", ids, ds.n, cfg.rho)
        rep.values["coreset_size"] = len(ids)


class CliWorkload:
    """The README workflow, in-process through ``scanprune.cli.main``.

    ``gen-data``, two ``train --method scan`` runs with seeds s and s+1,
    ``export-coreset``, ``train --method static`` and ``compare --data``.
    Every command is timed.  The run directory and the RunResult of each
    ``train`` command are checked after it.
    """

    name = "cli-pipeline"
    ops = ("gen-data", "train-a", "train-b", "export-coreset", "train-static", "compare")

    def __init__(self, n: int, dim: int, cfg: dict):
        self.n, self.dim = n, dim
        self.cfg = cfg

    def spec(self, seed: int) -> GenSpec:
        return _corpus(self.n, self.dim, seed)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        if code not in (0, None):
            raise RuntimeError(f"scan {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def _command(self, rep: Repeat, op: str, argv: list[str]) -> str:
        return rep.call(op, self._main, argv, span=f"cli.{argv[0]}")

    def _train(self, rep: Repeat, op: str, argv: list[str], seed: int) -> None:
        """One ``train`` command; the RunResult it drops is kept and checked."""
        with keep_results(cli, TRAINERS) as kept:
            self._command(rep, op, argv)
        if rep.tracer is not None:
            rep.runs += kept
        if len(kept) != 1:
            rep.fail(op, f"train ran {len(kept)} trainings, want 1")
        else:
            check_run_result(rep, op, kept[0][1], TrainConfig(seed=seed, **self.cfg))

    def _train_flags(self, seed: int) -> list[str]:
        flags = []
        for key, value in self.cfg.items():
            flags += ["--" + key.replace("_", "-"), str(value)]
        return flags + ["--seed", str(seed)]

    def _check_run_dir(self, rep: Repeat, op: str, run: Path) -> list[dict]:
        manifest = json.loads((run / "manifest.json").read_text())
        missing = [a for a in manifest["artifacts"] if not (run / a).is_file()]
        if missing:
            rep.fail(op, f"manifest lists missing artifacts {missing[:3]}")
        records = [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines() if line.strip()]
        if not all(math.isfinite(r["mean_loss_fg"]) and math.isfinite(r["mean_loss_gf"]) for r in records):
            rep.fail(op, "non-finite loss")
        rep.expect_same(op, f"{op}.records", masked_records(records))
        rep.expect_same(op, f"{op}.checkpoint_sha256", sha256_file(run / "checkpoint.bin"))
        return records

    def repeat(self, rep: Repeat, ctx: Context) -> None:
        d = rep.state.work / "pipeline"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        g, s = ctx.spec, ctx.seed
        corpus = d / "corpus.bin"
        self._command(rep, "gen-data", [
            "gen-data", "--n", str(g.n), "--dim", str(g.dim), "--num-classes", str(g.num_classes),
            "--mismatch-frac", str(g.mismatch_frac), "--duplicate-frac", str(g.duplicate_frac),
            "--noise-sigma", str(g.noise_sigma), "--seed", str(s), "--out", str(corpus)])
        if sha256_file(corpus) != ctx.corpus_sha:
            rep.fail("gen-data", "gen-data wrote a different corpus than the library for the same spec")

        runs = {"a": d / "runs" / "a", "b": d / "runs" / "b", "static": d / "runs" / "static"}
        records = []
        for name, seed in (("a", s), ("b", s + 1)):
            self._train(rep, f"train-{name}", ["train", "--data", str(corpus), "--out", str(runs[name]),
                                               "--method", "scan"] + self._train_flags(seed), seed)
            records += self._check_run_dir(rep, f"train-{name}", runs[name])

        coreset_path = d / "coreset.txt"
        self._command(rep, "export-coreset", ["export-coreset", "--run-a", str(runs["a"]),
                                              "--run-b", str(runs["b"]), "--rho", str(self.cfg["rho"]),
                                              "--out", str(coreset_path)])
        ids = coreset.load_coreset(coreset_path)
        coreset_size_ok(rep, "export-coreset", ids, g.n, self.cfg["rho"])
        rep.values["coreset_size"] = len(ids)

        self._train(rep, "train-static", ["train", "--data", str(corpus), "--out", str(runs["static"]),
                                          "--method", "static", "--coreset", str(coreset_path)]
                    + self._train_flags(s), s)
        records += self._check_run_dir(rep, "train-static", runs["static"])

        table = self._command(rep, "compare", ["compare", "--runs", ",".join(str(p) for p in runs.values()),
                                               "--data", str(corpus)])
        rows = [line.split() for line in table.splitlines()[1:] if line.strip()]
        # method, run, probe_acc, mean_samples, wall_ms; the run path may contain spaces
        parsed = [(r[0], float(r[-3]), float(r[-2])) for r in rows]
        if [p[0] for p in parsed] != ["scan", "scan", "static"]:
            raise RuntimeError(f"unexpected compare rows {[p[0] for p in parsed]}")
        if not all(0.0 <= p[1] <= 1.0 for p in parsed):
            rep.fail("compare", "probe accuracy outside [0, 1]")
        rep.expect_same("compare", "compare.rows", parsed)
        rep.values["probe_acc"] = parsed[0][1]

        trains = ("train-a", "train-b", "train-static")
        rep.values["train_wall_s"] = sum(rep.timings[op][0] for op in trains)
        rep.values["sample_steps"] = sum(r["active_size"] for r in records)
        scan_cpu = (rep.raw["train-a"][1] + rep.raw["train-b"][1]) / 2
        rep.values["scan_cpu_ratio"] = scan_cpu / rep.raw["train-static"][1]
        files = [p for p in d.rglob("*") if p.is_file()]
        rep.values["artifact_files"] = len(files)
        rep.values["artifact_bytes"] = sum(p.stat().st_size for p in files)


WORKLOADS = {
    "probe-mlp": LibraryWorkload(
        "probe-mlp", n=2000, dim=128, ref="train_full",
        cfg=dict(rho=0.3, tau_cos=3, tau_stop=64, t_td=1.0, batch_size=128, lr=0.5,
                 out_dim=2, mlp=True, hidden_dim=1024)),
    "linear-wide": LibraryWorkload(
        "linear-wide", n=20000, dim=32, ref="train_random_baseline",
        cfg=dict(rho=0.3, tau_cos=3, tau_stop=16, t_td=1.0, batch_size=64, lr=0.05, out_dim=8)),
    "cli-pipeline": CliWorkload(
        n=20000, dim=32,
        cfg=dict(rho=0.3, tau_cos=3, tau_stop=16, t_td=1.0, batch_size=64, lr=0.05, out_dim=8)),
}


def candidate_precision(runs, corruption: np.ndarray) -> tuple[float, float]:
    """Share of ill-matched candidates that are planted mismatches, and of
    redundant candidates that are planted duplicates, over every Prepare epoch
    of every scan run."""
    hits = {Tag.ILL_MATCHED: 0, Tag.REDUNDANT: 0}
    total = {Tag.ILL_MATCHED: 0, Tag.REDUNDANT: 0}
    planted = {Tag.ILL_MATCHED: MISMATCHED, Tag.REDUNDANT: DUPLICATE}
    for name, result in runs:
        if name != "train_scan":
            continue
        for cands in result.candidate_history:
            for tag in hits:
                ids = np.asarray(cands.ids_by_tag(tag), dtype=np.int64)
                hits[tag] += int(np.sum(corruption[ids] == planted[tag]))
                total[tag] += ids.size
    return (hits[Tag.ILL_MATCHED] / max(total[Tag.ILL_MATCHED], 1),
            hits[Tag.REDUNDANT] / max(total[Tag.REDUNDANT], 1))
