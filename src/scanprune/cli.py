"""Command-line entry point: gen-data, train, schedule, export-coreset, compare.

Every command is a single process with no daemon state.  Runs write a manifest
listing every artifact plus the config snapshot and dataset hash, so any run
is reproducible from its manifest alone.  Exit codes: 2 bad flags, 3 missing
file, 4 invalid config or data.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from scanprune import coreset as coreset_mod
from scanprune.coreset import CoresetError, PrunedSummary, export_coreset
from scanprune.dataset import DatasetError, GenSpec, generate_paired_dataset, load_dataset, save_dataset
from scanprune.pruner import CandidateSet, PrunerError, Tag
from scanprune.scheduler import SchedulerError, phase_table
from scanprune.trainer import (
    Mode,
    TrainConfig,
    TrainerError,
    linear_probe,
    load_checkpoint,
    read_metrics,
    save_checkpoint,
    train_full,
    train_random_baseline,
    train_scan,
    train_static_coreset,
    write_metrics,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_INVALID = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _default_seed() -> int:
    return int(os.environ.get("SCAN_SEED", "0"))


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise CliError(EXIT_MISSING_FILE, f"missing file: {path}")
    return p


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------- gen-data

def cmd_gen_data(args) -> int:
    spec = GenSpec(
        n=args.n,
        dim=args.dim,
        num_classes=args.num_classes,
        mismatch_frac=args.mismatch_frac,
        duplicate_frac=args.duplicate_frac,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    try:
        ds = generate_paired_dataset(spec)
    except DatasetError as exc:
        raise CliError(EXIT_INVALID, f"invalid gen spec: {exc}") from exc
    save_dataset(ds, args.out)
    print(f"wrote {args.out} n={ds.n} dim={ds.dim} classes={ds.num_classes}")
    return EXIT_OK


# ------------------------------------------------------------------- train

_CONFIG_KEYS = {
    "rho": float,
    "tau_cos": int,
    "tau_stop": int,
    "t_td": float,
    "epsilon": float,
    "batch_size": int,
    "lr": float,
    "out_dim": int,
    "seed": int,
    "mode": str,
    "mlp": lambda v: v.lower() in ("1", "true", "yes"),
    "hidden_dim": int,
}


def _load_config_file(path: Path) -> dict:
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(EXIT_INVALID, f"bad config line {lineno}: {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _CONFIG_KEYS:
                raise CliError(EXIT_INVALID, f"unknown config key: {key}")
            try:
                values[key] = _CONFIG_KEYS[key](raw)
            except ValueError as exc:
                raise CliError(EXIT_INVALID, f"bad value for {key}: {raw!r}") from exc
    return values


def _build_config(args) -> TrainConfig:
    values: dict = {}
    if args.config:
        values.update(_load_config_file(_require_file(args.config)))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values.setdefault("seed", _default_seed())
    if "mode" in values:
        try:
            values["mode"] = Mode(values["mode"])
        except ValueError as exc:
            raise CliError(EXIT_INVALID, f"unknown mode: {values['mode']}") from exc
    try:
        cfg = TrainConfig(**values)
        cfg.validate()
    except (TypeError, TrainerError) as exc:
        raise CliError(EXIT_INVALID, f"invalid config: {exc}") from exc
    return cfg


def cmd_train(args) -> int:
    cfg = _build_config(args)
    data_path = _require_file(args.data)
    try:
        ds = load_dataset(data_path)
    except DatasetError as exc:
        raise CliError(EXIT_INVALID, f"bad dataset file: {exc}") from exc

    if args.method == "static":
        if not args.coreset:
            raise CliError(EXIT_INVALID, "--coreset is required for method=static")
        try:
            coreset_ids = coreset_mod.load_coreset(_require_file(args.coreset))
        except CoresetError as exc:
            raise CliError(EXIT_INVALID, f"bad coreset file: {exc}") from exc

    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise CliError(EXIT_INVALID, f"--out is not a directory: {out}")
    trainers = {"scan": train_scan, "full": train_full, "random": train_random_baseline}
    try:
        if args.method == "static":
            result = train_static_coreset(ds, coreset_ids, cfg)
        else:
            result = trainers[args.method](ds, cfg)
    except TrainerError as exc:
        raise CliError(EXIT_INVALID, f"training failed: {exc}") from exc

    # Made only after training, so a failed run leaves no directory behind.
    out.mkdir(parents=True, exist_ok=True)

    artifacts = []
    metrics_path = out / "metrics.jsonl"
    write_metrics(result.records, metrics_path)
    artifacts.append(metrics_path.name)
    ckpt_path = out / "checkpoint.bin"
    save_checkpoint(result.params, ckpt_path)
    artifacts.append(ckpt_path.name)

    for epoch, ids in sorted(result.exclusions.items()):
        dump = out / f"pruned_epoch{epoch:04d}.txt"
        coreset_mod.write_ids(dump, f"epoch={epoch} rho_cur={_fmt(result.records[epoch].rho_cur)}", ids)
        artifacts.append(dump.name)

    if result.candidate_history:
        final = result.candidate_history[-1]
        tags = [(Tag.REDUNDANT if r else Tag.ILL_MATCHED).value for r in final.redundant.tolist()]
        cand_path = out / "candidates.json"
        with open(cand_path, "w") as fh:
            json.dump({
                "n": ds.n,
                "built_at_epoch": final.built_at_epoch,
                "entries": [
                    {"sample_id": sid, "tag": tag, "rank_score": score}
                    for sid, tag, score in zip(final.ids.tolist(), tags, final.scores.tolist())
                ],
            }, fh)
        artifacts.append(cand_path.name)

    snapshot = asdict(cfg)
    snapshot["mode"] = cfg.mode.value
    manifest = {
        "run_id": hashlib.sha256(
            json.dumps([snapshot, args.method, _sha256(data_path)], sort_keys=True).encode()
        ).hexdigest()[:16],
        "method": args.method,
        "config": snapshot,
        "dataset": {"path": str(data_path), "sha256": _sha256(data_path)},
        "out_dir": str(out),
        "artifacts": sorted(artifacts),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"run {manifest['run_id']} method={args.method} epochs={len(result.records)} "
          f"final_loss={_fmt(result.mean_loss)}")
    return EXIT_OK


# ---------------------------------------------------------------- schedule

def cmd_schedule(args) -> int:
    try:
        rows = phase_table(args.tau_cos, args.epochs)
    except SchedulerError as exc:
        raise CliError(EXIT_INVALID, str(exc)) from exc
    print("epoch,phase,rho_cur")
    for epoch, phase in rows:
        print(f"{epoch},{phase.name},{_fmt(phase.rho_cur)}")
    return EXIT_OK


# ----------------------------------------------------------- export-coreset

def _summary_from_run(run_dir: str) -> PrunedSummary:
    """A run's ``candidates.json`` as a summary; malformed content exits 4, and so
    does an ``n`` other than the warm-up epoch 0's ``active_size``."""
    path = _require_file(str(Path(run_dir) / "candidates.json"))
    metrics_path = _require_file(str(Path(run_dir) / "metrics.jsonl"))
    try:
        records = read_metrics(metrics_path)
    except TrainerError as exc:
        raise CliError(EXIT_INVALID, f"bad run directory {run_dir}: {exc}") from exc
    try:
        with open(path) as fh:
            data = json.load(fh)
        n, entries = data["n"], data["entries"]
        ids = [e["sample_id"] for e in entries]
        if not all(type(v) is int for v in (n, *ids)) or n < 0:
            raise ValueError("n and every sample_id must be non-negative integers")
        warmup = records[0].active_size if records else None
        if n != warmup:
            raise ValueError(f"n={n}, but the run's first epoch in {metrics_path} trained on {warmup} samples")
        cands = CandidateSet(
            ids=ids,
            redundant=[Tag(e["tag"]) is Tag.REDUNDANT for e in entries],
            scores=[float(e["rank_score"]) for e in entries],
            built_at_epoch=int(data["built_at_epoch"]),
        )
        cands.validate(n)
    except (ValueError, KeyError, TypeError, OverflowError, PrunerError) as exc:
        raise CliError(EXIT_INVALID, f"bad candidates file {path}: {exc}") from exc
    return PrunedSummary.from_candidates(str(run_dir), cands, n)


def cmd_export_coreset(args) -> int:
    a = _summary_from_run(args.run_a)
    b = _summary_from_run(args.run_b)
    try:
        ids = export_coreset(a, b, args.rho)
    except CoresetError as exc:
        raise CliError(EXIT_INVALID, str(exc)) from exc
    coreset_mod.save_coreset(ids, a.n, args.rho, (args.run_a, args.run_b), args.out)
    print(f"wrote {args.out} |coreset|={len(ids)} of n={a.n}")
    return EXIT_OK


# ----------------------------------------------------------------- compare

def cmd_compare(args) -> int:
    ds = None
    if args.data:
        try:
            ds = load_dataset(_require_file(args.data))
        except DatasetError as exc:
            raise CliError(EXIT_INVALID, f"bad dataset file: {exc}") from exc
    rows = []
    for run_dir in args.runs.split(","):
        run = Path(run_dir)
        manifest_path = _require_file(str(run / "manifest.json"))
        metrics_path = _require_file(str(run / "metrics.jsonl"))
        try:
            with open(manifest_path) as fh:
                method = str(json.load(fh)["method"])
            records = read_metrics(metrics_path)
        except (ValueError, KeyError, TypeError, TrainerError) as exc:
            raise CliError(EXIT_INVALID, f"bad run directory {run}: {exc}") from exc
        if not records:
            raise CliError(EXIT_INVALID, f"no epoch records in {metrics_path}")
        mean_samples = sum(r.active_size for r in records) / len(records)
        wall = sum(r.wall_ms for r in records)
        probe = float("nan")
        if ds is not None:
            try:
                params = load_checkpoint(_require_file(str(run / "checkpoint.bin")))
                if params.dim != ds.dim:
                    raise CliError(EXIT_INVALID, f"{run}: checkpoint dim {params.dim} "
                                                 f"differs from dataset dim {ds.dim}")
                probe = linear_probe(params, ds, args.probe_seed)
            except TrainerError as exc:
                raise CliError(EXIT_INVALID, f"cannot probe {run}: {exc}") from exc
        rows.append((method, run_dir, probe, mean_samples, wall))
    print(f"{'method':<8} {'run':<24} {'probe_acc':>10} {'mean_samples':>13} {'wall_ms':>10}")
    for method, run_dir, probe, mean_samples, wall in rows:
        print(f"{method:<8} {run_dir:<24} {_fmt(probe):>10} {_fmt(mean_samples):>13} {_fmt(wall):>10}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic paired dataset")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--num-classes", type=int, required=True)
    g.add_argument("--mismatch-frac", type=float, default=0.0)
    g.add_argument("--duplicate-frac", type=float, default=0.0)
    g.add_argument("--noise-sigma", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=_default_seed())
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model and write run artifacts")
    t.add_argument("--config", help="flat key=value config file")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--method", choices=("scan", "full", "random", "static"), default="scan")
    t.add_argument("--coreset", help="coreset id file (method=static)")
    t.add_argument("--rho", type=float)
    t.add_argument("--tau-cos", type=int, dest="tau_cos")
    t.add_argument("--tau-stop", type=int, dest="tau_stop")
    t.add_argument("--t-td", type=float, dest="t_td")
    t.add_argument("--epsilon", type=float)
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--lr", type=float)
    t.add_argument("--out-dim", type=int, dest="out_dim")
    t.add_argument("--seed", type=int)
    t.add_argument("--mode", choices=tuple(m.value for m in Mode))
    t.add_argument("--mlp", action="store_const", const=True, default=None)
    t.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("schedule", help="print the phase and mutation-ratio table")
    s.add_argument("--tau-cos", type=int, dest="tau_cos", required=True)
    s.add_argument("--epochs", type=int, required=True)
    s.set_defaults(func=cmd_schedule)

    e = sub.add_parser("export-coreset", help="intersect two runs into a static coreset")
    e.add_argument("--run-a", required=True)
    e.add_argument("--run-b", required=True)
    e.add_argument("--rho", type=float, required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_export_coreset)

    c = sub.add_parser("compare", help="tabulate probe accuracy and cost across runs")
    c.add_argument("--runs", required=True, help="comma-separated run directories")
    c.add_argument("--data", help="dataset for probe evaluation")
    c.add_argument("--probe-seed", type=int, dest="probe_seed", default=0)
    c.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error code={exc.code} msg={exc}", file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:
        print(f"error code={EXIT_MISSING_FILE} msg={exc}", file=sys.stderr)
        return EXIT_MISSING_FILE


if __name__ == "__main__":
    sys.exit(main())
