"""Command-line entry point: gen-data, train, schedule, export-coreset, compare.

Every command is a single process with no daemon state.  Exit codes: 2 bad
flags, 3 missing file, 4 invalid config or data.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from scanprune import rundir
from scanprune.coreset import CoresetError, PrunedSummary, export_coreset, load_coreset, save_coreset
from scanprune.dataset import DatasetError, GenSpec, generate_paired_dataset, load_dataset, save_dataset
from scanprune.scheduler import SchedulerError, phase_table
from scanprune.trainer import (
    Mode,
    TrainConfig,
    TrainerError,
    linear_probe,
    load_checkpoint,
    save_checkpoint,
    train_full,
    train_random_baseline,
    train_scan,
    train_static_coreset,
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
    """``SCAN_SEED``, the seed of a command given no ``--seed``; read only when one is needed."""
    raw = os.environ.get("SCAN_SEED", "0")
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise CliError(EXIT_INVALID, f"SCAN_SEED must be a non-negative integer, got {raw!r}")


# ---------------------------------------------------------------- gen-data

def cmd_gen_data(args) -> int:
    spec = GenSpec(
        n=args.n,
        dim=args.dim,
        num_classes=args.num_classes,
        mismatch_frac=args.mismatch_frac,
        duplicate_frac=args.duplicate_frac,
        noise_sigma=args.noise_sigma,
        seed=_default_seed() if args.seed is None else args.seed,
    )
    try:
        spec.validate()
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


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_INVALID, f"bad config file {path}: {exc}") from exc
    values: dict = {}
    for lineno, line in enumerate(lines, 1):
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
        values.update(_load_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "seed" not in values:
        values["seed"] = _default_seed()
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
    try:
        ds = load_dataset(args.data)
    except DatasetError as exc:
        raise CliError(EXIT_INVALID, f"bad dataset file: {exc}") from exc
    data_sha = rundir.sha256(args.data)

    if args.method == "static":
        if not args.coreset:
            raise CliError(EXIT_INVALID, "--coreset is required for method=static")
        try:
            coreset_ids = load_coreset(args.coreset, n=ds.n)
        except CoresetError as exc:
            raise CliError(EXIT_INVALID, f"bad coreset file: {exc}") from exc

    rundir.check_out(args.out)
    trainers = {"scan": train_scan, "full": train_full, "random": train_random_baseline}
    try:
        if args.method == "static":
            result = train_static_coreset(ds, coreset_ids, cfg)
        else:
            result = trainers[args.method](ds, cfg)
    except TrainerError as exc:
        raise CliError(EXIT_INVALID, f"training failed: {exc}") from exc

    # Written only after training, so a failed run leaves no directory behind.
    manifest = rundir.write_run(args.out, args.method, cfg, args.data, data_sha, result, ds.n, save_checkpoint)
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

def cmd_export_coreset(args) -> int:
    if Path(args.out).is_dir():
        raise CliError(EXIT_INVALID, f"--out is a directory: {args.out}")
    a, b = (PrunedSummary.from_candidates(run, *rundir.read_candidates(run))
            for run in (args.run_a, args.run_b))
    try:
        ids = export_coreset(a, b, args.rho)
    except CoresetError as exc:
        raise CliError(EXIT_INVALID, str(exc)) from exc
    save_coreset(ids, a.n, args.rho, (args.run_a, args.run_b), args.out)
    print(f"wrote {args.out} |coreset|={len(ids)} of n={a.n}")
    return EXIT_OK


# ----------------------------------------------------------------- compare

def cmd_compare(args) -> int:
    if args.probe_seed < 0:
        raise CliError(EXIT_INVALID, f"--probe-seed must be >= 0, got {args.probe_seed}")
    runs = args.runs.split(",")
    if not all(runs):
        raise CliError(EXIT_INVALID, f"--runs has an empty entry: {args.runs!r}")
    ds = None
    if args.data:
        try:
            ds = load_dataset(args.data)
        except DatasetError as exc:
            raise CliError(EXIT_INVALID, f"bad dataset file: {exc}") from exc
        data_sha = rundir.sha256(args.data)
    rows = []
    for run in runs:
        manifest, records = rundir.read_run(run)
        mean_samples = sum(r.active_size for r in records) / len(records)
        wall = sum(r.wall_ms for r in records)
        probe = float("nan")
        if ds is not None:
            try:
                params = load_checkpoint(rundir.listed(run, manifest, rundir.CHECKPOINT))
                if params.dim != ds.dim:
                    raise CliError(EXIT_INVALID, f"{run}: checkpoint dim {params.dim} "
                                                 f"differs from dataset dim {ds.dim}")
                rundir.check_dataset(run, manifest, data_sha)
                probe = linear_probe(params, ds, args.probe_seed)
            except TrainerError as exc:
                raise CliError(EXIT_INVALID, f"cannot probe {run}: {exc}") from exc
        rows.append((manifest["method"], run, probe, mean_samples, wall))
    print(f"{'method':<8} {'run':<24} {'probe_acc':>10} {'mean_samples':>13} {'wall_ms':>10}")
    for method, run, probe, mean_samples, wall in rows:
        print(f"{method:<8} {run:<24} {_fmt(probe):>10} {_fmt(mean_samples):>13} {_fmt(wall):>10}")
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
    g.add_argument("--seed", type=int, help="default: $SCAN_SEED, else 0")
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


def _fail(code: int, exc: Exception) -> int:
    print(f"error code={code} msg={exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        return _fail(exc.code, exc)
    except rundir.RunDirError as exc:
        return _fail(EXIT_INVALID, exc)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        return _fail(EXIT_MISSING_FILE, exc)


if __name__ == "__main__":
    sys.exit(main())
