"""Command-line entry point: gen-data, train, schedule, export-coreset, compare.

Every command is a single process with no daemon state.  Exit codes: 2 bad
flags, 3 a path the OS cannot open, read or write (a failed write leaves no
partial file), 4 invalid config or data, an empty ``--out``, or out of memory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields, replace
from typing import get_type_hints

from scanprune import coreset, rundir
from scanprune.coreset import CoresetError, PrunedSummary, export_coreset, load_coreset, save_coreset
from scanprune.dataset import DatasetError, GenSpec, generate_paired_dataset, load_dataset, save_dataset
from scanprune.scheduler import round_phase
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
EXIT_OS = 3
EXIT_INVALID = 4


class CliError(Exception):
    """A command's flags, config or data are invalid: exits 4."""


def _fmt(x) -> str:
    """``x`` as stdout shows it; lone surrogates (an undecodable path, a manifest's
    ``\\ud800``) backslash-escaped, since a UTF-8 stdout cannot encode them."""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x).encode("utf-8", "backslashreplace").decode()


# ------------------------------------------------- TrainConfig and GenSpec

def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes"):
        return True
    if raw.lower() in ("0", "false", "no"):
        return False
    raise ValueError(raw)


# A TrainConfig or GenSpec field's type -> how a config-file value is parsed,
# and the argparse keywords of its --field-name flag.
_FIELD_TYPES = {
    int: (int, {"type": int}),
    int | None: (int, {"type": int}),
    float: (float, {"type": float}),
    bool: (_parse_bool, {"action": "store_const", "const": True}),
    Mode: (Mode, {"type": Mode, "choices": list(Mode),
                  "metavar": "{" + ",".join(m.value for m in Mode) + "}"}),
}


def _add_field_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One ``--field-name`` flag per field of ``cls``; a field without a default is required."""
    types = get_type_hints(cls)
    for f in fields(cls):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            required=f.default is MISSING,
                            **_FIELD_TYPES[types[f.name]][1])


def _from_flags(cls, args, values: dict):
    """``cls`` from ``values`` (a config file's) overridden by the flags given."""
    for f in fields(cls):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return cls(**values)


def _load_config_file(path: str) -> dict:
    types = get_type_hints(TrainConfig)
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CliError(f"bad config file {path}: {exc}") from exc
    values: dict = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"bad config line {lineno}: {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in types:
            raise CliError(f"unknown config key: {key}")
        try:
            values[key] = _FIELD_TYPES[types[key]][0](raw)
        except ValueError as exc:
            raise CliError(f"bad value for {key}: {raw!r}") from exc
    return values


def _read_dataset(path: str):
    """The dataset at ``path`` and the SHA-256 of its file; a bad file exits 4."""
    try:
        ds = load_dataset(path)
    except DatasetError as exc:
        raise CliError(f"bad dataset file: {exc}") from exc
    return ds, rundir.sha256(path)


# ---------------------------------------------------------------- gen-data

def cmd_gen_data(args) -> int:
    spec = _from_flags(GenSpec, args, {})
    try:
        ds = generate_paired_dataset(spec)
    except DatasetError as exc:
        raise CliError(f"invalid gen spec: {exc}") from exc
    coreset.write_then_replace(args.out, lambda tmp: save_dataset(ds, tmp))
    print(f"wrote {_fmt(args.out)} n={ds.n} dim={ds.dim} classes={ds.num_classes}")
    return EXIT_OK


# ------------------------------------------------------------------- train

def cmd_train(args) -> int:
    cfg = _from_flags(TrainConfig, args, _load_config_file(args.config) if args.config else {})
    try:
        cfg.validate()
    except TrainerError as exc:
        raise CliError(f"invalid config: {exc}") from exc
    ds, data_sha = _read_dataset(args.data)
    if cfg.mlp and cfg.hidden_dim is None:
        # the width init_params gives the hidden layer, so the manifest records it
        cfg = replace(cfg, hidden_dim=ds.dim)

    if args.method == "static":
        if not args.coreset:
            raise CliError("--coreset is required for method=static")
        try:
            coreset_ids = load_coreset(args.coreset, n=ds.n)
        except CoresetError as exc:
            raise CliError(f"bad coreset file: {exc}") from exc

    rundir.check_out(args.out)
    trainers = {"scan": train_scan, "full": train_full, "random": train_random_baseline}
    try:
        if args.method == "static":
            result = train_static_coreset(ds, coreset_ids, cfg)
        else:
            result = trainers[args.method](ds, cfg)
    except TrainerError as exc:
        raise CliError(f"training failed: {exc}") from exc

    # Written only after training, so a failed run leaves no directory behind.
    manifest = rundir.write_run(args.out, args.method, cfg, args.data, data_sha, result, save_checkpoint)
    print(f"run {manifest['run_id']} method={args.method} epochs={len(result.records)} "
          f"final_loss={_fmt(result.mean_loss)}")
    return EXIT_OK


# ---------------------------------------------------------------- schedule

def cmd_schedule(args) -> int:
    if args.epochs < 0:
        raise CliError("epochs must be >= 0")
    if args.tau_cos < 1:
        raise CliError("tau_cos must be >= 1")
    if args.tau_cos > 2**32:  # train's bound: tau_cos < tau_stop <= 2**32
        raise CliError(f"tau_cos must be <= {2**32}, the u32 limit of rounds.bin's epochs")
    print("epoch,phase,rho_cur")
    for epoch in range(args.epochs):
        phase = round_phase(epoch, 0, args.tau_cos)
        print(f"{epoch},{phase.name},{_fmt(phase.rho_cur)}")
    return EXIT_OK


# ----------------------------------------------------------- export-coreset

def cmd_export_coreset(args) -> int:
    summaries, manifests = [], []
    for run in (args.run_a, args.run_b):
        manifest, history, _, n = rundir.read_rounds(run)
        summaries.append(PrunedSummary.from_candidates(run, history[-1], n))
        manifests.append(manifest)
    a, b = summaries
    try:
        ids = export_coreset(a, b, args.rho)
    except CoresetError as exc:
        raise CliError(str(exc)) from exc
    # after export_coreset, whose size check names both n
    rundir.check_dataset(args.run_b, manifests[1], rundir.dataset_sha(args.run_a, manifests[0]))
    save_coreset(ids, a.n, args.rho, (args.run_a, args.run_b), args.out)
    print(f"wrote {_fmt(args.out)} |coreset|={len(ids)} of n={a.n}")
    return EXIT_OK


# ----------------------------------------------------------------- compare

def cmd_compare(args) -> int:
    if args.probe_seed < 0:
        raise CliError(f"--probe-seed must be >= 0, got {args.probe_seed}")
    runs = args.runs.split(",")
    if not all(runs):
        raise CliError(f"--runs has an empty entry: {args.runs!r}")
    ds = None
    if args.data:
        ds, data_sha = _read_dataset(args.data)
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
                    raise CliError(f"{run}: checkpoint dim {params.dim} differs from dataset dim {ds.dim}")
                rundir.check_dataset(run, manifest, data_sha)
                probe = linear_probe(params, ds, args.probe_seed)
            except TrainerError as exc:
                raise CliError(f"cannot probe {run}: {exc}") from exc
        rows.append((manifest["method"], run, probe, mean_samples, wall))
    print(f"{'method':<8} {'run':<24} {'probe_acc':>10} {'mean_samples':>13} {'wall_ms':>10}")
    for method, run, probe, mean_samples, wall in rows:
        print(f"{_fmt(method):<8} {_fmt(run):<24} {_fmt(probe):>10} {_fmt(mean_samples):>13} {_fmt(wall):>10}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic paired dataset")
    _add_field_flags(g, GenSpec)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model and write run artifacts")
    t.add_argument("--config", help="flat key=value config file")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--method", choices=("scan", "full", "random", "static"), default="scan")
    t.add_argument("--coreset", help="coreset id file (method=static)")
    _add_field_flags(t, TrainConfig)
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


def _fail(code: int, msg) -> int:
    print(f"error code={code} msg={msg}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) == "":  # Path("") is the current directory
            raise CliError("--out is empty: give the file or run directory to write")
        return args.func(args)
    except (CliError, rundir.RunDirError) as exc:
        return _fail(EXIT_INVALID, exc)
    except MemoryError as exc:
        return _fail(EXIT_INVALID, f"out of memory: {exc}")
    except OSError as exc:  # a path the OS cannot open, read or write
        return _fail(EXIT_OS, exc)


if __name__ == "__main__":
    sys.exit(main())
