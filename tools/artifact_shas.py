"""SHA-256 of every artifact a "same behaviour" check compares.

    python3 tools/artifact_shas.py --src src --out shas.json [--against base.json]

imports ``scanprune`` from ``--src`` and writes one JSON object mapping an
artifact name to its SHA-256, so a before/after check is two runs, one per
checkout.  ``--against`` takes the file the other checkout's run wrote: it
prints each entry that changed or vanished and each new one, and exits 1 if
any entry changed or vanished.  It covers:

- the criterion-9 config (n=2000, dim=128, seed-7 linear towers) under
  ``train_scan``, ``train_full``, ``train_random_baseline``,
  ``train_static_coreset`` and ``train_scan`` in view_pair mode: checkpoint,
  metrics without ``wall_ms``, exclusions, candidate history, batch counts and
  the ``linear_probe`` accuracy at probe seeds 0 and 1, plus the
  ``export_coreset`` ids that feed the static run;
- ``_fit_probe``'s ``(w, bias)`` at the cli-pipeline shape (16000 x 8, 8
  classes);
- ``train_scan`` at two benchmark workloads' step shapes, with the same
  artifacts as above: linear-wide's linear towers (dim 32, batch 64, out 8;
  n=4000, 6 epochs) and probe-mlp's MLP (dim 128, hidden 1024, out 2, batch
  128; n=512, 4 epochs);
- ``train_scan`` at linear-wide's shape over 16 epochs at the two warm-up
  exits ``t_td=1.0`` never reaches: ``t_td=0.0``, where warm-up ends at the
  cap (epoch 4), and ``t_td=0.0045``, where the loss-drop rule fires at
  epoch 3;
- ``train_random_baseline`` where floor(rho * n) is 0 (n=8, rho=0.1), so no
  epoch drops a sample;
- ``batch_candidates``' ids, tags and scores on seeded batches of 2 to 129
  slots whose losses are rounded to exact ties, at rho 0.1, 0.3 and the
  largest rho below 0.5 (k = floor(b / 2)); training histories rarely tie;
- the corpus file ``save_dataset`` writes at linear-wide's shape (n=20000,
  dim 32) and probe-mlp's (n=2000, dim 128), and the arrays ``load_dataset``
  reads back from it;
- what ``load_checkpoint`` reads back from the criterion-9 ``train_scan``
  checkpoint and the probe-mlp-shape one: each weight's name, dtype, shape,
  flags and bytes, and ``log_temp``'s type and value;
- one CLI run per ``--method`` (and view_pair and an MLP run) on a 600 x 16
  corpus: the corpus, every artifact each manifest lists (``metrics.jsonl``
  without ``wall_ms``), the ``export-coreset`` file, the ``scan compare
  --data`` rows without ``wall_ms`` and the ``scan schedule`` tables
  (``--tau-cos`` 3, 1, 2 and 5, the header-only ``--epochs 0`` and
  ``--tau-cos 3 --epochs 100000``);
- the corpus of a ``gen-data`` given only its required flags (seed 0, the
  default), and the manifest and checkpoint of a ``train --config``
  run whose file sets every ``TrainConfig`` key.

The CLI runs in a temporary directory with relative paths, so manifests and
the coreset header are the same bytes in every checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _records_bytes(records) -> bytes:
    return json.dumps([dict(dataclasses.asdict(r), wall_ms=0.0) for r in records]).encode()


def _corpus(sp, n: int, dim: int):
    return sp.generate_paired_dataset(sp.GenSpec(n=n, dim=dim, num_classes=8, mismatch_frac=0.1,
                                                 duplicate_frac=0.1, noise_sigma=0.1, seed=1))


def _run_shas(sp, tmp: Path, name: str, res, ds) -> dict[str, str]:
    sp.save_checkpoint(res.params, tmp / "lib.bin")
    return {
        f"lib/{name}/checkpoint": _sha((tmp / "lib.bin").read_bytes()),
        f"lib/{name}/metrics": _sha(_records_bytes(res.records)),
        f"lib/{name}/exclusions": _sha(json.dumps(  # ids as a list or an array alike
            [(epoch, list(map(int, ids))) for epoch, ids in sorted(res.exclusions.items())]).encode()),
        f"lib/{name}/candidates": _sha(b"".join(
            c.ids.tobytes() + c.redundant.tobytes() + c.scores.tobytes() + str(c.built_at_epoch).encode()
            for c in res.candidate_history)),
        f"lib/{name}/batches": _sha(json.dumps([res.forward_passes, res.batches_per_epoch]).encode()),
        f"lib/{name}/probe_acc": _sha(json.dumps(
            [sp.linear_probe(res.params, ds, seed) for seed in (0, 1)]).encode()),
    }


def _checkpoint_reload_sha(tmp: Path, params) -> str:
    from scanprune.trainer import load_checkpoint, save_checkpoint

    save_checkpoint(params, tmp / "reload.bin")
    back = load_checkpoint(tmp / "reload.bin")
    return _sha(b"".join(
        f"{name} {w.dtype.str} {w.shape} {w.flags.owndata} {w.flags.writeable} {w.flags.c_contiguous}".encode()
        + w.tobytes() for name, w in back.weights()) + f"{type(back.log_temp).__name__} {back.log_temp!r}".encode())


def library_shas(sp, tmp: Path) -> dict[str, str]:
    from scanprune import trainer

    ds = _corpus(sp, 2000, 128)
    cfg = sp.TrainConfig(rho=0.3, tau_cos=3, tau_stop=12, t_td=1.0, batch_size=128, lr=0.5,
                         out_dim=8, seed=7)
    out = {}

    def record(name, res):
        out.update(_run_shas(sp, tmp, name, res, ds))

    scan_a = sp.train_scan(ds, cfg)
    scan_b = sp.train_scan(ds, dataclasses.replace(cfg, seed=8))
    record("train_scan", scan_a)
    out["lib/train_scan/checkpoint_reload"] = _checkpoint_reload_sha(tmp, scan_a.params)
    record("train_full", sp.train_full(ds, cfg))
    record("train_random_baseline", sp.train_random_baseline(ds, cfg))
    record("train_scan_view_pair", sp.train_scan(ds, dataclasses.replace(cfg, mode=sp.Mode.VIEW_PAIR)))
    summaries = [sp.PrunedSummary.from_candidates(name, res.candidate_history[-1], ds.n)
                 for name, res in (("a", scan_a), ("b", scan_b))]
    ids = sp.export_coreset(*summaries, 0.3)
    out["lib/export_coreset/ids"] = _sha(json.dumps(ids).encode())
    record("train_static_coreset", sp.train_static_coreset(ds, ids, cfg))

    import numpy as np

    rng = np.random.default_rng(0)
    w, bias = trainer._fit_probe(rng.standard_normal((16000, 8)), rng.integers(0, 8, 16000), 8)
    out["lib/_fit_probe/w_bias"] = _sha(w.tobytes() + bias.tobytes())
    return out


def bench_shape_shas(sp, tmp: Path) -> dict[str, str]:
    """``train_scan`` at linear-wide's and probe-mlp's step shapes."""
    out = {}
    ds = _corpus(sp, 4000, 32)
    cfg = sp.TrainConfig(rho=0.3, tau_cos=3, tau_stop=6, t_td=1.0, batch_size=64, out_dim=8, seed=3)
    out.update(_run_shas(sp, tmp, "linear_wide_shape/train_scan", sp.train_scan(ds, cfg), ds))
    ds = _corpus(sp, 512, 128)
    cfg = sp.TrainConfig(rho=0.3, tau_cos=3, tau_stop=4, t_td=1.0, batch_size=128, lr=0.5, out_dim=2,
                         mlp=True, hidden_dim=1024, seed=3)
    res = sp.train_scan(ds, cfg)
    out.update(_run_shas(sp, tmp, "probe_mlp_shape/train_scan", res, ds))
    out["lib/probe_mlp_shape/train_scan/checkpoint_reload"] = _checkpoint_reload_sha(tmp, res.params)
    return out


def warmup_exit_shas(sp, tmp: Path) -> dict[str, str]:
    """``train_scan`` where warm-up ends at the cap and where the loss-drop rule fires after epoch 2."""
    out = {}
    ds = _corpus(sp, 4000, 32)
    for t_td in (0.0, 0.0045):
        cfg = sp.TrainConfig(rho=0.3, tau_cos=3, tau_stop=16, t_td=t_td, batch_size=64, out_dim=8, seed=3)
        out.update(_run_shas(sp, tmp, f"t_td{t_td}/train_scan", sp.train_scan(ds, cfg), ds))
    return out


def no_drop_shas(sp, tmp: Path) -> dict[str, str]:
    """``train_random_baseline`` on a corpus too small for rho to drop a sample."""
    ds = _corpus(sp, 8, 4)
    cfg = sp.TrainConfig(rho=0.1, tau_cos=2, tau_stop=6, t_td=1.0, batch_size=4, out_dim=2, seed=3)
    return _run_shas(sp, tmp, "n8_rho0.1/train_random_baseline", sp.train_random_baseline(ds, cfg), ds)


def selection_shas() -> dict[str, str]:
    """``batch_candidates`` on tied losses, up to the k = floor(b / 2) boundary."""
    import numpy as np
    from scanprune.pruner import batch_candidates

    rng = np.random.default_rng(0)
    data = b""
    for b in range(2, 130):
        ids = rng.permutation(4 * b)[:b]
        fg, gf = np.round(rng.standard_normal((2, b)), b % 2)  # 0 or 1 decimal: many exact ties
        for rho in (0.1, 0.3, float(np.nextafter(0.5, 0.0))):
            cs = batch_candidates(fg, gf, ids, rho)
            data += cs.ids.tobytes() + cs.redundant.tobytes() + cs.scores.tobytes()
    return {"lib/batch_candidates/ties": _sha(data)}


def corpus_shas(sp, tmp: Path) -> dict[str, str]:
    """The corpus file and its reload at the shapes the benchmark's ``setup_s`` times."""
    out = {}
    for n, dim in ((20000, 32), (2000, 128)):
        path = tmp / "corpus.bin"
        sp.save_dataset(_corpus(sp, n, dim), path)
        back = sp.load_dataset(path)
        out[f"lib/corpus_n{n}_dim{dim}/file"] = _sha(path.read_bytes())
        out[f"lib/corpus_n{n}_dim{dim}/reload"] = _sha(b"".join(
            a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()
            for a in (back.view_a, back.view_b, back.labels, back.corruption)))
    return out


def _drop_wall_ms(table: str) -> str:
    """``scan compare`` rows without their last column, ``wall_ms``."""
    return "\n".join(line.rsplit(None, 1)[0] for line in table.splitlines() if line.strip())


def cli_shas(main) -> dict[str, str]:
    out = {}

    def run(*argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        if code != 0:
            raise SystemExit(f"scan {' '.join(argv)} exited {code}")
        return buf.getvalue()

    run("gen-data", "--n", "600", "--dim", "16", "--num-classes", "6", "--mismatch-frac", "0.1",
        "--duplicate-frac", "0.1", "--noise-sigma", "0.1", "--seed", "5", "--out", "data.bin")
    out["cli/data.bin"] = _sha(Path("data.bin").read_bytes())
    common = ("--data", "data.bin", "--tau-stop", "10", "--t-td", "1.0", "--batch-size", "64",
              "--out-dim", "8", "--lr", "0.3", "--rho", "0.3")
    runs = {
        "scan1": ("--method", "scan", "--seed", "1"),
        "scan2": ("--method", "scan", "--seed", "2"),
        "full": ("--method", "full", "--seed", "1"),
        "random": ("--method", "random", "--seed", "1"),
        "view_pair": ("--method", "random", "--mode", "view_pair", "--seed", "1"),
        "mlp": ("--method", "scan", "--mlp", "--hidden-dim", "32", "--seed", "1"),
    }
    for name, flags in runs.items():
        run("train", "--out", name, *common, *flags)
    run("export-coreset", "--run-a", "scan1", "--run-b", "scan2", "--rho", "0.3", "--out", "coreset.txt")
    out["cli/coreset.txt"] = _sha(Path("coreset.txt").read_bytes())
    run("train", "--out", "static", *common, "--method", "static", "--coreset", "coreset.txt", "--seed", "1")
    for name in (*runs, "static"):
        manifest = json.loads(Path(name, "manifest.json").read_text())
        out[f"cli/{name}/manifest.json"] = _sha(Path(name, "manifest.json").read_bytes())
        for artifact in manifest["artifacts"]:
            data = Path(name, artifact).read_bytes()
            if artifact == "metrics.jsonl":
                data = b"".join(json.dumps(dict(json.loads(line), wall_ms=0.0)).encode() + b"\n"
                                for line in data.splitlines())
            out[f"cli/{name}/{artifact}"] = _sha(data)
    for seed in ("0", "1"):
        table = run("compare", "--runs", ",".join((*runs, "static")), "--data", "data.bin",
                    "--probe-seed", seed)
        out[f"cli/compare/probe_seed{seed}"] = _sha(_drop_wall_ms(table).encode())
    out["cli/schedule"] = _sha(run("schedule", "--tau-cos", "3", "--epochs", "8").encode())
    for tau_cos in ("1", "2", "5"):
        table = run("schedule", "--tau-cos", tau_cos, "--epochs", "13")
        out[f"cli/schedule_tau_cos{tau_cos}"] = _sha(table.encode())
    out["cli/schedule_epochs0"] = _sha(run("schedule", "--tau-cos", "3", "--epochs", "0").encode())
    out["cli/schedule_epochs100000"] = _sha(run("schedule", "--tau-cos", "3", "--epochs", "100000").encode())

    run("gen-data", "--n", "600", "--dim", "16", "--num-classes", "6", "--out", "defaults.bin")
    out["cli/defaults.bin"] = _sha(Path("defaults.bin").read_bytes())
    Path("every_key.cfg").write_text(
        "rho = 0.25\ntau_cos = 2\ntau_stop = 9\nt_td = 1.0\nbatch_size = 48\n"
        "lr = 0.3\nout_dim = 6\nseed = 4\nmode = view_pair\nmlp = yes\nhidden_dim = 24\n")
    run("train", "--data", "data.bin", "--out", "every_key", "--config", "every_key.cfg")
    for artifact in ("manifest.json", "checkpoint.bin"):
        out[f"cli/every_key/{artifact}"] = _sha(Path("every_key", artifact).read_bytes())
    return out


def against(base: dict, shas: dict) -> int:
    """Print how ``shas`` differs from ``base``; 1 if an entry of ``base`` changed or vanished."""
    changed = sorted(name for name in base.keys() & shas.keys() if base[name] != shas[name])
    vanished = sorted(base.keys() - shas.keys())
    new = sorted(shas.keys() - base.keys())
    for label, names in (("changed", changed), ("vanished", vanished), ("new", new)):
        for name in names:
            print(f"{label:<8} {name}")
    print(f"{len(base) - len(changed) - len(vanished)} of {len(base)} entries identical, {len(new)} new")
    return 1 if changed or vanished else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the scanprune package")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--against", help="JSON file an earlier run wrote: exit 1 if an entry changed or vanished")
    args = parser.parse_args()
    base = json.loads(Path(args.against).read_text()) if args.against else None
    out_path = Path(args.out).resolve()
    sys.path.insert(0, str(Path(args.src).resolve()))
    import scanprune as sp
    from scanprune.cli import main as cli_main

    os.environ.pop("SCAN_SEED", None)  # older trees' gen-data, given no --seed, reads it
    shas = {}
    with tempfile.TemporaryDirectory() as tmp:
        shas.update(library_shas(sp, Path(tmp)))
        shas.update(bench_shape_shas(sp, Path(tmp)))
        shas.update(warmup_exit_shas(sp, Path(tmp)))
        shas.update(no_drop_shas(sp, Path(tmp)))
        shas.update(selection_shas())
        shas.update(corpus_shas(sp, Path(tmp)))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            shas.update(cli_shas(cli_main))
        finally:
            os.chdir(cwd)
    out_path.write_text(json.dumps(dict(sorted(shas.items())), indent=1) + "\n")
    print(f"{len(shas)} artifacts from {Path(sp.__file__).parent} -> {out_path}")
    return 0 if base is None else against(base, shas)


if __name__ == "__main__":
    sys.exit(main())
