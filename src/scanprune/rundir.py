"""The run directory, the one module that knows its layout.

A run writes ``metrics.jsonl``, ``checkpoint.bin``, for scan ``candidates.json``
and ``pruned_epochNNNN.txt``, and a ``manifest.json`` listing every artifact
plus the config snapshot and dataset hash, so any run is reproducible from its
manifest alone.  The manifest is the commit marker: ``write_run`` removes the
old one first and moves the new one in last with ``os.replace``, and readers
open only the files it lists, so a failing or killed write leaves no run.
There is no fsync: a power loss is not covered.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from dataclasses import asdict, fields
from pathlib import Path

from scanprune.coreset import write_ids, write_then_replace
from scanprune.pruner import CandidateSet, PrunerError, Tag
from scanprune.trainer import EpochRecord, RunResult, TrainConfig

MANIFEST = "manifest.json"
METRICS = "metrics.jsonl"
CHECKPOINT = "checkpoint.bin"
CANDIDATES = "candidates.json"
_ENTRY_SLICE = 2048  # candidates.json entries encoded per json.dumps call


class RunDirError(Exception):
    """A run directory that cannot be written, or is not a well-formed run."""


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_out(out) -> None:
    """Raise NotADirectoryError, naming the part in the way, if ``out`` or a parent of it
    is an existing non-directory: the refusal ``write_run`` would meet, before training."""
    out = Path(out)
    for p in (out, *out.parents):
        if p.exists() and not p.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(p))


def write_metrics(records, path) -> None:
    """JSON-lines metrics file, one EpochRecord per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(asdict(rec)) + "\n")


_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def read_metrics(path) -> list[EpochRecord]:
    """Parse a metrics file; a malformed or wrongly typed record raises RunDirError."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = EpochRecord(**json.loads(line))
            except (ValueError, TypeError) as exc:
                raise RunDirError(f"bad run directory {Path(path).parent}: {path}:{lineno}: "
                                  f"bad epoch record: {exc}") from exc
            if not all(isinstance(getattr(rec, f.name), _JSON_TYPES[f.type]) for f in fields(rec)):
                raise RunDirError(f"bad run directory {Path(path).parent}: {path}:{lineno}: "
                                  f"epoch record has a wrongly typed field")
            records.append(rec)
    return records


def write_run(out, method: str, cfg: TrainConfig, data_path, data_sha: str, result: RunResult, n: int,
              save_checkpoint) -> dict:
    """Write a RunResult's artifacts into ``out``, then commit and return its manifest."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / MANIFEST).unlink(missing_ok=True)
    write_metrics(result.records, out / METRICS)
    save_checkpoint(result.params, out / CHECKPOINT)
    artifacts = [METRICS, CHECKPOINT]
    for epoch, ids in sorted(result.exclusions.items()):
        name = f"pruned_epoch{epoch:04d}.txt"
        write_ids(out / name, f"epoch={epoch} rho_cur={result.records[epoch].rho_cur:.6g}", ids.tolist())
        artifacts.append(name)
    if result.candidate_history:
        final = result.candidate_history[-1]
        ids, scores = final.ids.tolist(), final.scores.tolist()
        tags = [(Tag.REDUNDANT if r else Tag.ILL_MATCHED).value for r in final.redundant.tolist()]
        # The bytes of one json.dump of the whole object, but from json.dumps,
        # whose C encoder is twice as fast as json.dump's Python one; encoding
        # the entries a slice at a time keeps the document out of memory.
        head, tail = json.dumps({"n": n, "built_at_epoch": final.built_at_epoch, "entries": [None]}).split("null")
        with open(out / CANDIDATES, "w") as fh:
            fh.write(head)
            for k in range(0, len(ids), _ENTRY_SLICE):
                part = slice(k, k + _ENTRY_SLICE)
                entries = [{"sample_id": sid, "tag": tag, "rank_score": score}
                           for sid, tag, score in zip(ids[part], tags[part], scores[part])]
                fh.write((", " if k else "") + json.dumps(entries)[1:-1])
            fh.write(tail)
        artifacts.append(CANDIDATES)

    snapshot = asdict(cfg)
    snapshot["mode"] = cfg.mode.value
    run_key = json.dumps([snapshot, method, data_sha], sort_keys=True).encode()
    manifest = {
        "run_id": hashlib.sha256(run_key).hexdigest()[:16],
        "method": method,
        "config": snapshot,
        "dataset": {"path": str(Path(data_path)), "sha256": data_sha},
        "out_dir": str(out),
        "artifacts": sorted(artifacts),
    }
    write_then_replace(out / MANIFEST, lambda tmp: tmp.write_text(json.dumps(manifest, indent=2)))
    return manifest


def listed(path, manifest: dict, name: str) -> Path:
    """``path / name`` if the run's manifest lists ``name``."""
    if name not in manifest["artifacts"]:
        raise RunDirError(f"bad run directory {path}: its manifest does not list {name}")
    return Path(path) / name


def read_run(path) -> tuple[dict, list[EpochRecord]]:
    """A committed run's manifest and its epoch records; RunDirError unless the
    manifest has a ``method`` and an ``artifacts`` list naming non-empty metrics."""
    path = Path(path)
    with open(path / MANIFEST, "rb") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise RunDirError(f"bad run directory {path}: {exc}") from exc
    if not (isinstance(manifest, dict) and isinstance(manifest.get("method"), str)
            and isinstance(manifest.get("artifacts"), list)):
        raise RunDirError(f"bad run directory {path}: {MANIFEST} has no method or artifacts list")
    records = read_metrics(listed(path, manifest, METRICS))
    if not records:
        raise RunDirError(f"bad run directory {path}: no epoch records in {METRICS}")
    return manifest, records


def check_dataset(path, manifest: dict, data_sha: str) -> None:
    """Raise unless the manifest records ``data_sha`` as the run's dataset SHA-256."""
    dataset = manifest.get("dataset")
    if not isinstance(dataset, dict) or dataset.get("sha256") != data_sha:
        raise RunDirError(f"{path}: was not trained on the dataset with SHA-256 {data_sha} "
                          f"(its manifest records another or none)")


def read_candidates(path) -> tuple[CandidateSet, int]:
    """A scan run's final candidate set and dataset size n; RunDirError on malformed
    content or an ``n`` other than the first epoch's ``active_size``."""
    path = Path(path)
    manifest, records = read_run(path)
    if manifest["method"] != "scan" or CANDIDATES not in manifest["artifacts"]:
        raise RunDirError(f"bad run directory {path}: its manifest does not list "
                          f"{CANDIDATES} from a scan run")
    cand_path = path / CANDIDATES
    try:
        with open(cand_path, "rb") as fh:
            data = json.load(fh)
        n, built_at_epoch, entries = data["n"], data["built_at_epoch"], data["entries"]
        ids = [e["sample_id"] for e in entries]
        if not all(type(v) is int for v in (n, built_at_epoch, *ids)) or n < 0:
            raise ValueError("n, built_at_epoch and every sample_id must be integers, n non-negative")
        if n != records[0].active_size:
            raise ValueError(f"n={n}, but the run's first epoch in {METRICS} trained on "
                             f"{records[0].active_size} samples")
        cands = CandidateSet(
            ids=ids,
            redundant=[Tag(e["tag"]) is Tag.REDUNDANT for e in entries],
            scores=[e["rank_score"] for e in entries],
            built_at_epoch=built_at_epoch,
        )
        cands.validate(n)
    except (ValueError, KeyError, TypeError, PrunerError) as exc:
        raise RunDirError(f"bad candidates file {cand_path}: {exc}") from exc
    return cands, n
