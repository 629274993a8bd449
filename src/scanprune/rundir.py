"""The run directory, the one module that knows its layout.

A run writes ``metrics.jsonl``, ``checkpoint.bin``, for scan ``rounds.bin``
(each round's candidates and excluded ids), and a ``manifest.json`` listing
every artifact plus the config snapshot and the path and hash of the dataset
and of a static run's coreset, so any run is reproducible from its manifest
alone.  The manifest is the commit marker: ``write_run`` removes the old one
first and moves the new one in last with ``os.replace``, and readers open
only the files it lists, so a failing or killed write leaves no run.  There
is no fsync: a power loss is not covered.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from scanprune.coreset import write_then_replace
from scanprune.dataset import DatasetError, read_frame, write_frame
from scanprune.pruner import CandidateSet, PrunerError
from scanprune.trainer import EpochRecord, RunResult, TrainConfig

MANIFEST = "manifest.json"
METRICS = "metrics.jsonl"
CHECKPOINT = "checkpoint.bin"
ROUNDS = "rounds.bin"
_ROUNDS_MAGIC = b"SCNR"
_ROUNDS_VERSION = 1


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


_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}  # matched by exact type: a JSON boolean is no int


def read_metrics(path) -> list[EpochRecord]:
    """Parse a metrics file; a malformed, wrongly typed or non-finite record raises RunDirError."""
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
            # a number must fit a finite float: NaN, an infinity or an int past 1.8e308 does not
            values = [(getattr(rec, f.name), _JSON_TYPES[f.type]) for f in fields(rec)]
            if not all(type(v) in types and (type(v) is str or abs(v) <= sys.float_info.max) for v, types in values):
                raise RunDirError(f"bad run directory {Path(path).parent}: {path}:{lineno}: "
                                  f"epoch record has a wrongly typed field or a non-finite number")
            records.append(rec)
    return records


def write_run(out, method: str, cfg: TrainConfig, data_path, data_sha: str, result: RunResult, save_checkpoint,
              coreset: tuple[str, str] | None = None) -> dict:
    """Write a RunResult's artifacts into ``out``, then commit and return its manifest.  A scan
    run's n is its first epoch's ``active_size``: warm-up trains on all n samples.  A static
    run gives its ``coreset`` file's path and SHA-256, which the manifest and ``run_id`` record."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / MANIFEST).unlink(missing_ok=True)
    write_metrics(result.records, out / METRICS)
    save_checkpoint(result.params, out / CHECKPOINT)
    artifacts = [METRICS, CHECKPOINT]
    if result.candidate_history:
        history, exclusions = result.candidate_history, sorted(result.exclusions.items())
        excluded = np.concatenate([np.empty(0, np.int64), *(ids for _, ids in exclusions)])
        header = (result.records[0].active_size, len(history), len(history[0]), len(exclusions), excluded.size)
        columns = [[c.built_at_epoch for c in history], [c.ids for c in history],  # _rounds_layout's order
                   [c.redundant for c in history], [c.scores for c in history],
                   [epoch for epoch, _ in exclusions], [ids.size for _, ids in exclusions], excluded]
        dtypes = [dtype for _, dtype in _rounds_layout(*header).values()]
        write_frame(out / ROUNDS, _ROUNDS_MAGIC, (_ROUNDS_VERSION, *header),
                    [np.ascontiguousarray(column, dtype) for column, dtype in zip(columns, dtypes)])
        artifacts.append(ROUNDS)

    snapshot = asdict(cfg)
    snapshot["mode"] = cfg.mode.value
    run_key = [snapshot, method, data_sha]
    inputs = {"dataset": {"path": str(Path(data_path)), "sha256": data_sha}}
    if coreset is not None:
        inputs["coreset"] = {"path": str(Path(coreset[0])), "sha256": coreset[1]}
        run_key.append(coreset[1])
    manifest = {
        "run_id": hashlib.sha256(json.dumps(run_key, sort_keys=True).encode()).hexdigest()[:16],
        "method": method,
        "config": snapshot,
        **inputs,
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


def dataset_sha(path, manifest: dict) -> str:
    """The dataset SHA-256 the run's manifest records; RunDirError naming the run if it records none."""
    dataset = manifest.get("dataset")
    if not (isinstance(dataset, dict) and isinstance(dataset.get("sha256"), str)):
        raise RunDirError(f"bad run directory {path}: its manifest records no dataset SHA-256")
    return dataset["sha256"]


def check_dataset(path, manifest: dict, data_sha: str) -> None:
    """Raise unless the manifest records ``data_sha`` as the run's dataset SHA-256."""
    if dataset_sha(path, manifest) != data_sha:
        raise RunDirError(f"{path}: was not trained on the dataset with SHA-256 {data_sha} "
                          "(its manifest records another)")


def _rounds_layout(n: int, rounds: int, size: int, mutates: int, excluded: int) -> dict:
    """The ``SCNR`` v1 frame's arrays in file order; a tag is 1 redundant, 0 ill-matched.  Every
    Prepare trains on all n samples in the same batches, so every round has ``size`` candidates."""
    if not rounds:
        raise ValueError("header declares no round")
    return {"built_at_epoch": ((rounds,), "<u4"), "ids": ((rounds, size), "<i8"),
            "redundant": ((rounds, size), "u1"), "scores": ((rounds, size), "<f8"),
            "mutate_epoch": ((mutates,), "<u4"), "excluded_count": ((mutates,), "<u4"),
            "excluded": ((excluded,), "<i8")}


def read_rounds(path) -> tuple[dict, list[CandidateSet], dict[int, np.ndarray], int]:
    """A scan run's manifest, its candidate set per round, its excluded ids per Mutate
    epoch and its dataset size n; RunDirError on a malformed file, an excluded id outside [0, n),
    Mutate epochs out of order or an ``n`` other than the first epoch's ``active_size``."""
    path = Path(path)
    manifest, records = read_run(path)
    if manifest["method"] != "scan" or ROUNDS not in manifest["artifacts"]:
        raise RunDirError(f"bad run directory {path}: its manifest does not list {ROUNDS} from a scan run")
    try:
        (n, *_), arrays = read_frame(path / ROUNDS, _ROUNDS_MAGIC, _ROUNDS_VERSION, 5, _rounds_layout)
        if n != records[0].active_size:
            raise ValueError(f"n={n}, but the first epoch in {METRICS} trained on {records[0].active_size} samples")
        if (arrays["redundant"] > 1).any():
            raise ValueError("a tag is neither 0 (ill-matched) nor 1 (redundant)")
        counts, excluded = arrays["excluded_count"], arrays["excluded"]
        if counts.sum() != excluded.size:
            raise ValueError(f"excluded_count sums to {counts.sum()}, not to the {excluded.size} excluded ids")
        if excluded.size and (excluded.min() < 0 or excluded.max() >= n):
            raise ValueError(f"excluded ids must lie in [0, {n})")
        epochs = arrays["mutate_epoch"]
        if (epochs[1:] <= epochs[:-1]).any():
            raise ValueError("mutate_epoch must be strictly increasing")
        history = [CandidateSet(*cols) for cols in zip(arrays["ids"], arrays["redundant"], arrays["scores"],
                                                       arrays["built_at_epoch"].tolist())]
        for cands in history:
            cands.validate(n)
    except (DatasetError, ValueError, PrunerError) as exc:
        raise RunDirError(f"bad rounds file {path / ROUNDS}: {exc}") from exc
    return manifest, history, dict(zip(epochs.tolist(), np.split(excluded, np.cumsum(counts)[:-1]))), n
