"""Static coreset export from two pruning runs.

Exactly ``prune_count(rho, n)`` ids are removed, ordered by votes (how many
of the two runs' final candidate sets list the id: the intersection, then the
rest of the union, then untouched ids), then by summed confidence score (0
where unlisted), both highest first, then by id ascending.  The sorted
complement is the coreset.
"""

from __future__ import annotations

import errno
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scanprune.pruner import CandidateSet, PrunerError, prune_count


class CoresetError(Exception):
    pass


@dataclass(frozen=True)
class PrunedSummary:
    """One run's final-round candidate set over a dataset of n samples."""

    run_id: str
    candidates: CandidateSet
    n: int

    @staticmethod
    def from_candidates(run_id: str, candidates: CandidateSet, n: int) -> "PrunedSummary":
        return PrunedSummary(run_id=run_id, candidates=candidates, n=n)


def export_coreset(a: PrunedSummary, b: PrunedSummary, rho: float) -> list[int]:
    """Sorted ids kept after removing the first floor(rho * n) ids in removal order; none kept raises."""
    if a.n != b.n:
        raise CoresetError(f"dataset sizes differ: {a.n} vs {b.n}")
    if not (0.0 < rho < 1.0):
        raise CoresetError("rho must lie in (0, 1)")
    n = a.n
    drop = prune_count(rho, n)
    if drop == n:
        raise CoresetError(f"rho={rho} removes all {n} samples: the coreset would be empty")
    votes = np.zeros(n, dtype=np.int8)
    score = np.zeros(n)
    for run in (a, b):
        try:
            run.candidates.validate(n)
        except PrunerError as exc:
            raise CoresetError(f"run {run.run_id}: {exc}") from exc
        votes[run.candidates.ids] += 1
        score[run.candidates.ids] += run.candidates.scores
    order = np.lexsort((np.arange(n), -score, -votes))
    keep = np.ones(n, dtype=bool)
    keep[order[:drop]] = False
    return np.flatnonzero(keep).tolist()


def write_ids(path, header: str, ids) -> None:
    """One-id-per-line text file: a ``# header`` line, then one id per line.  A lone
    surrogate in the header (an undecodable run path) is written backslash-escaped."""
    with open(path, "w", errors="backslashreplace") as fh:
        fh.write(f"# {header}\n")
        fh.writelines(f"{sid}\n" for sid in ids)


def write_then_replace(path, write) -> None:
    """``write(tmp)`` to a temporary file beside ``path``, then ``os.replace`` it onto
    ``path``: a write that fails partway leaves ``path`` as it was, and no temporary file."""
    if Path(path).is_dir():  # the error open(path) gives; "." has no name to put ".tmp" after
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = Path(f"{path}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_coreset(ids, n: int, rho: float, runs: tuple[str, str], path) -> None:
    """Write the coreset file by :func:`write_then_replace`, never a short id list."""
    write_then_replace(path, lambda tmp: write_ids(tmp, f"n={n} rho={rho} runs={runs[0]},{runs[1]}", ids))


_HEADER = re.compile(r"# n=(\d+) rho=(\S+) runs=")


def load_coreset(path, n: int | None = None) -> list[int]:
    """The ids of a coreset file.

    A file that starts with ``save_coreset``'s header must hold exactly
    n - floor(rho * n) ids, and, when ``n`` is given, declare that ``n``.  A
    file without that header is read as a plain id list.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CoresetError(f"{path}: {exc}") from exc
    ids = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ids.append(int(line))
        except ValueError as exc:
            raise CoresetError(f"{path}:{lineno}: not an integer id: {line!r}") from exc
    header = _HEADER.match(lines[0]) if lines else None
    if header:
        declared = int(header[1])
        try:
            rho = float(header[2])
        except ValueError:
            rho = math.nan
        if not 0.0 < rho < 1.0:
            raise CoresetError(f"{path}: bad rho in header: {header[2]!r}")
        if n is not None and declared != n:
            raise CoresetError(f"{path}: header declares n={declared}, the dataset has n={n}")
        expected = declared - prune_count(rho, declared)
        if len(ids) != expected:
            raise CoresetError(f"{path}: header n={declared} rho={rho} means {expected} ids, "
                               f"the file holds {len(ids)}")
    return ids
