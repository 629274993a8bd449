"""Static coreset export from two pruning runs, plus overlap diagnostics.

Exactly floor(rho * n) ids are removed, ordered by votes (how many of the two
runs' final candidate sets list the id: the intersection, then the rest of
the union, then untouched ids), then by summed confidence score (0 where
unlisted), both highest first, then by id ascending.  The sorted complement
is the coreset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scanprune.pruner import CandidateSet, PrunerError


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
    """Sorted ids kept after removing the first floor(rho * n) ids in removal order."""
    if a.n != b.n:
        raise CoresetError(f"dataset sizes differ: {a.n} vs {b.n}")
    if not (0.0 < rho < 1.0):
        raise CoresetError("rho must lie in (0, 1)")
    n = a.n
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
    keep[order[:int(rho * n + 1e-9)]] = False
    return np.flatnonzero(keep).tolist()


def overlap_ratio(sets) -> float:
    """Intersection over union of two or more id sets."""
    sets = [set(s) for s in sets]
    if len(sets) < 2:
        raise CoresetError("overlap_ratio needs at least two sets")
    union = set().union(*sets)
    if not union:
        raise CoresetError("empty union")
    inter = set(sets[0])
    for s in sets[1:]:
        inter &= s
    return len(inter) / len(union)


def write_ids(path, header: str, ids) -> None:
    """One-id-per-line text file: a ``# header`` line, then one id per line."""
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        fh.writelines(f"{sid}\n" for sid in ids)


def save_coreset(ids, n: int, rho: float, runs: tuple[str, str], path) -> None:
    write_ids(path, f"n={n} rho={rho} runs={runs[0]},{runs[1]}", ids)


def load_coreset(path) -> list[int]:
    ids = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                ids.append(int(line))
            except ValueError as exc:
                raise CoresetError(f"{path}:{lineno}: not an integer id: {line!r}") from exc
    return ids
