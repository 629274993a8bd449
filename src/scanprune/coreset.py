"""Static coreset export from two pruning runs, plus overlap diagnostics.

The removal set starts as the intersection of the two runs' final candidate
ids and is trimmed or extended to exactly floor(rho * n) using the summed
confidence scores (most confidently pruned first, ties by id).  The coreset is
the complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from scanprune.pruner import CandidateSet


class CoresetError(Exception):
    pass


@dataclass(frozen=True)
class PrunedSummary:
    """One run's final-round pruning candidates with confidence scores."""

    run_id: str
    pruned_ids: frozenset
    n: int
    scores: Mapping[int, float] = field(default_factory=dict)

    @staticmethod
    def from_candidates(run_id: str, candidates: CandidateSet, n: int) -> "PrunedSummary":
        scores = dict(zip(candidates.ids.tolist(), candidates.scores.tolist()))
        return PrunedSummary(run_id=run_id, pruned_ids=frozenset(scores), n=n, scores=scores)


def export_coreset(a: PrunedSummary, b: PrunedSummary, rho: float) -> list[int]:
    """Ids kept after removing exactly floor(rho * n) most-agreed-upon samples."""
    if a.n != b.n:
        raise CoresetError(f"dataset sizes differ: {a.n} vs {b.n}")
    if not (0.0 < rho < 1.0):
        raise CoresetError("rho must lie in (0, 1)")
    n = a.n
    budget = int(rho * n + 1e-9)

    def score(sid: int) -> float:
        return a.scores.get(sid, 0.0) + b.scores.get(sid, 0.0)

    removal = sorted(a.pruned_ids & b.pruned_ids, key=lambda s: (-score(s), s))
    if len(removal) > budget:
        removal = removal[:budget]
    elif len(removal) < budget:
        chosen = set(removal)
        extras = sorted((a.pruned_ids | b.pruned_ids) - chosen, key=lambda s: (-score(s), s))
        removal.extend(extras[: budget - len(removal)])
        if len(removal) < budget:
            # Both runs together pruned fewer than the budget; fall back to
            # untouched ids in ascending order so the size contract holds.
            rest = sorted(set(range(n)) - set(removal))
            removal.extend(rest[: budget - len(removal)])
    removed = set(removal)
    return [i for i in range(n) if i not in removed]


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


def save_coreset(ids, n: int, rho: float, runs: tuple[str, str], path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# n={n} rho={rho} runs={runs[0]},{runs[1]}\n")
        for sid in ids:
            fh.write(f"{sid}\n")


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
