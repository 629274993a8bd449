"""Candidate extraction from per-sample losses, accumulation, and pruning draws.

Per batch and per loss direction, the k lowest-loss samples are tagged
redundant and the k highest ill-matched (k = floor(rho * batch)).  The two
directions are merged by intersection first, then topped up in combined-rank
order so each category always contributes exactly k ids.  Candidate
sets accumulate over one preparation epoch and are redrawn from scratch each
round; mutation epochs exclude a seeded uniform draw from the candidates.

A ``CandidateSet`` is three parallel NumPy arrays with one slot per
candidate: ``ids`` (int64 sample ids), ``redundant`` (bool; False means
ill-matched) and ``scores`` (float64 confidence in [0, 1]).  A batch's set
holds its k redundant ids in ascending id order, then its k ill-matched ids
in ascending id order; ``accumulate`` concatenates the batches in training
order.  Exclusions and active sets are sorted int64 id arrays.

``select_batch_candidates``, ``rank_orders`` and ``merge_directions`` compose
the same selection step by step on Python sets.  ``batch_candidates``, the path
the trainer runs, states the merge as one sort key per category, and the tests
check it against the composition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class PrunerError(Exception):
    pass


class Tag(enum.Enum):
    REDUNDANT = "redundant"
    ILL_MATCHED = "ill_matched"


@dataclass(eq=False)
class CandidateSet:
    """One round's candidates as parallel arrays, one slot per candidate."""

    ids: np.ndarray  # int64 sample ids
    redundant: np.ndarray  # bool tag: True redundant, False ill-matched
    scores: np.ndarray  # float64 in [0, 1]; higher = more confidently prunable
    built_at_epoch: int = 0

    def __post_init__(self) -> None:
        try:
            self.ids = np.asarray(self.ids, dtype=np.int64)
            self.scores = np.asarray(self.scores, dtype=np.float64)
        except OverflowError as exc:  # an id past int64 is past any n, a score past float64 not finite
            raise PrunerError(f"candidate ids must fit in int64 and scores in float64: {exc}") from exc
        self.redundant = np.asarray(self.redundant, dtype=bool)
        if not (self.ids.ndim == 1 and self.ids.shape == self.redundant.shape == self.scores.shape):
            raise PrunerError("ids, redundant and scores must be 1-D arrays of one length")

    def ids_by_tag(self, tag: Tag) -> np.ndarray:
        return self.ids[self.redundant == (tag is Tag.REDUNDANT)]

    def validate(self, n: int) -> None:
        """Raise unless the ids are distinct and in [0, n) and the scores finite."""
        if self.ids.size and (self.ids.min() < 0 or self.ids.max() >= n):
            raise PrunerError(f"candidate ids must lie in [0, {n})")
        _check_distinct(self.ids)
        if not np.isfinite(self.scores).all():
            raise PrunerError("candidate scores must be finite")

    def __len__(self) -> int:
        return self.ids.size


def prune_count(rho: float, n: int) -> int:
    """floor(rho * n); the 1e-9 keeps 0.29 * 100 (28.999999999999996) from flooring to 28."""
    return int(rho * n + 1e-9)


def _check_distinct(ids: np.ndarray) -> None:
    uniq, counts = np.unique(ids, return_counts=True)
    if uniq.size != ids.size:
        raise PrunerError(f"sample {int(uniq[counts > 1][0])} appears more than once")


@dataclass(frozen=True)
class RankedFallback:
    """Batch ids ordered by combined two-direction extremity, ties by id."""

    red_order: list  # most redundant (lowest combined loss rank) first
    ill_order: list  # most ill-matched (highest combined loss rank) first


def _ascending_order(losses: np.ndarray, ids: np.ndarray) -> np.ndarray:
    # lexsort: last key is primary, so sort by loss then id.
    return np.lexsort((ids, losses))


def select_batch_candidates(losses, ids, rho: float):
    """Ids of the k smallest (redundant) and k largest (ill-matched) losses.

    Ties break toward ascending id on the small end and descending id on the
    large end, so the two selections are exact mirrors and never overlap.
    """
    if not (0.0 < rho < 0.5):
        raise PrunerError("rho must lie in (0, 0.5)")
    losses = np.asarray(losses, dtype=np.float64)
    ids = np.asarray(ids)
    if not np.isfinite(losses).all():
        raise PrunerError("losses must be finite")
    k = int(rho * losses.shape[0] + 1e-9)  # prune_count, spelled out: batch_candidates is checked against it
    order = _ascending_order(losses, ids)
    red = set(ids[order[:k]].tolist())
    ill = set(ids[order[losses.shape[0] - k:]].tolist())
    return red, ill


def rank_orders(fg_losses, gf_losses, ids) -> RankedFallback:
    """Combined-rank orderings used for merge top-up and confidence scores."""
    fg_losses = np.asarray(fg_losses, dtype=np.float64)
    gf_losses = np.asarray(gf_losses, dtype=np.float64)
    ids = np.asarray(ids)
    b = ids.shape[0]
    rank_fg = np.empty(b, dtype=np.int64)
    rank_fg[_ascending_order(fg_losses, ids)] = np.arange(b)
    rank_gf = np.empty(b, dtype=np.int64)
    rank_gf[_ascending_order(gf_losses, ids)] = np.arange(b)
    red_rank = rank_fg + rank_gf
    ill_rank = (b - 1 - rank_fg) + (b - 1 - rank_gf)
    red_order = [int(ids[i]) for i in np.lexsort((ids, red_rank))]
    ill_order = [int(ids[i]) for i in np.lexsort((ids, ill_rank))]
    return RankedFallback(red_order=red_order, ill_order=ill_order)


def merge_directions(fg_red, fg_ill, gf_red, gf_ill, target: int, ranked_fallback: RankedFallback):
    """Merge per-direction selections into k redundant + k ill-matched ids.

    The cross-direction intersections form the core; each category is then
    topped up to target/2 from the combined rank ordering.  The redundant
    category claims contested ids first, so no id carries both tags.
    """
    if target % 2 != 0:
        raise PrunerError("target must be even (equal category split)")
    k = target // 2
    red = sorted(set(fg_red) & set(gf_red))[:k]
    chosen = set(red)
    for sid in ranked_fallback.red_order:
        if len(red) >= k:
            break
        if sid not in chosen:
            red.append(sid)
            chosen.add(sid)
    ill = sorted(sid for sid in (set(fg_ill) & set(gf_ill)) if sid not in chosen)[:k]
    chosen.update(ill)
    for sid in ranked_fallback.ill_order:
        if len(ill) >= k:
            break
        if sid not in chosen:
            ill.append(sid)
            chosen.add(sid)
    return set(red), set(ill)


def batch_candidates(fg_losses, gf_losses, ids, rho: float) -> CandidateSet:
    """Full per-batch pipeline: per-direction selection, merge, scoring.

    Equivalent to composing select_batch_candidates / rank_orders /
    merge_directions.  Each category takes the k batch slots with the smallest
    key.  Redundant keys a slot by its combined-rank position, plus b unless
    both directions rank it among their k lowest; ill-matched does the same
    with the k highest and keys the redundant slots 2b.
    """
    if not (0.0 < rho < 0.5):
        raise PrunerError("rho must lie in (0, 0.5)")
    ids = np.asarray(ids)
    b = ids.shape[0]
    k = prune_count(rho, b)
    if k == 0:
        return CandidateSet(ids[:0], [], [])
    fg = np.asarray(fg_losses, dtype=np.float64)
    gf = np.asarray(gf_losses, dtype=np.float64)
    if not (np.isfinite(fg).all() and np.isfinite(gf).all()):
        raise PrunerError("losses must be finite")

    # Put the slots in id order, so a category's slots, once sorted, are its id-ordered layout.
    by_id = np.argsort(ids, kind="stable")
    ids, fg, gf = ids[by_id], fg[by_id], gf[by_id]
    arange = np.arange(b)

    def positions(order: np.ndarray) -> np.ndarray:
        """Inverse permutation: the position of each slot in ``order``."""
        pos = np.empty_like(order)
        pos[order] = arange
        return pos

    rank_fg = positions(np.lexsort((ids, fg)))
    rank_gf = positions(np.lexsort((ids, gf)))
    red_rank = rank_fg + rank_gf
    red_pos = positions(np.lexsort((ids, red_rank)))
    ill_pos = positions(np.lexsort((ids, -red_rank)))

    def k_smallest(key: np.ndarray) -> np.ndarray:
        return np.sort(np.argsort(key)[:k])

    # Each direction's ranks are a permutation, so each core (both directions
    # agree) holds at most k slots and sorts ahead of every top-up slot.
    # rho < 0.5 gives k <= b - k, so ill-matched never runs out of slots.
    red = k_smallest(np.where((rank_fg < k) & (rank_gf < k), red_pos, red_pos + b))
    ill_key = np.where((rank_fg >= b - k) & (rank_gf >= b - k), ill_pos, ill_pos + b)
    ill_key[red] = 2 * b
    ill = k_smallest(ill_key)

    # Confidence: distance of the combined rank from the category's far end,
    # normalized to [0, 1] so scores are comparable across batch sizes.
    return CandidateSet(
        ids=np.concatenate((ids[red], ids[ill])),
        redundant=np.repeat([True, False], k),
        scores=1.0 - np.concatenate((red_pos[red], ill_pos[ill])) / max(b - 1, 1),
    )


def accumulate(epoch_candidates, built_at_epoch: int = 0) -> CandidateSet:
    """Concatenation of per-batch candidate sets; duplicate ids are a sampler bug."""
    sets = list(epoch_candidates) or [CandidateSet([], [], [])]
    merged = CandidateSet(
        ids=np.concatenate([c.ids for c in sets]),
        redundant=np.concatenate([c.redundant for c in sets]),
        scores=np.concatenate([c.scores for c in sets]),
        built_at_epoch=built_at_epoch,
    )
    _check_distinct(merged.ids)
    return merged


def sample_pruned(candidates: CandidateSet, rho_cur: float, seed: int) -> np.ndarray:
    """Sorted ids of a uniform draw of round(rho_cur * |candidates|) candidates to exclude."""
    if not (0.0 <= rho_cur <= 1.0):
        raise PrunerError("rho_cur must lie in [0, 1]")
    ids = np.sort(candidates.ids)
    size = round(rho_cur * ids.size)
    if size == 0:
        return ids[:0]
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.sort(rng.choice(ids, size=size, replace=False))


def active_indices(n: int, excluded) -> np.ndarray:
    """Sorted ids in [0, n) that are not in ``excluded``."""
    try:
        excluded = np.asarray(excluded, dtype=np.int64)
    except OverflowError as exc:  # an id past int64 is past n
        raise PrunerError(f"excluded id out of range for n={n}: {exc}") from exc
    if excluded.size and (excluded.min() < 0 or excluded.max() >= n):
        bad = excluded[(excluded < 0) | (excluded >= n)][0]
        raise PrunerError(f"excluded id {int(bad)} out of range for n={n}")
    keep = np.ones(n, dtype=bool)
    keep[excluded] = False
    return np.flatnonzero(keep)
