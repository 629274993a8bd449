"""Pruning control law: warm-up termination, round phases, cosine mutation ratio.

Training proceeds as warm-up epochs on the full dataset, then repeating rounds
of one preparation epoch (full data, candidates collected) followed by
``tau_cos`` mutation epochs whose pruned fraction follows a cosine ramp from
near zero up to the whole candidate set.  The ramp averages exactly one half
over a round, which is what pins the realized mean pruning ratio.

Warm-up ends once the relative epoch-over-epoch loss drop falls below the
threshold ``t_td`` (a large drop means the model is still moving, so pruning
would be premature).  Two measured epoch losses are required before the
criterion can fire, and warm-up is force-ended at epoch ceil(tau_stop / 4) so
short runs always reach the pruning phases.  The law keeps no state: an
epoch's phase is a function of its index and the epoch losses before it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class SchedulerError(Exception):
    pass


class PhaseKind(enum.Enum):
    WARMUP = "WarmUp"
    PREPARE = "Prepare"
    MUTATE = "Mutate"


@dataclass(frozen=True)
class Phase:
    kind: PhaseKind
    rho_cur: float = 0.0

    @property
    def name(self) -> str:
        return self.kind.value


def should_start_pruning(l_prev: float, l_cur: float, t_td: float) -> bool:
    """True once the loss drop relative to ``l_prev + 1e-12`` (a constant guard) falls below ``t_td``."""
    return (l_prev - l_cur) / (l_prev + 1e-12) < t_td


def mutation_ratio(tau_cur: int, tau_cos: int) -> float:
    """Cosine-annealed fraction of the candidate set pruned at this offset.

    Zero at each round's preparation epoch (offset 0), one at the round's last
    mutation epoch; the mean over a full round is exactly one half.
    """
    if tau_cos < 1:
        raise SchedulerError("tau_cos must be >= 1")
    m = tau_cur % (tau_cos + 1)
    return 0.5 * (1.0 + math.cos((tau_cos - m) * math.pi / tau_cos))


def warmup_cap(tau_stop: int) -> int:
    return math.ceil(tau_stop / 4)


def warmup_end(losses, t_td: float, tau_stop: int) -> int | None:
    """First post-warm-up epoch given the epoch mean ``losses`` so far; None while warming up.

    That is the first ``k >= 2`` whose drop ``losses[k-2] -> losses[k-1]``
    satisfies :func:`should_start_pruning`, and never later than
    ``warmup_cap(tau_stop)``.  More losses never move an answer once given.
    """
    cap = warmup_cap(tau_stop)
    for k in range(2, min(len(losses), cap) + 1):
        if should_start_pruning(losses[k - 2], losses[k - 1], t_td):
            return k
    return cap if len(losses) >= cap else None


def round_phase(epoch: int, warmup_end: int | None, tau_cos: int) -> Phase:
    """Phase of ``epoch``, given the first post-warm-up epoch (None while warming up)."""
    if tau_cos < 1:
        raise SchedulerError("tau_cos must be >= 1")
    if warmup_end is None or epoch < warmup_end:
        return Phase(PhaseKind.WARMUP)
    offset = epoch - warmup_end
    if offset % (tau_cos + 1) == 0:
        return Phase(PhaseKind.PREPARE)
    return Phase(PhaseKind.MUTATE, mutation_ratio(offset, tau_cos))

