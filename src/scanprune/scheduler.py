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
short runs always reach the pruning phases.
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


def should_start_pruning(l_prev: float, l_cur: float, t_td: float, epsilon: float) -> bool:
    """True once the relative loss drop has fallen below ``t_td``."""
    if epsilon <= 0.0:
        raise SchedulerError("epsilon must be positive")
    return (l_prev - l_cur) / (l_prev + epsilon) < t_td


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


@dataclass
class ScheduleState:
    """Epoch-level state machine; advance once per completed epoch."""

    tau_cos: int
    tau_stop: int
    t_td: float
    epsilon: float = 1e-12
    tau_cur: int = 0
    warmup_end: int | None = None  # first post-warm-up epoch index
    l_cur: float = 0.0

    def __post_init__(self) -> None:
        if self.tau_cos < 1:
            raise SchedulerError("tau_cos must be >= 1")
        if self.tau_stop <= self.tau_cos:
            raise SchedulerError("tau_stop must exceed tau_cos")

    @property
    def warmup_done(self) -> bool:
        return self.warmup_end is not None

    def record_epoch_loss(self, mean_loss: float) -> None:
        """Fold in a completed epoch's mean loss and update warm-up status."""
        l_prev, self.l_cur = self.l_cur, mean_loss
        self.tau_cur += 1
        if self.warmup_done:
            return
        fired = self.tau_cur >= 2 and should_start_pruning(l_prev, self.l_cur, self.t_td, self.epsilon)
        if fired or self.tau_cur >= warmup_cap(self.tau_stop):
            self.warmup_end = self.tau_cur


def _post_warmup_phase(offset: int, tau_cos: int) -> Phase:
    """Phase of the epoch ``offset`` epochs after warm-up ended."""
    if offset % (tau_cos + 1) == 0:
        return Phase(PhaseKind.PREPARE)
    return Phase(PhaseKind.MUTATE, mutation_ratio(offset, tau_cos))


def round_phase(state: ScheduleState) -> Phase:
    """Phase of the current epoch (``state.tau_cur``)."""
    if not state.warmup_done:
        return Phase(PhaseKind.WARMUP)
    if state.tau_cur < state.warmup_end:
        raise SchedulerError("warmup_end lies after tau_cur")
    return _post_warmup_phase(state.tau_cur - state.warmup_end, state.tau_cos)


def phase_table(tau_cos: int, epochs: int):
    """Post-warm-up phase sequence for ``epochs`` epochs starting at a Prepare."""
    if epochs < 0:
        raise SchedulerError("epochs must be >= 0")
    if tau_cos < 1:
        raise SchedulerError("tau_cos must be >= 1")
    return [(e, _post_warmup_phase(e, tau_cos)) for e in range(epochs)]
