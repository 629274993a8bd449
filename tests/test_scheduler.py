import math

import pytest
from hypothesis import given, settings, strategies as st

from scanprune import mutation_ratio
from scanprune.scheduler import (
    Phase,
    PhaseKind,
    SchedulerError,
    round_phase,
    should_start_pruning,
    warmup_cap,
    warmup_end,
)


def test_should_start_pruning_examples():
    # large relative drop: model still moving, keep warming up
    assert should_start_pruning(10.0, 6.0, 0.3) is False
    # drop below threshold: stable enough, start pruning
    assert should_start_pruning(6.0, 4.5, 0.3) is True
    # flat zero losses: the fixed 1e-12 guards the division
    assert should_start_pruning(0.0, 0.0, 0.3) is True


def test_mutation_ratio_tau_cos_3_sequence():
    got = [mutation_ratio(off, 3) for off in range(4)]
    for g, want in zip(got, (0.0, 0.25, 0.75, 1.0)):
        assert abs(g - want) < 1e-12


def test_mutation_ratio_periodic():
    for off in range(40):
        assert mutation_ratio(off, 3) == mutation_ratio(off % 4, 3)


@pytest.mark.parametrize("tau_cos", [1, 2, 3, 4, 5, 6])
def test_round_mean_exactly_half(tau_cos):
    vals = [mutation_ratio(off, tau_cos) for off in range(tau_cos + 1)]
    assert math.fsum(vals) / (tau_cos + 1) == 0.5
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))  # nondecreasing ramp


def test_mutation_ratio_rejects_bad_tau_cos():
    with pytest.raises(SchedulerError):
        mutation_ratio(0, 0)


def test_warmup_cap():
    assert warmup_cap(32) == 8
    assert warmup_cap(9) == 3
    assert warmup_cap(4) == 1


def _end(losses, t_td=0.3, tau_stop=32):
    return warmup_end(losses, t_td, tau_stop)


def test_phase_machine_example_round():
    # losses drop 10 -> 6 (keep warming), 6 -> 4.5 (start pruning after epoch 2)
    losses = [10.0, 6.0, 4.5]
    assert _end(losses[:1]) is None
    assert _end(losses[:2]) is None
    assert _end(losses) == 3

    assert round_phase(2, None, 3).kind is PhaseKind.WARMUP
    assert round_phase(3, 3, 3).kind is PhaseKind.PREPARE  # offset 0
    for epoch, rho in zip((4, 5, 6), (0.25, 0.75, 1.0)):
        ph = round_phase(epoch, 3, 3)
        assert ph.kind is PhaseKind.MUTATE and abs(ph.rho_cur - rho) < 1e-12
    assert round_phase(7, 3, 3).kind is PhaseKind.PREPARE  # grow-back


def test_warmup_requires_two_measured_epochs():
    # criterion true from the start
    assert _end([], t_td=1.0) is None
    assert _end([5.0], t_td=1.0) is None  # one loss is not a drop measurement
    assert _end([5.0, 4.0], t_td=1.0) == 2


def test_warmup_cap_forces_pruning():
    losses = [10.0 - e for e in range(8)]  # t_td 0 never fires while loss decreases
    for e in range(8):
        assert (_end(losses[:e + 1], t_td=0.0, tau_stop=32) is not None) == (e == 7)
    assert _end(losses, t_td=0.0, tau_stop=32) == 8 == warmup_cap(32)


def test_warmup_never_reverts():
    assert _end([5.0, 4.0], t_td=1.0) == 2
    assert _end([5.0, 4.0, 1.0], t_td=1.0) == 2  # a later big drop does not move the end
    assert _end([5.0, 4.0, 1.0, 0.0, 0.0], t_td=1.0) == 2


def test_phase_periodicity():
    kinds = [round_phase(epoch, 2, 3).kind for epoch in range(2, 14)]
    assert kinds == [PhaseKind.PREPARE, PhaseKind.MUTATE, PhaseKind.MUTATE, PhaseKind.MUTATE] * 3
    assert [round_phase(epoch, 2, 3).kind for epoch in range(2)] == [PhaseKind.WARMUP] * 2


def test_round_phase_rejects_bad_tau_cos():
    for epoch, end in ((0, None), (3, 1), (4, 4)):
        with pytest.raises(SchedulerError):
            round_phase(epoch, end, 0)


def _reference_schedule(losses, tau_cos, tau_stop, t_td):
    """``(warmup_end, phase)`` at epochs ``0..len(losses)`` from the stateful rule:
    a clock and the last loss, advanced once per finished epoch, with warm-up
    ending at the first epoch count where the drop fires or the cap is reached."""
    rows, end, l_cur = [], None, 0.0
    for tau_cur in range(len(losses) + 1):
        if end is None:
            phase = Phase(PhaseKind.WARMUP)
        elif (tau_cur - end) % (tau_cos + 1) == 0:
            phase = Phase(PhaseKind.PREPARE)
        else:
            phase = Phase(PhaseKind.MUTATE, mutation_ratio(tau_cur - end, tau_cos))
        rows.append((end, phase))
        if tau_cur < len(losses):
            l_prev, l_cur = l_cur, losses[tau_cur]
            fired = tau_cur + 1 >= 2 and should_start_pruning(l_prev, l_cur, t_td)
            if end is None and (fired or tau_cur + 1 >= warmup_cap(tau_stop)):
                end = tau_cur + 1
    return rows


@st.composite
def _schedules(draw):
    tau_cos = draw(st.integers(1, 6))
    tau_stop = draw(st.integers(tau_cos + 1, 70))
    t_td = draw(st.sampled_from([0.0, 1.0, -0.5, 0.3]) | st.floats(-1.0, 1.0))
    loss = st.sampled_from([0.0, 0.0, 1.0, 2.0, 4.0, 4.5, 6.0, 10.0]) | st.floats(0.0, 10.0)
    losses = draw(st.lists(loss, max_size=tau_stop))
    return losses, tau_cos, tau_stop, t_td


@settings(max_examples=300, deadline=None)
@given(case=_schedules())
def test_schedule_matches_the_stateful_rule(case):
    losses, tau_cos, tau_stop, t_td = case
    got = []
    for epoch in range(len(losses) + 1):
        end = warmup_end(losses[:epoch], t_td, tau_stop)
        got.append((end, round_phase(epoch, end, tau_cos)))
    assert got == _reference_schedule(losses, tau_cos, tau_stop, t_td)
