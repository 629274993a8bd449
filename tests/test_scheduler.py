import math

import pytest

from scanprune import mutation_ratio
from scanprune.scheduler import (
    PhaseKind,
    SchedulerError,
    ScheduleState,
    phase_table,
    round_phase,
    should_start_pruning,
    warmup_cap,
)


def test_should_start_pruning_examples():
    # large relative drop: model still moving, keep warming up
    assert should_start_pruning(10.0, 6.0, 0.3, 1e-12) is False
    # drop below threshold: stable enough, start pruning
    assert should_start_pruning(6.0, 4.5, 0.3, 1e-12) is True
    # flat zero losses: epsilon guards the division
    assert should_start_pruning(0.0, 0.0, 0.3, 1e-12) is True


def test_should_start_pruning_epsilon_guard():
    with pytest.raises(SchedulerError):
        should_start_pruning(1.0, 0.5, 0.3, 0.0)


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


def _state(**kw):
    base = dict(tau_cos=3, tau_stop=32, t_td=0.3, epsilon=1e-12)
    base.update(kw)
    return ScheduleState(**base)


def test_phase_machine_example_round():
    # losses drop 10 -> 6 (keep warming), 6 -> 4.5 (start pruning after epoch 2)
    st = _state()
    st.record_epoch_loss(10.0)
    assert not st.warmup_done
    st.record_epoch_loss(6.0)
    assert not st.warmup_done
    st.record_epoch_loss(4.5)
    assert st.warmup_done and st.warmup_end == 3

    assert round_phase(st).kind is PhaseKind.PREPARE  # epoch 3, offset 0
    want = [0.25, 0.75, 1.0]
    for rho in want:  # epochs 4, 5, 6
        st.record_epoch_loss(4.0)
        ph = round_phase(st)
        assert ph.kind is PhaseKind.MUTATE and abs(ph.rho_cur - rho) < 1e-12
    st.record_epoch_loss(4.0)
    assert round_phase(st).kind is PhaseKind.PREPARE  # epoch 7: grow-back


def test_warmup_requires_two_measured_epochs():
    st = _state(t_td=1.0)  # criterion true from the start
    st.record_epoch_loss(5.0)
    assert not st.warmup_done  # one loss is not a drop measurement
    st.record_epoch_loss(4.0)
    assert st.warmup_done and st.warmup_end == 2


def test_warmup_cap_forces_pruning():
    st = _state(t_td=0.0, tau_stop=32)  # never fires while loss decreases
    for e in range(8):
        st.record_epoch_loss(10.0 - e)
        assert st.warmup_done == (e == 7)
    assert st.warmup_end == 8


def test_warmup_never_reverts():
    st = _state(t_td=1.0)
    st.record_epoch_loss(5.0)
    st.record_epoch_loss(4.0)
    assert st.warmup_done
    st.record_epoch_loss(1.0)  # big drop would re-trigger the criterion
    assert st.warmup_done and st.warmup_end == 2


def test_phase_periodicity():
    st = _state(t_td=1.0)
    st.record_epoch_loss(5.0)
    st.record_epoch_loss(4.0)
    kinds = []
    for _ in range(12):
        kinds.append(round_phase(st).kind)
        st.record_epoch_loss(4.0)
    assert kinds == [PhaseKind.PREPARE, PhaseKind.MUTATE, PhaseKind.MUTATE, PhaseKind.MUTATE] * 3


def test_phase_table():
    rows = phase_table(3, 8)
    assert [round(ph.rho_cur, 12) for _, ph in rows] == [0, 0.25, 0.75, 1.0, 0, 0.25, 0.75, 1.0]
    assert [ph.kind for _, ph in rows[:4]] == [
        PhaseKind.PREPARE, PhaseKind.MUTATE, PhaseKind.MUTATE, PhaseKind.MUTATE]


def test_state_validation():
    with pytest.raises(SchedulerError):
        ScheduleState(tau_cos=0, tau_stop=8, t_td=0.3)
    with pytest.raises(SchedulerError):
        ScheduleState(tau_cos=3, tau_stop=3, t_td=0.3)
