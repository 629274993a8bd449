import dataclasses
import json
import struct

import numpy as np
import pytest

from scanprune import (
    GenSpec,
    Mode,
    Tag,
    TrainConfig,
    generate_paired_dataset,
    linear_probe,
    load_checkpoint,
    save_checkpoint,
    train_full,
    train_random_baseline,
    train_scan,
    train_static_coreset,
)
from scanprune.infonce import gradients
from scanprune.trainer import (
    CheckpointError,
    TrainerError,
    TrainingDivergedError,
    _apply_sgd,
    init_params,
    read_metrics,
    write_metrics,
)


def _ds(n=256, dim=8, nc=4, seed=0, **kw):
    base = dict(mismatch_frac=0.1, duplicate_frac=0.1, noise_sigma=0.1)
    base.update(kw)
    return generate_paired_dataset(GenSpec(n=n, dim=dim, num_classes=nc, seed=seed, **base))


def _cfg(**kw):
    base = dict(rho=0.3, tau_cos=3, tau_stop=10, t_td=1.0, batch_size=64,
                lr=0.1, out_dim=4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_phase_sequence_earliest_pruning():
    # t_td=1.0 fires as soon as two epoch losses exist: two warm-up epochs,
    # then rounds of one Prepare plus tau_cos mutation epochs
    res = train_scan(_ds(), _cfg())
    assert [r.phase for r in res.records] == [
        "WarmUp", "WarmUp", "Prepare", "Mutate", "Mutate", "Mutate",
        "Prepare", "Mutate", "Mutate", "Mutate"]
    assert [round(r.rho_cur, 12) for r in res.records[2:6]] == [0, 0.25, 0.75, 1.0]


def test_grow_back_full_size_at_prepare():
    ds = _ds()
    res = train_scan(ds, _cfg())
    for r in res.records:
        if r.phase in ("WarmUp", "Prepare"):
            assert r.active_size == ds.n
        else:
            assert r.active_size < ds.n


def test_run_is_deterministic():
    ds = _ds()
    a = train_scan(ds, _cfg())
    b = train_scan(ds, _cfg())
    ra = [dataclasses.replace(r, wall_ms=0.0) for r in a.records]
    rb = [dataclasses.replace(r, wall_ms=0.0) for r in b.records]
    assert ra == rb
    assert np.array_equal(a.params.w_f, b.params.w_f)
    assert np.array_equal(a.params.w_g, b.params.w_g)
    assert a.params.log_temp == b.params.log_temp
    assert a.exclusions == b.exclusions


def test_warmup_trajectory_shared_with_full():
    ds = _ds()
    scan = train_scan(ds, _cfg())
    full = train_full(ds, _cfg())
    for rs, rf in zip(scan.records[:2], full.records[:2]):
        assert rs.mean_loss_fg == rf.mean_loss_fg
        assert rs.mean_loss_gf == rf.mean_loss_gf


def test_train_full_uses_all_samples():
    ds = _ds()
    res = train_full(ds, _cfg())
    assert all(r.active_size == ds.n for r in res.records)
    assert len(res.records) == 10


def test_candidate_provenance_and_budget():
    ds = _ds()
    cfg = _cfg()
    res = train_scan(ds, cfg)
    by_epoch = {cs.built_at_epoch: cs for cs in res.candidate_history}
    assert sorted(by_epoch) == [2, 6]
    k = int(cfg.rho * cfg.batch_size + 1e-9)
    assert all(len(cs) == 2 * k * (ds.n // cfg.batch_size) for cs in res.candidate_history)
    current = None
    for epoch, excluded in sorted(res.exclusions.items()):
        if epoch - 1 in by_epoch or epoch - 2 in by_epoch or epoch - 3 in by_epoch:
            rounds = [e for e in by_epoch if e < epoch]
            current = by_epoch[max(rounds)]
        assert set(excluded) <= set(current.ids.tolist())


def test_mean_pruned_fraction_close_to_rho():
    ds = _ds(n=512)
    cfg = _cfg(tau_stop=14, batch_size=64)  # 2 warm-up + 3 full rounds
    res = train_scan(ds, cfg)
    round_records = res.records[2:]
    pruned = [(ds.n - r.active_size) / ds.n for r in round_records]
    assert np.mean(pruned) == pytest.approx(cfg.rho, abs=0.02)


def test_forward_pass_accounting():
    ds = _ds()
    res = train_scan(ds, _cfg())
    assert res.forward_passes == sum(res.batches_per_epoch)
    for r, batches in zip(res.records, res.batches_per_epoch):
        assert batches == -(-r.active_size // 64)


def test_random_baseline_drops_floor_rho_n():
    ds = _ds(n=250)
    res = train_random_baseline(ds, _cfg(rho=0.3))
    post = [r for r in res.records if r.phase != "WarmUp"]
    assert all(r.active_size == 250 - 75 for r in post)
    warm = [r for r in res.records if r.phase == "WarmUp"]
    assert all(r.active_size == 250 for r in warm)


def test_random_baseline_tiny_rho_equals_full():
    ds = _ds(n=100)
    cfg = _cfg(rho=1e-6)  # floor(rho*n) = 0: degenerates to full training
    rand = train_random_baseline(ds, cfg)
    full = train_full(ds, cfg)
    assert [r.mean_loss_fg for r in rand.records] == [r.mean_loss_fg for r in full.records]


def test_random_baseline_redraws_each_epoch():
    ds = _ds(n=200)
    res = train_random_baseline(ds, _cfg(rho=0.3, tau_stop=8))
    # exclusions are not recorded for the baseline; infer via losses differing
    post = [r.mean_loss_fg for r in res.records[2:]]
    assert len(set(post)) == len(post)


def test_static_coreset_all_ids_equals_full():
    ds = _ds(n=128)
    cfg = _cfg()
    stat = train_static_coreset(ds, range(ds.n), cfg)
    full = train_full(ds, cfg)
    assert [r.mean_loss_fg for r in stat.records] == [r.mean_loss_fg for r in full.records]
    assert np.array_equal(stat.params.w_f, full.params.w_f)


def test_static_coreset_constant_active_size():
    ds = _ds(n=200)
    res = train_static_coreset(ds, range(140), _cfg())
    assert all(r.active_size == 140 for r in res.records)


def test_static_coreset_validation():
    ds = _ds(n=50)
    with pytest.raises(TrainerError):
        train_static_coreset(ds, [], _cfg())
    with pytest.raises(TrainerError):
        train_static_coreset(ds, [5, 50], _cfg())
    with pytest.raises(TrainerError, match="distinct"):
        train_static_coreset(ds, [0, 3, 0], _cfg())


def test_divergence_guard():
    # normalization keeps losses finite for any lr, so inject a non-finite
    # feature to exercise the per-epoch finiteness check
    ds = _ds(n=64)
    va = ds.view_a.copy()
    va[0, 0] = np.inf
    bad = dataclasses.replace(ds, view_a=va)
    with pytest.raises(TrainingDivergedError), np.errstate(invalid="ignore"):
        train_scan(bad, _cfg())


def test_config_validation():
    nan, inf = float("nan"), float("inf")
    for bad in (dict(rho=0.0), dict(rho=0.5), dict(rho=nan), dict(batch_size=1),
                dict(tau_stop=3), dict(tau_cos=0), dict(lr=0.0), dict(lr=nan), dict(lr=inf),
                dict(t_td=nan), dict(t_td=inf), dict(epsilon=0.0), dict(epsilon=nan),
                dict(epsilon=inf), dict(out_dim=0), dict(mlp=True, hidden_dim=0)):
        cfg = _cfg(**bad)
        with pytest.raises(TrainerError):
            cfg.validate()
        with pytest.raises(TrainerError):
            train_full(_ds(n=16), cfg)


def test_apply_sgd_matches_out_of_place_update():
    for mlp in (False, True):
        p = init_params(6, 3, seed=0, mlp=mlp, hidden_dim=5 if mlp else None)
        rng = np.random.default_rng(0)
        grads, _ = gradients(p, rng.standard_normal((8, 6)), rng.standard_normal((8, 6)))
        names = ("w_f", "w_g", "w_f_hidden", "w_g_hidden") if mlp else ("w_f", "w_g")
        want = {name: getattr(p, name) - 0.3 * getattr(grads, name) for name in names}
        want_log_temp = p.log_temp - 0.3 * grads.log_temp
        _apply_sgd(p, grads, 0.3)
        for name in names:
            assert np.array_equal(getattr(p, name), want[name]), name
        assert p.log_temp == want_log_temp


def test_view_pair_mode_runs():
    ds = _ds(n=128)
    res = train_scan(ds, _cfg(mode=Mode.VIEW_PAIR, tau_stop=6, tau_cos=3))
    assert len(res.records) == 6
    assert all(np.isfinite(r.mean_loss_fg) for r in res.records)


def test_mlp_tower_runs_and_checkpoints(tmp_path):
    ds = _ds(n=128)
    res = train_scan(ds, _cfg(mlp=True, hidden_dim=16, tau_stop=6))
    path = tmp_path / "ck.bin"
    save_checkpoint(res.params, path)
    again = load_checkpoint(path)
    assert np.array_equal(again.w_f_hidden, res.params.w_f_hidden)
    assert np.array_equal(again.w_f, res.params.w_f)
    assert again.log_temp == res.params.log_temp


def test_checkpoint_roundtrip_linear(tmp_path):
    p = init_params(8, 4, seed=3)
    path = tmp_path / "ck.bin"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert np.array_equal(p.w_f, q.w_f) and np.array_equal(p.w_g, q.w_g)
    assert p.log_temp == q.log_temp


def test_checkpoint_errors(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(init_params(4, 2, seed=0), path)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(bytes(raw[:30]))
    with pytest.raises(CheckpointError):
        load_checkpoint(trunc)


def test_checkpoint_declared_sizes_checked_before_reading(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(init_params(4, 2, seed=0, mlp=True, hidden_dim=3), path)
    raw = path.read_bytes()
    for dims in ((2**32 - 1, 2**32 - 1, 2), (4, 4, 2), (4, 3, 3)):  # dim, hidden, out_dim
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw[:12] + struct.pack("<III", *dims) + raw[24:])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(bad)
    short = tmp_path / "short.bin"
    short.write_bytes(raw[:-1])  # one byte short of log_temp
    with pytest.raises(CheckpointError):
        load_checkpoint(short)


def test_read_metrics_rejects_malformed_records(tmp_path):
    res = train_full(_ds(n=64), _cfg(tau_stop=6))
    path = tmp_path / "m.jsonl"
    write_metrics(res.records, path)
    good = path.read_text()
    first = json.loads(good.splitlines()[0])
    for bad in ("{", '{"epoch": 1}', "[1, 2]", json.dumps(dict(first, unknown=1)),
                json.dumps(dict(first, active_size="many")),
                json.dumps(dict(first, mean_loss_fg=None))):
        path.write_text(good + bad + "\n")
        with pytest.raises(TrainerError, match=":7:"):
            read_metrics(path)


def test_baselines_keep_no_candidates_and_no_bookkeeping():
    ds = _ds(n=128)
    for res in (train_full(ds, _cfg()), train_random_baseline(ds, _cfg()),
                train_static_coreset(ds, range(100), _cfg())):
        assert res.bookkeep_ms == 0.0
        assert res.candidate_history == [] and res.exclusions == {}
        assert all(r.candidate_size == 0 and r.rho_cur == 0.0 for r in res.records)


def test_random_baseline_validates_before_reading_config():
    with pytest.raises(TrainerError):
        train_random_baseline(_ds(n=16), _cfg(rho=float("nan")))


def test_metrics_roundtrip(tmp_path):
    ds = _ds(n=128)
    res = train_scan(ds, _cfg(tau_stop=6))
    path = tmp_path / "m.jsonl"
    write_metrics(res.records, path)
    assert read_metrics(path) == res.records


def test_linear_probe_trained_beats_chance():
    # 8 classes through a 2-dim bottleneck: a random projection cannot keep
    # them all linearly separable, so the untrained probe stays clearly lower
    ds = generate_paired_dataset(GenSpec(n=1000, dim=16, num_classes=8,
                                         mismatch_frac=0.0, duplicate_frac=0.0,
                                         noise_sigma=0.05, seed=1))
    cfg = _cfg(tau_stop=16, lr=0.5, out_dim=2, batch_size=128)
    res = train_full(ds, cfg)
    acc = linear_probe(res.params, ds, probe_seed=0)
    assert acc >= 0.9
    untrained = linear_probe(init_params(16, 2, seed=99), ds, probe_seed=0)
    assert acc > untrained


def test_linear_probe_single_class_errors():
    ds = _ds(n=64)
    mono = dataclasses.replace(ds, labels=np.zeros(ds.n, dtype=np.uint32))
    with pytest.raises(TrainerError):
        linear_probe(init_params(8, 4, seed=0), mono, probe_seed=0)


def test_empty_dataset_rejected():
    ds = _ds(n=16)
    empty = dataclasses.replace(ds, view_a=ds.view_a[:0], view_b=ds.view_b[:0],
                                labels=ds.labels[:0], corruption=ds.corruption[:0])
    with pytest.raises(TrainerError):
        train_scan(empty, _cfg())


def test_candidate_tags_balanced():
    res = train_scan(_ds(), _cfg())
    for cs in res.candidate_history:
        red = cs.ids_by_tag(Tag.REDUNDANT)
        ill = cs.ids_by_tag(Tag.ILL_MATCHED)
        assert len(red) == len(ill)
        assert not set(red) & set(ill)
