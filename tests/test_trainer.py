import contextlib
import dataclasses
import hashlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scanprune import (
    GenSpec,
    Mode,
    Tag,
    TrainConfig,
    generate_paired_dataset,
    linear_probe,
    save_checkpoint,
    train_full,
    train_random_baseline,
    train_scan,
    train_static_coreset,
)
from scanprune import blas, trainer
from scanprune.cli import main
from scanprune.encoder import Tower, encode
from scanprune.infonce import gradients
from scanprune.scheduler import round_phase, warmup_cap
from scanprune.trainer import (
    CheckpointError,
    TrainerError,
    TrainingDivergedError,
    _apply_sgd,
    _fit_probe,
    init_params,
    load_checkpoint,
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


@pytest.mark.parametrize("t_td", [0.0, 0.3, 1.0])
def test_training_follows_the_schedule_table(t_td, capsys):
    # after warm-up, training runs the rows `scan schedule` prints
    cfg = _cfg(t_td=t_td, tau_stop=14)
    records = train_scan(_ds(), cfg).records
    w = next(i for i, r in enumerate(records) if r.phase != "WarmUp")
    capsys.readouterr()
    assert main(["schedule", "--tau-cos", str(cfg.tau_cos), "--epochs", str(cfg.tau_stop - w)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [f"{r.epoch - w},{r.phase},{r.rho_cur:.6g}" for r in records[w:]] == rows
    assert [r.rho_cur for r in records[w:]] == [round_phase(r.epoch - w, 0, cfg.tau_cos).rho_cur
                                                for r in records[w:]]  # exact, not only to 6 digits
    if t_td == 0.0:
        assert w == warmup_cap(cfg.tau_stop)  # the loss never rises, so only the cap ends warm-up


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
    assert a.exclusions.keys() == b.exclusions.keys()
    assert all(np.array_equal(a.exclusions[e], b.exclusions[e]) for e in a.exclusions)


def test_warmup_trajectory_shared_with_full():
    ds = _ds()
    scan = train_scan(ds, _cfg())
    full = train_full(ds, _cfg())
    for rs, rf in zip(scan.records[:2], full.records[:2]):
        assert rs.mean_loss_fg == rf.mean_loss_fg
        assert rs.mean_loss_gf == rf.mean_loss_gf


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


def test_forward_pass_accounting(monkeypatch):
    calls = []

    def counting_gradients(params, batch_a, batch_b):
        calls.append(len(batch_a))
        return gradients(params, batch_a, batch_b)

    monkeypatch.setattr("scanprune.trainer.gradients", counting_gradients)
    ds = _ds()
    res = train_scan(ds, _cfg())
    assert len(calls) == res.forward_passes == sum(res.batches_per_epoch)
    batches = iter(calls)
    for r, n_batches in zip(res.records, res.batches_per_epoch):
        assert n_batches == -(-r.active_size // 64)
        # one call per batch, and the epoch's calls cover its active samples
        assert sum(next(batches) for _ in range(n_batches)) == r.active_size


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


def test_static_coreset_validation():
    ds = _ds(n=50)
    with pytest.raises(TrainerError):
        train_static_coreset(ds, [], _cfg())
    with pytest.raises(TrainerError):
        train_static_coreset(ds, [5, 50], _cfg())
    with pytest.raises(TrainerError, match="distinct"):
        train_static_coreset(ds, [0, 3, 0], _cfg())


def test_static_coreset_id_past_int64_is_out_of_range():
    # the ids are sorted as an int64 array; an id that does not fit is past n
    ds = _ds(n=50)
    for big in (2 ** 63, 2 ** 64, -2 ** 70):
        with pytest.raises(TrainerError, match="out of range"):
            train_static_coreset(ds, [0, big], _cfg())


def test_divergence_guard():
    # a non-finite feature makes the losses non-finite without any overflow,
    # which exercises the per-epoch finiteness check
    ds = _ds(n=64)
    va = ds.view_a.copy()
    va[0, 0] = np.inf
    bad = dataclasses.replace(ds, view_a=va)
    with pytest.raises(TrainingDivergedError), np.errstate(invalid="ignore"):
        train_scan(bad, _cfg())


def test_overflow_in_training_is_divergence():
    # lr 1e300 overflows the weights in the first epoch; that once warned and
    # trained on, with every later epoch's loss exactly log(batch size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError, match="overflow at epoch 0"):
            train_scan(_ds(n=64, dim=4, nc=2), _cfg(batch_size=16, tau_stop=8, lr=1e300))


def test_rho_that_prune_count_takes_for_one_half_is_refused():
    # prune_count(0.4999999999999999, 2) is 1: every batch of 2 was all
    # candidates, the Mutate at rho_cur 1 excluded all n, and the empty epoch
    # divided by zero
    for rho in (0.4999999999999999, 0.5 - 4e-10):
        with pytest.raises(TrainerError, match="counts as 0.5"):
            train_scan(_ds(n=8, dim=4, nc=2), _cfg(rho=rho, batch_size=2, tau_cos=1, tau_stop=4))
    _cfg(rho=0.5 - 1e-9).validate()


def test_config_validation():
    nan, inf = float("nan"), float("inf")
    for bad in (dict(rho=0.0), dict(rho=0.5), dict(rho=nan), dict(batch_size=1),
                dict(tau_stop=3), dict(tau_cos=0), dict(lr=0.0), dict(lr=nan), dict(lr=inf),
                dict(t_td=nan), dict(t_td=inf), dict(out_dim=0), dict(mlp=True, hidden_dim=0),
                dict(hidden_dim=16), dict(tau_stop=2**32 + 1)):
        cfg = _cfg(**bad)
        with pytest.raises(TrainerError):
            cfg.validate()
        with pytest.raises(TrainerError):
            train_full(_ds(n=16), cfg)
    _cfg(tau_stop=2**32).validate()  # its last epoch, 2**32 - 1, fits rounds.bin's u32


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


def test_checkpoint_header_init_params_cannot_make_is_rejected(tmp_path):
    # a header init_params cannot produce, on a file long enough for it
    linear = tmp_path / "linear.bin"
    save_checkpoint(init_params(4, 2, seed=0), linear)
    mlp = tmp_path / "mlp.bin"
    save_checkpoint(init_params(4, 2, seed=0, mlp=True, hidden_dim=3), mlp)
    for src, fields in ((mlp, (9, 4, 3, 2)), (linear, (2, 4, 0, 2)),  # is_mlp, dim, hidden, out_dim
                        (mlp, (1, 0, 3, 2)), (linear, (0, 0, 0, 2)),
                        (mlp, (1, 4, 3, 0)), (linear, (0, 4, 0, 0)),
                        (mlp, (1, 4, 0, 2)), (linear, (0, 4, 3, 2))):
        raw = src.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw[:8] + struct.pack("<IIII", *fields) + raw[24:])
        with pytest.raises(CheckpointError, match="no model"):
            load_checkpoint(bad)
    for src in (linear, mlp):
        long = tmp_path / "long.bin"
        long.write_bytes(src.read_bytes() + bytes(1))
        with pytest.raises(CheckpointError, match="overlong"):
            load_checkpoint(long)


@pytest.mark.parametrize("dim, out_dim, seed, kw, sha", [
    (8, 4, 3, {}, "1508311f14b06b129279188a4c2852fcaf90ef56a7db8570610e42ff1467a142"),
    (6, 2, 5, dict(mlp=True, hidden_dim=5), "3841f54e5077aa0891290a004f0e3040cc8bdcdb5de45b77d60afa011f6a05d2"),
], ids=["linear", "mlp"])
def test_initial_checkpoint_bytes_are_pinned(tmp_path, dim, out_dim, seed, kw, sha):
    # pins the draw order of init_params and the matrix order of the checkpoint
    path = tmp_path / "ck.bin"
    save_checkpoint(init_params(dim, out_dim, seed=seed, **kw), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


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


def _reference_fit_probe(x_tr, y_tr, n_cls):
    """The textbook probe loop, kept as the oracle for ``_fit_probe``."""
    w = np.zeros((n_cls, x_tr.shape[1]))
    bias = np.zeros(n_cls)
    onehot = np.zeros((len(y_tr), n_cls))
    onehot[np.arange(len(y_tr)), y_tr] = 1.0
    for _ in range(200):
        logits = x_tr @ w.T + bias
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        den = p[:, 0].copy()  # the classes summed in order
        for k in range(1, n_cls):
            den += p[:, k]
        p /= den[:, None]
        g = (p - onehot) / len(y_tr)
        w -= 0.5 * (g.T @ x_tr)
        bias -= 0.5 * g.sum(axis=0)
    return w, bias


def _reference_probe(params, ds, probe_seed):
    labels = ds.labels.astype(np.int64)
    emb, _ = encode(params, Tower.F, ds.view_a.astype(np.float64))
    perm = np.random.Generator(np.random.PCG64(probe_seed)).permutation(ds.n)
    tr, te = perm[:int(0.8 * ds.n)], perm[int(0.8 * ds.n):]
    w, bias = _reference_fit_probe(emb[tr], labels[tr], int(labels.max()) + 1)
    return float(np.mean(np.argmax(emb[te] @ w.T + bias, axis=1) == labels[te]))


def test_fit_probe_bit_identical_to_reference():
    def split(ds, out_dim, probe_seed):
        emb, _ = encode(init_params(ds.dim, out_dim, seed=probe_seed), Tower.F,
                        ds.view_a.astype(np.float64))
        tr = np.random.Generator(np.random.PCG64(probe_seed)).permutation(ds.n)[:int(0.8 * ds.n)]
        return emb[tr], ds.labels.astype(np.int64)[tr]

    for n_cls in (2, 3, 8, 11):  # fewer than, exactly and more than 8: NumPy sums 8 or more pairwise
        ds = _ds(n=400, nc=n_cls, seed=n_cls)
        for probe_seed in (0, 1):
            x_tr, y_tr = split(ds, 8, probe_seed)
            w, bias = _fit_probe(x_tr, y_tr, n_cls)
            w_ref, bias_ref = _reference_fit_probe(x_tr, y_tr, n_cls)
            assert np.array_equal(w, w_ref) and np.array_equal(bias, bias_ref), (n_cls, probe_seed)

    # labels {0, 1, 3, 4}: class 2 never occurs, yet gets a column
    x_tr, y_tr = split(_ds(n=400, nc=4, seed=5), 4, 0)
    y_tr = np.where(y_tr >= 2, y_tr + 1, y_tr)
    w, bias = _fit_probe(x_tr, y_tr, int(y_tr.max()) + 1)
    w_ref, bias_ref = _reference_fit_probe(x_tr, y_tr, int(y_tr.max()) + 1)
    assert w.shape == (5, 4)
    assert np.array_equal(w, w_ref) and np.array_equal(bias, bias_ref)

    ds = _ds(n=400, nc=4, seed=2)
    trained = train_full(ds, _cfg(tau_stop=4)).params
    for params in (trained, init_params(ds.dim, 4, seed=3)):
        for probe_seed in (0, 1):
            assert linear_probe(params, ds, probe_seed) == _reference_probe(params, ds, probe_seed)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), d=st.integers(1, 10), n_cls=st.integers(2, 20),
       gap=st.none() | st.integers(0, 19), seed=st.integers(0, 2**32 - 1))
@example(n=300, d=3, n_cls=129, gap=None, seed=1)  # > 128 classes, where NumPy's own row sum splits in halves
@example(n=200, d=8, n_cls=130, gap=7, seed=2)
@example(n=1, d=1, n_cls=8, gap=None, seed=0)  # one sample: NumPy sums a contiguous column of 8 pairwise
def test_fit_probe_bit_identical_to_reference_on_any_shape(n, d, n_cls, gap, seed):
    rng = np.random.default_rng(seed)
    x_tr = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
    y_tr = rng.integers(0, n_cls, n)
    if gap is not None:  # class ``gap`` never occurs, yet gets a row of w
        y_tr[y_tr == gap % n_cls] = (gap + 1) % n_cls
    w, bias = _fit_probe(x_tr, y_tr, n_cls)
    w_ref, bias_ref = _reference_fit_probe(x_tr, y_tr, n_cls)
    assert w.tobytes() == w_ref.tobytes() and bias.tobytes() == bias_ref.tobytes()


def test_einsum_column_sum_adds_rows_in_order():
    # _fit_probe's bias sum: einsum("ij->j") must add the rows in the order
    # g.sum(axis=0) does, for every class count a probe can have
    rng = np.random.default_rng(1)
    for n in (1, 2, 9, 130, 1000):
        for c in range(2, 40):
            a = rng.standard_normal((n, c)) * np.exp(rng.uniform(-8, 8, (n, c)))
            assert np.einsum("ij->j", a).tobytes() == np.add.reduce(a, axis=0).tobytes(), (n, c)


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


@contextlib.contextmanager
def _at_threads(count: int):
    """``blas.threads(count)``, skipping the test where OpenBLAS will not run that many."""
    if blas.num_threads() is None:
        pytest.skip("no bundled OpenBLAS thread setter in this NumPy build")
    with blas.threads(count):
        if blas.num_threads() != count:
            pytest.skip(f"OpenBLAS will not run {count} threads here")
        yield


def test_blas_thread_count_does_not_change_results(tmp_path):
    # 128x128x1024 matmuls are large enough for OpenBLAS to split across threads
    ds = generate_paired_dataset(GenSpec(n=512, dim=128, num_classes=8, mismatch_frac=0.1,
                                         duplicate_frac=0.1, noise_sigma=0.1, seed=1))
    cfg = TrainConfig(rho=0.3, tau_cos=2, tau_stop=4, t_td=1.0, batch_size=128, lr=0.5,
                      out_dim=2, seed=1, mlp=True, hidden_dim=1024)
    blobs = []
    for threads in (1, 2):
        with _at_threads(threads):
            path = tmp_path / f"threads{threads}.bin"
            save_checkpoint(train_scan(ds, cfg).params, path)
            blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_fit_probe_bit_identical_at_one_and_two_threads():
    # 16000 x 8 is the training split of a 20000-row corpus at out_dim 8, a
    # shape OpenBLAS splits over two threads
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16000, 8))
    y = rng.integers(0, 8, 16000)
    fits = []
    for threads in (1, 2):
        with _at_threads(threads):
            w, bias = _fit_probe(x, y, 8)
            fits.append(w.tobytes() + bias.tobytes())
    assert fits[0] == fits[1]


def test_linear_probe_runs_single_threaded_and_restores_the_count(monkeypatch):
    ds = _ds(n=200, dim=8)
    params = init_params(8, 2, seed=3)
    seen = []

    def spy(*args):
        seen.append(blas.num_threads())
        return fit(*args)

    fit = trainer._fit_probe
    monkeypatch.setattr(trainer, "_fit_probe", spy)
    with _at_threads(2):
        linear_probe(params, ds, probe_seed=0)
        assert blas.num_threads() == 2
        # a probe that raises inside the scope restores the count too
        one_class = dataclasses.replace(ds, labels=np.zeros_like(ds.labels))
        with pytest.raises(TrainerError, match="two classes"):
            linear_probe(params, one_class, probe_seed=0)
        assert blas.num_threads() == 2
        monkeypatch.setattr(trainer, "_fit_probe", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            linear_probe(params, ds, probe_seed=0)
        assert blas.num_threads() == 2
    assert seen == [1]


@pytest.mark.parametrize("symbol", ["_GET", "_SET"])
def test_thread_scope_is_a_no_op_without_either_symbol(monkeypatch, symbol):
    with _at_threads(2):
        real_get = blas._functions()[0]
        ds = _ds(n=200, dim=8)
        params = init_params(8, 2, seed=3)
        expected = linear_probe(params, ds, probe_seed=0)
        monkeypatch.setattr(blas, symbol, "no_such_symbol")
        blas._functions.cache_clear()
        try:
            assert blas.num_threads() is None
            with blas.threads(1):
                assert real_get() == 2
            assert linear_probe(params, ds, probe_seed=0) == expected
        finally:
            monkeypatch.undo()
            blas._functions.cache_clear()
        assert blas.num_threads() == 2
