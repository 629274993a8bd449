"""The training loop's contract, for every method, mode and model.

One property trains a tiny corpus with a drawn method and config, and checks
each epoch against the rules SCAN's loop keeps: full-data warm-up, then rounds
of one Prepare epoch, whose candidates come from its own batches, and
``tau_cos`` Mutate epochs, each dropping a cosine-ramped share of them.
"""

import os
import tempfile
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from scanprune import GenSpec, Mode, TrainConfig, generate_paired_dataset, rundir, trainer
from scanprune.pruner import active_indices, prune_count
from scanprune.scheduler import PhaseKind, round_phase, warmup_end
from scanprune.trainer import TrainerError, load_checkpoint, save_checkpoint, train_full

_TRAIN = {
    "scan": lambda ds, case: trainer.train_scan(ds, case.cfg),
    "full": lambda ds, case: train_full(ds, case.cfg),
    "random": lambda ds, case: trainer.train_random_baseline(ds, case.cfg),
    "static": lambda ds, case: trainer.train_static_coreset(ds, case.coreset, case.cfg),
}
_LABEL = {"full": "Full", "random": "Random", "static": "Static"}  # a baseline's post-warm-up phase


@dataclass(frozen=True)
class Case:
    method: str
    spec: GenSpec
    cfg: TrainConfig
    coreset: tuple = ()  # the ids a static run trains on


def _case(method, n=48, coreset=(), **cfg):
    return Case(method, GenSpec(n=n, dim=4, num_classes=2, mismatch_frac=0.2, duplicate_frac=0.2),
                TrainConfig(**{"t_td": 1.0, "batch_size": 16, "tau_stop": 12, "out_dim": 2, **cfg}), coreset)


@st.composite
def _cases(draw):
    n = draw(st.integers(2, 48))
    method = draw(st.sampled_from(sorted(_TRAIN)))
    coreset = ()
    if method == "static":
        coreset = draw(st.just(tuple(range(n))) | st.sets(st.integers(0, n - 1), min_size=1).map(sorted))
    mlp = draw(st.booleans())
    tau_cos = draw(st.integers(1, 4))
    return Case(method, GenSpec(
        n=n, dim=draw(st.integers(2, 5)), num_classes=draw(st.integers(2, min(n, 3))),
        mismatch_frac=draw(st.sampled_from([0.0, 0.2])), duplicate_frac=draw(st.sampled_from([0.0, 0.2])),
        noise_sigma=draw(st.sampled_from([0.0, 0.1, 1.0])), seed=draw(st.integers(0, 3)),
    ), TrainConfig(
        rho=draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True) | st.floats(0.1, 0.49)), tau_cos=tau_cos,
        tau_stop=draw(st.integers(tau_cos + 1, 12)), t_td=draw(st.floats(0.0, 1.0)),
        batch_size=draw(st.integers(2, n + 8)), lr=draw(st.sampled_from([0.05, 0.5])),
        out_dim=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)), mode=draw(st.sampled_from(Mode)),
        mlp=mlp, hidden_dim=draw(st.none() | st.integers(1, 4)) if mlp else None,
    ), tuple(coreset))


def _weights(params) -> list:
    return [(name, w.tobytes()) for name, w in params.weights()] + [params.log_temp]


@settings(max_examples=150, deadline=None)
@given(case=_cases())
@example(case=_case("scan", rho=0.3, tau_cos=3))  # three rounds, with exclusions
@example(case=_case("scan", rho=0.3, tau_cos=1, tau_stop=2))  # one Prepare, no Mutate
@example(case=_case("scan", rho=0.001, tau_cos=3))  # floor(rho * batch) is 0: every round is empty
@example(case=_case("random", n=10, rho=0.05))  # floor(rho * n) is 0: the run is train_full's
@example(case=_case("static", n=20, coreset=tuple(range(20))))  # every id: the run is train_full's
@example(case=_case("static", n=20, coreset=(0, 3, 19)))
@example(case=_case("scan", n=10, batch_size=64, mode=Mode.VIEW_PAIR, mlp=True, hidden_dim=3))
@example(case=_case("scan", n=2, batch_size=2, rho=0.4999999999999999, tau_cos=1, tau_stop=3))
def test_every_epoch_keeps_the_loop_contract(case):
    event(f"{case.method} {case.cfg.mode.value} {'mlp' if case.cfg.mlp else 'linear'}")
    ds = generate_paired_dataset(case.spec)
    cfg, n, scan = case.cfg, ds.n, case.method == "scan"
    if prune_count(cfg.rho, 2):  # a rho within prune_count's 1e-9 of 0.5 is refused
        with pytest.raises(TrainerError, match="counts as 0.5"):
            _TRAIN[case.method](ds, case)
        return
    batches, gradients = [], trainer.gradients

    def recording(params, xa, xb):  # keeps the view-A rows of each training forward pass
        batches.append(xa.copy())
        return gradients(params, xa, xb)

    with mock.patch.object(trainer, "gradients", recording):
        result = _TRAIN[case.method](ds, case)
    full = train_full(ds, cfg)
    a = ds.view_a.astype(np.float64)
    rounds = {c.built_at_epoch: c for c in result.candidate_history}
    assert len(rounds) == len(result.candidate_history)
    assert len(result.records) == len(result.batches_per_epoch) == cfg.tau_stop
    assert result.forward_passes == len(batches)
    if not scan:
        assert result.candidate_history == [] and result.exclusions == {} and result.bookkeep_ms == 0.0

    losses, last, like_full, mutates, passes = [], None, True, [], iter(batches)
    for rec, n_batches, full_rec in zip(result.records, result.batches_per_epoch, full.records, strict=True):
        epoch = rec.epoch
        phase = round_phase(epoch, warmup_end(losses, cfg.t_td, cfg.tau_stop), cfg.tau_cos)
        losses.append((rec.mean_loss_fg + rec.mean_loss_gf) / 2.0)
        warm = phase.kind is PhaseKind.WARMUP
        if scan:
            assert (rec.phase, rec.rho_cur) == (phase.name, phase.rho_cur)
        else:
            assert (rec.phase, rec.rho_cur) == ("WarmUp" if warm else _LABEL[case.method], 0.0)

        active = np.arange(n)  # the ids the epoch trains on
        if scan and phase.kind is PhaseKind.MUTATE:
            mutates.append(epoch)
            excluded = result.exclusions[epoch]
            event(f"mutate excludes {'some' if excluded.size else 'none'}")
            assert excluded.dtype == np.int64 and excluded.ndim == 1 and (np.diff(excluded) > 0).all()
            assert np.isin(excluded, last.ids).all() and excluded.size == round(phase.rho_cur * len(last))
            active = np.setdiff1d(active, excluded)
        elif case.method == "static":
            active = np.array(case.coreset, dtype=np.int64)
        elif case.method == "random" and not warm:  # floor(rho * n) ids dropped, drawn afresh each epoch
            drop = trainer._shuffle_rng(cfg.seed, epoch, stream=3).choice(n, prune_count(cfg.rho, n), replace=False)
            active = active_indices(n, drop)
            assert active.size == n - prune_count(cfg.rho, n)
        size = active.size
        assert rec.active_size == size
        assert n_batches == -(-size // cfg.batch_size)
        sizes = [min(cfg.batch_size, size - start) for start in range(0, size, cfg.batch_size)]
        rows = [next(passes) for _ in sizes]
        assert [len(x) for x in rows] == sizes
        order = trainer._shuffle_rng(cfg.seed, epoch).permutation(active)  # the order every method shares
        assert np.array_equal(np.concatenate(rows), a[order])

        if scan and phase.kind is PhaseKind.PREPARE:
            last = rounds[epoch]
            last.validate(n)
            counts = [prune_count(cfg.rho, m) for m in sizes]
            assert len(last) == 2 * sum(counts)
            ends = np.cumsum([0] + [2 * k for k in counts])
            for start, k, lo, hi in zip(range(0, n, cfg.batch_size), counts, ends, ends[1:]):
                ids, redundant = last.ids[lo:hi], last.redundant[lo:hi]
                assert redundant.tolist() == [True] * k + [False] * k
                assert np.isin(ids, order[start:start + cfg.batch_size]).all()
                assert (np.diff(ids[:k]) > 0).all() and (np.diff(ids[k:]) > 0).all()
            assert ((last.scores >= 0.0) & (last.scores <= 1.0)).all()
        assert rec.candidate_size == (len(last) if last else 0)

        like_full = like_full and size == n  # every epoch so far trained on all n, as train_full does
        if like_full:
            assert (rec.mean_loss_fg, rec.mean_loss_gf) == (full_rec.mean_loss_fg, full_rec.mean_loss_gf)
    assert next(passes, None) is None
    assert sorted(rounds) == [r.epoch for r in result.records if r.phase == "Prepare"]
    assert sorted(result.exclusions) == mutates
    if like_full:
        assert _weights(result.params) == _weights(full.params)

    with tempfile.TemporaryDirectory() as tmp:
        manifest = rundir.write_run(tmp, case.method, cfg, "corpus.bin", "0" * 64, result, save_checkpoint)
        assert manifest["artifacts"] == [rundir.CHECKPOINT, rundir.METRICS, *[rundir.ROUNDS] * scan]
        assert sorted(os.listdir(tmp)) == sorted([rundir.MANIFEST, *manifest["artifacts"]])
        assert rundir.read_run(tmp) == (manifest, result.records)
        assert _weights(load_checkpoint(os.path.join(tmp, rundir.CHECKPOINT))) == _weights(result.params)
        if scan:
            manifest_read, history, exclusions, n_read = rundir.read_rounds(tmp)
            assert manifest_read == manifest and n_read == n and list(exclusions) == mutates
            for got, want in zip(history, result.candidate_history, strict=True):
                assert got.built_at_epoch == want.built_at_epoch
                for name in ("ids", "redundant", "scores"):
                    x, y = getattr(got, name), getattr(want, name)
                    assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
            for epoch, ids in result.exclusions.items():
                assert exclusions[epoch].dtype == np.int64 and np.array_equal(exclusions[epoch], ids)
