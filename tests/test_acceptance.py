"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (straight to the terminal, bypassing
capture) so a full run reads as a nine-line report.  Criteria 6-8 share one
set of trained runs via a session fixture; they are the slow part of the
suite (a few minutes of CPU).
"""

import dataclasses
import math

import numpy as np
import pytest

from scanprune import (
    CandidateSet,
    DUPLICATE,
    GenSpec,
    MISMATCHED,
    PrunedSummary,
    Tag,
    TrainConfig,
    active_indices,
    batch_loss,
    export_coreset,
    generate_paired_dataset,
    gradients,
    init_params,
    linear_probe,
    mutation_ratio,
    per_sample_losses,
    sample_pruned,
    save_checkpoint,
    select_batch_candidates,
    train_full,
    train_random_baseline,
    train_scan,
    train_static_coreset,
)
from scanprune.trainer import write_metrics

SEEDS = (1, 2, 3, 4, 5)


def _report(capsys, num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _corpus(seed: int):
    return generate_paired_dataset(GenSpec(
        n=2000, dim=128, num_classes=8,
        mismatch_frac=0.1, duplicate_frac=0.1, noise_sigma=0.1, seed=seed))


def _probe_cfg(seed: int) -> TrainConfig:
    # tight 2-dim bottleneck so the probe discriminates between strategies;
    # the wide hidden layer keeps per-batch compute dominant over bookkeeping
    return TrainConfig(rho=0.3, tau_cos=3, tau_stop=64, t_td=1.0,
                       batch_size=128, lr=0.5, out_dim=2, seed=seed,
                       mlp=True, hidden_dim=1024)


@pytest.fixture(scope="session")
def probe_runs():
    """One scan/full/random trio per seed, with probe accuracies."""
    runs = {}
    for seed in SEEDS:
        ds = _corpus(seed)
        cfg = _probe_cfg(seed)
        trio = {"scan": train_scan(ds, cfg),
                "full": train_full(ds, cfg),
                "random": train_random_baseline(ds, cfg)}
        probes = {name: linear_probe(res.params, ds, 100) for name, res in trio.items()}
        runs[seed] = {"ds": ds, "results": trio, "probes": probes}
    return runs


# ----------------------------------------------------------------- criterion 1

def test_criterion_1_schedule_exactness(capsys):
    worst = 0.0
    for tau_cos in (2, 3, 4):
        vals = [mutation_ratio(off, tau_cos) for off in range(tau_cos + 1)]
        for off, got in enumerate(vals):
            want = 0.5 * (1.0 + math.cos((tau_cos - off) * math.pi / tau_cos))
            worst = max(worst, abs(got - want))
        mean_ok = math.fsum(vals) / (tau_cos + 1) == 0.5
        if not mean_ok:
            worst = 1.0
    seq = [mutation_ratio(off, 3) for off in range(4)]
    seq_ok = all(abs(g - w) < 1e-12 for g, w in zip(seq, (0.0, 0.25, 0.75, 1.0)))
    ok = worst < 1e-12 and seq_ok
    _report(capsys, 1, "cosine schedule exact, round mean 0.5", ok,
            f"max dev {worst:.2e}")


# ----------------------------------------------------------------- criterion 2

def test_criterion_2_active_fraction_sequence(capsys):
    n = 9
    cs = CandidateSet(ids=np.arange(7), redundant=np.ones(7, dtype=bool), scores=np.full(7, 0.5))
    active = []
    for off in range(4):
        excluded = sample_pruned(cs, mutation_ratio(off, 3), seed=0)
        active.append(len(active_indices(n, excluded)))
    want = (1.0, 6 / 9, 4 / 9, 2 / 9)
    seq_ok = all(abs(a - w * n) <= 1.0 for a, w in zip(active, want))
    avg_pruned = sum((n - a) / n for a in active) / 4
    avg_ok = abs(avg_pruned - 7 / 18) < 0.005
    _report(capsys, 2, "one-round active fractions and ~38.9% mean pruning",
            seq_ok and avg_ok, f"active={active} mean_pruned={avg_pruned:.4f}")


# ----------------------------------------------------------------- criterion 3

def _monolithic(S: np.ndarray) -> float:
    b = S.shape[0]
    fg = -np.mean([S[i, i] - math.log(np.sum(np.exp(S[i, :]))) for i in range(b)])
    gf = -np.mean([S[j, j] - math.log(np.sum(np.exp(S[:, j]))) for j in range(b)])
    return (fg + gf) / 2.0


def _fd_worst(p, a, b, h=1e-5) -> float:
    grads, _ = gradients(p, a, b)

    def loss_at(q):
        _, t = gradients(q, a, b)
        return batch_loss(t)

    worst = 0.0
    mats = [("w_f", grads.w_f), ("w_g", grads.w_g)]
    if p.is_mlp:
        mats += [("w_f_hidden", grads.w_f_hidden), ("w_g_hidden", grads.w_g_hidden)]
    for name, g in mats:
        w = getattr(p, name)
        for idx in np.ndindex(*w.shape):
            q = p.copy(); getattr(q, name)[idx] += h
            r = p.copy(); getattr(r, name)[idx] -= h
            fd = (loss_at(q) - loss_at(r)) / (2 * h)
            worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8))
    q = p.copy(); q.log_temp += h
    r = p.copy(); r.log_temp -= h
    fd = (loss_at(q) - loss_at(r)) / (2 * h)
    worst = max(worst, abs(fd - grads.log_temp) / max(abs(fd), abs(grads.log_temp), 1e-8))
    return worst


def test_criterion_3_infonce_correctness(capsys):
    rng = np.random.default_rng(11)
    worst_split = 0.0
    for _ in range(100):
        b = int(rng.integers(2, 40))
        S = rng.standard_normal((b, b)) * rng.uniform(0.1, 5.0)
        t = per_sample_losses(S)
        worst_split = max(worst_split, abs(batch_loss(t) - _monolithic(S)))

    worst_fd = 0.0
    for trial in range(50):
        mlp = trial % 2 == 1
        p = init_params(4, 2, seed=trial, mlp=mlp, hidden_dim=3 if mlp else None)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        worst_fd = max(worst_fd, _fd_worst(p, a, b))

    ok = worst_split < 1e-9 and worst_fd < 1e-4
    _report(capsys, 3, "per-sample losses match monolithic loss; gradients match FD",
            ok, f"split dev {worst_split:.2e}, FD rel err {worst_fd:.2e}")


# ----------------------------------------------------------------- criterion 4

def test_criterion_4_selection_oracle(capsys):
    rng = np.random.default_rng(42)
    mismatches = 0
    for trial in range(200):
        b = int(rng.integers(1, 513))
        rho = float(rng.uniform(0.05, 0.49))
        ids = rng.permutation(4 * b)[:b]
        losses = rng.standard_normal(b)
        if trial % 2 == 0:
            losses = np.round(losses, 1)  # force ties
        red, ill = select_batch_candidates(losses, ids, rho)
        k = int(rho * b + 1e-9)
        asc = sorted(zip(losses.tolist(), ids.tolist()))
        desc = sorted(zip(losses.tolist(), ids.tolist()), key=lambda t: (-t[0], -t[1]))
        if red != {i for _, i in asc[:k]} or ill != {i for _, i in desc[:k]}:
            mismatches += 1
    _report(capsys, 4, "selection matches brute-force sort oracle on 200 batches",
            mismatches == 0, f"{mismatches} mismatches")


# ----------------------------------------------------------------- criterion 5

def test_criterion_5_planted_corruption_recovery(capsys):
    # long warm-up (t_td=0 holds it to the cap) so the first candidate set is
    # built from a settled encoder; small rho keeps the sets precise
    ill_precisions, red_precisions = [], []
    for seed in SEEDS:
        ds = _corpus(seed)
        cfg = TrainConfig(rho=0.1, tau_cos=3, tau_stop=28, t_td=0.0,
                          batch_size=128, lr=0.5, out_dim=16, seed=seed)
        res = train_scan(ds, cfg)
        first = res.candidate_history[0]
        ill = np.asarray(first.ids_by_tag(Tag.ILL_MATCHED))
        red = np.asarray(first.ids_by_tag(Tag.REDUNDANT))
        ill_precisions.append(float(np.mean(ds.corruption[ill] == MISMATCHED)))
        red_precisions.append(float(np.mean(ds.corruption[red] == DUPLICATE)))
    ill_p = float(np.mean(ill_precisions))
    red_p = float(np.mean(red_precisions))
    ok = ill_p >= 0.20 and red_p >= 0.15
    _report(capsys, 5, "ill-matched precision >=2x and redundant >=1.5x base rate",
            ok, f"ill {ill_p:.3f} (need 0.20), red {red_p:.3f} (need 0.15)")


# ----------------------------------------------------------------- criterion 6

def test_criterion_6_performance_retention(capsys, probe_runs):
    scan = np.mean([probe_runs[s]["probes"]["scan"] for s in SEEDS])
    full = np.mean([probe_runs[s]["probes"]["full"] for s in SEEDS])
    rand = np.mean([probe_runs[s]["probes"]["random"] for s in SEEDS])
    # degradation bound: pruning may not cost more than 2 points vs full
    ok = scan >= full - 0.02 and scan >= rand + 0.01
    _report(capsys, 6, "scan probe within 2pt of full and >=1pt above random",
            ok, f"scan {scan:.3f}, full {full:.3f}, random {rand:.3f}")


# ----------------------------------------------------------------- criterion 7

def test_criterion_7_static_coreset(capsys, probe_runs):
    static_accs, scan_accs, control_accs = [], [], []
    for seed in SEEDS:
        ds = probe_runs[seed]["ds"]
        cfg = _probe_cfg(seed)
        run_a = probe_runs[seed]["results"]["scan"]
        run_b = train_scan(ds, dataclasses.replace(cfg, seed=seed + 100))
        summ_a = PrunedSummary.from_candidates("a", run_a.candidate_history[-1], ds.n)
        summ_b = PrunedSummary.from_candidates("b", run_b.candidate_history[-1], ds.n)
        keep = export_coreset(summ_a, summ_b, cfg.rho)

        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 999))))
        random_keep = np.sort(rng.choice(ds.n, size=len(keep), replace=False))

        static = train_static_coreset(ds, keep, cfg)
        control = train_static_coreset(ds, random_keep, cfg)
        static_accs.append(linear_probe(static.params, ds, 100))
        control_accs.append(linear_probe(control.params, ds, 100))
        scan_accs.append(probe_runs[seed]["probes"]["scan"])
    static_acc = float(np.mean(static_accs))
    scan_acc = float(np.mean(scan_accs))
    control_acc = float(np.mean(control_accs))
    ok = static_acc >= scan_acc - 0.02 and static_acc >= control_acc + 0.01
    _report(capsys, 7, "coreset probe within 2pt of scan and >=1pt above random coreset",
            ok, f"coreset {static_acc:.3f}, scan {scan_acc:.3f}, random {control_acc:.3f}")


# ----------------------------------------------------------------- criterion 8

def test_criterion_8_time_efficiency(capsys, probe_runs):
    # CPU time, not wall time: the host is shared, so wall-clock ratios are
    # dominated by scheduler noise while process time stays stable
    scan_cpu = sum(probe_runs[s]["results"]["scan"].cpu_ms for s in SEEDS)
    full_cpu = sum(probe_runs[s]["results"]["full"].cpu_ms for s in SEEDS)
    book = sum(probe_runs[s]["results"]["scan"].bookkeep_ms for s in SEEDS)
    ratio = scan_cpu / full_cpu
    overhead = book / (scan_cpu - book)
    rho = _probe_cfg(0).rho
    ok = overhead < 0.05 and ratio <= 1.0 - 0.8 * rho
    _report(capsys, 8, "bookkeeping <5% of training compute; run <=0.76x full",
            ok, f"overhead {overhead:.3%}, time ratio {ratio:.3f}")


# ----------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(capsys, tmp_path):
    ds = _corpus(1)
    cfg = TrainConfig(rho=0.3, tau_cos=3, tau_stop=12, t_td=1.0,
                      batch_size=128, lr=0.5, out_dim=8, seed=7)
    paths = []
    for run in ("a", "b"):
        res = train_scan(ds, cfg)
        ckpt = tmp_path / f"{run}.bin"
        metrics = tmp_path / f"{run}.jsonl"
        save_checkpoint(res.params, ckpt)
        masked = [dataclasses.replace(r, wall_ms=0.0) for r in res.records]
        write_metrics(masked, metrics)
        paths.append((ckpt, metrics))
    ckpt_ok = paths[0][0].read_bytes() == paths[1][0].read_bytes()
    metrics_ok = paths[0][1].read_bytes() == paths[1][1].read_bytes()
    _report(capsys, 9, "repeat runs byte-identical (checkpoints; metrics modulo wall time)",
            ckpt_ok and metrics_ok, f"checkpoint {ckpt_ok}, metrics {metrics_ok}")
