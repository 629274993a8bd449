"""Training loops: the dynamic-pruning trainer, baselines, and a linear probe.

All loops share the same seeded per-epoch shuffling, so runs that differ only
in pruning strategy have bit-identical warm-up trajectories.  Candidate
selection reuses the loss values from the training forward pass of each batch;
a forward-pass counter makes that auditable.
"""

from __future__ import annotations

import enum
import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from scanprune.dataset import PairedDataset
from scanprune.encoder import EncoderParams, Tower, encode, init_params
from scanprune.infonce import gradients
from scanprune.pruner import CandidateSet, accumulate, active_indices, batch_candidates, sample_pruned
from scanprune.scheduler import PhaseKind, ScheduleState, round_phase

CHECKPOINT_MAGIC = b"SCNP"
CHECKPOINT_VERSION = 1


class TrainerError(Exception):
    pass


class TrainingDivergedError(TrainerError):
    """An epoch produced a non-finite loss."""


class CheckpointError(TrainerError):
    pass


class Mode(enum.Enum):
    PAIRED = "paired"
    VIEW_PAIR = "view_pair"


@dataclass(frozen=True)
class TrainConfig:
    rho: float = 0.3
    tau_cos: int = 3
    tau_stop: int = 32
    t_td: float = 0.3
    epsilon: float = 1e-12
    batch_size: int = 128
    lr: float = 0.05
    out_dim: int = 8
    seed: int = 0
    mode: Mode = Mode.PAIRED
    mlp: bool = False
    hidden_dim: int | None = None

    def validate(self) -> None:
        for name in ("rho", "t_td", "epsilon", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise TrainerError(f"{name} must be finite")
        if not (0.0 < self.rho < 0.5):
            raise TrainerError("rho must lie in (0, 0.5)")
        if self.batch_size < 2:
            raise TrainerError("batch_size must be >= 2 (InfoNCE needs negatives)")
        if self.tau_cos < 1:
            raise TrainerError("tau_cos must be >= 1")
        if self.tau_stop <= self.tau_cos:
            raise TrainerError("tau_stop must exceed tau_cos")
        if self.epsilon <= 0.0:
            raise TrainerError("epsilon must be positive")
        if self.lr <= 0.0:
            raise TrainerError("lr must be positive")
        if self.out_dim < 1:
            raise TrainerError("out_dim must be >= 1")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise TrainerError("hidden_dim must be >= 1")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    phase: str
    active_size: int
    mean_loss_fg: float
    mean_loss_gf: float
    rho_cur: float
    wall_ms: float
    candidate_size: int


@dataclass
class RunResult:
    params: EncoderParams
    records: list[EpochRecord]
    candidate_history: list[CandidateSet] = field(default_factory=list)
    exclusions: dict[int, list[int]] = field(default_factory=dict)
    forward_passes: int = 0
    batches_per_epoch: list[int] = field(default_factory=list)
    wall_ms: float = 0.0
    cpu_ms: float = 0.0  # process CPU time; immune to scheduler preemption
    bookkeep_ms: float = 0.0

    @property
    def mean_loss(self) -> float:
        last = self.records[-1]
        return (last.mean_loss_fg + last.mean_loss_gf) / 2.0


def _shuffle_rng(seed: int, epoch: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, epoch, stream))))


def _derived_seed(seed: int, epoch: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, epoch, stream)).generate_state(1)[0])


def _views(ds: PairedDataset, cfg: TrainConfig):
    a = ds.view_a.astype(np.float64)
    if cfg.mode is Mode.VIEW_PAIR:
        rng = _shuffle_rng(cfg.seed, 0, stream=2)
        b = a + 0.1 * rng.standard_normal(a.shape)
    else:
        b = ds.view_b.astype(np.float64)
    return a, b


def _apply_sgd(params: EncoderParams, grads, lr: float) -> None:
    """One SGD step in place; consumes ``grads`` by scaling its arrays by ``lr``."""
    names = ("w_f", "w_g", "w_f_hidden", "w_g_hidden") if params.is_mlp else ("w_f", "w_g")
    for name in names:
        g = getattr(grads, name)
        g *= lr
        w = getattr(params, name)
        w -= g
    params.log_temp -= lr * grads.log_temp
    params.clamp_temp()


def _run_epoch(params, a, b, order, cfg, keep_tables: bool):
    """Train over ``order`` in batches.

    Returns the mean fg and gf losses, the batch count and, if asked, each
    batch's ``(fg, gf, ids)`` loss table, so candidate selection can run as one
    tight pass after the epoch instead of between the gradient steps.
    """
    starts = range(0, len(order), cfg.batch_size)
    sum_fg = sum_gf = 0.0
    tables = []
    for start in starts:
        ids = order[start:start + cfg.batch_size]
        grads, table = gradients(params, a[ids], b[ids])
        sum_fg += float(np.sum(table.fg))
        sum_gf += float(np.sum(table.gf))
        if keep_tables:
            tables.append((table.fg, table.gf, ids))
        _apply_sgd(params, grads, cfg.lr)
    return sum_fg / len(order), sum_gf / len(order), len(starts), tables


def _train(ds: PairedDataset, cfg: TrainConfig, active_ids, label: str | None = None) -> RunResult:
    """The epoch loop every method shares.

    ``active_ids(epoch, phase, result)`` returns the sorted ids the epoch
    trains on.  Scan (``label`` None) names epochs by phase and collects
    candidates at Prepare epochs; a baseline names its post-warm-up epochs
    ``label`` and records a mutation ratio of 0.
    """
    cfg.validate()
    if ds.n == 0:
        raise TrainerError("dataset is empty")
    scan = label is None
    a, b = _views(ds, cfg)
    params = init_params(ds.dim, cfg.out_dim, cfg.seed, mlp=cfg.mlp, hidden_dim=cfg.hidden_dim)
    state = ScheduleState(cfg.tau_cos, cfg.tau_stop, cfg.t_td, cfg.epsilon)
    result = RunResult(params=params, records=[])
    history = result.candidate_history
    t_run = time.perf_counter()
    c_run = time.process_time()
    for epoch in range(cfg.tau_stop):
        t0 = time.perf_counter()
        phase = round_phase(state)
        order = _shuffle_rng(cfg.seed, epoch).permutation(active_ids(epoch, phase, result))
        collect = scan and phase.kind is PhaseKind.PREPARE
        mean_fg, mean_gf, batches, tables = _run_epoch(params, a, b, order, cfg, collect)
        if collect:
            tb = time.process_time()
            history.append(accumulate(
                [batch_candidates(fg, gf, ids, cfg.rho) for fg, gf, ids in tables],
                built_at_epoch=epoch))
            result.bookkeep_ms += (time.process_time() - tb) * 1e3
        if not (np.isfinite(mean_fg) and np.isfinite(mean_gf)):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        result.records.append(EpochRecord(
            epoch=epoch,
            phase=phase.name if scan or phase.kind is PhaseKind.WARMUP else label,
            active_size=len(order),
            mean_loss_fg=mean_fg,
            mean_loss_gf=mean_gf,
            rho_cur=phase.rho_cur if scan else 0.0,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            candidate_size=len(history[-1]) if history else 0,
        ))
        result.forward_passes += batches
        result.batches_per_epoch.append(batches)
        state.record_epoch_loss((mean_fg + mean_gf) / 2.0)
    result.wall_ms = (time.perf_counter() - t_run) * 1e3
    result.cpu_ms = (time.process_time() - c_run) * 1e3
    return result


def train_scan(ds: PairedDataset, cfg: TrainConfig) -> RunResult:
    """Warm-up, then rounds of candidate preparation and cosine-ramp pruning."""

    def active_ids(epoch: int, phase, result: RunResult):
        if phase.kind is not PhaseKind.MUTATE:
            return np.arange(ds.n)
        if not result.candidate_history:
            raise TrainerError("mutation epoch without a candidate set")
        tb = time.process_time()
        excluded = sample_pruned(result.candidate_history[-1], phase.rho_cur,
                                 _derived_seed(cfg.seed, epoch, 1))
        active = active_indices(ds.n, excluded)
        result.bookkeep_ms += (time.process_time() - tb) * 1e3
        result.exclusions[epoch] = excluded.tolist()
        return active

    return _train(ds, cfg, active_ids)


def train_full(ds: PairedDataset, cfg: TrainConfig) -> RunResult:
    """Every epoch trains on all n samples."""
    return _train(ds, cfg, lambda epoch, phase, result: np.arange(ds.n), "Full")


def train_random_baseline(ds: PairedDataset, cfg: TrainConfig) -> RunResult:
    """Post-warm-up epochs uniformly drop floor(rho * n) samples, redrawn each epoch."""

    def active_ids(epoch: int, phase, result: RunResult):
        keep = np.ones(ds.n, dtype=bool)
        drop = int(cfg.rho * ds.n + 1e-9)
        if phase.kind is not PhaseKind.WARMUP and drop > 0:
            keep[_shuffle_rng(cfg.seed, epoch, stream=3).choice(ds.n, size=drop, replace=False)] = False
        return np.flatnonzero(keep)

    return _train(ds, cfg, active_ids, "Random")


def train_static_coreset(ds: PairedDataset, coreset_ids, cfg: TrainConfig) -> RunResult:
    """All epochs train only on the given coreset ids, which must be distinct and in [0, n)."""
    ids = np.asarray(sorted(int(i) for i in coreset_ids))
    if ids.size == 0:
        raise TrainerError("coreset is empty")
    if ids[0] < 0 or ids[-1] >= ds.n:
        raise TrainerError("coreset ids out of range")
    if (ids[1:] == ids[:-1]).any():
        raise TrainerError("coreset ids must be distinct")
    return _train(ds, cfg, lambda epoch, phase, result: ids, "Static")


def linear_probe(params: EncoderParams, ds: PairedDataset, probe_seed: int) -> float:
    """Frozen-encoder logistic-regression accuracy on an 80/20 split.

    Full-batch gradient descent on tower-F embeddings: 200 steps, lr 0.5.
    """
    labels = ds.labels.astype(np.int64)
    classes = np.unique(labels)
    if classes.size < 2:
        raise TrainerError("linear probe needs at least two classes")
    emb, _ = encode(params, Tower.F, ds.view_a.astype(np.float64))
    rng = np.random.Generator(np.random.PCG64(probe_seed))
    perm = rng.permutation(ds.n)
    split = int(0.8 * ds.n)
    tr, te = perm[:split], perm[split:]
    x_tr, y_tr = emb[tr], labels[tr]
    x_te, y_te = emb[te], labels[te]

    n_cls = int(classes.max()) + 1
    w = np.zeros((n_cls, emb.shape[1]))
    bias = np.zeros(n_cls)
    onehot = np.zeros((len(tr), n_cls))
    onehot[np.arange(len(tr)), y_tr] = 1.0
    for _ in range(200):
        logits = x_tr @ w.T + bias
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / len(tr)
        w -= 0.5 * (g.T @ x_tr)
        bias -= 0.5 * g.sum(axis=0)
    pred = np.argmax(x_te @ w.T + bias, axis=1)
    return float(np.mean(pred == y_te))


def save_checkpoint(params: EncoderParams, path) -> None:
    """Binary dump: magic SCNP, version, layout dims, f64 LE weights, log_temp."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        hidden = params.w_f_hidden.shape[0] if params.is_mlp else 0
        fh.write(struct.pack("<IIIII", CHECKPOINT_VERSION, int(params.is_mlp),
                             params.dim, hidden, params.out_dim))
        if params.is_mlp:
            fh.write(np.ascontiguousarray(params.w_f_hidden, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.w_f, dtype="<f8").tobytes())
        if params.is_mlp:
            fh.write(np.ascontiguousarray(params.w_g_hidden, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.w_g, dtype="<f8").tobytes())
        fh.write(struct.pack("<d", params.log_temp))


def load_checkpoint(path) -> EncoderParams:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        header = fh.read(20)
        if len(header) != 20:
            raise CheckpointError("truncated header")
        version, is_mlp, dim, hidden, out_dim = struct.unpack("<IIIII", header)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported version {version}")
        # Check the declared sizes before reading, so a corrupt header cannot
        # ask for an impossible allocation.
        in_out = hidden if is_mlp else dim
        weights = 2 * (out_dim * in_out + (hidden * dim if is_mlp else 0))
        if 8 * (weights + 1) > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CheckpointError(f"truncated: the header declares {weights} weights")

        def read_mat(rows, cols):
            return np.frombuffer(fh.read(8 * rows * cols), dtype="<f8").reshape(rows, cols).copy()

        w_f_hidden = read_mat(hidden, dim) if is_mlp else None
        w_f = read_mat(out_dim, in_out)
        w_g_hidden = read_mat(hidden, dim) if is_mlp else None
        w_g = read_mat(out_dim, in_out)
        (log_temp,) = struct.unpack("<d", fh.read(8))
    return EncoderParams(w_f=w_f, w_g=w_g, log_temp=log_temp,
                         w_f_hidden=w_f_hidden, w_g_hidden=w_g_hidden)


def write_metrics(records, path) -> None:
    """JSON-lines metrics file, one EpochRecord per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(asdict(rec)) + "\n")


_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def read_metrics(path) -> list[EpochRecord]:
    """Parse a metrics file; a malformed or wrongly typed record raises TrainerError."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = EpochRecord(**json.loads(line))
            except (ValueError, TypeError) as exc:
                raise TrainerError(f"{path}:{lineno}: bad epoch record: {exc}") from exc
            if not all(isinstance(getattr(rec, f.name), _JSON_TYPES[f.type]) for f in fields(rec)):
                raise TrainerError(f"{path}:{lineno}: epoch record has a wrongly typed field")
            records.append(rec)
    return records
