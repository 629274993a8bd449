"""Training loops: the dynamic-pruning trainer, baselines, and a linear probe.

All loops share the same seeded per-epoch shuffling, so runs that differ only
in pruning strategy have bit-identical warm-up trajectories.  Candidate
selection reuses the loss values from the training forward pass of each batch.
``RunResult.forward_passes`` is the sum of ``batches_per_epoch``; the audit of
one forward pass per batch is the ``gradients`` call count that
``bench/test_tracer.py`` and ``tests/test_loop_contract.py`` record.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from scanprune import blas
from scanprune.dataset import DatasetError, PairedDataset, read_frame, write_frame
from scanprune.encoder import EncoderParams, Tower, encode, init_params, weight_shapes
from scanprune.infonce import gradients
from scanprune.pruner import CandidateSet, accumulate, active_indices, batch_candidates, prune_count, sample_pruned
from scanprune.scheduler import PhaseKind, round_phase, warmup_end

CHECKPOINT_MAGIC = b"SCNP"
CHECKPOINT_VERSION = 1


class TrainerError(Exception):
    pass


class TrainingDivergedError(TrainerError):
    """An epoch overflowed or produced a non-finite loss."""


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
    batch_size: int = 128
    lr: float = 0.05
    out_dim: int = 8
    seed: int = 0
    mode: Mode = Mode.PAIRED
    mlp: bool = False
    hidden_dim: int | None = None

    def validate(self) -> None:
        for name in ("rho", "t_td", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise TrainerError(f"{name} must be finite")
        if not (0.0 < self.rho < 0.5):
            raise TrainerError("rho must lie in (0, 0.5)")
        if prune_count(self.rho, 2):  # then a batch of 2 is all candidates, and a Mutate can drop all n
            raise TrainerError(f"rho={self.rho!r} is within prune_count's 1e-9 of 0.5, so it counts as 0.5")
        if self.batch_size < 2:
            raise TrainerError("batch_size must be >= 2 (InfoNCE needs negatives)")
        if self.tau_cos < 1:
            raise TrainerError("tau_cos must be >= 1")
        if self.tau_stop <= self.tau_cos:
            raise TrainerError("tau_stop must exceed tau_cos")
        if self.tau_stop > 2**32:  # rounds.bin stores epochs 0 .. tau_stop - 1 as u32
            raise TrainerError(f"tau_stop must be <= {2**32}, the u32 limit of rounds.bin's epochs")
        if self.lr <= 0.0:
            raise TrainerError("lr must be positive")
        if self.out_dim < 1:
            raise TrainerError("out_dim must be >= 1")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise TrainerError("hidden_dim must be >= 1")
        if self.hidden_dim is not None and not self.mlp:
            raise TrainerError("hidden_dim is set but mlp is not: the linear model has no hidden layer")
        if self.seed < 0:
            raise TrainerError("seed must be >= 0")


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
    exclusions: dict[int, np.ndarray] = field(default_factory=dict)  # sorted int64 ids
    batches_per_epoch: list[int] = field(default_factory=list)
    cpu_ms: float = 0.0  # process CPU time; immune to scheduler preemption
    bookkeep_ms: float = 0.0

    @property
    def forward_passes(self) -> int:
        """Training forward passes: one per batch, shared with candidate selection."""
        return sum(self.batches_per_epoch)

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


def _apply_sgd(params: EncoderParams, grads: EncoderParams, lr: float) -> None:
    """One SGD step in place; consumes ``grads`` by scaling its arrays by ``lr``."""
    for name, w in params.weights():
        g = getattr(grads, name)
        g *= lr
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
    # Batches go into two buffers the epoch reuses (gradients keeps no
    # reference to its inputs): a fresh 128 KiB array per batch raised
    # probe-mlp's peak RSS by 8 MB.  Ids lie in [0, n), so "clip" never clips;
    # it spares the copy np.take makes with out= in "raise" mode.  A batch
    # never holds more ids than the epoch has, whatever the batch size.
    xa = np.empty((min(cfg.batch_size, len(order)), a.shape[1]))
    xb = np.empty_like(xa)
    for start in starts:
        ids = order[start:start + cfg.batch_size]
        m = len(ids)
        grads, table = gradients(params, np.take(a, ids, axis=0, out=xa[:m], mode="clip"),
                                 np.take(b, ids, axis=0, out=xb[:m], mode="clip"))
        sum_fg += float(np.add.reduce(table.fg))
        sum_gf += float(np.add.reduce(table.gf))
        if keep_tables:
            tables.append((table.fg, table.gf, ids))
        _apply_sgd(params, grads, cfg.lr)
    return sum_fg / len(order), sum_gf / len(order), len(starts), tables


def _train(ds: PairedDataset, cfg: TrainConfig, active_ids=None, label: str | None = None) -> RunResult:
    """The epoch loop every method shares.

    Scan (no ``active_ids``) trains on all n samples, collects candidates at
    Prepare epochs and, at Mutate epochs, excludes a draw from the last
    candidate set.  A baseline gives ``active_ids(epoch, phase)``, the sorted
    ids each epoch trains on, names its post-warm-up epochs ``label`` and
    records a mutation ratio of 0.
    """
    cfg.validate()
    if ds.n == 0:
        raise TrainerError("dataset is empty")
    scan = active_ids is None
    a, b = _views(ds, cfg)
    params = init_params(ds.dim, cfg.out_dim, cfg.seed, mlp=cfg.mlp, hidden_dim=cfg.hidden_dim)
    result = RunResult(params=params, records=[])
    history = result.candidate_history
    losses = []  # each finished epoch's mean loss
    c_run = time.process_time()
    try:
        with np.errstate(over="raise"):  # an overflow is divergence, not a warning
            for epoch in range(cfg.tau_stop):
                t0 = time.perf_counter()
                phase = round_phase(epoch, warmup_end(losses, cfg.t_td, cfg.tau_stop), cfg.tau_cos)
                if not scan:
                    active = active_ids(epoch, phase)
                elif phase.kind is PhaseKind.MUTATE:  # round_phase opens every round with a Prepare
                    tb = time.process_time()
                    excluded = result.exclusions[epoch] = sample_pruned(
                        history[-1], phase.rho_cur, _derived_seed(cfg.seed, epoch, 1))
                    active = active_indices(ds.n, excluded)
                    result.bookkeep_ms += (time.process_time() - tb) * 1e3
                else:
                    active = np.arange(ds.n)
                order = _shuffle_rng(cfg.seed, epoch).permutation(active)
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
                result.batches_per_epoch.append(batches)
                losses.append((mean_fg + mean_gf) / 2.0)
    except FloatingPointError as exc:
        raise TrainingDivergedError(f"overflow at epoch {epoch}: {exc}") from exc
    result.cpu_ms = (time.process_time() - c_run) * 1e3
    return result


def train_scan(ds: PairedDataset, cfg: TrainConfig) -> RunResult:
    """Warm-up, then rounds of candidate preparation and cosine-ramp pruning."""
    return _train(ds, cfg)


def train_full(ds: PairedDataset, cfg: TrainConfig) -> RunResult:
    """Every epoch trains on all n samples."""
    return _train(ds, cfg, lambda epoch, phase: np.arange(ds.n), "Full")


def train_random_baseline(ds: PairedDataset, cfg: TrainConfig) -> RunResult:
    """Post-warm-up epochs uniformly drop floor(rho * n) samples, redrawn each epoch."""
    def active_ids(epoch: int, phase):
        drop = prune_count(cfg.rho, ds.n)  # _train calls this only after cfg.validate()
        if phase.kind is PhaseKind.WARMUP or drop == 0:
            return np.arange(ds.n)
        rng = _shuffle_rng(cfg.seed, epoch, stream=3)
        return active_indices(ds.n, rng.choice(ds.n, size=drop, replace=False))

    return _train(ds, cfg, active_ids, "Random")


def train_static_coreset(ds: PairedDataset, coreset_ids, cfg: TrainConfig) -> RunResult:
    """All epochs train only on the given coreset ids, which must be distinct and in [0, n)."""
    try:
        ids = np.sort(np.fromiter(coreset_ids, dtype=np.int64))
    except OverflowError as exc:  # an id past int64 is past n
        raise TrainerError("coreset ids out of range") from exc
    if ids.size == 0:
        raise TrainerError("coreset is empty")
    if ids[0] < 0 or ids[-1] >= ds.n:
        raise TrainerError("coreset ids out of range")
    if (ids[1:] == ids[:-1]).any():
        raise TrainerError("coreset ids must be distinct")
    return _train(ds, cfg, lambda epoch, phase: ids, "Static")


def linear_probe(params: EncoderParams, ds: PairedDataset, probe_seed: int) -> float:
    """Frozen-encoder logistic-regression accuracy on an 80/20 split.

    Full-batch gradient descent on tower-F embeddings: 200 steps, lr 0.5.
    Runs with one BLAS thread: its matmuls are thin (n x out_dim x classes)
    and most of each step is elementwise, so a second thread only spin-waits.
    The caller's thread count is restored on return or raise.
    """
    with blas.threads(1):
        labels = ds.labels.astype(np.int64)
        classes = np.unique(labels)
        if classes.size < 2:
            raise TrainerError("linear probe needs at least two classes")
        emb, _ = encode(params, Tower.F, ds.view_a.astype(np.float64))
        rng = np.random.Generator(np.random.PCG64(probe_seed))
        perm = rng.permutation(ds.n)
        split = int(0.8 * ds.n)
        tr, te = perm[:split], perm[split:]
        w, bias = _fit_probe(emb[tr], labels[tr], int(classes.max()) + 1)
        pred = np.argmax(emb[te] @ w.T + bias, axis=1)
        return float(np.mean(pred == labels[te]))


def _fit_probe(x_tr: np.ndarray, y_tr: np.ndarray, n_cls: int) -> tuple[np.ndarray, np.ndarray]:
    """Softmax regression on ``x_tr``: 200 full-batch gradient steps, lr 0.5.

    Each step's softmax lives class-major, in an ``(n_cls, n)`` buffer ``g``,
    so every per-class pass is one contiguous elementwise op.  ``w`` and
    ``bias`` are bit-identical to the textbook step
    ``g = (softmax(x @ w.T + b) - onehot) / n`` on ``(n, n_cls)`` arrays, its
    softmax denominator summed over the classes in order:

    - the matmuls are its calls on the ``(n, n_cls)`` buffer ``g_nc``; the
      logits move class-major in the bias add and the gradient moves back in
      the ``/ n``, both elementwise;
    - the row max is one ``np.maximum.reduce`` over the class rows (max is
      exact in any order);
    - the denominator adds the class rows one by one, in order
      (``np.add.reduce`` would sum the single column of ``n = 1`` pairwise);
    - the bias sum adds the rows of ``g_nc`` in order, as ``g.sum(axis=0)``
      does; ``np.einsum("ij->j")`` does that with less per-row overhead
      (it would sum a single column in another order; ``n_cls >= 2``).
    """
    n = len(y_tr)
    w = np.zeros((n_cls, x_tr.shape[1]))
    bias = np.zeros(n_cls)
    g = np.empty((n_cls, n))
    g_nc = np.empty((n, n_cls))
    row_max = np.empty(n)  # then the softmax denominator
    g_flat = g.reshape(-1)
    label_at = np.ravel_multi_index((y_tr, np.arange(n)), g.shape)  # flat index of each label
    for _ in range(200):
        np.matmul(x_tr, w.T, out=g_nc)
        np.add(g_nc.T, bias[:, None], out=g)
        np.maximum.reduce(g, axis=0, out=row_max)
        g -= row_max
        np.exp(g, out=g)
        np.copyto(row_max, g[0])
        for row in g[1:]:
            row_max += row
        g /= row_max
        g_flat[label_at] -= 1.0
        np.divide(g, n, out=g_nc.T)
        w -= 0.5 * (g_nc.T @ x_tr)
        bias -= 0.5 * np.einsum("ij->j", g_nc)
    return w, bias


def _checkpoint_layout(is_mlp: int, dim: int, hidden: int, out_dim: int) -> dict:
    """The f64 weights in ``encoder.WEIGHTS`` order, then ``log_temp``, of a model ``init_params`` can make."""
    if is_mlp not in (0, 1) or dim < 1 or out_dim < 1 or bool(hidden) != bool(is_mlp):
        raise CheckpointError(f"header declares no model: is_mlp={is_mlp} dim={dim} "
                              f"hidden={hidden} out_dim={out_dim}")
    return {**{name: (shape, "<f8") for name, shape in weight_shapes(dim, out_dim, hidden)},
            "log_temp": ((1,), "<f8")}


def save_checkpoint(params: EncoderParams, path) -> None:
    """The frame ``SCNP`` v1: u32 is_mlp, dim, hidden (0 if linear), out_dim, then the layout's arrays."""
    header = (int(params.is_mlp), params.dim, params.w_f_hidden.shape[0] if params.is_mlp else 0,
              params.out_dim)
    write_frame(path, CHECKPOINT_MAGIC, (CHECKPOINT_VERSION, *header),
                [np.ascontiguousarray(getattr(params, name), dtype)
                 for name, (_, dtype) in _checkpoint_layout(*header).items()])


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint written by :func:`save_checkpoint`; CheckpointError for
    any file the frame or the layout rejects, or that holds a non-finite number
    (training never writes one: a non-finite loss or an overflow raises)."""
    try:
        _, arrays = read_frame(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 4, _checkpoint_layout)
    except DatasetError as exc:
        raise CheckpointError(str(exc)) from exc
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise CheckpointError(f"{name} must be finite")
    log_temp = arrays.pop("log_temp")
    return EncoderParams(log_temp=float(log_temp[0]), **arrays)
