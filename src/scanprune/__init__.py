"""Dynamic dataset pruning for contrastive training, with static coreset export.

The library trains a small two-tower encoder with a symmetric InfoNCE loss
and, on a cosine-annealed schedule, prunes per-batch samples whose losses mark
them as redundant (already memorized) or ill-matched (misaligned pairs).
Everything is deterministic for a fixed seed and runs at desk scale on
synthetic corpora with planted corruptions.
"""

from scanprune.dataset import (
    CLEAN,
    DUPLICATE,
    MISMATCHED,
    GenSpec,
    PairedDataset,
    generate_paired_dataset,
    load_dataset,
    save_dataset,
)
from scanprune.encoder import EncoderParams, Tower, encode, init_params
from scanprune.infonce import LossTable, batch_loss, gradients, per_sample_losses, similarity_matrix
from scanprune.scheduler import Phase, ScheduleState, mutation_ratio, round_phase, should_start_pruning
from scanprune.pruner import (
    CandidateSet,
    Tag,
    accumulate,
    active_indices,
    merge_directions,
    sample_pruned,
    select_batch_candidates,
)
from scanprune.trainer import (
    EpochRecord,
    Mode,
    RunResult,
    TrainConfig,
    linear_probe,
    load_checkpoint,
    save_checkpoint,
    train_full,
    train_random_baseline,
    train_scan,
    train_static_coreset,
)
from scanprune.coreset import PrunedSummary, export_coreset, load_coreset, save_coreset

__all__ = [
    "CLEAN",
    "MISMATCHED",
    "DUPLICATE",
    "GenSpec",
    "PairedDataset",
    "generate_paired_dataset",
    "save_dataset",
    "load_dataset",
    "EncoderParams",
    "Tower",
    "init_params",
    "encode",
    "LossTable",
    "similarity_matrix",
    "per_sample_losses",
    "batch_loss",
    "gradients",
    "Phase",
    "ScheduleState",
    "should_start_pruning",
    "mutation_ratio",
    "round_phase",
    "Tag",
    "CandidateSet",
    "select_batch_candidates",
    "merge_directions",
    "accumulate",
    "sample_pruned",
    "active_indices",
    "Mode",
    "TrainConfig",
    "EpochRecord",
    "RunResult",
    "train_scan",
    "train_full",
    "train_random_baseline",
    "train_static_coreset",
    "linear_probe",
    "save_checkpoint",
    "load_checkpoint",
    "PrunedSummary",
    "export_coreset",
    "save_coreset",
    "load_coreset",
]
