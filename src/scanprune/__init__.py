"""Dynamic dataset pruning for contrastive training, with static coreset export.

The library trains a small two-tower encoder with a symmetric InfoNCE loss
and, on a cosine-annealed schedule, prunes per-batch samples whose losses mark
them as redundant (already memorized) or ill-matched (misaligned pairs).
Everything is deterministic for a fixed seed and runs at desk scale on
synthetic corpora with planted corruptions.

The names below are the package-level API; everything else is imported from
its module, for example ``scanprune.pruner.accumulate``.
"""

from scanprune.dataset import DUPLICATE, MISMATCHED, GenSpec, generate_paired_dataset, load_dataset, save_dataset
from scanprune.encoder import init_params
from scanprune.infonce import batch_loss, gradients, per_sample_losses
from scanprune.scheduler import mutation_ratio
from scanprune.pruner import CandidateSet, Tag, active_indices, sample_pruned, select_batch_candidates
from scanprune.trainer import (
    Mode,
    TrainConfig,
    linear_probe,
    save_checkpoint,
    train_full,
    train_random_baseline,
    train_scan,
    train_static_coreset,
)
from scanprune.coreset import PrunedSummary, export_coreset
