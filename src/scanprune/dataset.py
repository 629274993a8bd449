"""Synthetic paired corpora with planted corruptions, and the binary frame of
the dataset and checkpoint files.

Each sample is a pair of vectors (view A, view B) drawn around a shared class
prototype.  Corruptions are planted at generation time so that pruning quality
can be scored against ground truth:

* ``MISMATCHED`` rows get view B from a different class (a bad pair).
* ``DUPLICATE`` rows are near-copies of an earlier clean row (redundant data).

All randomness comes from numpy's PCG64 generator seeded with ``GenSpec.seed``,
so equal seeds reproduce bit-identical datasets.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from scanprune.pruner import prune_count

CLEAN = 0
MISMATCHED = 1
DUPLICATE = 2

_MAGIC = b"SCND"
_VERSION = 1
_U32_MAX = 2**32 - 1  # n, dim and num_classes are u32 header fields
_MAX_PROTO_DOT = 0.5


class DatasetError(Exception):
    """Base class for dataset validation and I/O failures."""


class ValidationError(DatasetError):
    """A GenSpec or dataset violates its invariants."""


class BadMagicError(DatasetError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(DatasetError):
    """File declares an unsupported format version."""


class TruncatedFileError(DatasetError):
    """File ends before all declared payload bytes."""


class OverlongFileError(DatasetError):
    """File holds bytes after all declared payload bytes."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters for synthetic corpus generation."""

    n: int
    dim: int
    num_classes: int
    mismatch_frac: float = 0.0
    duplicate_frac: float = 0.0
    noise_sigma: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.num_classes < 2:
            raise ValidationError("num_classes must be >= 2")
        if self.n < self.num_classes:
            raise ValidationError("n must be >= num_classes")
        if self.dim < 2:
            raise ValidationError("dim must be >= 2")
        if not (0.0 <= self.mismatch_frac <= 1.0) or not (0.0 <= self.duplicate_frac <= 1.0):
            raise ValidationError("corruption fractions must lie in [0, 1]")
        if self.mismatch_frac + self.duplicate_frac > 1.0:
            raise ValidationError("mismatch_frac + duplicate_frac must be <= 1")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValidationError("noise_sigma must be finite and >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if max(self.n, self.dim, self.num_classes) > _U32_MAX:
            raise ValidationError(f"n, dim and num_classes must be <= {_U32_MAX}, the header's u32 limit")


@dataclass(frozen=True)
class PairedDataset:
    """Immutable corpus of paired vectors; sample ids are row indices."""

    view_a: np.ndarray  # n x dim, float32
    view_b: np.ndarray  # n x dim, float32
    labels: np.ndarray  # n, uint32
    corruption: np.ndarray  # n, uint8
    num_classes: int

    @property
    def n(self) -> int:
        return self.view_a.shape[0]

    @property
    def dim(self) -> int:
        return self.view_a.shape[1]

    def validate(self) -> None:
        if self.view_a.shape != self.view_b.shape:
            raise ValidationError("view_a and view_b must have identical shape")
        if self.view_a.ndim != 2:
            raise ValidationError("views must be n x dim matrices")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if not (np.isfinite(self.view_a).all() and np.isfinite(self.view_b).all()):
            raise ValidationError("views must be finite")
        if self.labels.shape != (self.n,) or self.corruption.shape != (self.n,):
            raise ValidationError("labels and corruption must have length n")
        if self.labels.size and int(self.labels.max()) >= self.num_classes:
            raise ValidationError("labels must be < num_classes")
        if self.corruption.size and int(self.corruption.max()) > DUPLICATE:
            raise ValidationError("corruption flags must be 0 (clean), 1 (mismatched) or 2 (duplicate)")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairedDataset):
            return NotImplemented
        return (
            self.num_classes == other.num_classes
            and np.array_equal(self.view_a, other.view_a)
            and np.array_equal(self.view_b, other.view_b)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.corruption, other.corruption)
        )


def _class_prototypes(rng: np.random.Generator, num_classes: int, dim: int) -> np.ndarray:
    """Unit prototypes with pairwise dot <= 0.5, drawn by rejection sampling."""
    protos = np.empty((num_classes, dim))
    for c in range(num_classes):
        for attempt in range(10_000):
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            if c == 0 or np.max(protos[:c] @ v) <= _MAX_PROTO_DOT:
                protos[c] = v
                break
        else:
            raise ValidationError(
                f"could not place {num_classes} prototypes with pairwise dot <= "
                f"{_MAX_PROTO_DOT} in {dim} dimensions"
            )
    return protos


def generate_paired_dataset(spec: GenSpec) -> PairedDataset:
    """Generate a corpus per ``spec``; deterministic for a fixed seed."""
    spec.validate()
    n_mm = prune_count(spec.mismatch_frac, spec.n)
    n_dup = prune_count(spec.duplicate_frac, spec.n)
    if n_dup > 0 and n_mm + n_dup >= spec.n:
        raise ValidationError("duplicates require at least one clean row")

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    protos = _class_prototypes(rng, spec.num_classes, spec.dim)

    labels = np.arange(spec.n, dtype=np.uint32) % spec.num_classes
    labels = labels[rng.permutation(spec.n)]

    corruption = np.zeros(spec.n, dtype=np.uint8)
    # Row 0 stays clean so every duplicate has an earlier clean source.
    corrupt_ids = rng.permutation(np.arange(1, spec.n))[: n_mm + n_dup]
    corruption[corrupt_ids[:n_mm]] = MISMATCHED
    corruption[corrupt_ids[n_mm:]] = DUPLICATE

    # Row i draws, in stream order: for a duplicate, the index of its source
    # among the clean rows before i; dim normals for view A; for a mismatch,
    # the class of view B; dim normals for view B.  So the normals between two
    # integer draws are one contiguous stretch of ``z`` (rows, then views):
    # each stretch is one standard_normal call, and each corrupted row's cut
    # into the stretches and integer bound are computed up front, so the loop
    # holds only the two draws.
    z = np.empty((spec.n, 2, spec.dim))
    flat = z.reshape(-1)
    classes = np.repeat(labels[:, None], 2, axis=1)  # prototype row of each view
    clean_ids = np.flatnonzero(corruption == CLEAN)
    rows = np.flatnonzero(corruption)
    is_mm = corruption[rows] == MISMATCHED
    cuts = (2 * rows + is_mm) * spec.dim
    bounds = np.where(is_mm, spec.num_classes - 1, np.searchsorted(clean_ids, rows))
    normal, integers = rng.standard_normal, rng.integers
    draws = []
    draw = draws.append
    pos = 0
    for cut, bound in zip(cuts.tolist(), bounds.tolist()):
        normal(out=flat[pos:cut])
        draw(integers(bound))
        pos = cut
    normal(out=flat[pos:])
    draws = np.array(draws, dtype=np.int64)
    mm_ids, other = rows[is_mm], draws[is_mm]
    other += other >= labels[mm_ids]  # skip the row's own class
    classes[mm_ids, 1] = other
    dup_ids = rows[~is_mm]
    dup_src = clean_ids[draws[~is_mm]]

    # In place, with the arithmetic of ``proto + sigma * z`` (IEEE + commutes)
    # and ``source + 0.1 * sigma * z``; duplicates read only clean rows, so
    # they are filled last.  Prototypes are added in blocks to bound the
    # gathered temporary.
    sigma = spec.noise_sigma
    dup_z = z[dup_ids]
    try:
        with np.errstate(over="raise"):  # a finite sigma can still overflow float64 or float32
            z *= sigma
            block = max(1, (1 << 16) // (2 * spec.dim))
            for s in range(0, spec.n, block):
                z[s:s + block] += protos[classes[s:s + block]]
            dup_z *= 0.1 * sigma
            dup_z += z[dup_src]
            z[dup_ids] = dup_z
            del dup_z  # not alive beside the float32 copies, which are the peak
            view_a, view_b = z[:, 0].astype(np.float32), z[:, 1].astype(np.float32)
    except FloatingPointError as exc:
        raise ValidationError(f"noise_sigma={sigma!r} overflows the float32 views ({exc})") from exc
    labels[dup_ids] = labels[dup_src]

    ds = PairedDataset(
        view_a=view_a,
        view_b=view_b,
        labels=labels,
        corruption=corruption,
        num_classes=spec.num_classes,
    )
    ds.validate()
    return ds


def write_frame(path, magic: bytes, header, arrays) -> None:
    """Write ``magic``, the u32 ``header`` fields (version first), then each
    array from its own buffer, with no bytes copy; arrays come C-contiguous in
    their little-endian file dtype."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{len(header)}I", *header))
        for a in arrays:
            fh.write(a)


def read_frame(path, magic: bytes, version: int, fields: int, layout):
    """The ``fields`` u32 header fields after the version, and the arrays by name.

    ``layout(*header)`` maps each name to its ``(shape, dtype)`` in file order.
    The size it declares is checked against the file's before anything is
    allocated, so a corrupt header cannot ask for an impossible allocation.
    Each failure raises its DatasetError subclass.
    """
    with open(path, "rb") as fh:
        got = fh.read(len(magic))
        if got != magic:
            raise BadMagicError(f"bad magic {got!r}")
        raw = fh.read(4 * (1 + fields))
        if len(raw) != 4 * (1 + fields):
            raise TruncatedFileError(f"truncated header: expected {4 * (1 + fields)} bytes, got {len(raw)}")
        file_version, *header = struct.unpack(f"<{1 + fields}I", raw)
        if file_version != version:
            raise VersionMismatchError(f"unsupported version {file_version}")
        specs = layout(*header)
        size = sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs.values())
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != left:
            error, kind = (TruncatedFileError, "truncated") if size > left else (OverlongFileError, "overlong")
            raise error(f"{kind}: header declares {size} bytes after it (fields {header}), the file has {left}")
        arrays = {name: np.empty(shape, dtype) for name, (shape, dtype) in specs.items()}
        if sum(fh.readinto(a) for a in arrays.values()) != size:  # the file shrank as it was read
            raise TruncatedFileError(f"truncated: {path} ended before its last array")
    return header, arrays


def _layout(n: int, dim: int, num_classes: int) -> dict:
    """A dataset file's arrays, in file order."""
    return {"view_a": ((n, dim), "<f4"), "view_b": ((n, dim), "<f4"),
            "labels": ((n,), "<u4"), "corruption": ((n,), "u1")}


def save_dataset(ds: PairedDataset, path) -> None:
    """The frame ``SCND`` v1: u32 n, dim, num_classes, then the layout's arrays."""
    ds.validate()
    write_frame(path, _MAGIC, (_VERSION, ds.n, ds.dim, ds.num_classes),
                [np.ascontiguousarray(getattr(ds, name), dtype)
                 for name, (_, dtype) in _layout(ds.n, ds.dim, ds.num_classes).items()])


def load_dataset(path) -> PairedDataset:
    """Read a dataset written by :func:`save_dataset`; bit-exact round trip."""
    (_, _, num_classes), arrays = read_frame(path, _MAGIC, _VERSION, 3, _layout)
    ds = PairedDataset(num_classes=num_classes, **arrays)
    ds.validate()
    return ds
