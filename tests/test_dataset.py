import hashlib
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scanprune import DUPLICATE, MISMATCHED, GenSpec, generate_paired_dataset, load_dataset, save_dataset
from scanprune.dataset import (
    CLEAN,
    BadMagicError,
    OverlongFileError,
    PairedDataset,
    TruncatedFileError,
    ValidationError,
    VersionMismatchError,
    _class_prototypes,
)


def _spec(**kw):
    base = dict(n=100, dim=16, num_classes=4, mismatch_frac=0.1,
                duplicate_frac=0.1, noise_sigma=0.1, seed=7)
    base.update(kw)
    return GenSpec(**base)


def _pair_cosines(ds):
    na = np.linalg.norm(ds.view_a, axis=1)
    nb = np.linalg.norm(ds.view_b, axis=1)
    return np.sum(ds.view_a * ds.view_b, axis=1) / (na * nb)


def test_corruption_counts_floor():
    ds = generate_paired_dataset(_spec())
    assert np.sum(ds.corruption == MISMATCHED) == 10
    assert np.sum(ds.corruption == DUPLICATE) == 10
    assert np.sum(ds.corruption == CLEAN) == 80


def test_zero_fractions_all_clean():
    ds = generate_paired_dataset(_spec(mismatch_frac=0.0, duplicate_frac=0.0))
    assert np.all(ds.corruption == CLEAN)


def test_mismatched_rows_have_lower_pair_cosine():
    ds = generate_paired_dataset(GenSpec(n=1000, dim=32, num_classes=8,
                                         mismatch_frac=0.1, duplicate_frac=0.0,
                                         noise_sigma=0.05, seed=1))
    cos = _pair_cosines(ds)
    gap = cos[ds.corruption == CLEAN].mean() - cos[ds.corruption == MISMATCHED].mean()
    assert gap > 0.2


def test_generation_deterministic_and_seed_sensitive():
    a = generate_paired_dataset(_spec())
    b = generate_paired_dataset(_spec())
    c = generate_paired_dataset(_spec(seed=8))
    assert a == b
    assert not np.array_equal(a.view_a, c.view_a)


def test_basic_shape_invariants():
    ds = generate_paired_dataset(_spec())
    assert ds.view_a.shape == ds.view_b.shape == (100, 16)
    assert np.isfinite(ds.view_a).all() and np.isfinite(ds.view_b).all()
    assert ds.labels.max() < 4
    assert ds.view_a.dtype == np.float32 and ds.view_b.dtype == np.float32


def test_duplicates_copy_earlier_clean_rows():
    ds = generate_paired_dataset(_spec(n=200))
    clean = np.where(ds.corruption == CLEAN)[0]
    for i in np.where(ds.corruption == DUPLICATE)[0]:
        earlier = clean[clean < i]
        assert earlier.size > 0
        dists = np.linalg.norm(ds.view_a[earlier] - ds.view_a[i], axis=1)
        j = earlier[np.argmin(dists)]
        # near-copy: residual noise has scale 0.1 * sigma per coordinate
        assert dists.min() < 10 * 0.1 * 0.1 * np.sqrt(16)
        assert ds.labels[i] == ds.labels[j]


def test_mismatched_label_differs_from_view_b_class():
    # mismatched view_b comes from a different class, so its cosine against
    # the row's own class prototype direction (via view_a) drops
    ds = generate_paired_dataset(_spec(n=500, noise_sigma=0.05))
    cos = _pair_cosines(ds)
    assert cos[ds.corruption == MISMATCHED].mean() < cos[ds.corruption == CLEAN].mean()


@pytest.mark.parametrize("seed", range(20))
def test_separability_across_seeds(seed):
    ds = generate_paired_dataset(_spec(n=300, noise_sigma=0.2, seed=seed))
    cos = _pair_cosines(ds)
    assert cos[ds.corruption == CLEAN].mean() > cos[ds.corruption == MISMATCHED].mean()


@pytest.mark.parametrize("kw", [
    dict(mismatch_frac=0.6, duplicate_frac=0.5),
    dict(n=3, num_classes=4),
    dict(dim=1),
    dict(num_classes=1),
    dict(noise_sigma=-0.1),
])
def test_genspec_validation_errors(kw):
    with pytest.raises(ValidationError):
        generate_paired_dataset(_spec(**kw))


@pytest.mark.parametrize("kw", [
    dict(n=2**32),
    dict(dim=2**32),
    dict(n=2**32, num_classes=2**32),
])
def test_genspec_rejects_sizes_beyond_the_u32_header(kw):
    # validate() allocates nothing, so the oversized specs cost nothing here
    with pytest.raises(ValidationError, match="u32"):
        _spec(**kw).validate()
    _spec(**{k: 2**32 - 1 for k in kw}).validate()


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_genspec_rejects_non_finite_noise_sigma(sigma):
    with pytest.raises(ValidationError, match="noise_sigma must be finite"):
        _spec(noise_sigma=sigma).validate()


@pytest.mark.parametrize("sigma", [1e300, 1e308])  # overflows the float32 cast; the float64 scaling too
def test_noise_sigma_that_overflows_raises_without_a_warning(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="noise_sigma=.* overflows the float32 views"):
            generate_paired_dataset(_spec(n=16, dim=4, num_classes=2, noise_sigma=sigma))


def test_roundtrip_bit_exact(tmp_path):
    ds = generate_paired_dataset(_spec())
    path = tmp_path / "d.bin"
    save_dataset(ds, path)
    again = load_dataset(path)
    assert again == ds
    # saving the reload reproduces the file byte for byte
    path2 = tmp_path / "d2.bin"
    save_dataset(again, path2)
    assert path.read_bytes() == path2.read_bytes()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 40), dim=st.integers(2, 12), nc=st.integers(2, 4),
       mf=st.floats(0, 0.4), df=st.floats(0, 0.4), seed=st.integers(0, 2**31))
def test_roundtrip_property(tmp_path_factory, n, dim, nc, mf, df, seed):
    if n < nc:
        n = nc
    ds = generate_paired_dataset(GenSpec(n=n, dim=dim, num_classes=nc,
                                         mismatch_frac=mf, duplicate_frac=df,
                                         noise_sigma=0.1, seed=seed))
    path = tmp_path_factory.mktemp("rt") / "d.bin"
    save_dataset(ds, path)
    assert load_dataset(path) == ds


def test_bad_magic(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(generate_paired_dataset(_spec()), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_dataset(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(generate_paired_dataset(_spec()), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        load_dataset(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(generate_paired_dataset(_spec()), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:20])  # header only
    with pytest.raises(TruncatedFileError):
        load_dataset(path)


def test_declared_sizes_checked_before_reading(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(generate_paired_dataset(_spec()), path)
    raw = path.read_bytes()
    for n, dim in ((2**32 - 1, 2**32 - 1), (101, 16), (100, 17)):
        bad = tmp_path / f"bad_{n}_{dim}.bin"
        bad.write_bytes(raw[:8] + struct.pack("<II", n, dim) + raw[16:])
        with pytest.raises(TruncatedFileError, match="header declares"):
            load_dataset(bad)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[:-1])  # one byte short of the corruption flags
    with pytest.raises(TruncatedFileError):
        load_dataset(cut)


@pytest.mark.parametrize("extra", [1, 40, 10_000])
def test_load_rejects_trailing_bytes(tmp_path, extra):
    path = tmp_path / "d.bin"
    save_dataset(generate_paired_dataset(_spec(n=64)), path)
    size = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(bytes(extra))
    with pytest.raises(OverlongFileError, match=f"overlong.*file has {size - 20 + extra}"):
        load_dataset(path)


def test_load_reads_owned_writable_arrays(tmp_path):
    ds = generate_paired_dataset(_spec())
    path = tmp_path / "d.bin"
    save_dataset(ds, path)
    again = load_dataset(path)
    for a, b in zip((again.view_a, again.view_b, again.labels, again.corruption),
                    (ds.view_a, ds.view_b, ds.labels, ds.corruption)):
        assert a.flags.owndata and a.flags.writeable and a.flags.c_contiguous
        assert a.dtype == b.dtype and a.shape == b.shape


def test_load_rejects_zero_dim_and_unknown_corruption_flags(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(generate_paired_dataset(_spec()), path)
    raw = path.read_bytes()
    zero_dim = tmp_path / "zero_dim.bin"  # n=100, dim=0: no views, then labels and flags
    zero_dim.write_bytes(raw[:12] + struct.pack("<I", 0) + raw[16:20] + raw[-5 * 100:])
    with pytest.raises(ValidationError, match="dim must be >= 1"):
        load_dataset(zero_dim)
    for flag in (3, 255):
        bad = tmp_path / f"flag_{flag}.bin"
        bad.write_bytes(raw[:-1] + bytes([flag]))
        with pytest.raises(ValidationError, match="corruption flags"):
            load_dataset(bad)


def _reference_generate(spec: GenSpec) -> PairedDataset:
    """The per-row generator the batched one replaced; it must match byte for byte."""
    spec.validate()
    n_mm = int(spec.mismatch_frac * spec.n + 1e-9)
    n_dup = int(spec.duplicate_frac * spec.n + 1e-9)
    if n_dup > 0 and n_mm + n_dup >= spec.n:
        raise ValidationError("duplicates require at least one clean row")

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    protos = _class_prototypes(rng, spec.num_classes, spec.dim)

    labels = np.arange(spec.n, dtype=np.uint32) % spec.num_classes
    labels = labels[rng.permutation(spec.n)]

    corruption = np.zeros(spec.n, dtype=np.uint8)
    corrupt_ids = rng.permutation(np.arange(1, spec.n))[: n_mm + n_dup] if spec.n > 1 else np.array([], dtype=int)
    corruption[corrupt_ids[:n_mm]] = MISMATCHED
    corruption[corrupt_ids[n_mm:]] = DUPLICATE

    view_a = np.empty((spec.n, spec.dim))
    view_b = np.empty((spec.n, spec.dim))
    sigma = spec.noise_sigma
    clean_so_far: list[int] = []
    for i in range(spec.n):
        flag = corruption[i]
        if flag == DUPLICATE:
            j = clean_so_far[rng.integers(len(clean_so_far))]
            labels[i] = labels[j]
            view_a[i] = view_a[j] + 0.1 * sigma * rng.standard_normal(spec.dim)
            view_b[i] = view_b[j] + 0.1 * sigma * rng.standard_normal(spec.dim)
            continue
        view_a[i] = protos[labels[i]] + sigma * rng.standard_normal(spec.dim)
        if flag == MISMATCHED:
            other = int(rng.integers(spec.num_classes - 1))
            if other >= labels[i]:
                other += 1
            view_b[i] = protos[other] + sigma * rng.standard_normal(spec.dim)
        else:
            view_b[i] = protos[labels[i]] + sigma * rng.standard_normal(spec.dim)
            clean_so_far.append(i)

    return PairedDataset(view_a=view_a.astype(np.float32), view_b=view_b.astype(np.float32),
                         labels=labels, corruption=corruption, num_classes=spec.num_classes)


def _raw(ds: PairedDataset) -> tuple:
    arrays = (ds.view_a, ds.view_b, ds.labels, ds.corruption)
    return (ds.num_classes,) + tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


@st.composite
def _gen_specs(draw):
    n = draw(st.integers(2, 30))
    nc = draw(st.sampled_from([2, min(4, n), n]))
    mf = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    # the largest duplicate_frac that leaves one clean row
    df_max = max(0.0, (n - 1 - int(mf * n + 1e-9)) / n)
    df = draw(st.sampled_from([0.0, df_max]) | st.floats(0, df_max))
    return GenSpec(n=n, dim=draw(st.integers(2, 12)), num_classes=nc, mismatch_frac=mf,
                   duplicate_frac=df, noise_sigma=draw(st.sampled_from([0.0, 0.1]) | st.floats(0, 2)),
                   seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(spec=_gen_specs())
@example(spec=_spec(n=10, mismatch_frac=1.0, duplicate_frac=0.0))
@example(spec=_spec(n=10, mismatch_frac=0.0, duplicate_frac=0.9))
@example(spec=_spec(n=10, mismatch_frac=0.3, duplicate_frac=0.6, noise_sigma=0.0))
@example(spec=_spec(n=10, num_classes=10, mismatch_frac=0.3, duplicate_frac=0.3))
def test_generator_matches_per_row_reference(spec):
    try:
        expected = _reference_generate(spec)
    except ValidationError:
        with pytest.raises(ValidationError):
            generate_paired_dataset(spec)
        return
    assert _raw(generate_paired_dataset(spec)) == _raw(expected)


@pytest.mark.parametrize("n, dim, sha", [
    (2000, 128, "8e93cc0ded2a3fd7c88b0382260110886cc972c40b42406c7cb42f91895fd631"),
    (20000, 32, "aad2fc49e0610d9490ff8425df54e6581e73d476785c1156d6fc44aea330a2d7"),
], ids=["readme-gen-data", "cli-pipeline-seed1"])
def test_corpus_file_bytes_are_pinned(tmp_path, n, dim, sha):
    spec = GenSpec(n=n, dim=dim, num_classes=8, mismatch_frac=0.1, duplicate_frac=0.1,
                   noise_sigma=0.1, seed=1)
    path = tmp_path / "corpus.bin"
    save_dataset(generate_paired_dataset(spec), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def test_generator_memory_peak():
    # The float64 working array plus the two float32 views are about 14.6 MiB;
    # a second full-size array or full-size gathered temporaries would add 5-10.
    spec = GenSpec(n=20000, dim=32, num_classes=8, mismatch_frac=0.1, duplicate_frac=0.1,
                   noise_sigma=0.1, seed=1)
    tracemalloc.start()
    try:
        generate_paired_dataset(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * 2**20
