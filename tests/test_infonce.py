import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanprune import batch_loss, gradients, init_params, per_sample_losses
from scanprune.encoder import (
    LOG_TEMP_MAX,
    LOG_TEMP_MIN,
    EncoderParams,
    Tower,
    encode,
    forward_tower,
    normalize_rows,
)
from scanprune.infonce import InfoNCEError, similarity_matrix


def _monolithic_loss(S):
    """Eq. 1 computed directly, without per-sample disentanglement."""
    b = S.shape[0]
    fg = -np.mean([S[i, i] - math.log(np.sum(np.exp(S[i, :]))) for i in range(b)])
    gf = -np.mean([S[j, j] - math.log(np.sum(np.exp(S[:, j]))) for j in range(b)])
    return (fg + gf) / 2.0


def test_similarity_identity_rows():
    eye = np.eye(2)
    assert np.allclose(similarity_matrix(eye, eye, 1.0), eye)
    assert np.allclose(similarity_matrix(eye, eye, 0.5), 2 * eye)


def test_similarity_cauchy_schwarz_bound():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((20, 5))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    g = rng.standard_normal((20, 5))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    for temp in (0.07, 1.0, 14.0):
        S = similarity_matrix(f, g, temp)
        assert np.abs(S).max() <= 1.0 / temp + 1e-12


def test_similarity_errors():
    eye = np.eye(2)
    with pytest.raises(InfoNCEError):
        similarity_matrix(eye, np.eye(3), 1.0)
    with pytest.raises(InfoNCEError):
        similarity_matrix(eye, eye, 0.0)


def test_per_sample_losses_known_values():
    t = per_sample_losses(np.eye(2))
    want = math.log(1 + math.e ** -1)
    assert np.allclose(t.fg, want, atol=1e-12) and np.allclose(t.gf, want, atol=1e-12)

    t = per_sample_losses(np.zeros((4, 4)))
    assert np.allclose(t.fg, math.log(4)) and np.allclose(t.gf, math.log(4))

    t = per_sample_losses(10 * np.eye(2))
    assert np.allclose(t.fg, math.log(1 + math.e ** -10))
    assert t.fg[0] == pytest.approx(4.54e-5, rel=1e-2)


def test_per_sample_losses_overflow_safe():
    S = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    t = per_sample_losses(S)
    assert np.isfinite(t.fg).all() and np.isfinite(t.gf).all()
    assert (t.fg >= 0).all() and (t.gf >= 0).all()


def test_batch_loss_values():
    t = per_sample_losses(np.eye(2))
    assert batch_loss(t) == pytest.approx(math.log(1 + math.e ** -1))
    t4 = per_sample_losses(np.zeros((4, 4)))
    assert batch_loss(t4) == pytest.approx(math.log(4))


def test_batch_loss_empty_errors():
    t = per_sample_losses(np.zeros((0, 0)))
    with pytest.raises(InfoNCEError):
        batch_loss(t)


def test_disentanglement_matches_monolithic():
    rng = np.random.default_rng(3)
    for _ in range(100):
        b = int(rng.integers(2, 30))
        S = rng.standard_normal((b, b)) * rng.uniform(0.1, 5)
        t = per_sample_losses(S)
        assert abs(batch_loss(t) - _monolithic_loss(S)) < 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    p = init_params(6, 3, seed=1)
    a = rng.standard_normal((8, 6))
    b = rng.standard_normal((8, 6))
    _, base = gradients(p, a, b)
    perm = rng.permutation(8)
    _, shuf = gradients(p, a[perm], b[perm])
    assert np.allclose(shuf.fg, base.fg[perm]) and np.allclose(shuf.gf, base.gf[perm])
    assert batch_loss(shuf) == pytest.approx(batch_loss(base), abs=1e-12)


def test_identical_pairs_uniform_softmax():
    p = init_params(5, 3, seed=2)
    row = np.random.default_rng(5).standard_normal(5)
    batch = np.tile(row, (4, 1))
    grads, table = gradients(p, batch, batch)
    assert batch_loss(table) == pytest.approx(math.log(4), abs=1e-12)
    assert math.isfinite(grads.log_temp)


def _fd_check(p, a, b, h=1e-5):
    """Central finite differences against every analytic gradient coordinate."""
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
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, abs(fd - g[idx]) / denom)
    q = p.copy(); q.log_temp += h
    r = p.copy(); r.log_temp -= h
    fd = (loss_at(q) - loss_at(r)) / (2 * h)
    denom = max(abs(fd), abs(grads.log_temp), 1e-8)
    worst = max(worst, abs(fd - grads.log_temp) / denom)
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(10):
        mlp = trial % 2 == 1
        p = init_params(4, 2, seed=trial, mlp=mlp, hidden_dim=3 if mlp else None)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        assert _fd_check(p, a, b) < 1e-4


def test_saturated_diagonal_zero_gradient():
    # orthonormal embeddings at the minimum clamp temperature saturate the
    # softmax one-hot on the diagonal; all gradients collapse
    p = EncoderParams(w_f=np.eye(3), w_g=np.eye(3), log_temp=math.log(0.01))
    batch = np.eye(3)
    grads, table = gradients(p, batch, batch)
    assert np.linalg.norm(grads.w_f) < 1e-10
    assert np.linalg.norm(grads.w_g) < 1e-10
    assert abs(grads.log_temp) < 1e-10
    assert (table.fg >= 0).all()


def test_losses_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        b = int(rng.integers(2, 16))
        S = rng.standard_normal((b, b)) * 3
        t = per_sample_losses(S)
        assert (t.fg >= 0).all() and (t.gf >= 0).all()


def test_loss_table_reused_from_forward_pass():
    p = init_params(6, 3, seed=8)
    rng = np.random.default_rng(10)
    a = rng.standard_normal((5, 6))
    b = rng.standard_normal((5, 6))
    _, table = gradients(p, a, b)
    ef, _ = encode(p, Tower.F, a)
    eg, _ = encode(p, Tower.G, b)
    expect = per_sample_losses(similarity_matrix(ef, eg, p.temp))
    assert np.allclose(table.fg, expect.fg, atol=1e-12)
    assert np.allclose(table.gf, expect.gf, atol=1e-12)


def _reference_gradients(p, a, b):
    """The gradient step composed as separate passes: logsumexp for the loss
    table, two more softmax passes over S, ``2 * eye`` and an out-of-place
    backward.  ``gradients`` must reproduce it bit for bit."""

    def logsumexp(x, axis):
        m = np.max(x, axis=axis, keepdims=True)
        return (m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))).squeeze(axis)

    def softmax(x, axis):
        m = np.max(x, axis=axis, keepdims=True)
        e = np.exp(x - m)
        return e / np.sum(e, axis=axis, keepdims=True)

    def backprop_normalize(d_emb, emb, z, zero_rows):
        safe = np.where(zero_rows, 1.0, np.linalg.norm(z, axis=1))
        inner = np.sum(d_emb * emb, axis=1, keepdims=True)
        dz = (d_emb - emb * inner) / safe[:, None]
        dz[zero_rows] = 0.0
        return dz

    n = a.shape[0]
    z_f, h_f = forward_tower(p, Tower.F, a)
    z_g, h_g = forward_tower(p, Tower.G, b)
    e_f, zero_f = normalize_rows(z_f)[:2]
    e_g, zero_g = normalize_rows(z_g)[:2]
    S = (e_f @ e_g.T) / p.temp
    diag = np.diag(S)
    G = (softmax(S, 1) + softmax(S, 0) - 2.0 * np.eye(n)) / (2.0 * n)
    want = {"fg": logsumexp(S, 1) - diag, "gf": logsumexp(S, 0) - diag,
            "log_temp": float(-np.sum(G * S))}
    dz_f = backprop_normalize((G @ e_g) / p.temp, e_f, z_f, zero_f)
    dz_g = backprop_normalize((G.T @ e_f) / p.temp, e_g, z_g, zero_g)
    if p.is_mlp:
        want["w_f"] = dz_f.T @ h_f
        want["w_f_hidden"] = ((dz_f @ p.w_f) * (1.0 - h_f * h_f)).T @ a
        want["w_g"] = dz_g.T @ h_g
        want["w_g_hidden"] = ((dz_g @ p.w_g) * (1.0 - h_g * h_g)).T @ b
    else:
        want["w_f"] = dz_f.T @ a
        want["w_g"] = dz_g.T @ b
    return S, want


@pytest.mark.parametrize("mlp", [False, True])
@pytest.mark.parametrize("n,dim,out_dim,hidden", [(7, 6, 3, 5), (64, 32, 8, 48)])
def test_gradients_bit_identical_to_reference(mlp, n, dim, out_dim, hidden):
    rng = np.random.default_rng(11)
    for seed in range(4):
        p = init_params(dim, out_dim, seed=seed, mlp=mlp, hidden_dim=hidden if mlp else None)
        p.log_temp = float(rng.uniform(math.log(0.01), math.log(100.0)))
        a = rng.standard_normal((n, dim))
        b = rng.standard_normal((n, dim))
        if seed == 3:  # zero inputs give zero-norm embedding rows in both towers
            a[2] = 0.0
            b[n - 1] = 0.0
        a0, b0, p0 = a.copy(), b.copy(), p.copy()

        grads, table = gradients(p, a, b)
        S, want = _reference_gradients(p, a, b)

        names = ["w_f", "w_g"] + (["w_f_hidden", "w_g_hidden"] if mlp else [])
        for name in names:
            assert np.array_equal(getattr(grads, name), want[name]), name
        assert grads.log_temp == want["log_temp"]
        assert np.array_equal(table.fg, want["fg"]) and np.array_equal(table.gf, want["gf"])
        alone = per_sample_losses(S)
        assert np.array_equal(alone.fg, want["fg"]) and np.array_equal(alone.gf, want["gf"])

        assert np.array_equal(a, a0) and np.array_equal(b, b0)
        for name in names:
            assert np.array_equal(getattr(p, name), getattr(p0, name)), name
        assert p.log_temp == p0.log_temp


@st.composite
def _step_cases(draw):
    b = draw(st.integers(1, 150))
    zeroed = st.lists(st.integers(0, b - 1), max_size=3)
    return dict(b=b, dim=draw(st.integers(1, 40)), out_dim=draw(st.integers(1, 16)),
                hidden=draw(st.one_of(st.none(), st.integers(1, 64))),
                log_temp=draw(st.floats(LOG_TEMP_MIN, LOG_TEMP_MAX)),
                zero_a=draw(zeroed), zero_b=draw(zeroed), seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(case=_step_cases())
def test_gradients_bit_identical_to_reference_over_shapes(case):
    # b crosses the 8- and 128-element blocks of NumPy's pairwise row and
    # column sums; out_dim crosses 8 for the norm sums.
    mlp = case["hidden"] is not None
    p = init_params(case["dim"], case["out_dim"], seed=case["seed"], mlp=mlp, hidden_dim=case["hidden"])
    p.log_temp = case["log_temp"]
    rng = np.random.default_rng(case["seed"])
    a = rng.standard_normal((case["b"], case["dim"]))
    b = rng.standard_normal((case["b"], case["dim"]))
    a[case["zero_a"]] = 0.0
    b[case["zero_b"]] = 0.0

    grads, table = gradients(p, a, b)
    _, want = _reference_gradients(p, a, b)

    for name in ["w_f", "w_g"] + (["w_f_hidden", "w_g_hidden"] if mlp else []):
        assert getattr(grads, name).tobytes() == want[name].tobytes(), name
    assert grads.log_temp == want["log_temp"]
    assert table.fg.tobytes() == want["fg"].tobytes() and table.gf.tobytes() == want["gf"].tobytes()


def test_gradients_empty_batch_errors():
    for mlp in (False, True):
        p = init_params(4, 2, seed=0, mlp=mlp, hidden_dim=3 if mlp else None)
        with pytest.raises(InfoNCEError):
            gradients(p, np.zeros((0, 4)), np.zeros((0, 4)))
