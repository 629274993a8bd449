import numpy as np
import pytest

from scanprune import init_params
from scanprune.encoder import (
    INIT_TEMP,
    TEMP_MAX,
    TEMP_MIN,
    EncoderError,
    EncoderParams,
    Tower,
    encode,
    forward_tower,
    normalize_rows,
)


def test_init_shapes_and_temperature():
    p = init_params(16, 8, seed=0)
    assert p.w_f.shape == (8, 16) and p.w_g.shape == (8, 16)
    assert p.temp == pytest.approx(1.0 / 0.07)
    assert abs(p.temp - 14.2857) < 1e-3
    assert INIT_TEMP == pytest.approx(1.0 / 0.07)


def test_init_deterministic():
    a = init_params(16, 8, seed=5)
    b = init_params(16, 8, seed=5)
    assert np.array_equal(a.w_f, b.w_f) and np.array_equal(a.w_g, b.w_g)
    c = init_params(16, 8, seed=6)
    assert not np.array_equal(a.w_f, c.w_f)


def test_init_bounds_scalar_case():
    p = init_params(1, 1, seed=3)
    assert -1.0 <= p.w_f[0, 0] <= 1.0
    assert -1.0 <= p.w_g[0, 0] <= 1.0
    big = init_params(16, 4, seed=1)
    bound = 1.0 / np.sqrt(16)
    assert np.abs(big.w_f).max() <= bound and np.abs(big.w_g).max() <= bound


def test_encode_identity_weights_known_vector():
    eye = np.eye(4)
    p = EncoderParams(w_f=eye.copy(), w_g=eye.copy(), log_temp=0.0)
    x = np.array([[3.0, 4.0, 0.0, 0.0]])
    emb, flags = encode(p, Tower.F, x)
    assert np.allclose(emb, [[0.6, 0.8, 0.0, 0.0]])
    assert not flags.any()


def test_encode_zero_row_flagged():
    p = init_params(4, 4, seed=0)
    x = np.zeros((1, 4))
    emb, flags = encode(p, Tower.F, x)
    assert np.array_equal(emb, np.zeros((1, 4)))
    assert flags[0]


def test_encode_rows_unit_norm():
    p = init_params(12, 6, seed=2)
    x = np.random.default_rng(0).standard_normal((50, 12))
    for tower in (Tower.F, Tower.G):
        emb, flags = encode(p, tower, x)
        assert np.abs(np.linalg.norm(emb, axis=1) - 1.0).max() < 1e-9
        assert not flags.any()


def test_encode_positive_scale_invariance():
    p = init_params(8, 4, seed=9)
    x = np.random.default_rng(1).standard_normal((10, 8))
    base, _ = encode(p, Tower.G, x)
    for c in (0.5, 3.0, 1e6):
        scaled, _ = encode(p, Tower.G, c * x)
        assert np.abs(scaled - base).max() < 1e-12


def test_encode_dimension_mismatch():
    p = init_params(8, 4, seed=0)
    with pytest.raises(EncoderError):
        encode(p, Tower.F, np.zeros((2, 5)))


def test_temperature_clamped():
    p = init_params(4, 2, seed=0)
    p.log_temp = 50.0
    p.clamp_temp()
    assert p.temp == pytest.approx(TEMP_MAX)
    assert TEMP_MIN <= p.temp <= TEMP_MAX
    p.log_temp = -50.0
    p.clamp_temp()
    assert p.temp == pytest.approx(TEMP_MIN)
    assert TEMP_MIN <= p.temp <= TEMP_MAX
    assert (TEMP_MIN, TEMP_MAX) == (0.01, 100.0)


def test_mlp_params_shapes():
    p = init_params(10, 3, seed=4, mlp=True, hidden_dim=7)
    assert p.is_mlp
    assert p.w_f_hidden.shape == (7, 10) and p.w_g_hidden.shape == (7, 10)
    assert p.w_f.shape == (3, 7) and p.w_g.shape == (3, 7)
    emb, _ = encode(p, Tower.F, np.random.default_rng(0).standard_normal((5, 10)))
    assert emb.shape == (5, 3)
    assert np.abs(np.linalg.norm(emb, axis=1) - 1.0).max() < 1e-9


def test_params_copy_is_deep():
    p = init_params(4, 2, seed=0)
    q = p.copy()
    q.w_f[0, 0] += 1.0
    assert p.w_f[0, 0] != q.w_f[0, 0]


def test_normalize_rows_divisor_is_the_row_norm_bit_for_bit():
    rng = np.random.default_rng(2)
    for shape in ((1, 1), (7, 3), (64, 8), (128, 33)):
        z = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3, size=(shape[0], 1))
        for zeroed in (slice(0, 0), slice(None, None, 3)):
            z[zeroed] = 0.0
            emb, zero_rows, divisor = normalize_rows(z)
            norms = np.linalg.norm(z, axis=1)
            assert np.array_equal(zero_rows, norms == 0.0)
            assert divisor[~zero_rows].tobytes() == norms[~zero_rows].tobytes()
            assert np.all(divisor[zero_rows] == 1.0)
            assert emb.tobytes() == (z / divisor[:, None]).tobytes()


def test_normalize_rows_of_a_stack_equals_each_matrix_alone_bit_for_bit():
    # the gradient step normalizes both towers as one (2, b, o) stack
    rng = np.random.default_rng(4)
    for b, o in ((1, 1), (7, 3), (64, 8), (150, 9), (33, 17)):
        z = rng.standard_normal((2, b, o)) * rng.uniform(1e-3, 1e3, size=(2, b, 1))
        z[0, ::4] = 0.0
        z[1, 1::3] = 0.0
        z0 = z.copy()
        emb, zero_rows, norms = normalize_rows(z)
        assert emb.shape == z.shape and zero_rows.shape == norms.shape == (2, b)
        for t in (0, 1):
            want_emb, want_zero, want_norms = normalize_rows(z[t])
            assert emb[t].tobytes() == want_emb.tobytes()
            assert norms[t].tobytes() == want_norms.tobytes()
            assert np.array_equal(zero_rows[t], want_zero)
        assert zero_rows.any()
        assert z.tobytes() == z0.tobytes()


def test_mlp_hidden_activations_are_tanh_exactly():
    p = init_params(16, 4, seed=3, mlp=True, hidden_dim=32)
    x = np.random.default_rng(5).standard_normal((12, 16))
    for tower, w_hidden, w_out in ((Tower.F, p.w_f_hidden, p.w_f), (Tower.G, p.w_g_hidden, p.w_g)):
        z, h = forward_tower(p, tower, x)
        ref_h = np.tanh(x @ w_hidden.T)
        assert h.tobytes() == ref_h.tobytes()
        assert z.tobytes() == (ref_h @ w_out.T).tobytes()
