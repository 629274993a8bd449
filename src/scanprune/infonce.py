"""Symmetric InfoNCE with per-sample loss disentanglement and analytic gradients.

The batch loss is the mean of the two directional means; the per-sample values
are the primary objects because pruning decisions consume them directly.  The
gradient routine backpropagates through the L2 normalization and the learnable
log-temperature and returns the same LossTable as the forward pass, so callers
never need a second forward for candidate selection.

The loss pass computes each axis's softmax statistics (max, shifted
exponentials, their sum) once; the backward reuses those exponentials as the
softmax, so one training step repeats no reduction over S.  Each tower's row
norms are computed once, in the forward ``normalize_rows``, and reused as the
backward divisor.  The backward builds G and the normalization and tanh
gradients in place.  Reductions call the ufunc's ``reduce`` directly: it is the
C loop ``np.max``/``np.sum`` end in, in the same order, without their Python
wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scanprune.encoder import EncoderParams, Tower, forward_tower, normalize_rows


class InfoNCEError(Exception):
    pass


@dataclass(frozen=True)
class LossTable:
    """Per-sample losses in both directions for one batch."""

    fg: np.ndarray  # row-wise: anchor in tower F
    gf: np.ndarray  # column-wise: anchor in tower G

    def __len__(self) -> int:
        return self.fg.shape[0]


@dataclass
class Gradients:
    w_f: np.ndarray
    w_g: np.ndarray
    log_temp: float
    w_f_hidden: np.ndarray | None = None
    w_g_hidden: np.ndarray | None = None


def similarity_matrix(emb_f: np.ndarray, emb_g: np.ndarray, temp: float) -> np.ndarray:
    """Pairwise dot products divided by the temperature."""
    emb_f = np.asarray(emb_f, dtype=np.float64)
    emb_g = np.asarray(emb_g, dtype=np.float64)
    if emb_f.shape != emb_g.shape or emb_f.ndim != 2:
        raise InfoNCEError(f"embedding shapes must agree, got {emb_f.shape} vs {emb_g.shape}")
    if temp <= 0.0:
        raise InfoNCEError("temperature must be positive")
    return (emb_f @ emb_g.T) / temp


def _softmax_stats(S: np.ndarray, axis: int):
    """Softmax statistics of ``S`` along ``axis``: ``(logsumexp, e, s)``.

    ``e = exp(S - max)`` is a fresh array and ``s`` its keepdims sum, so the
    softmax is ``e / s`` and the caller may divide ``e`` in place.
    """
    if S.size == 0:
        raise InfoNCEError("empty similarity matrix")
    m = np.maximum.reduce(S, axis=axis, keepdims=True)
    e = S - m
    np.exp(e, out=e)
    s = np.add.reduce(e, axis=axis, keepdims=True)
    return (m + np.log(s)).squeeze(axis), e, s


def _loss_pass(S: np.ndarray):
    """LossTable of ``S`` plus the row and column ``(e, s)`` softmax statistics."""
    diag = S.diagonal()
    lse_row, e_row, s_row = _softmax_stats(S, axis=1)
    lse_col, e_col, s_col = _softmax_stats(S, axis=0)
    table = LossTable(fg=lse_row - diag, gf=lse_col - diag)
    return table, (e_row, s_row), (e_col, s_col)


def per_sample_losses(S: np.ndarray) -> LossTable:
    """Disentangled cross-entropy at the diagonal, both directions.

    fg[i] = logsumexp(S[i, :]) - S[i, i]; gf[j] works over column j.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InfoNCEError("similarity matrix must be square")
    if S.shape[0] == 0:
        empty = np.zeros(0)
        return LossTable(fg=empty, gf=empty.copy())
    return _loss_pass(S)[0]


def batch_loss(table: LossTable) -> float:
    if len(table) == 0:
        raise InfoNCEError("empty loss table")
    return float((np.mean(table.fg) + np.mean(table.gf)) / 2.0)


def _backprop_normalize(d_emb: np.ndarray, emb: np.ndarray, safe: np.ndarray, zero_rows: np.ndarray) -> np.ndarray:
    """Pull gradients back through row-wise L2 normalization, in place in ``d_emb``.

    ``safe`` is the divisor ``normalize_rows`` returned with ``emb``.
    """
    t = d_emb * emb
    inner = np.add.reduce(t, axis=1, keepdims=True)
    np.multiply(emb, inner, out=t)
    d_emb -= t
    d_emb /= safe[:, None]
    if np.count_nonzero(zero_rows):
        d_emb[zero_rows] = 0.0
    return d_emb


def _backprop_tanh(dz: np.ndarray, w_out: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``(dz @ w_out) * (1 - h*h)``; overwrites the activations ``h``."""
    dh = dz @ w_out
    h *= h
    np.subtract(1.0, h, out=h)
    dh *= h
    return dh


def gradients(params: EncoderParams, batch_a: np.ndarray, batch_b: np.ndarray):
    """Analytic gradients of the batch loss plus the per-sample LossTable.

    One forward pass serves both training and pruning-metric extraction.
    """
    batch_a = np.asarray(batch_a, dtype=np.float64)
    batch_b = np.asarray(batch_b, dtype=np.float64)
    if batch_a.shape != batch_b.shape:
        raise InfoNCEError("view batches must have identical shape")
    b = batch_a.shape[0]

    z_f, h_f = forward_tower(params, Tower.F, batch_a)
    z_g, h_g = forward_tower(params, Tower.G, batch_b)
    e_f, zero_f, safe_f = normalize_rows(z_f)
    e_g, zero_g, safe_g = normalize_rows(z_g)

    temp = params.temp
    S = e_f @ e_g.T
    S /= temp
    table, (p_row, s_row), (p_col, s_col) = _loss_pass(S)

    # d(batch_loss)/dS: softmax rows and columns, diagonal targets, mean of
    # both directional means halved.
    p_row /= s_row
    p_col /= s_col
    G = p_row
    G += p_col
    G.flat[::b + 1] -= 2.0
    G /= 2.0 * b

    # S scales as exp(-log_temp); G * S goes into p_col, free once G holds the sum
    d_log_temp = float(-np.add.reduce(np.multiply(G, S, out=p_col), axis=None))

    d_ef = G @ e_g
    d_ef /= temp
    d_eg = G.T @ e_f
    d_eg /= temp
    dz_f = _backprop_normalize(d_ef, e_f, safe_f, zero_f)
    dz_g = _backprop_normalize(d_eg, e_g, safe_g, zero_g)

    if params.is_mlp:
        g_wf = dz_f.T @ h_f
        g_wf_hidden = _backprop_tanh(dz_f, params.w_f, h_f).T @ batch_a
        g_wg = dz_g.T @ h_g
        g_wg_hidden = _backprop_tanh(dz_g, params.w_g, h_g).T @ batch_b
        grads = Gradients(w_f=g_wf, w_g=g_wg, log_temp=d_log_temp,
                          w_f_hidden=g_wf_hidden, w_g_hidden=g_wg_hidden)
    else:
        grads = Gradients(w_f=dz_f.T @ batch_a, w_g=dz_g.T @ batch_b, log_temp=d_log_temp)
    return grads, table
