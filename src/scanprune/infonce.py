"""Symmetric InfoNCE with per-sample loss disentanglement and analytic gradients.

The batch loss is the mean of the two directional means; the per-sample values
are the primary objects because pruning decisions consume them directly.  The
gradient routine backpropagates through the L2 normalization and the learnable
log-temperature and returns the same LossTable as the forward pass, so callers
never need a second forward for candidate selection.

The loss pass computes each axis's softmax statistics (max, shifted
exponentials, their sum) once; the backward reuses those exponentials as the
softmax, so one training step repeats no reduction over S.  The row norms are
computed once, by one ``normalize_rows`` of both towers stacked, and reused as
the backward divisor.  The step keeps one ``(2, ...)`` array per quantity (the
embeddings, their norms, the maxima and sums of both loss directions, the
embedding gradients), so each elementwise stage is one NumPy call for both
towers or both directions.  The backward builds G and the normalization and
tanh gradients in place.  Reductions call the ufunc's ``reduce`` directly: it
is the C loop ``np.max``/``np.sum`` end in, in the same order, without their
Python wrapper.
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


def similarity_matrix(emb_f: np.ndarray, emb_g: np.ndarray, temp: float) -> np.ndarray:
    """Pairwise dot products divided by the temperature."""
    emb_f = np.asarray(emb_f, dtype=np.float64)
    emb_g = np.asarray(emb_g, dtype=np.float64)
    if emb_f.shape != emb_g.shape or emb_f.ndim != 2:
        raise InfoNCEError(f"embedding shapes must agree, got {emb_f.shape} vs {emb_g.shape}")
    if temp <= 0.0:
        raise InfoNCEError("temperature must be positive")
    return (emb_f @ emb_g.T) / temp


def _loss_stats(S: np.ndarray):
    """LossTable of ``S`` plus its softmax statistics ``(e_row, e_col, Z)``.

    ``M`` holds the row maxima at ``[0]`` and the column maxima at ``[1]``;
    ``e_row = exp(S - M[0][:, None])`` and ``e_col = exp(S - M[1])``, and
    ``Z`` holds their row and column sums.  The softmaxes are ``e_row /
    Z[0][:, None]`` and ``e_col / Z[1]``; both ``e`` arrays are fresh, so the
    caller may divide them in place.
    """
    M = np.empty((2, S.shape[0]))
    Z = np.empty_like(M)
    np.maximum.reduce(S, axis=1, out=M[0])
    np.maximum.reduce(S, axis=0, out=M[1])
    e_row = S - M[0][:, None]
    e_col = S - M[1]
    np.exp(e_row, out=e_row)
    np.exp(e_col, out=e_col)
    np.add.reduce(e_row, axis=1, out=Z[0])
    np.add.reduce(e_col, axis=0, out=Z[1])
    L = np.log(Z)
    L += M
    L -= S.diagonal()
    return LossTable(fg=L[0], gf=L[1]), e_row, e_col, Z


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
    return _loss_stats(S)[0]


def batch_loss(table: LossTable) -> float:
    if len(table) == 0:
        raise InfoNCEError("empty loss table")
    return float((np.mean(table.fg) + np.mean(table.gf)) / 2.0)


def _backprop_tanh(dz: np.ndarray, w_out: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``(dz @ w_out) * (1 - h*h)``; overwrites the activations ``h``."""
    dh = dz @ w_out
    h *= h
    np.subtract(1.0, h, out=h)
    dh *= h
    return dh


def gradients(params: EncoderParams, batch_a: np.ndarray, batch_b: np.ndarray):
    """Analytic gradients of the batch loss plus the per-sample LossTable.

    The gradients are an ``EncoderParams`` shaped like ``params``, each field
    the derivative by that parameter.  One forward pass serves both training
    and pruning-metric extraction.
    """
    batch_a = np.asarray(batch_a, dtype=np.float64)
    batch_b = np.asarray(batch_b, dtype=np.float64)
    if batch_a.shape != batch_b.shape:
        raise InfoNCEError("view batches must have identical shape")
    b = batch_a.shape[0]
    if b == 0:
        raise InfoNCEError("empty batch")

    # Every (2, ...) array below holds tower F at [0] and G at [1].
    z_f, h_f = forward_tower(params, Tower.F, batch_a)
    z_g, h_g = forward_tower(params, Tower.G, batch_b)
    E, zero_rows, N = normalize_rows(np.stack((z_f, z_g)))

    temp = params.temp
    S = E[0] @ E[1].T
    S /= temp
    table, p_row, p_col, Z = _loss_stats(S)

    # d(batch_loss)/dS: softmax rows and columns, diagonal targets, mean of
    # both directional means halved.
    p_row /= Z[0][:, None]
    p_col /= Z[1]
    G = p_row
    G += p_col
    G.reshape(-1)[::b + 1] -= 2.0
    G /= 2.0 * b

    # S scales as exp(-log_temp); G * S goes into p_col, free once G holds the sum
    d_log_temp = float(-np.add.reduce(np.multiply(G, S, out=p_col), axis=None))

    # Back through the temperature and both towers' row normalizations:
    # dz = (d - e * <d, e>) / norm, zero on the rows normalize_rows flagged.
    D = np.empty_like(E)
    np.matmul(G, E[1], out=D[0])
    np.matmul(G.T, E[0], out=D[1])
    D /= temp
    T = D * E
    inner = np.add.reduce(T, axis=2, keepdims=True)
    np.multiply(E, inner, out=T)
    D -= T
    D /= N[:, :, None]
    if np.count_nonzero(zero_rows):
        D[zero_rows] = 0.0
    dz_f, dz_g = D

    if params.is_mlp:
        g_wf = dz_f.T @ h_f
        g_wf_hidden = _backprop_tanh(dz_f, params.w_f, h_f).T @ batch_a
        g_wg = dz_g.T @ h_g
        g_wg_hidden = _backprop_tanh(dz_g, params.w_g, h_g).T @ batch_b
        return EncoderParams(w_f=g_wf, w_g=g_wg, log_temp=d_log_temp,
                             w_f_hidden=g_wf_hidden, w_g_hidden=g_wg_hidden), table
    return EncoderParams(w_f=dz_f.T @ batch_a, w_g=dz_g.T @ batch_b, log_temp=d_log_temp), table
