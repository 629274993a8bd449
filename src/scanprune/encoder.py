"""Two-tower encoder: a linear (or one-hidden-layer tanh) map per tower,
L2-normalized outputs, and a learnable log-temperature.

All arithmetic is float64 with fixed-order numpy reductions, so forward passes
are bit-reproducible.  The MLP tanh runs in place on the hidden pre-activations,
and ``normalize_rows`` hands back the row norms it divided by, so a training
step computes the norms once.  The temperature is parameterized in log space
and clamped to [0.01, 100] after every update to prevent collapse or overflow.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

TEMP_MIN = 0.01
TEMP_MAX = 100.0


def _log_bound(limit: float, toward: float) -> float:
    # largest/smallest log value whose exp stays inside the clamp interval
    x = math.log(limit)
    while not (TEMP_MIN <= math.exp(x) <= TEMP_MAX):
        x = math.nextafter(x, toward)
    return x


LOG_TEMP_MIN = _log_bound(TEMP_MIN, math.inf)
LOG_TEMP_MAX = _log_bound(TEMP_MAX, -math.inf)
INIT_TEMP = 1.0 / 0.07
# The weight matrices a model can have, in the order ``init_params`` draws
# them and a checkpoint stores them; the linear model has no hidden layers.
WEIGHTS = ("w_f_hidden", "w_f", "w_g_hidden", "w_g")


class EncoderError(Exception):
    pass


class Tower(enum.Enum):
    F = "f"
    G = "g"


@dataclass
class EncoderParams:
    """Weights of both towers plus the shared log-temperature.

    ``w_f`` / ``w_g`` are the output layers (out_dim x in_features).  For the
    MLP variant ``w_f_hidden`` / ``w_g_hidden`` hold the hidden layers
    (hidden x dim) and the output layers act on tanh activations.
    """

    w_f: np.ndarray
    w_g: np.ndarray
    log_temp: float
    w_f_hidden: np.ndarray | None = None
    w_g_hidden: np.ndarray | None = None

    @property
    def is_mlp(self) -> bool:
        return self.w_f_hidden is not None

    @property
    def dim(self) -> int:
        return (self.w_f_hidden if self.is_mlp else self.w_f).shape[1]

    @property
    def out_dim(self) -> int:
        return self.w_f.shape[0]

    @property
    def temp(self) -> float:
        return math.exp(self.log_temp)

    def clamp_temp(self) -> None:
        self.log_temp = min(max(self.log_temp, LOG_TEMP_MIN), LOG_TEMP_MAX)

    def weights(self):
        """``(name, matrix)`` of each weight matrix the model has, in ``WEIGHTS`` order."""
        for name in WEIGHTS:
            w = getattr(self, name)
            if w is not None:
                yield name, w

    def copy(self) -> "EncoderParams":
        return replace(self, **{name: w.copy() for name, w in self.weights()})


def weight_shapes(dim: int, out_dim: int, hidden: int) -> list[tuple[str, tuple[int, int]]]:
    """``(name, (rows, cols))`` of each weight matrix, in ``WEIGHTS`` order;
    ``hidden`` 0 is the linear model, whose output layers act on the input."""
    hidden_layer, out_layer = (hidden, dim), (out_dim, hidden or dim)
    return [(name, hidden_layer if name.endswith("_hidden") else out_layer)
            for name in WEIGHTS if hidden or not name.endswith("_hidden")]


def init_params(
    dim: int,
    out_dim: int,
    seed: int,
    mlp: bool = False,
    hidden_dim: int | None = None,
) -> EncoderParams:
    """Initialize both towers i.i.d. uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    The temperature starts at 1/0.07, the usual contrastive default.
    """
    if dim < 1 or out_dim < 1:
        raise EncoderError("dim and out_dim must be >= 1")
    hidden = (hidden_dim if hidden_dim is not None else dim) if mlp else 0
    if mlp and hidden < 1:
        raise EncoderError("hidden_dim must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = {}
    for name, (rows, cols) in weight_shapes(dim, out_dim, hidden):
        if rows * cols > np.iinfo(np.intp).max // 8:  # NumPy raises ValueError for such a shape
            raise MemoryError(f"{name} would hold {rows} x {cols} float64, past the address space")
        bound = 1.0 / math.sqrt(cols)
        weights[name] = rng.uniform(-bound, bound, size=(rows, cols))
    return EncoderParams(log_temp=math.log(INIT_TEMP), **weights)


def _tower_weights(params: EncoderParams, tower: Tower):
    if tower is Tower.F:
        return params.w_f_hidden, params.w_f
    return params.w_g_hidden, params.w_g


def forward_tower(params: EncoderParams, tower: Tower, x: np.ndarray):
    """Raw forward pass returning (pre-norm z, hidden activations or None)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise EncoderError(f"input must be batch x {params.dim}, got {x.shape}")
    w_hidden, w_out = _tower_weights(params, tower)
    if w_hidden is None:
        return x @ w_out.T, None
    h = x @ w_hidden.T
    np.tanh(h, out=h)
    return h @ w_out.T, h


def normalize_rows(z: np.ndarray):
    """L2-normalize along the last axis, so a stack of matrices bit for bit as
    each alone; exactly-zero rows are passed through and flagged.

    Returns ``(embeddings, zero_rows, divisor)``.  The divisor is each row's
    norm as ``np.linalg.norm(z, axis=-1)`` computes it, or 1.0 on a zero row;
    the backward pass reuses it.
    """
    out = z * z
    norms = np.add.reduce(out, axis=-1)
    np.sqrt(norms, out=norms)
    zero_rows = norms == 0.0
    norms[zero_rows] = 1.0
    np.divide(z, norms[..., None], out=out)
    return out, zero_rows, norms


def encode(params: EncoderParams, tower: Tower, x: np.ndarray):
    """Unit-norm embeddings of ``x`` under one tower.

    Returns ``(embeddings, zero_rows)`` where ``zero_rows`` flags inputs whose
    pre-normalization output was exactly zero (those rows stay zero).
    """
    emb, zero_rows, _ = normalize_rows(forward_tower(params, tower, x)[0])
    return emb, zero_rows
