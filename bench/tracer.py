"""Span tracer that wraps the library's public functions from outside.

The library modules import their collaborators by name (``from
scanprune.infonce import gradients``), so a wrapper only takes effect where
the name is looked up.  ``SITES`` lists every (module, attribute) lookup site
the workloads reach, each mapped to the layer name it is reported under.

Each span's self time is its duration minus the durations of its direct
child spans.  The tracer keeps running totals rather than a span log, so its
cost per call is two clock reads and a few additions.
"""

from __future__ import annotations

import importlib
import time

SITES = (
    # Public names as the benchmark itself calls them.
    ("scanprune.dataset", "generate_paired_dataset", "dataset.generate_paired_dataset"),
    ("scanprune.dataset", "save_dataset", "dataset.save_dataset"),
    ("scanprune.dataset", "load_dataset", "dataset.load_dataset"),
    ("scanprune.trainer", "train_scan", "trainer.train_scan"),
    ("scanprune.trainer", "train_full", "trainer.train_full"),
    ("scanprune.trainer", "train_random_baseline", "trainer.train_random_baseline"),
    ("scanprune.trainer", "train_static_coreset", "trainer.train_static_coreset"),
    ("scanprune.trainer", "linear_probe", "trainer.linear_probe"),
    ("scanprune.trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("scanprune.trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("scanprune.coreset", "export_coreset", "coreset.export_coreset"),
    # Names the trainer's loops look up in their own module.
    ("scanprune.trainer", "gradients", "infonce.gradients"),
    ("scanprune.trainer", "batch_candidates", "pruner.batch_candidates"),
    ("scanprune.trainer", "accumulate", "pruner.accumulate"),
    ("scanprune.trainer", "sample_pruned", "pruner.sample_pruned"),
    ("scanprune.trainer", "active_indices", "pruner.active_indices"),
    # The gradient step's forward pass and loss table.
    ("scanprune.infonce", "forward_tower", "encoder.forward_tower"),
    ("scanprune.infonce", "normalize_rows", "encoder.normalize_rows"),
    ("scanprune.infonce", "per_sample_losses", "infonce.per_sample_losses"),
    # encode(), which linear_probe calls.
    ("scanprune.encoder", "forward_tower", "encoder.forward_tower"),
    ("scanprune.encoder", "normalize_rows", "encoder.normalize_rows"),
    # The CLI commands' library calls.
    ("scanprune.cli", "generate_paired_dataset", "dataset.generate_paired_dataset"),
    ("scanprune.cli", "save_dataset", "dataset.save_dataset"),
    ("scanprune.cli", "load_dataset", "dataset.load_dataset"),
    ("scanprune.cli", "train_scan", "trainer.train_scan"),
    ("scanprune.cli", "train_full", "trainer.train_full"),
    ("scanprune.cli", "train_random_baseline", "trainer.train_random_baseline"),
    ("scanprune.cli", "train_static_coreset", "trainer.train_static_coreset"),
    ("scanprune.cli", "linear_probe", "trainer.linear_probe"),
    ("scanprune.cli", "save_checkpoint", "trainer.save_checkpoint"),
    ("scanprune.cli", "load_checkpoint", "trainer.load_checkpoint"),
    ("scanprune.cli", "export_coreset", "coreset.export_coreset"),
)


def gradient_flops(args, kwargs) -> float:
    """Matmul FLOPs of one ``gradients(params, batch_a, batch_b)`` call.

    Per tower: the forward matmuls, ``dz.T @ h`` and, for the MLP,
    ``dz @ W`` and ``dh.T @ x``; shared: ``S = e_f @ e_g.T`` and the two
    ``G @ e`` products.  Elementwise work is not counted.
    """
    params = args[0] if args else kwargs["params"]
    batch_a = args[1] if len(args) > 1 else kwargs["batch_a"]
    b, d = batch_a.shape
    o = params.w_f.shape[0]
    if params.w_f_hidden is not None:
        h = params.w_f_hidden.shape[0]
        per_tower = 2 * b * d * h + 2 * b * h * o + 2 * o * b * h + 2 * b * o * h + 2 * h * b * d
    else:
        per_tower = 2 * b * d * o + 2 * o * b * d
    return float(2 * per_tower + 3 * 2 * b * b * o)


class Tracer:
    """Accumulates calls, total and self seconds per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.flops = 0.0
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, flops=None):
        def traced(*args, **kwargs):
            if flops is not None:
                self.flops += flops(args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def span(self, name: str):
        return _Span(self, name)

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, dur: float) -> None:
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span exited out of order")
        name, child = frame
        own = dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if self._stack:
            self._stack[-1][1] += dur

    def install(self, sites=SITES) -> None:
        """Replace every lookup site with a wrapper; missing names are recorded."""
        for module_name, attr, span_name in sites:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            flops = gradient_flops if span_name == "infonce.gradients" else None
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(span_name, fn, flops))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class _Span:
    __slots__ = ("tracer", "name", "frame", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._enter(self.name)
        self.t0 = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame, self.tracer.clock() - self.t0)
        return False


def self_test() -> None:
    """Check the self-time arithmetic on a synthetic nested call.

    A fake clock advances one unit per read, so every duration is exact:
    outer(inner(leaf), leaf) must give outer, inner and leaf the self times
    worked out by hand, and the self times under the root must add up to the
    root's duration.
    """
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def inner():
        return wrapped_leaf() + 1

    def outer():
        return wrapped_inner() + wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_inner = tracer.wrap("inner", inner)
    wrapped_outer = tracer.wrap("outer", outer)
    # clock reads: outer 0, inner 1, leaf 2-3, inner end 4, leaf 5-6, outer end 7
    if wrapped_outer() != 3:
        raise AssertionError("wrapped call changed the result")
    want = {
        "outer": (1, 7.0, 7.0 - 3.0 - 1.0),
        "inner": (1, 3.0, 3.0 - 1.0),
        "leaf": (2, 2.0, 2.0),
    }
    for name, (calls, total, own) in want.items():
        got = (tracer.calls[name], tracer.total_s[name], tracer.self_s[name])
        if got != (calls, total, own):
            raise AssertionError(f"span {name}: got {got}, want {(calls, total, own)}")
    if sum(tracer.self_s.values()) != tracer.total_s["outer"]:
        raise AssertionError(f"self times do not add up to the root span: {tracer.self_s}")
    if tracer._stack:
        raise AssertionError("span stack not empty after the call returned")
