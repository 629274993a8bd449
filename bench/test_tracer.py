"""Self-tests of the benchmark's tracer.

    python3 -m pytest -q bench/test_tracer.py
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tracer  # noqa: E402
from scanprune import GenSpec, TrainConfig, generate_paired_dataset  # noqa: E402


def test_self_time_arithmetic_on_synthetic_nested_call():
    tracer.self_test()


def test_install_wraps_every_site_and_uninstall_restores_it():
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracer.SITES}
    with tracer.Tracer() as t:
        assert not t.missing
        for (m, a), fn in before.items():
            assert getattr(importlib.import_module(m), a).__wrapped__ is fn
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(m), a) is fn


def test_training_span_is_accounted_for_by_self_times():
    from scanprune import trainer

    ds = generate_paired_dataset(GenSpec(n=64, dim=8, num_classes=4, mismatch_frac=0.1,
                                         duplicate_frac=0.1, noise_sigma=0.1, seed=3))
    cfg = TrainConfig(rho=0.3, tau_cos=3, tau_stop=8, t_td=1.0, batch_size=16, out_dim=4, seed=1)
    with tracer.Tracer() as t:
        result = trainer.train_scan(ds, cfg)
    assert t.calls["trainer.train_scan"] == 1
    assert t.calls["infonce.gradients"] == result.forward_passes
    assert t.calls["encoder.forward_tower"] == 2 * result.forward_passes
    assert t.calls["pruner.batch_candidates"] == sum(
        b for r, b in zip(result.records, result.batches_per_epoch) if r.phase == "Prepare")
    span = t.total_s["trainer.train_scan"]
    assert abs(sum(t.self_s.values()) - span) <= 1e-9 * span


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
