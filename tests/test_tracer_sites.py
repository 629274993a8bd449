"""The benchmark tracer's sites are the ones the library calls.

``bench/tracer.py`` wraps each library function at the name its caller looks
it up by.  Its own test checks only that the names exist and counts
``forward_tower``; these run the README workflow and a training run under the
tracer and check that the I/O spans and ``normalize_rows`` are hit.
"""

import sys
from pathlib import Path

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import tracer  # noqa: E402
from scanprune import GenSpec, TrainConfig, generate_paired_dataset, trainer  # noqa: E402
from scanprune.cli import main  # noqa: E402


def test_cli_commands_call_through_the_traced_sites(tmp_path):
    data = tmp_path / "ds.bin"
    assert main(["gen-data", "--n", "64", "--dim", "8", "--num-classes", "4", "--mismatch-frac", "0.1",
                 "--duplicate-frac", "0.1", "--seed", "3", "--out", str(data)]) == 0
    flags = ["--tau-stop", "6", "--t-td", "1.0", "--batch-size", "32", "--out-dim", "4", "--rho", "0.3"]
    ra, rb, cs = tmp_path / "ra", tmp_path / "rb", tmp_path / "coreset.txt"
    with tracer.Tracer() as t:
        assert main(["train", "--data", str(data), "--out", str(ra), "--seed", "1", *flags]) == 0
        assert main(["train", "--data", str(data), "--out", str(rb), "--seed", "2", *flags]) == 0
        assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb), "--rho", "0.25",
                     "--out", str(cs)]) == 0
        assert main(["compare", "--runs", f"{ra},{rb}", "--data", str(data)]) == 0
    assert t.calls["trainer.train_scan"] == 2
    assert t.calls["trainer.save_checkpoint"] == 2
    assert t.calls["trainer.load_checkpoint"] == 2
    assert t.calls["dataset.load_dataset"] == 3
    assert t.calls["coreset.export_coreset"] == 1
    assert t.calls["trainer.linear_probe"] == 2


def test_train_scan_normalizes_each_tower_once_per_forward_pass():
    # the tracer's per-layer encoder.normalize_rows metric reads the
    # infonce.normalize_rows site; a step that stopped calling it by that name
    # would report zero time there.  One call normalizes both towers, stacked.
    ds = generate_paired_dataset(GenSpec(n=64, dim=8, num_classes=4, mismatch_frac=0.1,
                                         duplicate_frac=0.1, noise_sigma=0.1, seed=3))
    cfg = TrainConfig(rho=0.3, tau_cos=3, tau_stop=8, t_td=1.0, batch_size=16, out_dim=4, seed=1)
    with tracer.Tracer() as t:
        result = trainer.train_scan(ds, cfg)
    assert result.forward_passes > 0
    assert t.calls["encoder.normalize_rows"] == result.forward_passes
