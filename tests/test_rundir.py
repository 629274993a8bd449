import json
import re

import numpy as np
import pytest

from scanprune import GenSpec, generate_paired_dataset, rundir
from scanprune.trainer import TrainConfig, save_checkpoint, train_full, train_scan


def _corpus():
    return generate_paired_dataset(GenSpec(n=128, dim=8, num_classes=4, mismatch_frac=0.1, duplicate_frac=0.1,
                                           noise_sigma=0.1, seed=0))


def _records(train, tau_stop):
    cfg = TrainConfig(rho=0.3, tau_cos=3, tau_stop=tau_stop, t_td=1.0, batch_size=64, lr=0.1, out_dim=4)
    return train(_corpus(), cfg).records


@pytest.mark.parametrize("tau_cos, tau_stop, rho, rounds, mutates", [
    (3, 12, 0.3, 3, 7),  # rounds built at epochs 2, 6 and 10
    (1, 2, 0.3, 1, 0),  # warm-up, then one Prepare and no Mutate
    (3, 12, 0.001, 3, 7),  # floor(rho * batch) is 0: every round is empty
])
def test_rounds_file_gives_back_every_round_and_exclusion(tmp_path, tau_cos, tau_stop, rho, rounds, mutates):
    ds = _corpus()
    cfg = TrainConfig(rho=rho, tau_cos=tau_cos, tau_stop=tau_stop, t_td=1.0, batch_size=64, lr=0.1, out_dim=4)
    result = train_scan(ds, cfg)
    manifest = rundir.write_run(tmp_path, "scan", cfg, "corpus.bin", "0" * 64, result, ds.n, save_checkpoint)
    assert manifest["artifacts"] == [rundir.CHECKPOINT, rundir.METRICS, rundir.ROUNDS]
    history, exclusions, n = rundir.read_rounds(tmp_path)
    assert n == ds.n and len(history) == rounds and len(exclusions) == mutates
    for got, want in zip(history, result.candidate_history, strict=True):
        assert got.built_at_epoch == want.built_at_epoch
        for name in ("ids", "redundant", "scores"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert list(exclusions) == sorted(result.exclusions)
    for epoch, ids in result.exclusions.items():
        assert exclusions[epoch].dtype == ids.dtype and np.array_equal(exclusions[epoch], ids), epoch


def test_read_metrics_rejects_malformed_records(tmp_path):
    path = tmp_path / rundir.METRICS
    rundir.write_metrics(_records(train_full, 6), path)
    good = path.read_text()
    first = json.loads(good.splitlines()[0])
    for bad in ("{", '{"epoch": 1}', "[1, 2]", json.dumps(dict(first, unknown=1)),
                json.dumps(dict(first, active_size="many")),
                json.dumps(dict(first, mean_loss_fg=None)),
                # a boolean is no number, and no run writes NaN, an infinity or a number past float range
                json.dumps(dict(first, epoch=True)), json.dumps(dict(first, active_size=True)),
                json.dumps(dict(first, wall_ms=False)), json.dumps(dict(first, mean_loss_fg=float("nan"))),
                json.dumps(dict(first, mean_loss_gf=float("inf"))), json.dumps(dict(first, rho_cur=-float("inf"))),
                json.dumps(first).replace(f'"wall_ms": {first["wall_ms"]!r}', '"wall_ms": 1e999'),
                json.dumps(dict(first, wall_ms=10 ** 400)), json.dumps(dict(first, active_size=-(10 ** 400)))):
        path.write_text(good + bad + "\n")
        with pytest.raises(rundir.RunDirError, match=re.escape(f"bad run directory {tmp_path}: {path}:7: ")):
            rundir.read_metrics(path)
