import json
import re

import pytest

from scanprune import GenSpec, generate_paired_dataset, rundir
from scanprune.trainer import TrainConfig, train_full


def _corpus():
    return generate_paired_dataset(GenSpec(n=128, dim=8, num_classes=4, mismatch_frac=0.1, duplicate_frac=0.1,
                                           noise_sigma=0.1, seed=0))


def _records(train, tau_stop):
    cfg = TrainConfig(rho=0.3, tau_cos=3, tau_stop=tau_stop, t_td=1.0, batch_size=64, lr=0.1, out_dim=4)
    return train(_corpus(), cfg).records


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
