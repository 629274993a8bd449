import json
import re

import numpy as np
import pytest

from scanprune import GenSpec, generate_paired_dataset, rundir
from scanprune.encoder import init_params
from scanprune.pruner import CandidateSet, Tag
from scanprune.trainer import RunResult, TrainConfig, train_full, train_scan


def _records(train, tau_stop):
    ds = generate_paired_dataset(GenSpec(n=128, dim=8, num_classes=4, mismatch_frac=0.1, duplicate_frac=0.1,
                                         noise_sigma=0.1, seed=0))
    cfg = TrainConfig(rho=0.3, tau_cos=3, tau_stop=tau_stop, t_td=1.0, batch_size=64, lr=0.1, out_dim=4)
    return train(ds, cfg).records


@pytest.mark.parametrize("size", [0, 1, rundir._ENTRY_SLICE, 2 * rundir._ENTRY_SLICE + 3])
def test_candidates_file_is_one_json_dump(tmp_path, size):
    # written a slice at a time, the file must hold the bytes of one json.dump
    rng = np.random.default_rng(size)
    final = CandidateSet(ids=rng.permutation(10 * size + 1)[:size], redundant=rng.random(size) < 0.5,
                         scores=rng.random(size), built_at_epoch=7)
    result = RunResult(params=init_params(4, 2, seed=0), records=[], candidate_history=[final])
    rundir.write_run(tmp_path, "scan", TrainConfig(), "corpus.bin", "0" * 64, result, 10 * size + 1,
                     lambda params, path: None)
    tags = [(Tag.REDUNDANT if r else Tag.ILL_MATCHED).value for r in final.redundant.tolist()]
    expected = {"n": 10 * size + 1, "built_at_epoch": 7,
                "entries": [{"sample_id": sid, "tag": tag, "rank_score": score}
                            for sid, tag, score in zip(final.ids.tolist(), tags, final.scores.tolist())]}
    with open(tmp_path / "reference.json", "w") as fh:
        json.dump(expected, fh)
    assert (tmp_path / rundir.CANDIDATES).read_bytes() == (tmp_path / "reference.json").read_bytes()


def test_metrics_roundtrip(tmp_path):
    records = _records(train_scan, 6)
    rundir.write_metrics(records, tmp_path / rundir.METRICS)
    assert rundir.read_metrics(tmp_path / rundir.METRICS) == records


def test_read_metrics_rejects_malformed_records(tmp_path):
    path = tmp_path / rundir.METRICS
    rundir.write_metrics(_records(train_full, 6), path)
    good = path.read_text()
    first = json.loads(good.splitlines()[0])
    for bad in ("{", '{"epoch": 1}', "[1, 2]", json.dumps(dict(first, unknown=1)),
                json.dumps(dict(first, active_size="many")),
                json.dumps(dict(first, mean_loss_fg=None))):
        path.write_text(good + bad + "\n")
        with pytest.raises(rundir.RunDirError, match=re.escape(f"bad run directory {tmp_path}: {path}:7: ")):
            rundir.read_metrics(path)
