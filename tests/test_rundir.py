import json

import numpy as np
import pytest

from scanprune import rundir
from scanprune.encoder import init_params
from scanprune.pruner import CandidateSet, Tag
from scanprune.trainer import RunResult, TrainConfig


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
