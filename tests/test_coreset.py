import pytest

from scanprune import (
    CandidateSet,
    PrunedSummary,
    export_coreset,
    load_coreset,
    overlap_ratio,
    save_coreset,
)
from scanprune.coreset import CoresetError


def _summary(run_id, pruned, n, scores=None):
    pruned = frozenset(pruned)
    return PrunedSummary(run_id=run_id, pruned_ids=pruned, n=n,
                         scores=scores or {i: 1.0 for i in pruned})


def test_export_intersection_fits_budget():
    # n=10, rho=0.2 -> remove 2; intersection {3, 4} is exactly the budget
    a = _summary("a", {1, 3, 4}, 10)
    b = _summary("b", {3, 4, 7}, 10)
    keep = export_coreset(a, b, 0.2)
    assert keep == [0, 1, 2, 5, 6, 7, 8, 9]


def test_export_identical_runs():
    a = _summary("a", {0, 5, 9}, 10)
    b = _summary("b", {0, 5, 9}, 10)
    assert export_coreset(a, b, 0.3) == [1, 2, 3, 4, 6, 7, 8]


def test_export_trims_by_score_then_id():
    scores_a = {1: 0.9, 2: 0.5, 3: 0.9}
    scores_b = {1: 0.1, 2: 0.9, 3: 0.2}
    a = _summary("a", {1, 2, 3}, 10, scores_a)
    b = _summary("b", {1, 2, 3}, 10, scores_b)
    # summed scores: id 2 -> 1.4, id 3 -> 1.1, id 1 -> 1.0; budget 2 keeps id 1
    keep = export_coreset(a, b, 0.2)
    assert 1 in keep and 2 not in keep and 3 not in keep


def test_export_tops_up_from_union_then_untouched():
    a = _summary("a", {0, 1}, 10, {0: 1.0, 1: 0.2})
    b = _summary("b", {0, 2}, 10, {0: 1.0, 2: 0.8})
    # intersection {0}; union extras ranked 2 (0.8) then 1 (0.2)
    assert export_coreset(a, b, 0.2) == [1, 3, 4, 5, 6, 7, 8, 9]
    # budget 5 exhausts the union {0,1,2}; untouched ids 3,4 fill the rest
    assert export_coreset(a, b, 0.5) == [5, 6, 7, 8, 9]


def test_export_disjoint_runs_rank_order():
    a = _summary("a", {0, 1}, 8, {0: 0.9, 1: 0.1})
    b = _summary("b", {2, 3}, 8, {2: 0.5, 3: 0.7})
    # empty intersection; union ranked 0 (0.9), 3 (0.7), 2 (0.5), 1 (0.1)
    assert export_coreset(a, b, 0.25) == [1, 2, 4, 5, 6, 7]


def test_export_size_contract():
    a = _summary("a", {1}, 9)
    b = _summary("b", {2}, 9)
    for rho in (0.1, 0.3, 0.5, 0.9):
        keep = export_coreset(a, b, rho)
        assert len(keep) == 9 - int(rho * 9 + 1e-9)
        assert keep == sorted(set(keep))


def test_export_symmetry():
    a = _summary("a", {0, 3, 5}, 12, {0: 0.4, 3: 0.9, 5: 0.2})
    b = _summary("b", {3, 7}, 12, {3: 0.3, 7: 0.6})
    assert export_coreset(a, b, 0.25) == export_coreset(b, a, 0.25)


def test_export_validation():
    with pytest.raises(CoresetError):
        export_coreset(_summary("a", set(), 10), _summary("b", set(), 12), 0.3)
    a = _summary("a", set(), 10)
    for rho in (0.0, 1.0, -0.1):
        with pytest.raises(CoresetError):
            export_coreset(a, a, rho)


def test_summary_from_candidates():
    cs = CandidateSet(ids=[4, 9], redundant=[True, False], scores=[0.75, 0.5])
    s = PrunedSummary.from_candidates("run-x", cs, 20)
    assert s.run_id == "run-x" and s.n == 20
    assert s.pruned_ids == frozenset({4, 9})
    assert s.scores == {4: 0.75, 9: 0.5}


def test_overlap_examples():
    assert overlap_ratio([{0, 1, 2, 3}, {2, 3, 4, 5}]) == pytest.approx(2 / 6)
    assert overlap_ratio([{1, 2}, {1, 2}]) == 1.0
    assert overlap_ratio([{1}, {2}]) == 0.0
    assert overlap_ratio([{1, 2}, {2, 3}, {2, 4}]) == pytest.approx(1 / 4)


def test_overlap_order_invariance():
    sets = [{0, 1, 2}, {1, 2, 3}]
    assert overlap_ratio(sets) == overlap_ratio(sets[::-1])


def test_overlap_validation():
    with pytest.raises(CoresetError):
        overlap_ratio([{1, 2}])
    with pytest.raises(CoresetError):
        overlap_ratio([set(), set()])


def test_save_load_roundtrip(tmp_path):
    ids = [0, 2, 5, 8, 13]
    path = tmp_path / "coreset.txt"
    save_coreset(ids, n=20, rho=0.3, runs=("run-a", "run-b"), path=path)
    assert load_coreset(path) == ids
    header = path.read_text().splitlines()[0]
    assert header == "# n=20 rho=0.3 runs=run-a,run-b"
