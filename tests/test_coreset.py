import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanprune import CandidateSet, PrunedSummary, export_coreset
from scanprune.coreset import CoresetError, load_coreset, save_coreset
from scanprune.pruner import prune_count


def _summary(run_id, pruned, n, scores=None):
    ids = sorted(pruned)
    scores = scores or {i: 1.0 for i in ids}
    cs = CandidateSet(ids=ids, redundant=np.ones(len(ids), dtype=bool), scores=[scores[i] for i in ids])
    return PrunedSummary.from_candidates(run_id, cs, n)


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
    for ids in ([10], [-1], [2, 2]):  # out of range or repeated
        bad = PrunedSummary.from_candidates(
            "b", CandidateSet(ids=ids, redundant=[True] * len(ids), scores=[1.0] * len(ids)), 10)
        with pytest.raises(CoresetError):
            export_coreset(a, bad, 0.3)


def _set_based_export(a_scores, b_scores, n, rho):
    """Reference: the export as intersection, then union top-up, then untouched
    ids, built from Python sets and dicts of id -> score."""
    budget = int(rho * n + 1e-9)
    a_ids, b_ids = set(a_scores), set(b_scores)

    def score(sid):
        return a_scores.get(sid, 0.0) + b_scores.get(sid, 0.0)

    removal = sorted(a_ids & b_ids, key=lambda s: (-score(s), s))
    if len(removal) > budget:
        removal = removal[:budget]
    elif len(removal) < budget:
        chosen = set(removal)
        extras = sorted((a_ids | b_ids) - chosen, key=lambda s: (-score(s), s))
        removal.extend(extras[: budget - len(removal)])
        if len(removal) < budget:
            rest = sorted(set(range(n)) - set(removal))
            removal.extend(rest[: budget - len(removal)])
    removed = set(removal)
    return [i for i in range(n) if i not in removed]


@st.composite
def _export_cases(draw):
    n = draw(st.integers(1, 40))
    ids = st.sets(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["random", "empty", "disjoint", "identical"]))
    a_ids = draw(ids)
    if kind == "empty":
        a_ids, b_ids = set(), (draw(ids) if draw(st.booleans()) else set())
    elif kind == "disjoint":
        b_ids = draw(ids) - a_ids
    elif kind == "identical":
        b_ids = set(a_ids)
    else:
        b_ids = draw(ids)
    # Few distinct values, so summed scores tie, exactly or up to rounding.
    score = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0])
    a_scores = {i: draw(score) for i in sorted(a_ids)}
    b_scores = {i: draw(score) for i in sorted(b_ids)}
    union = len(a_ids | b_ids)
    where = draw(st.sampled_from(["below", "at", "above"]))
    if where == "below":
        budget = draw(st.integers(0, max(union - 1, 0)))
    elif where == "at":
        budget = union
    else:
        budget = draw(st.integers(union + 1, max(union + 1, n)))
    budget = min(budget, n - 1)  # rho < 1
    return n, a_scores, b_scores, (budget + 0.5) / n


@settings(max_examples=300, deadline=None)
@given(case=_export_cases())
def test_export_matches_set_based_reference(case):
    n, a_scores, b_scores, rho = case
    a = _summary("a", a_scores, n, a_scores)
    b = _summary("b", b_scores, n, b_scores)
    assert export_coreset(a, b, rho) == _set_based_export(a_scores, b_scores, n, rho)
    assert export_coreset(b, a, rho) == _set_based_export(b_scores, a_scores, n, rho)


def test_summary_from_candidates():
    cs = CandidateSet(ids=[4, 9], redundant=[True, False], scores=[0.75, 0.5])
    s = PrunedSummary.from_candidates("run-x", cs, 20)
    assert s.run_id == "run-x" and s.n == 20
    assert s.candidates is cs


def test_save_load_roundtrip(tmp_path):
    ids = [0, 2, 5, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19]  # n - floor(rho * n) = 14
    path = tmp_path / "coreset.txt"
    save_coreset(ids, n=20, rho=0.3, runs=("run-a", "run-b"), path=path)
    assert load_coreset(path) == ids
    header = path.read_text().splitlines()[0]
    assert header == "# n=20 rho=0.3 runs=run-a,run-b"


def test_load_coreset_checks_the_header(tmp_path):
    path = tmp_path / "coreset.txt"
    save_coreset(range(14), n=20, rho=0.3, runs=("a", "b"), path=path)
    assert load_coreset(path, n=20) == list(range(14))
    with pytest.raises(CoresetError, match="dataset has n=21"):
        load_coreset(path, n=21)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))  # one id short
    with pytest.raises(CoresetError, match="means 14 ids, the file holds 13"):
        load_coreset(path)
    path.write_text("".join(lines) + "19\n")  # one id too many
    with pytest.raises(CoresetError, match="the file holds 15"):
        load_coreset(path)
    for rho in ("abc", "nan", "1.5", "0"):
        path.write_text(f"# n=20 rho={rho} runs=a,b\n" + "".join(lines[1:]))
        with pytest.raises(CoresetError, match="bad rho"):
            load_coreset(path)
    path.write_text("# hand-made\n3\n1\n")  # no save_coreset header: any length
    assert load_coreset(path, n=20) == [3, 1]


def test_export_and_load_agree_on_prune_count(tmp_path):
    # an exported coreset must load: both sides count floor(rho * n) by prune_count
    path = tmp_path / "coreset.txt"
    for n in (1, 7, 10, 100, 257):
        for rho in (0.1, 0.25, 0.29, 0.3, 0.49, 0.57, 0.9):
            runs = _summary("a", set(range(0, n, 3)), n), _summary("b", set(range(0, n, 2)), n)
            keep = export_coreset(*runs, rho)
            assert n - len(keep) == prune_count(rho, n), (n, rho)
            save_coreset(keep, n=n, rho=rho, runs=("a", "b"), path=path)
            assert load_coreset(path, n=n) == keep
            for wrong in (len(keep) - 1, len(keep) + 1):
                if wrong >= 0:
                    save_coreset(range(wrong), n=n, rho=rho, runs=("a", "b"), path=path)
                    with pytest.raises(CoresetError, match="ids, the file holds"):
                        load_coreset(path)
