import numpy as np
import pytest

from scanprune import CandidateSet, Tag, active_indices, sample_pruned, select_batch_candidates
from scanprune.pruner import (
    PrunerError,
    RankedFallback,
    accumulate,
    batch_candidates,
    merge_directions,
    prune_count,
    rank_orders,
)


def brute_force_select(losses, ids, rho):
    """Oracle: full sort with explicit mirror tie-breaking."""
    k = int(rho * len(losses) + 1e-9)
    asc = sorted(zip(losses, ids))
    desc = sorted(zip(losses, ids), key=lambda t: (-t[0], -t[1]))
    return {i for _, i in asc[:k]}, {i for _, i in desc[:k]}


def test_prune_count_floors_products_that_are_whole_on_paper():
    # 0.29 * 100 is 28.999999999999996 and 0.57 * 100 is 56.99999999999999
    assert prune_count(0.29, 100) == 29
    assert prune_count(0.57, 100) == 57
    assert prune_count(0.3, 9) == 2 and prune_count(0.1, 8) == 0 and prune_count(0.3, 0) == 0


def test_select_example():
    losses = [0.1, 0.9, 0.5, 0.2, 0.8, 0.4]
    red, ill = select_batch_candidates(losses, np.arange(6), 1 / 3)
    assert red == {0, 3} and ill == {1, 4}


def test_select_k_zero():
    red, ill = select_batch_candidates([1.0, 2.0, 3.0], np.arange(3), 0.2)
    assert red == set() and ill == set()


def test_select_all_ties():
    red, ill = select_batch_candidates([1.0] * 6, np.arange(6), 1 / 3)
    assert red == {0, 1} and ill == {4, 5}


def test_select_rho_range():
    with pytest.raises(PrunerError):
        select_batch_candidates([1.0, 2.0], np.arange(2), 0.5)
    with pytest.raises(PrunerError):
        select_batch_candidates([1.0, np.inf], np.arange(2), 0.3)


def test_select_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for trial in range(200):
        b = int(rng.integers(1, 513))
        rho = float(rng.uniform(0.05, 0.49))
        ids = rng.permutation(4 * b)[:b]
        losses = rng.standard_normal(b)
        if trial % 2 == 0:
            losses = np.round(losses, 1)  # force ties
        red, ill = select_batch_candidates(losses, ids, rho)
        want_red, want_ill = brute_force_select(losses.tolist(), ids.tolist(), rho)
        assert red == want_red and ill == want_ill
        assert not red & ill


def test_merge_perfect_agreement():
    fb = RankedFallback(red_order=[0, 3, 2, 5, 4, 1], ill_order=[1, 4, 5, 2, 3, 0])
    red, ill = merge_directions({0, 3}, {1, 4}, {0, 3}, {1, 4}, 4, fb)
    assert red == {0, 3} and ill == {1, 4}


def test_merge_partial_agreement_tops_up():
    losses_fg = np.array([0.1, 0.9, 0.5, 0.2, 0.8, 0.4])
    losses_gf = np.array([0.1, 0.9, 0.2, 0.5, 0.6, 0.8])
    ids = np.arange(6)
    fg_red, fg_ill = select_batch_candidates(losses_fg, ids, 1 / 3)
    gf_red, gf_ill = select_batch_candidates(losses_gf, ids, 1 / 3)
    assert fg_red == {0, 3} and gf_red == {0, 2}
    fb = rank_orders(losses_fg, losses_gf, ids)
    red, ill = merge_directions(fg_red, fg_ill, gf_red, gf_ill, 4, fb)
    # intersection {0}; combined ranks: id 3 -> 1+2=3 beats id 2 -> 3+1=4
    assert red == {0, 3}
    assert len(ill) == 2 and not red & ill


def test_merge_disjoint_directions_uses_rank_sums():
    ids = np.arange(6)
    losses_fg = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    losses_gf = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
    fg_red, fg_ill = select_batch_candidates(losses_fg, ids, 1 / 3)
    gf_red, gf_ill = select_batch_candidates(losses_gf, ids, 1 / 3)
    assert not fg_red & gf_red and not fg_ill & gf_ill
    fb = rank_orders(losses_fg, losses_gf, ids)
    red, ill = merge_directions(fg_red, fg_ill, gf_red, gf_ill, 4, fb)
    # every rank sum is 5; ties resolve by ascending id, red claims first
    assert red == {0, 1} and ill == {2, 3}


def test_merge_target_must_be_even():
    fb = RankedFallback(red_order=[0], ill_order=[0])
    with pytest.raises(PrunerError):
        merge_directions({0}, set(), {0}, set(), 3, fb)


def test_batch_candidates_matches_composed_pipeline():
    rng = np.random.default_rng(17)
    for trial in range(500):
        b = int(rng.integers(2, 128)) if trial > 1 else trial + 2
        # every fourth rho is the largest below 0.5: k = floor(b / 2), and ill-matched
        # has exactly the slots redundant leaves when b is even
        rho = float(np.nextafter(0.5, 0.0)) if trial % 4 == 0 else float(rng.uniform(0.05, 0.49))
        ids = rng.permutation(2000)[:b]
        fg = np.round(rng.standard_normal(b), 1 if trial % 3 == 0 else 6)
        gf = np.round(rng.standard_normal(b), 1 if trial % 3 == 0 else 6)
        k = int(rho * b + 1e-9)
        cs = batch_candidates(fg, gf, ids, rho)
        fg_red, fg_ill = select_batch_candidates(fg, ids, rho)
        gf_red, gf_ill = select_batch_candidates(gf, ids, rho)
        fb = rank_orders(fg, gf, ids)
        red, ill = merge_directions(fg_red, fg_ill, gf_red, gf_ill, 2 * k, fb)
        got_red = cs.ids_by_tag(Tag.REDUNDANT).tolist()
        got_ill = cs.ids_by_tag(Tag.ILL_MATCHED).tolist()
        assert set(got_red) == red and set(got_ill) == ill
        assert len(set(got_red) & set(got_ill)) == 0
        # layout: k redundant ids, then k ill-matched ids, each in ascending order
        assert cs.redundant.tolist() == [True] * k + [False] * k
        assert got_red == sorted(red) and got_ill == sorted(ill)
        for sid, is_red, score in zip(cs.ids.tolist(), cs.redundant.tolist(), cs.scores.tolist()):
            order = fb.red_order if is_red else fb.ill_order
            assert score == 1.0 - order.index(sid) / (b - 1)


def _candidate_set(ids, redundant=True, score=0.5):
    ids = np.asarray(ids)
    return CandidateSet(ids=ids, redundant=np.full(ids.size, redundant),
                        scores=np.full(ids.size, score))


def test_accumulate_disjoint_union():
    batches = [_candidate_set(range(base, base + 4)) for base in (0, 10, 20)]
    cs = accumulate(batches, built_at_epoch=3)
    assert len(cs) == 12 and cs.built_at_epoch == 3
    assert cs.ids.tolist() == [0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23]
    assert accumulate([batches[0], _candidate_set([])]).ids.tolist() == list(range(0, 4))
    assert len(accumulate([])) == 0


def test_accumulate_keeps_tags_and_scores_aligned():
    cs = accumulate([_candidate_set([5, 1], True, 0.25), _candidate_set([3], False, 0.75)])
    assert cs.ids.tolist() == [5, 1, 3]
    assert cs.redundant.tolist() == [True, True, False]
    assert cs.scores.tolist() == [0.25, 0.25, 0.75]
    assert cs.ids_by_tag(Tag.ILL_MATCHED).tolist() == [3]


def test_accumulate_duplicate_id_is_hard_failure():
    e = _candidate_set([7])
    with pytest.raises(PrunerError):
        accumulate([e, e])


def test_candidate_set_shape_and_validate():
    with pytest.raises(PrunerError):
        CandidateSet(ids=[1, 2], redundant=[True], scores=[0.5, 0.5])
    _candidate_set([0, 4]).validate(5)
    for bad in ([0, 5], [-1, 2], [3, 3]):
        with pytest.raises(PrunerError):
            _candidate_set(bad).validate(5)
    with pytest.raises(PrunerError):
        _candidate_set([1], score=float("nan")).validate(5)


def test_epoch_budget_matches_2rho_n():
    # n=1000 in batches of 100 at rho=0.15 -> |D'| = 2*15*10 = 300 = 2*rho*n
    rng = np.random.default_rng(3)
    per_batch = []
    for b in range(10):
        ids = np.arange(b * 100, (b + 1) * 100)
        per_batch.append(batch_candidates(rng.standard_normal(100),
                                          rng.standard_normal(100), ids, 0.15))
    cs = accumulate(per_batch)
    assert len(cs) == 300
    assert len(cs.ids_by_tag(Tag.REDUNDANT)) == 150
    assert len(cs.ids_by_tag(Tag.ILL_MATCHED)) == 150


def test_sample_pruned_extremes():
    cs = _candidate_set(range(300))
    assert sample_pruned(cs, 0.0, seed=1).tolist() == []
    assert sample_pruned(cs, 1.0, seed=1).tolist() == list(range(300))


def test_sample_pruned_subset_and_seed_sensitivity():
    cs = _candidate_set(range(300))
    a = sample_pruned(cs, 0.25, seed=1)
    b = sample_pruned(cs, 0.25, seed=2)
    ids = set(cs.ids.tolist())
    assert len(a) == len(b) == 75
    assert a.tolist() == sorted(set(a.tolist()))  # sorted, no repeats
    assert set(a.tolist()) <= ids and set(b.tolist()) <= ids
    assert a.tolist() != b.tolist()
    assert np.array_equal(sample_pruned(cs, 0.25, seed=1), a)  # deterministic


def test_sample_pruned_range_check():
    with pytest.raises(PrunerError):
        sample_pruned(_candidate_set(range(10)), 1.5, seed=0)


def test_active_indices_examples():
    got = active_indices(10, np.array([2, 7]))
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.tolist() == [0, 1, 3, 4, 5, 6, 8, 9]
    assert active_indices(5, []).tolist() == [0, 1, 2, 3, 4]
    excluded = sample_pruned(_candidate_set(range(300)), 0.25, seed=5)
    assert len(active_indices(1000, excluded)) == 925


def test_active_indices_out_of_range():
    with pytest.raises(PrunerError):
        active_indices(5, np.array([9]))


@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64, -2 ** 70])
def test_ids_past_int64_raise_pruner_error(big):
    # no int64 id array can hold them, and every such id is out of range
    with pytest.raises(PrunerError, match="out of range"):
        active_indices(10, [0, big])
    with pytest.raises(PrunerError, match="int64"):
        CandidateSet([0, big], [True, False], [0.5, 0.5])
    with pytest.raises(PrunerError, match="float64"):
        CandidateSet([0], [True], [10 ** 400])
