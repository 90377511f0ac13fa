"""Landmark sequence, interval exponents, and bond-growth verdicts."""

from itertools import permutations

import pytest

from tncuts import (
    LandmarkMismatchError,
    TnsModel,
    a_seq,
    all_binary_trees,
    build_almost_perfect_binary,
    build_train_track,
    compare_models,
    complement,
    estimate_generic_rank,
    hackbusch_verdict,
    landmark_index,
    min_exponent_over_permutations,
    min_mono_cut,
    random_binary_tree,
    relabel,
    tree_shapes,
    tt_exponent,
)
from tncuts.hackbusch import _prefix_exponent
from tncuts.rng import CounterRng


def test_a_seq_values():
    assert a_seq(0) == 0
    assert a_seq(1) == 5
    assert a_seq(2) == 21
    assert a_seq(3) == 85
    with pytest.raises(ValueError):
        a_seq(-1)


def test_landmark_index():
    assert landmark_index(2) == 1
    assert landmark_index(5) == 1
    assert landmark_index(6) == 2
    assert landmark_index(21) == 2
    assert landmark_index(22) == 3
    assert landmark_index(85) == 3
    assert landmark_index(86) == 4


def test_tt_exponent_examples():
    assert tt_exponent(build_almost_perfect_binary(5)) == (1, 1)
    k, j = tt_exponent(build_almost_perfect_binary(6))
    assert k == 2 and j == 3  # the {1,2,3} prefix forces the second cut
    assert tt_exponent(build_train_track(9)).k == 1


def test_tt_exponent_two_leaves():
    assert tt_exponent(build_train_track(2)) == (1, 1)


def test_tt_exponent_complement_symmetry():
    # computing with complements of prefixes gives the same maximum
    for n in (5, 6, 9):
        tree = build_almost_perfect_binary(n)
        ks = [min_mono_cut(tree, set(range(1, j + 1))).size for j in range(1, n)]
        kc = [min_mono_cut(tree, complement(tree, set(range(1, j + 1)))).size for j in range(1, n)]
        assert max(ks) == max(kc) == tt_exponent(tree).k


def test_exponent_nondecreasing_across_sizes():
    ks = [tt_exponent(build_almost_perfect_binary(n)).k for n in range(2, 23)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))


def test_min_exponent_over_permutations_examples():
    res6 = min_exponent_over_permutations(build_almost_perfect_binary(6), "exhaustive")
    assert res6.k_min == 2 == tt_exponent(build_almost_perfect_binary(6)).k

    res_tt = min_exponent_over_permutations(build_train_track(5), "exhaustive")
    assert res_tt.k_min == 1
    assert res_tt.witness == (1, 2, 3, 4, 5)

    res5 = min_exponent_over_permutations(build_almost_perfect_binary(5), "exhaustive")
    assert res5.k_min == 1


def test_min_exponent_sampled_mode():
    tree = build_almost_perfect_binary(6)
    res = min_exponent_over_permutations(tree, "sampled", trials=60, seed=1)
    assert res.k_min == 2
    assert min_exponent_over_permutations(tree, "sampled", trials=60, seed=1) == res
    assert tt_exponent(relabel(tree, res.witness)).k == res.k_min


def test_permscan_reads_preimage_prefixes():
    # Every labelled tree of up to 5 leaves and every 6-leaf shape (each
    # 6-leaf tree is a relabelling of one), under every permutation.
    for tree in [t for n in range(2, 6) for t in all_binary_trees(n)] + tree_shapes(6):
        n = tree.n
        best = None
        for perm in permutations(range(1, n + 1)):
            want = tt_exponent(relabel(tree, perm))
            got = _prefix_exponent(tree, sorted(range(n), key=perm.__getitem__))
            assert got == want, (tree.serialize(), perm)
            if best is None or want.k < best[0]:
                best = (want.k, perm)
        assert min_exponent_over_permutations(tree, "exhaustive") == best, tree.serialize()


def _scan_every_order(tree):
    """Reference exhaustive scan: one root-path update per prefix of every leaf order, no table of cut sizes."""
    n = tree.n
    best = witness = None
    for perm in permutations(range(1, n + 1)):
        k = _prefix_exponent(tree, sorted(range(n), key=perm.__getitem__)).k
        if best is None or k < best:
            best, witness = k, perm
            if best == 1:
                break
    return best, witness


def test_exhaustive_permscan_matches_the_scan_of_every_order():
    # Every labelled tree of 2-6 leaves; at 7 leaves both shapes and every
    # 40th labelled tree (all 945 take the reference about 50 s); and abt8.
    trees = [t for n in range(2, 7) for t in all_binary_trees(n)]
    trees += tree_shapes(7) + list(all_binary_trees(7))[::40] + [build_almost_perfect_binary(8)]
    for tree in trees:
        assert min_exponent_over_permutations(tree, "exhaustive") == _scan_every_order(tree), tree.serialize()


def _full_dp_exponent(tree, order):
    """Reference: one full min_mono_cut DP per prefix, first j attaining the maximum."""
    sizes = [min_mono_cut(tree, [v + 1 for v in order[:j]]).size for j in range(1, tree.n)]
    best = max(sizes)
    return best, sizes.index(best) + 1


def test_prefix_exponent_matches_full_dp():
    trees = [t for n in range(2, 8) for t in all_binary_trees(n)]
    trees += [t for n in range(8, 11) for t in tree_shapes(n)]
    trees += [random_binary_tree(n, seed=n) for n in (11, 16, 25, 40, 60)]
    trees += [build_train_track(n) for n in (2, 3, 9, 40, 150)]
    trees += [build_almost_perfect_binary(n) for n in (21, 22, 85, 86, 341, 1366)]
    rng = CounterRng(11)
    for tree in trees:
        shuffled = list(range(tree.n))
        rng.shuffle(shuffled)
        for order in (list(range(tree.n)), shuffled):
            assert _prefix_exponent(tree, order) == _full_dp_exponent(tree, order), (tree.serialize(), order)


def test_min_exponent_guards():
    with pytest.raises(ValueError):
        min_exponent_over_permutations(build_train_track(9), "exhaustive")
    with pytest.raises(ValueError):
        min_exponent_over_permutations(build_train_track(4), "nope")
    with pytest.raises(ValueError):
        min_exponent_over_permutations(build_train_track(4), "sampled", trials=0)


def test_hackbusch_verdict_examples():
    v6 = hackbusch_verdict(6, 2)
    assert (v6.k, v6.inclusion_bond, v6.exclusion_bond) == (2, 4, 3)
    v5 = hackbusch_verdict(5, 2)
    assert (v5.k, v5.inclusion_bond, v5.exclusion_bond) == (1, 2, 1)
    v21 = hackbusch_verdict(21, 3)
    assert (v21.k, v21.inclusion_bond) == (2, 9)
    assert hackbusch_verdict(2, 2).k == 1
    assert hackbusch_verdict(22, 2).k == 3
    assert hackbusch_verdict(21845, 2).k == 7  # a_7, the CLI's cap


def test_verdict_k_independent_of_r():
    ks = {hackbusch_verdict(9, r).k for r in (2, 3, 5)}
    assert len(ks) == 1


def test_verdict_landmark_interval():
    for n in (2, 5, 6, 13, 21, 22, 30):
        v = hackbusch_verdict(n, 2)
        assert a_seq(v.k - 1) < n <= a_seq(v.k)


def test_verdict_guards():
    with pytest.raises(ValueError):
        hackbusch_verdict(1, 2)
    with pytest.raises(ValueError):
        hackbusch_verdict(6, 1)
    assert issubclass(LandmarkMismatchError, RuntimeError)


def test_verdict_json_shape():
    d = hackbusch_verdict(6, 2).to_json_dict()
    assert d["n"] == 6 and d["r"] == 2 and d["k"] == 2 and d["witness_j"] == 3
    assert d["inclusion"] == "HT(6,2) ⊆ TT(6,4)"
    assert d["exclusion"] == "HT(6,2) ⊄ TT(6,3)"


def test_oracle_cross_check_abt6():
    # a generic sample of the 6-leaf balanced model has max interval rank r^k = 4
    tree = build_almost_perfect_binary(6)
    model = TnsModel.constant(tree, 2)
    best = max(
        estimate_generic_rank(model, set(range(1, j + 1)), trials=3, seed=0) for j in range(1, 6)
    )
    assert best == 4


def test_hackbusch_statement_as_a_computed_inclusion():
    # dims = r, so no bond is clamped: the almost-perfect model at bond r lies
    # in the train track at r^k and not at r^k - 1, where k is the exponent
    for r in (2, 3):
        for n in range(2, 23):
            abt = TnsModel.constant(build_almost_perfect_binary(n), r)
            k = tt_exponent(abt.tree).k
            tt = build_train_track(n)
            assert compare_models(abt, TnsModel.constant(tt, r**k, dims=r)).passed, (n, r)
            report = compare_models(abt, TnsModel.constant(tt, r**k - 1, dims=r))
            assert not report.passed, (n, r)
            side = sorted(tt.leaves_left_of(report.witness))
            assert side == list(range(side[0], side[-1] + 1)), (n, r, side)
            assert min_mono_cut(abt.tree, side).size == k, (n, r, side)
