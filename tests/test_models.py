"""Model contracts: prediction, optimal bond functions, comparison, hard sets."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cut_oracle import brute_force_min_mono, hard_subset_by_pruning
from fixed_point import fixed_point_optimalize
from tncuts import (
    CounterRng,
    EdgeId,
    TnsModel,
    Tree,
    all_binary_trees,
    build_almost_perfect_binary,
    build_train_track,
    compare_models,
    construct_hard_subset,
    load_model,
    min_mono_cut,
    min_product_cut,
    model_from_json_dict,
    optimalize,
    parse_tree,
    predict_rank,
    random_binary_tree,
    tree_shapes,
)

CAT4 = parse_tree("((1,2),(3,4))")
EX12 = parse_tree("((((1,2),3),((4,5),6)),(((7,8),9),((10,11),12)))")


def random_model(rng: CounterRng, n_max: int = 7, dim_max: int = 4) -> TnsModel:
    n = 2 + rng.randbelow(n_max - 1)
    tree = random_binary_tree(n, rng=rng)
    f = {e: 1 + rng.randbelow(4) for e in tree.edges()}
    dims = {lab: 2 + rng.randbelow(dim_max - 1) for lab in range(1, n + 1)}
    return TnsModel(tree, f, dims)


def test_model_validation():
    with pytest.raises(ValueError):
        TnsModel(CAT4, {e: 2 for e in CAT4.edges() if e.labels != (1,)}, {i: 2 for i in range(1, 5)})
    with pytest.raises(ValueError):
        TnsModel(CAT4, {e: 0 for e in CAT4.edges()}, {i: 2 for i in range(1, 5)})
    with pytest.raises(ValueError):
        TnsModel(CAT4, {e: 2 for e in CAT4.edges()}, {i: 2 for i in range(1, 4)})


def test_predict_rank_examples():
    m = TnsModel.constant(CAT4, 2)
    pred = predict_rank(m, {1, 3})
    assert (pred.value, pred.exact) == (4, True)

    m12 = TnsModel.constant(EX12, 2)
    pred12 = predict_rank(m12, {1, 4, 8, 9, 11, 12})
    assert (pred12.value, pred12.exact) == (32, True)

    f = {EdgeId([1]): 2, EdgeId([2]): 3, EdgeId([3]): 2, EdgeId([4]): 3, EdgeId([1, 2]): 5}
    nc = TnsModel(CAT4, f, {i: 2 for i in range(1, 5)})
    prednc = predict_rank(nc, {1, 3})
    assert (prednc.value, prednc.exact) == (4, False)

    assert predict_rank(m, set()) == predict_rank(m, set())
    assert predict_rank(m, set()).value == 1 and predict_rank(m, set()).exact
    assert predict_rank(m, {1, 2, 3, 4}).value == 1


def test_predict_not_exact_when_bond_exceeds_dims():
    m = TnsModel.constant(CAT4, 3, dims=2)
    assert not predict_rank(m, {1, 3}).exact


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 255))
def test_predict_matches_min_product(seed, bits):
    rng = CounterRng(seed)
    m = random_model(rng)
    a = {i + 1 for i in range(m.tree.n) if (bits >> i) & 1}
    if a and len(a) < m.tree.n:
        assert predict_rank(m, a).value == min_product_cut(m.tree, a, m.f).product


def test_optimalize_examples():
    m = TnsModel.constant(CAT4, 2)
    assert optimalize(m).f == m.f

    f = {e: (100 if e.labels == (1, 2) else 2) for e in CAT4.edges()}
    m2 = TnsModel(CAT4, f, {i: 2 for i in range(1, 5)})
    assert optimalize(m2).f[EdgeId([1, 2])] == 4

    pair = parse_tree("(1,2)")
    m3 = TnsModel(pair, {EdgeId([1]): 5}, {1: 3, 2: 3})
    assert optimalize(m3).f[EdgeId([1])] == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_optimalize_idempotent_and_shrinking(seed):
    m = random_model(CounterRng(seed))
    opt = optimalize(m)
    assert optimalize(opt).f == opt.f
    assert all(1 <= opt.f[e] <= m.f[e] for e in m.tree.edges())
    assert opt.dims == m.dims and opt.tree == m.tree


def test_optimalize_matches_fixed_point():
    # Random trees of 2-12 leaves, then caterpillars and balanced trees of
    # up to 40; dims of 1 and dims below f are frequent.
    rng = CounterRng(1106)
    trees = [random_binary_tree(2 + i % 11, rng=rng) for i in range(330)]
    trees += [build(n) for n in (5, 13, 22, 31, 40) for build in (build_train_track, build_almost_perfect_binary)]
    for tree in trees:
        f = {e: 1 + rng.randbelow(9) for e in tree.edges()}
        dims = {lab: 1 + rng.randbelow(4) for lab in range(1, tree.n + 1)}
        model = TnsModel(tree, f, dims)
        assert optimalize(model).f == fixed_point_optimalize(model).f, (tree.serialize(), f, dims)


def test_compare_models_examples():
    abt = TnsModel.constant(build_almost_perfect_binary(6), 2)
    tt4 = TnsModel.constant(build_train_track(6), 4, dims=2)
    rep = compare_models(abt, tt4)
    assert rep.passed and rep.witness is None
    assert max(c.required for c in rep.edges) == 4
    # the expensive train-track edge is the {1,2,3} split
    assert [c.edge.key for c in rep.edges if c.required == 4] == ["1-2-3"]

    tt3 = TnsModel.constant(build_train_track(6), 3, dims=2)
    rep3 = compare_models(abt, tt3)
    assert not rep3.passed
    assert rep3.witness == EdgeId([1, 2, 3])

    opt = optimalize(TnsModel.constant(build_almost_perfect_binary(6), 2))
    self_rep = compare_models(opt, opt)
    assert self_rep.passed and all(c.ok for c in self_rep.edges)


def test_compare_models_clamps_at_leaf_dims():
    # Bond 5 on dims 2 defines the same tensors as its optimalised model,
    # so neither model may fail the other's edges.
    m1 = TnsModel.constant(parse_tree("((1,2),(3,4))"), 5, dims=2)
    m2 = optimalize(m1)
    rep = compare_models(m1, m2)
    assert rep.passed and rep.witness is None, rep
    assert [c.required for c in rep.edges] == [m2.f[c.edge] for c in rep.edges]
    assert compare_models(m2, m1).passed


def test_compare_models_validation():
    m1 = TnsModel.constant(CAT4, 2)
    m2 = TnsModel.constant(build_train_track(5), 2)
    with pytest.raises(ValueError):
        compare_models(m1, m2)
    m3 = TnsModel.constant(CAT4, 2, dims=3)
    with pytest.raises(ValueError):
        compare_models(m1, m3)


def test_compare_self_passes_for_optimal_models():
    for seed in range(10):
        m = optimalize(random_model(CounterRng(seed)))
        assert compare_models(m, m).passed


def test_hard_subset_examples():
    assert construct_hard_subset(CAT4) == {1, 3}
    assert construct_hard_subset(parse_tree("(1,2)")) == {1}
    tt6 = build_train_track(6)
    a = construct_hard_subset(tt6)
    assert brute_force_min_mono(tt6, a) >= 3


def test_hard_subset_bound_all_small_shapes():
    for n in range(2, 9):
        for seed in range(5):
            tree = random_binary_tree(n, seed)
            a = construct_hard_subset(tree)
            assert len(a) == n // 2
            assert min_mono_cut(tree, a).size >= n // 2


def random_joined_tree(n: int, rng: CounterRng) -> Tree:
    """Random tree on n leaves: join random pairs of subtrees, then parse once."""
    parts = [str(lab) for lab in range(1, n + 1)]
    while len(parts) > 1:
        first = parts.pop(rng.randbelow(len(parts)))
        second = parts.pop(rng.randbelow(len(parts)))
        parts.append(f"({first},{second})")
    return parse_tree(parts[0])


def test_hard_subset_matches_pruning():
    rng = CounterRng(2609)
    trees = [tree for n in range(2, 8) for tree in all_binary_trees(n)]
    trees += [tree for n in range(4, 11) for tree in tree_shapes(n)]
    trees += [random_binary_tree(n, seed=n) for n in range(8, 41)]
    trees += [random_joined_tree(n, rng) for n in range(8, 301, 3)]
    trees += [build_train_track(300), build_almost_perfect_binary(300)]
    for tree in trees:
        assert construct_hard_subset(tree) == hard_subset_by_pruning(tree), tree.serialize()


def test_model_json_round_trip(tmp_path):
    m = TnsModel(
        CAT4,
        {e: 1 + i for i, e in enumerate(CAT4.edges())},
        {1: 2, 2: 3, 3: 2, 4: 3},
    )
    data = m.to_json_dict()
    again = model_from_json_dict(json.loads(json.dumps(data)))
    assert again.tree == m.tree and again.f == m.f and again.dims == m.dims

    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert load_model(path).f == m.f


def test_model_json_scalar_and_default_dims():
    m = model_from_json_dict({"tree": "((1,2),(3,4))", "f": 2})
    assert m.is_constant() == 2
    assert m.dims == {1: 2, 2: 2, 3: 2, 4: 2}

    with pytest.raises(ValueError):
        model_from_json_dict({"tree": "((1,2),(3,4))", "f": {"1": 2, "2": 2, "3": 2, "4": 3, "1-2": 2}})


def test_model_json_bad_inputs():
    with pytest.raises(ValueError):
        model_from_json_dict({"f": 2})
    with pytest.raises(ValueError):
        model_from_json_dict({"tree": "((1,2),(3,4))"})
    with pytest.raises(ValueError):
        model_from_json_dict({"tree": "((1,2),(3,4))", "f": {"1-3": 2}})
