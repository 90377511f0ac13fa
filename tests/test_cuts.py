"""Cut computations against hand-checked examples and the brute-force oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cut_oracle import (
    brute_force_max_colour,
    brute_force_min_mono,
    brute_subset_scan,
    colour_cut_by_restore_walk,
    min_cut_by_flow,
    verify_by_leaf_classes,
)
from tncuts import (
    CounterRng,
    EdgeId,
    TnsModel,
    all_binary_trees,
    build_train_track,
    complement,
    generic_rank,
    max_colour_cut,
    min_mono_cut,
    min_product_cut,
    parse_tree,
    random_binary_tree,
    verify_colour_cut,
    verify_mono_cut,
)
from tncuts.cuts import _cheapest_cut
from tncuts.models import _clamped_bonds

CAT4 = parse_tree("((1,2),(3,4))")
EX12 = parse_tree("((((1,2),3),((4,5),6)),(((7,8),9),((10,11),12)))")
A12 = {1, 4, 8, 9, 11, 12}


def test_cat4_min_mono():
    res = min_mono_cut(CAT4, {1, 3})
    assert res.size == 2
    assert verify_mono_cut(CAT4, {1, 3}, res.witness)


def test_ex12_min_mono_unique_witness():
    res = min_mono_cut(EX12, A12)
    assert res.size == 5
    want = {EdgeId([1]), EdgeId([4]), EdgeId([7]), EdgeId([10]), EdgeId([1, 2, 3, 4, 5, 6])}
    assert res.witness == want
    assert verify_mono_cut(EX12, A12, res.witness)


def test_empty_and_full_subsets():
    assert min_mono_cut(CAT4, set()).size == 0
    assert min_mono_cut(CAT4, {1, 2, 3, 4}).size == 0
    assert min_mono_cut(CAT4, set()).witness == frozenset()
    # every labelled tree of 2-6 leaves, through the cut DP itself: cost 1
    # at the root, and the witness walk keeps every edge
    rng = CounterRng(29)
    for n in range(2, 7):
        for tree in all_binary_trees(n):
            f = {e: 1 + rng.randbelow(5) for e in tree.edges()}
            model = TnsModel(tree, f, {lab: 1 + rng.randbelow(4) for lab in range(1, n + 1)})
            for a in (set(), tree.leaves):
                assert min_mono_cut(tree, a) == (0, frozenset()), tree.serialize()
                assert min_product_cut(tree, a, f) == (1, frozenset()), tree.serialize()
                assert _cheapest_cut(tree, tree.mask_of(a), _clamped_bonds(model)) == 1
                assert generic_rank(model, a).value == 1


def test_edge_split_needs_one_cut():
    for tree in (CAT4, EX12, build_train_track(7)):
        for e in tree.edges():
            assert min_mono_cut(tree, tree.leaves_left_of(e)).size == 1


def test_unknown_labels_rejected():
    with pytest.raises(ValueError):
        min_mono_cut(CAT4, {1, 5})
    with pytest.raises(ValueError):
        max_colour_cut(CAT4, {0})


def test_ex12_colour_cut():
    res = max_colour_cut(EX12, A12)
    assert res.size == 4
    assert verify_colour_cut(EX12, A12, res.witness)


def test_colour_cut_empty_cases():
    assert max_colour_cut(CAT4, set()).size is None
    assert max_colour_cut(CAT4, {1, 2, 3, 4}).size is None


def test_colour_cut_witness_matches_restore_walk():
    # every labelled tree of 2-6 leaves with every subset, then seeded trees
    # of 8-60 leaves with subsets of density 1/4, 1/2 and 3/4
    cases = [(tree, bits) for n in range(2, 7) for tree in all_binary_trees(n) for bits in range(1 << n)]
    rng = CounterRng(37)
    for _ in range(120):
        tree = random_binary_tree(8 + rng.randbelow(53), rng=rng)
        for density in (1, 2, 3) * 3:
            cases.append((tree, sum((rng.randbelow(4) < density) << i for i in range(tree.n))))
    for tree, bits in cases:
        a = tree.labels_of_mask(bits)
        assert max_colour_cut(tree, a) == colour_cut_by_restore_walk(tree, a), (tree.serialize(), sorted(a))


def test_cat4_colour_cut_central():
    res = max_colour_cut(CAT4, {1, 3})
    assert res.size == 1
    assert res.witness == {EdgeId([1, 2])}
    assert verify_colour_cut(CAT4, {1, 3}, {EdgeId([1, 2])})


def test_verify_predicates():
    assert not verify_mono_cut(CAT4, {1, 3}, set())
    assert verify_mono_cut(CAT4, {1, 2}, {EdgeId([1, 2])})
    assert not verify_colour_cut(CAT4, {1, 3}, {EdgeId([1])})
    # either side names the middle edge, and naming it twice counts once
    for cut in ([EdgeId([3, 4])], [EdgeId([3, 4]), EdgeId([1, 2])], [EdgeId([3, 4])] * 2):
        assert verify_colour_cut(CAT4, {1, 3}, cut)
        assert not verify_mono_cut(CAT4, {1, 3}, cut)
        assert verify_mono_cut(CAT4, {1, 2}, cut)
    with pytest.raises(ValueError):
        verify_mono_cut(CAT4, {1, 3}, {EdgeId([1, 3])})
    with pytest.raises(ValueError):
        verify_colour_cut(CAT4, {1, 3}, {EdgeId([2, 3])})


def test_verifiers_match_leaf_classes():
    # every edge subset of every labelled tree of 2-5 leaves with every A
    for n in range(2, 6):
        for tree in all_binary_trees(n):
            edges = tree.edges()
            for k in range(1 << len(edges)):
                cut = [e for i, e in enumerate(edges) if (k >> i) & 1]
                for bits in range(1 << n):
                    a = [i + 1 for i in range(n) if (bits >> i) & 1]
                    got = (verify_mono_cut(tree, a, cut), verify_colour_cut(tree, a, cut))
                    assert got == verify_by_leaf_classes(tree, a, cut), (tree.serialize(), a, cut)


def test_verifiers_match_leaf_classes_sampled():
    # 6-8 leaves; each edge named by a random side, some named twice
    rng = CounterRng(23)
    for _ in range(1500):
        n = 6 + rng.randbelow(3)
        tree = random_binary_tree(n, rng=rng)
        a = [i + 1 for i in range(n) if rng.randbelow(2)]
        cut = []
        for e in tree.edges():
            if rng.randbelow(3) == 0:
                named = [e, EdgeId(tree.leaves - set(e.labels))]
                cut.append(named[rng.randbelow(2)])
                if rng.randbelow(4) == 0:
                    cut.append(named[rng.randbelow(2)])
        got = (verify_mono_cut(tree, a, cut), verify_colour_cut(tree, a, cut))
        assert got == verify_by_leaf_classes(tree, a, cut), (tree.serialize(), a, cut)


def test_min_product_constant_reduces_to_cardinality():
    # Same cuts, same tie rule: the witness matches too, not just the value.
    for r in (2, 3):
        for seed in range(8):
            tree = random_binary_tree(6, seed)
            f = {e: r for e in tree.edges()}
            for bits in range(1 << 6):
                a = {i + 1 for i in range(6) if (bits >> i) & 1}
                product = min_product_cut(tree, a, f)
                mono = min_mono_cut(tree, a)
                assert product.product == r**mono.size
                assert product.witness == mono.witness


def test_min_product_weighted_cat4():
    f = {EdgeId([1]): 2, EdgeId([2]): 3, EdgeId([3]): 2, EdgeId([4]): 3, EdgeId([1, 2]): 5}
    res = min_product_cut(CAT4, {1, 3}, f)
    assert res.product == 4
    assert res.witness == {EdgeId([1]), EdgeId([3])}
    assert min_product_cut(CAT4, set(), f).product == 1


def test_min_product_bad_function():
    f = {e: 1 for e in CAT4.edges()}
    f[EdgeId([2])] = 0
    with pytest.raises(ValueError):
        min_product_cut(CAT4, {1, 3}, f)
    del f[EdgeId([2])]
    with pytest.raises(ValueError):
        min_product_cut(CAT4, {1, 3}, f)


def test_min_product_is_minimum_over_enumerated_cuts():
    tree = random_binary_tree(5, seed=11)
    f = {e: 1 + (i % 4) for i, e in enumerate(tree.edges())}
    for bits in range(1, (1 << 5) - 1):
        a = {i + 1 for i in range(5) if (bits >> i) & 1}
        got = min_product_cut(tree, a, f).product
        best = None
        for size in range(len(tree.edges()) + 1):
            for combo in itertools.combinations(tree.edges(), size):
                if verify_mono_cut(tree, a, combo):
                    prod = 1
                    for e in combo:
                        prod *= f[e]
                    best = prod if best is None else min(best, prod)
        assert got == best


def test_brute_force_matches_dp_small():
    for n in range(2, 7):
        for seed in range(6):
            tree = random_binary_tree(n, seed)
            for bits in range(1 << n):
                a = {i + 1 for i in range(n) if (bits >> i) & 1}
                assert brute_force_min_mono(tree, a) == min_mono_cut(tree, a).size


def test_brute_force_examples():
    assert brute_force_min_mono(CAT4, {1, 3}) == 2
    assert brute_force_min_mono(CAT4, {1, 2}) == 1
    assert brute_force_min_mono(EX12, A12) == 5


def test_brute_force_colour_examples():
    assert brute_force_max_colour(CAT4, {1, 3}) == 1
    assert brute_force_max_colour(CAT4, {1, 2}) == 0
    assert brute_force_max_colour(EX12, A12) == 4
    assert brute_force_max_colour(CAT4, set()) is None


def test_brute_force_colour_matches_greedy():
    # every labelled tree of 2-5 leaves with every A, then a seeded sample
    cases = [(tree, bits) for n in range(2, 6) for tree in all_binary_trees(n) for bits in range(1 << n)]
    rng = CounterRng(11)
    for _ in range(1000):
        n = 6 + rng.randbelow(3)
        cases.append((random_binary_tree(n, rng=rng), rng.randbelow(1 << n)))
    for tree, bits in cases:
        a = {i + 1 for i in range(tree.n) if (bits >> i) & 1}
        assert brute_force_max_colour(tree, a) == max_colour_cut(tree, a).size, (tree.serialize(), a)


def test_brute_force_cap():
    big = build_train_track(13)  # 23 edges
    with pytest.raises(ValueError):
        brute_force_min_mono(big, {1, 3})
    with pytest.raises(ValueError):
        brute_force_max_colour(big, {1, 3})


def test_brute_force_routes_agree():
    # subset scan vs max-flow on the overlap region
    for seed in range(40):
        tree = random_binary_tree(6 + seed % 3, seed=100 + seed)
        amask = (seed * 2654435761) % (1 << tree.n)
        if amask in (0, (1 << tree.n) - 1):
            continue
        assert brute_subset_scan(tree, amask) == min_cut_by_flow(tree, amask)


def test_flow_matches_subset_scan_on_every_small_tree():
    # every tree up to 7 leaves, every A holding leaf 1 (A and its complement
    # have the same cuts)
    for n in range(2, 8):
        for tree in all_binary_trees(n):
            for amask in range(1, (1 << n) - 1, 2):
                assert min_cut_by_flow(tree, amask) == brute_subset_scan(tree, amask), (tree.serialize(), amask)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32), st.integers(0, 255))
def test_colour_symmetry(n, seed, bits):
    tree = random_binary_tree(n, seed)
    a = {i + 1 for i in range(n) if (bits >> i) & 1}
    assert min_mono_cut(tree, a).size == min_mono_cut(tree, complement(tree, a)).size


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32), st.integers(0, 255))
def test_mono_vs_colour_offset(n, seed, bits):
    tree = random_binary_tree(n, seed)
    a = {i + 1 for i in range(n) if (bits >> i) & 1}
    mono = min_mono_cut(tree, a)
    colour = max_colour_cut(tree, a)
    if a and len(a) < n:
        assert mono.size == colour.size + 1
        assert len(colour.witness) == colour.size
        assert verify_colour_cut(tree, a, colour.witness)
    else:
        assert mono.size == 0 and colour.size is None
    assert verify_mono_cut(tree, a, mono.witness)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32), st.integers(0, 127), st.integers(0, 2**16))
def test_min_product_lower_bounds_enumerated_cuts(n, seed, bits, fseed):
    tree = random_binary_tree(n, seed)
    f = {e: 1 + ((fseed >> (2 * i)) & 3) for i, e in enumerate(tree.edges())}
    a = {i + 1 for i in range(n) if (bits >> i) & 1}
    got = min_product_cut(tree, a, f).product
    for size in range(min(3, len(tree.edges())) + 1):
        for combo in itertools.combinations(tree.edges(), size):
            if verify_mono_cut(tree, a, combo):
                prod = 1
                for e in combo:
                    prod *= f[e]
                assert got <= prod
