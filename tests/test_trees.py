"""Tree parsing, builders, and canonical edge identifiers."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_reference as ref
from cut_oracle import hard_subset_by_pruning
from tncuts import (
    CounterRng,
    EdgeId,
    Tree,
    TreeParseError,
    all_binary_trees,
    build_almost_perfect_binary,
    build_train_track,
    complement,
    construct_hard_subset,
    min_exponent_over_permutations,
    parse_tree,
    random_binary_tree,
    relabel,
    tree_shapes,
    tt_exponent,
)
from tncuts import SizeCapError, trees
from tncuts.trees import _adjacency, _canonical_edges, _shape_signature

CAT4 = "((1,2),(3,4))"


def split_set(tree: Tree) -> set[tuple[int, ...]]:
    return {e.labels for e in tree.edges()}


def test_parse_cat4_splits():
    tree = parse_tree(CAT4)
    assert tree.n == 4
    assert split_set(tree) == {(1,), (2,), (3,), (4,), (1, 2)}


def test_parse_two_leaves():
    tree = parse_tree("(1,2)")
    assert tree.n == 2
    assert split_set(tree) == {(1,)}


def test_parse_whitespace_insignificant():
    assert parse_tree(" ( (1, 2) ,\n(3,4) ) ") == parse_tree(CAT4)


@pytest.mark.parametrize(
    "text",
    ["((1,2)", "(1,2))", "((1,2),(3,4)", "", "(1)", "((1,2),)", "(1,(2,))"],
)
def test_parse_malformed(text):
    with pytest.raises(TreeParseError):
        parse_tree(text)


def test_parse_single_leaf_rejected():
    with pytest.raises(ValueError):
        parse_tree("7")


@pytest.mark.parametrize("text", ["((1,2),(3,3))", "((1,2),(4,5))", "((0,1),(2,3))"])
def test_parse_bad_labels(text):
    with pytest.raises(ValueError):
        parse_tree(text)


def test_parse_refuses_trees_above_the_leaf_cap(monkeypatch):
    monkeypatch.setattr(trees, "_MAX_LEAVES", 4)
    assert parse_tree(CAT4).n == 4
    for text in ("(((1,2),(3,4)),5)", "((1,2),(3,4),5)"):  # counted by commas, before parsing
        with pytest.raises(SizeCapError, match="a tree of 5 leaves exceeds the cap of 4"):
            parse_tree(text)
    # the cap is on tree texts; the builders make their own and have none
    assert build_train_track(5).n == build_almost_perfect_binary(5).n == 5


def test_edge_counts():
    for n in range(2, 9):
        tree = build_train_track(n)
        assert len(tree.edges()) == (1 if n == 2 else 2 * n - 3)
    # leaf edges by canonical position: leaf i's edge is edges()[i - 1]
    trees = [tree for n in range(2, 8) for tree in all_binary_trees(n)]
    trees += [random_binary_tree(n, seed=seed) for n in range(8, 61) for seed in range(2)]
    for tree in trees:
        labels = [e.labels for e in tree.edges()]
        if tree.n == 2:
            assert labels == [(1,)]
        else:
            assert labels[: tree.n] == [(i + 1,) for i in range(tree.n)], tree.serialize()


@pytest.mark.parametrize(
    "adjacency, leaf_labels, message",
    [
        # dangling neighbour: 3 lists 9, which is not a vertex
        ({0: {3}, 1: {3}, 2: {3}, 3: {0, 1, 9}}, {0: 1, 1: 2, 2: 3}, "does not list"),
        # one-sided lists: 5 lists 0, and 0 does not list 5
        ({0: {4}, 1: {4}, 2: {5}, 3: {5}, 4: {0, 1, 5}, 5: {2, 3, 0}}, {0: 1, 1: 2, 2: 3, 3: 4}, "does not list"),
        ({0: {1}, 1: {2}}, {0: 1, 1: 2}, "does not list"),
        # a 2-leaf path plus a triangle with a pendant leaf on each corner:
        # vertex count, edge count and degrees all fit a tree on 5 leaves
        (
            {0: {1}, 1: {0}, 2: {5}, 3: {6}, 4: {7}, 5: {2, 6, 7}, 6: {3, 5, 7}, 7: {4, 5, 6}},
            {v: v + 1 for v in range(5)},
            "must be connected",
        ),
        # inner vertex 4 has degree 4 and inner vertex 5 degree 2
        ({0: {4}, 1: {4}, 2: {4}, 3: {5}, 4: {0, 1, 2, 5}, 5: {3, 4}}, {0: 1, 1: 2, 2: 3, 3: 4}, "degree"),
        # leaves 1 and 2 joined: four vertices, but four edges
        ({0: {1, 3}, 1: {0, 3}, 2: {3}, 3: {0, 1, 2}}, {0: 1, 1: 2, 2: 3}, "2n - 3 edges"),
        # leaf 3's vertex is missing from the adjacency
        ({0: {1}, 1: {0}}, {0: 1, 1: 2, 9: 3}, "2n - 2 vertices"),
    ],
)
def test_tree_constructor_rejects_bad_adjacency(adjacency, leaf_labels, message):
    with pytest.raises(ValueError, match=message):
        Tree(adjacency, leaf_labels)


def test_train_track_splits():
    for n in range(2, 13):
        tree = build_train_track(n)
        singles = {(i,) for i in range(1, n + 1)}
        prefixes = {tuple(range(1, j + 1)) for j in range(1, n)}
        want = set()
        for labels in singles | prefixes:
            other = tuple(sorted(set(range(1, n + 1)) - set(labels)))
            want.add(min(labels, other, key=lambda t: (len(t), t)))
        assert split_set(tree) == want


def test_train_track_small_examples():
    assert split_set(build_train_track(5)) >= {(1, 2), (4, 5)}  # {1,2,3} canonicalises to (4,5)
    assert build_train_track(2).n == 2
    assert build_train_track(4) == parse_tree(CAT4)
    with pytest.raises(ValueError):
        build_train_track(1)


def _hand_built_train_track(n: int) -> Tree:
    # leaves 0..n-1 carry labels 1..n; spine vertices n..2n-3, leaf i + 1 on spine i
    if n == 2:
        return Tree({0: {1}, 1: {0}}, {0: 1, 1: 2})
    spine = list(range(n, 2 * n - 2))
    links = [(0, spine[0]), (n - 1, spine[-1])] + [(i + 1, v) for i, v in enumerate(spine)]
    links += list(zip(spine, spine[1:]))
    adj: dict[int, set[int]] = {v: set() for v in range(2 * n - 2)}
    for u, v in links:
        adj[u].add(v)
        adj[v].add(u)
    return Tree(adj, {i: i + 1 for i in range(n)})


def test_train_track_matches_hand_built():
    # the builder goes through the parser; same tree, same internal layout
    fields = ("_edge_ends", "_children", "_postorder", "_parent_edge")
    for n in list(range(2, 80)) + [1500]:
        got, want = build_train_track(n), _hand_built_train_track(n)
        assert got.serialize() == want.serialize(), n
        assert got.edges() == want.edges(), n
        for field in fields:
            assert getattr(got, field) == getattr(want, field), (n, field)


def test_abt_small_shapes():
    assert build_almost_perfect_binary(4) == parse_tree(CAT4)
    assert build_almost_perfect_binary(5) == parse_tree("(((1,2),3),(4,5))")
    assert build_almost_perfect_binary(6) == parse_tree("(((1,2),(3,4)),(5,6))")
    assert build_almost_perfect_binary(8) == parse_tree("(((1,2),(3,4)),((5,6),(7,8)))")
    with pytest.raises(ValueError):
        build_almost_perfect_binary(0)


def test_leaves_left_of():
    tree = parse_tree(CAT4)
    assert tree.leaves_left_of(EdgeId([1, 2])) == {1, 2}
    assert tree.leaves_left_of(EdgeId([3])) == {3}
    tt5 = build_train_track(5)
    # the {1,2,3} bipartition canonicalises to the smaller side {4,5};
    # lookups accept either side and return the canonical one
    assert tt5.leaves_left_of(EdgeId([4, 5])) == {4, 5}
    assert tt5.leaves_left_of(EdgeId([1, 2, 3])) == {4, 5}
    assert tt5.resolve_edge(EdgeId([1, 2, 3])) == EdgeId([4, 5])
    with pytest.raises(ValueError):
        tree.leaves_left_of(EdgeId([1, 3]))
    with pytest.raises(ValueError):
        tt5.resolve_edge(EdgeId([1, 2, 9]))
    # a side that repeats a label, or holds no label >= 1, names no edge, not
    # even by its complement
    for labels in ([3, 3, 4], [2, 3, 4, 4], [0, 1], [-2, 1]):
        with pytest.raises(ValueError):
            tree.resolve_edge(EdgeId(labels))


TREE_FIELDS = ("_edge_ends", "_children", "_parent_edge", "_postorder")


def test_build_is_canonical_whatever_the_raw_numbering():
    trees = [tree for n in range(2, 8) for tree in all_binary_trees(n)]
    trees += [random_binary_tree(n, seed=n) for n in range(8, 60)]
    for tree in trees:
        for again in (parse_tree(tree.serialize()), relabel(tree, range(1, tree.n + 1))):
            assert again == tree and hash(again) == hash(tree), tree.serialize()
            assert again.edges() == tree.edges(), tree.serialize()
            for field in TREE_FIELDS:
                assert getattr(again, field) == getattr(tree, field), (tree.serialize(), field)


def test_canonical_order_matches_mask_reference():
    # (size, least label) counted per vertex puts the edges in the order of
    # their side masks, and edges() builds the same sides
    trees = [tree for n in range(2, 8) for tree in all_binary_trees(n)]
    trees += [random_binary_tree(n, seed=n) for n in range(8, 61)]
    trees += [build(n) for build in (build_train_track, build_almost_perfect_binary) for n in (300, 1366)]
    for tree in trees:
        adj = _adjacency(tree._edge_ends)
        want = ref.canonical_edges(adj, {v: v + 1 for v in range(tree.n)})
        assert tree._edge_ends == tuple((u, v) for _, u, v in want), tree.serialize()
        assert [e.mask for e in tree.edges()] == [side for side, _, _ in want], tree.serialize()
        reversed_labels = {v: tree.n - v for v in range(tree.n)}
        want = ref.canonical_edges(adj, reversed_labels)
        assert _canonical_edges(adj, reversed_labels) == [(u, v) for _, u, v in want], tree.serialize()


def test_edge_bipartition_properties():
    trees = [parse_tree(CAT4), build_train_track(7), build_almost_perfect_binary(9)]
    trees += all_binary_trees(6)
    trees += [random_binary_tree(n, seed=seed) for n in (2, 3, 7, 13, 24, 40) for seed in range(3)]
    for tree in trees:
        keys = []
        for e in tree.edges():
            side = tree.leaves_left_of(e)
            other = complement(tree, side)
            assert side and other
            assert side | other == tree.leaves
            assert not side & other
            # the canonical key is the smaller side by (size, sorted labels)
            key = min((len(s), tuple(sorted(s))) for s in (side, other))
            assert e.sort_key() == key
            keys.append(key)
        assert keys == sorted(keys)


def test_relabel():
    tree = parse_tree(CAT4)
    assert relabel(tree, {1: 1, 2: 2, 3: 3, 4: 4}) == tree
    swapped = relabel(tree, {1: 1, 2: 3, 3: 2, 4: 4})
    assert (1, 3) in split_set(swapped)
    assert relabel(swapped, {1: 1, 2: 3, 3: 2, 4: 4}) == tree
    with pytest.raises(ValueError):
        relabel(tree, {1: 1, 2: 2, 3: 3, 4: 3})


def test_serialize_round_trip_canonical():
    for text in [CAT4, "(1,2)", "(((1,2),3),(4,5))"]:
        tree = parse_tree(text)
        assert parse_tree(tree.serialize()) == tree
        # canonical form is a fixed point
        assert parse_tree(tree.serialize()).serialize() == tree.serialize()


def test_serialize_round_trip_deep():
    # deeper than Python's recursion limit: parsing and serialising are iterative
    for tree in (build_train_track(1500), build_almost_perfect_binary(1366)):
        assert parse_tree(tree.serialize()) == tree


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2**32))
def test_serialize_round_trip_random(n, seed):
    tree = random_binary_tree(n, seed)
    assert parse_tree(tree.serialize()) == tree


def test_enumeration_counts():
    # (2n-5)!! labelled trees
    expected = {2: 1, 3: 1, 4: 3, 5: 15, 6: 105, 7: 945}
    for n, want in expected.items():
        assert sum(1 for _ in all_binary_trees(n)) == want


def test_enumeration_distinct():
    trees = list(all_binary_trees(6))
    assert len(set(trees)) == len(trees)


def test_tree_shapes_counts():
    assert [len(tree_shapes(n)) for n in range(4, 11)] == [1, 1, 2, 2, 4, 6, 11]


def test_random_tree_deterministic():
    assert random_binary_tree(10, seed=5) == random_binary_tree(10, seed=5)
    assert random_binary_tree(10, seed=5) != random_binary_tree(10, seed=6)


# -- the iterative walks against their recursive references -----------------


def test_shape_signature_matches_reference():
    trees = [tree for n in range(2, 8) for tree in all_binary_trees(n)]
    trees += [random_binary_tree(n, seed=n) for n in range(8, 41)]
    trees += [build(n) for n in (50, 151, 300) for build in (build_train_track, build_almost_perfect_binary)]
    for tree in trees:
        assert _shape_signature(tree) == ref.shape_signature(tree), tree.serialize()


def test_shape_signature_of_a_deep_caterpillar():
    # 3000 leaves nest far deeper than Python's recursion limit
    n = 3000
    assert _shape_signature(build_train_track(n)) == "(" * (n - 1) + "LL)" + "L)" * (n - 2)


def test_tree_shapes_match_reference():
    for n in range(4, 11):
        assert [t.serialize() for t in tree_shapes(n)] == [t.serialize() for t in ref.tree_shapes(n)], n


def test_enumeration_order_matches_reference():
    for n in range(2, 8):
        got, want = list(all_binary_trees(n)), list(ref.all_binary_trees(n))
        assert [t.serialize() for t in got] == [t.serialize() for t in want], n


def test_almost_perfect_binary_matches_reference():
    for n in list(range(2, 301)) + [1366]:
        assert build_almost_perfect_binary(n).serialize() == ref.almost_perfect_binary(n).serialize(), n


def _parsed(parse, text: str) -> str | None:
    try:
        return parse(text).serialize()
    except ValueError:
        return None


def test_parser_matches_recursive_descent_reference():
    # every one-character deletion, insertion and substitution of 300 seeded
    # random expressions on 2-4 leaves: the same accept or reject, and the
    # same tree
    alphabet = "(),0123456789 x\u00b2"
    rng = CounterRng(1965)
    edits = set()
    for _ in range(300):
        parts = [str(lab) for lab in range(1, 3 + rng.randbelow(3))]
        while len(parts) > 1:
            first = parts.pop(rng.randbelow(len(parts)))
            second = parts.pop(rng.randbelow(len(parts)))
            parts.append(f"({first},{second})")
        text = parts[0]
        edits |= {text[:i] + text[i + 1 :] for i in range(len(text))}
        edits |= {text[:i] + c + text[i + j :] for i in range(len(text) + 1) for c in alphabet for j in (0, 1)}
    for edited in sorted(edits):
        assert _parsed(parse_tree, edited) == _parsed(ref.parse_tree, edited), edited


# -- the mask-based builders against the per-leaf forms and the pruning oracle --


def test_random_trees_match_per_leaf_reference():
    # seeds 0-9 at n = 2..150: the same trees and edge order, and the hard
    # subsets of the pruning oracle.  An inserted leaf never moves, so the
    # tree on leaves 1..m is the restriction of every later tree and a match
    # at n = 150 pins every earlier draw; the builder, O(n^2 log n) per
    # call, runs at each n up to 60 and at 75, 100, 125 and 150.
    for seed in range(10):
        for n, want in enumerate(ref.random_trees(150, seed), start=2):
            if n <= 60 or n % 25 == 0:
                got = random_binary_tree(n, seed)
                assert got.serialize() == want.serialize(), (seed, n)
                assert got.edges() == want.edges(), (seed, n)   # an edge's key is a function of its side
                assert construct_hard_subset(got) == hard_subset_by_pruning(got), (seed, n)
            if seed == 0:
                assert [e.key for e in want.edges()] == ref.edge_keys(want), n


def test_random_trees_from_one_generator_match_reference():
    # consecutive trees drawn from one generator consume the same draws
    rng, ref_rng = CounterRng(41), CounterRng(41)
    for n in [n for n in range(8, 13) for _ in range(20)] + [2, 3, 60, 200]:
        got, want = random_binary_tree(n, rng=rng), ref.random_binary_tree(n, rng=ref_rng)
        assert got.serialize() == want.serialize(), n
    assert rng.next_u64() == ref_rng.next_u64()


def test_edge_id_order_and_hash_follow_the_labels():
    rng = CounterRng(8)
    ids = []
    for _ in range(300):
        n = 2 + rng.randbelow(130)
        labels = {1 + rng.randbelow(n) for _ in range(1 + rng.randbelow(6))}
        ids.append(EdgeId(labels))
    for a, b in zip(ids, ids[1:] + ids[:1]):
        assert (a < b) == (a.sort_key() < b.sort_key()), (a, b)
        assert (a == b) == (a.labels == b.labels)
    tree = build_train_track(200)
    for e in tree.edges():
        named = EdgeId.from_key(e.key)
        assert named == e and hash(named) == hash(e) and named.mask == e.mask
        assert tree.resolve_edge(EdgeId(tree.leaves - set(e.labels))) is e
    assert tree.edges() is tree.edges()
    assert [e.key for e in sorted(reversed(tree.edges()))] == [e.key for e in tree.edges()]


def test_edge_id_refuses_labels_above_2_to_the_24():
    # a mask is as wide as its highest label: about 12 GB for 10**11
    for make in (lambda: EdgeId([10**11]), lambda: EdgeId.from_key("1-99999999999"), lambda: EdgeId([3, 2**24 + 1])):
        with pytest.raises(ValueError):
            make()
    assert EdgeId([1, 2**24]).mask.bit_length() == 2**24


# -- scale gates: memory and build counts, no wall clock ----------------------


def _retained(make):
    """What ``make()`` returns, and the bytes still allocated once it has returned."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


def test_deep_caterpillar_tree_stays_small():
    # a tree holds no side masks until its edges are named, so it takes O(n)
    # memory, and the tree-only paths never name them
    n = 3000
    text = "(" * (n - 1) + "1," + "),".join(map(str, range(2, n + 1))) + ")"
    tree, retained = _retained(lambda: parse_tree(text))
    assert tree.n == n
    assert retained < 8 * 2**20
    _, small = _retained(lambda: build_train_track(3000))
    _, large = _retained(lambda: build_train_track(12000))
    assert large < 5 * small, (small, large)
    tree = build_almost_perfect_binary(1366)
    tt_exponent(tree)
    min_exponent_over_permutations(tree, "sampled", trials=3, seed=1)
    assert tree._edge_ids is None


def test_generators_build_one_tree_per_tree_returned(monkeypatch):
    builds = []
    init = Tree.__init__

    def counted(self, adjacency, leaf_labels):
        builds.append(len(leaf_labels))
        init(self, adjacency, leaf_labels)

    monkeypatch.setattr(Tree, "__init__", counted)
    random_binary_tree(200, seed=3)
    assert builds == [200]
    builds.clear()
    assert sum(1 for _ in all_binary_trees(6)) == 105
    assert builds == [6] * 105
