import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugestrata import labels as labels_module
from gaugestrata.labels import (HoweLabel, LabelError, TransitiveReductionError,
                                canonicalize, covering_relation, descendants,
                                direct_successors,
                                dual, enumerate_labels, format_label,
                                hasse_diagram, leq, merge, parse_label, split)


def L(k, m):
    return canonicalize(k, m)


class TestCanonicalize:
    def test_sorts_pairs_descending(self):
        assert L((1, 2), (3, 1)) == HoweLabel((2, 1), (1, 3))

    def test_singleton_fixed_point(self):
        assert L((1,), (5,)) == HoweLabel((1,), (5,))

    def test_permutation_closure(self):
        assert L((4, 6, 4), (1, 2, 1)) == L((4, 4, 6), (1, 1, 2))

    def test_idempotent(self):
        j = L((4, 4, 6), (1, 1, 2))
        assert canonicalize(j.k, j.m) == j

    def test_length_mismatch(self):
        with pytest.raises(LabelError):
            canonicalize((1, 2), (1,))

    def test_nonpositive_entry(self):
        with pytest.raises(LabelError):
            canonicalize((1, 0), (1, 1))
        with pytest.raises(LabelError):
            canonicalize((1, -2), (1, 1))

    def test_noncanonical_constructor_rejected(self):
        with pytest.raises(LabelError):
            HoweLabel((1, 2), (3, 1))

    @given(st.integers(2, 7), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_permutation_soundness(self, n, rng):
        labels = enumerate_labels(n)
        j = rng.choice(labels)
        perm = list(range(j.r))
        rng.shuffle(perm)
        k = [j.k[i] for i in perm]
        m = [j.m[i] for i in perm]
        assert canonicalize(k, m) == j


class TestEnumerate:
    def test_n1(self):
        assert enumerate_labels(1) == [HoweLabel((1,), (1,))]

    def test_n2_exact(self):
        assert set(enumerate_labels(2)) == {L((1,), (2,)), L((1, 1), (1, 1)), L((2,), (1,))}

    @pytest.mark.parametrize("n,count", [(2, 3), (3, 5), (4, 11), (5, 17)])
    def test_figure_counts(self, n, count):
        assert len(enumerate_labels(n)) == count

    def test_rejects_zero(self):
        with pytest.raises(LabelError):
            enumerate_labels(0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_total_and_uniqueness(self, n):
        labels = enumerate_labels(n)
        assert len(set(labels)) == len(labels)
        for j in labels:
            assert j.n == n
            assert 1 <= j.r <= n
            assert canonicalize(j.k, j.m) == j

    def test_deterministic_order(self):
        assert enumerate_labels(6) == enumerate_labels(6)


class TestDual:
    def test_standard_model_label(self):
        assert dual(L((2, 3), (1, 1))) == L((1, 1), (2, 3))

    def test_self_dual(self):
        j = L((1, 1), (1, 1))
        assert dual(j) == j

    @pytest.mark.parametrize("n", range(1, 7))
    def test_involution(self, n):
        for j in enumerate_labels(n):
            assert dual(dual(j)) == j

    @pytest.mark.parametrize("n", range(1, 7))
    def test_node_set_closed_under_dual(self, n):
        labels = set(enumerate_labels(n))
        assert {dual(j) for j in labels} == labels


class TestSplitMerge:
    def test_split_1_3(self):
        assert split(L((1,), (4,)), 0, 1, 3) == L((1, 1), (1, 3))

    def test_split_2_2(self):
        assert split(L((1,), (4,)), 0, 2, 2) == L((1, 1), (2, 2))

    def test_split_canonicalizes(self):
        assert split(L((1, 1), (2, 2)), 0, 1, 1) == L((1, 1, 1), (1, 1, 2))

    def test_split_rejects_m1(self):
        with pytest.raises(LabelError):
            split(L((2,), (1,)), 0, 1, 0)
        with pytest.raises(LabelError):
            split(L((1, 1), (1, 1)), 0, 1, 1)

    def test_split_rejects_bad_parts(self):
        with pytest.raises(LabelError):
            split(L((1,), (4,)), 0, 1, 2)

    def test_merge_example(self):
        assert merge(L((1, 1), (2, 2)), 0, 1) == L((2,), (2,))

    def test_merge_torus(self):
        assert merge(L((1, 1), (1, 1)), 0, 1) == L((2,), (1,))

    def test_merge_adds_k(self):
        assert merge(L((2, 1), (1, 1)), 0, 1) == L((3,), (1,))

    def test_merge_rejects_unequal_m(self):
        with pytest.raises(LabelError):
            merge(L((2, 1), (2, 1)), 0, 1)

    def test_merge_rejects_equal_indices(self):
        with pytest.raises(LabelError):
            merge(L((1, 1), (1, 1)), 1, 1)


class TestSuccessors:
    def test_center_of_su4(self):
        assert direct_successors(L((1,), (4,))) == {L((1, 1), (1, 3)), L((1, 1), (2, 2))}

    def test_both_routes(self):
        assert direct_successors(L((1, 1), (2, 2))) == {L((1, 1, 1), (1, 1, 2)), L((2,), (2,))}

    @pytest.mark.parametrize("n", range(2, 6))
    def test_full_group_is_terminal(self, n):
        assert direct_successors(L((n,), (1,))) == frozenset()


class TestHasse:
    def test_n2_chain(self):
        d = hasse_diagram(2)
        assert d.edges == {(L((1,), (2,)), L((1, 1), (1, 1))),
                           (L((1, 1), (1, 1)), L((2,), (1,)))}

    def test_n3_shape(self):
        d = hasse_diagram(3)
        assert len(d.nodes) == 5
        assert d.successors(L((1,), (3,))) == {L((1, 1), (1, 2))}

    def test_su4_common_successor(self):
        d = hasse_diagram(4)
        a, b = L((1, 1), (1, 3)), L((1, 1), (2, 2))
        common = d.successors(a) & d.successors(b)
        assert L((1, 1, 1), (1, 1, 2)) in common

    @pytest.mark.parametrize("n", range(2, 7))
    def test_duality_antiisomorphism(self, n):
        d = hasse_diagram(n)
        assert d.edges == {(dual(b), dual(a)) for a, b in d.edges}

    @pytest.mark.parametrize("n", range(2, 6))
    def test_transitive_reduction_independent(self, n):
        # Oracle: drop an edge, recompute reachability by BFS over the rest.
        d = hasse_diagram(n)
        adj = {j: set() for j in d.nodes}
        for a, b in d.edges:
            adj[a].add(b)
        for a, b in sorted(d.edges):
            adj[a].discard(b)
            seen, stack = set(), [a]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert b not in seen, f"edge {a} -> {b} is redundant"
            adj[a].add(b)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_edges_are_splits_and_merges(self, n):
        # The split/merge successors are exactly the covering relation.
        labels = enumerate_labels(n)
        assert hasse_diagram(n).edges == {(a, s) for a in labels for s in direct_successors(a)}

    def test_implied_edge_raises(self, monkeypatch):
        bottom, top = L((1,), (4,)), L((4,), (1,))
        plain = labels_module.direct_successors
        monkeypatch.setattr(labels_module, "direct_successors",
                            lambda j: plain(j) | {top} if j == bottom else plain(j))
        with pytest.raises(TransitiveReductionError, match=r"\(1\|4\)"):
            hasse_diagram(4)

    def test_covering_wrong_total_raises(self):
        with pytest.raises(LabelError, match=r"\(1\|4\) has total 4, expected 3"):
            covering_relation(3, [L((1,), (3,)), L((1,), (4,))])

    def test_edges_within_nodes(self):
        d = hasse_diagram(5)
        for a, b in d.edges:
            assert a in d.nodes and b in d.nodes
            assert a != b


class TestLeq:
    def test_center_below_top(self):
        assert leq(L((1,), (4,)), L((4,), (1,)))

    def test_incomparable(self):
        assert not leq(L((2,), (2,)), L((1, 1), (2, 2)))

    def test_reflexive(self):
        for j in enumerate_labels(5):
            assert leq(j, j)

    def test_mismatched_n(self):
        with pytest.raises(LabelError):
            leq(L((1,), (2,)), L((1,), (3,)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_unique_extremes(self, n):
        labels = enumerate_labels(n)
        bottom, top = L((1,), (n,)), L((n,), (1,))
        for j in labels:
            assert leq(bottom, j)
            assert leq(j, top)

    def test_antisymmetry_sample(self):
        labels = enumerate_labels(5)
        for a in labels:
            for b in labels:
                if a != b and leq(a, b):
                    assert not leq(b, a)

    def test_descendants_matches_leq(self):
        labels = enumerate_labels(4)
        for a in labels:
            assert descendants(a) == {b for b in labels if b != a and leq(a, b)}


class TestGrammar:
    def test_parse_spaces(self):
        assert parse_label("(4 4 6|1 1 2)") == L((4, 4, 6), (1, 1, 2))

    def test_parse_commas_and_whitespace(self):
        assert parse_label("  ( 4, 4 ,6 | 1,1, 2 ) ") == L((4, 4, 6), (1, 1, 2))

    def test_emit_single_spaces(self):
        assert format_label(L((4, 4, 6), (1, 1, 2))) == "(6 4 4|2 1 1)"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip(self, n):
        for j in enumerate_labels(n):
            assert parse_label(format_label(j)) == j

    @pytest.mark.parametrize("bad", ["", "(1|)", "(|1)", "1 2|1 1", "(1 2;1 1)", "(x|y)"])
    def test_parse_errors(self, bad):
        with pytest.raises(LabelError):
            parse_label(bad)
