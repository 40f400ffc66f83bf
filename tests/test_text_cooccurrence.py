"""Tests for repro.text.cooccurrence."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.text.cooccurrence import CooccurrenceGraphBuilder, TermMerger


def merge_term_tokens(tokens, terms):
    return TermMerger(terms).merge(tokens)


class TestMergeTermTokens:
    def test_merges_bigram(self):
        out = merge_term_tokens(
            ["corneal", "injuries", "heal"], [("corneal", "injuries")]
        )
        assert out == ["corneal injuries", "heal"]

    def test_longest_match_wins(self):
        out = merge_term_tokens(
            ["a", "b", "c"], [("a", "b"), ("a", "b", "c")]
        )
        assert out == ["a b c"]

    def test_case_insensitive(self):
        out = merge_term_tokens(["Corneal", "Injuries"], [("corneal", "injuries")])
        assert out == ["corneal injuries"]

    def test_no_match_passthrough_lowercases(self):
        assert merge_term_tokens(["X", "y"], []) == ["x", "y"]

    def test_overlapping_matches_do_not_double_consume(self):
        out = merge_term_tokens(["a", "b", "a"], [("a", "b"), ("b", "a")])
        assert out == ["a b", "a"]

    def test_empty_term_ignored(self):
        assert merge_term_tokens(["a"], [()]) == ["a"]

    def test_one_merger_serves_many_documents(self):
        merger = TermMerger([("a", "b"), ("c",)])
        assert merger.merge(["a", "b", "c"]) == ["a b", "c"]
        assert merger.merge(["b", "a", "b"]) == ["b", "a b"]


class TestCooccurrenceGraphBuilder:
    def test_window_cooccurrence(self):
        builder = CooccurrenceGraphBuilder(window=2, stop_language=None)
        __, graph = builder.build([["a", "b", "c"]])
        assert "b" in graph["a"]
        assert "c" in graph["b"]
        assert "c" not in graph["a"]  # distance 2, window 2 → no

    def test_weights_accumulate(self):
        builder = CooccurrenceGraphBuilder(window=2, stop_language=None)
        __, graph = builder.build([["a", "b"], ["a", "b"]])
        assert graph["a"]["b"] == graph["b"]["a"] == 2.0

    def test_node_counts(self):
        builder = CooccurrenceGraphBuilder(window=2, stop_language=None)
        counts, __ = builder.build([["a", "b", "a"]])
        assert counts == {"a": 2, "b": 1}

    def test_stopwords_excluded(self):
        builder = CooccurrenceGraphBuilder(window=3, stop_language="en")
        __, graph = builder.build([["cornea", "of", "eye"]])
        assert "of" not in graph
        assert "eye" in graph["cornea"]

    def test_self_loops_avoided(self):
        builder = CooccurrenceGraphBuilder(window=3, stop_language=None)
        __, graph = builder.build([["a", "a", "a"]])
        assert graph == {"a": {}}

    def test_min_weight_prunes(self):
        builder = CooccurrenceGraphBuilder(
            window=2, stop_language=None, min_weight=2.0
        )
        __, graph = builder.build([["a", "b"], ["a", "b"], ["c", "d"]])
        assert "b" in graph["a"]
        # Pruned edges leave their nodes behind, isolated.
        assert graph["c"] == graph["d"] == {}

    def test_terms_merged_into_nodes(self):
        builder = CooccurrenceGraphBuilder(
            window=2, stop_language=None, terms=[("corneal", "injuries")]
        )
        __, graph = builder.build([["corneal", "injuries", "heal"]])
        assert "corneal injuries" in graph
        assert "heal" in graph["corneal injuries"]


def networkx_cooccurrence_graph(builder, documents):
    """The builder's graph grown as a networkx graph, token by token."""
    graph = nx.Graph()
    for tokens in documents:
        prepared = builder._prepare(tokens)
        n = len(prepared)
        for i, left in enumerate(prepared):
            if not graph.has_node(left):
                graph.add_node(left)
            graph.nodes[left]["count"] = graph.nodes[left].get("count", 0) + 1
            for j in range(i + 1, min(i + builder.window, n)):
                right = prepared[j]
                if left == right:
                    continue
                if graph.has_edge(left, right):
                    graph[left][right]["weight"] += 1.0
                else:
                    graph.add_edge(left, right, weight=1.0)
    if builder.min_weight > 1.0:
        graph.remove_edges_from(
            [(u, v) for u, v, w in graph.edges(data="weight")
             if w < builder.min_weight]
        )
    return graph


class TestBuilderMatchesNetworkx:
    @given(
        documents=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d", "of", "the"]),
                     max_size=10),
            max_size=6,
        ),
        window=st.integers(min_value=1, max_value=5),
        min_weight=st.sampled_from([1.0, 2.0, 3.0]),
        stop_language=st.sampled_from([None, "en"]),
        terms=st.sampled_from([None, [("a", "b")], [("c", "d"), ("c",)]]),
    )
    @settings(max_examples=100, deadline=None)
    def test_nodes_counts_and_weights(
        self, documents, window, min_weight, stop_language, terms
    ):
        builder = CooccurrenceGraphBuilder(
            window=window, stop_language=stop_language,
            min_weight=min_weight, terms=terms,
        )
        counts, graph = builder.build(documents)
        oracle = networkx_cooccurrence_graph(builder, documents)
        assert list(graph) == list(oracle)
        assert counts == dict(oracle.nodes(data="count"))
        for node, near in graph.items():
            assert near == {
                other: data["weight"] for other, data in oracle[node].items()
            }
