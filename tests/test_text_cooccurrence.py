"""Tests for repro.text.cooccurrence."""

import networkx as nx

from repro.text.cooccurrence import (
    CooccurrenceGraphBuilder,
    TermMerger,
    ego_graph,
)


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
        graph = builder.build([["a", "b", "c"]])
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "c")
        assert not graph.has_edge("a", "c")  # distance 2, window 2 → no

    def test_weights_accumulate(self):
        builder = CooccurrenceGraphBuilder(window=2, stop_language=None)
        graph = builder.build([["a", "b"], ["a", "b"]])
        assert graph["a"]["b"]["weight"] == 2.0

    def test_node_counts(self):
        builder = CooccurrenceGraphBuilder(window=2, stop_language=None)
        graph = builder.build([["a", "b", "a"]])
        assert graph.nodes["a"]["count"] == 2

    def test_stopwords_excluded(self):
        builder = CooccurrenceGraphBuilder(window=3, stop_language="en")
        graph = builder.build([["cornea", "of", "eye"]])
        assert "of" not in graph
        assert graph.has_edge("cornea", "eye")

    def test_self_loops_avoided(self):
        builder = CooccurrenceGraphBuilder(window=3, stop_language=None)
        graph = builder.build([["a", "a", "a"]])
        assert graph.number_of_edges() == 0

    def test_min_weight_prunes(self):
        builder = CooccurrenceGraphBuilder(
            window=2, stop_language=None, min_weight=2.0
        )
        graph = builder.build([["a", "b"], ["a", "b"], ["c", "d"]])
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("c", "d")

    def test_terms_merged_into_nodes(self):
        builder = CooccurrenceGraphBuilder(
            window=2, stop_language=None, terms=[("corneal", "injuries")]
        )
        graph = builder.build([["corneal", "injuries", "heal"]])
        assert "corneal injuries" in graph
        assert graph.has_edge("corneal injuries", "heal")


class TestEgoGraph:
    def test_radius_one(self):
        g = nx.Graph()
        g.add_edges_from([("a", "b"), ("b", "c")])
        ego = ego_graph(g, "a", radius=1)
        assert set(ego.nodes) == {"a", "b"}

    def test_missing_node_returns_empty(self):
        ego = ego_graph(nx.Graph(), "missing")
        assert ego.number_of_nodes() == 0

    def test_returns_copy(self):
        g = nx.Graph()
        g.add_edge("a", "b")
        ego = ego_graph(g, "a")
        ego.add_node("new")
        assert "new" not in g
