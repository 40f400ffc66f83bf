"""Louvain's two local-move sweeps against each other.

The list sweep is the oracle: ``louvain_labels_many`` must give the same
labels as one ``louvain_labels`` call per graph (a one-graph list, which
never takes the wavefront), with the level-0 wavefront forced on and
off.  The graphs carry small integer
weights, so gains tie; isolated nodes, weighted self-loops and
disconnected parts; and ``min_gain`` 0.3 makes candidates inside the
acceptance window common, which is where ``argmax`` and the sequential
scan part ways.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.clustering import louvain
from repro.clustering.louvain import (
    CSRGraph,
    CSRGraphBatch,
    louvain_labels,
    louvain_labels_many,
)


@contextmanager
def wavefront(threshold):
    """Run with ``WAVEFRONT_MIN_GRAPHS`` set to ``threshold``."""
    saved = louvain.WAVEFRONT_MIN_GRAPHS
    louvain.WAVEFRONT_MIN_GRAPHS = threshold
    try:
        yield
    finally:
        louvain.WAVEFRONT_MIN_GRAPHS = saved


def as_batch(graphs):
    """``graphs`` concatenated into one :class:`CSRGraphBatch` (copies)."""
    sizes = np.array([graph.n_nodes for graph in graphs], dtype=np.int64)
    node_offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=node_offsets[1:])
    indptr = np.zeros(int(node_offsets[-1]) + 1, dtype=np.int64)
    if graphs:
        np.cumsum(np.concatenate([np.diff(g.indptr) for g in graphs]), out=indptr[1:])
    return CSRGraphBatch(
        indptr=indptr,
        indices=np.concatenate([g.indices for g in graphs] or [np.empty(0, np.int64)]),
        weights=np.concatenate([g.weights for g in graphs] or [np.empty(0)]),
        node_offsets=node_offsets,
    )


@st.composite
def graphs(draw):
    """A CSR graph of 0-40 nodes: weights 1-3, 1-3 disconnected parts.

    Edges are drawn per node pair at a drawn density, so graphs range
    from mostly isolated nodes to dense blocks; self-loops, when drawn,
    are weighted like any edge.
    """
    n = draw(st.integers(min_value=0, max_value=40))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    n_parts = draw(st.integers(min_value=1, max_value=3))
    loops = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    part = rng.integers(0, n_parts, size=n)
    rows, cols = np.triu_indices(n, k=0 if loops else 1)
    keep = (part[rows] == part[cols]) & (rng.random(rows.size) < density)
    weights = rng.integers(1, 4, size=int(keep.sum())).astype(np.float64)
    return CSRGraph.from_edges(n, rows[keep], cols[keep], weights)


# A gain exactly ``min_gain`` below the best one: ``gain < best - 0.3``
# and ``best > gain + 0.3`` round differently there, so an ``argmax``
# taken on the first test moved a node the sequential scan kept.
GAP_GRAPH = CSRGraph.from_edges(
    15,
    np.array([0, 0, 0, 5, 6, 7, 13]),
    np.array([5, 6, 10, 6, 11, 13, 14]),
    np.array([1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 3.0]),
)
GAP_OPTIONS = {"resolution": 1.0, "min_gain": 0.3}

SETTINGS = st.fixed_dictionaries(
    {
        "resolution": st.sampled_from([1.0, 0.5]),
        "min_gain": st.sampled_from([1e-12, 0.3]),
    }
)


class TestSweepsAgree:
    @given(
        batch=st.lists(graphs(), max_size=6),
        seed=st.integers(min_value=0, max_value=3),
        options=SETTINGS,
        threshold=st.sampled_from([1, 64]),
    )
    @example(batch=[GAP_GRAPH] * 2, seed=1, options=GAP_OPTIONS, threshold=1)
    @settings(max_examples=200, deadline=None)
    def test_many_matches_per_graph_calls(self, batch, seed, options, threshold):
        want = [louvain_labels(graph, seed=seed, **options) for graph in batch]
        with wavefront(threshold):
            got = louvain_labels_many(batch, seed=seed, **options)
            packed = louvain_labels_many(as_batch(batch), seed=seed, **options)
        assert len(got) == len(packed) == len(batch)
        for labels, same, expected in zip(got, packed, want, strict=True):
            assert np.array_equal(labels, expected)
            assert np.array_equal(same, expected)

    @given(
        batch=st.lists(graphs(), max_size=6),
        seed=st.integers(min_value=0, max_value=3),
        options=SETTINGS,
    )
    @settings(max_examples=100, deadline=None)
    def test_shared_generator_is_consumed_graph_by_graph(
        self, batch, seed, options
    ):
        # A batch at threshold 1 would take the wavefront but for the
        # shared generator, so it checks that guard; a list never does.
        rng = np.random.default_rng(seed)
        want = [louvain_labels(graph, seed=rng, **options) for graph in batch]
        with wavefront(1):
            got = louvain_labels_many(
                batch, seed=np.random.default_rng(seed), **options
            )
            packed = louvain_labels_many(
                as_batch(batch), seed=np.random.default_rng(seed), **options
            )
        for labels, same, expected in zip(got, packed, want, strict=True):
            assert np.array_equal(labels, expected)
            assert np.array_equal(same, expected)


class TestBatchContainer:
    def test_views_share_the_batch_arrays(self):
        graph = CSRGraph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
        )
        batch = as_batch([graph, graph])
        second = batch[1]
        assert np.shares_memory(second.weights, batch.weights)
        assert np.array_equal(second.indptr, graph.indptr)
        assert np.array_equal(second.indices, graph.indices)
        assert [g.n_nodes for g in batch] == [3, 3]

    def test_wavefront_covers_a_large_batch(self):
        # Enough graphs with edges to take the wavefront at the default
        # threshold, including edgeless and empty graphs between them.
        rng = np.random.default_rng(7)
        batch = []
        for k in range(louvain.WAVEFRONT_MIN_GRAPHS + 6):
            n = int(rng.integers(0, 25))
            if k % 9 == 0 or n < 2:
                batch.append(
                    CSRGraph.from_edges(n, np.empty(0), np.empty(0), np.empty(0))
                )
                continue
            rows = rng.integers(0, n, size=2 * n)
            cols = rng.integers(0, n, size=2 * n)
            keys = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
            weights = rng.integers(1, 4, size=keys.size).astype(np.float64)
            batch.append(CSRGraph.from_edges(n, keys // n, keys % n, weights))
        want = [louvain_labels(graph, seed=2) for graph in batch]
        got = louvain_labels_many(as_batch(batch), seed=2)
        for labels, expected in zip(got, want, strict=True):
            assert np.array_equal(labels, expected)


class TestDispatch:
    @staticmethod
    def ring(n):
        rows = np.arange(n)
        return CSRGraph.from_edges(n, rows, (rows + 1) % n, np.ones(n))

    def test_wavefront_runs_from_the_threshold_of_live_graphs(self, monkeypatch):
        calls = []
        sweep = louvain._wavefront_local_moves

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return sweep(*args, **kwargs)

        monkeypatch.setattr(louvain, "_wavefront_local_moves", counted)
        threshold = louvain.WAVEFRONT_MIN_GRAPHS
        # Edgeless and empty graphs are not live: they never count.
        idle = [
            CSRGraph.from_edges(4, np.empty(0), np.empty(0), np.empty(0)),
            CSRGraph.from_edges(0, np.empty(0), np.empty(0), np.empty(0)),
        ]
        for live, expected in [(threshold - 1, []), (threshold, [threshold])]:
            calls.clear()
            batch = [self.ring(5 + k % 7) for k in range(live)] + idle
            got = louvain_labels_many(as_batch(batch), seed=3)
            assert calls == expected
            calls.clear()
            louvain_labels_many(batch, seed=3)  # a list: the list sweep only
            assert calls == []
            for labels, graph in zip(got, batch, strict=True):
                assert np.array_equal(labels, louvain_labels(graph, seed=3))
