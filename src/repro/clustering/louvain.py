"""Native Louvain community detection on CSR adjacency arrays.

The workflow's Step II graph features and the CLUTO-style ``graph``
clustering both need modularity communities.  networkx's
``greedy_modularity_communities`` is correct but dominated by its
pure-Python priority queue — on the pipeline's per-term context graphs
it accounts for ~85% of training wall time.  This module implements the
Louvain method (Blondel et al. 2008) directly on flat numpy CSR arrays:

* :class:`CSRGraph` — an undirected weighted graph as ``indptr`` /
  ``indices`` / ``weights`` arrays (each off-diagonal edge stored in
  both directions; a self-loop stored once with its full doubled
  strength contribution);
* :class:`CSRGraphBatch` — many such graphs in one set of arrays, each
  graph numbering its own nodes from 0;
* :func:`louvain_labels_many` — the two-phase local-move + aggregation
  optimiser over a batch of graphs, deterministic for a fixed ``seed``
  (node visit order is a seeded permutation per graph and level, ties
  keep the incumbent community); :func:`louvain_labels` is a batch of
  one;
* :func:`modularity_from_labels` — the Newman-Girvan modularity of a
  labelling, matching ``networkx.algorithms.community.modularity``.

Two implementations of the local-move phase produce bit-identical
labels, and the optimiser picks one by batch size:

* the **list sweep** (:func:`_local_moves_lists`) walks one graph's
  nodes over plain Python lists; it is the oracle, and it runs every
  level above 0 and level 0 of a batch below
  :data:`WAVEFRONT_MIN_GRAPHS` (a lone graph, a delta's few terms);
* the **wavefront** (:func:`_wavefront_local_moves`) runs level 0 of a
  whole batch at once: step ``t`` moves the ``t``-th node of every
  still-sweeping graph's visit order, so per-node numpy overhead is
  shared by the batch.  It runs when at least
  :data:`WAVEFRONT_MIN_GRAPHS` graphs of a batch have edges, as for the
  Step II context graphs of a training batch.

The optimiser is exact about bookkeeping (community strengths are
updated incrementally) and typically converges in a handful of sweeps,
making it orders of magnitude faster than the greedy agglomerative
alternative on the few-hundred-node graphs the pipeline produces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError
from repro.utils.rng import ensure_rng

#: Minimum modularity gain for a node move to be accepted.
DEFAULT_MIN_GAIN = 1e-12

#: Level 0 of a batch runs as one wavefront across its graphs once this
#: many graphs have edges; below it every graph takes the list sweep.
#: Each wavefront step costs a fixed number of numpy calls, so it pays
#: only when enough graphs share them, and each sweep wins on one side.
#: Measured on the M rung's seed-5 stream inputs on a 2-core Xeon VM
#: (Python 3.11, numpy 2.4): a delta's 3-4 context graphs took 9-23 ms
#: by the list sweep against 53-104 ms by the wavefront, and the
#: 171-graph training batch 794-810 ms against 545-553 ms.
WAVEFRONT_MIN_GRAPHS = 64


@dataclass(frozen=True)
class CSRGraph:
    """An undirected weighted graph in CSR form.

    Attributes
    ----------
    indptr:
        (n + 1,) row pointers into ``indices`` / ``weights``.
    indices:
        Column index of each stored entry.  Every undirected edge
        ``{i, j}`` with ``i != j`` is stored twice (once per direction);
        a self-loop is stored once, with a weight that already includes
        its doubled contribution to the node strength (matching the
        networkx degree convention).
    weights:
        Weight of each stored entry, aligned with ``indices``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return int(self.indptr.shape[0] - 1)

    def strengths(self) -> np.ndarray:
        """Weighted degree of every node (self-loops counted twice)."""
        rows = np.repeat(
            np.arange(self.n_nodes, dtype=np.int64), np.diff(self.indptr)
        )
        return np.bincount(
            rows, weights=self.weights, minlength=self.n_nodes
        )

    def total_weight(self) -> float:
        """Total edge weight ``2m`` (the sum of all strengths)."""
        return float(self.weights.sum())

    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        rows: np.ndarray,
        cols: np.ndarray,
        weights: np.ndarray,
    ) -> "CSRGraph":
        """Build from unique undirected edges ``(rows[k], cols[k])``.

        Each pair must appear once; both directions are materialised
        here.  Self-loops (``rows[k] == cols[k]``) are stored once with
        their weight doubled, so strengths follow the degree convention.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (rows.shape == cols.shape == weights.shape):
            raise ClusteringError("rows, cols, and weights must be aligned")
        loop = rows == cols
        src = np.concatenate([rows, cols[~loop]])
        dst = np.concatenate([cols, rows[~loop]])
        w = np.concatenate(
            [np.where(loop, 2.0 * weights, weights), weights[~loop]]
        )
        order = np.lexsort((dst, src))
        src, dst, w = src[order], dst[order], w[order]
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr=indptr, indices=dst, weights=w)


@dataclass(frozen=True, eq=False)
class CSRGraphBatch(Sequence):
    """Many undirected graphs in one set of CSR arrays.

    Graph ``g`` owns nodes ``node_offsets[g]:node_offsets[g + 1]`` of the
    concatenated ``indptr``; its stored entries are contiguous and keep
    the layout of :class:`CSRGraph`, with ``indices`` numbering each
    graph's nodes from 0.  Indexing yields a :class:`CSRGraph` whose
    ``indices`` and ``weights`` are views, so each graph's arrays exist
    once however many consumers read them.

    Attributes
    ----------
    indptr:
        (total nodes + 1,) row pointers into ``indices`` / ``weights``.
    indices:
        Graph-local column index of each stored entry.
    weights:
        Weight of each stored entry.
    node_offsets:
        (n_graphs + 1,) first node of each graph, then the node total.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    node_offsets: np.ndarray

    def __len__(self) -> int:
        return int(self.node_offsets.shape[0] - 1)

    def __getitem__(self, g: int):
        g = range(len(self))[g]
        first, last = int(self.node_offsets[g]), int(self.node_offsets[g + 1])
        indptr = self.indptr[first : last + 1]
        lo, hi = int(indptr[0]), int(indptr[-1])
        return CSRGraph(
            indptr=indptr - lo,
            indices=self.indices[lo:hi],
            weights=self.weights[lo:hi],
        )


def _relabel_first_seen(labels: np.ndarray) -> np.ndarray:
    """Relabel to 0..k-1 in order of first appearance (deterministic)."""
    mapping: dict[int, int] = {}
    out = np.empty_like(labels)
    for i, label in enumerate(labels):
        label = int(label)
        if label not in mapping:
            mapping[label] = len(mapping)
        out[i] = mapping[label]
    return out


def _local_moves_lists(
    graph: CSRGraph,
    order: np.ndarray,
    *,
    resolution: float,
    min_gain: float,
    max_sweeps: int,
) -> tuple[np.ndarray, bool]:
    """Phase 1 for one graph: greedy node moves until none improves modularity.

    Plain Python lists, not numpy arrays: element access on an array
    boxes a scalar per read, which dominates on the pipeline's
    few-hundred-node graphs.  Returns ``(labels, improved)``.
    """
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    weights = graph.weights.tolist()
    strengths = graph.strengths().tolist()
    two_m = graph.total_weight()
    labels = list(range(graph.n_nodes))
    comm_tot = strengths.copy()
    visit_order = [int(i) for i in order]
    improved = False
    for __ in range(max_sweeps):
        n_moved = 0
        for i in visit_order:
            k_i = strengths[i]
            current = labels[i]
            # Weight from i to each neighbouring community (self-loops
            # move with the node, so they cancel out of every gain).
            neighbour_weight: dict[int, float] = {}
            get_weight = neighbour_weight.get
            for e in range(indptr[i], indptr[i + 1]):
                j = indices[e]
                if j == i:
                    continue
                c = labels[j]
                neighbour_weight[c] = get_weight(c, 0.0) + weights[e]
            comm_tot[current] -= k_i
            scale = resolution * k_i / two_m
            best_comm = current
            best_gain = get_weight(current, 0.0) - scale * comm_tot[current]
            for c, w in neighbour_weight.items():
                if c == current:
                    continue
                gain = w - scale * comm_tot[c]
                if gain > best_gain + min_gain:
                    best_comm, best_gain = c, gain
            comm_tot[best_comm] += k_i
            if best_comm != current:
                labels[i] = best_comm
                n_moved += 1
        if n_moved == 0:
            break
        improved = True
    return np.asarray(labels, dtype=np.int64), improved


def _aggregate(graph: CSRGraph, labels: np.ndarray) -> CSRGraph:
    """Phase 2: one node per community, weights summed (loops doubled).

    Vectorized, with the same floats as the historical dict loop: a
    *stable* lexsort groups entries by community pair while preserving
    CSR traversal order inside each group, and ``np.add.reduceat``
    folds each group left to right — the dict's accumulation order
    exactly.  Output pairs come out key-sorted, matching the dict
    version's ``sorted(edge_weight.items())``.
    """
    n_comms = int(labels.max()) + 1 if labels.size else 0
    n = graph.n_nodes
    rows = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(graph.indptr)
    )
    cols = graph.indices
    # Each undirected entry pair visited once (j >= i keeps the
    # self-loop, stored once and already strength-doubled).
    keep = cols >= rows
    rows = rows[keep]
    cols = cols[keep]
    weights = graph.weights[keep]
    ci = labels[rows]
    cj = labels[cols]
    kmin = np.minimum(ci, cj)
    kmax = np.maximum(ci, cj)
    # Self-entries carry as-is; internal edges become doubled self-loop
    # mass; cross-community edges carry as-is.
    contribution = np.where(
        rows == cols, weights, np.where(ci == cj, 2.0 * weights, weights)
    )
    order = np.lexsort((kmax, kmin))  # stable: CSR order within a key
    kmin = kmin[order]
    kmax = kmax[order]
    contribution = contribution[order]
    if kmin.size:
        boundary = np.empty(kmin.size, dtype=bool)
        boundary[0] = True
        np.not_equal(kmin[1:], kmin[:-1], out=boundary[1:])
        boundary[1:] |= kmax[1:] != kmax[:-1]
        starts = np.flatnonzero(boundary)
        sums = np.add.reduceat(contribution, starts)
        out_rows = kmin[starts]
        out_cols = kmax[starts]
    else:
        sums = np.empty(0, dtype=np.float64)
        out_rows = np.empty(0, dtype=np.int64)
        out_cols = np.empty(0, dtype=np.int64)
    # from_edges doubles self-loops; ours are pre-doubled, so halve.
    w = np.where(out_rows == out_cols, sums / 2.0, sums)
    return CSRGraph.from_edges(n_comms, out_rows, out_cols, w)


def _wavefront_local_moves(
    batch: CSRGraphBatch,
    graph_ids: np.ndarray,
    graphs: Sequence[CSRGraph],
    visit: np.ndarray,
    *,
    resolution: float,
    min_gain: float,
    max_sweeps: int,
) -> list[tuple[np.ndarray, bool]]:
    """Phase 1 for many graphs at once, one node per graph per step.

    Graph ``graph_ids[s]`` of ``batch`` (also given as ``graphs[s]``)
    visits its nodes in the order its segment of ``visit`` lists them,
    as batch node ids.  It keeps the list sweep's semantics: its own
    sweep count, its own stop rule and, since no two graphs share a
    node or a community, its own arithmetic.  Community ids are batch
    node ids, so one ``comm_tot`` array serves every graph.  Bit-parity
    with :func:`_local_moves_lists` holds node by node:

    * ``comm_tot[current] -= k_i`` comes before the gains and
      ``comm_tot[best] += k_i`` after, also for a node that stays;
    * neighbour weights accumulate with ``np.add.at`` into a zeroed
      scratch array, in CSR entry order from 0.0, skipping self-loop
      entries (their strength stays in ``k_i``);
    * a node moves only when its best other gain beats the incumbent's
      by more than ``min_gain``; ``argmax`` stands in for the sequential
      scan only when the best gain beats every other candidate's gain
      plus ``min_gain`` (the scan's own comparison), and any other node
      replays the literal scan over its neighbour communities in
      first-appearance order.

    Returns one ``(labels, improved)`` pair per graph, labels numbered
    graph-locally as the list sweep numbers them.
    """
    indptr = batch.indptr
    indices = batch.indices
    weights = batch.weights
    n_total = int(batch.node_offsets[-1])
    offsets = batch.node_offsets[graph_ids]
    sizes = batch.node_offsets[graph_ids + 1] - offsets
    # Each graph's own strengths and ``weights.sum()``, as the list
    # sweep reads them.
    strengths = np.zeros(n_total, dtype=np.float64)
    has_loops = False
    for graph, first in zip(graphs, offsets.tolist(), strict=True):
        n = graph.n_nodes
        strengths[first : first + n] = graph.strengths()
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        has_loops = has_loops or bool(np.any(rows == graph.indices))
    two_m = np.array([graph.total_weight() for graph in graphs])
    labels = np.arange(n_total, dtype=np.int64)
    comm_tot = strengths.copy()
    scratch = np.zeros(n_total, dtype=np.float64)
    n_graphs = len(graphs)
    improved = np.zeros(n_graphs, dtype=bool)
    # The sweeping graphs' state, one entry per graph in batch order (so
    # that sorted community ids group by graph); graphs that stop are
    # compacted away.
    slot = np.arange(n_graphs, dtype=np.int64)
    start = np.zeros(n_graphs, dtype=np.int64)
    np.cumsum(sizes[:-1], out=start[1:])
    cursor = start.copy()
    end = start + sizes
    offset = offsets
    moved = np.zeros(n_graphs, dtype=np.int64)
    sweeps = np.zeros(n_graphs, dtype=np.int64)
    position = np.arange(n_graphs, dtype=np.int64)
    while cursor.size:
        nodes = visit[cursor]
        k = strengths[nodes]
        current = labels[nodes]
        comm_tot[current] -= k
        scale = resolution * k / two_m
        lo = indptr[nodes]
        degree = indptr[nodes + 1] - lo
        owner = np.repeat(position, degree)
        entry = np.arange(owner.size, dtype=np.int64)
        entry += np.repeat(lo - (np.cumsum(degree) - degree), degree)
        neighbour = indices[entry] + offset[owner]
        if has_loops:
            keep = neighbour != nodes[owner]
            owner, entry, neighbour = owner[keep], entry[keep], neighbour[keep]
        community = labels[neighbour]
        np.add.at(scratch, community, weights[entry])
        best_gain = scratch[current] - scale * comm_tot[current]
        best = current.copy()
        if community.size:
            candidates = np.sort(community)
            first = np.empty(candidates.size, dtype=bool)
            first[0] = True
            np.not_equal(candidates[1:], candidates[:-1], out=first[1:])
            candidates = candidates[first]
            of = np.searchsorted(offset, candidates, side="right") - 1
            gains = scratch[candidates] - scale[of] * comm_tot[candidates]
            scratch[candidates] = 0.0
            gains[candidates == current[of]] = -np.inf
            first = np.empty(of.size, dtype=bool)
            first[0] = True
            np.not_equal(of[1:], of[:-1], out=first[1:])
            bounds = np.flatnonzero(first)
            g_max = np.full(position.size, -np.inf)
            g_max[of[bounds]] = np.maximum.reduceat(gains, bounds)
            move = g_max > best_gain + min_gain
            if move.any():
                near = gains + min_gain >= g_max[of]
                n_near = np.bincount(of[near], minlength=position.size)
                pick = near & (move & (n_near == 1))[of]
                best[of[pick]] = candidates[pick]
                for s in np.flatnonzero(move & (n_near > 1)).tolist():
                    mine = owner == s
                    best[s] = _literal_scan(
                        community[mine].tolist(),
                        weights[entry[mine]].tolist(),
                        int(current[s]),
                        float(best_gain[s]),
                        float(scale[s]),
                        comm_tot,
                        min_gain,
                    )
        comm_tot[best] += k
        changed = best != current
        labels[nodes[changed]] = best[changed]
        moved += changed
        cursor += 1
        ended = cursor == end
        if ended.any():
            settled = ended & (moved == 0)
            improved[slot[ended & ~settled]] = True
            sweeps[ended] += 1
            cursor[ended] = start[ended]
            moved[ended] = 0
            going = ~(settled | (sweeps >= max_sweeps))
            if not going.all():
                slot, start, cursor, end = (
                    slot[going],
                    start[going],
                    cursor[going],
                    end[going],
                )
                offset, two_m = offset[going], two_m[going]
                moved, sweeps = moved[going], sweeps[going]
                position = np.arange(slot.size, dtype=np.int64)
    return [
        (labels[first : first + size] - first, bool(improved[s]))
        for s, (first, size) in enumerate(
            zip(offsets.tolist(), sizes.tolist(), strict=True)
        )
    ]


def _literal_scan(
    communities: list[int],
    weights: list[float],
    current: int,
    best_gain: float,
    scale: float,
    comm_tot: np.ndarray,
    min_gain: float,
) -> int:
    """The list sweep's candidate scan for one node (first-appearance order)."""
    acc: dict[int, float] = {}
    get_acc = acc.get
    for c, w in zip(communities, weights, strict=True):
        acc[c] = get_acc(c, 0.0) + w
    best_comm = current
    for c, w in acc.items():
        if c == current:
            continue
        gain = w - scale * float(comm_tot[c])
        if gain > best_gain + min_gain:
            best_comm, best_gain = c, gain
    return best_comm


def _louvain_levels(
    graph: CSRGraph,
    rng: np.random.Generator,
    first_level: tuple[np.ndarray, bool] | None,
    *,
    resolution: float,
    min_gain: float,
    max_sweeps: int,
    max_levels: int,
) -> np.ndarray:
    """Local moves and aggregation, level by level, for one graph.

    ``first_level`` is level 0's ``(labels, improved)`` when the
    wavefront already ran it (its visit order drawn from ``rng``).
    """
    labels = np.arange(graph.n_nodes, dtype=np.int64)
    level_graph = graph
    for level in range(max_levels):
        if level == 0 and first_level is not None:
            level_labels, improved = first_level
        else:
            order = rng.permutation(level_graph.n_nodes)
            level_labels, improved = _local_moves_lists(
                level_graph,
                order,
                resolution=resolution,
                min_gain=min_gain,
                max_sweeps=max_sweeps,
            )
        if not improved:
            break
        level_labels = _relabel_first_seen(level_labels)
        labels = level_labels[labels]
        if int(level_labels.max()) + 1 == level_graph.n_nodes:
            break  # no merge happened; a further level cannot help
        level_graph = _aggregate(level_graph, level_labels)
    return _relabel_first_seen(labels)


def louvain_labels_many(
    graphs: Sequence[CSRGraph],
    *,
    seed: int | np.random.Generator | None = 0,
    resolution: float = 1.0,
    min_gain: float = DEFAULT_MIN_GAIN,
    max_sweeps: int = 100,
    max_levels: int = 20,
) -> list[np.ndarray]:
    """Louvain community labels for every graph of ``graphs``.

    Each graph's labels equal ``louvain_labels(graph, seed=seed, ...)``
    bit for bit.  When ``graphs`` is a :class:`CSRGraphBatch` (as Step
    II's batches are), ``seed`` is an int and at least
    :data:`WAVEFRONT_MIN_GRAPHS` graphs have edges, level 0 of all of
    them runs as one wavefront (:func:`_wavefront_local_moves`), which
    reads the graphs where they are; every other level, and every level
    of any other sequence, runs the list sweep, graph by graph.

    An int (or ``None``) seed gives every graph a fresh
    ``ensure_rng(seed)``, as separate calls would, so an int seed can
    draw every graph's level-0 order up front.  A
    ``np.random.Generator`` is shared: graphs consume it one after the
    other, in order, so that case never takes the wavefront.
    """
    settings = dict(
        resolution=resolution,
        min_gain=min_gain,
        max_sweeps=max_sweeps,
        max_levels=max_levels,
    )
    views = list(graphs)
    live = [
        g
        for g, graph in enumerate(views)
        if graph.n_nodes > 0 and graph.total_weight() > 0.0
    ]
    live_set = set(live)
    out: list = [
        None if g in live_set else np.arange(graph.n_nodes, dtype=np.int64)
        for g, graph in enumerate(views)
    ]
    wavefront = (
        isinstance(graphs, CSRGraphBatch)
        and max_levels > 0
        and max_sweeps > 0
        and isinstance(seed, (int, np.integer))
        and len(live) >= WAVEFRONT_MIN_GRAPHS
    )
    if not wavefront:
        for g in live:
            out[g] = _louvain_levels(views[g], ensure_rng(seed), None, **settings)
        return out
    batch_ids = np.asarray(live, dtype=np.int64)
    # Level 0's visit orders, as batch node ids.  A generator per graph
    # would hold ~5 KB each, so each graph's is recreated from the int
    # seed for the upper levels instead.
    visit = np.concatenate(
        [
            ensure_rng(seed).permutation(views[g].n_nodes) + first
            for g, first in zip(live, graphs.node_offsets[batch_ids].tolist())
        ]
    )
    first_levels = _wavefront_local_moves(
        graphs,
        batch_ids,
        [views[g] for g in live],
        visit,
        resolution=resolution,
        min_gain=min_gain,
        max_sweeps=max_sweeps,
    )
    for g, first in zip(live, first_levels, strict=True):
        rng = ensure_rng(seed)
        rng.permutation(views[g].n_nodes)  # level 0's order, already swept
        out[g] = _louvain_levels(views[g], rng, first, **settings)
    return out


def louvain_labels(
    graph: CSRGraph,
    *,
    seed: int | np.random.Generator | None = 0,
    resolution: float = 1.0,
    min_gain: float = DEFAULT_MIN_GAIN,
    max_sweeps: int = 100,
    max_levels: int = 20,
) -> np.ndarray:
    """Community label per node via Louvain modularity optimisation.

    A batch of one of :func:`louvain_labels_many`.

    Parameters
    ----------
    graph:
        The CSR graph to partition.
    seed:
        Controls the node visit order (a seeded permutation per level);
        a fixed seed makes the whole optimisation deterministic.
    resolution:
        The gamma of generalised modularity (1.0 = Newman-Girvan).
    min_gain:
        Moves must improve modularity by more than this to be accepted.
    max_sweeps / max_levels:
        Safety bounds on local-move sweeps per level and on aggregation
        levels (converges far earlier in practice).
    """
    return louvain_labels_many(
        [graph],
        seed=seed,
        resolution=resolution,
        min_gain=min_gain,
        max_sweeps=max_sweeps,
        max_levels=max_levels,
    )[0]


def modularity_from_labels(
    graph: CSRGraph,
    labels: np.ndarray,
    *,
    resolution: float = 1.0,
) -> float:
    """Newman-Girvan modularity of ``labels`` (networkx-compatible)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != graph.n_nodes:
        raise ClusteringError(
            f"labels length {labels.shape[0]} != n_nodes {graph.n_nodes}"
        )
    two_m = graph.total_weight()
    if two_m <= 0.0:
        return 0.0
    n_comms = int(labels.max()) + 1 if labels.size else 0
    internal = np.zeros(n_comms, dtype=np.float64)
    # Batched internal-weight accumulation; ``ufunc.at`` adds in entry
    # order (CSR traversal order), reproducing the historical per-entry
    # loop's floats bit for bit.
    rows = np.repeat(
        np.arange(graph.n_nodes, dtype=np.int64), np.diff(graph.indptr)
    )
    row_labels = labels[rows]
    intra = row_labels == labels[graph.indices]
    np.add.at(internal, row_labels[intra], graph.weights[intra])
    comm_tot = np.zeros(n_comms, dtype=np.float64)
    np.add.at(comm_tot, labels, graph.strengths())
    return float(
        (internal / two_m - resolution * (comm_tot / two_m) ** 2).sum()
    )
