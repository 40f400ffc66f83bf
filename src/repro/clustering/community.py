"""Pluggable community-detection backends.

Both consumers of modularity communities — the Step II polysemy graph
features (:mod:`repro.polysemy.graph_features`) and the CLUTO-style
``graph`` clustering (:mod:`repro.clustering.graphclust`) — go through
one :class:`CommunityBackend` so they share a single implementation:

* ``"louvain"`` (default) — the native CSR optimiser of
  :mod:`repro.clustering.louvain`, deterministic under a fixed seed and
  orders of magnitude faster than the greedy alternative;
* ``"greedy"`` — networkx ``greedy_modularity_communities``, kept as a
  parity fallback (it is the seed implementation the feature tables
  were first produced with).

Every backend offers ``communities``: it takes a networkx graph and
returns node communities as a list of sets, largest first (ties broken
by smallest node insertion order), so either backend yields a stable,
comparable community list.  The ``graph`` clustering's kNN graph is a
networkx graph and goes through that interface.  The Step II context
graphs are built as :class:`~repro.clustering.louvain.CSRGraph` arrays:
Louvain reads one through ``labels_from_csr`` and a whole batch through
``labels_many``, and only the greedy backend, which has neither method,
gets a networkx graph per context graph, rebuilt from the CSR arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

import networkx as nx
import numpy as np

from repro.clustering.louvain import CSRGraph, louvain_labels, louvain_labels_many
from repro.errors import ClusteringError


@runtime_checkable
class CommunityBackend(Protocol):
    """Anything that can partition a graph's nodes into communities.

    The protocol's input is a networkx graph.  A backend may also offer
    ``labels_from_csr(csr, *, seed)`` and ``labels_many(graphs, *, seed)``
    (as :class:`LouvainBackend` does); callers holding
    :class:`CSRGraph` arrays use them to skip networkx.
    """

    name: str

    def communities(
        self,
        graph: nx.Graph,
        *,
        weight: str = "weight",
        seed: int | np.random.Generator | None = 0,
    ) -> list[set]:
        """Node communities of ``graph``, largest community first."""
        ...  # pragma: no cover - protocol signature


def _sorted_communities(graph: nx.Graph, groups: list[set]) -> list[set]:
    """Order communities by size desc, then by first node appearance."""
    first_seen = {node: i for i, node in enumerate(graph.nodes())}
    return sorted(
        groups,
        key=lambda c: (-len(c), min(first_seen[node] for node in c)),
    )


class GreedyModularityBackend:
    """networkx greedy modularity maximisation (the parity fallback)."""

    name = "greedy"

    def communities(
        self,
        graph: nx.Graph,
        *,
        weight: str = "weight",
        seed: int | np.random.Generator | None = 0,
    ) -> list[set]:
        """Communities via ``greedy_modularity_communities`` (seed unused)."""
        groups = [
            set(c)
            for c in nx.algorithms.community.greedy_modularity_communities(
                graph, weight=weight
            )
        ]
        return _sorted_communities(graph, groups)


class LouvainBackend:
    """The native CSR Louvain optimiser (deterministic and seedable)."""

    name = "louvain"

    def __init__(self, *, resolution: float = 1.0) -> None:
        self.resolution = resolution

    def communities(
        self,
        graph: nx.Graph,
        *,
        weight: str = "weight",
        seed: int | np.random.Generator | None = 0,
    ) -> list[set]:
        """Communities via :func:`~repro.clustering.louvain.louvain_labels`."""
        nodes = list(graph.nodes())
        if not nodes:
            return []
        csr = CSRGraph.from_networkx(graph, weight=weight)
        labels = self.labels_from_csr(csr, seed=seed)
        groups: dict[int, set] = {}
        for node, label in zip(nodes, labels, strict=True):
            groups.setdefault(int(label), set()).add(node)
        return _sorted_communities(graph, list(groups.values()))

    def labels_from_csr(
        self,
        csr: CSRGraph,
        *,
        seed: int | np.random.Generator | None = 0,
    ) -> np.ndarray:
        """Community label per CSR node — the zero-conversion fast path.

        Callers that already hold a :class:`CSRGraph` use this to skip
        the networkx round-trip; backends without this method only offer
        the ``communities`` interface.  A batch of one of
        :meth:`labels_many`.
        """
        return louvain_labels(csr, seed=seed, resolution=self.resolution)

    def labels_many(
        self,
        graphs: Sequence[CSRGraph],
        *,
        seed: int | np.random.Generator | None = 0,
    ) -> list[np.ndarray]:
        """Community labels of every graph, each as :meth:`labels_from_csr`.

        The Step II graph features partition a whole batch of context
        graphs here (see :func:`~repro.clustering.louvain.louvain_labels_many`).
        """
        return louvain_labels_many(graphs, seed=seed, resolution=self.resolution)


#: Registry of named community-detection backends.
COMMUNITY_BACKENDS: dict[str, type] = {
    GreedyModularityBackend.name: GreedyModularityBackend,
    LouvainBackend.name: LouvainBackend,
}

#: The selectable backend names, default first.
COMMUNITY_BACKEND_NAMES: tuple[str, ...] = ("louvain", "greedy")


def get_community_backend(
    backend: str | CommunityBackend,
) -> CommunityBackend:
    """Resolve a backend name (or pass an instance through).

    >>> get_community_backend("louvain").name
    'louvain'
    """
    if isinstance(backend, str):
        try:
            return COMMUNITY_BACKENDS[backend]()
        except KeyError:
            raise ClusteringError(
                f"unknown community backend {backend!r}; "
                f"choose from {sorted(COMMUNITY_BACKENDS)}"
            ) from None
    if isinstance(backend, CommunityBackend):
        return backend
    raise ClusteringError(
        f"backend must be a name or CommunityBackend, got "
        f"{type(backend).__name__}"
    )
