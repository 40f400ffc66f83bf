"""Modularity communities for Step II and Step III.

Both consumers of modularity communities — the Step II polysemy graph
features (:mod:`repro.polysemy.graph_features`) and the CLUTO-style
``graph`` clustering (:mod:`repro.clustering.graphclust`) — hold their
graphs as :class:`~repro.clustering.louvain.CSRGraph` arrays and call
the native Louvain optimiser of :mod:`repro.clustering.louvain` through
this module's attributes: :func:`louvain_labels` for one graph,
:func:`louvain_labels_many` for a batch.  Labels number communities by
first appearance and are deterministic for a fixed seed.

The consumers look the functions up here at call time, so a test or a
tracing harness can substitute its own callable for either of them.
"""

from __future__ import annotations

from repro.clustering.louvain import louvain_labels, louvain_labels_many

__all__ = ["louvain_labels", "louvain_labels_many"]
