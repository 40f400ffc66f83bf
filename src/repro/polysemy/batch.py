"""The contexts of a batch of terms, encoded once for Steps II and III.

Step II's two halves of the feature vector and Step III's two context
representations read the same token ids:

* the **raw** id of a token numbers the distinct tokens of its term's
  contexts by first appearance, case-sensitively.  It is the node id of
  the term's context graph, and its counts, in id order, are the
  ``Counter`` the vocabulary size and entropy features read;
* the **rank** of a node is the position of its lower-cased word among
  the batch's sorted lower-cased words.  A term's TF-IDF columns
  (:func:`tfidf_matrices`) are its distinct ranks in increasing order:
  lower-cased words in ``sorted()`` order over ``str``, as the reference
  vectoriser of ``tests/context_oracles.py`` orders its columns.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.text.vectorize import unit_tfidf


@dataclass(frozen=True)
class ContextBatch:
    """Token ids of every context of a batch of terms.

    Attributes
    ----------
    n_contexts:
        (n_terms,) number of contexts of each term.
    context_offsets:
        (n_terms + 1,) first context of each term in ``context_lengths``.
    context_lengths:
        (total contexts,) tokens per context, term by term.
    token_offsets:
        (n_terms + 1,) first token of each term in ``nodes``.
    nodes:
        (total tokens,) term-local raw id of each token.
    node_offsets:
        (n_terms + 1,) first node of each term in ``words``/``ranks``;
        a term has as many nodes as distinct tokens.
    words:
        The word of every node, term by term.
    ranks:
        (total nodes,) rank of each node's lower-cased word.
    """

    n_contexts: np.ndarray
    context_offsets: np.ndarray
    context_lengths: np.ndarray
    token_offsets: np.ndarray
    nodes: np.ndarray
    node_offsets: np.ndarray
    words: list[str]
    ranks: np.ndarray

    @property
    def n_terms(self) -> int:
        """Number of terms in the batch."""
        return int(self.n_contexts.shape[0])

    @classmethod
    def encode(cls, batch: Sequence[Sequence[Sequence[str]]]) -> "ContextBatch":
        """Encode each term's contexts (one token sequence per context)."""
        n_contexts = np.fromiter(
            (len(contexts) for contexts in batch), dtype=np.int64, count=len(batch)
        )
        context_lengths = np.fromiter(
            (len(ctx) for contexts in batch for ctx in contexts),
            dtype=np.int64,
            count=int(n_contexts.sum()),
        )
        context_offsets = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(n_contexts, out=context_offsets[1:])
        context_ends = np.zeros(context_lengths.size + 1, dtype=np.int64)
        np.cumsum(context_lengths, out=context_ends[1:])
        token_offsets = context_ends[context_offsets]
        nodes = np.empty(int(token_offsets[-1]), dtype=np.int32)
        node_offsets = np.zeros(len(batch) + 1, dtype=np.int64)
        words: list[str] = []
        for t, contexts in enumerate(batch):
            tokens = list(chain.from_iterable(contexts))
            # dict.fromkeys keeps first appearances in order.
            ids = {word: i for i, word in enumerate(dict.fromkeys(tokens))}
            lo, hi = int(token_offsets[t]), int(token_offsets[t + 1])
            nodes[lo:hi] = np.fromiter(
                map(ids.__getitem__, tokens), dtype=np.int32, count=hi - lo
            )
            words.extend(ids)
            node_offsets[t + 1] = len(words)
        # Lower-case each distinct word once; terms share most words.
        lowered = {word: word.lower() for word in dict.fromkeys(words)}
        rank_of = {word: r for r, word in enumerate(sorted(set(lowered.values())))}
        rank_of = {word: rank_of[lower] for word, lower in lowered.items()}
        ranks = np.fromiter(
            (rank_of[word] for word in words), dtype=np.int64, count=len(words)
        )
        return cls(
            n_contexts=n_contexts,
            context_offsets=context_offsets,
            context_lengths=context_lengths,
            token_offsets=token_offsets,
            nodes=nodes,
            node_offsets=node_offsets,
            words=words,
            ranks=ranks,
        )


def tfidf_matrices(
    batch: ContextBatch, first: int = 0, last: int | None = None
) -> Iterator[np.ndarray]:
    """Dense unit-row TF-IDF matrix of each term of ``first:last``, in order.

    A term's matrix has one row per context and one column per distinct
    lower-cased word of its contexts, in rank order; each term's idf is
    taken over its own contexts.  The floats come from
    :func:`~repro.text.vectorize.unit_tfidf` over the (context, word)
    counts of the whole range, which are counted at once.  A term with
    one context gets a one-row matrix, and contexts without tokens give
    zero rows (and zero columns when the term has no token at all).
    """
    last = batch.n_terms if last is None else last
    n_contexts = batch.n_contexts[first:last]
    c0 = int(batch.context_offsets[first])
    c1 = int(batch.context_offsets[last])
    t0 = int(batch.token_offsets[first])
    t1 = int(batch.token_offsets[last])
    node_base = np.repeat(
        batch.node_offsets[first:last], np.diff(batch.token_offsets[first : last + 1])
    )
    token_rank = batch.ranks[batch.nodes[t0:t1] + node_base]
    # Any bound above the range's ranks keys (row, rank) in sorted order.
    n_ranks = int(token_rank.max()) + 1 if token_rank.size else 1
    token_row = np.repeat(
        np.arange(c1 - c0, dtype=np.int64), batch.context_lengths[c0:c1]
    )
    pairs, counts = np.unique(token_row * n_ranks + token_rank, return_counts=True)
    pair_row, pair_rank = np.divmod(pairs, n_ranks)
    row_term = np.repeat(np.arange(last - first, dtype=np.int64), n_contexts)
    pair_term = row_term[pair_row]
    vocabulary, column, document_frequency = np.unique(
        pair_term * n_ranks + pair_rank, return_inverse=True, return_counts=True
    )
    values = unit_tfidf(
        pair_row,
        counts,
        n_contexts[pair_term],
        document_frequency[column],
        c1 - c0,
    )
    row_offsets = np.zeros(last - first + 1, dtype=np.int64)
    np.cumsum(n_contexts, out=row_offsets[1:])
    pair_offsets = np.searchsorted(pair_row, row_offsets)
    column_offsets = np.searchsorted(
        vocabulary // n_ranks, np.arange(last - first + 1, dtype=np.int64)
    )
    for t, n in enumerate(n_contexts.tolist()):
        p0, p1 = pair_offsets[t], pair_offsets[t + 1]
        matrix = np.zeros(
            (n, int(column_offsets[t + 1] - column_offsets[t])), dtype=np.float64
        )
        matrix[
            pair_row[p0:p1] - row_offsets[t], column[p0:p1] - column_offsets[t]
        ] = values[p0:p1]
        yield matrix


#: Context tokens per chunk of terms.  The TF-IDF counts and the graph
#: build's window pairs take 100-200 bytes per token, so this bounds
#: their memory whatever the batch size.
CHUNK_TOKENS = 4_096


def chunks(sizes: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive ``[first, last)`` ranges of items, each within ``budget``.

    Items are taken in order while their ``sizes`` sum to at most
    ``budget``; an item larger than the budget forms its own range.
    """
    out: list[tuple[int, int]] = []
    first, total = 0, 0
    for i, size in enumerate(sizes.tolist()):
        if total + size > budget and i > first:
            out.append((first, i))
            first, total = i, 0
        total += size
    if first < sizes.shape[0]:
        out.append((first, int(sizes.shape[0])))
    return out
