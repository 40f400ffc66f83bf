"""The contexts of a batch of terms, encoded once for Step II.

Both halves of the feature vector read the same token ids:

* the **raw** id of a token numbers the distinct tokens of its term's
  contexts by first appearance, case-sensitively.  It is the node id of
  the term's context graph, and its counts, in id order, are the
  ``Counter`` the vocabulary size and entropy features read;
* the **rank** of a node is the position of its lower-cased word among
  the batch's sorted lower-cased words.  ``TfidfVectorizer`` lower-cases
  and orders its columns by ``sorted()`` over ``str``, so a term's
  TF-IDF columns are its distinct ranks in increasing order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np


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
