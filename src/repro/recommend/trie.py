"""Token-level label trie: one pass over the input, every label found.

Annotating text against an ontology asks "which of these ~thousands of
labels start at token *i*?".  The naive answer — scan the input once per
label — is O(tokens x labels) and is exactly what made early annotators
unusable on large ontologies.  :class:`LabelTrie` stores every label as
a path of tokens, so one left-to-right walk answers all starts in
O(tokens x max_label_length), independent of the label count.

At every start position the **longest** matching label wins (ties are
impossible — equal-length matches at one start are the same token
sequence), and overlapping matches from different starts are all
reported.  ``tests/test_recommend.py`` keeps the per-label scan as the
parity oracle, and checks that building a trie and walking the input
stays several times cheaper than that scan.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

#: Trie-node key holding the terminal label (tokens never collide with
#: it: they are non-empty strings produced by ``str.split``).
_TERMINAL = ""


class LabelTrie:
    """A trie over tokenised labels with longest-match-per-start lookup.

    >>> trie = LabelTrie(["heart attack", "heart", "attack rate"])
    >>> trie.longest_matches("a heart attack rate".split())
    [(1, 2, 'heart attack'), (2, 2, 'attack rate')]
    """

    def __init__(self, labels: Iterable[str] = ()) -> None:
        self._root: dict = {}
        self._n_labels = 0
        self._max_depth = 0
        for label in labels:
            self.add(label)

    def __len__(self) -> int:
        return self._n_labels

    @property
    def max_depth(self) -> int:
        """Longest label in tokens (the per-start walk bound)."""
        return self._max_depth

    def add(self, label: str) -> None:
        """Insert ``label`` (tokenised by whitespace, already normalised)."""
        tokens = label.split()
        if not tokens:
            return
        node = self._root
        for token in tokens:
            node = node.setdefault(token, {})
        if _TERMINAL not in node:
            node[_TERMINAL] = label
            self._n_labels += 1
            self._max_depth = max(self._max_depth, len(tokens))

    def longest_matches(
        self, tokens: Sequence[str]
    ) -> list[tuple[int, int, str]]:
        """``(start, n_tokens, label)`` of the longest label at each start.

        Starts with no matching label are absent; matches from
        different starts may overlap.  Results are sorted by start.
        """
        root = self._root
        n = len(tokens)
        out: list[tuple[int, int, str]] = []
        for start in range(n):
            node = root
            best: str | None = None
            best_len = 0
            position = start
            while position < n:
                node = node.get(tokens[position])
                if node is None:
                    break
                position += 1
                label = node.get(_TERMINAL)
                if label is not None:
                    best, best_len = label, position - start
            if best is not None:
                out.append((start, best_len, best))
        return out
