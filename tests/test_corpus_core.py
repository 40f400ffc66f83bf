"""Tests for repro.corpus.document, corpus, io."""

import pytest

from repro.corpus.corpus import Corpus, TermContext
from repro.corpus.document import Document
from repro.corpus.io import read_corpus_jsonl, write_corpus_jsonl
from repro.errors import CorpusError


class TestDocument:
    def test_from_text_tokenises_and_splits(self):
        doc = Document.from_text("d1", "Wound healed. Cornea was clear.")
        assert len(doc.sentences) == 2
        assert doc.sentences[0] == ["wound", "healed"]

    def test_tokens_flatten(self):
        doc = Document("d", [["a", "b"], ["c"]])
        assert doc.tokens() == ["a", "b", "c"]
        assert doc.n_tokens() == 3

    def test_text_reconstruction(self):
        doc = Document("d", [["wound", "heals"]])
        assert doc.text() == "wound heals."

    def test_from_text_drops_empty_sentences(self):
        doc = Document.from_text("d", "...  !!")
        assert doc.sentences == []


class TestCorpus:
    def test_unique_ids_enforced(self):
        docs = [Document("d", [["a"]]), Document("d", [["b"]])]
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus(docs)
        corpus = Corpus([Document("d", [["a"]])])
        with pytest.raises(CorpusError, match="duplicate"):
            corpus.add(Document("d", [["b"]]))

    def test_container_protocol(self):
        corpus = Corpus([Document("a", [["x"]]), Document("b", [["y"]])])
        assert len(corpus) == 2
        assert corpus[0].doc_id == "a"
        assert [d.doc_id for d in corpus] == ["a", "b"]
        assert corpus.document("b").doc_id == "b"
        with pytest.raises(CorpusError):
            corpus.document("zzz")

    def test_token_counts(self):
        corpus = Corpus([Document("a", [["x", "y"], ["z"]])])
        assert corpus.n_tokens() == 3


class TestContextsForTerm:
    def make(self):
        return Corpus(
            [
                Document("d1", [["the", "corneal", "injury", "heals", "fast"]]),
                Document("d2", [["injury", "report", "filed"]]),
                Document("d3", [["no", "mention", "here"]]),
            ]
        )

    def test_single_token_term(self):
        contexts = self.make().index().contexts_for_term("injury", window=2)
        assert len(contexts) == 2
        docs = {c.doc_id for c in contexts}
        assert docs == {"d1", "d2"}

    def test_multiword_term(self):
        contexts = self.make().index().contexts_for_term("corneal injury", window=2)
        assert len(contexts) == 1
        assert contexts[0].tokens == ("the", "heals", "fast")

    def test_term_itself_excluded_from_context(self):
        contexts = self.make().index().contexts_for_term("injury", window=5)
        for ctx in contexts:
            assert "injury" not in ctx.tokens or ctx.doc_id == "d1"

    def test_window_clipping_at_document_edges(self):
        contexts = self.make().index().contexts_for_term("injury", window=50)
        d2 = [c for c in contexts if c.doc_id == "d2"][0]
        assert d2.tokens == ("report", "filed")

    def test_token_sequence_input(self):
        contexts = self.make().index().contexts_for_term(["Corneal", "Injury"], window=1)
        assert len(contexts) == 1

    def test_position_recorded(self):
        contexts = self.make().index().contexts_for_term("corneal injury", window=1)
        assert contexts[0].position == 1

    def test_overlapping_occurrences_step_over(self):
        corpus = Corpus([Document("d", [["a", "a", "a"]])])
        contexts = corpus.index().contexts_for_term("a a", window=1)
        assert len(contexts) == 1  # consumed pairwise, not overlapping

    def test_frequencies(self):
        corpus = self.make()
        assert corpus.index().term_frequency("injury") == 2
        assert corpus.index().document_frequency("injury") == 2
        assert corpus.index().term_frequency("missing") == 0

    def test_empty_term_raises(self):
        with pytest.raises(CorpusError):
            self.make().index().contexts_for_term("")

    def test_bad_window_raises(self):
        with pytest.raises(CorpusError):
            self.make().index().contexts_for_term("injury", window=0)

    def test_context_is_frozen(self):
        ctx = TermContext("d", ("a",), 0)
        with pytest.raises(AttributeError):
            ctx.doc_id = "other"


class TestCorpusIo:
    def test_jsonl_roundtrip(self, tmp_path):
        corpus = Corpus(
            [
                Document("d1", [["a", "b"]], concept_ids=["C1"], language="fr"),
                Document("d2", [["c"]]),
            ]
        )
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(corpus, path)
        back = read_corpus_jsonl(path)
        assert back.n_documents() == 2
        assert back.document("d1").sentences == [["a", "b"]]
        assert back.document("d1").concept_ids == ["C1"]
        assert back.document("d1").language == "fr"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"doc_id": "d1", "sentences": [["a"]]}\n\n'
        )
        corpus = read_corpus_jsonl(path)
        assert corpus.n_documents() == 1

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "d1", "sentences": [["a"]]}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            read_corpus_jsonl(path)
