import random

import pytest

from codemix import textnorm
from codemix.corpus import Document
from codemix.detector import ChunkResult, DetectionResult, aggregate, detect, detect_all, split_chunks
from codemix.errors import EmptyInput, InvalidConfig
from codemix.tags import UND_TAG, LanguageTag


class TestLanguageTag:
    def test_parse_render(self):
        tag = LanguageTag.parse("zu,en")
        assert tag.langs == ("zu", "en")
        assert tag.render() == "zu,en"
        assert tag.class_label() == "en,zu"

    def test_set_equality_and_hash(self):
        assert LanguageTag.parse("zu,en") == LanguageTag.parse("en,zu")
        assert hash(LanguageTag.parse("zu,en")) == hash(LanguageTag.parse("en,zu"))
        assert LanguageTag.parse("zu,en") != LanguageTag.parse("zu")

    def test_duplicates_collapse(self):
        assert LanguageTag.parse("en,zu,en").langs == ("en", "zu")

    def test_invalid(self):
        with pytest.raises(InvalidConfig):
            LanguageTag([])
        with pytest.raises(InvalidConfig):
            LanguageTag.parse("und,en")
        with pytest.raises(InvalidConfig):
            LanguageTag.parse("EN")
        with pytest.raises(InvalidConfig):
            LanguageTag([5])
        for text, kind in ((5, "int"), (None, "NoneType"), (["en"], "list")):
            with pytest.raises(InvalidConfig, match=f"^a language tag must be a str, got {kind}$"):
                LanguageTag.parse(text)

    def test_multilingual_flag(self):
        assert LanguageTag.parse("zu,en").is_multilingual
        assert not LanguageTag.parse("zu").is_multilingual


class TestSplitChunks:
    def test_balanced_ten_into_four(self):
        chunks = split_chunks(list("0123456789"), 4)
        assert [len(c) for c in chunks] == [3, 3, 2, 2]

    def test_fewer_tokens_than_chunks(self):
        chunks = split_chunks(["a", "b", "c"], 4)
        assert [len(c) for c in chunks] == [1, 1, 1]

    def test_code_mixed_question_splits_on_words(self):
        tokens = "kuyenzeka yini kuthi umakuqhume condom kuvele kuthi khulelwe after day".split()
        chunks = split_chunks(tokens, 4)
        assert [" ".join(c) for c in chunks] == [
            "kuyenzeka yini kuthi",
            "umakuqhume condom kuvele",
            "kuthi khulelwe",
            "after day",
        ]

    def test_errors(self):
        with pytest.raises(EmptyInput, match="^cannot chunk an empty token sequence$"):
            split_chunks([], 4)
        for k in (0, 1.5, True, "2"):
            with pytest.raises(InvalidConfig):
                split_chunks(["a", "b", "c"], k)

    def test_properties_small_grid(self):
        for t in range(1, 60):
            tokens = [f"w{i}" for i in range(t)]
            for k in range(1, 9):
                chunks = split_chunks(tokens, k)
                assert len(chunks) == min(k, t)
                sizes = [len(c) for c in chunks]
                assert max(sizes) - min(sizes) <= 1
                assert sizes == sorted(sizes, reverse=True)
                flat = [tok for chunk in chunks for tok in chunk]
                assert flat == tokens


class TestAggregate:
    def test_first_occurrence_dedup(self):
        assert aggregate(["en", "en", "zu", "en"]).render() == "en,zu"

    def test_all_unreliable(self):
        assert aggregate(["und", "und", "und", "und"]) == UND_TAG

    def test_und_dropped_when_anything_reliable(self):
        assert aggregate(["und", "zu", "und"]).render() == "zu"

    def test_permutation_gives_set_equal_tag(self):
        rng = random.Random(3)
        labels = ["zu", "en", "zu", "en"]
        base = aggregate(labels)
        assert base.render() == "zu,en"
        for _ in range(10):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            assert aggregate(shuffled) == base

    def test_empty(self):
        with pytest.raises(EmptyInput, match="^no chunk labels to aggregate$"):
            aggregate([])


ARGUMENT_TEXTS = ["abc abd", "12345 !!!", ""]  # scored, normalizing to empty, empty


class TestDetect:
    @pytest.mark.parametrize("min_chars", ["3", None, 1.5, True])
    def test_min_chars_must_be_an_int(self, trained_profiles, min_chars):
        for text in ARGUMENT_TEXTS:
            with pytest.raises(InvalidConfig, match="^min_chars must be an integer"):
                detect(Document(id="d", text=text), trained_profiles, min_chars=min_chars)

    @pytest.mark.parametrize("k", [0, -1, "4", 1.5, True])
    def test_chunk_count_is_checked_whatever_the_text(self, trained_profiles, k):
        for text in ARGUMENT_TEXTS:
            with pytest.raises(InvalidConfig, match="^chunk count must be an integer of at least 1"):
                detect(Document(id="d", text=text), trained_profiles, k=k)

    def test_an_empty_batch_checks_its_arguments(self, trained_profiles):
        with pytest.raises(InvalidConfig, match="^chunk count"):
            detect_all([], trained_profiles, k=0)

    def test_mixed_document_gets_both_languages(self, trained_profiles, synthetic_languages):
        pool_a, _ = synthetic_languages["xa"]
        pool_b, _ = synthetic_languages["xb"]
        text = " ".join(list(pool_a[:6]) + list(pool_b[:6]))
        result = detect(Document(id="d1", text=text), trained_profiles)
        assert result.tag == LanguageTag.parse("xa,xb")
        assert result.code_switched

    def test_held_in_sentence_single_language(self, trained_profiles, synthetic_languages):
        _, lines_a = synthetic_languages["xa"]
        result = detect(Document(id="d2", text=lines_a[0]), trained_profiles)
        assert result.tag == LanguageTag.parse("xa")
        assert not result.code_switched

    def test_text_normalizing_to_empty(self, trained_profiles):
        result = detect(Document(id="d3", text="12345 !!!"), trained_profiles)
        assert result.tag == UND_TAG
        assert result.chunks == ()
        assert not result.code_switched

    def test_code_switched_is_read_from_the_tag(self, trained_profiles):
        assert DetectionResult._fields == ("doc_id", "chunks", "tag")
        assert ChunkResult._fields == ("text", "prediction")
        mixed = DetectionResult("d", (), LanguageTag.parse("xa,xb"))
        assert mixed.code_switched
        assert mixed._asdict() == {"doc_id": "d", "chunks": (), "tag": LanguageTag.parse("xb,xa")}
        empty = detect(Document(id="e", text=""), trained_profiles)
        assert empty == ("e", (), UND_TAG)
        assert not empty.code_switched

    def test_chunk_count_and_coverage(self, trained_profiles, synthetic_languages):
        pool_a, _ = synthetic_languages["xa"]
        for t in (1, 2, 3, 4, 7, 12):
            text = " ".join(pool_a[i % len(pool_a)] for i in range(t))
            result = detect(Document(id=f"d{t}", text=text), trained_profiles, k=4)
            assert len(result.chunks) == min(4, t)
            joined = " ".join(c.text for c in result.chunks)
            assert joined == textnorm.normalize(text)

    def test_structural_invariants(self, trained_profiles, synthetic_languages):
        rng = random.Random(17)
        pool_a, _ = synthetic_languages["xa"]
        pool_b, _ = synthetic_languages["xb"]
        for i in range(40):
            words = [
                rng.choice(pool_a if rng.random() < 0.5 else pool_b)
                for _ in range(rng.randint(1, 14))
            ]
            result = detect(Document(id=str(i), text=" ".join(words)), trained_profiles)
            assert result.code_switched == result.tag.is_multilingual
            reliable = [c.prediction.lang for c in result.chunks if c.reliable]
            if reliable:
                assert result.tag == aggregate(reliable)
            else:
                assert result.tag == UND_TAG
            for chunk in result.chunks:
                assert chunk.reliable == (chunk.prediction.lang != "und")

    def test_determinism(self, trained_profiles, synthetic_languages):
        pool_a, _ = synthetic_languages["xa"]
        doc = Document(id="x", text=" ".join(pool_a[:8]))
        assert detect(doc, trained_profiles) == detect(doc, trained_profiles)

    def test_batch_preserves_order(self, trained_profiles, synthetic_languages):
        pool_a, _ = synthetic_languages["xa"]
        docs = [Document(id=str(i), text=" ".join(pool_a[i : i + 4])) for i in range(10)]
        results = detect_all(docs, trained_profiles)
        assert [r.doc_id for r in results] == [d.id for d in docs]
