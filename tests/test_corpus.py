import io
import json
import random

import pytest

from codemix.corpus import (
    Document,
    SampleSpec,
    dedupe,
    document_record,
    exact_tag_stratum,
    iter_load,
    label_distribution,
    load,
    pair_stratum,
    sample,
    save_jsonl,
)
from codemix import langid
from codemix.cli import run
from codemix.errors import (
    EmptyInput,
    InsufficientPopulation,
    InvalidConfig,
    MissingField,
    ParseError,
)
from codemix.evaluation import chi_square_gof
from codemix.tags import LanguageTag


def jsonl(*records) -> io.StringIO:
    return io.StringIO("".join(json.dumps(r) + "\n" for r in records))


class TestLoadJsonl:
    def test_record_with_tags(self):
        docs = load(jsonl({"id": "q1", "text": "Mng kade ngagcina ukuthol msg evela kini", "tags": "zu,en"}))
        assert len(docs) == 1
        assert docs[0].id == "q1"
        assert docs[0].gold_tag == LanguageTag.parse("zu,en")
        assert docs[0].pred_tag is None

    def test_empty_file(self):
        assert load(io.StringIO("")) == []

    def test_blank_lines_skipped(self):
        docs = load(io.StringIO('{"text": "a"}\n\n{"text": "b"}\n'))
        assert [d.text for d in docs] == ["a", "b"]

    def test_missing_ids_use_record_index(self):
        docs = load(jsonl({"text": "a"}, {"text": "b"}))
        assert [d.id for d in docs] == ["0", "1"]

    def test_declared_id_field_must_exist(self):
        with pytest.raises(MissingField):
            load(jsonl({"text": "a"}), id_field="qid")

    def test_missing_text_field(self):
        with pytest.raises(MissingField):
            load(jsonl({"id": "1"}))

    def test_invalid_json_reports_line(self):
        bad = io.StringIO('{"text": "ok"}\n{not json\n')
        with pytest.raises(ParseError) as exc:
            load(bad)
        assert exc.value.line == 2

    def test_iter_load_yields_before_reading_the_rest(self):
        text = '{"id": "a", "text": "ok"}\n' + "not json\n"
        assert next(iter_load(io.StringIO(text))) == Document(id="a", text="ok")
        with pytest.raises(ParseError) as exc:
            load(io.StringIO(text))
        assert exc.value.line == 2

    def test_bad_tag_reports_line(self):
        with pytest.raises(ParseError):
            load(jsonl({"text": "a", "tags": "EN!"}))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParseError):
            load(jsonl({"id": "x", "text": "a"}, {"id": "x", "text": "b"}))

    def test_duplicate_id_names_its_line(self):
        with pytest.raises(ParseError, match=r"^line 3: duplicate document id '7'$") as exc:
            load(jsonl({"id": "7", "text": "a"}, {"id": "8", "text": "b"}, {"id": 7, "text": "c"}))
        assert exc.value.line == 3

    def test_string_and_integer_ids(self):
        docs = load(jsonl({"id": "q1", "text": "a"}, {"id": 7, "text": "b"}, {"id": 0, "text": "c"}))
        assert [d.id for d in docs] == ["q1", "7", "0"]

    @pytest.mark.parametrize(
        "value", [{"a": 1}, True, False, 1.0, 2.5, [1]], ids=["object", "true", "false", "1.0", "2.5", "list"]
    )
    @pytest.mark.parametrize("id_field", [None, "qid"])
    def test_other_ids_are_parse_errors(self, value, id_field):
        key = id_field or "id"
        with pytest.raises(ParseError, match=rf"^line 2: field '{key}' is not a string or an integer$"):
            load(jsonl({key: "a", "text": "a"}, {key: value, "text": "b"}), id_field=id_field)

    def test_pred_field(self):
        record = {"text": "a", "tags": "en", "pred": "zu"}
        docs = load(jsonl(record), pred_field="pred")
        assert docs[0].gold_tag == LanguageTag.parse("en")
        assert docs[0].pred_tag == LanguageTag.parse("zu")
        docs = load(jsonl(record), tag_field=None, pred_field="tags")
        assert docs[0].pred_tag == LanguageTag.parse("en")
        assert docs[0].gold_tag is None

    def test_unknown_format(self):
        with pytest.raises(InvalidConfig):
            load(io.StringIO(""), format="xml")

    @pytest.mark.parametrize(
        "fmt, body",
        [("jsonl", '{"id": "7", "text": "hi", "tags": "en"}\n'), ("csv", "text,id,tags\nhi,7,en\n")],
        ids=["jsonl", "csv"],
    )
    def test_path_with_utf8_bom(self, tmp_path, fmt, body):
        path = tmp_path / f"bom.{fmt}"
        path.write_text(body, encoding="utf-8-sig")
        docs = load(path, format=fmt)
        assert [(d.id, d.text, d.gold_tag) for d in docs] == [("7", "hi", LanguageTag.parse("en"))]


class TestLoadCsv:
    def test_basic(self):
        fh = io.StringIO("qid,body,labels\n7,hello there,en\n8,sawubona,zu\n")
        docs = load(fh, format="csv", text_field="body", id_field="qid", tag_field="labels")
        assert [d.id for d in docs] == ["7", "8"]
        assert docs[1].gold_tag == LanguageTag.parse("zu")

    def test_missing_declared_text_column(self):
        fh = io.StringIO("id,body\n1,hello\n")
        with pytest.raises(MissingField):
            load(fh, format="csv", text_field="text")

    def test_empty_csv(self):
        assert load(io.StringIO(""), format="csv") == []

    def test_index_ids_when_no_id_column(self):
        fh = io.StringIO("text\nfoo\nbar\n")
        docs = load(fh, format="csv")
        assert [d.id for d in docs] == ["0", "1"]


class TestSaveJsonl:
    def test_round_trip(self, tmp_path):
        docs = [
            Document(id="a", text="hello there", gold_tag=LanguageTag.parse("en")),
            Document(id="b", text="sawubona mama"),
        ]
        path = tmp_path / "c.jsonl"
        save_jsonl(docs, path)
        loaded = load(path)
        assert [(d.id, d.text, d.gold_tag) for d in loaded] == [
            (d.id, d.text, d.gold_tag) for d in docs
        ]

    def test_record_prefers_gold_tag(self):
        doc = Document(
            id="a",
            text="t",
            gold_tag=LanguageTag.parse("zu"),
            pred_tag=LanguageTag.parse("en"),
        )
        assert document_record(doc)["tags"] == "zu"


def test_document_is_an_immutable_record():
    doc = Document("a", "b")
    assert doc == ("a", "b", None, None) == Document(id="a", text="b")
    doc_id, text, gold, pred = doc
    assert (doc_id, text, gold, pred) == ("a", "b", None, None)
    with pytest.raises(AttributeError):
        doc.text = "c"
    tagged = doc._replace(gold_tag=LanguageTag.parse("zu"))
    assert tagged.gold_tag == LanguageTag.parse("zu") and doc.gold_tag is None
    assert list(tagged._asdict()) == ["id", "text", "gold_tag", "pred_tag"]


class TestDedupe:
    def test_collapses_normalization_equivalents(self):
        docs = [Document(id=str(i), text=t) for i, t in enumerate(["Hi", "Hi!", "hi"])]
        kept = dedupe(docs)
        assert len(kept) == 1
        assert kept[0].text == "Hi"

    def test_all_distinct_unchanged(self):
        docs = [Document(id=str(i), text=t) for i, t in enumerate(["one", "two", "three"])]
        assert dedupe(docs) == docs

    def test_idempotent(self):
        docs = [Document(id=str(i), text=t) for i, t in enumerate(["a", "A", "b", "b!"])]
        once = dedupe(docs)
        assert dedupe(once) == once


class TestSample:
    def make_docs(self, n, tag=None):
        return [
            Document(id=str(i), text=f"doc {i}", pred_tag=LanguageTag.parse(tag) if tag else None)
            for i in range(n)
        ]

    def test_deterministic_and_distinct(self):
        docs = self.make_docs(1000)
        spec = SampleSpec(n=400, seed=42)
        first = sample(docs, spec)
        second = sample(docs, spec)
        assert [d.id for d in first] == [d.id for d in second]
        assert len({d.id for d in first}) == 400

    def test_output_in_corpus_order(self):
        docs = self.make_docs(500)
        chosen = sample(docs, SampleSpec(n=100, seed=7))
        positions = [int(d.id) for d in chosen]
        assert positions == sorted(positions)

    def test_different_seeds_differ(self):
        docs = self.make_docs(1000)
        a = {d.id for d in sample(docs, SampleSpec(n=400, seed=1))}
        b = {d.id for d in sample(docs, SampleSpec(n=400, seed=2))}
        assert a != b

    def test_stratum_filters_population(self):
        docs = [
            Document(id=str(i), text="t", pred_tag=LanguageTag.parse("en" if i % 2 else "zu"))
            for i in range(100)
        ]
        chosen = sample(docs, SampleSpec(n=20, seed=3, stratum=exact_tag_stratum("en")))
        assert all(d.pred_tag == LanguageTag.parse("en") for d in chosen)

    def test_insufficient_population(self):
        with pytest.raises(InsufficientPopulation):
            sample(self.make_docs(3), SampleSpec(n=5, seed=0))

    def test_invalid_spec(self):
        for n, seed in ((0, 0), (5, -1), (2.5, 0), ("3", 1), (True, 1.5), (5, 1.5), (5, True)):
            with pytest.raises(InvalidConfig):
                SampleSpec(n=n, seed=seed)

    def test_roughly_uniform_across_seeds(self):
        # 600 draws of 2-of-6; a grossly non-uniform sampler fails this
        docs = self.make_docs(6)
        counts = {d.id: 0 for d in docs}
        for seed in range(600):
            for doc in sample(docs, SampleSpec(n=2, seed=seed)):
                counts[doc.id] += 1
        result = chi_square_gof(list(counts.values()), [1 / 6] * 6)
        assert result.p_value > 1e-6


class TestStrata:
    def test_exact_tag_stratum(self):
        pred = exact_tag_stratum("en,zu")
        assert pred(LanguageTag.parse("zu,en"))
        assert not pred(LanguageTag.parse("en"))
        assert not pred(None)

    def test_pair_stratum(self):
        pred = pair_stratum(["en", "zu", "xh"])
        assert pred(LanguageTag.parse("en,zu"))
        assert pred(LanguageTag.parse("zu,xh"))
        assert not pred(LanguageTag.parse("en"))
        assert not pred(LanguageTag.parse("en,fr"))
        assert not pred(LanguageTag.parse("en,zu,xh"))
        assert not pred(None)

    def test_pair_stratum_needs_two(self):
        for langs in (["en"], ["EN", "zu"], ["en", "zu", ""], ["und", "en"]):
            with pytest.raises(InvalidConfig):
                pair_stratum(langs)


class TestLabelDistribution:
    def test_full_data_sample_proportions(self):
        tags = (
            [LanguageTag.parse("en")] * 306
            + [LanguageTag.parse("zu")] * 18
            + [LanguageTag.parse("xh")] * 13
            + [LanguageTag.parse("en,zu")] * 40
            + [LanguageTag.parse("st")] * 23
        )
        dist = label_distribution(tags, classes=["en", "zu", "xh"])
        assert dist == {"en": 306, "zu": 18, "xh": 13, "other": 63}
        assert list(dist) == ["en", "zu", "xh", "other"]

    def test_single_class(self):
        assert label_distribution([LanguageTag.parse("en")] * 5) == {"en": 5}

    def test_empty(self):
        with pytest.raises(EmptyInput):
            label_distribution([])

    def test_declared_class_with_zero_count(self):
        dist = label_distribution([LanguageTag.parse("en")], classes=["en", "zu"])
        assert dist == {"en": 1, "zu": 0, "other": 0}

    def test_proportions_sum_to_one(self):
        rng = random.Random(9)
        codes = ["en", "zu", "xh", "st", "af"]
        for _ in range(30):
            tags = [
                LanguageTag(rng.sample(codes, rng.randint(1, 2)))
                for _ in range(rng.randint(1, 200))
            ]
            dist = label_distribution(tags)
            assert sum(dist.values()) == len(tags)
            assert all(c > 0 for c in dist.values())
            assert list(dist) == sorted(dist)

    def test_set_equal_tags_share_a_class(self):
        tags = [LanguageTag.parse("en,zu"), LanguageTag.parse("zu,en")]
        assert label_distribution(tags) == {"en,zu": 2}


def test_tag_texts_keep_their_own_order(tmp_path, synthetic_languages, capsys):
    """Tags parse once per distinct text, so set-equal texts stay apart."""
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for lang, (_, lines) in synthetic_languages.items():
        langid.save_profile(langid.train(lines, lang), profiles / f"{lang}.profile")
    src = tmp_path / "corpus.jsonl"
    src.write_text(
        '{"id": "1", "text": "abcdef qrstuv", "tags": "xb,xa"}\n'
        '{"id": "2", "text": "abcdef qrstuv", "tags": "xa,xb"}\n',
        encoding="utf-8",
    )
    out = tmp_path / "detected.jsonl"
    assert run(["detect", "--profiles", str(profiles), "--input", str(src), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [r["tags"] for r in records] == ["xb,xa", "xa,xb"]
    assert run(["distribution", "--input", str(src), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"] == {"xa,xb": 2}
