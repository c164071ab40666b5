import builtins
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import codemix
from codemix import langid
from codemix.cli import run


def write_pool(path, pool):
    path.write_text(" ".join(pool) + "\n", encoding="utf-8")


@pytest.fixture
def profile_dir(tmp_path, synthetic_languages):
    d = tmp_path / "profiles"
    d.mkdir()
    for lang, (_, lines) in synthetic_languages.items():
        langid.save_profile(langid.train(lines, lang), d / f"{lang}.profile")
    return d


@pytest.fixture
def synth_corpus(tmp_path, synthetic_languages):
    pool_a = tmp_path / "pool_a.txt"
    pool_b = tmp_path / "pool_b.txt"
    write_pool(pool_a, synthetic_languages["xa"][0])
    write_pool(pool_b, synthetic_languages["xb"][0])
    corpus_path = tmp_path / "synth.jsonl"
    code = run(
        [
            "synth",
            "--lang-a", "xa", "--lang-b", "xb",
            "--source-a", str(pool_a), "--source-b", str(pool_b),
            "--n-docs", "300", "--mix-rate", "0.5", "--tokens-per-doc", "12",
            "--seed", "7", "--out", str(corpus_path),
        ]
    )
    assert code == 0
    return corpus_path


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["chisq", "--observed", "1,2"]) == 2
        capsys.readouterr()

    def test_malformed_numbers(self, capsys):
        assert run(["chisq", "--observed", "1,x", "--expected", "0.5,0.5"]) == 2
        assert run(["chisq", "--observed", "1,2", "--expected", "0.5,abc"]) == 2
        capsys.readouterr()


class TestOperationalErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        code = run(
            ["train", "--lang", "zu", "--input", str(tmp_path / "none.txt"),
             "--out", str(tmp_path / "out.profile")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_empty_training_corpus(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("123\n!!!\n", encoding="utf-8")
        code = run(["train", "--lang", "zu", "--input", str(src),
                    "--out", str(tmp_path / "out.profile")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_chisq_domain_error_is_operational(self, capsys):
        assert run(["chisq", "--observed", "1,2", "--expected", "0.5,0.0"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--lang", "xa"],
            ["identify", "--profiles", "{profiles}"],
            ["detect", "--profiles", "{profiles}"],
            ["dedupe"],
            ["sample", "--n", "1"],
            ["distribution"],
            ["evaluate"],
            ["baseline"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_invalid_utf8_is_one_line_error(self, tmp_path, profile_dir, capsys, argv):
        src = tmp_path / "bad.jsonl"
        src.write_bytes(b'{"id": "1", "text": "ok"}\n{"id": "2", "text": "\xff\xfe"}\n')
        argv = [a.format(profiles=profile_dir) for a in argv]
        code = run([*argv, "--input", str(src), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"codemix {argv[0]}: error: {src}: line 2 is not UTF-8 text")
        assert len(err.splitlines()) == 1

    def test_invalid_utf8_profile_names_its_path_once(self, tmp_path, profile_dir, capsys):
        bad = profile_dir / "xc.profile"
        bad.write_bytes(b"{}\n\xff\n")
        src = tmp_path / "lines.txt"
        src.write_text("hello world\n", encoding="utf-8")
        assert run(["identify", "--profiles", str(profile_dir), "--input", str(src)]) == 1
        err = capsys.readouterr().err
        assert err == f"codemix identify: error: {bad}: line 2 is not UTF-8 text: invalid start byte\n"
        assert err.count(str(bad)) == 1

    @pytest.mark.parametrize(
        "argv", [["identify", "--profiles", "{profiles}"], ["train", "--lang", "xa"]],
        ids=lambda argv: argv[0],
    )
    def test_invalid_utf8_far_into_a_text_names_its_line(self, tmp_path, profile_dir, capsys, argv):
        src = tmp_path / "lines.txt"
        src.write_bytes(b"hello world\n" * 3000 + b"\xff\n")
        argv = [a.format(profiles=profile_dir) for a in argv]
        assert run([*argv, "--input", str(src), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"codemix {argv[0]}: error: {src}: line 3001 is not UTF-8 text: invalid start byte\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--lang", "xa", "--input", "{pool}", "--alpha", "inf"],
            ["chisq", "--observed", "10,10", "--expected", "nan,0.5"],
            ["chisq", "--observed", "10,10", "--expected", "1e-320,0.5"],
            ["chisq", "--observed", "10,10", "--expected", "inf,0.5"],
            ["chisq", "--observed", f"{10**200},1", "--expected", "0.5,0.5"],
            ["chisq", "--observed", f"{10**155},1", "--expected", "0.5,0.5"],
        ],
        ids=["train-alpha-inf", "chisq-nan", "chisq-subnormal", "chisq-inf",
             "chisq-count-1e200", "chisq-term-overflow"],
    )
    def test_non_finite_number_is_one_line_error(self, tmp_path, capsys, argv):
        pool = tmp_path / "pool.txt"
        pool.write_text("some training text\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = [a.format(pool=pool) for a in argv]
        assert run([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("lang", 5), ("counts", []), ("version", True), ("n_min", 1.9), ("alpha", math.inf),
         ("alpha", 1e308), ("n_max", None)],
    )
    def test_malformed_profile_is_one_line_error(
        self, tmp_path, profile_dir, capsys, key, value
    ):
        path = profile_dir / "xa.profile"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        src = tmp_path / "lines.txt"
        src.write_text("abcdef ghij\n", encoding="utf-8")
        code = run(["identify", "--profiles", str(profile_dir), "--input", str(src),
                    "--format", "json"])
        assert code == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, record",
        [
            (["evaluate"], '{"text": ' + "[" * 100_000 + "]" * 100_000 + "}"),
            (["distribution"], '{"id": "1", "text": "abc", "tags": Infinity}'),
            (["distribution"], '{"id": NaN, "text": "abc", "tags": "xa"}'),
        ],
        ids=["deep-nesting", "tags-infinity", "id-nan"],
    )
    def test_malformed_record_is_one_line_error(self, tmp_path, capsys, argv, record):
        src = tmp_path / "bad.jsonl"
        src.write_text(f'{{"id": "0", "text": "ok", "tags": "xa", "pred": "xa"}}\n{record}\n',
                       encoding="utf-8")
        code = run([*argv, "--input", str(src), "--format", "json"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"codemix {argv[0]}: error: line 2: invalid JSON")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, body, message",
        [
            (["distribution"], '{"id": "1", "text": 5}\n', "line 1: field 'text' is not a string"),
            (["distribution"], "[1, 2]\n", "line 1: record is not a JSON object"),
            (["distribution", "--input-format", "csv", "--id-field", "id"], "text,tags\nok,xa\n",
             "CSV header has no 'id' column"),
            (["distribution", "--input-format", "csv"],
             'text,tags\nok,xa\n"' + "a" * 131_073 + '",xa\n', "line 3: invalid CSV: field larger than field limit (131072)"),
            (["sample", "--n", "1", "--stratum", "EN"], '{"id": "1", "text": "ok"}\n',
             "language code must be 2-8 lowercase ASCII letters, got 'EN'"),
            (["sample", "--n", "1", "--pairs-of", "KA,LU"], '{"id": "1", "text": "ok"}\n',
             "language code must be 2-8 lowercase ASCII letters, got 'KA'"),
            (["sample", "--n", "1", "--pairs-of", "ka,lu,"], '{"id": "1", "text": "ok"}\n',
             "language code must be 2-8 lowercase ASCII letters, got ''"),
            (["evaluate"], '{"id": "1", "text": "ok", "tags": "xa"}\n',
             "document '1' has no 'pred' tag"),
        ],
        ids=["text-not-str", "record-not-object", "csv-no-id-column", "csv-field-limit",
             "bad-stratum", "bad-pair-code", "empty-pair-code", "evaluate-no-pred"],
    )
    def test_input_fault_names_itself(self, tmp_path, capsys, argv, body, message):
        src = tmp_path / "in"
        src.write_text(body, encoding="utf-8")
        assert run([*argv, "--input", str(src)]) == 1
        assert capsys.readouterr() == ("", f"codemix {argv[0]}: error: {message}\n")

    def test_profile_that_is_not_an_object_names_its_path(self, tmp_path, profile_dir, capsys):
        bad = profile_dir / "xc.profile"
        bad.write_text("[]\n", encoding="utf-8")
        src = tmp_path / "lines.txt"
        src.write_text("hello world\n", encoding="utf-8")
        assert run(["identify", "--profiles", str(profile_dir), "--input", str(src)]) == 1
        assert capsys.readouterr().err == f"codemix identify: error: {bad}: expected a JSON object\n"

    @pytest.mark.parametrize(
        "argv", [["detect", "--profiles", "{profiles}"], ["dedupe"]], ids=lambda a: a[0]
    )
    def test_lone_surrogate_is_one_line_error(self, tmp_path, profile_dir, capsys, argv):
        src = tmp_path / "surrogate.jsonl"
        src.write_text('{"id": "a", "text": "good morning", "tags": "xa"}\n'
                       '{"id": "b", "text": "\\ud800 hello", "tags": "xa"}\n', encoding="utf-8")
        out = tmp_path / "out"
        out.write_bytes(b"old output\n")
        argv = [a.format(profiles=profile_dir) for a in argv]
        assert run([*argv, "--input", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"codemix {argv[0]}: error: record 'b' ")
        assert len(err.splitlines()) == 1
        assert out.read_bytes() == b"old output\n"


class TestAllOrNothingOutput:
    """--out is replaced only when the command succeeds."""

    COMMANDS = {
        "detect": (["detect", "--profiles", "{profiles}"], '{"id": "a", "text": "abcdef"}\n{not json\n'),
        "dedupe": (["dedupe"], '{"id": "a", "text": "abcdef"}\n{not json\n'),
        "identify": (["identify", "--profiles", "{profiles}"], b"abcdef ghij\n" * 3000 + b"\xff\n"),
        "train": (["train", "--lang", "xa"], b"abcdef ghij\n" * 3000 + b"\xff\n"),
    }

    @pytest.mark.parametrize("bad", ["bad-record", "missing-input"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_failure_leaves_old_out(self, tmp_path, profile_dir, capsys, command, bad):
        argv, body = self.COMMANDS[command]
        src = tmp_path / "input"
        if bad == "bad-record":
            src.write_bytes(body.encode() if isinstance(body, str) else body)
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        out = outdir / "out"
        out.write_bytes(b"old output\n")
        argv = [a.format(profiles=profile_dir) for a in argv]
        assert run([*argv, "--input", str(src), "--out", str(out)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert out.read_bytes() == b"old output\n"
        assert os.listdir(outdir) == ["out"]

    def test_out_in_a_missing_directory_names_the_out_path(self, tmp_path, capsys):
        src = tmp_path / "c.jsonl"
        src.write_text('{"id": "a", "text": "abcdef"}\n', encoding="utf-8")
        out = tmp_path / "missing" / "out.jsonl"
        assert run(["dedupe", "--input", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert repr(str(out)) in err[0] and ".out.jsonl." not in err[0]  # not the temporary's name
        assert os.listdir(tmp_path) == ["c.jsonl"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null_stays_a_device(self, synth_corpus):
        assert run(["dedupe", "--input", str(synth_corpus), "--out", "/dev/null"]) == 0
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)

    def test_pipe_out_is_written_directly(self, tmp_path):
        src = tmp_path / "c.jsonl"
        src.write_text('{"id": "a", "text": "abcdef"}\n', encoding="utf-8")
        r, w = os.pipe()
        try:
            assert run(["dedupe", "--input", str(src), "--out", f"/dev/fd/{w}"]) == 0
        finally:
            os.close(w)
        with os.fdopen(r, "rb") as fh:
            assert fh.read() == src.read_bytes()

    def test_read_only_out_fails_like_an_in_place_write(self, tmp_path, synth_corpus):
        (tmp_path / "outdir").mkdir()
        out = tmp_path / "outdir" / "out"
        out.write_bytes(b"old output\n")
        out.chmod(0o444)
        try:  # root writes a 0o444 file in place; other users cannot
            open(out, "r+").close()
            code = 0
        except PermissionError:
            code = 1
        assert run(["dedupe", "--input", str(synth_corpus), "--out", str(out)]) == code
        assert (out.read_bytes() == b"old output\n") == (code == 1)
        assert stat.S_IMODE(out.stat().st_mode) == 0o444
        assert os.listdir(tmp_path / "outdir") == ["out"]

    def test_symlinked_out_replaces_the_linked_file(self, tmp_path, synth_corpus):
        plain, target, link = tmp_path / "plain", tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"old output\n")
        link.symlink_to(target)
        assert run(["dedupe", "--input", str(synth_corpus), "--out", str(plain)]) == 0
        assert run(["dedupe", "--input", str(synth_corpus), "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == plain.read_bytes()

    def test_out_mode_matches_an_in_place_write(self, tmp_path, synth_corpus):
        reference, new, existing = tmp_path / "reference", tmp_path / "new", tmp_path / "existing"
        with open(reference, "w"):
            pass
        existing.write_bytes(b"old output\n")
        existing.chmod(0o640)
        for out in (new, existing):
            assert run(["dedupe", "--input", str(synth_corpus), "--out", str(out)]) == 0
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640


class TestTrain:
    def test_writes_loadable_profile(self, tmp_path):
        src = tmp_path / "zu.txt"
        src.write_text("umntwana uyakhala\nngiyabonga kakhulu\n", encoding="utf-8")
        out = tmp_path / "zu.profile"
        code = run(["train", "--lang", "zu", "--input", str(src), "--out", str(out),
                    "--nmin", "1", "--nmax", "4", "--alpha", "0.5"])
        assert code == 0
        profile = langid.load_profile(out)
        assert profile.lang == "zu"
        assert profile.n_max == 4


class TestChisq:
    def test_table_output(self, capsys):
        code = run(["chisq", "--observed", "306,18,13,63",
                    "--expected", "0.557,0.203,0.084,0.155"])
        assert code == 0
        out = capsys.readouterr().out
        assert "92.812" in out
        assert any(line.split() == ["df", "3"] for line in out.splitlines())
        assert "< 2.2e-16" in out

    def test_json_output(self, capsys):
        code = run(["chisq", "--observed", "60,40", "--expected", "0.5,0.5",
                    "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["statistic"] == pytest.approx(4.0, abs=1e-12)
        assert doc["df"] == 1
        assert 0.0 < doc["p_value"] < 1.0


class TestReporting:
    """What `evaluate`, `chisq` and `distribution` print, in each format."""

    @pytest.fixture
    def tagged(self, tmp_path):
        path = tmp_path / "tagged.jsonl"
        pairs = [("aa", "aa"), ("aa", "bb"), ("bb", "bb"), ("bb", "bb")]
        path.write_text("".join(json.dumps({"text": "t", "tags": g, "pred": p}) + "\n"
                                for g, p in pairs), encoding="utf-8")
        return path

    def test_format_p_value(self, capsys):
        for observed, expected, p_value, shown in (
            ("306,18,13,63", "0.557,0.203,0.084,0.155", pytest.approx(5.45e-20, rel=1e-3), "< 2.2e-16"),
            ("100000,0", "0.5,0.5", 0.0, "< 2.2e-16"),  # the tail underflows
            ("60,40", "0.5020026,0.4979974", pytest.approx(0.05, rel=1e-5), "0.05"),
            ("50,50", "0.5,0.5", 1.0, "1"),
        ):
            argv = ["chisq", "--observed", observed, "--expected", expected]
            assert run([*argv, "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert (doc["p_value"], doc["p_display"]) == (p_value, shown)
            assert run(argv) == 0
            assert capsys.readouterr().out.splitlines()[-1] == f"p-value    {shown}"

    def test_report_document_fields(self, tagged, capsys):
        assert run(["evaluate", "--input", str(tagged), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["classes", "matrix", "total", "accuracy", "weighted_precision",
                             "weighted_recall", "per_class", "majority_class", "majority_baseline"]
        assert doc["classes"] == ["aa", "bb"]
        assert doc["matrix"] == [[1, 1], [0, 2]]
        assert doc["accuracy"] == 0.75
        assert doc["per_class"]["aa"] == {"precision": 1.0, "recall": 0.5, "support": 2}
        assert (doc["majority_class"], doc["majority_baseline"]) == ("aa", 0.5)

    def test_render_report_is_aligned_text(self, tagged, capsys):
        assert run(["evaluate", "--input", str(tagged)]) == 0
        assert capsys.readouterr().out == (
            "confusion matrix\n"
            "gold \\ pred  aa  bb\n"
            "aa           1   1\n"
            "bb           0   2\n"
            "\n"
            "per-class metrics\n"
            "class  precision  recall  support\n"
            "aa     1.0000     0.5000  2\n"
            "bb     0.6667     1.0000  2\n"
            "\n"
            "documents           4\n"
            "accuracy            0.7500\n"
            "weighted precision  0.8333\n"
            "weighted recall     0.7500\n"
            "majority baseline   0.5000 (aa)\n"
        )

    def test_render_chi_square_contains_display_p(self, capsys):
        assert run(["chisq", "--observed", "306,18,13,63",
                    "--expected", "0.557,0.203,0.084,0.155"]) == 0
        assert "< 2.2e-16" in capsys.readouterr().out

    @pytest.mark.parametrize("tags, rows", [
        (["en", "zu", "en"], [["en", "2", "0.6667"], ["zu", "1", "0.3333"]]),
        (["en"] * 100_000 + ["zu"], [["en", "100000", "1.0000"], ["zu", "1", "0.0000"]]),
    ], ids=["short-labels", "six-digit-count"])
    def test_distribution_table_is_aligned(self, tmp_path, capsys, tags, rows):
        src = tmp_path / "tags.jsonl"
        src.write_text("".join(f'{{"text": "t", "tags": "{t}"}}\n' for t in tags), encoding="utf-8")
        assert run(["distribution", "--input", str(src)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in lines] == rows
        # labels left-justified under "class", counts right-justified under "count",
        # proportions left-justified under "proportion", two spaces between columns
        count_end = header.index("count") + len("count")
        assert header.startswith("class  ") and header[count_end:] == "  proportion"
        for line, (_, count, proportion) in zip(lines, rows):
            assert line[:count_end].endswith("  " + count)
            assert line[count_end:] == "  " + proportion


class TestIdentify:
    def test_profile_may_start_with_bom(self, tmp_path, profile_dir, capsys):
        src = tmp_path / "lines.txt"
        src.write_text("abcdef ghij\nqrstu vwxyz\n", encoding="utf-8")
        argv = ["identify", "--profiles", str(profile_dir), "--input", str(src),
                "--format", "json"]
        assert run(argv) == 0
        plain = capsys.readouterr().out
        for path in profile_dir.iterdir():
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(argv) == 0
        assert capsys.readouterr().out == plain

    def test_lines_get_ranked(self, tmp_path, profile_dir, synthetic_languages, capsys):
        pool_a = synthetic_languages["xa"][0]
        pool_b = synthetic_languages["xb"][0]
        src = tmp_path / "lines.txt"
        src.write_text(f"{' '.join(pool_a[:3])}\n{' '.join(pool_b[:3])}\n!!\n", encoding="utf-8")
        code = run(["identify", "--profiles", str(profile_dir), "--input", str(src),
                    "--format", "json"])
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records[0]["predictions"][0]["lang"] == "xa"
        assert records[1]["predictions"][0]["lang"] == "xb"
        assert records[2]["predictions"][0]["lang"] == "und"


class TestDetect:
    def test_empty_input_empty_output(self, tmp_path, profile_dir):
        src = tmp_path / "empty.jsonl"
        src.write_text("", encoding="utf-8")
        out = tmp_path / "tagged.jsonl"
        code = run(["detect", "--profiles", str(profile_dir), "--input", str(src),
                    "--out", str(out), "--chunks", "4"])
        assert code == 0
        assert out.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("chunks", ["0", "-1"])
    @pytest.mark.parametrize(
        "body", ["", '{"text": "123"}\n', '{"text": "123"}\n{"text": "hello there"}\n'],
        ids=["empty", "all-empty-text", "empty-text-first"],
    )
    def test_chunk_count_below_one_fails_before_output(self, tmp_path, profile_dir, capsys,
                                                        chunks, body):
        src = tmp_path / "in.jsonl"
        src.write_text(body, encoding="utf-8")
        code = run(["detect", "--profiles", str(profile_dir), "--input", str(src),
                    "--chunks", chunks])
        assert code == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_detect_output_schema(self, tmp_path, profile_dir, synth_corpus):
        out = tmp_path / "tagged.jsonl"
        code = run(["detect", "--profiles", str(profile_dir), "--input", str(synth_corpus),
                    "--out", str(out), "--chunks", "12"])
        assert code == 0
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 300
        first = records[0]
        assert set(first) == {"id", "text", "tags", "pred", "code_switched", "chunks"}
        assert first["chunks"][0]["index"] == 0
        # order of the input corpus is preserved
        assert [r["id"] for r in records] == [f"synth-{i}" for i in range(300)]

    def test_rerun_is_byte_identical(self, tmp_path, profile_dir, synth_corpus):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        for out in (out1, out2):
            assert run(["detect", "--profiles", str(profile_dir),
                        "--input", str(synth_corpus), "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestPipeline:
    def test_synth_detect_evaluate(self, tmp_path, profile_dir, synth_corpus, capsys):
        tagged = tmp_path / "tagged.jsonl"
        assert run(["detect", "--profiles", str(profile_dir), "--input", str(synth_corpus),
                    "--out", str(tagged), "--chunks", "12"]) == 0
        assert run(["evaluate", "--input", str(tagged), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 300
        assert doc["accuracy"] >= 0.95
        assert doc["weighted_recall"] == doc["accuracy"]

    def test_distribution(self, synth_corpus, capsys):
        assert run(["distribution", "--input", str(synth_corpus),
                    "--classes", "xa", "xb", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 300
        assert sum(doc["proportions"].values()) == pytest.approx(1.0, abs=1e-9)
        assert set(doc["proportions"]) == {"xa", "xb", "other"}

    def test_baseline(self, synth_corpus, capsys):
        assert run(["baseline", "--input", str(synth_corpus), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["majority_class"] in ("xa", "xb", "xa,xb")
        assert 0 < doc["baseline_accuracy"] <= 1

    def test_dedupe(self, tmp_path, capsys):
        src = tmp_path / "dup.jsonl"
        src.write_text(
            '{"id": "1", "text": "Hello!"}\n{"id": "2", "text": "hello"}\n',
            encoding="utf-8",
        )
        assert run(["dedupe", "--input", str(src)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["id"] == "1"

    def test_sample_deterministic(self, tmp_path, synth_corpus):
        out1 = tmp_path / "s1.jsonl"
        out2 = tmp_path / "s2.jsonl"
        for out in (out1, out2):
            assert run(["sample", "--input", str(synth_corpus), "--n", "50",
                        "--seed", "11", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text(encoding="utf-8").splitlines()) == 50

    def test_sample_stratified_by_pred(self, tmp_path, profile_dir, synth_corpus, capsys):
        tagged = tmp_path / "tagged.jsonl"
        assert run(["detect", "--profiles", str(profile_dir), "--input", str(synth_corpus),
                    "--out", str(tagged), "--chunks", "12"]) == 0
        assert run(["sample", "--input", str(tagged), "--tag-field", "pred",
                    "--n", "20", "--seed", "5", "--pairs-of", "xa,xb"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 20
        assert all(set(r["tags"].split(",")) == {"xa", "xb"} for r in records)

    def test_evaluate_reads_what_detect_writes(self, tmp_path, profile_dir, synthetic_languages,
                                               capsys):
        # detect writes U+2028 and U+0085 raw; str.splitlines would cut those records
        pool_a = synthetic_languages["xa"][0]
        pool_b = synthetic_languages["xb"][0]
        src = tmp_path / "corpus.jsonl"
        src.write_text(
            json.dumps({"id": "1", "text": f"{' '.join(pool_a[:6])}\u2028{' '.join(pool_b[:6])}",
                        "tags": "xa,xb"}) + "\n"
            + json.dumps({"id": "2", "text": f"{' '.join(pool_a[6:12])}\x85{pool_a[12]}",
                          "tags": "xa"}) + "\n",
            encoding="utf-8",
        )
        tagged = tmp_path / "tagged.jsonl"
        assert run(["detect", "--profiles", str(profile_dir), "--input", str(src),
                    "--out", str(tagged)]) == 0
        assert "\u2028" in tagged.read_text(encoding="utf-8")
        assert run(["evaluate", "--input", str(tagged), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 2
        assert doc["accuracy"] == 1.0

    @pytest.mark.parametrize(
        "fmt, body",
        [
            ("jsonl", '{"id": "1", "text": "a b", "tags": "xa"}\n{"id": "2", "text": "c", "tags": "xa,xb"}\n'),
            ("csv", 'text,id,tags\na b,1,xa\nc,2,"xa,xb"\n'),
        ],
        ids=["jsonl", "csv"],
    )
    def test_utf8_bom_is_accepted(self, tmp_path, capsys, fmt, body):
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            src = tmp_path / f"{encoding}.{fmt}"
            src.write_text(body, encoding=encoding)
            assert run(["distribution", "--input", str(src), "--input-format", fmt,
                        "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["counts"] == {"xa": 1, "xa,xb": 1}

    def test_sample_insufficient_population(self, synth_corpus, capsys):
        assert run(["sample", "--input", str(synth_corpus), "--n", "301",
                    "--seed", "0"]) == 1
        capsys.readouterr()


_builtin_sum = builtins.sum


def compensated_sum(items, start=0):
    """sum() as Python 3.12+ computes it over floats (Neumaier, CPython gh-100425)."""
    items = list(items)
    if not any(isinstance(x, float) for x in items):
        return _builtin_sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_output_does_not_depend_on_float_sum(
    tmp_path, capsys, monkeypatch, synthetic_languages, overlapping_languages
):
    profile_dir = tmp_path / "profiles"
    profile_dir.mkdir()
    pools = {
        "xa": synthetic_languages["xa"],
        "xb": synthetic_languages["xb"],
        "xc": overlapping_languages["xa"],
    }
    for lang, (_, lines) in pools.items():
        langid.save_profile(langid.train(lines, lang), profile_dir / f"{lang}.profile")
    # one word of each language per line, so all three confidences matter
    src = tmp_path / "lines.txt"
    src.write_text(
        "".join(f"{a} {b} {c}\n" for a, b, c in zip(*(pool[:20] for pool, _ in pools.values()))),
        encoding="utf-8",
    )
    commands = [
        ["identify", "--profiles", str(profile_dir), "--input", str(src), "--format", "json"],
        ["chisq", "--observed", "10,10,10", "--expected", "0.7,0.2,0.1", "--format", "json"],
    ]

    def outputs():
        for argv in commands:
            assert run(argv) == 0
        return capsys.readouterr().out

    plain = outputs()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert outputs() == plain


CHILD = """
import json, sys
from codemix.cli import run
codes = [run(argv) for argv in json.loads(sys.argv[1])]
print("LAST")
sys.exit(0 if set(codes) == {0} else f"exit codes {codes}")
"""


def test_in_process_runs_leave_stdout_alone(tmp_path, synthetic_languages):
    """A caller that runs commands through cli.run with --out owns its stdout.

    Every command writes only to --out, while it runs and when the child's
    objects are finalized at exit, so the child's last stdout line is its own.
    """
    d = tmp_path
    for lang, (pool, lines) in synthetic_languages.items():
        write_pool(d / f"{lang}.pool", pool)
        (d / f"{lang}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (d / "profiles").mkdir()
    corpus_in = ["--input", str(d / "corpus.jsonl")]
    calls = [
        ["train", "--lang", "xa", "--input", str(d / "xa.txt"), "--out", str(d / "profiles/xa.profile")],
        ["train", "--lang", "xb", "--input", str(d / "xb.txt"), "--out", str(d / "profiles/xb.profile")],
        ["synth", "--lang-a", "xa", "--lang-b", "xb", "--source-a", str(d / "xa.pool"),
         "--source-b", str(d / "xb.pool"), "--n-docs", "50", "--out", str(d / "corpus.jsonl")],
        ["detect", "--profiles", str(d / "profiles"), *corpus_in, "--out", str(d / "tagged.jsonl")],
        ["evaluate", "--input", str(d / "tagged.jsonl"), "--out", str(d / "evaluate.txt")],
        ["dedupe", *corpus_in, "--out", str(d / "dedupe.jsonl")],
        ["sample", *corpus_in, "--n", "10", "--out", str(d / "sample.jsonl")],
        ["distribution", *corpus_in, "--out", str(d / "distribution.txt")],
        ["baseline", *corpus_in, "--format", "json", "--out", str(d / "baseline.json")],
        ["chisq", "--observed", "60,40", "--expected", "0.5,0.5", "--out", str(d / "chisq.txt")],
        ["identify", "--profiles", str(d / "profiles"), "--input", str(d / "xa.txt"),
         "--out", str(d / "identify.tsv")],
    ]
    package_root = str(Path(codemix.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(calls)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "LAST\n"
    assert all((d / argv[-1]).stat().st_size > 0 for argv in calls)
