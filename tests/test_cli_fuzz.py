"""Seeded fault fuzz of the CLI: corrupt corpora and out-of-range numeric flags.

A small, valid JSONL corpus is mutated with fixed seeds: truncated, a byte
flipped, a field dropped, a field retyped, or a field nested deeply. Each
mutant goes through ``cli.run`` for one subcommand. Whatever the mutant,
the run exits 0 or 1 with at most one stderr line and no traceback; on
exit 0 the --out file is strict JSON, and on exit 1 an existing --out file
keeps its bytes. Each numeric flag is also given zero, negative, huge,
non-finite, subnormal and fractional values, alone and in seeded pairs,
under the same rules, except that a value the flag's type cannot parse
exits 2, and an error line stays within 160 characters: a huge integer is
given by its size in bits, not by its digits.
"""
import json
import random

import pytest

from codemix import fileio, langid
from codemix.cli import run

CASES = 70  # per subcommand

#: The report subcommands write one JSON document; the rest write JSONL.
COMMANDS = {
    "detect": [],
    "dedupe": [],
    "sample": ["--n", "3", "--seed", "5"],
    "evaluate": ["--format", "json"],
    "distribution": ["--format", "json"],
    "baseline": ["--format", "json"],
}
JSONL_OUTPUT = {"detect", "dedupe", "sample"}

#: Raw JSON texts a field may be retyped to; 1e400 decodes to inf.
RETYPED = [
    "null", "0", "-1", "12", "1.5", "1e400", "true", "false", '""', '" "', '"EN!"', '"und"',
    '"xa,und"', '"xa,,xb"', '"xa,xb,xa"', "[]", '["xa"]', "{}", '{"a": 1}', '"\\ud800"',
]
FIELDS = ["id", "text", "tags", "pred"]
SENTINEL = b"previous output\n"


def base_records(pool_a, pool_b):
    """Eight valid records, as {field: raw JSON text}; one text is not ASCII."""
    rng = random.Random(11)
    records = []
    for i, tag in enumerate(["xa", "xb", "xa,xb", "xa", "xb", "xa,xb", "xa", "xb"]):
        words = [rng.choice(pool_a if lang == "xa" else pool_b)
                 for lang in tag.split(",") for _ in range(4)]
        text = " ".join(words) + (" ñandú ẓẓ" if i == 3 else "")
        pred = rng.choice(["xa", "xb", "xa,xb"])
        records.append({"id": json.dumps(f"d{i}"), "text": json.dumps(text, ensure_ascii=False),
                        "tags": json.dumps(tag), "pred": json.dumps(pred)})
    return records


def render(records) -> bytes:
    lines = ("{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in r.items()) + "}" for r in records)
    return "".join(line + "\n" for line in lines).encode("utf-8")


def mutate(rng, records) -> tuple[str, bytes]:
    """One mutant of the corpus, with the name of its mutation."""
    records = [dict(r) for r in records]
    target = rng.choice(records)
    field = rng.choice(FIELDS)
    kind = rng.choice(["truncate", "flip", "drop", "retype", "nest"])
    if kind == "drop":
        target.pop(field, None)
    elif kind == "retype":
        target[field] = rng.choice(RETYPED)
    elif kind == "nest":
        depth = rng.choice([3, 50, 100_000])
        target[field] = "[" * depth + "]" * depth
    data = render(records)
    if kind == "truncate":
        data = data[:rng.randrange(len(data))]
    elif kind == "flip":
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] = rng.randrange(256)
        data = bytes(flipped)
    return kind, data


@pytest.fixture(scope="module")
def fuzz_setup(tmp_path_factory, synthetic_languages):
    root = tmp_path_factory.mktemp("fuzz")
    profiles = root / "profiles"
    profiles.mkdir()
    for lang, (_, lines) in synthetic_languages.items():
        langid.save_profile(langid.train(lines[:40], lang), profiles / f"{lang}.profile")
    records = base_records(synthetic_languages["xa"][0], synthetic_languages["xb"][0])
    return root, profiles, records


def check_output(command: str, data: str) -> None:
    if command in JSONL_OUTPUT:
        for line in data.splitlines():
            fileio.loads(line)
    else:
        fileio.loads(data)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_corpus_exits_cleanly(fuzz_setup, command, capsys):
    root, profiles, records = fuzz_setup
    rng = random.Random(f"cli-fuzz-{command}")
    corpus, out = root / f"{command}.jsonl", root / f"{command}.out"
    argv = [command, "--input", str(corpus), "--out", str(out), *COMMANDS[command]]
    if command == "detect":
        argv += ["--profiles", str(profiles)]
    exits = set()
    for case in range(CASES):
        kind, data = mutate(rng, records)
        corpus.write_bytes(data)
        out.write_bytes(SENTINEL)
        where = f"case {case} ({kind}): {data[:200]!r}"
        try:
            code = run(argv)
        except Exception as exc:  # every fault must end in exit 1, not escape
            pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
        captured = capsys.readouterr()
        assert code in (0, 1), where
        assert captured.out == "", where
        assert "Traceback" not in captured.err and captured.err.count("\n") <= 1, where
        if code == 0:
            assert captured.err == "", where
            check_output(command, out.read_text(encoding="utf-8"))
        else:
            assert captured.err.startswith(f"codemix {command}: error: "), where
            assert out.read_bytes() == SENTINEL, where
        exits.add(code)
    assert exits == {0, 1}  # the mutants reach both outcomes


#: Values for every numeric flag; 1e400 is inf as a float and 1e-320 is subnormal.
NUMBERS = ["0", "-1", str(10**400), str(-10**400), "nan", "inf", "-inf", "1e400", "1e-320", "1.5"]

#: Each numeric flag as (command, flag, the type its values parse as).
NUMERIC_FLAGS = [
    ("train", "--nmin", int), ("train", "--nmax", int), ("train", "--alpha", float),
    ("identify", "--min-chars", int), ("detect", "--chunks", int), ("detect", "--min-chars", int),
    ("sample", "--n", int), ("sample", "--seed", int), ("synth", "--seed", int),
    ("chisq", "--observed", int), ("chisq", "--expected", float),
]
PAIRED = {"train": ("--nmin", "--nmax"), "chisq": ("--observed", "--expected")}
PAIRS = 10  # seeded value pairs per command in PAIRED

#: A list flag's value is one fuzzed number beside a valid one.
LIST_FLAGS = {"--observed": "{},20", "--expected": "{},0.5"}


def numeric_cases():
    """(command, {flag: value}, every value parses) for each flag and value, then seeded pairs."""
    kinds = {flag: kind for _, flag, kind in NUMERIC_FLAGS}

    def parses(flag, value):
        try:
            kinds[flag](value)
        except ValueError:
            return False
        return True

    cases = [(command, {flag: value}, parses(flag, value))
             for command, flag, _ in NUMERIC_FLAGS for value in NUMBERS]
    rng = random.Random("cli-fuzz-numbers")
    for command, flags in PAIRED.items():
        for _ in range(PAIRS):
            values = {flag: rng.choice(NUMBERS) for flag in flags}
            cases.append((command, values, all(parses(f, v) for f, v in values.items())))
    return cases


def check_numeric_output(command: str, fmt: list[str], data: str) -> None:
    if command == "chisq" and not fmt:
        rows = [line.split(maxsplit=1) for line in data.splitlines()]
        assert [row[0] for row in rows] == ["statistic", "df", "p-value"]
        assert not any(word in data for word in ("nan", "inf"))
    elif command in ("train", "chisq"):
        fileio.loads(data)
    else:
        for line in data.splitlines():
            fileio.loads(line)


def test_numeric_flags_exit_cleanly(fuzz_setup, capsys):
    root, profiles, records = fuzz_setup
    corpus, lines, out = root / "numeric.jsonl", root / "lines.txt", root / "numeric.out"
    corpus.write_bytes(render(records))
    lines.write_text("".join(fileio.loads(r["text"]) + "\n" for r in records), encoding="utf-8")
    pools = [root / "pool_a.txt", root / "pool_b.txt"]
    for path, record in zip(pools, records):
        path.write_text(fileio.loads(record["text"]) + "\n", encoding="utf-8")
    base = {
        "train": ["--lang", "xa", "--input", str(lines)],
        "identify": ["--profiles", str(profiles), "--input", str(lines), "--format", "json"],
        "detect": ["--profiles", str(profiles), "--input", str(corpus)],
        "sample": ["--input", str(corpus), "--n", "3", "--seed", "5"],
        "synth": ["--lang-a", "xa", "--lang-b", "xb", "--source-a", str(pools[0]),
                  "--source-b", str(pools[1]), "--n-docs", "4"],
        "chisq": ["--observed", "30,20", "--expected", "0.5,0.5"],
    }
    exits = set()
    for command, values, valid in numeric_cases():
        # --flag=value, so that argparse does not take "-inf" for a flag
        flags = [f"{flag}={LIST_FLAGS.get(flag, '{}').format(value)}" for flag, value in values.items()]
        formats = (["--format", "json"], []) if command == "chisq" else ([],)
        for fmt in formats:
            argv = [command, *base[command], "--out", str(out), *fmt, *flags]  # the last flag wins
            where = " ".join(argv[:1] + fmt + flags)
            out.write_bytes(SENTINEL)
            try:
                code = run(argv)
            except Exception as exc:  # every fault must end in exit 1 or 2, not escape
                pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
            captured = capsys.readouterr()
            assert captured.out == "", where
            assert code in ((0, 1) if valid else (2,)), where
            if code == 0:
                assert captured.err == "", where
                check_numeric_output(command, fmt, out.read_text(encoding="utf-8"))
            else:
                assert out.read_bytes() == SENTINEL, where
            if code == 1:
                assert captured.err.startswith(f"codemix {command}: error: "), where
                assert "Traceback" not in captured.err and captured.err.count("\n") == 1, where
                assert len(captured.err) <= 160, where  # a huge value is given by its size
            exits.add(code)
    assert exits == {0, 1, 2}

