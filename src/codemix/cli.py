"""Batch command-line interface.

One subcommand per pipeline stage; composition happens through files, so
every intermediate artifact can be inspected and re-produced. Machine
output is JSON/JSONL, human output is an aligned table, and a --format
flag switches between them where both make sense. Re-running a subcommand
with identical flags (and seeds) produces byte-identical machine output.

Exit codes: 0 success, 1 operational error (bad input or file),
2 usage error (bad flags).
"""
from __future__ import annotations

import argparse
import sys
from typing import IO, Iterable, Sequence

from . import corpus, detector, evaluation, langid, synth
from .errors import CodemixError, MissingField
from .fileio import dumps, open_text, write_jsonl

SEED_DEFAULT = 0


def _comma_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-joined integers, got {text!r}") from exc


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-joined numbers, got {text!r}") from exc


def _print_json(doc: dict, out: IO[str]) -> None:
    out.write(dumps(doc, indent=2) + "\n")


def _read_corpus(
    args: argparse.Namespace, tag_field: str | None, pred_field: str | None = None, reader=corpus.iter_load
) -> Iterable[corpus.Document]:
    return reader(
        args.input,
        format=args.input_format,
        text_field=args.text_field,
        id_field=args.id_field,
        tag_field=tag_field,
        pred_field=pred_field,
    )


def _add_corpus_args(parser: argparse.ArgumentParser, tag_field: str = "tags") -> None:
    parser.add_argument("--input", required=True, help="corpus file, or - for stdin")
    parser.add_argument("--input-format", choices=("jsonl", "csv"), default="jsonl")
    parser.add_argument("--text-field", default="text")
    parser.add_argument("--id-field", default=None)
    parser.add_argument("--tag-field", default=tag_field)


# --- subcommand handlers ---


def _cmd_train(args: argparse.Namespace) -> int:
    with open_text(args.input) as fh:
        lines = (line for raw in fh for line in raw.splitlines())
        profile = langid.train(
            lines, args.lang, n_min=args.nmin, n_max=args.nmax, alpha=args.alpha
        )
    langid.save_profile(profile, args.out)
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    profiles = langid.load_profile_set(args.profiles)
    with open_text(args.input) as fh, open_text(args.out, "w") as out:
        lines = (line for raw in fh for line in raw.splitlines())
        for i, line in enumerate(lines):
            predictions = langid.identify(line, profiles, min_chars=args.min_chars)
            if args.format == "json":
                out.write(dumps({"line": i, "predictions": [vars(p) for p in predictions]}) + "\n")
            else:
                ranking = " ".join(f"{p.lang}:{p.confidence:.4f}" for p in predictions)
                out.write(f"{i}\t{predictions[0].lang}\t{ranking}\n")
    return 0


def _detection_record(doc: corpus.Document, result: detector.DetectionResult) -> dict:
    record: dict = {"id": result.doc_id, "text": doc.text}
    if doc.gold_tag is not None:
        record["tags"] = doc.gold_tag.render()
    record["pred"] = result.tag.render()
    record["code_switched"] = result.code_switched
    record["chunks"] = [
        {"index": c.index, "text": c.text, **vars(c.prediction), "reliable": c.reliable}
        for c in result.chunks
    ]
    return record


def _cmd_detect(args: argparse.Namespace) -> int:
    profiles = langid.load_profile_set(args.profiles)
    records = (
        _detection_record(doc, detector.detect(doc, profiles, k=args.chunks, min_chars=args.min_chars))
        for doc in _read_corpus(args, args.tag_field)
    )
    write_jsonl(records, args.out)
    return 0


def _cmd_dedupe(args: argparse.Namespace) -> int:
    corpus.save_jsonl(corpus.dedupe(_read_corpus(args, args.tag_field)), args.out)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    docs = _read_corpus(args, None, args.tag_field, corpus.load)
    stratum = None
    if args.stratum is not None:
        stratum = corpus.exact_tag_stratum(args.stratum)
    elif args.pairs_of is not None:
        stratum = corpus.pair_stratum(args.pairs_of.split(","))
    spec = corpus.SampleSpec(n=args.n, seed=args.seed, stratum=stratum)
    corpus.save_jsonl(corpus.sample(docs, spec), args.out)
    return 0


def _tag_of(doc: corpus.Document, attr: str, field: str) -> detector.LanguageTag:
    """The document's ``attr`` tag ("gold_tag" or "pred_tag"), read from ``field``."""
    tag = getattr(doc, attr)
    if tag is None:
        raise MissingField(f"document {doc.id!r} has no {field!r} tag")
    return tag


def _cmd_distribution(args: argparse.Namespace) -> int:
    tags = [_tag_of(doc, "gold_tag", args.tag_field) for doc in _read_corpus(args, args.tag_field)]
    counts = corpus.label_distribution(tags, classes=args.classes)
    proportions = {label: c / len(tags) for label, c in counts.items()}
    with open_text(args.out, "w") as out:
        if args.format == "json":
            _print_json(
                {"total": len(tags), "counts": counts, "proportions": proportions}, out
            )
        else:
            width = max(len(label) for label in proportions)
            out.write(f"{'class'.ljust(width)}  count  proportion\n")
            for label, p in proportions.items():
                out.write(f"{label.ljust(width)}  {str(counts[label]).rjust(5)}  {p:.4f}\n")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    gold, pred = [], []
    for doc in _read_corpus(args, args.gold_field, args.pred_field):
        gold.append(_tag_of(doc, "gold_tag", args.gold_field))
        pred.append(_tag_of(doc, "pred_tag", args.pred_field))

    matrix = evaluation.confusion(gold, pred, class_scheme=args.classes)
    report = evaluation.metrics(matrix)
    baseline = evaluation.majority_class(gold)
    with open_text(args.out, "w") as out:
        if args.format == "json":
            _print_json(evaluation.report_document(matrix, report, baseline=baseline), out)
        else:
            out.write(evaluation.render_report(matrix, report, baseline=baseline) + "\n")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    gold = [_tag_of(doc, "gold_tag", args.tag_field) for doc in _read_corpus(args, args.tag_field)]
    label, freq = evaluation.majority_class(gold)
    with open_text(args.out, "w") as out:
        if args.format == "json":
            _print_json({"majority_class": label, "baseline_accuracy": freq}, out)
        else:
            out.write(f"majority class      {label}\n")
            out.write(f"baseline accuracy   {freq:.4f}\n")
    return 0


def _cmd_chisq(args: argparse.Namespace) -> int:
    result = evaluation.chi_square_gof(args.observed, args.expected)
    with open_text(args.out, "w") as out:
        if args.format == "json":
            p_display = evaluation.format_p_value(result.p_value)
            _print_json({**vars(result), "p_display": p_display}, out)
        else:
            out.write(evaluation.render_chi_square(result) + "\n")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    with open_text(args.source_a) as fh:
        pool_a = tuple(fh.read().split())
    with open_text(args.source_b) as fh:
        pool_b = tuple(fh.read().split())
    spec = synth.MixSpec(
        lang_a=args.lang_a,
        lang_b=args.lang_b,
        source_a=pool_a,
        source_b=pool_b,
        n_docs=args.n_docs,
        mix_rate=args.mix_rate,
        tokens_per_doc=args.tokens_per_doc,
        seed=args.seed,
    )
    corpus.save_jsonl(synth.generate(spec), args.out)
    return 0


# --- parser ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codemix",
        description="Trainable language identification and code-switching detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a character n-gram profile from text lines")
    p.add_argument("--lang", required=True, help="language code, e.g. zu")
    p.add_argument("--input", required=True, help="training text, one line per example (- for stdin)")
    p.add_argument("--out", required=True, help="profile file to write")
    p.add_argument("--nmin", type=int, default=langid.DEFAULT_N_MIN)
    p.add_argument("--nmax", type=int, default=langid.DEFAULT_N_MAX)
    p.add_argument("--alpha", type=float, default=langid.DEFAULT_ALPHA)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("identify", help="identify the language of each input line")
    p.add_argument("--profiles", required=True, help="directory of *.profile files")
    p.add_argument("--input", required=True, help="text lines (- for stdin)")
    p.add_argument("--out", default="-")
    p.add_argument("--min-chars", type=int, default=langid.DEFAULT_MIN_CHARS)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=_cmd_identify)

    p = sub.add_parser("detect", help="run chunked code-switching detection over a corpus")
    p.add_argument("--profiles", required=True, help="directory of *.profile files")
    _add_corpus_args(p)
    p.add_argument("--out", default="-")
    p.add_argument("--chunks", type=int, default=detector.DEFAULT_CHUNKS)
    p.add_argument("--min-chars", type=int, default=langid.DEFAULT_MIN_CHARS)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("dedupe", help="drop documents whose normalized text repeats")
    _add_corpus_args(p)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_dedupe)

    p = sub.add_parser("sample", help="seeded uniform sample, optionally stratified by tag")
    _add_corpus_args(p)
    p.add_argument("--out", default="-")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=SEED_DEFAULT, help="RNG seed (default 0)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--stratum", help="exact tag set, e.g. en or en,zu")
    group.add_argument(
        "--pairs-of",
        help="two-language tags over these codes, e.g. en,zu,xh for the code-switched stratum",
    )
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("distribution", help="composite-tag distribution of a corpus")
    _add_corpus_args(p)
    p.add_argument("--out", default="-")
    p.add_argument("--classes", nargs="+", default=None, help="declared classes; rest bucket to 'other'")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=_cmd_distribution)

    p = sub.add_parser("evaluate", help="confusion matrix and metrics from a tagged corpus")
    p.add_argument("--input", required=True, help="JSONL with gold and predicted tag fields")
    p.add_argument("--text-field", default="text")
    p.add_argument("--id-field", default=None)
    p.add_argument("--gold-field", default="tags")
    p.add_argument("--pred-field", default="pred")
    p.add_argument("--classes", nargs="+", default=None)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=_cmd_evaluate, input_format="jsonl")

    p = sub.add_parser("baseline", help="majority-class baseline accuracy of gold tags")
    _add_corpus_args(p)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("chisq", help="chi-square goodness of fit of counts vs proportions")
    p.add_argument("--observed", type=_comma_ints, required=True, help="e.g. 306,18,13,63")
    p.add_argument("--expected", type=_comma_floats, required=True, help="e.g. 0.557,0.203,0.084,0.155")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=_cmd_chisq)

    p = sub.add_parser("synth", help="generate a gold-tagged synthetic code-mixed corpus")
    p.add_argument("--lang-a", required=True)
    p.add_argument("--lang-b", required=True)
    p.add_argument("--source-a", required=True, help="token pool file for lang-a")
    p.add_argument("--source-b", required=True, help="token pool file for lang-b")
    p.add_argument("--n-docs", type=int, required=True)
    p.add_argument("--mix-rate", type=float, default=0.5)
    p.add_argument("--tokens-per-doc", type=int, default=12)
    p.add_argument("--seed", type=int, default=SEED_DEFAULT, help="RNG seed (default 0)")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_synth)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (CodemixError, OSError, UnicodeError) as exc:
        print(f"codemix {args.command}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
