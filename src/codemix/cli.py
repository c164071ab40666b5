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
from typing import Iterable, Iterator, Sequence

from . import corpus, detector, evaluation, langid, synth, tags
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


def _report(args: argparse.Namespace, doc: dict, table: str) -> int:
    """Write ``doc`` as JSON or ``table`` as text, as --format asks, to --out."""
    with open_text(args.out, "w") as out:
        out.write((dumps(doc, indent=2) if args.format == "json" else table) + "\n")
    return 0


def _lines(path: str) -> Iterator[str]:
    """The lines of a text file, as str.splitlines cuts them."""
    with open_text(path) as fh:
        for raw in fh:
            yield from raw.splitlines()


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


# --- subcommand handlers ---


def _cmd_train(args: argparse.Namespace) -> int:
    profile = langid.train(
        _lines(args.input), args.lang, n_min=args.nmin, n_max=args.nmax, alpha=args.alpha
    )
    langid.save_profile(profile, args.out)
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    profiles = langid.load_profile_set(args.profiles)
    with open_text(args.out, "w") as out:
        for i, line in enumerate(_lines(args.input)):
            predictions = langid.identify(line, profiles, min_chars=args.min_chars)
            if args.format == "json":
                out.write(dumps({"line": i, "predictions": [p._asdict() for p in predictions]}) + "\n")
            else:
                ranking = " ".join(f"{p.lang}:{p.confidence:.4f}" for p in predictions)
                out.write(f"{i}\t{predictions[0].lang}\t{ranking}\n")
    return 0


def _detection_record(doc: corpus.Document, result: detector.DetectionResult) -> dict:
    record = corpus.document_record(doc)
    record["pred"] = result.tag.render()
    record["code_switched"] = result.code_switched
    record["chunks"] = [
        {"index": c.index, "text": c.text, **c.prediction._asdict(), "reliable": c.reliable}
        for c in result.chunks
    ]
    return record


def _cmd_detect(args: argparse.Namespace) -> int:
    detector.check_chunks(args.chunks)  # before any document, so even an empty corpus fails
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


def _tag_of(doc: corpus.Document, attr: str, field: str) -> tags.LanguageTag:
    """The document's ``attr`` tag ("gold_tag" or "pred_tag"), read from ``field``."""
    tag = getattr(doc, attr)
    if tag is None:
        raise MissingField(f"document {doc.id!r} has no {field!r} tag")
    return tag


def _cmd_distribution(args: argparse.Namespace) -> int:
    tags = (_tag_of(doc, "gold_tag", args.tag_field) for doc in _read_corpus(args, args.tag_field))
    counts = corpus.label_distribution(tags, classes=args.classes)
    total = sum(counts.values())
    proportions = {label: c / total for label, c in counts.items()}
    width = max(map(len, proportions))
    table = [f"{'class'.ljust(width)}  count  proportion"]
    table += [f"{label.ljust(width)}  {str(counts[label]).rjust(5)}  {p:.4f}"
              for label, p in proportions.items()]
    doc = {"total": total, "counts": counts, "proportions": proportions}
    return _report(args, doc, "\n".join(table))


def _cmd_evaluate(args: argparse.Namespace) -> int:
    gold, pred = [], []
    for doc in _read_corpus(args, args.gold_field, args.pred_field):
        gold.append(_tag_of(doc, "gold_tag", args.gold_field))
        pred.append(_tag_of(doc, "pred_tag", args.pred_field))

    matrix = evaluation.confusion(gold, pred, class_scheme=args.classes)
    report = evaluation.metrics(matrix)
    baseline = evaluation.majority_class(gold)
    return _report(
        args,
        evaluation.report_document(matrix, report, baseline=baseline),
        evaluation.render_report(matrix, report, baseline=baseline),
    )


def _cmd_baseline(args: argparse.Namespace) -> int:
    gold = (_tag_of(doc, "gold_tag", args.tag_field) for doc in _read_corpus(args, args.tag_field))
    label, freq = evaluation.majority_class(gold)
    doc = {"majority_class": label, "baseline_accuracy": freq}
    return _report(args, doc, f"majority class      {label}\nbaseline accuracy   {freq:.4f}")


def _cmd_chisq(args: argparse.Namespace) -> int:
    result = evaluation.chi_square_gof(args.observed, args.expected)
    doc = {**result._asdict(), "p_display": evaluation.format_p_value(result.p_value)}
    return _report(args, doc, evaluation.render_chi_square(result))


def _cmd_synth(args: argparse.Namespace) -> int:
    pools = []
    for path in (args.source_a, args.source_b):
        with open_text(path) as fh:
            pools.append(tuple(fh.read().split()))
    spec = synth.MixSpec(
        args.lang_a, args.lang_b, *pools, n_docs=args.n_docs, mix_rate=args.mix_rate,
        tokens_per_doc=args.tokens_per_doc, seed=args.seed,
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

    # flags shared by several subcommands, declared once as parent parsers
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-")
    report = argparse.ArgumentParser(add_help=False, parents=[out])
    report.add_argument("--format", choices=("table", "json"), default="table")
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--profiles", required=True, help="directory of *.profile files")
    scoring.add_argument("--min-chars", type=int, default=langid.DEFAULT_MIN_CHARS)
    corpus_in = argparse.ArgumentParser(add_help=False)
    corpus_in.add_argument("--input", required=True, help="corpus file, or - for stdin")
    corpus_in.add_argument("--input-format", choices=("jsonl", "csv"), default="jsonl")
    corpus_in.add_argument("--text-field", default="text")
    corpus_in.add_argument("--id-field", default=None)
    corpus_in.add_argument("--tag-field", default="tags")

    def command(name, handler, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(handler=handler)
        return p

    p = command("train", _cmd_train, "train a character n-gram profile from text lines")
    p.add_argument("--lang", required=True, help="language code, e.g. zu")
    p.add_argument("--input", required=True, help="training text, one line per example (- for stdin)")
    p.add_argument("--out", required=True, help="profile file to write")
    p.add_argument("--nmin", type=int, default=langid.DEFAULT_N_MIN)
    p.add_argument("--nmax", type=int, default=langid.DEFAULT_N_MAX)
    p.add_argument("--alpha", type=float, default=langid.DEFAULT_ALPHA)

    p = command("identify", _cmd_identify, "identify the language of each input line",
                scoring, report)
    p.add_argument("--input", required=True, help="text lines (- for stdin)")

    p = command("detect", _cmd_detect, "run chunked code-switching detection over a corpus",
                scoring, corpus_in, out)
    p.add_argument("--chunks", type=int, default=detector.DEFAULT_CHUNKS)

    command("dedupe", _cmd_dedupe, "drop documents whose normalized text repeats", corpus_in, out)

    p = command("sample", _cmd_sample, "seeded uniform sample, optionally stratified by tag",
                corpus_in, out)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=SEED_DEFAULT, help="RNG seed (default 0)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--stratum", help="exact tag set, e.g. en or en,zu")
    group.add_argument(
        "--pairs-of",
        help="two-language tags over these codes, e.g. en,zu,xh for the code-switched stratum",
    )

    p = command("distribution", _cmd_distribution, "composite-tag distribution of a corpus",
                corpus_in, report)
    p.add_argument("--classes", nargs="+", default=None, help="declared classes; rest bucket to 'other'")

    p = command("evaluate", _cmd_evaluate, "confusion matrix and metrics from a tagged corpus",
                report)
    p.add_argument("--input", required=True, help="JSONL with gold and predicted tag fields")
    p.add_argument("--text-field", default="text")
    p.add_argument("--id-field", default=None)
    p.add_argument("--gold-field", default="tags")
    p.add_argument("--pred-field", default="pred")
    p.add_argument("--classes", nargs="+", default=None)
    p.set_defaults(input_format="jsonl")

    command("baseline", _cmd_baseline, "majority-class baseline accuracy of gold tags",
            corpus_in, report)

    p = command("chisq", _cmd_chisq, "chi-square goodness of fit of counts vs proportions", report)
    p.add_argument("--observed", type=_comma_ints, required=True, help="e.g. 306,18,13,63")
    p.add_argument("--expected", type=_comma_floats, required=True, help="e.g. 0.557,0.203,0.084,0.155")

    p = command("synth", _cmd_synth, "generate a gold-tagged synthetic code-mixed corpus", out)
    p.add_argument("--lang-a", required=True)
    p.add_argument("--lang-b", required=True)
    p.add_argument("--source-a", required=True, help="token pool file for lang-a")
    p.add_argument("--source-b", required=True, help="token pool file for lang-b")
    p.add_argument("--n-docs", type=int, required=True)
    p.add_argument("--mix-rate", type=float, default=0.5)
    p.add_argument("--tokens-per-doc", type=int, default=12)
    p.add_argument("--seed", type=int, default=SEED_DEFAULT, help="RNG seed (default 0)")

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
