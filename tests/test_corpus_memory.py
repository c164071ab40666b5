"""Memory per record of the corpus commands, at the benchmark's corpus.

Each command runs in-process under ``tracemalloc`` on two prefixes of
bulk-eval's seed-1 corpus, with the arguments bench/run.py's ``Pipeline``
gives it for that corpus, and the growth of its traced peak per added
record must stay under a ceiling. The prefixes hold 3,000 and 12,000
records: each fills the set of seen ids (the floor every command pays for
the duplicate-id rule) to the same share of its table, so the figure
carries no step of a table resize. ``sample`` reads through
``corpus.load`` and so holds every record; its figure is pinned as it is.
"""
import dataclasses
import tracemalloc

import pytest

from codemix import cli

PREFIXES = (3_000, 12_000)

#: Traced peak bytes per added record, the largest over Python 3.10.13, 3.11.7, 3.12.1 and 3.13.13
#: (3.12 and 3.13 read 7-9% lower than 3.10 and 3.11).
MEASURED = {"distribution": 110, "baseline": 110, "evaluate": 125, "dedupe": 291, "sample": 379}

#: Headroom over MEASURED for other patch releases of the CI matrix.
MARGIN = 1.15


@pytest.fixture(scope="module")
def prefix_argvs(bench, bench_pipeline, tmp_path_factory):
    """Each command's argument list for each prefix of bulk-eval's corpus."""
    pipeline = bench_pipeline("bulk-eval")
    with open(pipeline.inp.corpus, encoding="utf-8") as fh:
        lines = fh.readlines()
    argvs = {}
    for n in PREFIXES:
        work = tmp_path_factory.mktemp(f"prefix{n}")
        corpus = work / "corpus.jsonl"
        corpus.write_text("".join(lines[:n]), encoding="utf-8")
        prefix = bench.run.Pipeline(pipeline.w, dataclasses.replace(pipeline.inp, corpus=corpus), 1,
                                    work, bench.checks.Ledger())
        argvs[n] = {"evaluate": prefix.evaluate_argv(), **prefix.tool_argvs()}
    return argvs


def traced_peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        assert cli.run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", sorted(MEASURED))
def test_memory_per_added_record_stays_under_its_ceiling(prefix_argvs, command):
    small, large = (prefix_argvs[n][command] for n in PREFIXES)
    assert cli.run(small) == 0  # first imports and module-level tables, untraced
    per_record = (traced_peak(large) - traced_peak(small)) / (PREFIXES[1] - PREFIXES[0])
    assert per_record <= MEASURED[command] * MARGIN
