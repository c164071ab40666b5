"""The corpus commands at the benchmark's scale: bulk-eval's seed-1 corpus of 30,000 records.

bench/inputs.py builds the inputs and bench/run.py's ``Pipeline`` gives each
command its arguments; both are imported unedited, so every command runs
here as the benchmark runs it. The sha256 of each output is pinned, so a
faster corpus path that changes one byte of these outputs fails here.
"""
import hashlib
import importlib
import sys
from pathlib import Path

import pytest

from codemix import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: sha256 of the generated corpus; a change here is a change of the inputs, not of codemix.
CORPUS_SHA256 = "633667c2d1fe3ef65e6dbb26463bc4f7c76cdff74ce77536480f6c9c36ec9ccd"

#: sha256 of each command's --out file.
DIGESTS = {
    "evaluate": "c0fdc967491b7be4a42920c8b3b3d38466afa08f833f5fd28cde6e49cbc3fb39",
    "dedupe": "4f240e6a6e8dfac70f632a7e7ad7643b8171602c9759a4e95d6e4db547279534",
    "sample": "c96bc64dc1b26484cb0a681a83375a97479a9edaa8c01694606c9e0e6439ff0e",
    "distribution": "28dace0cb9019bb3111deff555c07d97445534309e56f80c484e0b860a95581f",
    "baseline": "a164400779193d85caa657deeef711f30fe99edcdbe4beab454c139025936c7a",
}


@pytest.fixture(scope="module")
def bench_argvs(tmp_path_factory):
    """Each corpus command's argument list, as the benchmark builds it for bulk-eval, seed 1."""
    sys.path.insert(0, str(BENCH))
    try:
        checks, inputs, run = [importlib.import_module(name) for name in ("checks", "inputs", "run")]
    finally:
        sys.path.remove(str(BENCH))
    work = tmp_path_factory.mktemp("bulk-eval")
    workload = inputs.WORKLOADS["bulk-eval"]
    generated = inputs.generate(workload, 1, work)
    assert generated.sha256["corpus.jsonl"] == CORPUS_SHA256
    pipeline = run.Pipeline(workload, generated, 1, work, checks.Ledger())
    return {"evaluate": pipeline.evaluate_argv(), **pipeline.tool_argvs()}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_corpus_command_output_is_pinned(bench_argvs, command):
    argv = bench_argvs[command]
    assert argv[0] == command
    assert cli.run(argv) == 0
    out = Path(argv[argv.index("--out") + 1])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[command]
