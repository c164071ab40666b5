"""The commands at the benchmark's scale: bulk-eval's seed-1 corpus of 30,000 records,
and each workload's seed-1 ``detect``.

bench/inputs.py builds the inputs and bench/run.py's ``Pipeline`` gives each
command its arguments; both are imported unedited, so every command runs
here as the benchmark runs it. The sha256 of each output is pinned, so a
faster corpus path that changes one byte of these outputs fails here, and
so does float drift in scoring on the 8-language inputs.
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

#: sha256 of each workload's detect --out file, as CI's traced benchmark step pins it.
DETECT_DIGESTS = {
    "sms-2l": "2ff204b1b76c933d8d2c499bb0bb1b525680ed0920ad4b0951bce4f420c70dae",
    "multi-8l-k12": "e9d82147a8aed248cb68981411008d8e36ba40e53bdd857dcf9034a25f50f81b",
    "bulk-eval": "d4411bf51bda04bee220e62c15e66d50f6392c242a8fbeca480212c1bf584e0e",
}


@pytest.fixture(scope="module")
def bench_pipeline(tmp_path_factory):
    """bench/run.py's ``Pipeline`` for a workload at seed 1, its inputs generated once per module."""
    sys.path.insert(0, str(BENCH))
    try:
        checks, inputs, run = [importlib.import_module(name) for name in ("checks", "inputs", "run")]
    finally:
        sys.path.remove(str(BENCH))
    pipelines = {}

    def pipeline(name):
        if name not in pipelines:
            work = tmp_path_factory.mktemp(name)
            workload = inputs.WORKLOADS[name]
            pipelines[name] = run.Pipeline(workload, inputs.generate(workload, 1, work), 1, work, checks.Ledger())
        return pipelines[name]
    return pipeline


@pytest.fixture(scope="module")
def bench_argvs(bench_pipeline):
    """Each corpus command's argument list, as the benchmark builds it for bulk-eval, seed 1."""
    pipeline = bench_pipeline("bulk-eval")
    assert pipeline.inp.sha256["corpus.jsonl"] == CORPUS_SHA256
    return {"evaluate": pipeline.evaluate_argv(), **pipeline.tool_argvs()}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_corpus_command_output_is_pinned(bench_argvs, command):
    argv = bench_argvs[command]
    assert argv[0] == command
    assert cli.run(argv) == 0
    out = Path(argv[argv.index("--out") + 1])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[command]


@pytest.mark.parametrize("workload", sorted(DETECT_DIGESTS))
def test_detect_output_is_pinned(bench_pipeline, workload):
    pipeline = bench_pipeline(workload)
    for lang in pipeline.inp.langs:
        assert cli.run(pipeline.train_argv(lang)) == 0
    assert cli.run(pipeline.detect_argv(pipeline.inp.detect_input, pipeline.detect_out)) == 0
    assert hashlib.sha256(pipeline.detect_out.read_bytes()).hexdigest() == DETECT_DIGESTS[workload]
