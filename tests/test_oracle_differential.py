"""The benchmark's steerdist-free oracles, applied to the CLI in-process.

Chunk 1 of every steerbench workload, at smoke size and for two seeds, runs
through ``steerdist.cli.main``; each stdout must pass the oracle that the
benchmark applies to it (closed forms, recorded witness roots, a rank-one
optimizer reference and a Philox replay of every simulate histogram).
``workloads`` and ``oracles`` are read from steerbench/ and import no
steerdist code, so they are an independent check of the CLI's numbers.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "steerbench"))

import oracles  # noqa: E402
import workloads  # noqa: E402

from steerdist.cli import main  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_chunk_passes_the_benchmark_oracles(tmp_path, capsys, workload, seed):
    for i, request in enumerate(workloads.make_chunk(workload, seed, 1, smoke=True)):
        code = main(request.argv_for(str(tmp_path), f"request_{i}.json"))
        captured = capsys.readouterr()
        assert code == 0, (request.argv, captured.err)
        verdict = oracles.check(request, captured.out)
        assert verdict is None, (request.argv, verdict)
