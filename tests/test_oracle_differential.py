"""The benchmark's steerdist-free oracles, applied to the CLI in-process.

Chunk 1 of every steerbench workload, and chunks 2-4 of ``optimal_scan`` and
``fixed_scan``, at smoke size and for two seeds, run through ``steerdist.cli.main``; each
stdout must pass the oracle that the benchmark applies to it (closed forms,
recorded witness roots, a rank-one optimizer reference and a Philox replay
of every simulate histogram).
``workloads`` and ``oracles`` are read from steerbench/ and import no
steerdist code, so they are an independent check of the CLI's numbers.
The GGHZ builder is also held to ``workloads.gghz_elements``, a direct
partial trace of the measured state, to within 2**-52 per entry.
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "steerbench"))

import oracles  # noqa: E402
import workloads  # noqa: E402

from steerdist.assemblage import Scenario, gghz_assemblage  # noqa: E402
from steerdist.cli import main  # noqa: E402


def assert_chunk_passes(tmp_path, capsys, workload, seed, chunk):
    for i, request in enumerate(workloads.make_chunk(workload, seed, chunk, smoke=True)):
        code = main(request.argv_for(str(tmp_path), f"request_{i}.json"))
        captured = capsys.readouterr()
        assert code == 0, (request.argv, captured.err)
        verdict = oracles.check(request, captured.out)
        assert verdict is None, (request.argv, verdict)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_chunk_passes_the_benchmark_oracles(tmp_path, capsys, workload, seed):
    assert_chunk_passes(tmp_path, capsys, workload, seed, 1)


# The optimizer is where refused outputs have come from: more of its chunks.
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("chunk", [2, 3, 4])
def test_more_optimal_scan_chunks_pass_the_benchmark_oracles(tmp_path, capsys, chunk, seed):
    assert_chunk_passes(tmp_path, capsys, "optimal_scan", seed, chunk)


# Known-kappa sweeps and thresholds are scored a block of theta at a time.
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("chunk", [2, 3, 4])
def test_more_fixed_scan_chunks_pass_the_benchmark_oracles(tmp_path, capsys, chunk, seed):
    assert_chunk_passes(tmp_path, capsys, "fixed_scan", seed, chunk)


# One-copy success probabilities 0 < p < P_SUCC_FLOOR: with N = 10**30 the
# filtered branch carries all the weight, and the witness changes sign
# between the two rows in 1sDI.
@pytest.mark.parametrize("scenario", ["1sdi", "2sdi"])
def test_sweep_below_the_success_floor_passes_the_oracle(capsys, scenario):
    spec = {"format": "json", "n": 10**30, "filter": "fixed:1e-7", "scenario": scenario,
            "steps": 2, "theta_min": 1e-8, "theta_max": 2e-8}
    argv = ["sweep", "--theta-min", "1e-8", "--theta-max", "2e-8", "--steps", "2",
            "--filter", "fixed:1e-7", "--n", str(10**30), "--scenario", scenario,
            "--format", "json"]
    assert main(argv) == 0
    assert oracles.check_sweep(spec, capsys.readouterr().out) is None


@pytest.mark.parametrize("scenario", list(Scenario))
def test_gghz_builder_matches_the_reference_elements(scenario):
    k = scenario.parties
    for theta in np.linspace(0.0, math.pi / 4, 401):
        reference = workloads.gghz_elements(float(theta), scenario.value)
        for key, element in gghz_assemblage(theta, scenario).elements.items():
            name = "".join(map(str, key[:k])) + "|" + "".join(map(str, key[k:]))
            assert np.abs(element - reference[name]).max() <= 2**-52, (theta, name)
