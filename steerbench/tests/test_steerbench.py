"""Tests of the benchmark harness itself.  None of them asserts on timing.

    python3 -m pytest steerbench/tests
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import oracles  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from steerdist import cli  # noqa: E402
from steerdist.assemblage import gghz_assemblage_1sdi, gghz_assemblage_2sdi  # noqa: E402
from steerdist.protocol import run_protocol  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_cli(request, tmp_path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(request.argv_for(str(tmp_path), "asm.json")) == 0
    return out.getvalue()


def sweep_request(fmt: str, filter_arg: str = "fixed:0.6") -> workloads.Request:
    spec = {"theta_min": 0.2, "theta_max": 0.5, "steps": 4, "n": 3, "filter": filter_arg,
            "scenario": "both", "format": fmt}
    argv = ("sweep", "--theta-min", "0.2", "--theta-max", "0.5", "--steps", "4", "--n", "3",
            "--filter", filter_arg, "--scenario", "both", "--format", fmt)
    return workloads.Request("sweep", argv, spec)


def shift_fidelity(text: str, fmt: str, delta: float) -> str:
    """The sweep output with f_1sdi of the first row moved by ``delta``."""
    if fmt == "json":
        rows = json.loads(text)
        rows[0]["f_1sdi"] += delta
        return json.dumps(rows)
    lines = text.splitlines()
    cells = lines[1].split(",")
    col = oracles.CSV_HEADER.split(",").index("f_1sdi")
    cells[col] = format(float(cells[col]) + delta, ".9g")
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_requests(workload):
    for index in range(3):
        a = workloads.make_chunk(workload, 7, index)
        b = workloads.make_chunk(workload, 7, index)
        assert a == b
        assert workloads.digest(a) == workloads.digest(b)
    assert workloads.warmup_requests(workload, 7) == workloads.warmup_requests(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_different_requests_of_same_shape(workload):
    def shape(chunk):
        return sorted(
            (r.kind, r.spec.get("scenario", ""), r.spec.get("steps", 0), len(r.argv)) for r in chunk
        )

    a, b = workloads.make_chunk(workload, 7, 1), workloads.make_chunk(workload, 8, 1)
    assert workloads.digest(a) != workloads.digest(b)
    assert shape(a) == shape(b)
    if workload == "monte_carlo":
        assert sorted(r.spec["n"] for r in a) == sorted(r.spec["n"] for r in b)
        for ra, rb in zip(sorted(a, key=lambda r: r.spec["n"]), sorted(b, key=lambda r: r.spec["n"])):
            assert abs(ra.spec["trials"] - rb.spec["trials"]) <= ra.spec["trials"] // 10


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("filter_arg", ["fixed:0.6", "optimal", "asymptotic"])
def test_sweep_oracle_accepts_output_and_rejects_shifted_fidelity(fmt, filter_arg, tmp_path):
    request = sweep_request(fmt, filter_arg)
    text = run_cli(request, tmp_path)
    assert oracles.check(request, text) is None
    assert oracles.check(request, shift_fidelity(text, fmt, 1e-6)) is not None
    assert oracles.check(request, shift_fidelity(text, fmt, -1e-6)) is not None


def test_simulate_oracle_rejects_one_changed_count(tmp_path):
    request = workloads.make_chunk("monte_carlo", 3, 1, smoke=True)[0]
    text = run_cli(request, tmp_path)
    assert oracles.check(request, text) is None
    doc = json.loads(text)
    hist = doc["bitstring_histogram"]
    key = max(hist, key=hist.get)
    hist[key] -= 1
    assert oracles.check(request, json.dumps(doc)) is not None
    hist[key] += 1
    doc["success_count"] += 1
    assert oracles.check(request, json.dumps(doc)) is not None


def test_threshold_and_optimize_oracles_reject_shifted_values(tmp_path):
    threshold = workloads.Request(
        "threshold", ("threshold", "--filter", "none", "--n", "2", "--scenario", "2sdi"),
        {"filter": "none", "n": 2, "scenario": "2sdi"},
    )
    text = run_cli(threshold, tmp_path)
    assert oracles.check(threshold, text) is None
    doc = json.loads(text)
    doc["theta_root"] += 1e-5
    assert oracles.check(threshold, json.dumps(doc)) is not None

    optimize = next(r for r in workloads.make_chunk("optimal_scan", 3, 1) if r.kind == "optimize")
    text = run_cli(optimize, tmp_path)
    assert oracles.check(optimize, text) is None
    doc = json.loads(text)
    doc["f_star"] += 1e-6
    assert oracles.check(optimize, json.dumps(doc)) is not None


def test_tampered_or_failing_cli_counts_as_failure(tmp_path):
    request = sweep_request("json")

    def tampering_main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        sys.stdout.write(shift_fidelity(out.getvalue(), "json", 1e-6))
        return code

    def raising_main(argv):
        raise RuntimeError("boom")

    for main in (cli.main, tampering_main, raising_main, lambda argv: 1):
        session = worker.Session(types.SimpleNamespace(main=main), str(tmp_path))
        session.run([request])
        assert session.attempted == 1
        assert len(session.failures) == (0 if main is cli.main else 1)


def test_philox_replay_is_chunk_invariant_and_matches_steerdist():
    whole = oracles.philox_histogram(0.4, 0.7, 5, 20_000, 99, chunk=1 << 20)
    assert oracles.philox_histogram(0.4, 0.7, 5, 20_000, 99, chunk=777) == whole
    assert run_protocol(0.4, 0.7, 5, 20_000, 99).bitstring_histogram == whole


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
def test_generated_assemblages_match_steerdist_closed_forms(theta):
    for scenario, build in (("1sdi", gghz_assemblage_1sdi), ("2sdi", gghz_assemblage_2sdi)):
        mine = workloads.gghz_elements(theta, scenario)
        theirs = build(theta).elements
        assert len(mine) == len(theirs)
        for key, m in theirs.items():
            name = f"{key[0]}|{key[1]}" if len(key) == 2 else f"{key[0]}{key[1]}|{key[2]}{key[3]}"
            np.testing.assert_allclose(mine[name], m, atol=1e-15)


def test_closed_forms_agree_with_published_formulas():
    for theta in np.linspace(0.02, math.pi / 4, 9):
        c, s = math.cos(theta), math.sin(theta)
        for kappa in np.linspace(0.05, 1.0, 7):
            ref = math.sqrt(0.5 + c * s * (c * c - kappa * kappa * c * c + kappa))
            assert abs(oracles.gghz_point(theta, kappa, 2)["f"] - ref) < 1e-15
        for n in (2, 3, 6):
            f = oracles.gghz_point(theta, math.tan(theta), n)["f"]
            assert abs(f - oracles.asymptotic_fidelity(theta, n)) < 1e-15
    ghz = oracles.gghz_point(math.pi / 4, 1.0, 2)
    assert abs(ghz["s_1sdi"] - (-0.8453)) < 1e-12
    assert abs(ghz["s_2sdi"] - (-0.5821)) < 1e-12


def test_reference_roots_match_closed_form_witness_zeros():
    for key, root in oracles.reference_roots().items():
        filter_arg, n, scenario = key.split("/")
        if filter_arg == "optimal":
            continue

        def witness(theta):
            kappa = oracles._kappa_for(filter_arg, theta)
            return oracles.gghz_point(theta, kappa, int(n))[f"s_{scenario}"]

        lo, hi = 0.01, math.pi / 4
        while hi - lo > 1e-9:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if witness(mid) > 0 else (lo, mid)
        assert abs(root - lo) < oracles.ROOT_TOL, key


def test_tracer_restores_bindings_and_links_spans():
    import steerdist

    modules = [m for name, m in sys.modules.items() if name.startswith("steerdist")]
    before = [dict(vars(m)) for m in modules]
    load = steerdist.Assemblage.__dict__["load"]
    eigvalsh = np.linalg.eigvalsh
    rec = tracer_mod.Tracer()
    rec.install()
    rec.request_id = 1
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            sys.modules["steerdist.cli"].main(["optimize", "--theta", "0.3", "--n", "2"])
    finally:
        rec.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert steerdist.Assemblage.__dict__["load"] is load and np.linalg.eigvalsh is eigvalsh

    assert rec.calls["cli.main"] == 1 and rec.calls["distillation.optimize_kappa"] == 1
    assert rec.counts["distillation.optimize_kappa.evaluations"] > 1000
    assert rec.counts["linalg.eigvalsh_mats"] > 1000
    root = next(s for s in rec.spans if s[3] == "cli.main")
    assert root[1] is None and all(s[2] == 1 for s in rec.spans)
    ids = {s[0] for s in rec.spans}
    assert all(s[1] in ids for s in rec.spans if s is not root)
    assert sum(rec.self_s.values()) == pytest.approx(root[5] - root[4], rel=1e-9)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "steerbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_without_failures(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["trace.span_coverage_pct"] > 0
        if workload != "optimal_scan":
            assert values["distillation.optimize_kappa.calls"] == 0
        if workload == "monte_carlo":
            assert values["linalg.eigvalsh_mats"] == 0
            assert values["protocol.run_protocol.trials"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_a_directory_without_steerdist_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "steerbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "fixed_scan", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
