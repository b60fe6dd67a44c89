import json
import math
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest

from steerdist import cli
from steerdist.assemblage import Assemblage, Scenario, gghz_assemblage_1sdi, ghz_assemblage
from steerdist.cli import (
    CSV_HEADER,
    MAX_STEPS,
    _fmt,
    main,
    resolve_kappa,
    sweep_rows,
    threshold_theta,
)
from steerdist.errors import (
    BadArgumentError,
    NoSignChangeError,
    ScenarioMismatchError,
    SchemaError,
    ThetaOutOfRangeError,
)
from steerdist.protocol import run_protocol

from conftest import evaluate_point

PI4 = math.pi / 4
PI8 = math.pi / 8


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestSweep:
    def test_header_and_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, ["sweep", "--theta-min", "0.1", "--theta-max", "0.5", "--steps", "3"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_ghz_point_with_optimal_filter(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "sweep",
                "--theta-min", "0.7",
                "--theta-max", str(PI4),
                "--steps", "2",
                "--filter", "optimal",
                "--n", "2",
            ],
        )
        assert code == 0
        _, rows = parse_csv(out)
        last = rows[-1]
        assert float(last["f_1sdi"]) == pytest.approx(1.0, abs=1e-9)
        assert float(last["s_1sdi"]) == pytest.approx(-0.8453, abs=5e-4)
        assert float(last["s_2sdi"]) == pytest.approx(-0.5820, abs=5e-4)
        assert float(last["kappa"]) == pytest.approx(1.0, abs=1e-6)
        assert float(last["p_succ"]) == pytest.approx(1.0, abs=1e-9)

    def test_theta_zero_unfiltered_witness(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--theta-min", "0", "--theta-max", "0.1", "--steps", "2",
             "--filter", "none", "--n", "2"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["s_1sdi"]) == pytest.approx(1.1547 - 2 / 3, abs=1e-8)
        assert float(rows[0]["kappa"]) == 1.0

    def test_nine_significant_digits(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--theta-min", "0.1", "--theta-max", "0.2", "--steps", "2"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            for col in ("theta", "kappa", "p_succ", "f_1sdi", "f_2sdi", "s_1sdi", "s_2sdi"):
                cell = row[col]
                assert cell == format(float(cell), ".9g")

    def test_round_trip_recompute(self, capsys):
        # any printed row is reproducible from its own (theta, n, kappa) cells
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--theta-min", "0.05", "--theta-max", "0.7", "--steps", "4",
             "--filter", "fixed:0.7", "--n", "3"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            again = evaluate_point(
                float(row["theta"]), int(row["n"]), float(row["kappa"]), row["filter"]
            )
            assert float(row["p_succ"]) == pytest.approx(again.p_succ_total, abs=1e-8)
            assert float(row["f_1sdi"]) == pytest.approx(again.f_1sdi, abs=1e-8)
            assert float(row["f_2sdi"]) == pytest.approx(again.f_2sdi, abs=1e-8)
            assert float(row["s_1sdi"]) == pytest.approx(again.s_1sdi, abs=1e-8)
            assert float(row["s_2sdi"]) == pytest.approx(again.s_2sdi, abs=1e-8)

    def test_scenario_restriction_leaves_empty_cells(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--theta-min", "0.1", "--theta-max", "0.2", "--steps", "2",
             "--scenario", "1sdi"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert row["f_2sdi"] == "" and row["s_2sdi"] == ""
            assert row["f_1sdi"] != ""

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--theta-min", "0.1", "--theta-max", "0.2", "--steps", "2",
             "--format", "json"],
        )
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 2
        assert {"theta", "n", "filter", "kappa", "p_succ"} <= set(docs[0])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--theta-min", "0.1", "--theta-max", "0.2", "--steps", "2",
             "--out", str(path)],
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith(CSV_HEADER)

    def test_csv_lines_come_straight_from_the_row_generator(self, tmp_path):
        # no list of SweepRow is held next to the lines: 11.1 MiB when one was
        path = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            code = main(["sweep", "--steps", "20000", "--out", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 8 * 2**20
        assert path.read_text().count("\n") == 20001

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_error_in_a_later_block_emits_nothing(self, capsys, tmp_path, fmt, to_file):
        real = cli._block_rows

        def fail_second_block(thetas, *args):
            if thetas[0] > 0.1:
                raise BadArgumentError("second block")
            return real(thetas, *args)

        path = tmp_path / "sweep.out"
        argv = ["sweep", "--theta-min", "0.1", "--steps", "300", "--format", fmt]
        with mock.patch.object(cli, "_block_rows", fail_second_block):
            code, out, err = run_cli(capsys, argv + (["--out", str(path)] if to_file else []))
        assert (code, out, err) == (1, "", "error: second block\n")
        assert not path.exists()

    def test_bad_range_fails(self, capsys):
        code, _, err = run_cli(
            capsys, ["sweep", "--theta-min", "0.5", "--theta-max", "0.1"]
        )
        assert code == 1
        assert "error" in err

    def test_empty_range_names_both_ends(self, capsys):
        # the refusal used to print the refused value inside the range it gave
        code, out, err = run_cli(
            capsys, ["sweep", "--theta-min", "1e-7", "--theta-max", "1e-7", "--steps", "2"]
        )
        assert code == 1 and out == ""
        assert err == ("error: theta_max must be greater than theta_min, "
                       "got theta_max=1e-07, theta_min=1e-07\n")

    def test_steps_past_the_cap_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--steps", str(10**18)])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: steps must be")

    def test_steps_cap_is_exclusive(self):
        # refused before any grid is allocated
        with pytest.raises(BadArgumentError):
            next(sweep_rows(0.1, 0.2, MAX_STEPS, 2, "none"))

    def test_asymptotic_filter_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--theta-min", "0.3", "--theta-max", "0.3000001", "--steps", "2",
             "--filter", "asymptotic"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["kappa"]) == pytest.approx(math.tan(0.3), abs=1e-9)
        assert rows[0]["filter"] == "asymptotic"

    def test_filter_gap_at_018(self, capsys):
        # enhancement of the optimal filter over the asymptotic one near the
        # weak-steering end of the plateau
        args = ["sweep", "--theta-min", "0.18", "--theta-max", "0.19", "--steps", "2",
                "--scenario", "1sdi", "--n", "2"]
        _, out_opt, _ = run_cli(capsys, args + ["--filter", "optimal"])
        _, out_asym, _ = run_cli(capsys, args + ["--filter", "asymptotic"])
        f_opt = float(parse_csv(out_opt)[1][0]["f_1sdi"])
        f_asym = float(parse_csv(out_asym)[1][0]["f_1sdi"])
        assert f_opt - f_asym == pytest.approx(0.0114, abs=0.002)

    def test_fidelity_range_invariant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--theta-min", "0", "--theta-max", str(PI4), "--steps", "9",
             "--filter", "fixed:0.4", "--n", "3"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            for col in ("f_1sdi", "f_2sdi"):
                assert 0.0 < float(row[col]) <= 1.0 + 1e-9


class TestThreshold:
    def test_no_filter_root(self, capsys):
        code, out, _ = run_cli(capsys, ["threshold", "--filter", "none", "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        # root of the closed-form witness; the quoted 0.185 is a rounding of this
        assert doc["theta_root"] == pytest.approx(0.187367, abs=2e-5)

    def test_optimal_filter_activates_weaker_states(self, capsys):
        code, out, _ = run_cli(capsys, ["threshold", "--filter", "optimal", "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["theta_root"] == pytest.approx(0.15067, abs=5e-4)

    def test_asymptotic_root_between(self, capsys):
        code, out, _ = run_cli(capsys, ["threshold", "--filter", "asymptotic", "--n", "2"])
        assert code == 0
        root_asym = json.loads(out)["theta_root"]
        assert 0.15067 < root_asym < 0.187367
        assert root_asym == pytest.approx(0.167474, abs=5e-4)

    def test_two_sided_root(self, capsys):
        code, out, _ = run_cli(
            capsys, ["threshold", "--filter", "none", "--scenario", "2sdi"]
        )
        assert code == 0
        # closed form: sin(2 theta) = (1 - 3*0.1831) / (4*0.2582)
        expect = math.asin((1 - 3 * 0.1831) / (4 * 0.2582)) / 2
        assert json.loads(out)["theta_root"] == pytest.approx(expect, abs=2e-5)

    @pytest.mark.parametrize("scenario", ["1sdi", "2sdi"])
    def test_finite_n_roots_are_ordered_at_four_copies(self, scenario):
        # optimal < asymptotic < none at N = 4, as at N = 2: the optimal
        # filter activates the weakest states when the copies are finite
        roots = [threshold_theta(kind, 4, scenario) for kind in ("optimal", "asymptotic", "none")]
        assert roots == sorted(roots) and len(set(roots)) == 3

    @pytest.mark.parametrize("n_copies", [2, 3, 5, 6, 8])
    @pytest.mark.parametrize("scenario", ["1sdi", "2sdi"])
    def test_finite_n_roots_are_strictly_ordered(self, scenario, n_copies):
        # the abstract's finite-N advantage: optimal < asymptotic < none
        optimal, asymptotic, none = (
            threshold_theta(kind, n_copies, scenario) for kind in ("optimal", "asymptotic", "none")
        )
        assert optimal < asymptotic < none

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            threshold_theta("none", 2, "1sdi", lo=0.01, hi=0.05)

    @pytest.mark.parametrize("lo, hi", [(0.5, 0.01), (0.3, 0.3), (-0.1, 0.5), (0.01, 1.0),
                                        (math.nan, 0.5), (0.01, None)])
    def test_bad_bracket_is_refused(self, lo, hi):
        # a reversed bracket used to skip the loop and return its midpoint
        with pytest.raises(ThetaOutOfRangeError):
            threshold_theta("none", 2, "1sdi", lo=lo, hi=hi)

    @pytest.mark.parametrize("lo, hi", [(0.3, 0.3), (0.5, 0.01)])
    def test_empty_bracket_names_both_ends(self, lo, hi):
        with pytest.raises(ThetaOutOfRangeError) as info:
            threshold_theta("none", 2, lo=lo, hi=hi)
        assert str(info.value) == f"hi must be greater than lo, got hi={hi!r}, lo={lo!r}"

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6, "1e-6", True])
    def test_bad_tolerance_is_refused(self, tol):
        # a NaN tolerance used to skip the loop and return the bracket's midpoint
        with pytest.raises(BadArgumentError):
            threshold_theta("none", 2, "1sdi", tol=tol)

    def test_function_agrees_with_bisected_witness(self):
        root = threshold_theta("none", 2, "1sdi", tol=1e-8)
        from steerdist.metrics import witness_1sdi

        assert abs(witness_1sdi(gghz_assemblage_1sdi(root)).value) < 1e-6


class TestOptimize:
    def test_theta_route_with_closed_form_echo(self, capsys):
        code, out, _ = run_cli(capsys, ["optimize", "--theta", str(PI8), "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa_star"] == pytest.approx(0.585786437626905, abs=1e-6)
        assert doc["closed_form_kappa"] == pytest.approx(0.585786437626905, abs=1e-12)
        assert doc["bracket_width"] <= 1e-8

    def test_many_copies_converges_to_tan(self, capsys):
        code, out, _ = run_cli(capsys, ["optimize", "--theta", "0.3", "--n", "100"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["kappa_star"] - math.tan(0.3)) < 0.05
        assert "closed_form_kappa" not in doc

    def test_assemblage_file_route(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        ghz_assemblage(Scenario.ONE_SIDED).save(path)
        code, out, _ = run_cli(capsys, ["optimize", "--assemblage", str(path), "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa_star"] == 1.0
        assert doc["f_star"] == pytest.approx(1.0, abs=1e-9)

    def test_assemblage_route_honours_the_scenario(self, capsys, tmp_path):
        path = tmp_path / "a1.json"
        gghz_assemblage_1sdi(0.3).save(path)
        argv = ["optimize", "--assemblage", str(path), "--n", "2"]
        code, out, err = run_cli(capsys, argv + ["--scenario", "2sdi"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "2sdi" in err
        code, same, _ = run_cli(capsys, argv + ["--scenario", "1sdi"])
        assert code == 0 and same == run_cli(capsys, argv)[1]

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, ["optimize", "--n", "2"])
        assert code == 1 and "error" in err
        code, _, err = run_cli(
            capsys, ["optimize", "--theta", "0.3", "--assemblage", "x.json"]
        )
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["optimize", "--assemblage", "/nonexistent.json"])
        assert code == 1 and "error" in err


class TestSimulate:
    def test_identity_filter(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--theta", "0.3", "--kappa", "1.0", "--n", "2",
             "--trials", "200", "--seed", "5"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["success_fraction"] == 1.0

    def test_reproducible_output(self, capsys, tmp_path):
        argv = ["simulate", "--theta", str(PI8), "--kappa", "0.6", "--n", "3",
                "--trials", "5000", "--seed", "42"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(p1)]) == 0
        assert main(argv + ["--out", str(p2)]) == 0
        assert p1.read_text() == p2.read_text()

    def test_embedded_assemblage_parses(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--theta", "0.3", "--kappa", "0.5", "--n", "2",
             "--trials", "100", "--seed", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        emb = Assemblage.from_json_dict(doc["empirical_assemblage"])
        assert emb.scenario is Scenario.ONE_SIDED


class TestValidate:
    def test_valid_file(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        gghz_assemblage_1sdi(0.3).save(path)
        code, out, _ = run_cli(capsys, ["validate", str(path)])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_invalid_file(self, capsys, tmp_path):
        asm = gghz_assemblage_1sdi(0.3)
        doc = asm.to_json_dict()
        # scale one element: breaks normalization and no-signaling
        doc["elements"]["0|0"] = [
            [[1.1 * re, 1.1 * im] for re, im in row] for row in doc["elements"]["0|0"]
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["validate", str(path)])
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        checks = {v["check"] for v in report["violations"]}
        assert "normalization" in checks
        assert "violation" in err

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["validate", str(path)])
        assert code == 1

    @pytest.mark.parametrize("depth", [1000, 100_000])
    @pytest.mark.parametrize("command", [["validate"], ["optimize", "--n", "2", "--assemblage"]])
    def test_deeply_nested_file_is_one_error_line(self, capsys, tmp_path, depth, command):
        # 2 KB at depth 1000 used to end in a RecursionError traceback;
        # json.dumps would itself recurse, so the text is written directly
        path = tmp_path / "deep.json"
        path.write_text('{"scenario": "1sdi", "elements": {"0|0": '
                        + "[" * depth + "]" * depth + "}}")
        with pytest.raises(SchemaError):
            Assemblage.load(path)
        code, out, err = run_cli(capsys, command + [str(path)])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_filter_spec(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--filter", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--steps", 5], "sweep", b"sweep", 5, ["sweep", None], ("sweep", b"--steps")],
        ids=repr,
    )
    def test_bad_argv_is_one_error_line(self, capsys, argv):
        # an int used to raise TypeError; a str was parsed letter by letter
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: argv ")

    def test_any_sequence_of_str_is_argv(self, capsys):
        argv = ["sweep", "--steps", "2", "--scenario", "1sdi"]
        expected = run_cli(capsys, argv)
        assert expected[0] == 0
        assert run_cli(capsys, tuple(argv)) == expected
        assert run_cli(capsys, iter(argv)) == expected

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steerdist", "sweep", "--theta-min", "0.1",
             "--theta-max", "0.2", "--steps", "2", "--scenario", "1sdi"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(CSV_HEADER)


def test_repeated_calls_share_one_parser_and_match_fresh_ones(capsys, monkeypatch, tmp_path):
    bad = gghz_assemblage_1sdi(0.3).to_json_dict()
    bad["elements"]["0|0"][0][0][0] += 0.5
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    out_path = tmp_path / "sweep.csv"
    sweep = ["sweep", "--theta-min", "0.1", "--theta-max", "0.3", "--steps", "3"]
    session = [
        ["sweep", "--filter", "bogus"],                          # usage error, exit 2
        ["sweep", "--theta-min", "0.5", "--theta-max", "0.1"],   # SteerdistError, exit 1
        sweep + ["--out", str(out_path)],
        sweep,                                                   # must not inherit --out
        ["sweep", "-h"],
        ["validate", str(bad_path)],
        ["simulate", "--theta", "0.3", "--kappa", "0.5", "--trials", "50", "--seed", "3"],
        ["threshold", "--n", "1"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    fresh = []
    for argv in session:
        cli._parser.cache_clear()
        fresh.append(call(argv))

    builds, build_parser = [], cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    shared = [call(argv) for argv in session]
    cli._parser.cache_clear()

    assert shared == fresh
    assert len(builds) == 1
    assert [r[0] for r in shared] == [2, 1, 0, 0, 0, 1, 0, 1]
    assert shared[2][1] == "" and shared[2][3].startswith(CSV_HEADER)
    assert shared[3][1] == shared[2][3] and shared[3][3] is None
    assert shared[4][1].startswith("usage: steerdist sweep")


def test_sweep_rows_generator_direct():
    rows = list(sweep_rows(0.1, 0.3, 3, 2, "none", scenario="1sdi"))
    assert len(rows) == 3
    assert rows[0].kappa == 1.0
    assert rows[0].f_2sdi is None


class TestOutputSchema:
    """Each output record's keys come from its dataclass; these pin them."""

    def test_sweep_json_keys_are_the_csv_header(self):
        row = evaluate_point(0.3, 2, 0.5, "fixed")
        assert list(row.to_json_dict()) == CSV_HEADER.split(",")

    @pytest.mark.parametrize(
        "n_copies, scenario", [(2, "both"), (3, "1sdi"), (10**30, "2sdi")]
    )
    def test_sweep_csv_cells_are_fmt_of_json_values(self, n_copies, scenario):
        row = evaluate_point(0.3, n_copies, 0.5, "fixed", scenario)
        doc = row.to_json_dict()
        cells = row.to_csv().split(",")
        assert cells == [_fmt(v) for v in doc.values()]
        assert cells[1] == str(n_copies) and cells[2] == "fixed"
        skipped = {"both": [], "1sdi": ["f_2sdi", "s_2sdi"], "2sdi": ["f_1sdi", "s_1sdi"]}
        for col in skipped[scenario]:
            assert doc[col] is None and cells[CSV_HEADER.split(",").index(col)] == ""

    def test_fmt_is_the_one_cell_rule(self):
        assert _fmt(None) == ""
        assert _fmt(0.12345678912345) == "0.123456789"
        assert _fmt(10**30) == "1" + "0" * 30
        assert _fmt("asymptotic") == "asymptotic"

    def test_optimize_keys(self, capsys, tmp_path):
        base = {"kappa_star", "f_star", "evaluations", "bracket_width", "n"}
        _, out, _ = run_cli(capsys, ["optimize", "--theta", "0.3", "--n", "2"])
        assert set(json.loads(out)) == base | {"closed_form_kappa"}
        path = tmp_path / "ghz.json"
        ghz_assemblage(Scenario.ONE_SIDED).save(path)
        _, out, _ = run_cli(capsys, ["optimize", "--assemblage", str(path), "--n", "3"])
        assert set(json.loads(out)) == base

    def test_validate_keys(self, capsys, tmp_path):
        doc = gghz_assemblage_1sdi(0.3).to_json_dict()
        doc["elements"]["0|0"][0][0][0] += 0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["validate", str(path)])
        report = json.loads(out)
        assert code == 1 and set(report) == {"ok", "violations"}
        assert report["violations"]
        assert all(set(v) == {"check", "where", "deviation"} for v in report["violations"])

    def test_simulate_keys_and_histogram_copy(self):
        outcome = run_protocol(0.3, 0.5, 3, 50, 4)
        doc = outcome.to_json_dict()
        assert set(doc) == {
            "theta", "kappa", "n_copies", "trials", "seed", "success_count",
            "success_fraction", "bitstring_histogram", "empirical_assemblage",
        }
        assert doc["bitstring_histogram"] == outcome.bitstring_histogram
        doc["bitstring_histogram"].clear()
        assert sum(outcome.bitstring_histogram.values()) == 50
        assert {"scenario", "elements"} <= set(doc["empirical_assemblage"])


class TestUnknownKinds:
    @pytest.mark.parametrize("kind", ["optmal", "OPTIMAL", "fixed:0.5", "", None])
    def test_unknown_filter_kind_is_refused(self, kind):
        with pytest.raises(BadArgumentError, match=r"none\|optimal\|asymptotic\|fixed"):
            resolve_kappa(kind, None, 0.3, 2)

    @pytest.mark.parametrize("scenario", ["3sdi", "1SDI", "Both", "", None])
    def test_unknown_scenario_is_refused(self, scenario):
        with pytest.raises(ScenarioMismatchError):
            list(sweep_rows(0.1, 0.3, 3, 2, "none", scenario=scenario))
        # refused before any kappa of the block is resolved, so before any optimizer run
        with mock.patch.object(cli, "resolve_kappa", side_effect=AssertionError), \
                pytest.raises(ScenarioMismatchError):
            next(sweep_rows(0.1, 0.3, 3, 2, "optimal", scenario=scenario))
