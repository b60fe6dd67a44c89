"""Bad input is refused with a typed error, never computed on."""
import ast
import builtins
import json
import math
from pathlib import Path

import numpy as np
import pytest

import steerdist
from steerdist.assemblage import (
    Assemblage,
    Scenario,
    convex_mix,
    element_keys,
    gghz_assemblage_1sdi,
    gghz_assemblage_2sdi,
    group_rows,
    setting_groups,
    validate,
)
from steerdist.cli import main
from steerdist.distillation import check_copies, distill, make_filter
from steerdist.errors import (
    BadArgumentError,
    InvariantViolationError,
    KappaOutOfRangeError,
    NoConvergenceError,
    ScenarioMismatchError,
    SchemaError,
    SteerdistError,
    ThetaOutOfRangeError,
)
from steerdist.linalg import eig_hermitian
from steerdist.metrics import witness, witness_2sdi
from steerdist.protocol import MAX_DRAWS, run_protocol

PACKAGE_DIR = Path(steerdist.__file__).parent


def test_package_has_no_assert_statements():
    # Checks written as assert vanish under python -O.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _raised_builtin_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and isinstance(getattr(builtins, exc.id, None), type):
                yield node.lineno, exc.id


def test_package_raises_no_builtin_exception_types():
    # Every error the toolkit raises is a SteerdistError subclass; argparse's
    # own ArgumentTypeError (an attribute, not a builtin) is its protocol.
    found = [
        f"{path.name}:{lineno} {name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for lineno, name in _raised_builtin_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_eig_hermitian_audit_raises(monkeypatch):
    real_eigh = np.linalg.eigh

    def skewed_eigh(a):
        w, v = real_eigh(a)
        return w, v * 1.01

    monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    with pytest.raises(NoConvergenceError):
        eig_hermitian(np.diag([1.0, 2.0]))
    with pytest.raises(NoConvergenceError):
        eig_hermitian(np.stack([np.eye(4), np.diag([1.0, 2.0, 3.0, 4.0])]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_element_rejected_at_construction(bad):
    asm = gghz_assemblage_1sdi(0.3)
    elements = dict(asm.elements)
    elements[(1, 2)] = np.array(elements[(1, 2)])
    elements[(1, 2)][0, 0] = bad
    with pytest.raises(InvariantViolationError, match="1\\|2"):
        Assemblage(Scenario.ONE_SIDED, elements)


def _malformed_documents():
    doc = gghz_assemblage_1sdi(0.3).to_json_dict()
    missing_scenario = {k: v for k, v in doc.items() if k != "scenario"}
    flat = json.loads(json.dumps(doc))
    flat["elements"]["0|0"] = [[re for re, _ in row] for row in doc["elements"]["0|0"]]
    scalar = json.loads(json.dumps(doc))
    scalar["elements"]["0|0"] = 0.5
    text_theta = dict(doc, theta="pi/8")
    bool_entry = json.loads(json.dumps(doc))
    bool_entry["elements"]["0|0"][0][0] = [True, False]
    return {
        "bool_theta": dict(doc, theta=True),
        "bool_entry": bool_entry,
        "missing_scenario": missing_scenario,
        "top_level_list": [doc],
        "wrongly_nested_matrix": flat,
        "scalar_matrix": scalar,
        "non_numeric_theta": text_theta,
    }


MALFORMED = _malformed_documents()


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_from_json_dict_raises_schema_error(name):
    with pytest.raises(SchemaError):
        Assemblage.from_json_dict(MALFORMED[name])


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("command", [["validate"], ["optimize", "--n", "2", "--assemblage"]])
def test_cli_reports_malformed_json(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED[name]), encoding="utf-8")
    assert main(command + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_witness_refuses_marginally_signaling_assemblage():
    # Moving 0.2|0><0| between two outcome slots of the (Z, Z) setting keeps
    # every joint setting total but makes Alice's marginal depend on Bob's
    # setting; the witness formula alone would read +0.014 instead of -0.132.
    asm = gghz_assemblage_2sdi(0.3)
    moved = 0.2 * np.diag([1.0, 0.0]).astype(complex)
    elements = dict(asm.elements)
    elements[(0, 0, 2, 2)] = elements[(0, 0, 2, 2)] - moved
    elements[(1, 0, 2, 2)] = elements[(1, 0, 2, 2)] + moved
    signaling = Assemblage(Scenario.TWO_SIDED, elements)
    assert "no_signaling" in validate(signaling).checks_failed()
    assert witness_2sdi(asm).value == pytest.approx(-0.1325, abs=1e-4)
    with pytest.raises(InvariantViolationError):
        witness_2sdi(signaling)
    with pytest.raises(InvariantViolationError):
        witness(signaling)


def test_witness_refuses_non_psd_assemblage():
    asm = gghz_assemblage_1sdi(math.pi / 8)
    elements = dict(asm.elements)
    shift = 0.05 * np.diag([1.0, 0.0, 0.0, -1.0])
    elements[(0, 2)] = elements[(0, 2)] + shift
    elements[(1, 2)] = elements[(1, 2)] - shift
    with pytest.raises(InvariantViolationError):
        witness(Assemblage(Scenario.ONE_SIDED, elements))


def test_assemblage_equality_is_identity():
    a, b = gghz_assemblage_1sdi(0.3), gghz_assemblage_1sdi(0.3)
    assert (a == a) is True
    assert (a == b) is False
    assert (a != b) is True
    assert len({a, a, b}) == 2


@pytest.mark.parametrize("scenario, n_keys, n_groups", [("1sdi", 6, 3), ("2sdi", 36, 9)])
def test_scenario_strings_give_the_member_layout(scenario, n_keys, n_groups):
    member = Scenario(scenario)
    assert len(element_keys(scenario)) == n_keys
    assert len(setting_groups(scenario)) == n_groups
    assert element_keys(scenario) == element_keys(member)
    assert setting_groups(scenario) == setting_groups(member)
    np.testing.assert_array_equal(group_rows(scenario), group_rows(member))
    assert group_rows(scenario).shape == (n_groups, n_keys // n_groups)


def test_unknown_scenario_is_a_typed_error():
    with pytest.raises(ScenarioMismatchError, match="3sdi"):
        Scenario("3sdi")
    with pytest.raises(ScenarioMismatchError):
        element_keys("3sdi")
    doc = dict(gghz_assemblage_1sdi(0.3).to_json_dict(), scenario="3sdi")
    with pytest.raises(SchemaError):
        Assemblage.from_json_dict(doc)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_rejected_at_construction(theta):
    asm = gghz_assemblage_1sdi(0.3)
    with pytest.raises(InvariantViolationError, match="theta"):
        Assemblage(asm.scenario, asm.elements, theta=theta)


def _infinite_theta_text():
    text = json.dumps(gghz_assemblage_2sdi(0.3).to_json_dict())
    return text.replace('"theta": 0.3', '"theta": 1e400')


def test_infinite_theta_in_json_rejected():
    text = _infinite_theta_text()
    assert "1e400" in text
    with pytest.raises(InvariantViolationError, match="theta"):
        Assemblage.from_json_dict(json.loads(text))


@pytest.mark.parametrize("command", [["validate"], ["optimize", "--n", "2", "--assemblage"]])
def test_cli_reports_infinite_theta(tmp_path, capsys, command):
    path = tmp_path / "inf_theta.json"
    path.write_text(_infinite_theta_text(), encoding="utf-8")
    assert main(command + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "n_copies", [2.9, 2.5, 3.000001, np.float64(4.5), math.inf, math.nan, None]
)
def test_non_integral_copies_rejected(n_copies):
    with pytest.raises(ValueError, match="integer"):
        check_copies(n_copies)
    with pytest.raises(ValueError, match="integer"):
        distill(gghz_assemblage_1sdi(0.3), 0.5, n_copies)


@pytest.mark.parametrize("n_copies", [2, 3.0, np.int64(4), np.float64(5.0)])
def test_integral_copies_accepted(n_copies):
    n = check_copies(n_copies)
    assert n == n_copies and type(n) is int


def test_integers_past_the_float_range_are_a_schema_error():
    doc = gghz_assemblage_1sdi(0.3).to_json_dict()
    huge_theta = dict(doc, theta=10**400)
    huge_entry = json.loads(json.dumps(doc))
    huge_entry["elements"]["0|0"][0][0] = [10**400, 0]
    for bad in (huge_theta, huge_entry):
        with pytest.raises(SchemaError, match="OverflowError"):
            Assemblage.from_json_dict(bad)


def test_copies_error_is_typed():
    with pytest.raises(BadArgumentError):
        check_copies(2.5)


@pytest.mark.parametrize("bad", [1j, None, "x"])
def test_non_real_kappa_and_theta_are_typed_errors(bad):
    with pytest.raises(KappaOutOfRangeError):
        make_filter(bad)
    with pytest.raises(ThetaOutOfRangeError):
        gghz_assemblage_1sdi(bad)


@pytest.mark.parametrize("bad", [None, {}, "assemblage"])
def test_validate_refuses_non_assemblages(bad):
    with pytest.raises(BadArgumentError, match="Assemblage"):
        validate(bad)


@pytest.mark.parametrize(
    "weights",
    [[2, -1], [-0.0, 1.0000001], [math.nan, 0.5], [math.inf, -math.inf], [0.5, 0.4], [1j, 0], [None, 1]],
)
def test_convex_mix_refuses_non_convex_weights(weights):
    a, b = gghz_assemblage_1sdi(0.3), gghz_assemblage_1sdi(0.6)
    with pytest.raises(BadArgumentError, match="weights"):
        convex_mix(weights, [a, b])


def test_convex_mix_accepts_weights_summing_to_one_within_tolerance():
    a, b = gghz_assemblage_1sdi(0.3), gghz_assemblage_1sdi(0.6)
    mixed = convex_mix(np.array([0.3, 0.7 + 5e-11]), [a, b])
    assert validate(mixed).ok


@pytest.mark.parametrize(
    "trials, seed",
    [
        (math.inf, 1), (math.nan, 1), (None, 1), (2.5, 1), ("10", 1), (0, 1),
        (10, 1.5), (10, -1), (10, 2**128), (10, None), (10, math.inf),
    ],
)
def test_run_protocol_refuses_bad_trials_and_seed(trials, seed):
    with pytest.raises(BadArgumentError) as info:
        run_protocol(0.3, 0.5, 2, trials, seed)
    assert isinstance(info.value, SteerdistError) and isinstance(info.value, ValueError)


def test_run_protocol_caps_the_number_of_draws():
    with pytest.raises(BadArgumentError, match="cap"):
        run_protocol(0.3, 0.5, 3, MAX_DRAWS // 2 + 1, 1)
    with pytest.raises(BadArgumentError, match="cap"):
        run_protocol(0.3, 0.5, MAX_DRAWS + 2, 1, 1)


def test_run_protocol_accepts_integral_trials_and_the_largest_seed():
    out = run_protocol(0.3, 0.5, 2, 20.0, 2**128 - 1)
    assert out.trials == 20 and type(out.trials) is int
    assert out.seed == 2**128 - 1
    assert run_protocol(0.3, 0.5, 2, np.int64(20), np.uint64(7)).seed == 7


def test_cli_refuses_a_simulation_past_the_cap(capsys):
    argv = ["simulate", "--theta", "0.3", "--kappa", "0.5", "--trials", "100000000000000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "cap" in lines[0]
