"""Every public callable either returns or raises a SteerdistError, whatever it is passed.

Each positional argument of each name in ``steerdist.__all__`` is replaced,
one at a time, by each value of a hostile pool while the others stay valid.
The CLI is fuzzed in-process with values that argparse accepts.
"""
import math

import numpy as np
import pytest

import steerdist
from steerdist.cli import main
from steerdist.distillation import check_copies, check_kappa
from steerdist.errors import (
    BadArgumentError,
    SteerdistError,
    ThetaOutOfRangeError,
    check_integer,
    check_real,
)
from steerdist.linalg import psd_sqrt
from steerdist.states import PAULI_X, PAULI_Z, check_theta

HOSTILE = [
    None, math.nan, math.inf, -math.inf, 1j, True, "x", 2.5, -1, 10**400,
    np.bool_(True), np.complex64(1j), np.array(0.3), b"x", object(), [], {},
]

_A1 = steerdist.gghz_assemblage_1sdi(0.3)
_A2 = steerdist.gghz_assemblage_2sdi(0.3)
_GHZ1 = steerdist.ghz_assemblage("1sdi")
_KET = np.eye(8, dtype=complex)[0]

# One valid positional call per public name; optional numeric arguments included.
VALID_CALLS = {
    "Assemblage": (steerdist.Scenario.ONE_SIDED, dict(_A1.elements), 0.3),
    "DistillationConfig": (0.3, 2, 0.5, "1sdi"),
    "FilterOp": (0.5, np.eye(2), np.zeros((2, 2))),
    "MeasurementSet": ((PAULI_X, PAULI_Z),),
    "OptimizationResult": (0.5, 0.9, 10, 1e-9),
    "PureState": (_KET, 0.3),
    "Scenario": ("1sdi",),
    "SimOutcome": (0.3, 0.5, 2, 10, 1, 5, {"01": 5}, _A1),
    "ValidationReport": ([],),
    "WitnessResult": ("1sdi", -0.1, {}),
    "apply_filter": (_A1, 0.5),
    "assemblage_fidelity": (_A1, _GHZ1),
    "assemblage_from_state": (steerdist.gghz(0.3), "A", steerdist.pauli_xyz()),
    "asymptotic_kappa": (0.3,),
    "convex_mix": ([0.5, 0.5], [_A1, steerdist.gghz_assemblage_1sdi(0.6)]),
    "distill": (_A1, 0.5, 2),
    "distilled_assemblage": (steerdist.DistillationConfig(0.3, 2, 0.5),),
    "eig_hermitian": (np.diag([1.0, 2.0]), 1e-10),
    "gghz": (0.3,),
    "gghz_assemblage_1sdi": (0.3,),
    "gghz_assemblage_2sdi": (0.3,),
    "ghz_assemblage": ("2sdi",),
    "kappa_prime_ncopy_fidelity": (0.3, 3),
    "kron": (np.eye(2), np.eye(2)),
    "make_filter": (0.5,),
    "optimize_kappa": (0.3, 2, _GHZ1, "1sdi"),
    "partial_trace": (np.eye(4) / 4, [0]),
    "pauli_xyz": (),
    "psd_sqrt": (np.diag([1.0, 2.0]), 1e-9),
    "root_fidelity": (np.eye(2) / 2, np.eye(2) / 2),
    "run_protocol": (0.3, 0.5, 2, 50, 1),
    "single_copy_success_probability": (0.3, 0.5),
    "success_probability": (0.3, 0.5, 3),
    "two_copy_fidelity_closed_form": (0.3, 0.5),
    "two_copy_optimal_kappa": (0.3,),
    "validate": (_A1, 1e-10, 1e-9),
    "witness": (_A1,),
    "witness_1sdi": (_A1,),
    "witness_2sdi": (_A2,),
}


def test_every_public_name_has_a_valid_call():
    assert sorted(VALID_CALLS) == sorted(steerdist.__all__)


@pytest.mark.parametrize("name", sorted(VALID_CALLS))
def test_hostile_arguments_return_or_raise_a_typed_error(name):
    func, args = getattr(steerdist, name), VALID_CALLS[name]
    func(*args)
    leaks = []
    for i in range(len(args)):
        for bad in HOSTILE:
            call = list(args)
            call[i] = bad
            try:
                func(*call)
            except SteerdistError:
                pass
            except Exception as exc:   # noqa: BLE001 - any other type is the failure
                leaks.append(f"arg {i} = {type(bad).__name__}: {type(exc).__name__}: {exc}")
    assert leaks == []


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.3", b"0.3", 1j, 10**400])
def test_booleans_text_and_huge_integers_are_not_numbers(value):
    with pytest.raises(ThetaOutOfRangeError):
        check_theta(value)
    with pytest.raises(BadArgumentError):
        check_real(value, "x")
    with pytest.raises(BadArgumentError):
        check_integer(value, "x", 0)


def test_the_gate_keeps_valid_numbers():
    assert check_real(np.float64(0.25), "x", 0.0, 1.0) == 0.25
    assert type(check_real(3, "x")) is float
    assert check_kappa(1) == 1.0 and check_theta(math.pi / 4 + 1e-13) == math.pi / 4
    assert check_integer(2**128 - 1, "seed", 0, 2**128) == 2**128 - 1
    assert check_copies(10**30) == 10**30


def test_boolean_trials_seed_and_copies_are_refused():
    with pytest.raises(BadArgumentError):
        steerdist.run_protocol(0.3, 0.5, 2, True, False)
    with pytest.raises(BadArgumentError):
        steerdist.run_protocol(0.3, 0.5, 2, 10, False)
    with pytest.raises(BadArgumentError):
        check_copies(True)
    with pytest.raises(BadArgumentError):
        steerdist.distill(_A1, 0.5, np.bool_(True))


def test_non_assemblage_arguments_are_typed_errors():
    with pytest.raises(SteerdistError):
        steerdist.distill(None, 0.5, 2)
    with pytest.raises(SteerdistError):
        steerdist.optimize_kappa(0.3, 2, target="x")
    with pytest.raises(BadArgumentError, match="target"):
        steerdist.assemblage_fidelity(_A1, "x")


@pytest.mark.parametrize(
    "call",
    [
        lambda n: steerdist.success_probability(0.3, 0.5, n),
        lambda n: steerdist.distill(_A1, 0.5, n),
        lambda n: steerdist.kappa_prime_ncopy_fidelity(0.3, n),
        lambda n: steerdist.optimize_kappa(0.3, n),
    ],
)
def test_copy_counts_past_the_float_range_are_refused(call):
    with pytest.raises(BadArgumentError, match="n_copies"):
        call(10**400)
    call(10**30)   # within the float range: still computed


def test_state_and_matrix_errors_are_typed_value_errors():
    for bad in (np.array([1.0, 1.0]), np.array([np.nan, 0.0]), np.eye(2), ["a", "b"]):
        with pytest.raises(SteerdistError) as info:
            steerdist.PureState(bad)
        assert isinstance(info.value, ValueError)
    with pytest.raises(SteerdistError):
        steerdist.MeasurementSet((np.diag([1.0, 2.0]),))
    with pytest.raises(SteerdistError):
        steerdist.pauli_xyz().projector(0, 3)
    with pytest.raises(SteerdistError):
        psd_sqrt(np.array([[np.nan, 0], [0, 1]]))


HUGE = "1" + "0" * 400

CLI_FUZZ = [
    ["sweep", "--theta-min", "nan"],
    ["sweep", "--theta-max", "inf"],
    ["sweep", "--theta-min", "1"],
    ["sweep", "--theta-min", "0.5", "--theta-max", "0.5"],
    ["sweep", "--steps", "1"],
    ["sweep", "--steps", HUGE],
    ["sweep", "--steps", "3", "--n", HUGE],
    ["sweep", "--steps", "3", "--n", "1"],
    ["sweep", "--steps", "3", "--filter", "fixed:inf"],
    ["sweep", "--steps", "3", "--filter", "fixed:nan"],
    ["sweep", "--steps", "3", "--filter", "fixed:-1"],
    ["sweep", "--steps", "3", "--filter", "fixed:1e400"],
    ["sweep", "--steps", "2", "--n", "1" + "0" * 30],
    ["threshold", "--n", HUGE],
    ["threshold", "--filter", "fixed:nan"],
    ["optimize", "--theta", "nan"],
    ["optimize", "--theta=-inf"],
    ["optimize", "--theta", "0.3", "--n", HUGE],
    ["optimize", "--theta", "0.3", "--n", "1" + "0" * 30],
    ["optimize", "--n", "2"],
    ["simulate", "--theta", "0.3", "--kappa", "0.5", "--trials", "-5"],
    ["simulate", "--theta", "0.3", "--kappa", "0.5", "--trials", HUGE],
    ["simulate", "--theta", "0.3", "--kappa", "0.5", "--trials", "10", "--seed", "-1"],
    ["simulate", "--theta", "0.3", "--kappa", "0.5", "--trials", "10", "--seed", str(2**128)],
    ["simulate", "--theta", "0.3", "--kappa", "inf", "--trials", "10"],
    ["simulate", "--theta", "nan", "--kappa", "0.5", "--trials", "10"],
    ["simulate", "--theta", "0.3", "--kappa", "0.5", "--n", HUGE, "--trials", "10"],
]


def _fuzz_id(argv):
    return " ".join(a if len(a) < 20 else f"<{len(a)} digits>" for a in argv)


@pytest.mark.parametrize("argv", CLI_FUZZ, ids=_fuzz_id)
def test_cli_fuzz_exits_cleanly(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out and captured.err == ""
    else:
        assert code == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
