import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steerdist.assemblage import (
    Assemblage,
    Scenario,
    assemblage_from_state,
    convex_mix,
    element_keys,
    gghz_assemblage_1sdi,
    gghz_assemblage_2sdi,
    ghz_assemblage,
    setting_groups,
    validate,
)
from steerdist.errors import (
    BadArgumentError,
    BadMaskError,
    DimMismatchError,
    ScenarioMismatchError,
    ThetaOutOfRangeError,
)
from steerdist.states import gghz, pauli_xyz

from conftest import max_element_diff


class TestClosedFormOneSided:
    def test_ghz_x_outcome(self):
        asm = gghz_assemblage_1sdi(math.pi / 4)
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / math.sqrt(2)
        assert np.max(np.abs(asm.element(0, 0) - np.outer(v, v.conj()) / 2)) < 1e-12

    def test_theta_zero_z_outcome_one(self):
        asm = gghz_assemblage_1sdi(0.0)
        assert np.max(np.abs(asm.element(1, 2))) == 0.0

    def test_pi_over_8_z_outcome_zero(self):
        asm = gghz_assemblage_1sdi(math.pi / 8)
        expect = np.zeros((4, 4))
        expect[0, 0] = math.cos(math.pi / 8) ** 2  # 0.85355...
        assert np.max(np.abs(asm.element(0, 2) - expect)) < 1e-12
        assert asm.element(0, 2)[0, 0].real == pytest.approx(0.8535533905932737)

    def test_probabilities(self):
        # X and Y outcomes are uniform; Z outcomes follow cos^2/sin^2
        asm = gghz_assemblage_1sdi(0.3)
        probs = asm.probabilities()
        for x in (0, 1):
            assert probs[(0, x)] == pytest.approx(0.5, abs=1e-12)
        assert probs[(0, 2)] == pytest.approx(math.cos(0.3) ** 2, abs=1e-12)
        assert probs[(1, 2)] == pytest.approx(math.sin(0.3) ** 2, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ThetaOutOfRangeError):
            gghz_assemblage_1sdi(1.0)


class TestClosedFormTwoSided:
    def test_ghz_xx_outcome(self):
        asm = gghz_assemblage_2sdi(math.pi / 4)
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        assert np.max(np.abs(asm.element(0, 0, 0, 0) - np.outer(plus, plus) / 4)) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
    def test_zero_probability_slots(self, theta):
        asm = gghz_assemblage_2sdi(theta)
        assert np.max(np.abs(asm.element(0, 1, 2, 2))) == 0.0
        assert np.max(np.abs(asm.element(1, 0, 2, 2))) == 0.0

    def test_pi_over_8_zz_outcome(self):
        asm = gghz_assemblage_2sdi(math.pi / 8)
        expect = np.diag([math.cos(math.pi / 8) ** 2, 0.0])
        assert np.max(np.abs(asm.element(0, 0, 2, 2) - expect)) < 1e-12

    def test_full_grid_populated(self):
        asm = gghz_assemblage_2sdi(0.2)
        assert len(asm.elements) == 36
        assert set(asm.elements) == set(element_keys(Scenario.TWO_SIDED))


class TestGenericRoute:
    @pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 4, 20))
    def test_matches_one_sided_closed_form(self, theta):
        generic = assemblage_from_state(gghz(theta), "A", pauli_xyz())
        assert max_element_diff(generic, gghz_assemblage_1sdi(theta)) < 1e-10

    @pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 4, 20))
    def test_matches_two_sided_closed_form(self, theta):
        generic = assemblage_from_state(gghz(theta), "AB", pauli_xyz())
        assert max_element_diff(generic, gghz_assemblage_2sdi(theta)) < 1e-10

    def test_default_measurements_are_pauli(self):
        assert max_element_diff(
            assemblage_from_state(gghz(0.5), "A"), gghz_assemblage_1sdi(0.5)
        ) < 1e-12

    def test_theta_zero_product_structure(self):
        asm = assemblage_from_state(gghz(0.0), "A")
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 0] = 1.0
        assert np.max(np.abs(asm.element(0, 2) - expect)) < 1e-12
        assert np.max(np.abs(asm.element(1, 2))) < 1e-15

    def test_bad_party_masks(self):
        with pytest.raises(BadMaskError):
            assemblage_from_state(gghz(0.3), "B")
        with pytest.raises(BadMaskError):
            assemblage_from_state(gghz(0.3), "ABC")
        with pytest.raises(BadMaskError):
            assemblage_from_state(gghz(0.3), "AB", (pauli_xyz(),) * 3)


class TestValidate:
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
    def test_closed_forms_valid(self, theta):
        assert validate(gghz_assemblage_1sdi(theta)).ok
        assert validate(gghz_assemblage_2sdi(theta)).ok

    def test_scaled_element_breaks_normalization(self):
        asm = gghz_assemblage_1sdi(0.3)
        elements = dict(asm.elements)
        elements[(0, 0)] = elements[(0, 0)] * 1.1
        report = validate(Assemblage(Scenario.ONE_SIDED, elements))
        assert not report.ok
        assert "normalization" in report.checks_failed()

    def test_cross_theta_swap_breaks_no_signaling(self):
        # keep traces intact but make the summed state depend on the setting
        asm = gghz_assemblage_1sdi(0.3)
        other = gghz_assemblage_1sdi(0.6)
        elements = dict(asm.elements)
        elements[(0, 0)] = other.element(0, 0)
        elements[(1, 0)] = other.element(1, 0)
        report = validate(Assemblage(Scenario.ONE_SIDED, elements))
        assert "no_signaling" in report.checks_failed()
        assert "normalization" not in report.checks_failed()

    def test_negative_element_flagged(self):
        asm = gghz_assemblage_1sdi(0.3)
        elements = dict(asm.elements)
        elements[(0, 0)] = elements[(0, 0)] - 0.05 * np.eye(4)
        report = validate(Assemblage(Scenario.ONE_SIDED, elements))
        assert "psd" in report.checks_failed()

    def test_two_sided_marginal_no_signaling(self):
        # swap one y-setting block between different-theta assemblages:
        # Bob's marginal then depends on Alice's setting
        asm = gghz_assemblage_2sdi(0.3)
        other = gghz_assemblage_2sdi(0.6)
        elements = dict(asm.elements)
        for a in (0, 1):
            for b in (0, 1):
                elements[(a, b, 0, 0)] = other.element(a, b, 0, 0)
        report = validate(Assemblage(Scenario.TWO_SIDED, elements))
        assert "no_signaling" in report.checks_failed()

    def test_report_deviation_magnitude(self):
        asm = gghz_assemblage_1sdi(0.3)
        elements = dict(asm.elements)
        elements[(0, 0)] = elements[(0, 0)] * 1.1
        report = validate(Assemblage(Scenario.ONE_SIDED, elements))
        # trace grew by 0.1 * 1/2
        assert report.max_deviation("normalization") == pytest.approx(0.05, rel=1e-6)

    def test_require_valid_raises(self):
        from steerdist.assemblage import require_valid
        from steerdist.errors import InvariantViolationError

        asm = gghz_assemblage_1sdi(0.3)
        elements = dict(asm.elements)
        elements[(0, 0)] = elements[(0, 0)] * 1.1
        with pytest.raises(InvariantViolationError):
            require_valid(Assemblage(Scenario.ONE_SIDED, elements))
        assert require_valid(asm) is asm


class TestConstruction:
    def test_missing_key_rejected(self):
        asm = gghz_assemblage_1sdi(0.3)
        elements = dict(asm.elements)
        del elements[(0, 0)]
        with pytest.raises(ScenarioMismatchError):
            Assemblage(Scenario.ONE_SIDED, elements)

    def test_wrong_dim_rejected(self):
        asm = gghz_assemblage_1sdi(0.3)
        elements = {k: np.eye(2, dtype=complex) for k in asm.elements}
        with pytest.raises(DimMismatchError):
            Assemblage(Scenario.ONE_SIDED, elements)

    def test_convex_mix_scenario_guard(self):
        with pytest.raises(ScenarioMismatchError):
            convex_mix([0.5, 0.5], [gghz_assemblage_1sdi(0.3), gghz_assemblage_2sdi(0.3)])

    def test_convex_mix_weights(self):
        a = gghz_assemblage_1sdi(0.2)
        b = gghz_assemblage_1sdi(0.7)
        mixed = convex_mix([0.25, 0.75], [a, b])
        expect = 0.25 * a.element(0, 0) + 0.75 * b.element(0, 0)
        assert np.max(np.abs(mixed.element(0, 0) - expect)) < 1e-15


class TestJsonInterchange:
    def test_round_trip_one_sided(self, tmp_path):
        asm = gghz_assemblage_1sdi(0.3)
        path = tmp_path / "asm.json"
        asm.save(path)
        back = Assemblage.load(path)
        assert back.scenario is Scenario.ONE_SIDED
        assert back.theta == pytest.approx(0.3)
        assert max_element_diff(asm, back) == 0.0

    def test_round_trip_two_sided(self, tmp_path):
        asm = gghz_assemblage_2sdi(math.pi / 8)
        path = tmp_path / "asm.json"
        asm.save(path)
        assert max_element_diff(asm, Assemblage.load(path)) == 0.0

    def test_key_format(self):
        doc = gghz_assemblage_1sdi(0.3).to_json_dict()
        assert doc["scenario"] == "1sdi"
        assert "0|2" in doc["elements"]
        doc2 = gghz_assemblage_2sdi(0.3).to_json_dict()
        assert "01|22" in doc2["elements"]

    def test_entries_are_re_im_pairs(self):
        doc = gghz_assemblage_1sdi(0.3).to_json_dict()
        cell = doc["elements"]["0|0"][0][3]
        assert cell == [pytest.approx(math.cos(0.3) * math.sin(0.3) / 2), 0.0]

    def test_theta_optional(self):
        asm = gghz_assemblage_1sdi(0.3)
        doc = asm.to_json_dict()
        del doc["theta"]
        back = Assemblage.from_json_dict(doc)
        assert back.theta is None

    def test_json_serializable(self):
        json.dumps(gghz_assemblage_2sdi(0.1).to_json_dict())

    @pytest.mark.parametrize("path", [None, 2.5, ["asm.json"]])
    def test_non_path_is_refused(self, path):
        asm = gghz_assemblage_1sdi(0.3)
        with pytest.raises(BadArgumentError):
            asm.save(path)
        with pytest.raises(BadArgumentError):
            Assemblage.load(path)

    def test_file_descriptors_are_refused_and_left_open(self):
        # open() takes an int or a bool as a file descriptor and closes it; run
        # in a child so that a closed stdout cannot take pytest's with it
        script = (
            "from steerdist.assemblage import Assemblage, gghz_assemblage_1sdi\n"
            "from steerdist.errors import BadArgumentError\n"
            "refused = 0\n"
            "for call in (lambda: gghz_assemblage_1sdi(0.3).save(1),\n"
            "             lambda: Assemblage.load(True), lambda: Assemblage.load(0)):\n"
            "    try:\n"
            "        call()\n"
            "    except BadArgumentError:\n"
            "        refused += 1\n"
            "print('refused', refused)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, stdin=subprocess.DEVNULL)
        assert (proc.returncode, proc.stdout) == (0, "refused 3\n"), proc.stderr

    def test_ghz_target_helper(self):
        assert ghz_assemblage(Scenario.ONE_SIDED).theta == pytest.approx(math.pi / 4)
        assert ghz_assemblage("2sdi").scenario is Scenario.TWO_SIDED


def test_setting_groups_cover_grid():
    for scenario in Scenario:
        keys = element_keys(scenario)
        grouped = [k for g in setting_groups(scenario) for k in g]
        assert sorted(grouped) == sorted(keys)


@pytest.mark.parametrize("key", [(9,), (0, 3), (0, 0, 0), ([0], 0), ()])
def test_element_off_the_grid_is_refused(key):
    with pytest.raises(BadArgumentError):
        gghz_assemblage_1sdi(0.3).element(*key)
