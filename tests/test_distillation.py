import math

import numpy as np
import pytest

from steerdist import distillation
from steerdist.assemblage import (
    Scenario,
    gghz_assemblage_1sdi,
    gghz_assemblage_2sdi,
    ghz_assemblage,
    setting_groups,
    validate,
)
from steerdist.distillation import (
    DistillationConfig,
    apply_filter,
    asymptotic_kappa,
    distill,
    distilled_assemblage,
    kappa_prime_ncopy_fidelity,
    make_filter,
    optimize_kappa,
    two_copy_fidelity_closed_form,
    two_copy_optimal_kappa,
)
from steerdist.errors import (
    KappaOutOfRangeError,
    NonFiniteObjectiveError,
    ScenarioMismatchError,
    ThetaOutOfRangeError,
    ZeroSuccessProbabilityError,
)
from steerdist.metrics import assemblage_fidelity, root_fidelity

from conftest import max_element_diff

PI4 = math.pi / 4
PI8 = math.pi / 8


def per_setting_sums(asm, target):
    return [
        sum(root_fidelity(asm.elements[k], target.elements[k]) for k in group)
        for group in setting_groups(asm.scenario)
    ]


class TestMakeFilter:
    def test_identity_filter(self):
        f = make_filter(1.0)
        assert np.allclose(f.c0, np.eye(2))
        assert np.max(np.abs(f.c1)) == 0.0

    def test_full_filter(self):
        f = make_filter(0.0)
        assert np.allclose(f.c0, np.diag([0.0, 1.0]))
        assert np.allclose(f.c1, np.diag([1.0, 0.0]))

    def test_half(self):
        f = make_filter(0.5)
        assert f.c1[0, 0] == pytest.approx(math.sqrt(3) / 2)

    @pytest.mark.parametrize("kappa", np.linspace(0.0, 1.0, 11))
    def test_povm_completeness(self, kappa):
        f = make_filter(kappa)
        total = f.c0.conj().T @ f.c0 + f.c1.conj().T @ f.c1
        assert np.max(np.abs(total - np.eye(2))) < 1e-12
        for op in (f.c0, f.c1):
            effect = op.conj().T @ op
            assert np.min(np.linalg.eigvalsh(effect)) > -1e-12

    @pytest.mark.parametrize("kappa", [-0.01, 1.01, 2.0])
    def test_out_of_range(self, kappa):
        with pytest.raises(KappaOutOfRangeError):
            make_filter(kappa)


class TestApplyFilter:
    @pytest.mark.parametrize("theta", [0.1, PI8, 0.5, PI4])
    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.7, 1.0])
    def test_success_probability_formula(self, theta, kappa):
        p, _ = apply_filter(gghz_assemblage_1sdi(theta), make_filter(kappa))
        expect = kappa**2 * math.cos(theta) ** 2 + math.sin(theta) ** 2
        assert p == pytest.approx(expect, abs=1e-12)

    def test_identity_filter_is_noop(self):
        asm = gghz_assemblage_1sdi(0.4)
        p, filtered = apply_filter(asm, make_filter(1.0))
        assert p == pytest.approx(1.0, abs=1e-12)
        assert max_element_diff(filtered, asm) < 1e-12

    @pytest.mark.parametrize("theta", [0.1, 0.3, 0.6])
    def test_tan_theta_reaches_target(self, theta):
        # the filter that exactly balances the amplitudes maps GGHZ onto GHZ
        p, filtered = apply_filter(gghz_assemblage_1sdi(theta), make_filter(math.tan(theta)))
        assert p == pytest.approx(2 * math.sin(theta) ** 2, abs=1e-12)
        assert max_element_diff(filtered, ghz_assemblage(Scenario.ONE_SIDED)) < 1e-10

    def test_two_sided_action(self):
        p, filtered = apply_filter(gghz_assemblage_2sdi(0.3), make_filter(math.tan(0.3)))
        assert max_element_diff(filtered, ghz_assemblage(Scenario.TWO_SIDED)) < 1e-10
        assert p == pytest.approx(2 * math.sin(0.3) ** 2, abs=1e-12)

    def test_filtered_is_valid(self):
        _, filtered = apply_filter(gghz_assemblage_1sdi(0.25), make_filter(0.4))
        assert validate(filtered).ok

    def test_zero_success(self):
        with pytest.raises(ZeroSuccessProbabilityError):
            apply_filter(gghz_assemblage_1sdi(0.0), make_filter(0.0))

    def test_accepts_bare_kappa(self):
        p, _ = apply_filter(gghz_assemblage_1sdi(0.3), 0.5)
        assert p == pytest.approx(0.25 * math.cos(0.3) ** 2 + math.sin(0.3) ** 2)


class TestDistilledAssemblage:
    def test_identity_filter_returns_input(self):
        cfg = DistillationConfig(theta=PI8, n_copies=2, kappa=1.0)
        assert max_element_diff(distilled_assemblage(cfg), gghz_assemblage_1sdi(PI8)) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_ghz_point_with_optimal_filter_stays_ghz(self, n):
        # at theta = pi/4 the optimal filter is the identity, so the output
        # is the GHZ assemblage for any copy count
        kappa = two_copy_optimal_kappa(PI4)
        assert kappa == pytest.approx(1.0, abs=1e-12)
        cfg = DistillationConfig(theta=PI4, n_copies=n, kappa=kappa)
        assert max_element_diff(distilled_assemblage(cfg), ghz_assemblage(Scenario.ONE_SIDED)) < 1e-12

    def test_two_copy_explicit_matrices(self):
        # entries of the two-copy distilled elements at (pi/8, kappa*):
        # A = k^2 c^2 s^2 + c^4, B = c s (k + c^2 - k^2 c^2),
        # C = s^2 (1 + c^2 - k^2 c^2), laid out on the |00>,|11> block
        t = PI8
        k = two_copy_optimal_kappa(t)
        c, s = math.cos(t), math.sin(t)
        a_val = k**2 * c**2 * s**2 + c**4
        b_val = c * s * (k + c**2 - k**2 * c**2)
        c_val = s**2 * (1 + c**2 - k**2 * c**2)
        dist = distilled_assemblage(DistillationConfig(theta=t, n_copies=2, kappa=k))

        m = dist.element(0, 0)
        assert m[0, 0].real == pytest.approx(a_val / 2, abs=1e-12)
        assert m[0, 0].real == pytest.approx(0.3857233047033631, abs=1e-12)
        assert m[0, 3].real == pytest.approx(b_val / 2, abs=1e-12)
        assert m[3, 3].real == pytest.approx(c_val / 2, abs=1e-12)
        assert np.max(np.abs(m[1:3, :])) == 0.0

        m = dist.element(1, 0)
        assert m[0, 3].real == pytest.approx(-b_val / 2, abs=1e-12)

        # Y-setting elements carry the phase on the off-diagonal
        m = dist.element(0, 1)
        assert m[0, 3] == pytest.approx(1j * b_val / 2, abs=1e-12)
        assert m[3, 0] == pytest.approx(-1j * b_val / 2, abs=1e-12)

        m = dist.element(0, 2)
        assert np.max(np.abs(m - np.diag([a_val, 0, 0, 0]))) < 1e-12
        m = dist.element(1, 2)
        assert np.max(np.abs(m - np.diag([0, 0, 0, c_val]))) < 1e-12

    @pytest.mark.parametrize("theta", [0.1, 0.4])
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_distilled_is_valid(self, theta, n):
        cfg = DistillationConfig(theta=theta, n_copies=n, kappa=0.6)
        assert validate(distilled_assemblage(cfg)).ok
        cfg2 = DistillationConfig(theta=theta, n_copies=n, kappa=0.6, scenario=Scenario.TWO_SIDED)
        assert validate(distilled_assemblage(cfg2)).ok

    def test_failure_certain_input_passes_through(self):
        # theta = 0, kappa = 0: success probability is exactly zero, the
        # all-fail branch keeps the input
        out = distill(gghz_assemblage_1sdi(0.0), 0.0, 5)
        assert max_element_diff(out, gghz_assemblage_1sdi(0.0)) == 0.0

    def test_config_validation(self):
        with pytest.raises(ThetaOutOfRangeError):
            DistillationConfig(theta=1.0, n_copies=2, kappa=0.5)
        with pytest.raises(KappaOutOfRangeError):
            DistillationConfig(theta=0.3, n_copies=2, kappa=1.5)
        with pytest.raises(ValueError):
            DistillationConfig(theta=0.3, n_copies=1, kappa=0.5)


class TestClosedFormOptima:
    def test_two_copy_optimal_kappa(self):
        assert two_copy_optimal_kappa(PI4) == pytest.approx(1.0, abs=1e-12)
        assert two_copy_optimal_kappa(0.0) == pytest.approx(0.5, abs=1e-12)
        assert two_copy_optimal_kappa(PI8) == pytest.approx(0.585786437626905, abs=1e-9)

    def test_two_copy_kappa_range(self):
        for theta in np.linspace(0.0, PI4, 30):
            k = two_copy_optimal_kappa(theta)
            assert 0.5 - 1e-12 <= k <= 1.0 + 1e-12

    def test_asymptotic_kappa(self):
        assert asymptotic_kappa(PI4) == pytest.approx(1.0, abs=1e-12)
        assert asymptotic_kappa(0.0) == 0.0
        assert asymptotic_kappa(PI8) == pytest.approx(0.41421356237309503, abs=1e-12)

    def test_two_copy_fidelity_values(self):
        assert two_copy_fidelity_closed_form(PI4, 1.0) == pytest.approx(1.0, abs=1e-12)
        f = two_copy_fidelity_closed_form(PI8, two_copy_optimal_kappa(PI8))
        assert f == pytest.approx(0.9514883529975081, abs=1e-9)
        # at kappa = tan(theta) the expression collapses to the asymptotic-filter form
        f2 = two_copy_fidelity_closed_form(0.18, math.tan(0.18))
        assert f2 == pytest.approx(0.8348040226028507, abs=1e-9)

    def test_two_copy_fidelity_at_optimum_matches_maximum_form(self):
        for theta in np.linspace(0.01, PI4, 15):
            c = math.cos(theta)
            expect = math.sqrt(0.5 + c * math.sin(theta) * (c**2 + 1 / (4 * c**2)))
            got = two_copy_fidelity_closed_form(theta, two_copy_optimal_kappa(theta))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_ncopy_fidelity_values(self):
        assert kappa_prime_ncopy_fidelity(PI4, 7) == pytest.approx(1.0, abs=1e-12)
        assert kappa_prime_ncopy_fidelity(PI8, 2) == pytest.approx(0.9468086445563995, abs=1e-9)
        assert kappa_prime_ncopy_fidelity(PI8, 10) == pytest.approx(0.9967587035425979, abs=1e-9)

    def test_ncopy_reduces_to_two_copy(self):
        for theta in np.linspace(0.0, PI4, 10):
            assert kappa_prime_ncopy_fidelity(theta, 2) == pytest.approx(
                two_copy_fidelity_closed_form(theta, math.tan(theta)), abs=1e-12
            )

    def test_ncopy_approaches_one(self):
        assert kappa_prime_ncopy_fidelity(0.2, 500) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError):
            kappa_prime_ncopy_fidelity(0.2, 1)

    def test_range_errors(self):
        with pytest.raises(ThetaOutOfRangeError):
            two_copy_optimal_kappa(1.2)
        with pytest.raises(ThetaOutOfRangeError):
            asymptotic_kappa(-0.2)
        with pytest.raises(KappaOutOfRangeError):
            two_copy_fidelity_closed_form(0.3, 1.4)


class TestPipelineMatchesClosedForms:
    @pytest.mark.parametrize("theta", np.linspace(0.0, PI4, 8))
    def test_two_copy_grid(self, theta):
        target = ghz_assemblage(Scenario.ONE_SIDED)
        for kappa in np.linspace(0.0, 1.0, 8):
            dist = distill(gghz_assemblage_1sdi(theta), kappa, 2)
            f = assemblage_fidelity(dist, target)
            assert f == pytest.approx(two_copy_fidelity_closed_form(theta, kappa), abs=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    def test_ncopy_at_asymptotic_kappa(self, n):
        target = ghz_assemblage(Scenario.ONE_SIDED)
        for theta in np.linspace(0.02, PI4, 8):
            dist = distill(gghz_assemblage_1sdi(theta), math.tan(theta), n)
            f = assemblage_fidelity(dist, target)
            assert f == pytest.approx(kappa_prime_ncopy_fidelity(theta, n), abs=1e-10)

    def test_minimum_attained_off_the_z_setting(self):
        # the Z-setting fidelity sum always dominates the X/Y ones, so the
        # minimum sits on the X and Y settings (which agree with each other)
        target = ghz_assemblage(Scenario.ONE_SIDED)
        for theta in np.linspace(0.02, PI4, 6):
            for kappa in np.linspace(0.0, 1.0, 6):
                sums = per_setting_sums(distill(gghz_assemblage_1sdi(theta), kappa, 2), target)
                assert sums[0] <= sums[2] + 1e-12
                assert sums[0] == pytest.approx(sums[1], abs=1e-12)


class TestOptimizeKappa:
    def test_two_copy_matches_closed_form_on_grid(self):
        for theta in np.linspace(0.02, PI4, 20):
            res = optimize_kappa(theta, 2)
            assert abs(res.kappa_star - two_copy_optimal_kappa(theta)) < 1e-6
            assert res.bracket_width <= 1e-8
            assert 0.0 <= res.kappa_star <= 1.0

    def test_f_star_consistency(self):
        res = optimize_kappa(PI8, 2)
        dist = distill(gghz_assemblage_1sdi(PI8), res.kappa_star, 2)
        f = assemblage_fidelity(dist, ghz_assemblage(Scenario.ONE_SIDED))
        assert abs(res.f_star - f) < 1e-9
        assert res.f_star == pytest.approx(0.9514883529975081, abs=1e-8)

    def test_ghz_point_saturates(self):
        res = optimize_kappa(PI4, 2)
        assert res.kappa_star == pytest.approx(1.0, abs=1e-7)
        assert res.f_star == pytest.approx(1.0, abs=1e-10)
        res5 = optimize_kappa(PI4, 5)
        assert res5.f_star == pytest.approx(1.0, abs=1e-10)

    def test_large_n_approaches_asymptotic_kappa(self):
        for theta in [0.3, 0.5, 0.7]:
            res = optimize_kappa(theta, 100)
            assert abs(res.kappa_star - math.tan(theta)) < 0.05

    def test_dominance_over_asymptotic_filter(self):
        # the optimizer can always do at least as well as kappa = tan(theta)
        for n in (2, 5, 10, 50):
            for theta in np.linspace(0.05, PI4, 6):
                res = optimize_kappa(theta, n)
                assert res.f_star >= kappa_prime_ncopy_fidelity(theta, n) - 1e-9

    def test_feasibility_floor(self):
        # kappa = 1 (no filtering) is always feasible
        target = ghz_assemblage(Scenario.ONE_SIDED)
        for theta in np.linspace(0.05, PI4, 6):
            res = optimize_kappa(theta, 2)
            floor = assemblage_fidelity(gghz_assemblage_1sdi(theta), target)
            assert res.f_star >= floor - 1e-9

    def test_accepts_assemblage_input(self):
        res = optimize_kappa(gghz_assemblage_1sdi(0.3), 2)
        assert abs(res.kappa_star - two_copy_optimal_kappa(0.3)) < 1e-6

    def test_ghz_input_needs_no_filtering(self):
        res = optimize_kappa(ghz_assemblage(Scenario.ONE_SIDED), 2)
        assert res.kappa_star == 1.0
        assert res.f_star == pytest.approx(1.0, abs=1e-10)

    def test_two_sided_route(self):
        res = optimize_kappa(0.3, 2, scenario=Scenario.TWO_SIDED)
        assert abs(res.kappa_star - two_copy_optimal_kappa(0.3)) < 1e-6

    def test_evaluation_accounting(self):
        res = optimize_kappa(0.3, 2)
        assert res.evaluations >= 1001

    def test_nan_in_refinement_scan_raises(self, monkeypatch):
        # the first scan is clean; one NaN in the next (finer) scan must stop
        # the search instead of being compared away
        real = distillation.fidelity_terms
        calls = []

        def nan_on_second_call(stacks, roots):
            f = real(stacks, roots)
            calls.append(len(f))
            if len(calls) == 2:
                f[len(f) // 2, 0] = np.nan
            return f

        monkeypatch.setattr(distillation, "fidelity_terms", nan_on_second_call)
        with pytest.raises(NonFiniteObjectiveError):
            optimize_kappa(0.3, 2)
        assert calls[0] == distillation.PRE_SCAN_POINTS and len(calls) == 2

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatchError):
            optimize_kappa(gghz_assemblage_1sdi(0.3), 2, scenario=Scenario.TWO_SIDED)
        with pytest.raises(ScenarioMismatchError):
            optimize_kappa(0.3, 2, target=ghz_assemblage(Scenario.TWO_SIDED))


class TestScenarioEquality:
    @pytest.mark.parametrize("theta", np.linspace(0.02, PI4, 6))
    def test_two_copy_fidelities_agree(self, theta):
        t1 = ghz_assemblage(Scenario.ONE_SIDED)
        t2 = ghz_assemblage(Scenario.TWO_SIDED)
        for kappa in np.linspace(0.0, 1.0, 6):
            f1 = assemblage_fidelity(distill(gghz_assemblage_1sdi(theta), kappa, 2), t1)
            f2 = assemblage_fidelity(distill(gghz_assemblage_2sdi(theta), kappa, 2), t2)
            assert abs(f1 - f2) < 1e-10


class TestUnimodality:
    @pytest.mark.parametrize("theta", [0.05, 0.2, 0.5, 0.78])
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_objective_unimodal_on_dense_grid(self, theta, n):
        target = ghz_assemblage(Scenario.ONE_SIDED)
        base = gghz_assemblage_1sdi(theta)
        kappas = np.linspace(0.0, 1.0, 401)
        values = np.array(
            [assemblage_fidelity(distill(base, k, n), target) for k in kappas]
        )
        diffs = np.diff(values)
        signs = np.sign(diffs[np.abs(diffs) > 1e-13])
        changes = int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0
        assert changes <= 1
