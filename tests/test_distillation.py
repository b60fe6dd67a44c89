import functools
import math

import numpy as np
import pytest

from steerdist import cli, distillation, metrics
from steerdist.assemblage import (
    Scenario,
    convex_mix,
    gghz_assemblage,
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

from conftest import max_element_diff, white_noise

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
        real = distillation._branch_weights
        calls = []

        def nan_on_second_call(p, n):
            p_fail, p_succ, w_succ = real(p, n)
            calls.append(len(p))
            if len(calls) == 2:
                w_succ[len(w_succ) // 2] = np.nan
            return p_fail, p_succ, w_succ

        monkeypatch.setattr(distillation, "_branch_weights", nan_on_second_call)
        with pytest.raises(NonFiniteObjectiveError):
            optimize_kappa(0.3, 2)
        assert calls[0] == distillation.PRE_SCAN_POINTS and len(calls) == 2

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatchError):
            optimize_kappa(gghz_assemblage_1sdi(0.3), 2, scenario=Scenario.TWO_SIDED)
        with pytest.raises(ScenarioMismatchError):
            optimize_kappa(0.3, 2, target=ghz_assemblage(Scenario.TWO_SIDED))

    @staticmethod
    def _block_shapes(monkeypatch, *args, **kwargs):
        real = distillation._root_sum
        shapes = []

        def spy(blocks):
            shapes.append(blocks.shape[-2:])
            return real(blocks)

        with monkeypatch.context() as scans:
            scans.setattr(distillation, "_root_sum", spy)
            optimize_kappa(*args, **kwargs)
        return shapes

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_ghz_target_builds_no_stack_and_factors_once(self, monkeypatch, scenario):
        def no_stacks(*args):
            raise AssertionError("a rank-one target's scan built a distilled stack")

        factorings = []
        real = metrics._psd_factors

        def counted(m):
            factorings.append(m.shape)
            return real(m)

        monkeypatch.setattr(metrics, "_psd_factors", counted)
        metrics._target_factor.cache_clear()
        with monkeypatch.context() as scans:
            scans.setattr(distillation, "_distilled", no_stacks)
            for theta in (0.3, 0.5):
                optimize_kappa(theta, 3, scenario=scenario)
            optimize_kappa(gghz_assemblage(0.2, scenario), 4)
        # every other scorer of the GHZ target reads the same cached factor
        assemblage_fidelity(gghz_assemblage(0.3, scenario), ghz_assemblage(scenario))
        list(cli.sweep_rows(0.1, 0.7, 5, 3, "fixed", 0.6, scenario.value))
        cli.threshold_theta("optimal", 3, scenario.value)
        # the optimal threshold takes the 1sDI optimum, so it factors that target too
        targets = {ghz_assemblage(sc).stack.shape for sc in (scenario, Scenario.ONE_SIDED)}
        assert sorted(factorings) == sorted(targets)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_target_rank_sets_the_scored_block_size(self, monkeypatch, scenario):
        # one objective for every target: a full-rank target is scored in
        # d x d blocks, the rank-one GHZ target in 1 x 1 blocks
        d = scenario.element_dim
        target = convex_mix([0.9, 0.1], [ghz_assemblage(scenario), white_noise(scenario)])
        full = self._block_shapes(monkeypatch, 0.3, 3, target=target, scenario=scenario)
        ghz = self._block_shapes(monkeypatch, 0.3, 3, scenario=scenario)
        assert len(full) > 1 and set(full) == {(d, d)}
        assert len(ghz) > 1 and set(ghz) == {(1, 1)}


# optimize_kappa output recorded once a rank-one target's scans scored each
# kappa from the coefficients a, b, c, P0 and P1, exact ties within a scan
# went to their middle and libm evaluated the N-copy weights (which moved
# 1sdi-0.3-5 along its argmax plateau): kappa_star, f_star and bracket_width
# as float.hex, and evaluations.  They hold with numpy's AVX-512 dispatch off.
PINNED_OPTIMA = {
    ("1sdi", "0", 2): ("0x1.0000000000000p+0", "0x1.6a09e667f3bcdp-1", 1082, "0x1.0624dd4000000p-27"),
    ("1sdi", "0", 5): ("0x1.0000000000000p+0", "0x1.6a09e667f3bcdp-1", 1082, "0x1.0624dd4000000p-27"),
    ("1sdi", "0", 100): ("0x1.0000000000000p+0", "0x1.6a09e667f3bcdp-1", 1082, "0x1.0624dd2000000p-27"),
    ("1sdi", "0.1", 2): ("0x1.0293c10624dd3p-1", "0x1.9443246bb9023p-1", 1082, "0x1.0624dd0000000p-27"),
    ("1sdi", "0.1", 5): ("0x1.8079b3f7ced91p-2", "0x1.a35f383af75c0p-1", 1082, "0x1.0624dd4000000p-27"),
    ("1sdi", "0.1", 100): ("0x1.fe2d0d4fdf3b6p-4", "0x1.f516526d1f0d9p-1", 1082, "0x1.0624dd2800000p-27"),
    ("1sdi", "0.3", 2): ("0x1.187f11eb851ebp-1", "0x1.d3db611fbd4b8p-1", 1082, "0x1.0624dd0000000p-27"),
    ("1sdi", "0.3", 5): ("0x1.bac0533333333p-2", "0x1.e9d903b271aeep-1", 1082, "0x1.0624dd4000000p-27"),
    ("1sdi", "0.3", 100): ("0x1.3cc2a56041894p-2", "0x1.fffffffac91dap-1", 1082, "0x1.0624dd2000000p-27"),
    ("1sdi", "0.5", 2): ("0x1.4c66fbe76c8b4p-1", "0x1.f5d04e0e5d965p-1", 1082, "0x1.0624dd0000000p-27"),
    ("1sdi", "0.5", 5): ("0x1.25558b020c49dp-1", "0x1.fe68d1b06d408p-1", 1082, "0x1.0624dd4000000p-27"),
    ("1sdi", "0.5", 100): ("0x1.17b4f5c28f5c2p-1", "0x1.0000000000000p+0", 1082, "0x1.0624dd4000000p-27"),
    ("1sdi", "pi/4", 2): ("0x1.0000000000000p+0", "0x1.fffffffffffffp-1", 1055, "0x1.0624dd4000000p-27"),
    ("1sdi", "pi/4", 5): ("0x1.0000000000000p+0", "0x1.fffffffffffffp-1", 1055, "0x1.0624dd4000000p-27"),
    ("1sdi", "pi/4", 100): ("0x1.0000000000000p+0", "0x1.fffffffffffffp-1", 1055, "0x1.0624dd4000000p-27"),
    ("2sdi", "0", 2): ("0x1.0000000000000p+0", "0x1.6a09e667f3bcdp-1", 1082, "0x1.0624dd4000000p-27"),
    ("2sdi", "0", 5): ("0x1.0000000000000p+0", "0x1.6a09e667f3bcdp-1", 1082, "0x1.0624dd4000000p-27"),
    ("2sdi", "0", 100): ("0x1.0000000000000p+0", "0x1.6a09e667f3bcdp-1", 1082, "0x1.0624dd4000000p-27"),
    ("2sdi", "0.1", 2): ("0x1.0293c10624dd3p-1", "0x1.9443246bb9022p-1", 1082, "0x1.0624dd0000000p-27"),
    ("2sdi", "0.1", 5): ("0x1.8079b3f7ced91p-2", "0x1.a35f383af75c0p-1", 1082, "0x1.0624dd4000000p-27"),
    ("2sdi", "0.1", 100): ("0x1.fe2d0d4fdf3b6p-4", "0x1.f516526d1f0d8p-1", 1082, "0x1.0624dd2800000p-27"),
    ("2sdi", "0.3", 2): ("0x1.187f116872b02p-1", "0x1.d3db611fbd4b7p-1", 1082, "0x1.0624dd4000000p-27"),
    ("2sdi", "0.3", 5): ("0x1.bac052f1a9fbep-2", "0x1.e9d903b271aeep-1", 1082, "0x1.0624dd4000000p-27"),
    ("2sdi", "0.3", 100): ("0x1.3cc2a5a1cac08p-2", "0x1.fffffffac91d9p-1", 1082, "0x1.0624dd2000000p-27"),
    ("2sdi", "0.5", 2): ("0x1.4c66fb851eb84p-1", "0x1.f5d04e0e5d964p-1", 1082, "0x1.0624dd4000000p-27"),
    ("2sdi", "0.5", 5): ("0x1.25558b4395812p-1", "0x1.fe68d1b06d407p-1", 1082, "0x1.0624dd4000000p-27"),
    ("2sdi", "0.5", 100): ("0x1.17b4f5e353f7dp-1", "0x1.0000000000000p+0", 1082, "0x1.0624dd4000000p-27"),
    ("2sdi", "pi/4", 2): ("0x1.0000000000000p+0", "0x1.fffffffffffffp-1", 1055, "0x1.0624dd4000000p-27"),
    ("2sdi", "pi/4", 5): ("0x1.0000000000000p+0", "0x1.fffffffffffffp-1", 1055, "0x1.0624dd4000000p-27"),
    ("2sdi", "pi/4", 100): ("0x1.0000000000000p+0", "0x1.fffffffffffffp-1", 1055, "0x1.0624dd4000000p-27"),
    ("1sdi", "ghz", 3): ("0x1.0000000000000p+0", "0x1.fffffffffffffp-1", 1055, "0x1.0624dd4000000p-27"),
    ("2sdi", "ghz", 3): ("0x1.0000000000000p+0", "0x1.fffffffffffffp-1", 1055, "0x1.0624dd4000000p-27"),
    ("2sdi", "noisy", 4): ("0x1.75ffde353f7cfp-2", "0x1.c3be98d68765bp-1", 1082, "0x1.0624dd4000000p-27"),
}
PIN_THETAS = {"0": 0.0, "0.1": 0.1, "0.3": 0.3, "0.5": 0.5, "pi/4": PI4}


@pytest.mark.parametrize("scenario, source, n", sorted(PINNED_OPTIMA))
def test_optimizer_output_is_pinned(scenario, source, n):
    scenario = Scenario(scenario)
    if source == "ghz":
        res = optimize_kappa(ghz_assemblage(scenario), n)
    elif source == "noisy":
        noisy = convex_mix([0.85, 0.15], [gghz_assemblage(0.3, scenario), white_noise(scenario)])
        res = optimize_kappa(noisy, n)
    else:
        res = optimize_kappa(PIN_THETAS[source], n, scenario=scenario)
    got = (res.kappa_star.hex(), res.f_star.hex(), res.evaluations, res.bracket_width.hex())
    assert got == PINNED_OPTIMA[scenario.value, source, n]


# kappa* and F* = max over kappa of min(f_X, f_Z), the steerdist-free GGHZ
# closed form of steerbench/oracles.py::gghz_point, to 40 digits.  They were
# made once by a golden section on [0, 1] down to a width of 1e-60, in mpmath
# at 150 digits, with theta the double that the test passes; mpmath is not a
# test dependency, so only the results are kept.  Both scenarios share them.
HIGH_PRECISION_OPTIMA = {
    (0.05, 3): (0.4413888939919712738941778199458171740166,
                0.7562595370953392945541829377611114290211),
    (0.05, 5): (0.3705535136310280810372801703438355393517,
                0.7663361552350987421621842031042994284855),
    (0.05, 20): (0.2160991600436518355730605322103244435608,
                 0.8090077383884172977266151622787315112335),
    (0.05, 100): (0.1088221890843406459106758667841663205385,
                  0.8946797142215172920380769889606229702084),
    (0.1, 3): (0.4456323987697619534312093459821506554254,
               0.8012006183691294711267775454233038448109),
    (0.1, 5): (0.3754642585437344158652627184075831307038,
               0.8190858432750969642986500213036787514819),
    (0.1, 20): (0.2237543088758929154651078279669947449539,
                0.8876810842580768062457916047805467961536),
    (0.1, 100): (0.1245546843231749864556909078045523614141,
                 0.9786859281735144025825614737788610696646),
    (0.2, 3): (0.4631020547389418225237240188939697844746,
               0.8769595072074293307903613059743964445507),
    (0.2, 5): (0.3958196746842959078351935826529038131367,
               0.9026998978401291778280957511662666597545),
    (0.2, 20): (0.2573196555818841425750627328133491622667,
                0.9742765732376063992468467803388667667531),
    (0.2, 100): (0.2030134891742617381301687430209188795571,
                 0.9999557942004726797029132728396815286119),
    (0.3, 3): (0.4940638177122483927942856924887705654279,
               0.9327819825006289883418671716195994022168),
    (0.3, 5): (0.4323742832359859073888090104677781334177,
               0.9567338137938726791428990402873555754905),
    (0.3, 20): (0.3228606665566225878329572030516092658511,
                0.9974049053620616431862071032759013484598),
    (0.3, 100): (0.3093362653463162839071088762059409510611,
                 0.9999999993929648091373783384784011068627),
    (0.5, 3): (0.6106716194741282228304999953043760118566,
               0.9895183130032682952414441554815743671425),
    (0.5, 5): (0.5729182555932795702122801729380387201178,
               0.9968934562554076000758243035892679826068),
    (0.5, 20): (0.5463141342039496420296253967981018212705,
                0.9999996703344135041454231597358231826376),
    (0.5, 100): (0.5463024898437905132551794905578101713130,
                 0.9999999999999999999999999998653848159936),
    (0.7, 3): (0.8458066906103513607793222048262131427094,
               0.9998970501771718426701063785032296373802),
    (0.7, 5): (0.8424877652213724991013214122193729426956,
               0.9999969712287551856336390005768498938876),
    (0.7, 20): (0.8422883804630820808470422699585224821272,
                0.9999999999999999913354588356627030534808),
    (0.7, 100): (0.8422883804630793722133176426063604267308,
                 1.000000000000000000000000000000000000000),
}


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("theta, n", sorted(HIGH_PRECISION_OPTIMA))
def test_optimizer_matches_high_precision_reference(theta, n, scenario):
    kappa_ref, f_ref = HIGH_PRECISION_OPTIMA[theta, n]
    res = optimize_kappa(theta, n, scenario=scenario)
    assert abs(res.kappa_star - kappa_ref) <= 5e-8
    assert res.f_star >= f_ref - 4.4e-16

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


@functools.cache
def _gghz_optimum(theta, n, scenario):
    return optimize_kappa(theta, n, scenario=scenario)


FINITE_N_GRID = [(theta, n) for theta in (0.05, 0.2, 0.4, 0.6, PI4) for n in (2, 3, 6, 20)]


class TestFiniteNClaims:
    @pytest.mark.parametrize("theta, n", FINITE_N_GRID)
    def test_one_optimal_filter_for_both_scenarios(self, theta, n):
        # sweep --filter optimal fills its 2sDI columns with the 1sDI kappa*
        k1 = _gghz_optimum(theta, n, Scenario.ONE_SIDED).kappa_star
        k2 = _gghz_optimum(theta, n, Scenario.TWO_SIDED).kappa_star
        assert abs(k1 - k2) <= 1e-7

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("theta, n", FINITE_N_GRID)
    def test_optimal_filter_dominates_none_and_asymptotic(self, theta, n, scenario):
        source = gghz_assemblage(theta, scenario)
        target = ghz_assemblage(scenario)
        f_none = assemblage_fidelity(source, target)
        f_asym = assemblage_fidelity(distill(source, asymptotic_kappa(theta), n), target)
        assert _gghz_optimum(theta, n, scenario).f_star >= max(f_none, f_asym) - 1e-12


COPY_COUNTS = (2, 3, 6, 20, 100, 200)


class TestFiniteNAdvantage:
    """The paper's finite-N claims for the optimal filter C0(kappa*)."""

    @pytest.mark.parametrize("theta", [0.05, 0.1, 0.2, 0.4, 0.6, PI4])
    def test_optimal_fidelity_does_not_decrease_with_copies(self, theta):
        f = [_gghz_optimum(theta, n, Scenario.ONE_SIDED).f_star for n in COPY_COUNTS]
        assert all(later >= earlier - 1e-12 for earlier, later in zip(f, f[1:])), f

    @pytest.mark.parametrize("theta", [0.05, 0.1, 0.2])
    def test_advantage_over_kappa_prime_peaks_at_finite_n(self, theta):
        f = [_gghz_optimum(theta, n, Scenario.ONE_SIDED).f_star for n in COPY_COUNTS]
        gain = [f_n - kappa_prime_ncopy_fidelity(theta, n) for f_n, n in zip(f, COPY_COUNTS)]
        peak = int(np.argmax(gain))
        assert COPY_COUNTS[peak] > 2 and gain[-1] < gain[peak], gain
