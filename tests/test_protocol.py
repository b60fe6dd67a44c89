import decimal
import json
import math
import tracemalloc

import numpy as np
import pytest

from steerdist.assemblage import (
    Scenario,
    convex_mix,
    gghz_assemblage_1sdi,
    ghz_assemblage,
    validate,
)
from steerdist.cli import main
from steerdist.distillation import (
    P_SUCC_FLOOR,
    DistillationConfig,
    _branch_weights,
    apply_filter,
    distilled_assemblage,
    make_filter,
    two_copy_optimal_kappa,
)
from steerdist.errors import KappaOutOfRangeError, ThetaOutOfRangeError
from steerdist.metrics import assemblage_fidelity, witness_1sdi
from steerdist.protocol import (
    DRAW_BLOCK,
    SimOutcome,
    run_protocol,
    single_copy_success_probability,
    success_probability,
)

from conftest import max_element_diff

PI8 = math.pi / 8


class TestSuccessProbability:
    def test_single_copy_formula(self):
        assert single_copy_success_probability(PI8, 0.6) == pytest.approx(
            0.45372583002030475, abs=1e-12
        )

    def test_identity_filter(self):
        for n in (2, 5, 50):
            assert success_probability(0.3, 1.0, n) == pytest.approx(1.0, abs=1e-12)

    def test_kappa_zero_two_copies(self):
        assert success_probability(PI8, 0.0, 2) == pytest.approx(
            math.sin(PI8) ** 2, abs=1e-12
        )

    def test_many_copies(self):
        p = single_copy_success_probability(PI8, 0.5)
        expect = 1.0 - (1.0 - p) ** 49
        got = success_probability(PI8, 0.5, 50)
        assert got == pytest.approx(expect, abs=1e-15)
        assert 1.0 - got < 1e-9

    def test_below_the_floor_keeps_its_digits(self):
        # p = sin^2(1e-7) ~ 1e-14 < P_SUCC_FLOOR and (N - 1) p ~ 1: 1 - p keeps
        # about two digits of p, so 1 - (1 - p)**(N - 1) would be off by ~3e-4
        p = single_copy_success_probability(1e-7, 0.0)
        assert 0.0 < p < P_SUCC_FLOOR
        n = 10**14 + 1
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            exact = float(1 - (1 - decimal.Decimal(p)) ** (n - 1))
        assert abs(success_probability(1e-7, 0.0, n) - exact) <= 1e-15
        p_fail, _, w_succ = _branch_weights(np.array([p]), n)
        assert abs(1.0 - p_fail[0] - exact) <= 1e-15
        assert abs(w_succ[0] * p - exact) <= 1e-15

    def test_range_errors(self):
        with pytest.raises(ThetaOutOfRangeError):
            success_probability(2.0, 0.5, 2)
        with pytest.raises(KappaOutOfRangeError):
            success_probability(0.3, 1.5, 2)
        with pytest.raises(ValueError):
            success_probability(0.3, 0.5, 1)


class TestRunProtocol:
    def test_identity_filter_always_succeeds(self):
        out = run_protocol(0.3, 1.0, 2, trials=500, seed=7)
        assert out.success_count == out.trials == 500
        assert set(out.bitstring_histogram) == {"01"}

    def test_determinism(self):
        a = run_protocol(PI8, 0.6, 3, trials=2000, seed=123)
        b = run_protocol(PI8, 0.6, 3, trials=2000, seed=123)
        assert a.success_count == b.success_count
        assert a.bitstring_histogram == b.bitstring_histogram
        assert max_element_diff(a.empirical_assemblage, b.empirical_assemblage) == 0.0
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_seed_changes_stream(self):
        a = run_protocol(PI8, 0.6, 3, trials=2000, seed=1)
        b = run_protocol(PI8, 0.6, 3, trials=2000, seed=2)
        assert a.bitstring_histogram != b.bitstring_histogram

    def test_histogram_totals_and_last_bit_rule(self):
        out = run_protocol(PI8, 0.6, 4, trials=5000, seed=42)
        assert sum(out.bitstring_histogram.values()) == out.trials
        assert out.success_count <= out.trials
        for bits, count in out.bitstring_histogram.items():
            assert len(bits) == 4
            early, last = bits[:-1], bits[-1]
            # the final copy is kept (c_N = 0) only when every filter failed
            if "0" in early:
                assert last == "1"
            else:
                assert last == "0"
        succ = sum(c for b, c in out.bitstring_histogram.items() if "0" in b[:-1])
        assert succ == out.success_count

    def test_binomial_consistency(self):
        # success fraction within 3 sigma of 1 - (1-p)^(N-1) at 1e5 trials
        trials = 10**5
        out = run_protocol(PI8, 0.6, 3, trials=trials, seed=11)
        p_total = success_probability(PI8, 0.6, 3)
        sigma = math.sqrt(p_total * (1 - p_total) / trials)
        assert abs(out.success_fraction - p_total) <= 3 * sigma

    def test_convergence_4sigma(self):
        trials = 10**5
        out = run_protocol(0.4, 0.35, 4, trials=trials, seed=5)
        p_total = success_probability(0.4, 0.35, 4)
        sigma = math.sqrt(p_total * (1 - p_total) / trials)
        assert abs(out.success_fraction - p_total) <= 4 * sigma

    def test_empirical_assemblage_is_observed_mixture(self):
        out = run_protocol(0.3, 0.5, 2, trials=4000, seed=3)
        base = gghz_assemblage_1sdi(0.3)
        _, filtered = apply_filter(base, 0.5)
        frac = out.success_fraction
        for key, m in out.empirical_assemblage.elements.items():
            expect = frac * filtered.elements[key] + (1 - frac) * base.elements[key]
            assert np.max(np.abs(m - expect)) < 1e-12

    def test_empirical_assemblage_valid(self):
        out = run_protocol(PI8, 0.6, 3, trials=3000, seed=9)
        assert validate(out.empirical_assemblage, tol=1e-6).ok
        # exact mixtures of valid assemblages stay valid at the strict tolerance too
        assert validate(out.empirical_assemblage).ok

    def test_witness_tracks_analytic_distillate(self):
        # empirical witness within 3 sigma of the two-copy analytic value,
        # sigma propagated from the mixture-weight sampling error
        trials = 10**5
        kappa = two_copy_optimal_kappa(PI8)
        out = run_protocol(PI8, kappa, 2, trials=trials, seed=21)
        s_emp = witness_1sdi(out.empirical_assemblage).value
        dist = distilled_assemblage(DistillationConfig(theta=PI8, n_copies=2, kappa=kappa))
        s_ana = witness_1sdi(dist).value
        base = gghz_assemblage_1sdi(PI8)
        _, filtered = apply_filter(base, kappa)
        swing = abs(witness_1sdi(filtered).value - witness_1sdi(base).value)
        p = single_copy_success_probability(PI8, kappa)
        sigma = swing * math.sqrt(p * (1 - p) / trials)
        assert abs(s_emp - s_ana) <= 3 * sigma

    def test_fidelity_tracks_analytic_distillate(self):
        trials = 2 * 10**5
        kappa = two_copy_optimal_kappa(PI8)
        out = run_protocol(PI8, kappa, 2, trials=trials, seed=33)
        target = ghz_assemblage(Scenario.ONE_SIDED)
        f_emp = assemblage_fidelity(out.empirical_assemblage, target)
        dist = distilled_assemblage(DistillationConfig(theta=PI8, n_copies=2, kappa=kappa))
        f_ana = assemblage_fidelity(dist, target)
        assert abs(f_emp - f_ana) < 2e-3

    def test_all_fail_edge(self):
        # p_succ = 0 exactly: every run fails, the empirical output is the input
        out = run_protocol(0.0, 0.0, 3, trials=100, seed=1)
        assert out.success_count == 0
        assert set(out.bitstring_histogram) == {"110"}
        assert max_element_diff(out.empirical_assemblage, gghz_assemblage_1sdi(0.0)) == 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_protocol(0.3, 0.5, 2, trials=0, seed=1)
        with pytest.raises(ValueError):
            run_protocol(0.3, 0.5, 1, trials=10, seed=1)

    def test_json_dict_fields(self):
        out = run_protocol(0.3, 0.5, 2, trials=50, seed=4)
        doc = out.to_json_dict()
        for field in (
            "theta",
            "kappa",
            "n_copies",
            "trials",
            "seed",
            "success_count",
            "success_fraction",
            "bitstring_histogram",
            "empirical_assemblage",
        ):
            assert field in doc
        json.dumps(doc)


# (theta, kappa, n, trials, seed) -> (success_count, bitstring_histogram),
# recorded once; the seeded output is promised to be reproducible bit for bit.
PINNED_RUNS = {
    (0.3927, 0.5858, 2, 50, 11): (26, {"01": 26, "10": 24}),
    (0.3, 0.6, 5, 60, 12): (51, {
        "00001": 3, "00011": 3, "00101": 5, "00111": 1, "01001": 3, "01011": 2,
        "01101": 3, "01111": 5, "10001": 1, "10011": 7, "10101": 2, "10111": 2,
        "11001": 5, "11011": 4, "11101": 5, "11110": 9,
    }),
    (0.7, 0.9, 8, 40, 13): (40, {
        "00000001": 19, "00000011": 3, "00000101": 1, "00010001": 6,
        "00100001": 2, "00101011": 1, "01000011": 1, "01000101": 1,
        "01100001": 1, "10000001": 3, "10000011": 1, "10000111": 1,
    }),
}


class TestSeededOutputPinned:
    @pytest.mark.parametrize("args", sorted(PINNED_RUNS))
    def test_recorded_histogram(self, args):
        out = run_protocol(*args)
        success_count, histogram = PINNED_RUNS[args]
        assert out.success_count == success_count
        assert out.bitstring_histogram == histogram

    @pytest.mark.parametrize("args", sorted(PINNED_RUNS))
    def test_independent_replay(self, args):
        # Replays the protocol from the raw Philox stream without steerdist:
        # bit n is 1 on filter failure of copy n, the last bit on run success.
        theta, kappa, n, trials, seed = args
        p = kappa**2 * math.cos(theta) ** 2 + math.sin(theta) ** 2
        draws = np.random.Generator(np.random.Philox(key=seed)).random((trials, n - 1))
        early_fail = draws >= p
        bits = np.column_stack([early_fail, ~early_fail.all(axis=1)]).astype(np.int64)
        codes = bits @ (1 << np.arange(n - 1, -1, -1))
        counts = np.bincount(codes, minlength=2**n)
        replay = {format(c, f"0{n}b"): int(k) for c, k in enumerate(counts) if k}
        out = run_protocol(*args)
        assert out.bitstring_histogram == replay
        assert out.success_count == int(bits[:, -1].sum())


def reference_run(theta, kappa, n, trials, seed):
    """run_protocol as one (trials, n - 1) draw and one np.unique over all rows."""
    p = single_copy_success_probability(theta, kappa)
    draws = np.random.Generator(np.random.Philox(key=seed)).random((trials, n - 1))
    early_fail = draws >= p
    run_success = ~early_fail.all(axis=1)
    bits = np.column_stack([early_fail, run_success]).astype(np.uint8)
    rows, counts = np.unique(bits, axis=0, return_counts=True)
    histogram = {"".join(map(str, row)): int(c) for row, c in zip(rows, counts)}
    success_count = int(run_success.sum())
    empirical = base = gghz_assemblage_1sdi(theta)
    if success_count:
        frac = success_count / trials
        _, filtered = apply_filter(base, make_filter(kappa))
        empirical = convex_mix([frac, 1.0 - frac], [filtered, base])
    return SimOutcome(theta, kappa, n, trials, seed, success_count, histogram, empirical)


BLOCK_EDGE_TRIALS = (1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 3 * DRAW_BLOCK + 7)


class TestDrawBlocks:
    def assert_matches_reference(self, capsysbinary, theta, kappa, n, trials, seed):
        out = run_protocol(theta, kappa, n, trials, seed)
        ref = reference_run(theta, kappa, n, trials, seed)
        assert list(out.bitstring_histogram.items()) == list(ref.bitstring_histogram.items())
        assert out.success_count == ref.success_count
        argv = ["simulate", "--theta", str(theta), "--kappa", str(kappa), "--n", str(n),
                "--trials", str(trials), "--seed", str(seed)]
        assert main(argv) == 0
        expected = json.dumps(ref.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert capsysbinary.readouterr().out == expected.encode()
        return out

    @pytest.mark.parametrize("trials", BLOCK_EDGE_TRIALS)
    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_blocks_match_one_draw(self, capsysbinary, n, trials):
        self.assert_matches_reference(capsysbinary, 0.3, 0.6, n, trials, 5)

    @pytest.mark.parametrize("trials", BLOCK_EDGE_TRIALS)
    def test_identity_filter_blocks(self, capsysbinary, trials):
        out = self.assert_matches_reference(capsysbinary, 0.3, 1.0, 4, trials, 6)
        assert out.success_count == trials

    @pytest.mark.parametrize("trials", BLOCK_EDGE_TRIALS)
    def test_never_succeeding_blocks(self, capsysbinary, trials):
        out = self.assert_matches_reference(capsysbinary, 0.0, 0.0, 4, trials, 7)
        assert out.success_count == 0
        assert max_element_diff(out.empirical_assemblage, gghz_assemblage_1sdi(0.0)) == 0.0

    def test_peak_memory_does_not_grow_with_trials(self):
        run_protocol(0.3, 0.6, 8, 10, 1)   # fill the module caches first
        peaks = []
        for k in (2, 16):
            tracemalloc.start()
            try:
                run_protocol(0.3, 0.6, 8, k * DRAW_BLOCK, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20
