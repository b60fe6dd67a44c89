"""Property tests over random inputs: closed form, distillation of GGHZ and
of general sources, the N-copy branch weights, the fidelity kernel against
scipy and its two factor widths, the smallest eigenvalue of 2x2 Hermitian
matrices behind the PSD checks, the kappa optimizer, sweep row cells, JSON
round trip, and fuzzes of the JSON loader, of the CLI commands that read an
assemblage file and of the numeric arguments of sweep, threshold and optimize.

Runs are derandomized and keep no example database, so every run draws the
same examples.
"""
import contextlib
import dataclasses
import io
import json
import math
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from steerdist.assemblage import (  # noqa: E402
    Assemblage,
    Scenario,
    assemblage_from_state,
    convex_mix,
    element_keys,
    gghz_assemblage,
    ghz_assemblage,
    validate,
)
from steerdist.cli import CSV_HEADER, SweepRow, _fmt, main  # noqa: E402
from steerdist.distillation import (  # noqa: E402
    P_SUCC_FLOOR,
    _branch_weights,
    distill,
    optimize_kappa,
)
from steerdist.errors import NotPSDError, SteerdistError  # noqa: E402
from steerdist.linalg import TOL_PSD, _lowest_eigenvalues, _psd_factors, require_psd  # noqa: E402
from steerdist.metrics import assemblage_fidelity, fidelity_terms, witness  # noqa: E402
from steerdist.protocol import single_copy_success_probability, success_probability  # noqa: E402
from steerdist.states import (  # noqa: E402
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    THETA_MAX,
    MeasurementSet,
    PureState,
    gghz,
)

from conftest import white_noise  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
# optimize_kappa costs tens of milliseconds per example
OPTIMIZER = settings(derandomize=True, database=None, deadline=None, max_examples=12)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)

thetas = st.floats(0.0, THETA_MAX)
kappas = st.floats(0.0, 1.0)
scenarios = st.sampled_from(list(Scenario))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(theta=thetas, scenario=scenarios)
def test_closed_form_matches_generic_route(theta, scenario):
    closed = gghz_assemblage(theta, scenario)
    generic = assemblage_from_state(gghz(theta), "AB"[: scenario.parties])
    assert generic.scenario is scenario
    assert np.max(np.abs(closed.stack - generic.stack)) <= 1e-10
    assert validate(closed).ok


@PROPERTY
@given(theta=thetas, scenario=scenarios)
def test_closed_form_outcome_probabilities(theta, scenario):
    k = scenario.parties
    probs = gghz_assemblage(theta, scenario).probabilities()
    for key, p in probs.items():
        outcomes, settings_ = key[:k], key[k:]
        if all(x == 2 for x in settings_):
            z_all = {(0,) * k: math.cos(theta) ** 2, (1,) * k: math.sin(theta) ** 2}
            expected = z_all.get(outcomes, 0.0)
        elif all(x != 2 for x in settings_):
            expected = 1 / 2**k
        else:
            continue
        assert p == pytest.approx(expected, abs=1e-14)


@PROPERTY
@given(theta=thetas, kappa=kappas, n=st.integers(2, 8), scenario=scenarios)
def test_distilled_assemblage_is_valid_and_fidelity_bounded(theta, kappa, n, scenario):
    dist = distill(gghz_assemblage(theta, scenario), kappa, n)
    assert validate(dist).ok
    target = ghz_assemblage(scenario)
    f = assemblage_fidelity(dist, target)
    assert 0.0 <= f <= 1.0 + 1e-12
    assert f == pytest.approx(assemblage_fidelity(target, dist), abs=1e-9)


def _distilled_gghz_closed_form(theta, kappa, n):
    """(fidelity, S_1sdi, S_2sdi) of the N-copy distilled GGHZ, as in steerbench/oracles.py."""
    c, s = math.cos(theta), math.sin(theta)
    p = kappa * kappa * c * c + s * s
    if p >= P_SUCC_FLOOR:   # log1p(-p) would raise at p = 1
        w_f = (1.0 - p) ** (n - 1)
        r = (1.0 - w_f) / p
    elif p > 0:   # (1 - p)**(n - 1) keeps too few digits of p here
        log_w_f = (n - 1) * math.log1p(-p)
        w_f, r = math.exp(log_w_f), -math.expm1(log_w_f) / p
    else:   # no copy ever passes the filter
        w_f, r = 1.0, 0.0
    f_x = math.sqrt(0.5 * (r * (kappa * c + s) ** 2 + w_f * (c + s) ** 2))
    f_z = math.sqrt(0.5 * c * c * (r * kappa * kappa + w_f)) + math.sqrt(0.5 * s * s * (r + w_f))
    coherence = 2 * c * s * (r * kappa + w_f)
    return (min(f_x, f_z), 1.0 + 0.1547 - (2.0 + 4.0 * coherence) / 3.0,
            1.0 - 3 * 0.1831 - 4 * 0.2582 * coherence)


@PROPERTY
@given(theta=thetas, kappa=kappas, n=st.integers(2, 1000), scenario=scenarios)
@example(theta=0.0, kappa=0.0, n=2, scenario=Scenario.ONE_SIDED)
@example(theta=0.0, kappa=0.0, n=1000, scenario=Scenario.TWO_SIDED)
@example(theta=1e-7, kappa=0.0, n=2, scenario=Scenario.ONE_SIDED)
@example(theta=1e-7, kappa=0.0, n=1000, scenario=Scenario.TWO_SIDED)
@example(theta=1e-7, kappa=1e-7, n=2, scenario=Scenario.TWO_SIDED)
@example(theta=1e-7, kappa=1e-7, n=1000, scenario=Scenario.ONE_SIDED)
def test_distilled_gghz_matches_the_closed_form(theta, kappa, n, scenario):
    # below P_SUCC_FLOOR both distill and the closed form use log1p/expm1
    dist = distill(gghz_assemblage(theta, scenario), kappa, n)
    f, s_1sdi, s_2sdi = _distilled_gghz_closed_form(theta, kappa, n)
    assert abs(assemblage_fidelity(dist, ghz_assemblage(scenario)) - f) <= 1e-12
    s = s_1sdi if scenario is Scenario.ONE_SIDED else s_2sdi
    assert abs(witness(dist).value - s) <= 1e-12


@PROPERTY
@given(
    theta=thetas,
    kappa=kappas,
    more=st.lists(st.floats(0.0, 1.0) | st.floats(0.0, P_SUCC_FLOOR), max_size=8),
    n=st.integers(2, 1000) | st.just(10**30),
)
# p_succ of success_probability and of the branch weights used to differ in the
# last bit here: numpy squares at N = 3, and on AVX-512 takes its own power
@example(theta=0.4313, kappa=0.4252, more=[], n=3)
@example(theta=0.1735, kappa=0.6047, more=[], n=4)
@example(theta=1e-7, kappa=0.0, more=[0.0, 1.0, 1e-300], n=10**30)
def test_branch_weights_are_one_libm_formula(theta, kappa, more, n):
    p = np.array([single_copy_success_probability(theta, kappa), *more])
    weights = [w.tolist() for w in _branch_weights(p, n)]   # p_fail, p_succ, w_succ
    assert success_probability(theta, kappa, n).hex() == weights[1][0].hex()
    as_column = _branch_weights(p[:, None], n)   # the optimizer's (K, 1) shape
    for i, p_i in enumerate(p.tolist()):
        if p_i >= P_SUCC_FLOOR:
            assert weights[0][i].hex() == ((1.0 - p_i) ** (n - 1)).hex()
        alone = _branch_weights(p[i:i + 1], n)
        for w, w_alone, w_column in zip(weights, alone, as_column):
            assert w[i].hex() == float(w_alone[0]).hex() == float(w_column[i, 0]).hex()


@PROPERTY
@given(t1=thetas, t2=thetas, kappa=kappas, w=st.floats(0.0, 1.0), scenario=scenarios)
def test_witness_is_affine_under_mixing(t1, t2, kappa, w, scenario):
    a = gghz_assemblage(t1, scenario)
    b = distill(gghz_assemblage(t2, scenario), kappa, 2)
    mixed = witness(convex_mix([w, 1.0 - w], [a, b])).value
    affine = w * witness(a).value + (1 - w) * witness(b).value
    assert mixed == pytest.approx(affine, abs=1e-12)


def _rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _rotated_paulis(a, b, c):
    """X, Y, Z conjugated by the qubit rotation Rz(a) Ry(b) Rz(c)."""
    ry = np.array([[math.cos(b / 2), -math.sin(b / 2)], [math.sin(b / 2), math.cos(b / 2)]])
    u = _rz(a) @ ry @ _rz(c)
    return MeasurementSet(tuple(u @ o @ u.conj().T for o in (PAULI_X, PAULI_Y, PAULI_Z)))


amplitudes = hnp.arrays(float, (8, 2), elements=st.floats(-1.0, 1.0)).map(
    lambda a: a[:, 0] + 1j * a[:, 1]
).filter(lambda v: np.linalg.norm(v) > 0.1)
angles = st.floats(0.0, 2 * math.pi)


@st.composite
def general_sources(draw):
    """A valid assemblage from a random 3-qubit state and rotated Pauli sets."""
    scenario = draw(scenarios)
    psi = draw(amplitudes)
    sets = [_rotated_paulis(draw(angles), draw(angles), draw(angles))
            for _ in range(scenario.parties)]
    state = PureState(psi / np.linalg.norm(psi))
    return assemblage_from_state(state, "AB"[: scenario.parties], sets)


@PROPERTY
@given(source=general_sources(), kappa=kappas, n=st.integers(2, 8))
def test_distilled_general_source_is_valid_and_fidelity_bounded(source, kappa, n):
    dist = distill(source, kappa, n)
    assert validate(dist).ok
    f = assemblage_fidelity(dist, ghz_assemblage(source.scenario))
    assert 0.0 <= f <= 1.0 + 1e-12


@PROPERTY
@given(
    source=st.builds(gghz_assemblage, thetas, scenarios) | general_sources(),
    kappa=kappas,
    n=st.integers(2, 8),
)
def test_column_factor_kernel_matches_full_eigen_factor(source, kappa, n):
    # Every GHZ target element has rank <= 1, so its eigen-factor has one
    # nonzero column u, and sqrt(u^dag sigma u) is the whole root fidelity.
    factors = _psd_factors(ghz_assemblage(source.scenario).stack)[0]
    assert not factors[..., :-1].any()
    stacks = np.stack([source.stack, distill(source, kappa, n).stack])
    by_column = fidelity_terms(stacks, factors[..., -1:])
    assert by_column.shape == (2, len(element_keys(source.scenario)))
    assert np.max(np.abs(by_column - fidelity_terms(stacks, factors))) <= 1e-12


def _sqrtm_root_fidelity(sigma, ref):
    """Sum of sqrt(lambda) over sqrt(sigma) ref sqrt(sigma), its null modes zeroed first."""
    from scipy.linalg import sqrtm

    root = sqrtm(sigma)
    w = np.linalg.eigvalsh(root @ ref @ root)
    return float(np.sqrt(np.where(w < 1e-12 * w.max(), 0.0, w)).sum())


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_eigen_factor_kernel_matches_sqrtm_at_every_reference_rank(seed):
    # Tr sqrt(F^dag sigma F) with F = V sqrt(W) of the reference, any rank
    pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(seed)
    for d in (2, 4, 8):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sigma = (g @ g.conj().T + d * np.eye(d)) / d   # well-conditioned
        for rank in range(1, d + 1):
            h = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            ref = h @ h.conj().T
            got = fidelity_terms(sigma, _psd_factors(ref)[0])
            expect = _sqrtm_root_fidelity(sigma, ref)
            assert abs(got - expect) <= 1e-12 * expect


EPS = np.finfo(float).eps
signs = st.sampled_from([-1.0, 1.0])
signed_entries = st.builds(lambda s, x: s * x, signs, st.just(0.0) | st.floats(1e-300, 1e300))


@st.composite
def hermitian_2x2(draw):
    """[[a, b], [b*, c]]: general, rank-one, degenerate, diagonal, or with diagonal +-1.7e308."""
    kind = draw(st.sampled_from(["general", "rank_one", "degenerate", "diagonal", "huge"]))
    a, c = draw(signed_entries), draw(signed_entries)
    b = complex(draw(signed_entries), draw(signed_entries))
    if kind == "rank_one":   # s v v^dag: |b|**2 = a c
        s = draw(signs)
        b = s * math.sqrt(abs(a)) * math.sqrt(abs(c)) * np.exp(1j * draw(angles))
        a, c = s * abs(a), s * abs(c)
    elif kind == "degenerate":
        c, b = a, 0j
    elif kind == "diagonal":
        b = 0j
    elif kind == "huge":
        a, c = 1.7e308 * draw(signs), 1.7e308 * draw(signs)
    return np.array([[a, b], [np.conj(b), c]])


@FUZZ
@given(h=hermitian_2x2())
def test_lowest_eigenvalue_of_2x2_matches_lapack(h):
    reference = float(np.linalg.eigvalsh(h)[0])
    margin = 4 * EPS * float(np.abs(h).max())
    low = float(_lowest_eigenvalues(h))
    assert math.isfinite(low)
    assert abs(low - reference) <= margin
    # require_psd refuses exactly when LAPACK does, away from the boundary
    assume(abs(reference + TOL_PSD) > margin)
    try:
        require_psd(h)
        refused = False
    except NotPSDError:
        refused = True
    assert refused == (reference < -TOL_PSD)


@OPTIMIZER
@given(source=general_sources(), n=st.integers(2, 8))
def test_optimizer_beats_coarse_grid_on_general_source(source, n):
    target = ghz_assemblage(source.scenario)
    res = optimize_kappa(source, n)
    grid = [assemblage_fidelity(distill(source, k, n), target) for k in np.linspace(0, 1, 101)]
    assert res.f_star >= max(grid) - 1e-9
    at_star = assemblage_fidelity(distill(source, res.kappa_star, n), target)
    assert res.f_star == pytest.approx(at_star, abs=1e-9)


@PROPERTY
@given(theta=thetas, noise=st.floats(0.0, 0.5), target_noise=st.floats(0.0, 0.5),
       n=st.integers(2, 1000), scenario=scenarios)
def test_optimizer_f_star_is_the_distilled_fidelity_at_kappa_star(
    theta, noise, target_noise, n, scenario
):
    # The optimizer scores the target from per-element coefficient blocks;
    # distill and assemblage_fidelity build the stack instead.  A noisy
    # target has full-rank elements, scored in d x d blocks.
    pure = gghz_assemblage(theta, scenario)
    source = convex_mix([1 - noise, noise], [pure, white_noise(scenario)])
    target = convex_mix([1 - target_noise, target_noise],
                        [ghz_assemblage(scenario), white_noise(scenario)])
    res = optimize_kappa(source, n, target=target)
    at_star = assemblage_fidelity(distill(source, res.kappa_star, n), target)
    assert abs(res.f_star - at_star) <= 1e-13


float_cells = st.none() | st.floats() | st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308, -1e308])


@PROPERTY
@given(
    cells=st.tuples(float_cells, st.integers(0, 10**30),
                    st.sampled_from(["none", "optimal", "asymptotic", "fixed"]),
                    *[float_cells] * 6),
)
def test_sweep_row_cells_are_the_dataclass_fields(cells):
    # the forms the row had when it read its cells through dataclasses.astuple
    row = SweepRow(*cells)
    old_csv = ",".join(map(_fmt, dataclasses.astuple(row)))
    old_json = dict(zip(CSV_HEADER.split(","), dataclasses.astuple(row)))
    assert row.to_csv() == old_csv
    new_json = row.to_json_dict()
    assert list(new_json) == list(old_json)
    assert list(map(repr, new_json.values())) == list(map(repr, old_json.values()))


def _stacks(scenario):
    d = scenario.element_dim
    parts = hnp.arrays(
        float,
        (len(element_keys(scenario)), d, d, 2),
        elements=finite_floats,
    )
    return parts.map(lambda a: a[..., 0] + 1j * a[..., 1])


@PROPERTY
@given(data=st.data(), scenario=scenarios, theta=st.none() | finite_floats)
def test_json_round_trip_is_exact(data, scenario, theta):
    stack = data.draw(_stacks(scenario))
    asm = Assemblage(scenario, dict(zip(element_keys(scenario), stack)), theta=theta)
    back = Assemblage.from_json_dict(json.loads(json.dumps(asm.to_json_dict())))
    assert back.scenario is asm.scenario
    assert np.array_equal(back.stack.view(np.uint64), asm.stack.view(np.uint64))
    assert back.theta == asm.theta
    if theta is not None:
        assert math.copysign(1.0, back.theta) == math.copysign(1.0, theta)


# JSON integers are unbounded, so numbers past the float range are valid input.
json_numbers = st.integers(-(10**400), 10**400) | st.floats()
json_scalars = st.none() | st.booleans() | json_numbers | st.text(max_size=6)
json_values = json_scalars | st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


def _near_documents():
    """Documents that keep the top-level layout but vary every field."""
    keys = st.sampled_from(["0|0", "1|2", "00|12", "01|22", "0|00", "2|0", "a|b", "|"])
    matrices = st.one_of(
        json_values,
        st.lists(st.lists(st.lists(json_numbers, max_size=3), max_size=5), max_size=5),
    )
    return st.fixed_dictionaries(
        {"scenario": st.sampled_from(["1sdi", "2sdi", "3sdi"]) | json_values},
        optional={
            "elements": st.dictionaries(keys, matrices, max_size=6) | json_values,
            "theta": json_values,
        },
    )


def _paths(node, prefix=()):
    """Every path from the root of a JSON document to one of its nodes."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key in node if isinstance(node, dict) else range(len(node)):
            yield from _paths(node[key], prefix + (key,))


VALID_DOCUMENTS = [gghz_assemblage(0.3, sc).to_json_dict() for sc in Scenario]
DOCUMENT_PATHS = [(i, p) for i, doc in enumerate(VALID_DOCUMENTS) for p in _paths(doc)]


@st.composite
def _mutated_documents(draw):
    """A valid document with one node, at any depth, replaced by a JSON value."""
    i, path = draw(st.sampled_from(DOCUMENT_PATHS))
    doc = json.loads(json.dumps(VALID_DOCUMENTS[i]))
    if not path:
        return draw(json_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(json_values)
    return doc


@FUZZ
@given(doc=_mutated_documents() | _near_documents() | json_values)
def test_json_loader_fuzz(doc):
    try:
        asm = Assemblage.from_json_dict(doc)
    except SteerdistError:
        return
    assert isinstance(asm, Assemblage)


# JSON texts nested deeper than the parser's recursion limit; json.dumps would
# itself recurse on them, so they are written as text.
deep_texts = st.builds(
    lambda depth, wrap: wrap.replace("*", "[" * depth + "]" * depth),
    st.integers(1000, 5000),
    st.sampled_from(["*", '{"scenario": "1sdi", "elements": {"0|0": *}}', '{"theta": *}']),
)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(text=(_mutated_documents() | _near_documents() | json_values).map(json.dumps) | deep_texts)
@example(text=json.dumps(VALID_DOCUMENTS[1]))
def test_cli_file_fuzz(tmp_path_factory, text):
    # no traceback and no usage error (exit 2): a result, or one diagnostic line
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=tmp_path_factory.getbasetemp(),
                                     encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        results = [(argv, *_run_main(argv)) for argv in (
            ["validate", fh.name], ["optimize", "--n", "2", "--assemblage", fh.name])]
    for argv, code, out, err in results:
        assert (code, err) == (0, "") or (code == 1 and len(err.splitlines()) == 1)
        if err.startswith("error: "):
            assert out == ""
        elif code == 1:
            assert argv[0] == "validate" and err.startswith(f"{argv[1]}: ")
            assert err.endswith(" violation(s)\n") and json.loads(out)["ok"] is False


# Number tokens that argparse's int/float, check_real and check_integer each
# read differently: NaN, signed zero, subnormal, digit grouping, a non-ASCII
# digit, hex and Python syntax.
ARGV_NUMBERS = ["nan", "-0", "5e-324", "1_000", "\uff13", "0x10", "10**22", "inf", "-1", "0.3",
                "2", "1e308"]
argv_numbers = st.sampled_from(ARGV_NUMBERS)
ARGV_SLOTS = {
    "sweep": ("--theta-min", "--theta-max", "--steps", "--n"),
    "threshold": ("--n",),
    "optimize": ("--theta", "--n"),
}


@st.composite
def cli_argvs(draw):
    """A sweep, threshold or optimize argv with a drawn token in each numeric slot it sets."""
    command = draw(st.sampled_from(sorted(ARGV_SLOTS)))
    kind = draw(st.sampled_from(["none", "asymptotic", "optimal", "fixed:"]))
    argv = [command]
    for flag in ARGV_SLOTS[command]:
        # one optimizer run per point: an optimal sweep keeps the default 50 steps
        if draw(st.booleans()) and not (flag == "--steps" and kind == "optimal"):
            argv += [flag, draw(argv_numbers)]
    if command != "optimize":
        argv += ["--filter", kind + (draw(argv_numbers) if kind == "fixed:" else "")]
    return argv


@settings(FUZZ, max_examples=200)   # about 1 s
@given(argv=cli_argvs())
@example(argv=["sweep", "--steps", "1_000", "--n", "\uff13", "--filter", "fixed:5e-324"])
@example(argv=["optimize", "--theta", "-0", "--n", "1_000"])
@example(argv=["threshold", "--n", "10**22", "--filter", "optimal"])
def test_cli_argv_fuzz(argv):
    # a result, one diagnostic line, or argparse's usage error; never a NaN
    try:
        code, out, err = _run_main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    if code == 0:
        assert out and err == ""
        assert "nan" not in out.lower()
    else:
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
