import numpy as np
import pytest

from steerdist.assemblage import Assemblage, Scenario, element_keys, gghz_assemblage, ghz_assemblage
from steerdist.cli import SweepRow
from steerdist.distillation import check_copies, check_kappa, distill
from steerdist.errors import check_real
from steerdist.metrics import assemblage_fidelity, witness
from steerdist.protocol import success_probability


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_psd(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g.conj().T @ g


def max_element_diff(asm1, asm2):
    """Largest entrywise deviation between two assemblages on one grid."""
    return max(
        float(np.max(np.abs(asm1.elements[k] - asm2.elements[k])))
        for k in element_keys(asm1.scenario)
    )


def white_noise(scenario):
    """Assemblage whose every element is identity / (d * outcomes per setting)."""
    d, k = scenario.element_dim, scenario.parties
    keys = element_keys(scenario)
    return Assemblage(scenario, {key: np.eye(d, dtype=complex) / (d * 2**k) for key in keys})


def evaluate_point(theta, n_copies, kappa, filter_kind, scenario="both") -> SweepRow:
    """The sweep row at one point, from a per-point distill, fidelity and witness.

    ``cli.sweep_rows`` scores whole blocks of theta; its rows must equal these.
    """
    row = SweepRow(
        theta=check_real(theta, "theta"),
        n_copies=check_copies(n_copies),
        filter_kind=filter_kind,
        kappa=check_kappa(kappa),
        p_succ_total=success_probability(theta, kappa, n_copies),
    )
    for sc in tuple(Scenario) if scenario == "both" else (Scenario(scenario),):
        dist = distill(gghz_assemblage(theta, sc), kappa, n_copies)
        setattr(row, f"f_{sc.value}", assemblage_fidelity(dist, ghz_assemblage(sc)))
        setattr(row, f"s_{sc.value}", witness(dist).value)
    return row


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
