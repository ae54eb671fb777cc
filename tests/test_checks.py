"""Every `gpme check` result, one test id per check.

The suites in gpme.checks are the one home of the scheme's desk-scale
oracles; these tests assert their results instead of recomputing them.
"""

import pytest

from gpme import checks

NAMES = [
    # moments
    "laplacian_far_mass_zero", "laplacian_near_second_moment",
    "fractional_unit_cell_weight", "fractional_a_pp_flat",
    "a_prime_testfunction_dominates", "a_pp_testfunction_dominates",
    "laplacian_consistency_order", "levy_reference_poisson_oracle",
    "fractional_consistency_improves",
    # resolvent
    "tridiagonal_oracle", "dense_linear_cross_check", "resolvent_weighted_tail",
    # evolution
    "mass_ledger_identity", "compact_support_conservation", "evolution_monotone",
    "evolution_l1_contraction", "evolution_l1_stability", "evolution_linf_stability",
    "cfl_violation_rejected", "upwind_hand_oracle",
    # equitightness
    "tail_bound_local_quadratic", "tail_bound_fractional_linear", "tail_bound_with_source",
    "cutoff_derivative_scaling", "operator_cutoff_slope", "tail_mass_monotone",
]


@pytest.fixture(scope="module")
def run_all():
    """Every result of `gpme check all`, and how often the Barenblatt run
    that two suites read was computed."""
    calls = []
    barenblatt_run = checks._barenblatt_run

    def counted():
        calls.append(None)
        return barenblatt_run()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_barenblatt_run", counted)
        results = checks.run_suite("all")
    return results, len(calls)


def test_every_check_has_a_test_id(run_all):
    assert [res.name for res in run_all[0]] == NAMES


def test_shared_run_is_computed_once(run_all):
    assert run_all[1] == 1


@pytest.mark.parametrize("name", NAMES)
def test_check_passes(run_all, name):
    res = next(res for res in run_all[0] if res.name == name)
    # slack has one meaning: the margin bound - value, negative exactly
    # when the check fails
    assert (res.slack >= 0.0) == res.passed
    assert res.passed, res.line()
