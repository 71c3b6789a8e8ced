"""Shared fixtures: default scenario, ground truths, subset studies.

Session-scoped so the synthetic ground truths and the zenith budget are
built once; every value derived from them is deterministic (fixed seed in
the default config). The ground-truth fixtures are copies, not the objects
``ground_truth_for`` keeps for the process, so the pre-scan bounds that
figure runs store on those do not change the work counted on the fixtures.
Work-count gates plan on the function-scoped ``own_gt_*`` copies, so no
gate counts less for the bounds that earlier tests left.
"""

import dataclasses

import pytest

import satsched as ss


@pytest.fixture(scope="session")
def scenario():
    return ss.load_scenario()


@pytest.fixture(scope="session")
def nano(scenario):
    return scenario.platform_named("nano")


@pytest.fixture(scope="session")
def agx(scenario):
    return scenario.platform_named("agx")


@pytest.fixture(scope="session")
def zenith_budget(scenario):
    legs = ss.comm_legs(scenario, 90.0)
    return ss.budget_from_legs(scenario, legs)


@pytest.fixture(scope="session")
def gt_nano(scenario):
    return dataclasses.replace(ss.ground_truth_for(scenario, 0))


@pytest.fixture(scope="session")
def gt_agx(scenario):
    return dataclasses.replace(ss.ground_truth_for(scenario, 1))


@pytest.fixture
def own_gt_nano(gt_nano):
    """A copy of ``gt_nano`` for one test. A model keeps the pre-scan bounds
    its plans leave, so a work-count gate that plans on the session fixture
    would count less the more tests planned there before it."""
    return dataclasses.replace(gt_nano)


@pytest.fixture
def own_gt_agx(gt_agx):
    """A copy of ``gt_agx`` for one test, as ``own_gt_nano``."""
    return dataclasses.replace(gt_agx)


@pytest.fixture(scope="session")
def subset_study_nano(scenario, gt_nano, zenith_budget, nano):
    """One K=100 subset study across the default size ladder, shared by the
    estimation tests and acceptance criterion 4."""
    freqs = ss.fit_frequency_grid(nano, scenario.fit_n_frequencies)
    return ss.sample_size_study(
        gt_nano, gt_nano.image_ids, list(scenario.fig3_sample_sizes), 100,
        zenith_budget, scenario.fig3_n_img["nano"], scenario.rho_th, nano,
        freqs, scenario.seed, scenario.bit_generator, scenario.fit_degree, 0)


@pytest.fixture(scope="session")
def subset_study_agx(scenario, gt_agx, zenith_budget, agx):
    freqs = ss.fit_frequency_grid(agx, scenario.fit_n_frequencies)
    return ss.sample_size_study(
        gt_agx, gt_agx.image_ids, list(scenario.fig3_sample_sizes), 100,
        zenith_budget, scenario.fig3_n_img["agx"], scenario.rho_th, agx,
        freqs, scenario.seed, scenario.bit_generator, scenario.fit_degree, 1)
