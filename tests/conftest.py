import numpy as np
import pytest
from hypothesis import settings

from oneshotdpd import FailureTable, ModelParams, TestPlan
from oneshotdpd.datasets import load_benzidine, load_ed01, load_table1

# property tests run the same examples on every run
PROPERTY = settings(deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="session")
def table1() -> FailureTable:
    return load_table1()


@pytest.fixture(scope="session")
def plan1(table1) -> TestPlan:
    return table1.plan


@pytest.fixture(scope="session")
def ed01():
    return load_ed01()


@pytest.fixture(scope="session")
def benzidine():
    return load_benzidine()


def random_plan(rng: np.random.Generator, balanced: bool = False) -> TestPlan:
    """Small random plan with moderate cell probabilities."""
    n_temps = int(rng.integers(1, 5))
    n_times = int(rng.integers(1, 5))
    temps = np.sort(rng.uniform(0.0, 60.0, size=n_temps))
    while len(np.unique(temps)) != n_temps:  # pragma: no cover
        temps = np.sort(rng.uniform(0.0, 60.0, size=n_temps))
    times = np.sort(rng.uniform(1.0, 50.0, size=n_times))
    if balanced:
        devices = np.full((n_temps, n_times), int(rng.integers(5, 200)))
    else:
        devices = rng.integers(1, 200, size=(n_temps, n_times))
    return TestPlan(temps=temps, times=times, devices=devices)


def random_params(rng: np.random.Generator) -> ModelParams:
    alpha0 = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.05))))
    alpha1 = float(rng.uniform(-0.08, 0.08))
    return ModelParams(alpha0, alpha1)


def random_table(rng: np.random.Generator, plan: TestPlan) -> FailureTable:
    counts = rng.integers(0, plan.devices + 1)
    return FailureTable(plan=plan, counts=counts)
