import random

import pytest

from bikelab import RingParams, custom_params, level_params
from bikelab.ring import DensePoly

_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py::" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _acceptance_results.append((name, "PASS" if report.passed else "FAIL"))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, outcome in _acceptance_results:
        terminalreporter.write_line(f"{outcome}  {name}")


@pytest.fixture(scope="session")
def ring13():
    return RingParams(13)


@pytest.fixture(scope="session")
def toy_params():
    """Small valid KEM parameters (r prime, 2 primitive) with tiny failure rate."""
    return custom_params(r=613, w=30, t=14)


@pytest.fixture(scope="session")
def l1_params():
    return level_params(1)


def random_dense(ring, rng: random.Random) -> DensePoly:
    return DensePoly(ring, rng.getrandbits(ring.r) & ring.mask)


def random_odd_dense(ring, rng: random.Random) -> DensePoly:
    while True:
        p = random_dense(ring, rng)
        if p.weight() % 2 == 1 and p.bits != ring.mask:
            return p
