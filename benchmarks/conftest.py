"""Shared benchmark fixtures: engines over each dataset's shared
offline-trained context."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import DeploymentEngine, shared_context


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def runner_ds1():
    return DeploymentEngine(shared_context(1))


@pytest.fixture(scope="session")
def runner_ds2():
    return DeploymentEngine(shared_context(2))


@pytest.fixture(scope="session")
def runner_ds3():
    return DeploymentEngine(shared_context(3))
