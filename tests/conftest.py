"""Shared fixtures: the bundled 20-user charging instance and its network."""

import pytest

from dagopt.harness.config import (
    build_network,
    build_problem,
    build_schedules,
    default_config,
)


@pytest.fixture(scope="session")
def desk_cfg():
    return default_config()


@pytest.fixture(scope="session")
def desk_problem(desk_cfg):
    return build_problem(desk_cfg)


@pytest.fixture(scope="session")
def desk_W(desk_cfg):
    return build_network(desk_cfg)


@pytest.fixture(scope="session")
def desk_schedules(desk_cfg):
    return build_schedules(desk_cfg)
