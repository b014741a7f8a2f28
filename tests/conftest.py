"""Shared fixtures: the four shipped problems, loaded through the config path."""

from __future__ import annotations

import numpy as np
import pytest

from blockweyl.cli import ProblemConfig
from blockweyl.engine import Engine

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation(theta: complex) -> np.ndarray:
    """Fundamental matrix of the free system anchored at zero."""
    return np.array(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]], dtype=complex
    )


@pytest.fixture(scope="session")
def p1():
    cfg = ProblemConfig.load("P1")
    return cfg.system, cfg.boundary


@pytest.fixture(scope="session")
def p2():
    cfg = ProblemConfig.load("P2")
    return cfg.system, cfg.boundary


@pytest.fixture(scope="session")
def p3():
    cfg = ProblemConfig.load("P3")
    return cfg.system, cfg.boundary


@pytest.fixture(scope="session")
def p4():
    cfg = ProblemConfig.load("P4")
    return cfg.system, cfg.boundary


@pytest.fixture(scope="session")
def e1(p1):
    return Engine(*p1)


@pytest.fixture(scope="session")
def e2(p2):
    return Engine(*p2)


@pytest.fixture(scope="session")
def e3(p3):
    return Engine(*p3)


@pytest.fixture(scope="session")
def e4(p4):
    return Engine(*p4)
