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


SIDES = ("left", "right", "balanced")


def assert_point_is_a_batch_of_one(point, many, xs) -> None:
    """``point(x)`` is bitwise ``many([x])[0]`` at every ``x`` of ``xs``;
    where one raises ``ValueError``, so does the other."""
    for x in xs:
        try:
            want = many(np.array([x]))[0]
        except ValueError:
            with pytest.raises(ValueError):
                point(x)
            continue
        got = point(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), x


def assert_sides_are_batches_of_one(obj, xs, outside=()) -> None:
    """Every one-point reading of ``obj`` (``left``, ``right``, ``balanced``
    and, where it has one, ``value``) is bitwise ``obj.many([x], side)[0]``;
    at the points ``outside`` both raise ``ValueError``."""
    for side in SIDES:
        views = [getattr(obj, side)] + ([lambda x, side=side: obj.value(x, side)] if hasattr(obj, "value") else [])
        for view in views:
            assert_point_is_a_batch_of_one(view, lambda pts, side=side: obj.many(pts, side), xs)
            for x in outside:
                with pytest.raises(ValueError):
                    obj.many(np.array([x]), side)
                with pytest.raises(ValueError):
                    view(x)
