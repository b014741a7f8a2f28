import math

import numpy as np
import pytest

from blockweyl import quadrature
from blockweyl.errors import AccuracyError


def test_polynomial_exact():
    val, err = quadrature.integrate(lambda x: np.array(x**7 - 3 * x**2), 0.0, 2.0)
    assert abs(val - (2.0**8 / 8 - 8.0)) < 1e-13
    assert err < 1e-12


def test_oscillatory_matches_closed_form():
    val, _ = quadrature.integrate(lambda x: np.array(np.sin(40 * x)), 0.0, np.pi)
    exact = (1 - np.cos(40 * np.pi)) / 40
    assert abs(val - exact) < 1e-12


def test_matrix_valued():
    val, _ = quadrature.integrate(
        lambda x: np.array([[1.0, x], [x * x, np.exp(x)]]), 0.0, 1.0
    )
    expect = np.array([[1.0, 0.5], [1 / 3, np.e - 1]])
    assert np.max(np.abs(val - expect)) < 1e-12


def test_breakpoint_handles_jump():
    f = lambda x: np.array(1.0 if x < 0.5 else 3.0)
    val, _ = quadrature.integrate(f, 0.0, 1.0, breakpoints=[0.5])
    assert abs(val - 2.0) < 1e-13


def test_vectorized_agrees_with_scalar():
    scalar = lambda x: np.array([np.sin(3 * x), np.cos(x) ** 2])
    many = lambda xs: np.stack([np.sin(3 * xs), np.cos(xs) ** 2], axis=-1)
    v1, _ = quadrature.integrate(scalar, -1.0, 2.0)
    v2, _ = quadrature.integrate(many, -1.0, 2.0, vectorized=True)
    assert np.max(np.abs(v1 - v2)) < 1e-13


def test_panel_budget_exhaustion_raises():
    with pytest.raises(AccuracyError) as err:
        quadrature.integrate(
            lambda x: np.array(np.abs(x - 1 / 3) ** 0.1),
            0.0, 1.0, rel_tol=1e-300, abs_tol=1e-300, max_panels=64,
        )
    assert err.value.achieved is not None and err.value.achieved > 0


def test_empty_interval():
    val, err = quadrature.integrate(lambda x: np.array(x), 1.0, 1.0)
    assert val == 0.0 and err == 0.0


# the panel counts of sin(40 x) on (0, pi) are pinned, because batching the
# integrand calls must not change the panel set: the single initial panel is
# symmetric about pi/2, where the integrand is odd, so it meets the tolerance
# at once; breakpoints at 1 and 2 make it bisect
@pytest.mark.parametrize("breaks, panels", [((), 1), ((1.0, 2.0), 73)])
def test_one_integrand_call_per_bisection(monkeypatch, breaks, panels):
    weighed = []
    panel = quadrature._panel

    def counted_panel(stack, h):
        weighed.append(len(stack))
        return panel(stack, h)

    monkeypatch.setattr(quadrature, "_panel", counted_panel)
    calls = []

    def many(xs):
        calls.append(np.array(xs))
        return np.array([math.sin(40 * x) for x in xs])

    val, err = quadrature.integrate(many, 0.0, np.pi, breakpoints=breaks, vectorized=True)
    initial = len(breaks) + 1
    assert weighed == [15] * panels
    # one call for the initial panels, then one per bisection, on both halves
    assert len(calls) == 1 + (panels - initial) // 2
    assert [len(xs) for xs in calls] == [15 * initial] + [30] * (len(calls) - 1)
    assert all(np.all(np.diff(xs) > 0) for xs in calls)
    assert sum(len(xs) for xs in calls) == 15 * panels

    # the scalar path sees the same nodes one at a time, in the same order
    nodes = []

    def one(x):
        nodes.append(x)
        return np.array(math.sin(40 * x))

    val_s, err_s = quadrature.integrate(one, 0.0, np.pi, breakpoints=breaks)
    assert np.array_equal(np.array(nodes), np.concatenate(calls))
    assert val_s == val and err_s == err
