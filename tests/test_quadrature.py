import cmath
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


PANEL = quadrature._panel  # the panel rule itself, whatever a test patches in


def sequential_integrate(f, lo, hi, *, breakpoints=(), rel_tol=1e-10, abs_tol=1e-13,
                         max_panels=4096, vectorized=False):
    """The adaptive loop with one integrand call per bisection, as it was
    before bisections were evaluated ahead: the reference for the panel set,
    the sums and the budget error of :func:`quadrature.integrate`."""
    edges = [lo]
    for b in sorted(set(float(b) for b in breakpoints)):
        if lo < b < hi and b - edges[-1] > 1e-15 * max(1.0, abs(b)):
            edges.append(b)
    edges.append(hi)

    def values(xs):
        if vectorized:
            return np.asarray(f(xs), dtype=complex)
        return np.stack([np.asarray(f(x), dtype=complex) for x in xs])

    def nodes(a, b):
        h = 0.5 * (b - a)
        return 0.5 * (a + b) + h * quadrature._NODES, h

    heap, total, total_err, accepted_err, resabs_total, counter = [], None, 0.0, 0.0, 0.0, 0
    panels = list(zip(edges[:-1], edges[1:]))
    first = [nodes(a, b) for a, b in panels]
    stack = values(np.concatenate([xs for xs, _ in first]))
    for k, ((a, b), (_, h)) in enumerate(zip(panels, first)):
        val, err = PANEL(stack[15 * k : 15 * (k + 1)], h)
        total = val if total is None else total + val
        total_err += err
        resabs = h * quadrature._weigh(quadrature._KRONROD_W, np.abs(stack[15 * k : 15 * (k + 1)]))
        resabs_total += float(np.max(resabs))
        heapq.heappush(heap, (-err, counter, a, b, val))
        counter += 1

    def tol_met():
        scale = max(resabs_total, float(np.max(np.abs(total))))
        return total_err <= max(abs_tol, rel_tol * scale)

    while not tol_met():
        if counter >= max_panels:
            raise AccuracyError("budget", achieved=total_err + accepted_err)
        neg_err, _, a, b, val = heapq.heappop(heap)
        err = -neg_err
        mid = 0.5 * (a + b)
        if quadrature._at_resolution(a, b):
            total_err -= err
            accepted_err += max(err, float(np.max(np.abs(val))))
            continue
        (x1, h1), (x2, h2) = nodes(a, mid), nodes(mid, b)
        stack = values(np.concatenate([x1, x2]))
        v1, e1 = PANEL(stack[:15], h1)
        v2, e2 = PANEL(stack[15:], h2)
        total = total - val + v1 + v2
        total_err = total_err - err + e1 + e2
        heapq.heappush(heap, (-e1, counter, a, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2))
        counter += 1
    return total, total_err + accepted_err


def outcome(integrate, *args, **kwargs):
    """(value, error) of an integral, or the ``achieved`` of its budget error."""
    try:
        return integrate(*args, **kwargs)
    except AccuracyError as exc:
        return "budget", exc.achieved


def same_bits(got, want):
    """Two outcomes of :func:`outcome` agree bit for bit."""
    a, b = np.asarray(got[0]), np.asarray(want[0])
    assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()
    assert np.asarray(got[1]).tobytes() == np.asarray(want[1]).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    k=st.floats(1.0, 120.0),
    lo=st.floats(-2.0, 1.0),
    length=st.floats(0.1, 4.0),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
    rel_tol=st.sampled_from([1e-6, 1e-9, 1e-10, 1e-12, 1e-14]),
    abs_tol=st.sampled_from([1e-13, 1e-10, 1e-300]),
    max_panels=st.sampled_from([33, 64, 301, 4096]),
    vectorized=st.booleans(),
)
def test_bitwise_equal_to_sequential_bisection(k, lo, length, cuts, rel_tol, abs_tol,
                                                max_panels, vectorized):
    hi = lo + length
    breaks = [lo + c * length for c in cuts]
    if vectorized:  # matrix-valued, complex, point by point so each value is batch-free
        f = lambda xs: np.array([[[math.sin(k * x), x * math.cos(k * x)],
                                  [cmath.exp(1j * k * x * x), abs(x - lo - 0.3 * length) ** 0.5]]
                                 for x in xs])
    else:
        f = lambda x: np.array(math.sin(k * x) * math.exp(-x * x) + abs(x - hi + 0.2 * length) ** 0.3)
    opts = dict(breakpoints=breaks, rel_tol=rel_tol, abs_tol=abs_tol,
                max_panels=max_panels, vectorized=vectorized)
    same_bits(outcome(quadrature.integrate, f, lo, hi, **opts),
              outcome(sequential_integrate, f, lo, hi, **opts))


@pytest.mark.parametrize("below, above", [(1e12, 0.0), (0.0, 1e12)])
def test_panel_at_floating_point_resolution_is_accepted(below, above):
    # a jump of 1e12 at 1.0, two ulps inside [1 - 2^-52, 1 + 2^-52]: the
    # bisection at 1.0 leaves [1, 1 + 2^-52], whose midpoint rounds onto its
    # left end while its nodes still straddle the jump, so its error cannot
    # shrink; the panel is accepted with its value, and its error leaves the
    # stopping test but stays in the returned estimate
    f = lambda x: np.array(below if x < 1.0 else above)
    lo, hi = 1.0 - 2.0**-52, 1.0 + 2.0**-52
    val, err = quadrature.integrate(f, lo, hi)
    assert err >= 1e-5 and 0.0 < abs(val) <= 1e12 * (hi - lo)
    same_bits((val, err), sequential_integrate(f, lo, hi))


@pytest.mark.parametrize("below, above", [(1e12, 0.0), (0.0, 1e12)])
def test_panel_at_floating_point_resolution_reports_its_value_as_error(below, above):
    # [1, 1 + 2^-52] cannot be bisected, and its nodes straddle the jump at
    # 1.0, where the Kronrod-Gauss gap (1.01e-5 on the two-ulp panel around
    # it) is no estimate; the panel reports its whole value as error, which
    # here covers the true error
    f = lambda x: np.array(below if x < 1.0 else above)
    lo, hi = 1.0, 1.0 + 2.0**-52
    val, err = quadrature.integrate(f, lo, hi)
    assert err == abs(val) > 1e-5
    assert err >= abs(val - above * (hi - lo))
    same_bits((val, err), sequential_integrate(f, lo, hi))


@pytest.mark.parametrize("below, above", [(1e12, 0.0), (0.0, 1e12)])
def test_error_of_a_panel_a_few_ulps_wide_covers_the_true_error(below, above):
    # [1 - 2^-52, 1] can be bisected, but the nodes of its halves round onto
    # one or two floats, where their Kronrod-Gauss gaps vanish (the integral
    # returned about 1.11e-4 with an error near 1e-19, a true error of
    # 1.11e-4); it is accepted at resolution and reports its value as error
    f = lambda x: np.array(below if x < 1.0 else above)
    lo, hi = 1.0 - 2.0**-52, 1.0
    val, err = quadrature.integrate(f, lo, hi)
    assert err >= abs(val - below * (hi - lo))
    same_bits((val, err), sequential_integrate(f, lo, hi))


def test_initial_panels_are_cut_to_the_widest_wanted_within_half_the_budget():
    # each base panel is cut at repeated midpoints until no piece is wider
    # than asked; when that would pass half the budget the cuts stop a level
    # short, and with more base panels than half the budget none is cut
    breaks = [0.25, 0.75]
    base = quadrature._initial_panels(0.0, 1.0, breaks, None, 4096)
    assert base == [(0.0, 0.25), (0.25, 0.75), (0.75, 1.0)]
    pieces = quadrature._initial_panels(0.0, 1.0, breaks, lambda a, b: 0.1, 4096)
    assert pieces == [(k / 16, (k + 1) / 16) for k in range(16)]
    assert len(quadrature._initial_panels(0.0, 1.0, breaks, lambda a, b: 1e-6, 4096)) == 3 * 512
    many = list(np.linspace(0.0, 1.0, 3002)[1:-1])
    base = quadrature._initial_panels(0.0, 1.0, many, None, 4096)
    assert len(base) == 3001
    assert quadrature._initial_panels(0.0, 1.0, many, lambda a, b: 1e-9, 4096) == base


@pytest.mark.parametrize("max_panels", [64, 65, 300])
@pytest.mark.parametrize("vectorized", [False, True])
def test_budget_error_achieved_bitwise(max_panels, vectorized):
    one = lambda x: np.array(abs(x - 1 / 3) ** 0.1)
    f = (lambda xs: np.array([one(x) for x in xs])) if vectorized else one
    opts = dict(rel_tol=1e-300, abs_tol=1e-300, max_panels=max_panels, vectorized=vectorized)
    with pytest.raises(AccuracyError) as got:
        quadrature.integrate(f, 0.0, 1.0, **opts)
    with pytest.raises(AccuracyError) as want:
        sequential_integrate(f, 0.0, 1.0, **opts)
    assert got.value.achieved == want.value.achieved


# sin(40 x) on (0, pi): the single initial panel is symmetric about pi/2, where
# the integrand is odd, so it meets the tolerance at once; breakpoints at 1 and
# 2 make it bisect into 73 panels, one integrand call per bisection when the
# bisections are evaluated one at a time
@pytest.mark.parametrize("breaks, calls_at_most", [((), 1), ((1.0, 2.0), 8)])
def test_bisections_evaluated_ahead_in_few_calls(monkeypatch, breaks, calls_at_most):
    weighed = []

    def counted_panel(stack, h):
        weighed.append(len(stack))
        return PANEL(stack, h)

    monkeypatch.setattr(quadrature, "_panel", counted_panel)
    calls = []

    def sines(xs):
        return np.array([math.sin(40 * x) for x in xs])

    def many(xs):
        calls.append(np.array(xs))
        return sines(xs)

    val, err = quadrature.integrate(many, 0.0, np.pi, breakpoints=breaks, vectorized=True)
    assert len(calls) <= calls_at_most
    assert all(np.all(np.diff(xs) > 0) for xs in calls)
    # each evaluated panel, used or not, is weighed once
    assert set(weighed) == {15}
    assert sum(len(xs) for xs in calls) == 15 * len(weighed)
    sequential = []

    def counted_sines(xs):
        sequential.extend(xs)
        return sines(xs)

    same_bits((val, err), sequential_integrate(counted_sines, 0.0, np.pi, breakpoints=breaks, vectorized=True))
    # few halves are evaluated and not used
    assert len(weighed) <= 1.1 * len(sequential) / 15

    # the scalar path sees the same nodes one at a time, in the same order
    nodes = []

    def one(x):
        nodes.append(x)
        return np.array(math.sin(40 * x))

    val_s, err_s = quadrature.integrate(one, 0.0, np.pi, breakpoints=breaks)
    assert np.array_equal(np.array(nodes), np.concatenate(calls))
    assert val_s == val and err_s == err


# -- fixed Gauss-Legendre rules --------------------------------------------


def test_gauss_legendre_matches_scipy_at_every_transform_size():
    # nodes within 2 ulps of the largest node of scipy's, ascending and
    # symmetric, weights summing to 2
    from scipy.special import roots_legendre

    from blockweyl.propagation import _GAUSS_SIZES

    for n in _GAUSS_SIZES.tolist():
        t, w = quadrature.gauss_legendre(n)
        ts, ws = roots_legendre(n)
        assert np.max(np.abs(t - ts)) <= 2 * np.spacing(ts[-1])
        assert np.all(np.diff(t) > 0) and np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
        assert abs(w.sum() - 2.0) <= 8 * np.finfo(float).eps
        assert not t.flags.writeable and not w.flags.writeable


def mp_gauss_node(n, x):
    """A root of ``P_n`` and its weight at 40 digits, by one Newton step from
    the double ``x`` on the three-term recurrence."""
    import mpmath as mp

    def legendre(z):
        prev, p = mp.mpf(1), z
        for k in range(1, n):
            prev, p = p, ((2 * k + 1) * z * p - k * prev) / (k + 1)
        return p, n * (prev - z * p) / (1 - z * z)

    with mp.workdps(40):
        z = mp.mpf(x)
        p, dp = legendre(z)
        z -= p / dp
        _, dp = legendre(z)
        return z, 2 / ((1 - z * z) * dp**2)


@pytest.mark.parametrize("n, step", [(8, 1), (128, 8), (1024, 128)])
def test_gauss_legendre_matches_40_digit_roots(n, step):
    # nodes within eps / 2; a weight within eps (n + 2 / (1 - x^2)), the
    # second term the weight's sensitivity to its node's rounding, which
    # scipy's end weights at n = 1024 (1.8e-9 off) exceed
    eps = np.finfo(float).eps
    t, w = quadrature.gauss_legendre(n)
    for j in sorted(set(range(n // 2, n, step)) | set(range(n - 4, n))):
        x, weight = mp_gauss_node(n, t[j])
        assert abs(float(t[j] - x)) <= eps / 2
        assert abs(float((w[j] - weight) / weight)) <= eps * (n + 2 / (1 - t[j] ** 2))


def test_gauss_legendre_of_odd_size_has_a_zero_middle_node():
    t, w = quadrature.gauss_legendre(7)
    assert t[3] == 0.0 and np.array_equal(t, -t[::-1])
    assert abs(w[3] - 512 / 1225) <= 4e-16  # 2 / P_7'(0)^2, P_7'(0) = -35/16
