import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockweyl.config import _measure_from_config
from blockweyl.errors import StructuralError
from blockweyl.measures import (
    IntervalSpec,
    MatrixMeasure,
    Segment,
    integrate_bv,
    validate_measure,
)


def pointwise(g, rhs=None):
    """Integrand ``g dm`` (or ``g dm rhs``) of integrate_bv, one point at a time."""

    def integrand(xs, dms):
        terms = []
        for x, dm in zip(xs, dms):
            term = np.asarray(g(float(x)), dtype=complex) @ dm
            if rhs is not None:
                term = term @ np.asarray(rhs(float(x)), dtype=complex)
            terms.append(term)
        return np.stack(terms)

    return integrand


def test_nonnegative_degenerate_atom_is_valid():
    m = MatrixMeasure.point(0.0, np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert validate_measure(m, "nonnegative").ok


def test_hermiticity_violation_reported_with_magnitude():
    m = MatrixMeasure.point(0.0, np.array([[0.0, 1.0], [0.0, 0.0]]))
    rep = validate_measure(m, "hermitian")
    assert not rep.ok
    v = rep.violations[0]
    assert v["kind"] == "hermiticity" and v["location"] == 0.0
    assert abs(v["magnitude"] - 1.0) < 1e-12


def test_psd_violation_reports_min_eigenvalue():
    m = MatrixMeasure.point(0.0, np.array([[-1.0, 0.0], [0.0, 0.0]]))
    rep = validate_measure(m, "nonnegative")
    assert not rep.ok
    assert rep.violations[0]["kind"] == "psd"
    assert abs(rep.violations[0]["magnitude"] - 1.0) < 1e-12


def test_density_samples_checked():
    bad = MatrixMeasure(
        dim=2,
        segments=(Segment((0.0, 1.0), lambda x: np.array([[0.0, 1.0], [0.0, 0.0]])),),
    )
    assert not validate_measure(bad, "hermitian").ok


def test_atom_at_examples():
    q4 = MatrixMeasure.point(0.0, np.diag([0.0, 2.0]))
    assert np.array_equal(q4.atom_at(0.0), np.diag([0.0, 2.0]))
    assert np.array_equal(q4.atom_at(0.3), np.zeros((2, 2)))
    # additivity of weights models the sum of two measures sharing an atom
    combined = MatrixMeasure.point(0.0, np.diag([0.0, 2.0]) + np.diag([1.0, 0.0]))
    assert np.array_equal(
        combined.atom_at(0.0), q4.atom_at(0.0) + np.diag([1.0, 0.0])
    )


def test_structural_errors():
    with pytest.raises(StructuralError):
        MatrixMeasure(dim=2, atoms=((1.0, np.eye(2)), (0.5, np.eye(2))))
    with pytest.raises(StructuralError):
        MatrixMeasure(
            dim=2,
            segments=(
                Segment((0.0, 2.0), lambda x: np.eye(2)),
                Segment((1.0, 3.0), lambda x: np.eye(2)),
            ),
        )
    with pytest.raises(StructuralError):
        IntervalSpec(2.0, 1.0)


def test_integrate_constant_identity():
    m = MatrixMeasure.constant(np.eye(2), (0.0, np.pi))
    val = integrate_bv(pointwise(lambda x: np.eye(2)), m, IntervalSpec(0.0, np.pi))
    assert np.max(np.abs(val - np.pi * np.eye(2))) < 1e-12


def test_integrate_rejects_an_unbounded_segment():
    # int_0^inf e^-x dx = 1 is out of reach of the finite Gauss-Kronrod rule:
    # the segment is refused, not dropped as if it carried no mass
    m = MatrixMeasure(dim=1, segments=(Segment((0.0, np.inf), coeffs=np.ones((1, 1, 1))),))
    with pytest.raises(StructuralError, match=r"segment \(0.0, inf\)"):
        integrate_bv(pointwise(lambda x: np.array([[np.exp(-x)]])), m, IntervalSpec(0.0, np.inf))
    val = integrate_bv(pointwise(lambda x: np.array([[np.exp(-x)]])), m, IntervalSpec(0.0, 1.0))
    assert abs(val[0, 0] - (1.0 - np.exp(-1.0))) < 1e-12


def test_fixed_rules_take_their_pieces_and_leave_the_rest_adaptive():
    # cos(5x) against a density with an atom on (0, 3): the pieces (0.5, 1)
    # and (1, 2) take 24- and 32-point rules, evaluated in one call, and the
    # stretches (0, 0.5) and (2, 3) take the adaptive quadrature
    m = MatrixMeasure(dim=1, segments=(Segment((0.0, 3.0), coeffs=np.ones((1, 1, 1))),),
                      atoms=((2.5, 2.0 * np.ones((1, 1))),))
    batches = []

    def integrand(xs, dms):
        batches.append(len(xs))
        return np.cos(5.0 * xs)[:, None, None] * dms

    want = (np.sin(15.0) / 5.0 + 2.0 * np.cos(12.5)) * np.ones((1, 1))
    val = integrate_bv(integrand, m, IntervalSpec(0.0, 3.0), fixed=[(1.0, 2.0, 32), (0.5, 1.0, 24)])
    assert np.max(np.abs(val - want)) < 1e-13
    assert batches[0] == 56 and len(batches) > 2


def test_integrate_balanced_step_against_atom():
    # g is the balanced step: identity left of 0, zero right, g(0) = I/2
    def g(x):
        if x < 0:
            return np.eye(2)
        if x > 0:
            return np.zeros((2, 2))
        return 0.5 * np.eye(2)

    m = MatrixMeasure.point(0.0, np.diag([2.0, 0.0]))
    val = integrate_bv(pointwise(g), m, IntervalSpec(-1.0, 1.0))
    assert np.max(np.abs(val - np.diag([1.0, 0.0]))) < 1e-14

    # open lower endpoint at the atom excludes it
    val2 = integrate_bv(pointwise(g), m, IntervalSpec(0.0, 1.0, include_lower=False))
    assert np.max(np.abs(val2)) == 0.0


def test_endpoint_inclusion_flags_govern_atoms():
    m = MatrixMeasure.point(0.5, np.eye(2))
    for lower_inc in (True, False):
        val = integrate_bv(
            pointwise(lambda x: np.eye(2)), m, IntervalSpec(0.5, 1.0, include_lower=lower_inc)
        )
        expect = np.eye(2) if lower_inc else np.zeros((2, 2))
        assert np.array_equal(val, expect)


@settings(max_examples=20, deadline=None)
@given(
    split=st.floats(min_value=0.1, max_value=2.9),
    atom_x=st.floats(min_value=0.2, max_value=2.8),
    mass=st.floats(min_value=0.1, max_value=3.0),
)
def test_additivity_over_split(split, atom_x, mass):
    m = MatrixMeasure(
        dim=2,
        segments=(Segment((0.0, 3.0), lambda x: np.eye(2) * (1 + 0.25 * x), degree=1),),
        atoms=((atom_x, mass * np.eye(2)),),
    )
    g = lambda x: np.array([[np.cos(x), 0.1 * x], [0.0, 1.0]])
    whole = integrate_bv(pointwise(g), m, IntervalSpec(0.0, 3.0))
    left = integrate_bv(pointwise(g), m, IntervalSpec(0.0, split, include_upper=True))
    right = integrate_bv(pointwise(g), m, IntervalSpec(split, 3.0, include_lower=False))
    assert np.max(np.abs(whole - left - right)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**6 - 1))
def test_conjugate_symmetry_for_hermitian_measure(seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    W = W + W.conj().T
    m = MatrixMeasure(
        dim=2,
        segments=(Segment((0.0, 1.0), lambda x: np.eye(2) * (1 + x), degree=1),),
        atoms=((0.5, W),),
    )
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = lambda x: G * np.exp(0.3 * x)
    gstar = lambda x: g(x).conj().T
    iv = IntervalSpec(0.0, 1.0)
    lhs = integrate_bv(pointwise(g), m, iv).conj().T
    rhs = integrate_bv(pointwise(lambda x: np.eye(2), rhs=gstar), m, iv)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# -- density_many against density_at ----------------------------------------

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def mixed_measures(draw):
    """A measure of coefficient and callable segments, some sharing an edge,
    and points on every edge, outside every segment and inside them."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    edges = sorted(set(draw(st.lists(finite, min_size=count + 1, max_size=count + 1))))
    if len(edges) < 2:
        edges = [edges[0], edges[0] + 1.0]
    segments = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if draw(st.booleans()) and segments:  # a gap between two segments
            continue
        degree = draw(st.integers(0, 3))
        re, im = (np.array(draw(st.lists(finite, min_size=(degree + 1) * n * n, max_size=(degree + 1) * n * n)))
                  for _ in "ri")
        coeffs = (re + 1j * im).reshape(degree + 1, n, n)
        if draw(st.booleans()):
            segments.append(Segment((lo, hi), coeffs=coeffs))
        else:
            segments.append(Segment((lo, hi), lambda x, c=coeffs: sum(ck * x**k for k, ck in enumerate(c))))
    inner = draw(st.lists(st.floats(edges[0], edges[-1]), max_size=8))
    outside = [edges[0] - 1.0, edges[-1] + 0.5]
    xs = np.array(sorted(inner + edges + outside))
    return MatrixMeasure(dim=n, segments=tuple(segments)), xs


@settings(max_examples=200, deadline=None)
@given(mixed_measures())
def test_density_many_is_bitwise_stacked_density_at(case):
    m, xs = case
    stacked = np.stack([m.density_at(float(x)) for x in xs])
    many = m.density_many(xs)
    assert many.shape == stacked.shape and many.tobytes() == stacked.tobytes()
    assert m.density_many(np.array([])).shape == (0, m.dim, m.dim)


def test_density_many_sums_segments_at_a_shared_edge():
    m = MatrixMeasure(
        dim=2,
        segments=(
            Segment((0.0, 1.0), coeffs=np.stack([np.eye(2), 2.0 * np.eye(2)])),
            Segment((1.0, 2.0), lambda x: 5.0 * np.eye(2)),
        ),
    )
    vals = m.density_many(np.array([-1.0, 0.5, 1.0, 1.5, 3.0]))
    assert np.array_equal(vals[:, 0, 0], [0.0, 2.0, 8.0, 5.0, 0.0])
    assert not vals[:, 0, 1].any()


def test_coefficient_segment_degree_and_evaluator():
    # trailing zero coefficients do not raise the degree, from data or from a config
    seg = Segment((0.0, 1.0), coeffs=np.stack([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]))
    assert seg.degree == 0 and seg.coeffs.shape == (1, 2, 2)
    assert np.array_equal(seg.density(0.7), np.eye(2))
    padded = _measure_from_config(
        {"segments": [{"interval": [0.0, 1.0], "coeffs": [[[1.0, 0.0], [0.0]], [[0.0], [1.0, 0.0, 0.0]]]}]},
        2, "w",
    )
    (seg,) = padded.segments
    assert seg.degree == 0 and np.array_equal(seg.coeffs, np.eye(2)[None])
    assert MatrixMeasure.constant(np.eye(2), (0.0, 1.0)).segments[0].degree == 0
    with pytest.raises(StructuralError):
        Segment((0.0, 1.0))
    with pytest.raises(StructuralError):
        Segment((0.0, 1.0), coeffs=np.zeros((2, 2)))
