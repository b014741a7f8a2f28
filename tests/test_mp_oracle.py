"""P2 and P3 against a 50-digit propagation: ``mpmath.expm`` on each constant
stretch and the exact atom transfer ``B_plus^-1 B_minus``."""

import mpmath as mp
import numpy as np
import pytest

from types import SimpleNamespace

from blockweyl.assembly import assemble_blocks, norm_zero_space
from blockweyl.engine import Engine
from blockweyl.propagation import fundamental_matrix
from blockweyl.spectral import eigen_scan
from blockweyl.weyl import m_function

LAMS = (1j, 7.3 + 0.2j, 40.5)


def _mp(a) -> mp.matrix:
    return mp.matrix([[mp.mpc(complex(v)) for v in row] for row in np.atleast_2d(a)])


def oracle(sysm, lam, x0: float, x: float, side: str) -> mp.matrix:
    """The 50-digit transfer from ``u(x0)`` (``x0`` no atom) to the ``side`` limit at ``x``.

    Both densities must be constant on the interval; every atom strictly
    between ``x0`` and ``x``, and one at ``x`` on the far side from ``x0``,
    is crossed.
    """
    with mp.workdps(50):
        lam = mp.mpc(complex(lam))
        mid = 0.5 * sum(sysm.interval)
        J = _mp(sysm.J)
        A = mp.inverse(J) * (lam * _mp(sysm.w.density_at(mid)) - _mp(sysm.q.density_at(mid)))
        right = x > x0
        atoms = [p for p in sysm.atom_positions() if min(x0, x) < p < max(x0, x)]
        if x in sysm.atom_positions() and side == ("right" if right else "left"):
            atoms.append(x)
        U, cur = mp.eye(len(sysm.J)), mp.mpf(x0)
        for p in sorted(atoms, reverse=not right):
            U = mp.expm(A * (mp.mpf(p) - cur)) * U
            step = (_mp(sysm.q.atom_at(p)) - lam * _mp(sysm.w.atom_at(p))) / 2
            minus, plus = J - step, J + step
            U = (mp.inverse(plus) * minus if right else mp.inverse(minus) * plus) * U
            cur = mp.mpf(p)
        return mp.expm(A * (mp.mpf(x) - cur)) * U


@pytest.mark.parametrize("name, xs", [
    ("p2", (0.0, 0.4, np.pi / 2, 2.0, 3 * np.pi / 4, np.pi)),
    ("p3", (0.0, 0.4, 1.0, 1.5, 1.9, 2.0)),
])
def test_fundamental_matrices_against_50_digits(name, xs, request):
    sysm, _ = request.getfixturevalue(name)
    anchor = Engine(sysm).anchors[0]
    for lam in LAMS:
        U = fundamental_matrix(sysm, 0, lam)
        for x in xs:
            for side in ("left", "right"):
                exact = np.array(oracle(sysm, lam, anchor, x, side).tolist(), dtype=complex)
                err = np.max(np.abs(getattr(U, side)(x) - exact))
                assert err <= 1e-12 * max(1.0, np.max(np.abs(exact))), (name, lam, x, side, err)


def test_p2_eigenvalues_against_50_digit_roots(p2, e2):
    # u_1(0) = u_1(pi) = 0: an eigenvalue is a root of the first entry of T(0 -> pi) e_2
    sysm, bc = p2
    a, b = sysm.interval
    points = eigen_scan(sysm, bc, 0.7, 4.7, engine=e2)
    assert len(points) == 4

    def boundary_determinant(lam):
        return oracle(sysm, lam, a, b, "left")[0, 1]

    with mp.workdps(50):
        for point in points:
            root = mp.findroot(boundary_determinant, mp.mpf(point.value), verify=False)
            assert abs(point.value - float(mp.re(root))) <= 1e-11


@pytest.mark.parametrize("name", ["p2", "p3"])
def test_weyl_sample_against_50_digit_transfers(name, request):
    # ``P F^+ H J^-1 P`` at lam = i, with the constraint matrix and sources
    # assembled from the 50-digit transfers and the formula taken at 50 digits
    sysm, bc = request.getfixturevalue(name)
    eng = Engine(sysm, bc)
    norm_zero_space(sysm, engine=eng)  # from the engine's own rows, before they are replaced
    assert len(eng.anchors) == 1  # one block: the atom is crossed inside the transfer

    def transfer(side):
        return lambda x: np.array(oracle(sysm, 1j, eng.anchors[0], x, side).tolist(), dtype=complex)

    eng.row = lambda lam: SimpleNamespace(fundamentals=[SimpleNamespace(left=transfer("left"), right=transfer("right"))])
    asm = assemble_blocks(sysm, bc, 1j, engine=eng)
    with mp.workdps(50):
        F, P, Jinv = _mp(asm.constraints), _mp(asm.projector), _mp(eng.J_blocks_inv)
        H = (_mp(asm.source_left) + _mp(asm.source_right)) / 2
        exact = P * mp.inverse(F.H * F) * F.H * H * Jinv * P
        exact = np.array(exact.tolist(), dtype=complex)
    got = m_function(sysm, bc, 1j, engine=Engine(sysm, bc)).m
    assert np.max(np.abs(got - exact)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))
