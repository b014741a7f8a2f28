"""Engine lifecycle: caller-owned, bounded, keyed by boundary data, thread-safe."""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from blockweyl import engine as engine_module
from blockweyl.cli import ProblemConfig
from blockweyl.engine import Engine
from blockweyl.propagation import VectorFunction
from blockweyl.spectral import spectral_measure_model, stieltjes_inversion
from blockweyl.system import BoundaryConditions
from blockweyl.transform import forward_transform
from blockweyl.weyl import m_function, m_function_many


def test_calls_without_an_engine_keep_nothing_alive():
    refs = []
    for _ in range(20):
        cfg = ProblemConfig.load("P1")
        m_function(cfg.system, cfg.boundary, 1j)
        refs += [weakref.ref(cfg.system), weakref.ref(cfg.boundary)]
        del cfg
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0


def test_weyl_samples_are_keyed_by_boundary_data(p1):
    sysm, bc1 = p1
    # the same free system with the conditions on the second component
    bc2 = BoundaryConditions(Ga=np.array([[0.0, 1.0], [0.0, 0.0]]), Gb=np.array([[0.0, 0.0], [0.0, 1.0]]))
    shared = Engine(sysm, bc1)
    m1 = m_function(sysm, bc1, 1j, engine=shared).m
    m2 = m_function(sysm, bc2, 1j, engine=shared).m
    assert np.array_equal(m2, m_function(sysm, bc2, 1j, engine=Engine(sysm, bc2)).m)
    assert np.array_equal(m1, m_function(sysm, bc1, 1j, engine=Engine(sysm, bc1)).m)
    assert abs(m1[0, 0]) < 1e-12 and abs(m2[1, 1]) < 1e-12
    assert abs(m1[1, 1] - m2[0, 0]) < 1e-12 and abs(m1[1, 1]) > 1.0


def test_memo_eviction_bounds_the_store_and_keeps_results(p1, monkeypatch):
    sysm, bc = p1
    roomy = Engine(sysm, bc)
    full = stieltjes_inversion(sysm, bc, 0.5, 1.5, engine=roomy)
    assert len(roomy._memo) > 64  # the run below must evict
    monkeypatch.setattr(engine_module, "MEMO_CAPACITY", 64)
    tight = Engine(sysm, bc)
    bounded = stieltjes_inversion(sysm, bc, 0.5, 1.5, engine=tight)
    assert len(tight._memo) <= 64
    assert len(tight._rows) <= engine_module.ROW_CAPACITY
    assert np.array_equal(bounded[0], full[0]) and bounded[1] == full[1]


def test_rows_builds_the_missing_rows_in_one_array_call(p1, monkeypatch):
    from test_magnus import assert_same_row

    eng = Engine(*p1)
    cached = eng.row(0.5 + 1j)
    builds = []
    build = engine_module.solution_row
    monkeypatch.setattr(engine_module, "solution_row",
                        lambda sys, lam, **kw: builds.append(np.shape(lam)) or build(sys, lam, **kw))
    rows = eng.rows([2 + 1j, 0.5 + 1j, 2 - 1j, 2 + 1j])
    assert rows[1] is cached and rows[0] is rows[3] is eng.row(2 + 1j) and rows[2] is eng.row(2 - 1j)
    assert builds == [(2,)]  # the two missing rows, together; later calls hit the cache
    assert_same_row(rows[2], Engine(*p1).row(2 - 1j))


def test_rows_of_a_batch_larger_than_the_store_are_not_rebuilt(p1, monkeypatch):
    # the batch's own inserts push its two stored rows, asked for last, out
    # of a store of four; they are returned as the peek found them, not
    # built again
    monkeypatch.setattr(engine_module, "ROW_CAPACITY", 4)
    eng = Engine(*p1)
    stored = [eng.row(lam) for lam in (1j, 2j)]
    builds = []
    build = engine_module.solution_row
    monkeypatch.setattr(engine_module, "solution_row",
                        lambda sys, lam, **kw: builds.append(np.shape(lam)) or build(sys, lam, **kw))
    rows = eng.rows([3j, 4j, 5j, 6j, 1j, 2j])
    assert builds == [(4,)] and rows[4] is stored[0] and rows[5] is stored[1]
    assert len(eng._rows) == 4


def test_gram_of_rotation_rows_on_p1(p1):
    # P1 rows at real s are rotations and w = I dx on (0, pi): the Gram matrix is pi I
    eng = Engine(*p1)
    for s in (0.0, 1.5, 40.0, 79.5):
        assert np.max(np.abs(eng.gram(s) - np.pi * np.eye(2))) < 1e-12


@pytest.mark.parametrize("name", ["P1", "P2", "P4"])
def test_shared_engine_under_threads_matches_serial_run(name):
    cfg = ProblemConfig.load(name)
    sysm, bc = cfg.system, cfg.boundary
    a = sysm.interval[0]
    model = spectral_measure_model(sysm, bc, cfg.scan_range, engine=Engine(sysm, bc))
    assert model.atoms
    grid = [complex(s, e) for s in np.linspace(-3.0, 3.0, 9) for e in (0.1, -0.1, 1.0)]
    data = [
        VectorFunction(lambda x, k=k: np.array([np.cos(k * x), x - a], dtype=complex))
        for k in range(3)
    ]

    def tasks(eng):
        weyl = [lambda lam=lam: m_function(sysm, bc, lam, engine=eng) for lam in grid]
        fourier = [lambda f=f: forward_transform(sysm, bc, model, f, engine=eng).values for f in data]
        batches = [lambda k=k: m_function_many(sysm, bc, grid[k:k + 4], engine=eng, with_witness=True)
                   for k in range(0, len(grid), 4)]
        return 4 * (weyl + fourier + batches)  # every key is asked for four times, possibly at once

    serial_engine, shared = Engine(sysm, bc), Engine(sysm, bc)
    serial = [task() for task in tasks(serial_engine)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that races show
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(task) for task in tasks(shared)]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    distinct = len(threaded) // 4
    stored = {sample.lam: sample for sample in threaded[:len(grid)]}
    for i, (one, other) in enumerate(zip(serial, threaded)):
        if isinstance(one, np.ndarray):
            assert np.array_equal(one, other)
        elif isinstance(one, list):  # a batch hands out the samples stored for its keys
            assert all(np.array_equal(a.m, b.m) and b is stored[b.lam] for a, b in zip(one, other))
        else:
            assert np.array_equal(one.m, other.m)
            assert other is threaded[i % distinct]  # one stored value per key
    assert set(shared._memo) == set(serial_engine._memo)
    assert set(shared._rows) == set(serial_engine._rows)
