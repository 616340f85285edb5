"""rwpot.solver's ctypes calls into scipy's bundled BLAS and LAPACK, bit
for bit against scipy.linalg's own wrappers of the same routines (the
solver never imports scipy.linalg; the tests may), and their nonzero-info
paths, each of which raises SolverError naming its routine."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from rwpot import solver
from rwpot.concentration import prop_box
from rwpot.errors import SolverError
from rwpot.lattice import BoxRegion
from rwpot.potential import DistributionSpec, sample_field
from util_oracles import f2py_selected_inverse

TP = DistributionSpec.two_point(0.2, 1.0, 0.5)
EXP = DistributionSpec.exponential(1.0)

# compare_restricted's two boxes (625 and 2401 sites) and the d=3 cube of
# 2197 sites, killed at a target: S's band shape (bw + 1, n) on each
BANDS = [(prop_box((8, 0), 1.5), (8, 0), (26, 313)),
         (prop_box((8, 0), 3.0), (8, 0), (50, 1201)),
         (BoxRegion.centered(6, 3), (2, 1, 0), (170, 1099))]


def _schur_band(monkeypatch, box, kill, seed=1):
    """S's band on the box killed at kill, as _factor hands it to dpbtrf,
    before factoring, and the operator."""
    bands, real = [], solver.dpbtrf
    monkeypatch.setattr(solver, "dpbtrf",
                        lambda ab, **k: bands.append(ab.copy(order="F")) or real(ab, **k))
    kw = solver._KilledWalk(sample_field(TP, box, seed), box, kill=kill)
    kw._factor()
    monkeypatch.undo()
    return bands[0], kw


def _upper(lower):
    """The upper band storage ab[kd + i - j, j] = A[i, j] of the symmetric
    band held in lower storage lower[i - j, j] = A[i, j]."""
    kd, n = lower.shape[0] - 1, lower.shape[1]
    up = np.zeros_like(lower, order="F")
    for a in range(kd + 1):
        up[kd - a, a:] = lower[a, :n - a]
    return up


@pytest.mark.parametrize("box, kill, shape", BANDS)
def test_band_cholesky_and_solve_are_scipys_bits(monkeypatch, box, kill, shape):
    band, kw = _schur_band(monkeypatch, box, kill)
    assert band.shape == shape
    work = band.copy(order="F")
    ours, info = solver.dpbtrf(work, lower=1, overwrite_ab=1)
    ref, ref_info = lapack.dpbtrf(band, lower=1)
    assert info == ref_info == 0 and np.array_equal(ours, ref)
    assert np.shares_memory(ours, work)  # overwritten in place, as asked
    kept = band.copy(order="F")
    solver.dpbtrf(kept, lower=1)
    assert np.array_equal(kept, band)  # and left alone otherwise
    up, up_info = solver.dpbtrf(_upper(band))
    up_ref, up_ref_info = lapack.dpbtrf(_upper(band))
    assert up_info == up_ref_info == 0 and np.array_equal(up, up_ref)
    rhs = kw.kill_vector()[kw.colours[0]]
    many = np.random.default_rng(0).standard_normal((len(rhs), 3))
    for b in (rhs, many, np.asfortranarray(many)):
        x, info = solver.dpbtrs(ours, b.copy(), lower=1, overwrite_b=1)
        y, ref_info = lapack.dpbtrs(ref, b, lower=1)
        assert info == ref_info == 0 and np.array_equal(x, y)
    x, _ = solver.dpbtrs(up, many)
    assert np.array_equal(x, lapack.dpbtrs(up, many)[0])


@pytest.mark.parametrize("box, kill, shape", BANDS)
def test_green_diagonal_kernel_is_the_bits_of_scipys_wrappers(monkeypatch, box, kill, shape):
    factor = _schur_band(monkeypatch, box, kill)[1]._factor()
    assert factor.shape == shape
    ref = f2py_selected_inverse(factor)
    assert np.array_equal(solver._selected_inverse(factor.copy(order="F")), ref)


def _gauged_bands(monkeypatch):
    """The general bands (and right-hand sides) that log_kill_weight hands
    to solve_banded: a d=2 box, a d=3 box and a strip, each killed at a
    target, at a log-scale c |z - x|_1."""
    seen, real = [], solver.solve_banded
    monkeypatch.setattr(solver, "solve_banded",
                        lambda lu, ab, b: seen.append((lu, ab.copy(), b.copy())) or real(lu, ab, b))
    for box, x in ((BoxRegion.centered(5, 2), (4, 0)), (BoxRegion.centered(3, 3), (2, 1, 0)),
                   (BoxRegion((-1, -1), (9, 2)), (6, 0))):
        kw = solver._KilledWalk(sample_field(EXP, box, 7), box, kill=x)
        gauge = np.empty(len(kw.ss))
        gauge[kw.keys] = 0.8 * np.abs(kw.ss.sites - np.asarray(x)).sum(axis=1)
        kw.log_kill_weight(gauge)
    monkeypatch.undo()
    return seen


def test_general_band_solve_is_scipys_solve_banded(monkeypatch):
    # scipy runs dgbsv for l + u > 1: the same bits, on the gauged bands
    # the log-space path solves and on random bands whose pivots swap rows
    cases = _gauged_bands(monkeypatch)
    assert [lu for lu, _, _ in cases] == [(11, 11), (49, 49), (3, 3)]
    rng = np.random.default_rng(3)
    for lu in ((2, 2), (3, 2), (0, 2), (2, 0), (7, 7)):
        for n in (1, 2, 5, 40):
            cases.append((lu, rng.standard_normal((sum(lu) + 1, n)), rng.standard_normal(n)))
            cases.append((lu, cases[-1][1], rng.standard_normal((n, 2))))
    for lu, ab, b in cases:
        assert np.array_equal(solver.solve_banded(lu, ab, b), scipy.linalg.solve_banded(lu, ab, b))


def test_general_band_solve_below_two_diagonals_agrees_with_scipy():
    # scipy solves a tridiagonal band by dgtsv, which rounds otherwise
    rng = np.random.default_rng(4)
    for lu in ((1, 1), (1, 0), (0, 1), (0, 0)):
        for n in (1, 2, 30):
            ab = rng.uniform(-1.0, 1.0, (sum(lu) + 1, n))
            ab[lu[1]] += 4.0  # diagonally dominant: no pivot is tiny
            b = rng.standard_normal(n)
            ref = scipy.linalg.solve_banded(lu, ab, b)
            assert np.allclose(solver.solve_banded(lu, ab, b), ref, rtol=1e-14, atol=0.0)


def test_nonzero_info_of_each_routine_raises_solver_error():
    # a band that is not positive definite: the leading minor of order 2
    ab = np.array([[1.0, 1.0, 1.0], [2.0, 0.0, 0.0]], order="F")
    assert solver.dpbtrf(ab, lower=1)[1] == lapack.dpbtrf(ab, lower=1)[1] == 2
    box = BoxRegion.centered(3, 2)
    kw = solver._KilledWalk(sample_field(TP, box, 1), box)
    kw.coupling = kw.coupling * 4.0
    with pytest.raises(SolverError, match="dpbtrf info"):
        kw._factor()
    # a singular triangular block of the Green-diagonal kernel
    factor = solver._KilledWalk(sample_field(TP, box, 1), box)._factor().copy(order="F")
    factor[0, 20] = 0.0
    with pytest.raises(SolverError, match="dtrtri info"):
        solver._selected_inverse(factor)
    # a singular general band, where scipy.linalg.solve_banded raises LinAlgError
    for lu in ((2, 2), (1, 1)):
        ab = np.zeros((sum(lu) + 1, 6))
        with pytest.raises(SolverError, match="dgbsv info"):
            solver.solve_banded(lu, ab, np.ones(6))
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.solve_banded(lu, ab, np.ones(6))


def test_the_solver_calls_the_library_scipy_linalg_loads():
    assert solver._BLAS._name == scipy.linalg._fblas.__file__


def test_arguments_lapack_would_read_past_are_refused():
    cb = solver.dpbtrf(np.array([[4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]), lower=1)[0]
    for b in (np.ones(2), np.ones(4), np.ones((2, 3)), np.ones((3, 1, 1))):
        with pytest.raises(ValueError):
            solver.dpbtrs(cb, b, lower=1)
    with pytest.raises(ValueError):
        solver.dpbtrf(np.ones(3), lower=1)
    with pytest.raises(ValueError):
        solver.solve_banded((1, 1), np.ones((2, 3)), np.ones(3))
    with pytest.raises(ValueError):
        solver.solve_banded((1, 1), np.ones((3, 3)), np.ones(4))
