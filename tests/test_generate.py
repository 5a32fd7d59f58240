import numpy as np
import pytest

import fracdual as fd


def test_deterministic_per_seed():
    a = fd.generate_program(3, 2, seed=11)
    b = fd.generate_program(3, 2, seed=11)
    assert np.array_equal(a.Q, b.Q)
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.f_vec, b.f_vec)
    assert np.array_equal(a.b_vec, b.b_vec)
    assert a.lam == b.lam and a.delta == b.delta


def test_seeds_differ():
    a = fd.generate_program(3, 2, seed=0)
    b = fd.generate_program(3, 2, seed=1)
    assert not np.array_equal(a.Q, b.Q)


def test_output_is_validated():
    for seed in range(25):
        prog = fd.generate_program(1 + seed % 6, seed % 4, seed=seed)
        assert isinstance(prog, fd.FractionalProgram)
        assert prog.mu0 > 0
        assert prog.mu0 < prog.mu_max or prog.mu_interval.degenerate
        assert 0 < prog.delta <= prog.mu0_inv * (1 + 1e-12)


def test_no_coupling_rows():
    prog = fd.generate_program(2, 0, seed=3)
    assert prog.B.shape == (0, 2)
    assert prog.m == 0


def test_conditioning_widens_curvature_spread():
    tame = fd.generate_program(5, 1, seed=9, conditioning=1.0)
    wild = fd.generate_program(5, 1, seed=9, conditioning=100.0)

    def spread(H):
        eigs = np.linalg.eigvalsh(-H)
        return eigs.max() / eigs.min()

    assert spread(wild.H) > spread(tame.H)


def test_bad_arguments():
    with pytest.raises(fd.GenerationError):
        fd.generate_program(0, 1, seed=0)
    with pytest.raises(fd.GenerationError):
        fd.generate_program(2, -1, seed=0)


@pytest.mark.parametrize("conditioning", [float("nan"), float("inf"), 0.5])
def test_conditioning_must_be_finite_and_at_least_one(conditioning):
    with pytest.raises(fd.GenerationError, match="conditioning"):
        fd.generate_program(3, 1, seed=5, conditioning=conditioning)
