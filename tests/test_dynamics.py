import numpy as np
import pytest

from cartanflow import (
    adjoint_field,
    cartan,
    deterministic_field,
    evolve_heat,
    evolve_schrodinger,
    exterior_derivative,
    wave_pack,
    wave_residual_check,
    whitney_complex,
    zero_field,
)
from cartanflow.dynamics import sample_wave, wave_series
from cartanflow.linalg import LinalgError

import reference_data as ref


@pytest.fixture
def c4_hodge():
    c = whitney_complex(ref.C4_EDGES)
    return c, cartan(exterior_derivative(c), adjoint_field(c))


def dalembert_solution(dirac, f0, ft0, t):
    """cos/sin closed form via eigendecomposition of the symmetric Dirac."""
    lam, v = np.linalg.eigh(dirac.astype(float))
    cos_part = v @ np.diag(np.cos(lam * t)) @ v.T @ f0
    sinc = np.array([np.sin(l * t) / l if abs(l) > 1e-10 else 0.0 for l in lam])
    return cos_part + v @ np.diag(sinc) @ v.T @ ft0


def test_wave_pack_zero_velocity(c4_hodge):
    c, cx = c4_hodge
    f0 = np.arange(1.0, 9.0)
    state, discarded = wave_pack(f0, np.zeros(8), cx.DX)
    assert np.allclose(state.psi, f0)
    assert discarded == 0.0


def test_wave_pack_pure_velocity(c4_hodge):
    c, cx = c4_hodge
    rng = np.random.default_rng(0)
    lam, v = np.linalg.eigh(cx.DX.matrix.astype(float))
    # w orthogonal to kernel(D_X)
    w = v[:, np.abs(lam) > 1e-10] @ rng.standard_normal(int(np.sum(np.abs(lam) > 1e-10)))
    state, discarded = wave_pack(np.zeros(8), cx.DX.matrix @ w, cx.DX)
    assert np.allclose(state.psi, -1j * w, atol=1e-10)
    assert discarded <= 1e-12


def test_wave_pack_dimension_mismatch(c4_hodge):
    _, cx = c4_hodge
    with pytest.raises(LinalgError):
        wave_pack(np.zeros(3), np.zeros(3), cx.DX)


def test_wave_pack_reports_kernel_leakage(c4_hodge):
    c, cx = c4_hodge
    lam, v = np.linalg.eigh(cx.DX.matrix.astype(float))
    kernel_vec = v[:, np.abs(lam) < 1e-10][:, 0]
    _, discarded = wave_pack(np.zeros(8), kernel_vec, cx.DX)
    assert discarded == pytest.approx(1.0, abs=1e-9)


def test_evolve_zero_time_is_identity(c4_hodge):
    _, cx = c4_hodge
    state, _ = wave_pack(np.ones(8), np.zeros(8), cx.DX)
    out = evolve_schrodinger(state, cx.DX, 0.0)
    assert np.allclose(out.psi, state.psi)


def test_evolve_one_parameter_group(c4_hodge):
    _, cx = c4_hodge
    rng = np.random.default_rng(1)
    state, _ = wave_pack(rng.standard_normal(8), np.zeros(8), cx.DX)
    a = evolve_schrodinger(evolve_schrodinger(state, cx.DX, 0.6), cx.DX, 0.9)
    b = evolve_schrodinger(state, cx.DX, 1.5)
    assert np.max(np.abs(a.psi - b.psi)) <= 1e-9
    assert a.t == pytest.approx(b.t)


def test_norm_conserved_for_self_adjoint_generator(c4_hodge):
    _, cx = c4_hodge
    rng = np.random.default_rng(2)
    state, _ = wave_pack(rng.standard_normal(8), cx.DX.matrix @ rng.standard_normal(8), cx.DX)
    out = evolve_schrodinger(state, cx.DX, 3.7)
    assert abs(np.linalg.norm(out.psi) - np.linalg.norm(state.psi)) <= 1e-9


def test_complex_form_matches_dalembert(c4_hodge):
    _, cx = c4_hodge
    rng = np.random.default_rng(3)
    f0 = rng.standard_normal(8)
    ft0 = cx.DX.matrix @ rng.standard_normal(8)
    state, _ = wave_pack(f0, ft0, cx.DX)
    for t in (0.5, 1.3, 2.9):
        numeric = evolve_schrodinger(state, cx.DX, t).real_part()
        closed = dalembert_solution(cx.DX.matrix, f0, ft0, t)
        assert np.max(np.abs(numeric - closed)) <= 1e-9


def test_wave_series_matches_repeated_evolve():
    c = whitney_complex(ref.C4_EDGES)
    cx = cartan(exterior_derivative(c), deterministic_field(c))
    rng = np.random.default_rng(6)
    state, _ = wave_pack(rng.standard_normal(8), rng.standard_normal(8), cx.DX)
    series = wave_series(state, cx.DX, 0.07, 12)
    assert len(series) == 13
    current = state
    for k, s in enumerate(series):
        assert np.array_equal(s.psi, current.psi), k
        assert s.t == current.t
        current = evolve_schrodinger(current, cx.DX, 0.07)


def test_wave_residual_constant_kernel_mode(c4_hodge):
    _, cx = c4_hodge
    kernel_mode = np.array([1.0] * 4 + [0.0] * 4)  # constant 0-form lies in kernel(L)
    assert np.allclose(cx.LX.matrix @ kernel_mode, 0)
    res = wave_residual_check([kernel_mode] * 3, 0.01, cx.LX)
    assert res <= 1e-12


def test_wave_residual_second_order_convergence(c4_hodge):
    _, cx = c4_hodge
    rng = np.random.default_rng(4)
    state, _ = wave_pack(rng.standard_normal(8), cx.DX.matrix @ rng.standard_normal(8), cx.DX)

    def residual(h):
        return wave_residual_check(sample_wave(state, cx.DX, h, 2), h, cx.LX)

    ratio = residual(0.01) / residual(0.005)
    assert 3.5 <= ratio <= 4.5
    norm_bound = 1e-3 * np.linalg.norm(cx.LX.matrix) * np.linalg.norm(state.psi)
    assert residual(1e-3) <= norm_bound


def test_wave_residual_needs_three_samples(c4_hodge):
    _, cx = c4_hodge
    with pytest.raises(LinalgError):
        wave_residual_check([np.zeros(8)] * 2, 0.01, cx.LX)


def test_wave_residual_for_nonnormal_generator():
    c = whitney_complex(ref.C4_EDGES)
    cx = cartan(exterior_derivative(c), deterministic_field(c))
    rng = np.random.default_rng(5)
    state, _ = wave_pack(rng.standard_normal(8), cx.DX.matrix @ rng.standard_normal(8), cx.DX)
    r1 = wave_residual_check(sample_wave(state, cx.DX, 0.01, 2), 0.01, cx.LX)
    r2 = wave_residual_check(sample_wave(state, cx.DX, 0.005, 2), 0.005, cx.LX)
    assert 3.5 <= r1 / r2 <= 4.5


def test_heat_trivial_cases(c4_hodge):
    c, cx = c4_hodge
    f0 = np.arange(8.0)
    assert np.allclose(evolve_heat(f0, cx.LX, 0.0), f0)
    zero_cx = cartan(exterior_derivative(c), zero_field(c))
    assert np.allclose(evolve_heat(f0, zero_cx.LX, 5.0), f0)


def test_heat_converges_to_kernel_projection(c4_hodge):
    _, cx = c4_hodge
    rng = np.random.default_rng(6)
    f0 = rng.standard_normal(8)
    lam, v = np.linalg.eigh(cx.LX.matrix.astype(float))
    kernel = v[:, np.abs(lam) < 1e-10]
    projection = kernel @ kernel.T @ f0
    assert np.max(np.abs(evolve_heat(f0, cx.LX, 8.0) - projection)) <= 1e-6
