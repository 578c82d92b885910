import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanflow import (
    adjoint_field,
    canonical_fields,
    cartan,
    exterior_derivative,
    inflation_series,
    random_complex,
    random_edge_field,
    run_deformation,
    strict_lower_block,
    whitney_complex,
    zero_field,
)
from cartanflow.deformation import DeformationError, block_ranks_of_d
from cartanflow.linalg import LinalgError, eigenvalues, pair_spectra

import reference_data as ref


@pytest.fixture
def c4():
    return whitney_complex(ref.C4_EDGES)


def test_strict_lower_block_kills_block_diagonal():
    offsets = (0, 2, 4)
    a = np.arange(16).reshape(4, 4)
    out = strict_lower_block(a, offsets)
    assert not np.any(out[0:2, 0:2]) and not np.any(out[2:4, 2:4])
    assert np.array_equal(out[2:4, 0:2], a[2:4, 0:2])
    assert not np.any(out[0:2, 2:4])


def test_strict_lower_block_extracts_d(c4):
    d = exterior_derivative(c4)
    dirac = d.matrix + d.matrix.T
    assert np.array_equal(strict_lower_block(dirac, c4.block_offsets), d.matrix)
    cx = cartan(d, random_edge_field(c4, 0))
    assert np.array_equal(strict_lower_block(cx.DX.matrix, c4.block_offsets), d.matrix)


def test_strict_lower_block_bad_offsets():
    with pytest.raises(LinalgError):
        strict_lower_block(np.eye(4), (0, 2, 5))


def test_deformation_rejects_bad_config(c4):
    cx = cartan(exterior_derivative(c4), adjoint_field(c4))
    with pytest.raises(DeformationError):
        run_deformation(cx.DX, steps=0)
    with pytest.raises(DeformationError):
        run_deformation(cx.DX, steps=10, total_time=0.0)


def test_tiny_step_leaves_operator_nearly_unchanged(c4):
    cx = cartan(exterior_derivative(c4), adjoint_field(c4))
    h = 1e-6
    traj = run_deformation(cx.DX, steps=1, total_time=h)
    assert np.max(np.abs(traj.final_dd - cx.DX.matrix)) <= 10 * h


def test_hodge_case_is_isospectral(c4):
    cx = cartan(exterior_derivative(c4), adjoint_field(c4))
    traj = run_deformation(cx.DX, steps=1000, total_time=2.0)
    ok, worst = pair_spectra(
        traj.diagnostics["spectrum_start"], traj.diagnostics["spectrum_end"], 1e-5
    )
    assert ok, worst
    assert traj.diagnostics["d_squared_norm"] <= 1e-6
    assert traj.diagnostics["e_squared_norm"] <= 1e-6


def test_hodge_case_u_series_initially_decreasing(c4):
    cx = cartan(exterior_derivative(c4), adjoint_field(c4))
    traj = run_deformation(cx.DX, steps=1000, total_time=2.0)
    u = traj.u_series
    assert len(u) == 1000
    assert all(u[k + 1] < u[k] for k in range(100))


def test_general_field_preserves_d_squared_and_cohomology():
    c = random_complex(6, 10, 3)
    d = exterior_derivative(c)
    cx = cartan(d, random_edge_field(c, (3, 1)))
    traj = run_deformation(cx.DX, steps=1000, total_time=2.0, sample_every=100)
    assert traj.diagnostics["d_squared_norm"] <= 1e-6
    # d(t)^2 stays small at the sampled times too
    for snap in traj.operator_snapshots:
        dt = strict_lower_block(snap, c.block_offsets)
        assert float(np.sum(np.abs(dt @ dt))) <= 1e-6
    assert traj.diagnostics["d_block_ranks_start"] == traj.diagnostics["d_block_ranks_end"]


def test_block_ranks_match_exterior_derivative():
    c = random_complex(6, 10, 3)
    d = exterior_derivative(c).matrix
    ranks = block_ranks_of_d(d.astype(complex), c)
    from cartanflow.linalg import rank

    assert ranks == [rank(d[c.block(p + 1), c.block(p)]) for p in range(c.dimension)]


def test_consistent_rk4_fourth_order_endpoint(c4):
    cx = cartan(exterior_derivative(c4), adjoint_field(c4))
    ends = {
        m: run_deformation(cx.DX, steps=m, total_time=2.0, consistent_rk4=True).final_dd
        for m in (100, 200, 400)
    }
    e1 = np.max(np.abs(ends[100] - ends[200]))
    e2 = np.max(np.abs(ends[200] - ends[400]))
    assert 8 <= e1 / e2 <= 24


def test_zero_field_run_reports_drift(c4):
    # With X = 0 the remainder b = -d^T is nonzero, so d is deformed;
    # observed and reported, not asserted either way.
    cx = cartan(exterior_derivative(c4), zero_field(c4))
    traj = run_deformation(cx.DX, steps=200, total_time=2.0)
    assert "d_drift_from_start" in traj.diagnostics
    assert np.isfinite(traj.diagnostics["d_drift_from_start"])


def test_inflation_series_constant_and_exponential():
    assert inflation_series([3.0, 3.0, 3.0], 10) == [0.0, 0.0]
    lam, total_time, m = 0.7, 2.0, 50
    u = [np.exp(-lam * k * total_time / m) for k in range(6)]
    v = inflation_series(u, m)
    assert np.allclose(v, lam * total_time)


def test_inflation_series_zero_sentinel():
    v = inflation_series([1.0, 0.0, 1.0], 4)
    assert v == [0.0, 0.0]  # F(0) = 0 by convention; -log(1) = 0
    with pytest.raises(DeformationError):
        inflation_series([1.0], 4)


def test_trajectory_csv_and_summary(c4):
    cx = cartan(exterior_derivative(c4), adjoint_field(c4))
    traj = run_deformation(cx.DX, steps=10, total_time=0.1)
    csv = traj.to_csv()
    assert csv.splitlines()[0] == "step,u,v"
    assert len(csv.splitlines()) == 11  # header + 10 steps (last v empty)
    summary = traj.summary_json()
    assert '"aborted": false' in summary


def reference_run(dx, steps, total_time, consistent_rk4=False):
    """The general loop for every field: DD' = B DD - DD B, RK4 with / 2 and / 6."""
    h = total_time / steps
    dd = np.asarray(dx.matrix, dtype=complex)
    keep = strict_lower_block(np.ones(dd.shape), dx.complex_ref.block_offsets) != 0

    def generator(x):
        d = np.where(keep, x, 0)
        e = d.conj().T
        return (d - e) + 1j * (x - (d + e))

    def step(f, x):
        u = h * f(x)
        v = h * f(x + u / 2)
        w = h * f(x + v / 2)
        q = h * f(x + w)
        return x + (u + 2 * v + 2 * w + q) / 6

    for _ in range(steps):
        bmat = generator(dd)
        if consistent_rk4:
            dd = step(lambda x: generator(x) @ x - x @ generator(x), dd)
        else:
            dd = step(lambda x: bmat @ x - x @ bmat, dd)
    return dd


# Steps of at most 0.05 up to T = 1: a step of 1 is no longer a small RK4 step
# (entries grow by 1e4), and at T = 3 the flow itself amplifies a 1e-16 change
# of D_X to about 1e-9, so two roundings of the same run agree only that far.
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), m=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 20), dt=st.floats(0.001, 0.05),
       sample_every=st.integers(1, 5), consistent=st.booleans())
def test_hodge_case_runs_exactly_hermitian(n, m, seed, steps, dt, sample_every, consistent):
    c = random_complex(n, m, seed)
    dx = cartan(exterior_derivative(c), adjoint_field(c)).DX
    traj = run_deformation(dx, steps, steps * dt, sample_every, consistent)
    for x in [*traj.operator_snapshots, traj.final_dd]:
        assert np.array_equal(x, x.conj().T)
    for key in ("spectrum_start", "spectrum_end"):
        assert all(z.imag == 0 for z in traj.diagnostics[key])
    scale = max(1.0, float(np.max(np.abs(dx.matrix))))
    end_scale = max(1.0, float(np.max(np.abs(traj.final_dd))))
    assert np.allclose(traj.diagnostics["spectrum_end"], eigenvalues(traj.final_dd),
                       rtol=0, atol=1e-12 * end_scale)
    ref = reference_run(dx, steps, steps * dt, consistent)
    assert np.max(np.abs(traj.final_dd - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("consistent", [False, True])
@pytest.mark.parametrize("kind", ["edge-random", "sparsified", "zero", "deterministic"])
def test_general_fields_match_reference_loop_bit_for_bit(kind, consistent):
    c = random_complex(6, 10, 3)
    dx = cartan(exterior_derivative(c), canonical_fields(c, kind, 0.5, (3, 1))).DX
    assert not np.array_equal(dx.matrix, dx.matrix.T)
    traj = run_deformation(dx, steps=40, total_time=1.0, consistent_rk4=consistent)
    ref = reference_run(dx, 40, 1.0, consistent)
    assert np.array_equal(traj.final_dd, ref)
    assert traj.diagnostics["spectrum_end"] == [complex(z) for z in eigenvalues(ref)]
