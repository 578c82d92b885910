"""Nonlinear deformation D' = [B, D] of a directional Dirac operator.

Each step splits the running operator DD into its degree-raising part d
(strictly below the block diagonal), its conjugate transpose e, and the
remainder b = DD - (d + e), then integrates DD' = [B, DD] with
B = (d - e) + i b by one RK4 step.  With i_X = d^T the remainder vanishes,
B is real antisymmetric and the flow is the classical isospectral one; DD
stays exactly Hermitian, so [B, x] = B x + (B x)* is one product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .complexes import Complex
from .exterior import GradedOperator
from .linalg import LinalgError, eigenvalues, rank, rk4_step


class DeformationError(RuntimeError):
    """Blow-up or invalid configuration during a deformation run."""


def _lower_block_mask(shape, offsets) -> np.ndarray:
    """True strictly below the block diagonal of an n x n matrix."""
    n = shape[0]
    sizes = np.diff(offsets)
    if shape != (n, n) or offsets[0] != 0 or offsets[-1] != n or np.any(sizes < 0):
        raise LinalgError("offsets inconsistent with matrix order")
    block_of = np.repeat(np.arange(sizes.size), sizes)
    return block_of[:, None] > block_of[None, :]


def strict_lower_block(a: np.ndarray, offsets) -> np.ndarray:
    """Entries strictly below the block diagonal (the degree-raising part)."""
    a = np.asarray(a)
    return np.where(_lower_block_mask(a.shape, offsets), a, 0)


def _split(dd: np.ndarray, keep: np.ndarray):
    d = np.where(keep, dd, 0)
    e = d.conj().T
    b = dd - (d + e)
    return d, e, b


def block_ranks_of_d(d: np.ndarray, c: Complex, tol: float = 1e-6) -> list[int]:
    """Rank of each degree-raising block of a (deformed) exterior derivative."""
    return [
        rank(np.asarray(d[c.block(p + 1), c.block(p)], dtype=complex), tol)
        for p in range(c.dimension)
    ]


def _l1(a: np.ndarray) -> float:
    return float(np.sum(np.abs(a)))


@dataclass
class DeformationTrajectory:
    steps: int
    dt: float
    u_series: list[float]
    final_dd: np.ndarray
    diagnostics: dict
    operator_snapshots: list = field(default_factory=list)
    aborted: bool = False

    def to_csv(self) -> str:
        # a run that aborts on its first step has one u value and no v
        v = inflation_series(self.u_series, self.steps) if len(self.u_series) > 1 else []
        lines = ["step,u,v"]
        for k, u in enumerate(self.u_series):
            vk = f"{v[k]:.12g}" if k < len(v) else ""
            lines.append(f"{k},{u:.12g},{vk}")
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        # an aborted run can leave non-finite norms, which JSON spells null
        diag = {k: v if not isinstance(v, float) or np.isfinite(v) else None
                for k, v in self.diagnostics.items()}
        for key in ("spectrum_start", "spectrum_end"):
            diag[key] = [[z.real, z.imag] for z in diag[key]]
        return json.dumps({"steps": self.steps, "dt": self.dt,
                           "aborted": self.aborted, "diagnostics": diag}, allow_nan=False)


def run_deformation(
    dx0: GradedOperator,
    steps: int = 1000,
    total_time: float = 2.0,
    sample_every: int = 0,
    consistent_rk4: bool = False,
) -> DeformationTrajectory:
    """Integrate DD' = [B(DD), DD] from DD(0) = D_X.

    B is recomputed once per outer step and frozen across the four RK4
    stages (reference loop behaviour): each step approximates e^{hB} D e^{-hB},
    first order in h but closer to isospectral in the Hodge case than
    consistent_rk4, which recomputes B at every stage (fourth order).
    """
    if steps < 1 or not 0 < total_time < np.inf:
        raise DeformationError("need steps >= 1 and a finite total_time > 0")
    c = dx0.complex_ref
    h = total_time / steps
    dd = np.asarray(dx0.matrix, dtype=complex)
    keep = _lower_block_mask(dd.shape, c.block_offsets)
    hermitian = np.array_equal(dd, dd.conj().T)
    spectrum_start = eigenvalues(dd, hermitian)
    d0, _, _ = _split(dd, keep)
    ranks_start = block_ranks_of_d(d0, c)

    def commutator_field(x, bmat=None):
        if bmat is None:
            d, e, b = _split(x, keep)
            bmat = (d - e) + 1j * b
        bx = bmat @ x
        # x B = -(B x)* for Hermitian x and skew-Hermitian B
        return bx + bx.conj().T if hermitian else bx - x @ bmat

    u_series: list[float] = []
    snapshots = []
    aborted = False
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps):
            d, e, b = _split(dd, keep)
            frozen = None if consistent_rk4 else (d - e) + 1j * b
            dd = rk4_step(lambda x: commutator_field(x, frozen), dd, h)
            u_series.append(_l1(d))
            if sample_every and (m + 1) % sample_every == 0:
                snapshots.append(dd.copy())
            if not np.all(np.isfinite(dd)):
                aborted = True
                break
    d, e, _ = _split(dd, keep)
    diagnostics = {
        "d_squared_norm": _l1(d @ d),
        "e_squared_norm": _l1(e @ e),
        "spectrum_start": [complex(z) for z in spectrum_start],
        "spectrum_end": [complex(z) for z in eigenvalues(dd, hermitian)] if not aborted else [],
        "d_block_ranks_start": ranks_start,
        "d_block_ranks_end": block_ranks_of_d(d, c) if not aborted else [],
        "d_drift_from_start": _l1(d - d0),
    }
    return DeformationTrajectory(
        steps=len(u_series),
        dt=h,
        u_series=u_series,
        final_dd=dd,
        diagnostics=diagnostics,
        operator_snapshots=snapshots,
        aborted=aborted,
    )


def inflation_series(u_series, steps: int) -> list[float]:
    """v_k = steps * (F(u_{k+1}) - F(u_k)) with F(x) = -log|x|, F(0) = 0."""
    if len(u_series) < 2:
        raise DeformationError("need at least two u values")

    def f(x):
        return 0.0 if x == 0 else -float(np.log(abs(x)))

    return [steps * (f(u_series[k + 1]) - f(u_series[k])) for k in range(len(u_series) - 1)]
