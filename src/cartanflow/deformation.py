"""Nonlinear deformation D' = [B, D] of a directional Dirac operator.

Each step splits the running operator DD into its degree-raising part d
(strictly below the block diagonal), its conjugate transpose e, and the
remainder b = DD - (d + e), then integrates DD' = [B, DD] with
B = (d - e) + i b by one RK4 step.  With i_X = d^T the remainder vanishes,
B is real antisymmetric and the flow is the classical isospectral one.
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
    offsets = list(offsets)
    if shape != (n, n) or offsets[0] != 0 or offsets[-1] != n:
        raise LinalgError("offsets inconsistent with matrix order")
    block_of = np.empty(n, dtype=int)
    for k in range(len(offsets) - 1):
        block_of[offsets[k]:offsets[k + 1]] = k
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
    final_d: np.ndarray
    diagnostics: dict
    operator_snapshots: list = field(default_factory=list)
    aborted: bool = False

    def inflation(self) -> list[float]:
        return inflation_series(self.u_series, self.steps)

    def to_csv(self) -> str:
        # a run that aborts on its first step has one u value and no v
        v = self.inflation() if len(self.u_series) > 1 else []
        lines = ["step,u,v"]
        for k, u in enumerate(self.u_series):
            vk = f"{v[k]:.12g}" if k < len(v) else ""
            lines.append(f"{k},{u:.12g},{vk}")
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        diag = dict(self.diagnostics)
        for key in ("spectrum_start", "spectrum_end"):
            diag[key] = [[z.real, z.imag] for z in diag[key]]
        return json.dumps({"steps": self.steps, "dt": self.dt,
                           "aborted": self.aborted, "diagnostics": diag})


def run_deformation(
    dx0: GradedOperator,
    steps: int = 1000,
    total_time: float = 2.0,
    sample_every: int = 0,
    consistent_rk4: bool = False,
) -> DeformationTrajectory:
    """Integrate DD' = [B(DD), DD] from DD(0) = D_X.

    B is recomputed once per outer step and frozen across the four RK4
    stages (reference loop behaviour); consistent_rk4 recomputes B at every
    stage, which is the variant to use for step-halving convergence studies.
    """
    if steps < 1 or not total_time > 0:
        raise DeformationError("need steps >= 1 and total_time > 0")
    c = dx0.complex_ref
    h = total_time / steps
    dd = np.asarray(dx0.matrix, dtype=complex)
    keep = _lower_block_mask(dd.shape, c.block_offsets)
    spectrum_start = eigenvalues(dd)
    d0, _, _ = _split(dd, keep)
    ranks_start = block_ranks_of_d(d0, c)

    def commutator_field(x):
        d, e, b = _split(x, keep)
        bmat = (d - e) + 1j * b
        return bmat @ x - x @ bmat

    u_series: list[float] = []
    snapshots = []
    aborted = False
    for m in range(steps):
        d, e, b = _split(dd, keep)
        if consistent_rk4:
            dd = rk4_step(commutator_field, dd, h)
        else:
            bmat = (d - e) + 1j * b
            dd = rk4_step(lambda x: bmat @ x - x @ bmat, dd, h)
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
        "spectrum_end": [complex(z) for z in eigenvalues(dd)] if not aborted else [],
        "d_block_ranks_start": ranks_start,
        "d_block_ranks_end": block_ranks_of_d(d, c) if not aborted else [],
        "d_drift_from_start": _l1(d - d0),
    }
    return DeformationTrajectory(
        steps=len(u_series),
        dt=h,
        u_series=u_series,
        final_dd=dd,
        final_d=d,
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
