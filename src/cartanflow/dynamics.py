"""Wave and heat flows generated by a directional Dirac operator.

The second-order equation f'' = -L_X f is integrated in its first-order
complex form psi(t) = exp(i t D_X) psi(0) with psi(0) = f(0) - i D_X^+ f'(0),
so non-diagonalizable D_X needs no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import GradedOperator
from .linalg import LinalgError, apply_pseudo_inverse, matrix_exponential


@dataclass(frozen=True)
class WaveState:
    psi: np.ndarray
    t: float

    def real_part(self) -> np.ndarray:
        return self.psi.real.copy()


def wave_pack(f0, ft0, dx: GradedOperator) -> tuple[WaveState, float]:
    """Package position and velocity into a complex wave.

    Returns the state and the norm of the velocity component outside the
    image of D_X (annihilated by the pseudo-inverse, reported not raised).
    """
    f0 = np.asarray(f0, dtype=float)
    ft0 = np.asarray(ft0, dtype=float)
    n = dx.matrix.shape[0]
    if f0.shape != (n,) or ft0.shape != (n,):
        raise LinalgError(f"state vectors must have length {n}")
    w = apply_pseudo_inverse(dx.matrix, ft0)
    discarded = float(np.linalg.norm(dx.matrix @ w - ft0))
    return WaveState(f0 - 1j * w, 0.0), discarded


def propagator(dx: GradedOperator, t: float) -> np.ndarray:
    """exp(i t D_X), the wave propagator over a duration t."""
    if not np.isfinite(t):
        raise LinalgError("duration must be finite")
    return matrix_exponential(1j * t * dx.matrix)


def evolve_schrodinger(state: WaveState, dx: GradedOperator, t: float) -> WaveState:
    """psi(t0 + t) = exp(i t D_X) psi(t0)."""
    return WaveState(propagator(dx, t) @ state.psi, state.t + t)


def wave_series(state: WaveState, dx: GradedOperator, h: float, steps: int) -> list[WaveState]:
    """The wave at t0, t0+h, ..., t0+steps*h from one propagator exp(i h D_X)."""
    u = propagator(dx, h)
    out = [state]
    for _ in range(steps):
        out.append(WaveState(u @ out[-1].psi, out[-1].t + h))
    return out


def wave_residual_check(f_series, h: float, lx: GradedOperator) -> float:
    """Max centered-difference residual of f'' + L_X f over the samples."""
    f_series = [np.asarray(f, dtype=float) for f in f_series]
    if len(f_series) < 3:
        raise LinalgError("need at least 3 consecutive samples")
    worst = 0.0
    for k in range(1, len(f_series) - 1):
        second = (f_series[k + 1] - 2 * f_series[k] + f_series[k - 1]) / h**2
        worst = max(worst, float(np.linalg.norm(second + lx.matrix @ f_series[k])))
    return worst


def sample_wave(state: WaveState, dx: GradedOperator, h: float, steps: int) -> list[np.ndarray]:
    """Real parts of the wave at t0, t0+h, ..., t0+steps*h."""
    return [s.real_part() for s in wave_series(state, dx, h, steps)]


def evolve_heat(f0, lx: GradedOperator, t: float) -> np.ndarray:
    """f(t) = exp(-t L_X) f(0); may grow for non-self-adjoint L_X."""
    f0 = np.asarray(f0, dtype=float)
    return (matrix_exponential(-t * lx.matrix) @ f0).real
