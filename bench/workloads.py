"""The benchmark's four workloads: seeded inputs, ops and correctness checks.

Every op is a zero-argument `call` plus a `check` on its output.  The
checks are the benchmark's own and run outside the timed region.  A check
returns the names of what failed and whether the output is *wrong*, i.e.
contradicts the benchmark's own computation.  A `verify` report whose
identity checks fail is not wrong output: those verdicts are the
program's, and known defects must show in `ok_frac` and the tallied check
names instead of being filtered out.

Inputs come only from the workload seed.  A complex is drawn at a size
rung by retrying `random_complex` with seeded generator seeds until its
size falls in the rung's band; no op is ever dropped for failing or for
being slow.  Library functions are looked up on their module at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

import cartanflow
from cartanflow import cli

FIELD_KINDS = ("adjoint", "zero", "deterministic", "edge-random", "sparsified")

# evolve: max |psi - expm(i T D_X) psi0| relative to max(1, max|ref|); the CSV
# keeps 12 significant digits and the steps multiply `steps` propagators.
EVOLVE_TOL = 1e-8
# deform: worst eigenvalue distance under an optimal start/end matching,
# relative to max(1, spectral radius).  D_X has defective clusters at 0, so
# an O(h^4) RK4 drift of the matrix moves their eigenvalues by its square
# root or more; 1e-2 still catches a flow that is not isospectral.
DEFORM_SPECTRUM_TOL = 1e-2


class CliResult(NamedTuple):
    code: int
    out: str


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], bool]]


@dataclass(frozen=True)
class Rung:
    """Generator parameters and the accepted size band (simplices)."""

    n: int
    m: int
    lo: int
    hi: int


def run_cli(argv: list[str]) -> CliResult:
    """`cartanflow <argv>` in this process, with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def draw_complex(rung: Rung, *key: int):
    """(generator seed, complex) of the first draw inside the rung's band."""
    rng = np.random.default_rng(list(key))
    for _ in range(20_000):
        s = int(rng.integers(2**31))
        c = cartanflow.random_complex(rung.n, rung.m, s)
        if rung.lo <= c.n <= rung.hi:
            return s, c
    raise RuntimeError(f"no complex in band {rung} for key {key}")


def _complex_args(rung: Rung, s: int) -> list[str]:
    return ["--n", str(rung.n), "--m", str(rung.m), "--seed", str(s)]


def _exit_failure(result: CliResult):
    return [f"exit_{result.code}"], True


# -- verify-ladder --------------------------------------------------------

def check_verify(result: CliResult):
    if result.code not in (0, 1):
        return _exit_failure(result)
    report = json.loads(result.out)
    failing = [chk["name"] for chk in report["checks"]
               if not chk["pass"] and not chk.get("informational")]
    if (result.code == 1) != bool(failing):
        return failing + ["exit_code_disagrees_with_report"], True
    return failing, False


def verify_op(rung: Rung, kind: str, integer: bool, *key: int) -> Op:
    s, c = draw_complex(rung, *key)
    argv = ["verify", *_complex_args(rung, s), "--field", kind]
    argv += ["--integer-coeffs"] if integer else []
    label = f"verify {kind}{' int' if integer else ''} n={c.n}"
    return Op(label, lambda: run_cli(argv), check_verify)


def verify_ladder(rungs, *key: int) -> Iterator[Op]:
    configs = [(kind, integer) for kind in FIELD_KINDS for integer in (False, True)]
    for i in itertools.count():
        kind, integer = configs[i % len(configs)]
        yield verify_op(rungs[i // len(configs) % len(rungs)], kind, integer, *key, i)


# -- flows ----------------------------------------------------------------

def check_evolve(rung: Rung, s: int, kind: str, index: int, t_end: float):
    def check(result: CliResult):
        if result.code != 0:
            return _exit_failure(result)
        last = result.out.rstrip("\n").rsplit("\n", 1)[1].split(",")
        values = np.array(last[1:], dtype=float)
        psi = values[0::2] + 1j * values[1::2]
        ops = run_cli(["operators", *_complex_args(rung, s), "--field", kind])
        dx = np.array(json.loads(ops.out)["operators"]["D_X"]["entries"])
        ref = scipy.linalg.expm(1j * t_end * dx)[:, index]
        failures = []
        if abs(float(last[0]) - t_end) > 1e-9:
            failures.append("final_time")
        if np.max(np.abs(psi - ref)) > EVOLVE_TOL * max(1.0, np.max(np.abs(ref))):
            failures.append("final_state_vs_expm")
        return failures, bool(failures)

    return check


def check_deform(steps: int):
    def check(result: CliResult):
        if result.code != 0:
            return _exit_failure(result)
        report = json.loads(result.out)
        diag = report["diagnostics"]
        failures = []
        if report["aborted"] or report["steps"] != steps:
            failures.append("aborted")
        else:
            start = np.array([complex(*z) for z in diag["spectrum_start"]])
            end = np.array([complex(*z) for z in diag["spectrum_end"]])
            cost = np.abs(start[:, None] - end[None, :])
            rows, cols = linear_sum_assignment(cost)
            if cost[rows, cols].max() > DEFORM_SPECTRUM_TOL * max(1.0, np.abs(start).max()):
                failures.append("spectrum_pairing")
            if diag["d_block_ranks_start"] != diag["d_block_ranks_end"]:
                failures.append("d_block_ranks")
        return failures, bool(failures)

    return check


def flows(rungs, evolve_steps: int, deform_steps: int, *key: int) -> Iterator[Op]:
    combos = [(cmd, kind) for cmd in ("evolve", "deform") for kind in ("adjoint", "edge-random")]
    for i in itertools.count():
        command, kind = combos[i % len(combos)]
        rung = rungs[i % len(rungs)]
        s, c = draw_complex(rung, *key, i)
        base = [command, *_complex_args(rung, s), "--field", kind, "--time", "1.0"]
        if command == "evolve":
            index = s % c.n
            argv = base + ["--steps", str(evolve_steps), "--initial-index", str(index)]
            check = check_evolve(rung, s, kind, index, 1.0)
        else:
            argv = base + ["--steps", str(deform_steps), "--format", "json"]
            check = check_deform(deform_steps)
        yield Op(f"{command} {kind} n={c.n}", lambda argv=argv: run_cli(argv), check)


# -- assemble -------------------------------------------------------------

def _exact_zero(a: np.ndarray) -> bool:
    # float64 BLAS products of these small integer matrices are exact
    return not np.any(a)


def _lowers_degree_by_one(matrix: np.ndarray, deg: np.ndarray) -> bool:
    rows, cols = np.nonzero(matrix)
    return bool(np.all(deg[rows] == deg[cols] - 1))


def pipeline(rung: Rung, *key: int) -> list[Op]:
    """One complex through the library, one library call per op.

    random_complex, exterior_derivative, dirac_and_hodge, classical_betti,
    the five field constructors, cartan with each field, one lie_bracket.
    """
    s, drawn = draw_complex(rung, *key)
    state: dict = {}
    deg = np.array([len(x) - 1 for x in drawn.simplices])
    chi = int(sum((-1) ** int(k) for k in deg))

    def stage(name, fn, check):
        def call():
            state[name] = out = fn()
            return out
        return Op(f"{name} n={drawn.n}", call, check)

    def verdict(ok: bool, name: str):
        return ([], False) if ok else ([name], True)

    def check_complex(c):
        return verdict(c.simplices == drawn.simplices, "complex_differs")

    def check_d(d):
        dm = d.matrix.astype(float)
        return verdict(_exact_zero(dm @ dm), "d_squared_zero")

    def check_hodge(pair):
        dm = state["d"].matrix.astype(float)
        dirac, hodge = (op.matrix.astype(float) for op in pair)
        return verdict(_exact_zero(dirac - dm - dm.T) and _exact_zero(hodge - dirac @ dirac),
                       "dirac_hodge")

    def check_betti(betti):
        return verdict(sum((-1) ** k * b for k, b in enumerate(betti)) == chi, "euler_poincare")

    def check_field(ix):
        return verdict(_lowers_degree_by_one(ix.matrix, deg), "field_grading")

    def check_cartan(cx):
        if not np.issubdtype(cx.iX.matrix.dtype, np.integer):
            return [], False
        dm = state["d"].matrix.astype(float)
        im = cx.iX.matrix.astype(float)
        lx = cx.LX.matrix.astype(float)
        return verdict(_exact_zero(lx - dm @ im - im @ dm) and _exact_zero(lx @ dm - dm @ lx),
                       "lie_derivative_commutes_with_d")

    def check_bracket(iz):
        dm = state["d"].matrix.astype(float)
        ix = state["adjoint"].matrix.astype(float)
        iy = state["deterministic"].matrix.astype(float)
        lx = dm @ ix + ix @ dm
        return verdict(_exact_zero(iz.matrix - (lx @ iy - iy @ lx)), "lie_bracket")

    builders = {
        "adjoint": lambda: cartanflow.adjoint_field(state["complex"]),
        "zero": lambda: cartanflow.zero_field(state["complex"]),
        "deterministic": lambda: cartanflow.deterministic_field(state["complex"]),
        "edge-random": lambda: cartanflow.random_edge_field(state["complex"], (s, 1)),
        "sparsified": lambda: cartanflow.sparsified_adjoint_field(state["complex"], 0.5, (s, 2)),
    }
    return [
        stage("complex", lambda: cartanflow.random_complex(rung.n, rung.m, s), check_complex),
        stage("d", lambda: cartanflow.exterior_derivative(state["complex"]), check_d),
        stage("dirac_hodge", lambda: cartanflow.dirac_and_hodge(state["d"]), check_hodge),
        stage("betti", lambda: cartanflow.classical_betti(state["complex"], state["d"]),
              check_betti),
        *(stage(kind, build, check_field) for kind, build in builders.items()),
        # cartan outputs are checked and dropped, not kept in `state`
        *(Op(f"cartan {kind} n={drawn.n}",
             lambda kind=kind: cartanflow.cartan(state["d"], state[kind]), check_cartan)
          for kind in FIELD_KINDS),
        stage("lie_bracket", lambda: cartanflow.lie_bracket(
            state["adjoint"], state["deterministic"], state["d"]), check_bracket),
    ]


def assemble(rungs, *key: int) -> Iterator[Op]:
    for j in itertools.count():
        yield from pipeline(rungs[j % len(rungs)], *key, j)


# -- survey-small ---------------------------------------------------------

def check_survey(kind: str, trials: int):
    def check(result: CliResult):
        if result.code != 0:
            return _exit_failure(result)
        data = json.loads(result.out)["data"]
        integer, real = data["integer_spectrum_fraction"], data["real_spectrum_fraction"]
        failures = []
        if data["trials"] != trials:
            failures.append("trials")
        if integer > real:
            failures.append("integer_fraction_above_real")
        if kind == "zero" and integer != 1:
            failures.append("zero_field_not_integer")
        return failures, bool(failures)

    return check


def survey_small(n: int, m: int, trials: int, *key: int) -> Iterator[Op]:
    configs = [(kind, False) for kind in FIELD_KINDS] + [("edge-random", True)]
    rng = np.random.default_rng(list(key))
    for i in itertools.count():
        kind, integer = configs[i % len(configs)]
        argv = ["survey", "--trials", str(trials), "--n", str(n), "--m", str(m),
                "--seed", str(int(rng.integers(2**31))), "--field", kind]
        argv += ["--integer-coeffs"] if integer else []
        yield Op(f"survey {kind}{' int' if integer else ''}",
                 lambda argv=argv: run_cli(argv), check_survey(kind, trials))


# -- registry -------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    ops: Callable[[int], Iterator[Op]]      # seed -> the timed ops
    warmup: Callable[[int], list[Op]]       # seed -> warm-up ops on other inputs


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The four workloads by name; `tiny` shrinks every size for the self-test."""
    if tiny:
        verify_rungs = flows_rungs = assemble_rungs = [Rung(4, 4, 8, 16)]
        evolve_steps, deform_steps, survey_args = 4, 100, (4, 4, 3)
    else:
        verify_rungs = [Rung(5, 8, 17, 21), Rung(6, 6, 23, 27), Rung(6, 7, 29, 33),
                        Rung(7, 5, 35, 39)]
        flows_rungs = [Rung(8, 8, 76, 84), Rung(8, 12, 91, 99), Rung(8, 12, 106, 114),
                       Rung(8, 16, 121, 129), Rung(9, 10, 136, 144)]
        assemble_rungs = [Rung(10, 20, 390, 410), Rung(9, 30, 290, 310),
                          Rung(10, 14, 340, 360)]
        evolve_steps, deform_steps, survey_args = 20, 50, (6, 8, 20)
    # timed ops draw from stream (seed, 1..4), warm-ups from (seed, 0)
    return {
        "verify-ladder": Workload(
            lambda seed: verify_ladder(verify_rungs, seed, 1),
            lambda seed: [verify_op(verify_rungs[0], "edge-random", False, seed, 0)]),
        "flows": Workload(
            lambda seed: flows(flows_rungs, evolve_steps, deform_steps, seed, 2),
            lambda seed: list(itertools.islice(
                flows(flows_rungs[:1], evolve_steps, deform_steps, seed, 0), 4))),
        "assemble": Workload(
            lambda seed: assemble(assemble_rungs, seed, 3),
            lambda seed: pipeline(verify_rungs[0], seed, 0)),
        "survey-small": Workload(
            lambda seed: survey_small(*survey_args, seed, 4),
            lambda seed: list(itertools.islice(survey_small(*survey_args, seed, 0), 1))),
    }
