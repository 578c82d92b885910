"""Command-line surface: complexes, operators, spectra, checks, flows, surveys."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import complexes, deformation, dynamics, fields, linalg, verification
from .exterior import dirac_and_hodge, exterior_derivative
from .fields import cartan

SUPPORT_ALIASES = {
    "odd": (1, 3, 5, 7, 9),
    "even": (0, 2, 4, 6, 8),
    "all": tuple(range(10)),
}


class UsageError(ValueError):
    pass


def _parse_support(text: str):
    if text in SUPPORT_ALIASES:
        return SUPPORT_ALIASES[text]
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --support value {text!r}") from exc


def _load_complex(args) -> complexes.Complex:
    if args.complex:
        try:
            return complexes.load_complex(args.complex)
        except OSError as exc:
            raise UsageError(f"cannot read complex file: {exc}") from exc
    if args.n and args.m:
        return complexes.random_complex(args.n, args.m, args.seed)
    raise UsageError("provide --complex PATH or --n/--m generator parameters")


def _field(c, args) -> fields.InteriorDerivative:
    return fields.canonical_fields(c, args.field, args.p, (args.seed, 0),
                                   _parse_support(args.support), args.integer_coeffs)


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(config: dict, checks: list, data: dict) -> str:
    return json.dumps(
        {"version": 1, "config": config, "checks": checks, "data": data},
        sort_keys=True,
    )


def cmd_gen(args) -> int:
    c = complexes.random_complex(args.n, args.m, args.seed)
    _emit(c.to_json() + "\n", args.out)
    return 0


def cmd_whitney(args) -> int:
    try:
        edge_list = [tuple(int(v) for v in e.split("-")) for e in args.edges]
    except ValueError as exc:
        raise UsageError(f"edges must look like 1-2, got {args.edges}") from exc
    c = complexes.whitney_complex(edge_list)
    _emit(c.to_json() + "\n", args.out)
    return 0


def cmd_operators(args) -> int:
    c = _load_complex(args)
    d = exterior_derivative(c)
    dirac, hodge = dirac_and_hodge(d)
    matrices = {
        "d": d.matrix, "dirac": dirac.matrix, "hodge_laplacian": hodge.matrix,
    }
    if args.field:
        cx = cartan(d, _field(c, args))
        matrices.update({"i_X": cx.iX.matrix, "D_X": cx.DX.matrix, "L_X": cx.LX.matrix})
    payload = {
        "complex": [list(s) for s in c.simplices],
        "f_vector": list(c.f_vector),
        "operators": {
            name: {"entries": json.loads(linalg.matrix_to_json(m))}
            for name, m in matrices.items()
        },
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_spectrum(args) -> int:
    c = _load_complex(args)
    d = exterior_derivative(c)
    cx = cartan(d, _field(c, args))
    ev = linalg.eigenvalues(cx.LX.matrix.astype(float))
    if args.format == "csv":
        _emit(linalg.spectrum_to_csv(ev), args.out)
    else:
        _emit(json.dumps([[z.real, z.imag] for z in ev]) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    if not 0 <= args.tol < np.inf:
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol}")
    c = _load_complex(args)
    ix = _field(c, args)
    iy = None
    if c.edges():
        iy = fields.random_edge_field(
            c, (args.seed, 1), _parse_support(args.support), args.integer_coeffs
        )
    result = verification.run_checks(c, ix, iy, tol=args.tol)
    config = {"command": "verify", "seed": args.seed, "field": args.field,
              "support": args.support, "tol": args.tol}
    data = json.loads(result["spectral"].to_json())
    _emit(_report(config, result["checks"], data) + "\n", args.out)
    return 0 if result["pass"] else 1


def cmd_evolve(args) -> int:
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    c = _load_complex(args)
    d = exterior_derivative(c)
    cx = cartan(d, _field(c, args))
    f0 = np.zeros(c.n)
    f0[args.initial_index % c.n] = 1.0
    ft0 = np.zeros(c.n)
    state, discarded = dynamics.wave_pack(f0, ft0, cx.DX)
    lines = ["t," + ",".join(f"re{i},im{i}" for i in range(c.n))]
    for current in dynamics.wave_series(state, cx.DX, args.time / args.steps, args.steps):
        row = [f"{current.t:.12g}"]
        for z in current.psi:
            row.append(f"{z.real:.12g}")
            row.append(f"{z.imag:.12g}")
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    if discarded > 1e-9:
        print(f"note: discarded velocity component norm {discarded:.3g}", file=sys.stderr)
    return 0


def cmd_deform(args) -> int:
    if args.format == "csv" and args.steps < 2:
        raise UsageError("the CSV inflation column needs --steps >= 2 "
                         "(--format json accepts one step)")
    c = _load_complex(args)
    d = exterior_derivative(c)
    cx = cartan(d, _field(c, args))
    traj = deformation.run_deformation(cx.DX, steps=args.steps, total_time=args.time)
    if args.format == "csv":
        _emit(traj.to_csv(), args.out)
    else:
        _emit(traj.summary_json() + "\n", args.out)
    return 1 if traj.aborted else 0


def survey(trials, n, m, field_kind, seed, support=(1, 3, 5, 7, 9),
           integer_coeffs=False, p=0.5, tol=1e-6):
    """Classify L_X spectra over random complexes and fields."""
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if not 0 <= tol < np.inf:
        raise UsageError(f"tol must be finite and >= 0, got {tol}")
    integer_hits = 0
    real_hits = 0
    histogram: dict[int, int] = {}
    for trial in range(trials):
        rng_seed = (seed, trial)
        c = complexes.random_complex(n, m, rng_seed)
        ix = fields.canonical_fields(c, field_kind, p, (seed, trial, 1), support,
                                     integer_coeffs)
        cx = cartan(exterior_derivative(c), ix)
        ev = linalg.eigenvalues(cx.LX.matrix.astype(float))
        is_real = bool(np.max(np.abs(ev.imag)) <= tol)
        rounded = np.round(ev.real)
        is_integer = is_real and bool(np.max(np.abs(ev.real - rounded)) <= tol)
        real_hits += is_real
        integer_hits += is_integer
        if is_integer:
            for v in rounded.astype(int):
                histogram[int(v)] = histogram.get(int(v), 0) + 1
    return {
        "trials": trials,
        "integer_spectrum_fraction": integer_hits / trials,
        "real_spectrum_fraction": real_hits / trials,
        "value_range_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }


def cmd_survey(args) -> int:
    result = survey(args.trials, args.n, args.m, args.field, args.seed,
                    _parse_support(args.support), args.integer_coeffs, args.p, args.tol)
    config = {"command": "survey", "trials": args.trials, "n": args.n, "m": args.m,
              "seed": args.seed, "field": args.field, "support": args.support}
    _emit(_report(config, [], result) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartanflow",
        description="Discrete vector-field calculus on simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_complex=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if needs_complex:
            p.add_argument("--complex", default=None)
            p.add_argument("--n", type=int, default=0)
            p.add_argument("--m", type=int, default=0)

    def field_opts(p, default="adjoint"):
        p.add_argument("--field", default=default, choices=fields.FIELD_KINDS)
        p.add_argument("--support", default="odd")
        p.add_argument("--integer-coeffs", action="store_true")
        p.add_argument("--p", type=float, default=0.5)

    p = sub.add_parser("gen", help="random complex to JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p, needs_complex=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("whitney", help="clique complex of a graph")
    p.add_argument("--edges", nargs="+", required=True, metavar="U-V")
    common(p, needs_complex=False)
    p.set_defaults(func=cmd_whitney)

    p = sub.add_parser("operators", help="emit d, D, L (and i_X, D_X, L_X)")
    common(p)
    field_opts(p, default=None)
    p.set_defaults(func=cmd_operators)

    p = sub.add_parser("spectrum", help="eigenvalues of L_X")
    common(p)
    field_opts(p)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run the identity check suite")
    common(p)
    field_opts(p)
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evolve", help="Schrodinger-form wave evolution")
    common(p)
    field_opts(p)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--initial-index", type=int, default=0)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("deform", help="run the operator deformation")
    common(p)
    field_opts(p)
    p.add_argument("--time", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("survey", help="integer/real spectrum statistics")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p, needs_complex=False)
    field_opts(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_survey)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (UsageError, complexes.ComplexError, fields.FieldError,
            linalg.LinalgError, deformation.DeformationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
