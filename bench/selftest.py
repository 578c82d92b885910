"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload, declared in BENCHMARK.json or not, at self-test sizes
through the real command, traced and untraced, and checks that the printed
metric names and units match BENCHMARK.json and that no op failed.  Then
it feeds the timed pass ops that raise, fail a program check or return
wrong output, and checks that all three lower `ok_frac`, that only the
raising and the wrong one count as failed, and that the tracer leaves the
package as it found it.  Exits 0 when all holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_command(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workloads(spec: dict) -> None:
    import workloads

    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    declared = {w["name"] for w in spec["workloads"]}
    assert declared <= set(workloads.workloads()), declared
    for workload in workloads.workloads():
        for trace, units in expected.items():
            result = run_command(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == units, (workload, trace, set(got) ^ set(units))
            assert result["correct"] and result["attempted"] >= 1, (workload, trace, result)
            assert result["failed"] == 0, (workload, trace, result)
            print(f"ok {workload} --trace {trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed")


def check_failure_counting() -> None:
    import run
    from workloads import Op

    def boom():
        raise ValueError("op raised")

    ops = [
        Op("raises", boom, lambda out: ([], False)),
        Op("fails a program check", lambda: 1, lambda out: (["some_check"], False)),
        Op("wrong output", lambda: 1, lambda out: (["final_state"], True)),
        Op("passes", lambda: 1, lambda out: ([], False)),
    ]
    result = run.timed_pass(iter(ops), seconds=60)
    assert len(result.latencies) == 4 and result.flagged == 3 and result.wrong == 2, result
    assert run.end_to_end(result, [1.0])["ok_frac"] == 0.25
    assert result.tally["raised ValueError"] == 1 and result.tally["some_check"] == 1
    print("ok failing ops are counted: 3 of 4 with failing checks (ok_frac 0.25), 2 failed")


def check_tracer_restores() -> None:
    import cartanflow
    from cartanflow import cli, fields, verification
    from tracer import Tracer

    before = (cli.cartan, cli.exterior_derivative, verification.spectral_report,
              cartanflow.cartan)
    tracer = Tracer()
    tracer.install()
    assert cli.cartan is not before[0] and cartanflow.cartan is cli.cartan
    d = cartanflow.exterior_derivative(cartanflow.random_complex(4, 4, 1))
    cartanflow.cartan(d, fields.adjoint_field(d.complex_ref))
    tracer.uninstall()
    after = (cli.cartan, cli.exterior_derivative, verification.spectral_report,
             cartanflow.cartan)
    assert after == before
    names = {span[0] for span in tracer.spans}
    assert {"fields.cartan", "exterior.exterior_derivative", "complexes.random_complex"} <= names
    print(f"ok tracer recorded {len(tracer.spans)} spans and restored the package")


def main() -> int:
    sys.path.insert(0, str(BENCH))
    import run  # noqa: F401  (puts the package sources on the import path)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_workloads(spec)
    check_failure_counting()
    check_tracer_restores()
    return 0


if __name__ == "__main__":
    sys.exit(main())
