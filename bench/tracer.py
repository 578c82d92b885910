"""Per-layer spans for cartanflow, recorded from outside the package.

`Tracer.install()` replaces every public module-level function of each
layer module with a wrapper that records one span per call: (name, start,
end, parent span index, op id).  Names that other modules re-import, such as
`cli.cartan`, `cli.exterior_derivative`, `verification.spectral_report` or
the package namespace, are replaced too, so every call path is seen.
`uninstall()` puts the originals back.  Spans stay in memory; `write()`
saves them with the derived per-layer table when the run ends.

A layer's self time is the length of its spans minus the time their child
spans cover.  Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("complexes", "exterior", "fields", "linalg", "spectral",
          "dynamics", "deformation", "verification", "cli")

FIELD_BUILDERS = frozenset(f"fields.{name}" for name in (
    "adjoint_field", "zero_field", "deterministic_field", "random_edge_field",
    "build_edge_field", "sparsified_adjoint_field", "canonical_fields"))


class Tracer:
    """Installs span-recording wrappers on the cartanflow layers."""

    def __init__(self, package: str = "cartanflow"):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._namespaces = [importlib.import_module(package)]
        observers = self._observers()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            self._namespaces.append(module)
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    qualified = f"{layer}.{name}"
                    wrappers[fn] = self._wrap(fn, qualified, observers.get(qualified))
        # every (namespace, attribute) that holds a layer function, re-imports included
        self._patches = [
            (ns, attr, fn, wrappers[fn])
            for ns in self._namespaces
            for attr, fn in list(vars(ns).items())
            if inspect.isfunction(fn) and fn in wrappers
        ]

    def _observers(self) -> dict:
        counters = self.counters

        def symmetry(result, args, kwargs):
            import numpy as np
            from cartanflow.spectral import DEFAULT_TOL

            dx = args[0] if args else kwargs["dx"]
            tol = args[1] if len(args) > 1 else kwargs.get("tol", DEFAULT_TOL)
            scale = max(1.0, float(np.max(np.abs(dx.matrix))))
            counters["spectral.symmetry_calls"] += 1
            # the numerical pairing missed, so the exact char-poly fallback decided
            if result["pass"] and result["max_unpaired"] > tol * scale:
                counters["spectral.fallback_calls"] += 1

        def run_checks(result, args, kwargs):
            counters["verification.checks_failed"] += sum(
                1 for chk in result["checks"]
                if not chk["pass"] and not chk.get("informational"))

        def deformation(result, args, kwargs):
            counters["deformation.steps"] += result.steps

        return {
            "spectral.spectral_symmetry_check": symmetry,
            "verification.run_checks": run_checks,
            "deformation.run_deformation": deformation,
        }

    def _wrap(self, fn, name, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    # -- derived numbers -------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per-layer (self seconds, call counts) over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            self_s[layer] += end - start - covered
            calls[layer] += 1
        return self_s, calls

    def inclusive(self, names) -> tuple[float, int]:
        """Total time and count of outermost spans among `names`."""
        names = frozenset(names)
        total, count = 0.0, 0
        for name, start, end, parent, _ in self.spans:
            if name in names and (parent < 0 or self.spans[parent][0] not in names):
                total += end - start
                count += 1
        return total, count

    def layer_metrics(self, ops: int, bytes_out: int) -> dict:
        """The per-layer metrics, each normalised per op (or per step)."""
        self_s, calls = self.self_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer] / ops
            out[f"{layer}.calls"] = calls[layer] / ops
        timed = {
            "spectral.symmetry_s": ["spectral.spectral_symmetry_check"],
            "linalg.exact_rank_s": ["linalg.exact_rank"],
            "linalg.expm_s": ["linalg.matrix_exponential"],
            "linalg.eigen_s": ["linalg.eigenvalues"],
            "exterior.hodge_s": ["exterior.dirac_and_hodge"],
            "fields.cartan_s": ["fields.cartan"],
            "fields.build_s": FIELD_BUILDERS,
        }
        for metric, names in timed.items():
            out[metric] = self.inclusive(names)[0] / ops
        c = self.counters
        out["spectral.fallback_calls"] = c["spectral.fallback_calls"] / ops
        out["spectral.fallback_ratio"] = (
            c["spectral.fallback_calls"] / c["spectral.symmetry_calls"]
            if c["spectral.symmetry_calls"] else 0.0)
        step_s, steps = self.inclusive(["dynamics.evolve_schrodinger"])
        out["dynamics.step_ms"] = 1e3 * step_s / steps if steps else 0.0
        deform_s, _ = self.inclusive(["deformation.run_deformation"])
        out["deformation.step_ms"] = (
            1e3 * deform_s / c["deformation.steps"] if c["deformation.steps"] else 0.0)
        out["verification.checks_failed"] = c["verification.checks_failed"] / ops
        out["cli.bytes_out"] = bytes_out / ops
        return out

    @staticmethod
    def unit(metric: str) -> str:
        """Unit of a per-layer metric, from its name."""
        suffix = metric.rsplit(".", 1)[1]
        return {"self_s": "s/op", "calls": "calls/op", "fallback_calls": "calls/op",
                "fallback_ratio": "ratio", "step_ms": "ms/step", "checks_failed": "checks/op",
                "bytes_out": "B/op", "overhead_frac": "ratio"}.get(suffix, "s/op")

    def table(self) -> str:
        self_s, calls = self.self_times()
        total = sum(self_s.values()) or 1.0
        lines = [f"{'layer':<14}{'self_s':>12}{'share':>8}{'calls':>10}"]
        for layer in sorted(LAYERS, key=lambda l: -self_s[l]):
            lines.append(f"{layer:<14}{self_s[layer]:>12.4f}"
                         f"{self_s[layer] / total:>8.1%}{calls[layer]:>10d}")
        return "\n".join(lines)

    def write(self, path: Path, header: dict) -> None:
        """Save spans (times relative to the first span) and the self-time table."""
        origin = self.spans[0][1] if self.spans else 0.0
        self_s, calls = self.self_times()
        payload = dict(header)
        payload["self_time"] = {l: {"self_s": self_s[l], "calls": calls[l]} for l in LAYERS}
        payload["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        payload["spans"] = [[n, s - origin, e - origin, p, op]
                            for n, s, e, p, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
