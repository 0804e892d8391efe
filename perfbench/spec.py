"""What the hostark benchmark measures, and how its layers relate.

Workloads, metrics, units and bounds are read from ``BENCHMARK.json`` at
the root of the checkout.  ``MOVES`` records, for every per-layer metric,
the end-to-end metric and workload it should move, so a later change can
cite both by name; the traced report prints it next to each value.  The
mapping lives here because ``BENCHMARK.json`` has no key for it.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load() -> dict:
    """BENCHMARK.json, plus ``units``: the unit of every metric a run prints."""
    bench = json.loads(BENCHMARK_JSON.read_text())
    bench["units"] = {**REPORTED, **{m["name"]: m["unit"]
                                     for m in bench["end_to_end"] + bench["per_layer"]}}
    return bench


# Printed by every run but not gated: failed_ops_frac is 0 on three of the
# four workloads, and a gated metric must never read 0.  It travels as the
# result's `failed` / `attempted`.
REPORTED = {"failed_ops_frac": "frac"}

MOVES = {
    "spectra.cubic.calls": "sweep ops_per_s, op_p50_ms",
    "spectra.cubic.self_s": "sweep ops_per_s, op_p50_ms",
    "spectra.roots.calls": "sweep ops_per_s",
    "spectra.roots.self_s": "sweep ops_per_s",
    "spectra.roots.trig_frac": "sweep ops_per_s",
    "spectra.select.calls": "sweep ops_per_s; certify op_p50_ms",
    "spectra.select.self_s": "sweep ops_per_s; certify op_p50_ms",
    "spectra.select.bound_frac": "sweep ops_per_s; certify op_p50_ms",
    "spectra.level.calls": "sweep and certify ops_per_s, op_p50_ms",
    "spectra.level.self_s": "sweep and certify ops_per_s, op_p50_ms",
    "spectra.oracle.calls": "certify ops_per_s, op_tail_ms; cli (verify) op_p50_ms",
    "spectra.oracle.self_s": "certify ops_per_s, op_tail_ms; cli (verify) op_p50_ms",
    "spectra.oracle.no_sign_change": "certify failed_ops_frac (base: spectra.oracle.calls)",
    "reference.load_reference.calls": "cli (verify) op_p50_ms, op_tail_ms",
    "reference.load_reference.self_s": "cli (verify) op_p50_ms, op_tail_ms",
    "reference.compare.self_s": "cli (verify) op_p50_ms, op_tail_ms",
    "nu.reduce.calls": "cli (nu-check) op_p50_ms",
    "nu.reduce.self_s": "cli (nu-check) op_p50_ms",
    "wavefunctions.sample_radial.calls": "radial ops_per_s",
    "wavefunctions.sample_radial.self_s": "radial ops_per_s",
    "wavefunctions.constants_undefined":
        "radial: correct rejections (base: wavefunctions.sample_radial.calls)",
    "wavefunctions.samples": "radial ops_per_s",
    "wavefunctions.upper_spinor_F.self_s": "radial ops_per_s",
    "wavefunctions.lower_spinor_G.self_s": "radial ops_per_s",
    "wavefunctions.nr_radial_R.self_s": "radial ops_per_s",
    "wavefunctions.pseudo_lower_G.self_s": "radial ops_per_s",
    "wavefunctions.simpson.calls": "radial ops_per_s",
    "wavefunctions.simpson.self_s": "radial ops_per_s",
    "wavefunctions.count_nodes.self_s": "radial ops_per_s",
    "cli.parse.self_s": "cli op_p50_ms, once imports no longer dominate",
    "cli.command.self_s": "cli op_p50_ms, once imports no longer dominate",
    "cli.stdout_bytes": "cli op_p50_ms, once imports no longer dominate",
    "bench.op.calls": "base of every count and self time of the traced run",
    "bench.op.self_s": "none: op time outside every wrapped function",
    "setup.interpreter_s": "setup_s on every workload; cli op_p50_ms",
    "setup.import.numpy_s": "setup_s on every workload; cli op_p50_ms; peak_rss_mb",
    "setup.import.scipy_integrate_s": "setup_s on every workload; cli op_p50_ms; peak_rss_mb",
    "setup.import.hostark_s": "setup_s on every workload; cli op_p50_ms; peak_rss_mb",
}
