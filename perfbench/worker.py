"""The measured process of one benchmark run (started by run.py).

Protocol on stdout: after interpreter start, ``import hostark``,
``import hostark.cli`` and one untimed warm-up operation it prints
``READY <set-up CPU seconds>`` (see ``cpu_clock``; the drawing of the
warm-up input is left out); in ``run`` and ``trace`` mode it then measures
and prints one JSON line with the results.  Everything else goes to stderr.

Untraced runs time with ``cpu_clock``: on the shared host the hypervisor
takes the CPU away for 2-60 ms several times a second (steal, ~5% of wall
time), which wall time would count as program time.  Traced runs time with
``time.perf_counter``, the clock of the spans.

    PYTHONPATH=src python3 perfbench/worker.py --workload sweep --seed 1 --seconds 20 --mode run
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import hostark
import hostark.cli
import numpy as np
from hostark import spectra, wavefunctions

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SLICE_S = 0.25  # timed operations between two host-speed probes
CHUNK_MIN = 1100  # operations per chunk, so that p99 has at least 10 samples beyond it
MAX_CHUNKS = 8


def _count_trig(c, sol):
    c["trig"] += sol.method is spectra.CubicMethod.TRIGONOMETRIC


def _count_bound(c, level):
    c["bound"] += level.status is spectra.Status.BOUND


def _count_no_sign_change(c, exc):
    c["no_sign_change"] += isinstance(exc, spectra.NoSignChange)


def _count_samples(c, rf):
    c["samples"] += len(rf.values)


def _count_constants_undefined(c, exc):
    c["constants_undefined"] += isinstance(exc, wavefunctions.ConstantsUndefined)


def targets(tracer):
    """(module, function, layer, on_result, on_error) wrapped in the traced run."""
    def traced_parse_args(c, parser):
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)

    return [
        ("hostark.spectra", "cubic_coefficients", "spectra.cubic", None, None),
        ("hostark.spectra", "solve_cubic_cardano", "spectra.roots", _count_trig, None),
        ("hostark.spectra", "select_physical_root", "spectra.select", _count_bound, None),
        ("hostark.spectra", "solve_level", "spectra.level", None, None),
        ("hostark.spectra", "spectrum_grid", "spectra.level", None, None),
        ("hostark.spectra", "bisection_oracle", "spectra.oracle", None, _count_no_sign_change),
        ("hostark.spectra", "pseudospin_breakdown_threshold", "spectra.oracle", None,
         _count_no_sign_change),
        ("hostark.reference", "load_reference", "reference.load_reference", None, None),
        ("hostark.reference", "compare", "reference.compare", None, None),
        ("hostark.nu", "reduce", "nu.reduce", None, None),
        ("hostark.wavefunctions", "sample_radial", "wavefunctions.sample_radial",
         _count_samples, _count_constants_undefined),
        ("hostark.wavefunctions", "upper_spinor_F", "wavefunctions.upper_spinor_F", None, None),
        ("hostark.wavefunctions", "lower_spinor_G", "wavefunctions.lower_spinor_G", None, None),
        ("hostark.wavefunctions", "nr_radial_R", "wavefunctions.nr_radial_R", None, None),
        ("hostark.wavefunctions", "pseudo_lower_G", "wavefunctions.pseudo_lower_G", None, None),
        ("hostark.wavefunctions", "simpson", "wavefunctions.simpson", None, None),
        ("hostark.wavefunctions", "count_nodes", "wavefunctions.count_nodes", None, None),
        ("hostark.cli", "main", "cli.command", None, None),
        ("hostark.cli", "build_parser", "cli.parse", traced_parse_args, None),
    ]


def cpu_clock() -> float:
    """CPU seconds of this process and its waited-for children.

    For a single-threaded closed loop this is its wall time without the
    time the host's hypervisor ran something else on our CPU.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def time_ops(run, pool, start, record, clock, *, count=None, limit_s=None, tracer=None):
    """Run pool inputs from `start` on, cycling, one in flight, until `count`
    operations are done or `limit_s` of timed work has passed.

    Each output goes to ``record(k, output)`` as soon as its operation ends;
    that call is outside the timed work, and no output outlives it, so the
    process holds one output at a time.  Returns (latencies, timed seconds):
    the timed seconds of a closed loop are the sum of its latencies.
    """
    lat, wall = array("d"), 0.0
    root = tracer.layer_id(spans.ROOT) if tracer is not None else None
    k = start
    while True:
        x = pool[k % len(pool)]
        ts = clock()
        if tracer is not None:
            tracer.op_id += 1
            span = tracer.open(root)
        try:
            out = run(x)
        except Exception as exc:  # an unexpected exception is a failed operation
            out = exc
        if tracer is not None:
            tracer.close(span)
        te = clock()
        lat.append(te - ts)
        wall += te - ts
        record(k, out)
        out = None
        k += 1
        if (count is not None and k - start >= count) or \
                (limit_s is not None and wall >= limit_s):
            return lat, wall


class Tally:
    """Timed slices of one side of a run, and the outcome of every pool input.

    A host-speed probe is taken before each slice; the run's latencies and
    timed seconds are scaled to reference seconds by their median (hostspeed.py).
    An input's outcome is its first failing tag over all its runs, else its
    first tag, so `attempted` and `failed` count distinct pool inputs and
    repeat exactly for a seed.
    """

    def __init__(self, wl, pool):
        self.wl, self.pool = wl, pool
        self.lat, self.probes = array("d"), []
        self.outcome: dict[int, str] = {}
        self.window = 0.0

    def record(self, k, out) -> None:
        i = k % len(self.pool)
        tag = self.wl.check(self.pool[i], out)
        if i not in self.outcome or (is_failure(tag) and not is_failure(self.outcome[i])):
            self.outcome[i] = tag

    def add(self, timed, probe) -> int:
        lat, wall = timed
        self.lat.extend(lat)
        self.probes.append(probe)
        self.window += wall
        return len(lat)

    def summary(self) -> dict:
        """End-to-end figures of the run, each the median over its chunks.

        The run's operations are split into up to MAX_CHUNKS chunks of
        consecutive operations, each at least CHUNK_MIN long; a stretch of
        seconds in which the host runs slow then moves only the chunks it
        falls in, not the median over them.  Runs too short for two chunks
        (sweep, cli) are one chunk.
        """
        scale = hostspeed.scale(self.probes)
        raw = np.asarray(self.lat)
        n = len(raw)
        chunks = [chunk_figures(c * scale)
                  for c in np.array_split(raw, max(1, min(MAX_CHUNKS, n // CHUNK_MIN)))]
        return {
            **outcome_counts(self.outcome),
            **{key: float(np.median([c[key] for c in chunks])) for key in chunks[0]},
            "chunks": len(chunks),
            "timed_ops": n,
            "window_s": self.window,
            "op_total_s": float(raw.sum()),
            "raw_ops_per_s": n / self.window,
            "raw_op_p50_ms": 1e3 * float(np.median(raw)),
            "host_speed": scale,
        }


def chunk_figures(lat) -> dict:
    s = np.sort(lat)
    n = len(s)
    # The highest order statistic with at least 10 samples beyond it, capped
    # at p99: beyond p99 of thousands of sub-millisecond operations a few
    # rare inputs, garbage-collector passes and page faults decide it.
    k = min(max(n - 11, 0), int(np.ceil(0.99 * n)) - 1)
    return {
        "ops_per_s": n / float(s.sum()),  # closed loop: timed seconds are the latencies' sum
        "op_p50_ms": 1e3 * float(np.median(s)),
        "op_tail_ms": 1e3 * float(s[k]),
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_beyond": n - 1 - k,
    }


def is_failure(tag: str) -> bool:
    return tag.startswith(("error:", "wrong:"))


def outcome_counts(outcome: dict[int, str]) -> dict:
    tags = Counter(outcome.values())
    return {"attempted": len(outcome), "failed": sum(v for t, v in tags.items() if is_failure(t)),
            "tags": dict(tags)}


def pass_rest(k, pool, window, seconds):
    """Operations left before the loop stops: None while under `seconds` of
    timed work, then the rest of the current pass over the pool (0: stop).

    Stopping only at the end of a pass runs every pool input equally often.
    """
    return None if window < seconds else -k % len(pool)


def measure(wl, pool, seconds) -> Tally:
    """Closed loop over the pool, in probed slices, for `seconds` of timed work
    rounded up to whole passes."""
    tally, k = Tally(wl, pool), 0
    while (rest := pass_rest(k, pool, tally.window, seconds)) != 0:
        probe = hostspeed.probe()
        k += tally.add(time_ops(wl.run, pool, k, tally.record, cpu_clock,
                                count=rest, limit_s=SLICE_S), probe)
    return tally


def measure_traced(wl, pool, seconds, tracer, bindings, run_traced):
    """Run each slice of inputs untraced and traced, alternating which goes first.

    Both sides see the same inputs in the same state of the host, so their
    time ratio is the tracing overhead; stops after `seconds` of traced time
    rounded up to whole passes.
    """
    plain, traced = Tally(wl, pool), Tally(wl, pool)
    k, first = 0, False
    while (count := pass_rest(k, pool, traced.window, seconds)) != 0:
        probe = hostspeed.probe()
        first = not first
        limit = SLICE_S
        for side in (first, not first):
            spans.rebind(bindings, side)
            if side:
                count = traced.add(time_ops(run_traced, pool, k, traced.record, time.perf_counter,
                                            count=count, limit_s=limit, tracer=tracer), probe)
            else:
                count = plain.add(time_ops(wl.run, pool, k, plain.record, time.perf_counter,
                                          count=count, limit_s=limit), probe)
            limit = None  # the second side runs the first side's inputs
        spans.rebind(bindings, False)
        k += count
    return plain, traced


def per_layer(tracer, stdout_bytes: int) -> dict:
    self_s, calls = tracer.self_times()
    c = tracer.counters
    m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in tracer.layers}
    for layer in ("spectra.cubic", "spectra.roots", "spectra.select", "spectra.level",
                  "spectra.oracle", "reference.load_reference", "nu.reduce",
                  "wavefunctions.sample_radial", "wavefunctions.simpson", spans.ROOT):
        m[f"{layer}.calls"] = calls.get(layer, 0)
    m["spectra.roots.trig_frac"] = c["trig"] / max(calls.get("spectra.roots", 0), 1)
    m["spectra.select.bound_frac"] = c["bound"] / max(calls.get("spectra.select", 0), 1)
    m["spectra.oracle.no_sign_change"] = c["no_sign_change"]
    m["wavefunctions.constants_undefined"] = c["constants_undefined"]
    m["wavefunctions.samples"] = c["samples"]
    m["cli.stdout_bytes"] = stdout_bytes
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--spans", default=None, help="trace mode: write the spans here")
    args = ap.parse_args()

    src = ROOT / "src"
    if Path(hostark.__file__).resolve().parent.parent != src:
        print(f"worker: hostark imported from {hostark.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    tracing = args.mode == "trace"
    wl = workloads.make_workloads(in_process_cli=tracing)[args.workload]
    g0 = time.process_time()
    warm = wl.pool(random.Random(f"warm-up {args.seed}"))[0]
    gen_s = time.process_time() - g0
    wl.run(warm)
    print(f"READY {cpu_clock() - gen_s!r}", flush=True)
    if args.mode == "setup":
        return 0

    result = {"self_test": workloads.self_test()}
    pool = wl.pool(random.Random(args.seed))
    if not tracing:
        tally = measure(wl, pool, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        result.update(tally.summary())
        print(json.dumps(result), flush=True)
        return 0

    tracer = spans.Tracer()
    bindings = spans.bind(tracer, targets(tracer))
    stdout_bytes = 0

    def run_traced(x):
        nonlocal stdout_bytes
        out = wl.run(x)
        if args.workload == "cli":
            stdout_bytes += len(out[1])
        return out

    plain, traced = measure_traced(wl, pool, args.seconds / 2.0, tracer, bindings, run_traced)
    result["untraced"], result["traced"] = plain.summary(), traced.summary()
    # both sides ran the whole pool; an input fails if either side's run of it failed
    result.update(outcome_counts({i: t if is_failure(t) else traced.outcome[i]
                                  for i, t in plain.outcome.items()}))
    result["overhead_frac"] = sum(traced.lat) / sum(plain.lat) - 1.0
    result["per_layer"] = per_layer(tracer, stdout_bytes)
    result["self_s_total"] = sum(v for k, v in result["per_layer"].items() if k.endswith(".self_s"))
    if args.spans:
        tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
