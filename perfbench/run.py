"""Run one workload of the hostark benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``
of that checkout and nowhere else.  Each run starts ``worker.py`` as a
fresh interpreter (PYTHONPATH=src) which does the work; this process only
launches and reports.  Workloads:

  sweep    spectrum_grid over 11 levels x 100 field strengths per operation
  certify  solve_level plus bisection_oracle on one wide-range draw
  radial   sample_radial of one of four kinds, 1001..100001 samples
  cli      one ``python -m hostark.cli`` subprocess over seven commands

Workloads (with why each exists), metrics, units and bounds are read from
``BENCHMARK.json``; ``spec.py`` maps each per-layer metric to the
end-to-end metric it moves.

A run draws a fixed pool of inputs from ``--seed`` and cycles through it
for ``--seconds`` of timed work (at least one full pass).  ``attempted``
and ``failed`` count distinct pool inputs, so they repeat exactly for a
seed.  Times are CPU seconds of the process doing the work and of its
CLI children, which leave out the time the shared host's hypervisor takes
the CPU away.  Operation times are moreover in reference seconds: scaled
by the host-speed probe taken next to them (``hostspeed.py``), so that
runs made while the host is in a slower state compare with runs made in a
faster one; the raw values are printed beside.  ``setup_s`` is not
scaled: the probe stands for a warm interpreter's work, not for process
start-up, and scaling made its run-to-run spread wider, not narrower.

``--trace 0`` measures the end-to-end metrics untraced; ``setup_s`` is the
median over five fresh launches.  ``--trace 1`` runs every input slice
twice, untraced and traced in alternating order, for half the window
each; it reports the per-layer metrics of the traced side, the tracing
overhead against the untraced side, and the ``setup.*`` numbers from
separate interpreter launches.  The CLI workload then calls
``hostark.cli.main`` in-process.  Spans of the traced side are written to
``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every output is checked;
``failed`` counts operations that raised unexpectedly, exited with an
unexpected code, or returned an output that failed its check, and the
``# outcomes`` line breaks them down.  ``correct`` says whether those checks
can be trusted: it is false when the checker's self-test (a perturbed
energy and a non-zero exit code must both fail) does not pass.  Exit code 2
means the benchmark could not run; no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 5
PROBE_REPEATS = 3
LAUNCH_GRACE_S = 120.0


class BenchError(Exception):
    pass


def launch(env, workload, seed, seconds, mode, spans_path=None):
    """Start a worker; return (its set-up CPU seconds, result dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(seconds + LAUNCH_GRACE_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not ready.startswith("READY "):
        raise BenchError(f"worker {mode} run exited with code {proc.returncode}")
    return float(ready.split()[1]), (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def _wall(env, argv) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=LAUNCH_GRACE_S)
    if proc.returncode != 0:
        raise BenchError(f"{argv} exited with code {proc.returncode}")
    return time.perf_counter() - t0, proc.stderr


def setup_probes(env) -> dict:
    """setup.* metrics: bare interpreter start and `python -X importtime` cumulative times."""
    interp, imports = [], {"numpy": [], "scipy.integrate": [], "hostark": []}
    for _ in range(PROBE_REPEATS):
        interp.append(_wall(env, ["-c", "pass"])[0])
        cumulative = {}
        for line in _wall(env, ["-X", "importtime", "-c", "import hostark, hostark.cli"])[1].splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) * 1e-6)
        imports["numpy"].append(cumulative.get("numpy", 0.0))
        imports["scipy.integrate"].append(cumulative.get("scipy.integrate", 0.0))
        imports["hostark"].append(cumulative.get("hostark", 0.0) + cumulative.get("hostark.cli", 0.0))
    return {
        "setup.interpreter_s": statistics.median(interp),
        "setup.import.numpy_s": statistics.median(imports["numpy"]),
        "setup.import.scipy_integrate_s": statistics.median(imports["scipy.integrate"]),
        "setup.import.hostark_s": statistics.median(imports["hostark"]),
    }


def metadata(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hostark").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def _line(units, name, value, note=""):
    unit = units[name]
    print(f"{name:<38} {value!r:>24} {unit:<6} {note}".rstrip())


def _outcomes(result) -> str:
    tags = sorted(result["tags"].items(), key=lambda kv: -kv[1])
    return (", ".join(f"{tag} {count}" for tag, count in tags)
            + f" (of {result['attempted']} pool inputs)")


def main() -> int:
    try:
        bench = spec.load()
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read {spec.BENCHMARK_JSON}: {exc}", file=sys.stderr)
        return 2
    units = bench["units"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hostark" / "__init__.py").is_file():
        print(f"run.py: no program at {ROOT / 'src' / 'hostark'}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONHOME", None)
    print(f"# hostark benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# meta " + json.dumps(metadata(args)))
    try:
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json.gz"
            setup, result = launch(env, args.workload, args.seed, args.seconds, "trace", spans_path)
            metrics = {**result["per_layer"], **setup_probes(env)}
        else:
            setups = [launch(env, args.workload, args.seed, args.seconds, "setup")[0]
                      for _ in range(SETUP_LAUNCHES - 1)]
            setup, result = launch(env, args.workload, args.seed, args.seconds, "run")
            setups.append(setup)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        plain, traced = result["untraced"], result["traced"]
        for m in bench["per_layer"]:
            _line(units, m["name"], metrics[m["name"]], f"-> {spec.MOVES[m['name']]}")
        print(f"# tracing overhead: {result['overhead_frac']:+.1%} over {plain['timed_ops']} "
              f"operations run untraced and traced in alternating slices on the same inputs "
              f"(op_p50_ms {traced['op_p50_ms']:.6g} traced, {plain['op_p50_ms']:.6g} untraced; "
              f"traced setup {setup:.4g} s)")
        print(f"# self times cover {result['self_s_total'] / traced['op_total_s']:.2%} of the "
              f"{traced['op_total_s']:.6g} s of traced operation time; spans in {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_tail_ms": result["op_tail_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes = {
            "ops_per_s": f"({result['timed_ops']} ops over {result['attempted']} pool inputs in "
                         f"{result['window_s']:.4g} s; median over {result['chunks']} chunks; raw "
                         f"{result['raw_ops_per_s']:.5g}/s, host speed x{result['host_speed']:.3g})",
            "op_p50_ms": f"(raw {result['raw_op_p50_ms']:.5g} ms)",
            "op_tail_ms": f"(p{result['tail_percentile']:.4g}, {result['tail_beyond']:.0f} of "
                          f"{result['timed_ops'] // result['chunks']} samples beyond)",
            "setup_s": f"(median of {len(setups)} launches: "
                       + ", ".join(f"{t:.4g}" for t in setups) + ")",
            "peak_rss_mb": "(max over the CLI child processes)" if args.workload == "cli" else "",
        }
        for m in bench["end_to_end"]:
            _line(units, m["name"], metrics[m["name"]], notes.get(m["name"], ""))
    _line(units, "failed_ops_frac", result["failed"] / result["attempted"],
          f"({result['failed']} of {result['attempted']} pool inputs; not gated)")
    print(f"# outcomes: {_outcomes(result)}")
    for problem in result["self_test"]:
        print(f"# checker self-test FAILED: {problem}")

    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not result["self_test"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
