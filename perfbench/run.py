"""Benchmark for spexplanar: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload argmax-259 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its ./src, in this process, single-worker (SPEX_THREADS=1). A run measures
the program's set-up in fresh interpreters, repeats whole rounds of the
workload until the rounds have taken --seconds (at least one round), checks
each round's outputs against independent computations, and measures set-up
again. With --trace 1 it adds one traced round on the first round's inputs
and reports per-layer metrics and the tracing overhead instead of the
end-to-end metrics. Timings are at the reference speed of speed.py.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5  # taken before and again after the rounds: 10 in all

# time measured inside a fresh interpreter: the program's import and parser
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import spexplanar.cli
spexplanar.cli.build_parser()
print(repr(time.perf_counter() - t0))
"""


def setup_samples(env: dict, spot_factor) -> list[tuple[float, float]]:
    """(reference-speed, raw) import + parser time of SETUP_SAMPLES fresh
    interpreters. The host's speed is probed just before and just after
    each child, not while it runs, so the probe does not compete with it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = spot_factor()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        factor = (before + spot_factor()) / 2
        raw = float(proc.stdout.strip().splitlines()[-1])
        samples.append((raw * factor, raw))
    return samples


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spexplanar" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'spexplanar'}; run from a "
              "spexplanar checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import tracer as T
    from perfbench.speed import Speedometer, spot_factor
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # single worker: measure the program, not two processes on shared cores
    os.environ["SPEX_THREADS"] = "1"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup = setup_samples(env, spot_factor)

    sys.path.insert(0, str(SRC))
    import spexplanar
    import spexplanar.cli
    if Path(spexplanar.__file__).resolve().parent != SRC / "spexplanar":
        print(f"error: imported spexplanar from {spexplanar.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](spexplanar, args.seed)
    speedo = Speedometer()
    speedo.start()
    walls, raw_walls, latencies, errors, failures = [], [], [], [], []
    attempted = failed = 0
    first_inputs, peak_rss_mb, program_s = None, 0.0, 0.0

    def finish_round(inputs, res, index) -> None:
        """Turn stamps into durations, then check and drop the outputs."""
        nonlocal attempted, failed
        a, b = res.span
        walls.append(speedo.normalize(a, b))
        raw_walls.append(b - a - speedo.probe_time(a, b))
        latencies.append([speedo.normalize(s, e) * 1e3 for s, e in res.queries])
        attempted += res.attempted
        failed += res.failed
        failures.extend(res.failures)
        speedo.stop()  # no probes while the checks run
        try:
            errors.extend(wl.check(inputs, res, wl.rng("check", index)))
        except Exception as exc:  # output the checks cannot even parse
            errors.append(f"round {index}: {type(exc).__name__}: {exc}")
        speedo.start()

    while first_inputs is None or program_s < args.seconds:
        index = len(walls)
        inputs = wl.inputs(index)
        res = wl.run(inputs)
        if first_inputs is None:
            first_inputs = inputs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        program_s += res.span[1] - res.span[0]
        finish_round(inputs, res, index)
        print(f"{args.workload}: round {index + 1} {walls[-1]:.3f} s "
              f"(raw {raw_walls[-1]:.3f} s)", file=sys.stderr)
    untraced = len(walls)

    tracer = None
    if args.trace:
        tracer = T.Tracer()
        tracer.install(spexplanar)
        try:
            traced = wl.run(first_inputs)
        finally:
            tracer.uninstall()
        trace_factor = speedo.factor(*traced.span)
        finish_round(first_inputs, traced, untraced)

    speedo.stop()
    # a second batch, tens of seconds later, so one slow spell of the host
    # cannot hold every sample
    setup += setup_samples(env, spot_factor)

    for f in failures:
        print(f"failed: {f}", file=sys.stderr)
    for e in errors:
        print(f"check: {e}", file=sys.stderr)
    print(f"speed: {speedo.summary()}; setup raw median "
          f"{statistics.median(r for _, r in setup):.4f} s", file=sys.stderr)

    wall_s = statistics.median(walls[:untraced])
    if tracer is None:
        lat = [ms for round_lat in latencies[:untraced] for ms in round_lat]
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(s for s, _ in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "query_ms_p50": (statistics.median(lat), "ms"),
            "query_ms_p99": (percentile(lat, 99), "ms"),
        }
    else:
        overhead = walls[-1] - wall_s
        print(f"tracing overhead: {overhead:.3f} s (traced {walls[-1]:.3f} s, "
              f"untraced {wall_s:.3f} s)")
        layers = tracer.layer_metrics()
        for name, (unit, _) in T.LAYER_METRICS.items():
            if unit == "s":
                layers[name] *= trace_factor
        layers["trace.overhead_s"] = overhead
        metrics = {name: (layers[name], unit)
                   for name, (unit, _) in T.LAYER_METRICS.items()}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_wall_s": walls[-1], "untraced_wall_s": wall_s,
                       "speed_factor": trace_factor, "layers": layers,
                       "functions_raw_s": tracer.function_table()},
                      fh, indent=1)

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
