"""One benchmark for the Stampede pipeline: BP log -> bus -> loader ->
archive/rollups -> dashboard.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``BENCHMARK.json`` and ``workloads.py``) against
the real programs from ``src/``, checks the result with the oracles in
``system.check_archive``, and prints a summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the processes with span
wrappers and reports the per-layer metrics instead.  Exits 1 when an
oracle fails, 2 when the sources are missing or the arguments are wrong.

Scratch files live under ``.perfbench/`` at the checkout root: one
directory per run (removed at exit) and a cache of generated inputs.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"

ENDPOINTS = ("workflows", "workflow", "progress", "jobs", "poll")


def declared_metrics() -> tuple:
    """``(end_to_end, per_layer)`` as ``[(name, unit), ...]``, read from
    BENCHMARK.json: the one place the metric set is defined."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def _finite(value) -> float:
    """A printable number: a metric that could not be measured reads 0
    (and has already failed the run when it is an end-to-end one)."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # mixed_trace orders events by set iteration: pin the hash seed
        # so the same --seed gives the same inputs in every process
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]], env)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # the generator and the reader share this interpreter: a short switch
    # interval keeps one from holding the other's response for up to 5 ms,
    # and no collector pause lands between a response and its timestamp
    sys.setswitchinterval(0.0005)
    gc.disable()
    import workloads
    from system import median, pct, stop_all

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORKDIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Ctx(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                        work=work, cache=WORKDIR / "cache")

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    # a killed bench must not leave the system's processes behind
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, interrupted)
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
        rss = max(p.peak_rss_mb() for p in ctx.procs)
    finally:
        stop_all(ctx.procs)
        shutil.rmtree(work, ignore_errors=True)

    if out.late_max_s > workloads.LATE_LIMIT_S:
        out.problems.append(
            f"invalid run: a generator ran {out.late_max_s * 1000:.0f} ms behind its "
            f"schedule (limit {workloads.LATE_LIMIT_S * 1000:.0f} ms)")
        out.failed += 1
    e2e = {
        "ingest_eps": out.ingest_eps,
        "freshness_p50_ms": out.freshness_p50_ms,
        "freshness_p99_ms": out.freshness_p99_ms,
        "ingest_cpu_us_per_event": out.ingest_cpu_s / out.events * 1e6,
        "setup_s": out.setup_s,
        "peak_rss_mb": rss,
        "archive_bytes_per_event": out.archive_bytes / out.events,
        "ok_share": 1.0 - out.failed / max(1, out.attempted),
    }
    for name, value in e2e.items():
        if not math.isfinite(value) or value <= 0:
            out.problems.append(f"{name} could not be measured ({value})")
    correct = not out.problems
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {out.events} input events, "
          f"{len(out.freshness_ms)} freshness samples, {len(out.query_ms)} requests, "
          f"attempted={out.attempted} failed={out.failed}")
    for p in out.problems:
        print(f"  FAILED CHECK: {p}")
    for e in ENDPOINTS:
        vals = out.endpoint_ms.get(e, [])
        if vals:
            print(f"  endpoint {e:10s} n={len(vals):5d} p50={median(vals):9.2f} ms "
                  f"p99={pct(vals, 99.0):9.2f} ms")
    print(f"  generator late max {out.late_max_s * 1000:.1f} ms, "
          f"reader late max {out.reader_late_s * 1000:.1f} ms")
    if out.reader_lateness:
        print(f"  reader lateness p50={median(out.reader_lateness):.3f} "
              f"p99={pct(out.reader_lateness, 99.0):.3f} ms")
    end_to_end, per_layer = declared_metrics()
    if args.trace:
        layers = dict(out.layers)
        layers.setdefault("archive.db_bytes", float(out.archive_bytes))
        layers["gen.late_max_ms"] = out.late_max_s * 1000.0
        layers["dashboard.requests_p50_ms"] = median(out.query_ms)
        layers["dashboard.requests_p99_ms"] = pct(out.query_ms, 99.0)
        for e in ENDPOINTS:
            vals = out.endpoint_ms.get(e, [])
            layers[f"dashboard.{e}_p50_ms"] = median(vals) if vals else 0.0
            layers[f"dashboard.{e}_p99_ms"] = pct(vals, 99.0) if vals else 0.0
        metrics = {name: {"value": _finite(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in per_layer}
    else:
        metrics = {name: {"value": _finite(e2e[name]), "unit": unit}
                   for name, unit in end_to_end}
        print(f"  (ingest over {out.events} events; freshness n={len(out.freshness_ms)}; "
              f"query n={len(out.query_ms)}; setup repeats={workloads.SETUP_REPEATS})")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": int(out.attempted),
                      "failed": int(out.failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
