#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a final JSON line.

    python3 perfbench/run.py --workload estimate-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
tracing.  ``--trace 1`` runs a fixed traced slice of every workload (the
named one first), prints each slice's layer ledger and reports the
per-layer metrics of ``perfbench/ledger.json``.  Everything a run writes
goes under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
LEDGER = Path(__file__).resolve().parent / "ledger.json"
# Fresh interpreters whose median setup time is setup_s.
SETUP_SAMPLES = 5
# Passes each workload replays, untraced and then traced, in a --trace 1 run.
TRACE_PASSES = {"estimate-mix": 3, "campaign-target": 8, "cold-estimate": 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("estimate-mix", "campaign-target", "cold-estimate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="INPUTS", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))

    from perfbench.checks import Checker
    from perfbench.workloads import Context

    ctx = Context(ROOT, env, args.seed, Checker())
    if args.setup_probe is not None:
        return setup_probe(args, ctx)
    # Byte-compile once so no timed import pays for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/repro", "perfbench"],
                   cwd=ROOT, env=env, check=True)
    if args.trace:
        metrics = traced_run(args, ctx)
    else:
        metrics = measured_run(args, ctx)
    checker = ctx.checker
    for error in checker.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def setup_probe(args, ctx) -> int:
    """Fresh interpreter: import the library and set the workload up once."""
    start = time.perf_counter()
    import repro.engine  # noqa: F401
    import repro.parallel  # noqa: F401

    imports = time.perf_counter() - start
    from perfbench.workloads import WORKLOADS, Stopwatch

    workload = WORKLOADS[args.workload](ctx)
    workload.load(json.loads(Path(args.setup_probe).read_text()))
    clock = Stopwatch()
    try:
        workload.setup(clock)
    finally:
        workload.close()
    print(json.dumps({"setup_s": imports + clock.total}))
    return 0


def setup_samples(args, ctx, inputs_path: Path):
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(inputs_path)],
            cwd=ROOT, env=ctx.env, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_items(workload, passes, checker, tracer=None):
    """Run passes of requests; returns per-request latencies, pass walls
    (summed request latencies) and pass trial counts."""
    latencies, walls, trials = [], [], []
    for items in passes:
        wall = done = 0
        for item in items:
            span = (tracer.span("perfbench.request", "perfbench",
                                family=workload.family_of(item))
                    if tracer is not None else contextlib.nullcontext())
            try:
                with span:
                    ran, seconds, error = workload.request(item)
            except Exception as exc:  # counted as a failed operation
                ran, seconds, error = 0, None, f"{workload.name}: {exc!r}"
            checker.record(error)
            if seconds is not None:
                latencies.append(seconds)
                wall += seconds
                done += ran
        walls.append(wall)
        trials.append(done)
    return latencies, walls, trials


def closed_loop(workload, seconds: float, checker):
    """Whole passes, back to back, for ``seconds`` of pass time.

    The workload's CLI requests are spread evenly over the same window, so
    ``cli_cold_s`` samples the whole run rather than one moment of it; the
    time they take does not count against the window.
    """
    cli = list(workload.cli_reqs)
    interval = seconds / max(1, len(cli))
    source = workload.passes()

    def passes():
        start = time.perf_counter()
        issued = 0
        while True:
            if issued < len(cli) and time.perf_counter() - start >= issued * interval:
                paused = time.perf_counter()
                workload.cli_request(cli[issued])
                issued += 1
                start += time.perf_counter() - paused
            if time.perf_counter() - start >= seconds:
                break
            yield next(source)
        for req in cli[issued:]:
            workload.cli_request(req)

    return run_items(workload, passes(), checker)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children (pool
    workers), from ``/proc``; falls back to this process alone."""

    def high_water_kb(pid) -> int:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    try:
        total = high_water_kb("self")
    except OSError:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for children in Path("/proc/self/task").glob("*/children"):
        for pid in children.read_text().split():
            with contextlib.suppress(OSError):
                total += high_water_kb(pid)
    return total / 1024


def metric(value, unit):
    return {"value": value, "unit": unit}


def measured_run(args, ctx):
    from perfbench.workloads import WORKLOADS, Stopwatch, percentile

    workload = WORKLOADS[args.workload](ctx)
    inputs = workload.generate()
    inputs_path = OUT / f"inputs-{args.workload}-{args.seed}.json"
    inputs_path.write_text(json.dumps(inputs))
    workload.load(inputs)
    setups = setup_samples(args, ctx, inputs_path)
    try:
        workload.setup(Stopwatch())
        workload.prepare()
        ctx.checker.record(workload.self_test())
        latencies, walls, trials = closed_loop(workload, args.seconds, ctx.checker)
        rss = peak_rss_mb()
    finally:
        workload.close()
    print(f"{args.workload}: {len(latencies)} requests in {len(walls)} passes; "
          f"latency_tail_ms is p{workload.tail_percentile}; "
          f"{len(workload.cli_walls)} cli requests; setup samples "
          + ", ".join(f"{s:.3f}" for s in setups))
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "trials_per_s": metric(sum(trials) / sum(walls), "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(
            1000 * percentile(latencies, workload.tail_percentile), "ms"),
        "time_to_target_s": metric(statistics.median(walls), "s"),
        "trials_to_target": metric(statistics.median(trials), "count"),
        "cli_cold_s": metric(statistics.median(workload.cli_walls), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "ok_ratio": metric(1 - ctx.checker.failed / ctx.checker.attempted, "ratio"),
    }


def traced_run(args, ctx):
    from perfbench.tracer import Tracer

    ledger = json.loads(LEDGER.read_text())["metrics"]
    names = [args.workload] + [n for n in TRACE_PASSES if n != args.workload]
    values = {}
    tracer = Tracer()
    for name in names:
        values[name] = trace_slice(name, ctx, tracer)
    values[args.workload]["cli.import_s"] = cli_import_s(ctx)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
    metrics = {}
    for key, spec in ledger.items():
        source = (args.workload if args.workload in spec["measured_on"]
                  else spec["measured_on"][0])
        metrics[key] = metric(values[source][key], spec["unit"])
    return metrics


def trace_slice(name, ctx, tracer):
    """Replay a fixed request list untraced, then traced; print the ledger."""
    from perfbench.tracer import layer_ledger
    from perfbench.workloads import WORKLOADS, Stopwatch

    untraced = WORKLOADS[name](ctx)
    inputs = untraced.generate()
    untraced.load(inputs)
    try:
        untraced.setup(Stopwatch())
        untraced.prepare()
        source = untraced.passes()
        passes = [next(source) for _ in range(TRACE_PASSES[name])]
        start = time.perf_counter()
        run_items(untraced, passes, ctx.checker)
        untraced_wall = time.perf_counter() - start
    finally:
        untraced.close()

    traced = WORKLOADS[name](ctx)
    traced.tracer = tracer
    traced.load(inputs)
    traced.pins = getattr(untraced, "pins", None)
    obs_dir = OUT / f"obs-{name}-{ctx.seed}-{os.getpid()}"
    tracer.adopt = None
    try:
        with obs_tracing(name, obs_dir):
            with tracer.span("perfbench.workload", "perfbench", workload=name) as root:
                traced.setup(tracer)
                traced.prepare()
                start = time.perf_counter()
                latencies, _walls, _trials = run_items(traced, passes, ctx.checker, tracer)
                traced_wall = time.perf_counter() - start
        ledger = layer_ledger(tracer, root)
        values = layer_values(name, traced, tracer, root, ledger, obs_dir)
    finally:
        traced.close()
    values["obs.trace_overhead_ratio"] = traced_wall / untraced_wall
    print_ledger(name, traced, tracer, root, ledger, len(latencies))
    return values


def obs_tracing(name, obs_dir):
    """The library's own trace, kept for the campaign's run/shard spans."""
    if name != "campaign-target":
        return contextlib.nullcontext()
    from repro.obs import tracing

    return tracing(str(obs_dir))


def durations(tracer, root, name):
    return [s.end - s.start for s in tracer.named(root, name)]


def layer_values(name, workload, tracer, root, ledger, obs_dir):
    values = {}
    total = lambda span_name: sum(durations(tracer, root, span_name))  # noqa: E731
    if name in ("estimate-mix", "cold-estimate"):
        values["core.prove_s"] = total("core.prove")
        values["engine.plan.compile_s"] = total("engine.plan.compile")
    if name == "estimate-mix":
        values["engine.kernels.prepare_s"] = total("engine.kernels.prepare")
        chunks = 0
        for family in ("fingerprint", "parity", "threshold"):
            spans = tracer.named(root, f"engine.kernels.run_trials.{family}")
            chunks += len(spans)
            busy = sum(s.end - s.start for s in spans)
            values[f"engine.kernels.{family}.trials_per_s"] = (
                sum(s.attrs["trials"] for s in spans) / busy)
        values["engine.montecarlo.chunks"] = chunks
        values["engine.montecarlo.overhead_s"] = ledger.get("engine.montecarlo", 0.0)
    if name == "cold-estimate":
        spans = tracer.named(root, "core.verifier.estimate_acceptance")
        values["core.verifier.oracle_trial_ms"] = 1000 * (
            sum(s.end - s.start for s in spans) / sum(s.attrs["trials"] for s in spans))
    if name == "campaign-target":
        values.update(campaign_values(workload, tracer, root, obs_dir))
    return values


def campaign_values(workload, tracer, root, obs_dir):
    from repro.obs.reader import load_trace

    from perfbench.reqgen import CAMPAIGN_TARGET_HALFWIDTH, plan_spec

    trace = load_trace(obs_dir)
    longest = {}
    for shard in trace.named("shard"):
        longest[shard["parent"]] = max(longest.get(shard["parent"], 0.0), shard["dur"])
    runs = trace.named("run")
    records = [r for campaign in workload.records for r in campaign]
    stops = sum(exact_stop(plan_spec(cell).resolve(), cell.seed,
                           CAMPAIGN_TARGET_HALFWIDTH) for cell in workload.cells)
    exact = stops * len(workload.records)
    consumed = sum(r["trials"] for r in records)
    return {
        "parallel.executors.pool_start_s": sum(
            durations(tracer, root, "parallel.executors.pool_start")),
        "parallel.executors.run_p50_s": statistics.median(r["dur"] for r in runs),
        "parallel.executors.shards": sum(s for _, s in workload.sharded_calls),
        "parallel.executors.dispatch_overhead_s": sum(
            r["dur"] - longest.get(r["id"], 0.0) for r in runs),
        "parallel.progress.updates": sum(u for u, _ in workload.sharded_calls),
        "parallel.progress.stale": workload.pool.progress_stats()["stale"],
        "parallel.controller.rounds": sum(
            campaign[0]["allocation"]["rounds"] for campaign in workload.records),
        "parallel.controller.installments": sum(
            len(r["allocation"]["installments"]) for r in records),
        "parallel.controller.useful_ratio": exact / consumed,
        "parallel.campaign.cell_p50_s": statistics.median(
            r["elapsed_sec"] for r in records),
    }


def exact_stop(plan, seed: int, target: float) -> int:
    """Smallest counter prefix whose Wilson halfwidth reaches ``target``."""
    from repro.engine import estimate_acceptance_fast
    from repro.simulation.metrics import wilson_interval

    base_accepted = base_trials = 0
    found = []

    def progress(accepted, done):
        if not found:
            low, high = wilson_interval(base_accepted + accepted, base_trials + done)
            if (high - low) / 2 <= target:
                found.append(base_trials + done)

    while not found:
        block = estimate_acceptance_fast(plan, 4096, seed=seed, first_trial=base_trials,
                                         chunk_size=1, progress=progress)
        base_accepted += block.accepted
        base_trials += block.trials
    return found[0]


def cli_import_s(ctx) -> float:
    code = ("import time; t = time.perf_counter(); import repro.parallel.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ctx.env,
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def print_ledger(name, workload, tracer, root, ledger, requests) -> None:
    wall = root.end - root.start
    shares = {}
    for span in tracer.named(root, "perfbench.request"):
        family = span.attrs.get("family") if span.attrs else None
        if family is None:
            continue
        shares[family] = shares.get(family, 0.0) + span.end - span.start
    for span in tracer.named(root, "parallel.executors.estimate_acceptance_sharded"):
        family = span.attrs.get("family")
        shares[family] = shares.get(family, 0.0) + span.end - span.start
    busy = sum(shares.values()) or 1.0
    mix = ", ".join(f"{k} {v}" for k, v in sorted(workload.mix().items()))
    print(f"[trace] {name}: {requests} requests; plans per pass by kernel family: "
          f"{mix}; busy share by kernel family: "
          + ", ".join(f"{k} {v / busy:.2f}" for k, v in sorted(shares.items())))
    parts = " + ".join(f"{layer} {seconds:.4f}" for layer, seconds in
                       sorted(ledger.items(), key=lambda item: -item[1]))
    print(f"[trace] {name} ledger: {parts} = {sum(ledger.values()):.4f} s "
          f"(traced wall {wall:.4f} s)")


if __name__ == "__main__":
    sys.exit(main())
