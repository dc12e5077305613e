"""The three benchmark workloads, each a closed loop with one client.

Every workload splits its work the same way:

- ``generate`` (not timed): the seeded inputs, as JSON, so fresh
  interpreters measuring ``setup_s`` rebuild exactly the same ones;
- ``setup(clock)``: what a caller pays before the first trial can run.
  Only the sections ``clock`` times count; building the input
  configurations is excluded;
- ``passes()`` / ``request(item)``: the measured requests.  ``request``
  times only the public call and checks the answer afterwards.

With a :class:`~perfbench.tracer.Tracer` installed as ``self.tracer`` the
same calls are recorded as spans, and public methods whose inner calls
matter (``plan.run_trials``, ``repro.parallel.campaign``'s sharded
estimator) are wrapped so each call becomes a child span.
"""

from __future__ import annotations

import contextlib
import itertools
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from perfbench import checks
from perfbench.reqgen import (
    CAMPAIGN_GLOBAL_BUDGET,
    CAMPAIGN_TARGET_HALFWIDTH,
    COLD_CYCLE,
    COLD_PATHS,
    COLD_SCHEMES,
    FAMILY,
    Req,
    ReqGenEngine,
    clean_workload,
    flip_bit,
    plan_spec,
)

CLI_TIMEOUT_S = 120
# Trial prefix replayed through the scalar kernel to cross-check the vector
# kernel on every fault plan.
SCALAR_PREFIX = 8


class Stopwatch:
    """A clock that only sums the time spent inside its sections."""

    def __init__(self):
        self.total = 0.0

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        start = time.perf_counter()
        try:
            yield None
        finally:
            self.total += time.perf_counter() - start


class Context:
    """Where a run lives: checkout root, subprocess environment, seed."""

    def __init__(self, root, env: Dict[str, str], seed: int, checker):
        self.root = root
        self.env = env
        self.seed = seed
        self.checker = checker


def run_cli_estimate(ctx: Context, req: Req, extra=()) -> Tuple[int, int, float]:
    """One fresh-interpreter ``repro.parallel.cli estimate``; returns
    ``(accepted, trials run, wall seconds)``."""
    args = [
        sys.executable, "-m", "repro.parallel.cli", "estimate",
        "--workload", req.workload, "--trials", str(req.trials),
        "--seed", str(req.seed),
    ]
    for key, value in req.sizes:
        args += ["--size", f"{key}={value}"]
    args += list(extra)
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=ctx.root, env=ctx.env, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"cli exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    shards = re.findall(r"ran (\d+), accepted (\d+)", proc.stdout)
    if not shards:
        raise RuntimeError(f"cli printed no shard counts: {proc.stdout[-300:]}")
    return (sum(int(a) for _, a in shards), sum(int(r) for r, _ in shards), wall)


def cli_clean_error(req: Req, accepted: int, ran: int, stops: bool) -> Optional[str]:
    if ran < 1 or (not stops and ran != req.trials):
        return f"{req.name}: cli ran {ran} of {req.trials} trials"
    if accepted != ran:
        return f"{req.name}: clean cli estimate accepted {accepted}/{ran}"
    return None


class Workload:
    name = ""
    #: latency_tail_ms percentile, fixed from the request count a run makes
    tail_percentile = 90
    tracer = None

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cli_walls: List[float] = []

    def span(self, name: str, layer: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, layer, **attrs)

    def traced_run_trials(self, run_trials, family: str):
        """``plan.run_trials`` recording one span per chunk."""
        tracer = self.tracer
        name = f"engine.kernels.run_trials.{family}"

        def traced(trial_seeds, *args, **kwargs):
            with tracer.span(name, "engine.kernels", trials=len(trial_seeds)):
                return run_trials(trial_seeds, *args, **kwargs)

        return traced

    def cli_request(self, req: Req) -> None:
        """One fresh-interpreter CLI request behind ``cli_cold_s``."""
        try:
            accepted, ran, wall = run_cli_estimate(self.ctx, req, self.cli_args)
            error = cli_clean_error(req, accepted, ran, bool(self.cli_args))
            self.cli_walls.append(wall)
        except Exception as exc:  # a failed request is counted, not fatal
            error = f"{req.name}: {exc!r}"
        self.ctx.checker.record(error)

    def close(self) -> None:
        pass


class EstimateMix(Workload):
    """Warm vector plans, one ``estimate_acceptance_fast`` call per request."""

    name = "estimate-mix"
    tail_percentile = 98
    cli_args = ()

    def generate(self) -> Dict:
        gen = ReqGenEngine(self.ctx.seed)
        return {"requests": [r.to_json() for r in gen.estimate_mix()],
                "cli": [r.to_json() for r in gen.cli_face(12)]}

    def load(self, inputs: Dict) -> None:
        self.reqs = [Req.from_json(r) for r in inputs["requests"]]
        self.cli_reqs = [Req.from_json(r) for r in inputs["cli"]]

    def setup(self, clock) -> None:
        from repro.engine import VerificationPlan

        self.plans = []
        for req in self.reqs:
            scheme, configuration, _ = clean_workload(req.workload, **dict(req.sizes))
            with clock.span("core.prove", "core"):
                labels = scheme.prover(configuration)
            if req.fault is not None:
                node = list(configuration.graph.nodes)[req.fault[0]]
                labels = flip_bit(labels, node, req.fault[1])
            with clock.span("engine.plan.compile", "engine.plan"):
                plan = VerificationPlan(scheme, configuration, labels,
                                        req.randomness, "vector")
            with clock.span("engine.kernels.prepare", "engine.kernels"):
                plan.prepare(vectorize=True)
            if self.tracer is not None:
                plan.run_trials = self.traced_run_trials(plan.run_trials, req.family)
            self.plans.append(plan)

    def family_of(self, index: int) -> str:
        return self.reqs[index].family

    def mix(self) -> Counter:
        return Counter(req.family for req in self.reqs)

    def prepare(self) -> None:
        """Pin each fault request's counts through reference paths.

        The pinned count comes from the serial sharded estimator (a
        different partition of the same counter range); the first
        ``SCALAR_PREFIX`` trials are also replayed through the scalar
        kernel, which must agree verdict for verdict with the vector one.
        """
        from repro.engine import estimate_acceptance_fast
        from repro.parallel import estimate_acceptance_sharded

        self.pins: Dict[int, Tuple[int, int]] = {}
        for index, (req, plan) in enumerate(zip(self.reqs, self.plans)):
            if req.fault is None:
                continue
            reference = estimate_acceptance_sharded(
                plan, req.trials, seed=req.seed, executor="serial", shard_count=3
            ).estimate
            self.pins[index] = (reference.accepted, reference.trials)
            scalar = estimate_acceptance_fast(plan, SCALAR_PREFIX, seed=req.seed,
                                              vectorize=False)
            vector = estimate_acceptance_fast(plan, SCALAR_PREFIX, seed=req.seed)
            self.ctx.checker.record(
                None if scalar.accepted == vector.accepted else
                f"{req.name}: scalar prefix {scalar.accepted} != vector {vector.accepted}"
            )

    def self_test(self) -> Optional[str]:
        clean = next(r for r in self.reqs if r.fault is None)
        index = next(i for i, r in enumerate(self.reqs) if r.fault is not None)
        return checks.estimate_self_test(clean, self.reqs[index], self.pins[index])

    def passes(self):
        while True:
            yield list(range(len(self.reqs)))

    def request(self, index: int):
        from repro.engine import estimate_acceptance_fast

        req, plan = self.reqs[index], self.plans[index]
        with self.span("engine.montecarlo.estimate_acceptance_fast", "engine.montecarlo",
                       family=req.family):
            start = time.perf_counter()
            estimate = estimate_acceptance_fast(plan, req.trials, seed=req.seed)
            seconds = time.perf_counter() - start
        error = checks.estimate_error(req, estimate.accepted, estimate.trials,
                                      self.pins.get(index))
        return estimate.trials, seconds, error


def _warm_worker(payload, should_stop):
    """The empty shard of the pool-start run."""
    return payload


class CampaignTarget(Workload):
    """One adaptive-budget ``run_campaign`` per request on a warm pool."""

    name = "campaign-target"
    tail_percentile = 85
    cli_args = ("--executor", "process", "--workers", "2", "--stream-progress",
                "--chunk-policy", "geometric",
                "--stop-halfwidth", str(CAMPAIGN_TARGET_HALFWIDTH))

    def generate(self) -> Dict:
        gen = ReqGenEngine(self.ctx.seed)
        return {"cells": [c.to_json() for c in gen.campaign_cells()],
                "cli": [r.to_json() for r in gen.campaign_cli_face(8)]}

    def load(self, inputs: Dict) -> None:
        self.cells = [Req.from_json(c) for c in inputs["cells"]]
        self.cli_reqs = [Req.from_json(r) for r in inputs["cli"]]

    def setup(self, clock) -> None:
        from repro.parallel import Campaign, Cell, ProcessExecutor, parse_chunk_policy

        self.campaign = Campaign("perfbench", tuple(
            Cell(name=f"{c.workload}-{'fault' if c.fault else 'clean'}",
                 spec=plan_spec(c), trials=c.trials, seed=c.seed)
            for c in self.cells
        ))
        self.policy = parse_chunk_policy("geometric")
        with clock.span("parallel.executors.pool_start", "parallel.executors"):
            self.pool = ProcessExecutor(workers=2)
            list(self.pool.run(_warm_worker, [0, 1]))
        self.records: List[List[Dict]] = []
        self.sharded_calls: List[Tuple[int, int]] = []
        if self.tracer is not None:
            self._install_sharded_wrapper()

    def _install_sharded_wrapper(self) -> None:
        """Time every installment the campaign dispatches.

        ``run_campaign`` calls the public ``estimate_acceptance_sharded``
        through its module namespace; the wrapper records a span and the
        returned ``ShardedEstimate``'s provenance, and is removed on close.
        """
        import repro.parallel.campaign as campaign_module

        original = campaign_module.estimate_acceptance_sharded
        tracer, calls = self.tracer, self.sharded_calls
        families = {cell.spec: req.family
                    for cell, req in zip(self.campaign.cells, self.cells)}

        def traced(target, *args, **kwargs):
            with tracer.span("parallel.executors.estimate_acceptance_sharded",
                             "parallel.executors", family=families.get(target)):
                sharded = original(target, *args, **kwargs)
            calls.append((sharded.progress_updates, sharded.shards))
            return sharded

        campaign_module.estimate_acceptance_sharded = traced
        self._restore = lambda: setattr(
            campaign_module, "estimate_acceptance_sharded", original)

    def family_of(self, _item) -> Optional[str]:
        return None

    def mix(self) -> Counter:
        return Counter(cell.family for cell in self.cells)

    def prepare(self) -> None:
        """One unmeasured campaign so the workers' plan caches are filled."""
        records, _seconds = self._run_campaign()
        self.ctx.checker.record(checks.campaign_error(
            records, self.cells, CAMPAIGN_TARGET_HALFWIDTH))
        self.warm_records = records

    def _run_campaign(self):
        from repro.parallel import run_campaign

        with self.span("parallel.campaign.run_campaign", "parallel.campaign") as span:
            if span is not None:
                self.tracer.adopt = span.id
            start = time.perf_counter()
            records = run_campaign(self.campaign, **self._campaign_kwargs())
            seconds = time.perf_counter() - start
        self.records.append(records)
        return records, seconds

    def _campaign_kwargs(self) -> Dict:
        return dict(executor=self.pool, cell_parallelism=2, stream_progress=True,
                    chunk_policy=self.policy, global_budget=CAMPAIGN_GLOBAL_BUDGET,
                    target_halfwidth=CAMPAIGN_TARGET_HALFWIDTH)

    def self_test(self) -> Optional[str]:
        return checks.campaign_self_test(self.warm_records, self.cells,
                                         CAMPAIGN_TARGET_HALFWIDTH)

    def passes(self):
        while True:
            yield [0]

    def request(self, _item):
        records, seconds = self._run_campaign()
        error = checks.campaign_error(records, self.cells, CAMPAIGN_TARGET_HALFWIDTH)
        return sum(r["trials"] for r in records), seconds, error

    def close(self) -> None:
        restore = getattr(self, "_restore", None)
        if restore is not None:
            restore()
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.close()


class ColdEstimate(Workload):
    """Fresh configurations, one public call each: oracle, compat compile, CLI."""

    name = "cold-estimate"
    tail_percentile = 85
    cli_args = ()

    def generate(self) -> Dict:
        return {}

    def load(self, inputs: Dict) -> None:
        self.stream = ReqGenEngine(self.ctx.seed).cold_stream()
        self.cli_reqs = []

    def setup(self, clock) -> None:
        """Cold requests share nothing but the imports."""

    def prepare(self) -> None:
        pass

    def family_of(self, req: Req) -> str:
        return req.family

    def mix(self) -> Counter:
        return Counter(FAMILY[workload] for workload, _sizes in COLD_SCHEMES
                       for _path in COLD_PATHS)

    def self_test(self) -> Optional[str]:
        return checks.estimate_self_test(Req("spanning-tree", (), 16, 0, None, "oracle"))

    def passes(self):
        while True:
            yield list(itertools.islice(self.stream, COLD_CYCLE))

    def request(self, req: Req):
        if req.path == "cli":
            with self.span("cli.estimate", "cli"):
                accepted, ran, seconds = run_cli_estimate(self.ctx, req)
            self.cli_walls.append(seconds)
            return ran, seconds, cli_clean_error(req, accepted, ran, False)
        with self.span("perfbench.input", "perfbench"):
            scheme, configuration, _ = clean_workload(req.workload, **dict(req.sizes))
        start = time.perf_counter()
        if self.tracer is None:
            estimate = self._untraced_call(req, scheme, configuration)
        else:
            estimate = self._traced_call(req, scheme, configuration)
        seconds = time.perf_counter() - start
        return estimate.trials, seconds, checks.estimate_error(
            req, estimate.accepted, estimate.trials)

    @staticmethod
    def _untraced_call(req: Req, scheme, configuration):
        if req.path == "oracle":
            from repro.core.verifier import estimate_acceptance

            return estimate_acceptance(scheme, configuration, req.trials,
                                       seed=req.seed, randomness=req.randomness)
        from repro.engine import estimate_acceptance_batched

        return estimate_acceptance_batched(scheme, configuration, req.trials,
                                           seed=req.seed, randomness=req.randomness)

    def _traced_call(self, req: Req, scheme, configuration):
        """The same call split at its public layer boundaries.

        ``estimate_acceptance`` and ``estimate_acceptance_batched`` run the
        prover when given no labels; here the prover runs first and its
        labels are passed in, which is the same work in the same order.
        """
        from repro.core.verifier import estimate_acceptance
        from repro.engine import VerificationPlan, estimate_acceptance_fast

        with self.span("core.prove", "core"):
            labels = scheme.prover(configuration)
        if req.path == "oracle":
            with self.span("core.verifier.estimate_acceptance", "core.verifier",
                           trials=req.trials):
                return estimate_acceptance(scheme, configuration, req.trials,
                                           seed=req.seed, labels=labels,
                                           randomness=req.randomness)
        with self.span("engine.plan.compile", "engine.plan"):
            plan = VerificationPlan(scheme, configuration, labels, req.randomness)
        plan.run_trials = self.traced_run_trials(plan.run_trials, req.family)
        with self.span("engine.montecarlo.estimate_acceptance_fast", "engine.montecarlo",
                       family=req.family):
            return estimate_acceptance_fast(plan, req.trials, seed=req.seed)


WORKLOADS = {w.name: w for w in (EstimateMix, CampaignTarget, ColdEstimate)}


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
