"""Declarative experiment campaigns over the sharded executor.

A *campaign* is a list of *cells*, each one a fully-specified Monte-Carlo
estimation job: a picklable workload spec (:mod:`repro.parallel.spec`), a
trial budget, a master seed, and an optional Wilson stop.  Campaigns are
built either cell by cell or with :meth:`Campaign.sweep`, which crosses
workload families x rng modes x trial budgets x seeds — the shape of every
scaling experiment in this repository (and of the structured experiment
collections in the related perun project this layer borrows its
record-keeping from).

Results stream into a *sink* as JSON records, one per cell.  The
:class:`JsonlSink` is **resumable**: each record carries its cell's stable
key, a reopened sink loads the keys already present, and
:func:`run_campaign` skips those cells — so an interrupted overnight sweep
continues where it stopped instead of re-spending its budget.  Records are
flat JSON-lines on purpose: greppable, streamable, and safe under
append-only writes (a torn final line is detected and ignored on reload).

Cell identity covers the spec value, the trial budget, the master seed,
and the stop rule — not the executor backend, worker count, or shard
layout.  For **exhaustive** cells (no ``stop_halfwidth``) that is the full
result-determining set: rerunning with more workers resumes cleanly and
would produce bit-identical counts for the cells it reruns.  For
**early-exit** cells the recorded counts additionally depend on *where the
stop fired*, which varies with backend, worker count, and (on the
thread/process backends) shard completion order — every such record is
still an unbiased estimate over the trials it reports, with its Wilson
interval attached, so resumed records are statistically comparable but not
bit-reproducible.  The execution provenance (``executor``, ``workers``,
``shards``, ``stopped_early``) is stored in each record for exactly this
reason.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.runtime import get_recorder
from repro.parallel.controller import CampaignAllocator
from repro.parallel.executors import (
    DEFAULT_CHUNK,
    ShardPlanner,
    estimate_acceptance_sharded,
    resolve_executor,
)
from repro.parallel.factories import default_rng_mode, workload_spec
from repro.parallel.spec import PlanSpec
from repro.simulation.metrics import AcceptanceEstimate


@dataclass(frozen=True)
class Cell:
    """One estimation job of a campaign."""

    name: str
    spec: PlanSpec
    trials: int
    seed: int = 0
    stop_halfwidth: Optional[float] = None

    def __post_init__(self):
        if self.trials <= 0:
            raise ValueError("trials must be positive")

    def key(self) -> str:
        """The stable resume key of the cell.

        Exactly the cell's *statistical* identity: for exhaustive cells it
        pins the result bit for bit; for ``stop_halfwidth`` cells the
        recorded counts also depend on where the cooperative stop fired
        (see the module docstring), so a resumed record answers the same
        estimation question without necessarily repeating the same trial
        count.
        """
        return json.dumps(
            {
                "spec": self.spec.describe(),
                "trials": self.trials,
                "seed": self.seed,
                "stop_halfwidth": self.stop_halfwidth,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class Campaign:
    """A named collection of cells, run as one unit over one worker pool."""

    name: str
    cells: Tuple[Cell, ...]

    def __post_init__(self):
        names = [cell.name for cell in self.cells]
        if len(set(names)) != len(names):
            raise ValueError("cell names within a campaign must be unique")

    def __len__(self) -> int:
        return len(self.cells)

    @classmethod
    def sweep(
        cls,
        name: str,
        workloads: Sequence[Union[str, Tuple[str, Dict]]],
        rng_modes: Optional[Sequence[str]] = None,
        trial_budgets: Sequence[int] = (1024,),
        seeds: Sequence[int] = (0,),
        stop_halfwidth: Optional[float] = None,
    ) -> "Campaign":
        """Cross workload families x rng modes x budgets x seeds into cells.

        ``workloads`` entries are registry names (see
        :data:`repro.parallel.factories.WORKLOADS`), optionally paired with
        size kwargs: ``("spanning-tree", {"node_count": 200})``.
        ``rng_modes=None`` runs each workload in its own mode (see
        :func:`~repro.parallel.factories.default_rng_mode`).

        >>> len(Campaign.sweep("s", ["spanning-tree", "shared-coins"],
        ...                    rng_modes=("compat", "vector"),
        ...                    trial_budgets=(100, 1000)).cells)
        8
        """
        cells: List[Cell] = []
        for entry in workloads:
            workload, kwargs = entry if isinstance(entry, tuple) else (entry, {})
            for rng_mode in rng_modes or (default_rng_mode(workload),):
                spec = workload_spec(workload, rng_mode=rng_mode, **kwargs)
                size = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
                sized = f"{workload}({size})" if size else workload
                for trials in trial_budgets:
                    for seed in seeds:
                        cells.append(
                            Cell(
                                name=f"{sized}/{rng_mode}/t{trials}/s{seed}",
                                spec=spec,
                                trials=trials,
                                seed=seed,
                                stop_halfwidth=stop_halfwidth,
                            )
                        )
        return cls(name=name, cells=tuple(cells))


def _record_completes(record: Dict) -> bool:
    """Whether a record marks its cell *done* for resume purposes.

    ``status="failed"`` records (graceful degradation, see
    :func:`run_campaign`) document the failure without claiming the cell:
    a resumed campaign re-attempts exactly those cells.  Records from
    before the ``status`` field existed are successes.
    """
    return record.get("status", "ok") != "failed"


class MemorySink:
    """An in-memory sink — the default for tests and interactive runs."""

    def __init__(self):
        self.records: List[Dict] = []
        self._keys = set()

    def completed(self, cell: Cell) -> bool:
        return cell.key() in self._keys

    def write(self, record: Dict) -> None:
        self.records.append(record)
        if _record_completes(record):
            self._keys.add(record.get("cell_key"))


class JsonlSink:
    """Append-only JSON-lines sink with resume support.

    ``resume=True`` (default) loads the cell keys already recorded so
    :func:`run_campaign` can skip them; ``resume=False`` truncates.  Torn
    lines — a process killed mid-append can tear the tail, and a crashed
    filesystem can tear lines mid-file — are skipped with a warning and
    counted in ``torn_lines``, never fatal: the sink's promise is that
    every *intact* record survives and resume proceeds from those.
    ``status="failed"`` records are loaded (they are provenance) but do
    not mark their cell complete, so resume re-attempts failed cells only.

    ``fsync=True`` fsyncs after every append — crash-consistent campaign
    logs at the cost of one ``fsync`` per cell (cells run for seconds;
    the sync is noise).
    """

    def __init__(self, path: Union[str, Path], resume: bool = True, fsync: bool = False):
        self.path = Path(path)
        self.fsync = fsync
        self.records: List[Dict] = []
        self.torn_lines = 0
        self._keys = set()
        if resume and self.path.exists():
            for number, line in enumerate(self.path.read_text().splitlines(), 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self.torn_lines += 1
                    print(
                        f"warning: {self.path}: skipping torn record on "
                        f"line {number}",
                        file=sys.stderr,
                    )
                    continue
                self.records.append(record)
                if _record_completes(record):
                    self._keys.add(record.get("cell_key"))
        elif not resume and self.path.exists():
            self.path.unlink()
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def completed(self, cell: Cell) -> bool:
        return cell.key() in self._keys

    def write(self, record: Dict) -> None:
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        self.records.append(record)
        if _record_completes(record):
            # .get: the sink also carries non-campaign records (the bench
            # history profiles of repro.benchhistory), which have no cell key.
            self._keys.add(record.get("cell_key"))


def _failure_record(campaign: Campaign, cell: Cell, error: Exception) -> Dict:
    """The ``status="failed"`` record of a cell that ran out of attempts.

    Carries the cell identity and the error payload but never marks the
    cell complete (see :func:`_record_completes`): a resumed campaign
    re-attempts exactly the failed cells.
    """
    return {
        "campaign": campaign.name,
        "cell": cell.name,
        "cell_key": cell.key(),
        "status": "failed",
        **cell.spec.describe(),
        "requested_trials": cell.trials,
        "error": {"type": type(error).__name__, "message": str(error)},
    }


def run_campaign(
    campaign: Campaign,
    executor: Union[str, object, None] = "serial",
    workers: Optional[int] = None,
    sink=None,
    planner: Optional[ShardPlanner] = None,
    chunk_size: int = DEFAULT_CHUNK,
    chunk_policy=None,
    cell_parallelism: int = 1,
    stream_progress: bool = False,
    on_cell_error: str = "raise",
    cell_retries: int = 1,
    shard_timeout: Optional[float] = None,
    max_retries: int = 0,
    global_budget: Optional[int] = None,
    target_halfwidth: Optional[float] = None,
) -> List[Dict]:
    """Run every (not yet completed) cell; returns the new records.

    One executor instance — hence one warm worker pool and one set of
    per-process plan caches — serves the whole campaign.  Each record holds
    the cell identity, the merged estimate with its Wilson interval, the
    shard/worker provenance, and the wall-clock cost:

    ``campaign, cell, cell_key, factory, args, kwargs, randomness,
    rng_mode, requested_trials, trials, accepted, probability, wilson_low,
    wilson_high, stopped_early, streamed, shards, executor, workers,
    elapsed_sec``

    ``cell_parallelism`` > 1 schedules that many independent cells
    concurrently over the *same* executor pool — the cell scheduler keeps
    the pool saturated when individual cells are too small to fill it.
    Ordering and resume semantics are unchanged: records are written to the
    sink in campaign declaration order (a completed cell buffers until
    every earlier cell has been written), cells are independent jobs with
    per-run stop tokens, and skip-on-resume happens before scheduling.
    Apart from ``elapsed_sec``, concurrent-cell records are identical to a
    serial-cell run's.  ``stream_progress`` turns on the progressive shard
    channel for every cell (see
    :func:`~repro.parallel.executors.estimate_acceptance_sharded`).

    Graceful degradation (``on_cell_error``): with ``"raise"`` (default,
    the historical behaviour) the first failing cell aborts the campaign.
    ``"skip"`` records the failure in the sink as a ``status="failed"``
    record — error type and message attached — and keeps running sibling
    cells; ``"retry"`` re-attempts the cell up to ``cell_retries`` times
    first and then degrades like ``skip``.  Failed records never mark a
    cell complete, so a subsequent resume re-attempts exactly the failed
    cells.  ``KeyboardInterrupt`` always propagates regardless of policy
    (the ordered prefix already written stays resumable).

    ``shard_timeout`` / ``max_retries`` pass through to every cell's
    :func:`~repro.parallel.executors.estimate_acceptance_sharded` call —
    shard-level supervision (heartbeat deadlines, deterministic retry,
    quarantine; see :mod:`repro.parallel.supervision`) underneath the
    cell-level policy above.

    Adaptive budgets (``global_budget`` + ``target_halfwidth``; see
    :mod:`repro.parallel.controller` and docs/parallel.md): instead of each
    cell spending its own ``trials`` budget, one global pool of trials is
    granted to cells in rounds by a :class:`CampaignAllocator` — cells
    whose cumulative Wilson interval reaches the target halfwidth are
    starved, and their unspent budget flows to the widest remaining cells.
    Installments always extend a cell's consumed counter prefix (future
    ranges only — per-trial verdicts are untouched by allocation), run with
    ``stream_progress`` forced on, and each cell's record carries its
    ``allocation`` history (per-installment ``first_trial``/``trials``, and
    the installment's ``supervision`` ledger when supervised) so a resumed
    or follow-up campaign can continue the exact counter range.  Both kinds
    of budget run through one scheduler: a fixed budget is a grant table
    that gives each cell its own ``trials`` once (see :func:`_run_cells`).
    ``chunk_policy`` (a policy object from
    :mod:`repro.parallel.controller`, e.g. ``parse_chunk_policy("geometric")``)
    applies to every cell on both the fixed and adaptive paths.
    """
    if cell_parallelism < 1:
        raise ValueError("cell_parallelism must be positive")
    if global_budget is not None and target_halfwidth is None:
        raise ValueError("global_budget requires target_halfwidth")
    if target_halfwidth is not None and global_budget is None:
        raise ValueError(
            "target_halfwidth requires global_budget (use the cells' "
            "stop_halfwidth for a per-cell stop rule)"
        )
    if on_cell_error not in ("raise", "skip", "retry"):
        raise ValueError(
            f"on_cell_error must be 'raise', 'skip' or 'retry', "
            f"got {on_cell_error!r}"
        )
    if cell_retries < 0:
        raise ValueError("cell_retries must be non-negative")
    if sink is None:
        sink = MemorySink()
    instance, owned = resolve_executor(executor, workers)
    new_records: List[Dict] = []
    # Claim keys as cells are scheduled: two cells sharing one resume key
    # (identical spec/trials/seed under different names) run once, exactly
    # as the old immediately-before-run completed() check deduplicated.
    claimed = set()
    pending = []
    for cell in campaign.cells:
        key = cell.key()
        if sink.completed(cell) or key in claimed:
            continue
        claimed.add(key)
        pending.append(cell)
    recorder = get_recorder()
    campaign_attrs = None
    if recorder.enabled:
        campaign_attrs = {
            "campaign": campaign.name,
            "cells": len(pending),
            "skipped": len(campaign.cells) - len(pending),
            "executor": getattr(instance, "name", "?"),
            "cell_parallelism": cell_parallelism,
        }
        if global_budget is not None:
            campaign_attrs["global_budget"] = global_budget
            campaign_attrs["target_halfwidth"] = target_halfwidth
    campaign_span = recorder.span("campaign", campaign_attrs)
    options = dict(
        executor=instance,
        planner=planner,
        chunk_size=chunk_size,
        chunk_policy=chunk_policy,
        stream_progress=stream_progress,
        shard_timeout=shard_timeout,
        max_retries=max_retries,
    )
    try:
        if pending:
            if global_budget is None:
                source = _FixedGrants(pending)
            else:
                source = CampaignAllocator(
                    [cell.name for cell in pending],
                    global_budget,
                    target_halfwidth,
                )
                # Installments stream so the cumulative stop fires mid-shard.
                options["stream_progress"] = True
            _run_cells(
                campaign, pending, source, options, cell_parallelism,
                on_cell_error, cell_retries, sink, new_records,
                campaign_span.span_id,
            )
            if global_budget is not None:
                for key, value in source.summary().items():
                    campaign_span.set(f"allocator.{key}", value)
    except BaseException as exc:
        campaign_span.__exit__(type(exc), exc, None)
        raise
    finally:
        if owned:
            instance.close()
    campaign_span.set("records", len(new_records))
    campaign_span.__exit__(None, None, None)
    return new_records


class _FixedGrants:
    """The fixed-budget campaign as a grant source: one round in which every
    cell is granted its own ``trials``.  Installments book nothing here —
    a fixed cell is finished by its single installment."""

    def __init__(self, cells: Sequence[Cell]):
        self._grants = {cell.name: cell.trials for cell in cells}

    def grants(self) -> Dict[str, int]:
        grants, self._grants = self._grants, {}
        return grants

    def settle(self, name: str, **_installment) -> None:
        pass

    def fail(self, name: str) -> None:
        pass


@dataclass
class _CellTally:
    """What a cell's installments ran, summed over every round."""

    accepted: int = 0
    trials: int = 0
    shards: int = 0
    elapsed: float = 0.0
    stopped_early: bool = False
    supervision: Optional[Dict] = None  # the latest installment's ledger
    error: Optional[Exception] = None


def _supervision(sharded, instance) -> Optional[Dict]:
    """The supervision ledger of one installment, or ``None`` if unsupervised.

    Carries the executor-lifetime router drop/leak counters (process
    backend; see ProgressRouter.stats) — recorded, not warning-only.
    """
    if sharded.report is None:
        return None
    ledger = sharded.report.as_dict()
    stats = getattr(instance, "progress_stats", None)
    if stats is not None:
        try:
            router_stats = stats()
        except Exception:
            router_stats = None
        if router_stats is not None:
            ledger["progress_router"] = router_stats
    return ledger


def _cell_record(
    campaign: Campaign, cell: Cell, tally: _CellTally, options: Dict, allocation
) -> Dict:
    """The one record builder: a cell's summed installments as a sink record.

    Fixed-budget cells (``allocation is None``) carry their installment's
    ``supervision`` ledger at top level; adaptive cells carry their
    ``allocation`` history, each installment with its own ledger.
    """
    if tally.error is not None:
        record = _failure_record(campaign, cell, tally.error)
    else:
        # Zero-trial estimates report nan probability/interval directly (a
        # pre-satisfied stop can legitimately produce them); no guards needed.
        estimate = AcceptanceEstimate(accepted=tally.accepted, trials=tally.trials)
        low, high = estimate.interval
        instance = options["executor"]
        record = {
            "campaign": campaign.name,
            "cell": cell.name,
            "cell_key": cell.key(),
            "status": "ok",
            **cell.spec.describe(),
            "requested_trials": cell.trials,
            "trials": estimate.trials,
            "accepted": estimate.accepted,
            "probability": estimate.probability,
            "wilson_low": low,
            "wilson_high": high,
            "stopped_early": (
                allocation["converged"] if allocation is not None
                else tally.stopped_early
            ),
            "streamed": options["stream_progress"],
            "shards": tally.shards,
            "executor": instance.name,
            "workers": instance.workers,
            "elapsed_sec": round(tally.elapsed, 6),
        }
        if allocation is None and tally.supervision is not None:
            record["supervision"] = tally.supervision
    if allocation is not None:
        record["allocation"] = allocation
    return record


def _run_cells(
    campaign: Campaign,
    pending: List[Cell],
    source,
    options: Dict,
    cell_parallelism: int,
    on_cell_error: str,
    cell_retries: int,
    sink,
    new_records: List[Dict],
    trace_parent: Optional[str],
) -> None:
    """The campaign scheduler: rounds of grants, run by one thread team.

    ``source`` hands out grant tables — a :class:`_FixedGrants` once, or a
    :class:`~repro.parallel.controller.CampaignAllocator` until its budget
    is spent.  A team of up to ``cell_parallelism`` threads (a team of one
    is the calling thread) pulls each round's installments in declaration
    order and runs them over the shared executor.  An installment is a
    sharded estimate over the cell's next ``granted`` counters
    (``first_trial`` = the consumed prefix, ``prior`` = its counts, so the
    Wilson stop — the cell's own ``stop_halfwidth`` for fixed grants, the
    allocator's target otherwise — acts on the cell's *cumulative*
    interval).  Only consumed trials are booked; a stopped installment's
    unspent grant returns to the pool.

    Records go to the sink in declaration order: a finished cell's record
    buffers until every earlier record is written.  A fixed cell finishes
    with its one installment; adaptive cells finish together when the
    budget is spent.

    Failures follow ``on_cell_error``: ``"retry"`` re-attempts an
    installment up to ``cell_retries`` times, then degrades like
    ``"skip"`` — the cell gets a ``status="failed"`` record and siblings
    keep running.  Under ``"raise"`` (and for ``KeyboardInterrupt``
    always) no installment starts after the first error, the written
    prefix stays (resume skips it), records after the failed cell are
    discarded rather than written out of order, and the error re-raises.
    """
    recorder = get_recorder()
    fixed = isinstance(source, _FixedGrants)
    target = None if fixed else source.target_halfwidth
    cells = {cell.name: cell for cell in pending}
    position = {cell.name: index for index, cell in enumerate(pending)}
    tallies = {cell.name: _CellTally() for cell in pending}
    lock = threading.Lock()
    buffered: Dict[int, Dict] = {}
    flushed = 0
    errors: List[BaseException] = []
    grants: List[Tuple[str, int]] = []
    cursor = 0
    progressed = False

    def finish(cell: Cell, allocation=None) -> None:
        # Called under the lock.  Pop only after a successful write, so a
        # failing sink loses no buffered record.
        nonlocal flushed
        buffered[position[cell.name]] = _cell_record(
            campaign, cell, tallies[cell.name], options, allocation
        )
        while flushed in buffered:
            sink.write(buffered[flushed])
            new_records.append(buffered.pop(flushed))
            flushed += 1

    def installment(cell: Cell, granted: int):
        tally = tallies[cell.name]
        attrs = None
        if recorder.enabled:
            attrs = {
                "key": cell.name,
                "campaign": campaign.name,
                "trials": granted,
                "seed": cell.seed,
            }
        attempts = 1 + (max(0, cell_retries) if on_cell_error == "retry" else 0)
        error: Optional[Exception] = None
        for _attempt in range(attempts):
            start = time.perf_counter()
            try:
                # The span parent is explicit: team threads cannot see the
                # campaign span on the calling thread's span stack.
                with recorder.span("cell", attrs, parent=trace_parent) as span:
                    sharded = estimate_acceptance_sharded(
                        cell.spec,
                        granted,
                        seed=cell.seed,
                        stop_halfwidth=cell.stop_halfwidth if fixed else target,
                        first_trial=tally.trials,
                        prior=(tally.accepted, tally.trials),
                        **options,
                    )
                    span.set("trials_run", sharded.estimate.trials)
                    span.set("stopped_early", sharded.stopped_early)
            except Exception as exc:
                if on_cell_error == "raise":
                    raise
                error = exc
                continue
            return sharded, time.perf_counter() - start, None
        return None, 0.0, error

    def worker() -> None:
        nonlocal cursor, progressed
        while True:
            with lock:
                if errors or cursor >= len(grants):
                    return
                name, granted = grants[cursor]
                cursor += 1
            cell = cells[name]
            try:
                sharded, seconds, error = installment(cell, granted)
            except BaseException as exc:  # re-raised in the caller
                with lock:
                    errors.append(exc)
                return
            with lock:
                tally = tallies[name]
                try:
                    if error is not None:
                        tally.error = error
                        source.fail(name)
                        progressed = True
                    else:
                        estimate = sharded.estimate
                        tally.supervision = _supervision(sharded, options["executor"])
                        source.settle(
                            name,
                            first_trial=tally.trials,
                            granted=granted,
                            accepted=estimate.accepted,
                            trials=estimate.trials,
                            supervision=tally.supervision,
                        )
                        tally.accepted += estimate.accepted
                        tally.trials += estimate.trials
                        tally.shards += sharded.shards
                        tally.elapsed += seconds
                        tally.stopped_early |= sharded.stopped_early
                        progressed = progressed or estimate.trials > 0
                    if fixed:
                        finish(cell)
                except BaseException as exc:  # sink failures re-raise too
                    errors.append(exc)
                    return

    while not errors:
        grants = list(source.grants().items())
        if not grants:
            break
        cursor = 0
        progressed = False
        size = min(cell_parallelism, len(grants))
        if size == 1:
            worker()
        else:
            team = [
                threading.Thread(target=worker, name=f"repro-cell-{index}")
                for index in range(size)
            ]
            for thread in team:
                thread.start()
            for thread in team:
                thread.join()
        if not progressed:
            # A full round granted budget and nothing ran (wedged pool,
            # every shard quarantined, ...): stop granting instead of
            # spinning — the records document the shortfall.
            break
    if errors:
        raise errors[0]
    if not fixed:
        with lock:
            for cell in pending:
                finish(cell, source.history(cell.name))
