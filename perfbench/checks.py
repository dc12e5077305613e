"""Output checks; every failed check counts one failed operation.

- a clean request must accept every trial it ran (completeness 1) and run
  exactly its budget;
- a fault request must return the ``(accepted, trials)`` pinned for it
  before timing, by a reference path the timed call does not take;
- every campaign record must reach the target halfwidth, and its clean
  cells must accept every trial.

:func:`estimate_self_test` and :func:`campaign_self_test` feed the checks
deliberately perturbed counts and confirm that each one is caught.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

# Records store the interval ends to float precision.
HALFWIDTH_SLACK = 1e-12


class Checker:
    """Counts operations attempted and failed, keeping the first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(error)


def estimate_error(req, accepted: int, trials: int,
                   pin: Optional[Tuple[int, int]] = None) -> Optional[str]:
    """Why an estimate of ``req`` is wrong, or ``None`` when it checks out."""
    if trials != req.trials:
        return f"{req.name}: ran {trials} trials, asked for {req.trials}"
    if req.fault is None:
        if accepted != trials:
            return f"{req.name}: clean plan accepted {accepted}/{trials}"
        return None
    if pin is None:
        return f"{req.name}: no pinned count"
    if (accepted, trials) != pin:
        return f"{req.name}: got {(accepted, trials)}, pinned {pin}"
    return None


def campaign_error(records: Sequence[Dict], cells: Sequence,
                   target_halfwidth: float) -> Optional[str]:
    """Why a campaign's records are wrong, or ``None``."""
    if len(records) != len(cells):
        return f"campaign wrote {len(records)} records for {len(cells)} cells"
    for record, cell in zip(records, cells):
        label = record.get("cell")
        if record.get("status") != "ok":
            return f"{label}: status {record.get('status')}"
        halfwidth = (record["wilson_high"] - record["wilson_low"]) / 2
        if halfwidth > target_halfwidth + HALFWIDTH_SLACK:
            return f"{label}: halfwidth {halfwidth:.5f} > target {target_halfwidth}"
        if cell.fault is None and record["accepted"] != record["trials"]:
            return f"{label}: clean cell accepted {record['accepted']}/{record['trials']}"
    return None


def estimate_self_test(clean_req, fault_req=None,
                       pin: Optional[Tuple[int, int]] = None) -> Optional[str]:
    """Confirm that perturbed estimate counts fail their checks."""
    trials = clean_req.trials
    if estimate_error(clean_req, trials, trials) is not None:
        return "an all-accepting clean estimate failed its check"
    if estimate_error(clean_req, trials - 1, trials) is None:
        return "a clean estimate missing one acceptance passed its check"
    if fault_req is not None:
        accepted, trials = pin
        perturbed = accepted + 1 if accepted < trials else accepted - 1
        if estimate_error(fault_req, perturbed, trials, pin) is None:
            return "a fault estimate off by one acceptance passed its check"
    return None


def campaign_self_test(records: Sequence[Dict], cells: Sequence,
                       target_halfwidth: float) -> Optional[str]:
    """Confirm that each perturbed record of a passing campaign is caught."""
    for index, cell in enumerate(cells):
        perturbed = [dict(record) for record in records]
        if cell.fault is None:
            perturbed[index]["accepted"] -= 1
        else:
            perturbed[index]["wilson_low"] -= 3 * target_halfwidth
        if campaign_error(perturbed, cells, target_halfwidth) is None:
            return f"a perturbed campaign record for {cell.name} passed its check"
    return None
