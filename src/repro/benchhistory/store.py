"""The append-only benchmark-profile store under ``benchmarks/history/``.

A *profile* is one bench run flattened into kernel records: one record per
workload x mode x backend, each tagged with the commit, cpu_count, python
version, and timestamp of the run.  Profiles are stored one JSON-lines
file per profile id — files are only ever *added*, so the store is
append-only and the full perf trajectory of the repository survives every
PR (the single ``BENCH_engine.json`` snapshot remains as the convenient
"latest" view, now written atomically).

Records are written through the campaign
:class:`~repro.parallel.campaign.JsonlSink`, which buys the history the
same robustness the campaign logs have: append-only JSON lines, and
torn-line tolerance on reload (a process killed mid-write, or a crashed
filesystem tearing a line mid-file, costs exactly the torn records — every
intact record survives and is counted in ``Profile.torn_lines``).
Finalization is atomic: the sink writes to a dot-prefixed temp file in the
same directory and the finished profile is ``os.replace``-d into place, so
a reader can never observe a half-written *new* profile file (dot-prefixed
temp files are ignored on listing).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.parallel.campaign import JsonlSink

DEFAULT_HISTORY_DIR = Path("benchmarks") / "history"
DEFAULT_SNAPSHOT = Path("BENCH_engine.json")

#: The kernel identity within a profile: (workload, mode, backend).
KernelKey = Tuple[str, str, str]

# Snapshot columns -> history modes: (mode, trials/sec field, speedup field).
# ``legacy`` is the reference oracle, so its speedup is identically 1.  The
# two ``engine-fast`` modes only occur in snapshots recorded while the engine
# still had ``rng_mode="fast"``; their columns are absent from newer ones.
_SNAPSHOT_MODES = (
    ("legacy", "legacy_trials_per_sec", None),
    ("engine-compat", "engine_compat_trials_per_sec", "speedup_compat"),
    ("engine-compat+numpy", "engine_compat_numpy_trials_per_sec", "speedup_compat_numpy"),
    ("engine-vector-scalar", "engine_vector_scalar_trials_per_sec", "speedup_vector_scalar"),
    ("engine-fast", "engine_fast_trials_per_sec", "speedup_fast"),
    ("engine-fast+numpy", "engine_vector_trials_per_sec", "speedup_vector"),
    ("engine-vector", "engine_vector_rng_trials_per_sec", "speedup_vector_rng"),
)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + ``os.replace``.

    An interrupt mid-write can tear a plain ``open().write()`` — fatal for
    files a regression gate reads.  The temp file lives next to the target
    (same filesystem, so the replace is atomic) and is cleaned up on any
    failure.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with tmp.open("w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # replace failed (or never ran): don't litter
            tmp.unlink()


def current_commit(cwd: Union[str, Path, None] = None) -> str:
    """The short commit hash profiles are tagged with; ``unknown`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def _utc_timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _profile_id(commit: str, timestamp: str) -> str:
    # Lexicographic order == chronological order, commit kept for humans.
    compact = timestamp.replace("-", "").replace(":", "")
    return f"{compact}-{commit}"


def profile_from_snapshot(
    snapshot: Dict,
    commit: Optional[str] = None,
    timestamp: Optional[str] = None,
    profile_id: Optional[str] = None,
) -> Tuple[str, List[Dict]]:
    """Flatten a ``BENCH_engine.json`` payload into history kernel records.

    Returns ``(profile_id, records)`` — one record per workload x mode x
    backend, each carrying the profile tags.  ``results`` rows produce one
    record per execution mode (``backend="single"``); ``sharded_results``
    rows produce one ``backend="sharded(<executor>)"`` record whose speedup
    column is the sharded-vs-single ratio; ``adaptive_results`` rows
    produce a rate-less ``mode="adaptive"`` record whose speedup column is
    the fixed-provision-vs-adaptive trial ratio — with no ``trials_per_sec``
    the per-kernel check reports ``new`` (non-gating) and the integral
    check gates the speedup column.  Per-repeat throughput samples
    (``samples`` sub-dicts, recorded since the history subsystem landed)
    ride along so the detectors can estimate each kernel's noise floor;
    older snapshots without them fall back to the default floor.
    """
    commit = commit if commit is not None else current_commit()
    timestamp = timestamp if timestamp is not None else _utc_timestamp()
    profile = profile_id if profile_id is not None else _profile_id(commit, timestamp)
    tags = {
        "profile": profile,
        "commit": commit,
        "timestamp": timestamp,
        "cpu_count": snapshot.get("cpu_count"),
        "python": snapshot.get("python"),
    }
    records: List[Dict] = []
    for row in snapshot.get("results", ()):
        samples = row.get("samples") or {}
        for mode, rate_field, speedup_field in _SNAPSHOT_MODES:
            if rate_field not in row:
                continue
            records.append(
                {
                    **tags,
                    "workload": row["scheme"],
                    "mode": mode,
                    "backend": "single",
                    "trials_per_sec": row[rate_field],
                    "speedup": 1.0 if speedup_field is None else row[speedup_field],
                    "samples": samples.get(mode, []),
                }
            )
    for row in snapshot.get("sharded_results", ()):
        records.append(
            {
                **tags,
                "workload": row["scheme"],
                "mode": "vector",
                "backend": f"sharded({row.get('executor', 'process')})",
                "trials_per_sec": row["sharded_trials_per_sec"],
                "speedup": row["sharded_speedup"],
                "samples": row.get("samples", {}).get("sharded", []),
                "workers": row.get("workers"),
            }
        )
    for row in snapshot.get("adaptive_results", ()):
        records.append(
            {
                **tags,
                "workload": row["scheme"],
                "mode": "adaptive",
                "backend": f"campaign({row.get('executor', 'process')})",
                "speedup": row["speedup"],
                "samples": [],
                "workers": row.get("workers"),
            }
        )
    return profile, records


@dataclass(frozen=True)
class Profile:
    """One recorded bench profile: its id, tags, and kernel records."""

    profile_id: str
    records: Tuple[Dict, ...]
    path: Optional[Path] = None
    torn_lines: int = 0

    def _tag(self, name: str):
        return self.records[0].get(name) if self.records else None

    @property
    def commit(self) -> Optional[str]:
        return self._tag("commit")

    @property
    def timestamp(self) -> Optional[str]:
        return self._tag("timestamp")

    @property
    def cpu_count(self) -> Optional[int]:
        return self._tag("cpu_count")

    def kernels(self) -> Dict[KernelKey, Dict]:
        """The profile's records keyed by (workload, mode, backend)."""
        return {
            (r["workload"], r["mode"], r["backend"]): r
            for r in self.records
            if "workload" in r and "mode" in r and "backend" in r
        }

    def __len__(self) -> int:
        return len(self.records)


class HistoryStore:
    """The ``benchmarks/history/`` directory of per-commit profiles.

    ``record`` appends a new profile (never rewrites an existing one);
    ``load`` / ``latest`` / ``profile_ids`` read the trajectory back with
    the :class:`~repro.parallel.campaign.JsonlSink` torn-line tolerance.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_HISTORY_DIR):
        self.root = Path(root)

    def _path(self, profile_id: str) -> Path:
        return self.root / f"{profile_id}.jsonl"

    def profile_ids(self) -> List[str]:
        """All recorded profile ids, oldest first (lexicographic == time)."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.root.glob("*.jsonl")
            if not path.name.startswith(".")
        )

    def record(self, records: Sequence[Dict], profile_id: Optional[str] = None) -> str:
        """Append one profile atomically; returns its id.

        The records stream through a :class:`JsonlSink` into a dot-prefixed
        temp file (invisible to :meth:`profile_ids`), which is fsynced and
        ``os.replace``-d to its final name — a torn *new* profile file is
        impossible; only records torn by forces after finalization (crashed
        filesystems) remain, and those reload tolerantly.
        """
        records = list(records)
        if not records:
            raise ValueError("a profile needs at least one kernel record")
        if profile_id is None:
            profile_id = records[0].get("profile") or _profile_id(
                records[0].get("commit", "unknown"), _utc_timestamp()
            )
        final = self._path(profile_id)
        serial = 2
        while final.exists():  # append-only: never overwrite a recorded profile
            final = self._path(f"{profile_id}.{serial}")
            serial += 1
        tmp = final.parent / f".{final.name}.tmp.{os.getpid()}"
        try:
            sink = JsonlSink(tmp, resume=False)
            for record in records:
                sink.write(record)
            with tmp.open("a") as handle:
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, final)
        finally:
            if tmp.exists():
                tmp.unlink()
        return final.stem

    def load(self, profile_id: str) -> Profile:
        """Reload one profile; torn lines are skipped and counted, not fatal."""
        path = self._path(profile_id)
        if not path.exists():
            raise FileNotFoundError(f"no recorded profile {profile_id!r} in {self.root}")
        sink = JsonlSink(path, resume=True)
        return Profile(
            profile_id=profile_id,
            records=tuple(sink.records),
            path=path,
            torn_lines=sink.torn_lines,
        )

    def latest(self, exclude: Iterable[str] = ()) -> Optional[Profile]:
        """The newest recorded profile (ids in ``exclude`` skipped), if any."""
        excluded = set(exclude)
        for profile_id in reversed(self.profile_ids()):
            if profile_id not in excluded:
                return self.load(profile_id)
        return None
