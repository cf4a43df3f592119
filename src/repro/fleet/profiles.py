"""Persisted per-spec wall-time profiles that steer fleet scheduling.

The sweep already measures the wall of every job it runs; this module
makes those measurements outlive the process so the *next* sweep can
schedule longest-predicted-first (LPT) instead of insertion order.  The
store is a small JSON file (``profiles.json``, next to the artifact
objects in ``.repro-cache/``) mapping a spec's **family key** to an
exponentially-weighted moving average of its observed walls.

The family key is the sha256 of the spec's canonical dict *without* the
mode code-version salt: editing source invalidates cached artifacts (the
salted digest changes) but must not forget what we learned about how
long the job takes -- the work is the same work.  Prediction falls back
through progressively coarser evidence:

1. exact family hit (same program/mode/impl/nprocs/params/...);
2. same job label (``mode:program/impl``) -- e.g. a param tweak;
3. the ``mode:program`` family median -- e.g. a new impl personality;
4. ``None`` -- the scheduler keeps plain insertion order.

A missing, corrupt, or wrong-schema file degrades to an empty store
(prediction returns ``None`` everywhere), and so does one holding a
non-finite wall, which would poison the LPT ordering; profiles are
advisory and must never fail a sweep.  The store can also seed itself from a committed
``BENCH_fleet.json`` ``per_job`` table (schema 3 to 5), so the very
first profile-guided sweep on a fresh checkout already knows the 21s
tail job is the longest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from pathlib import Path
from typing import Any, Mapping, Optional

from .spec import RunSpec, canonical_json

__all__ = ["ProfileStore", "PROFILES_NAME", "family_key"]

PROFILES_NAME = "profiles.json"
SCHEMA = 1

#: EMA weight of the newest observation.  High enough to track real
#: regressions within a couple of sweeps, low enough that one noisy run
#: does not reorder the whole schedule.
EMA_ALPHA = 0.5


def family_key(spec: RunSpec) -> str:
    """Identity of the *work*, stable across source edits (no code salt)."""
    return hashlib.sha256(canonical_json(spec.to_dict()).encode()).hexdigest()[:16]


def _finite(value: Any) -> float:
    """``value`` as a finite float; ValueError for NaN and infinities."""
    wall = float(value)
    if not math.isfinite(wall):
        raise ValueError(f"non-finite wall {value!r}")
    return wall


def _label_group(label: str) -> str:
    """``mode:program`` -- the coarsest prediction bucket."""
    return label.rsplit("/", 1)[0]


class ProfileStore:
    """Load/merge/save wall profiles; predict walls for cold specs."""

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = Path(path) if path is not None else None
        #: family key -> {"label": str, "wall": float, "n": int}
        self.jobs: dict[str, dict] = {}
        #: label -> wall, from BENCH_fleet.json seeding (no family keys there)
        self.seeds: dict[str, float] = {}
        self.dirty = False
        if self.path is not None:
            self._load(self.path)

    # -- persistence ---------------------------------------------------------

    def _load(self, path: Path) -> None:
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict) or data.get("schema") != SCHEMA:
                return
            jobs = data.get("jobs")
            if isinstance(jobs, dict):
                for key, row in jobs.items():
                    self.jobs[str(key)] = {
                        "label": str(row.get("label", "")),
                        "wall": _finite(row["wall"]),
                        "n": int(row.get("n", 1)),
                    }
            seeds = data.get("seeds")
            if isinstance(seeds, dict):
                for label, wall in seeds.items():
                    self.seeds[str(label)] = _finite(wall)
        except (OSError, ValueError, TypeError, KeyError, AttributeError,
                OverflowError, RecursionError):
            # corrupt or unreadable profiles are advisory data lost, not an
            # error: the scheduler just falls back to insertion order
            self.jobs = {}
            self.seeds = {}

    def save(self, path: Optional[Path] = None) -> Optional[Path]:
        """Atomically write the store; no-op without a path."""
        path = Path(path) if path is not None else self.path
        if path is None:
            return None
        payload = {
            "schema": SCHEMA,
            "alpha": EMA_ALPHA,
            "jobs": {key: self.jobs[key] for key in sorted(self.jobs)},
            "seeds": {label: self.seeds[label] for label in sorted(self.seeds)},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
        self.dirty = False
        return path

    # -- seeding -------------------------------------------------------------

    def seed_from_bench(self, bench_json: Path) -> int:
        """Seed label-level walls from a BENCH_fleet.json ``per_job`` table
        (schema 3 to 5).  Already-known labels are left alone: measured
        EMAs and earlier seeds beat a committed snapshot.  Returns the
        number of labels seeded."""
        try:
            data = json.loads(Path(bench_json).read_text())
            per_job = data.get("per_job") or []
        except (OSError, ValueError, AttributeError):
            return 0
        known = {row["label"] for row in self.jobs.values()} | set(self.seeds)
        added = 0
        for row in per_job:
            try:
                label = str(row["job"])
                wall = float(row["wall"])
            except (TypeError, KeyError, ValueError):
                continue
            # cached rows record restore time, not the job's real wall
            if row.get("cached") or label in known:
                continue
            self.seeds[label] = wall
            known.add(label)
            added += 1
        if added:
            self.dirty = True
        return added

    # -- observation ---------------------------------------------------------

    def observe(self, spec: RunSpec, wall: float) -> None:
        """EMA-merge one measured wall for ``spec`` (executed jobs only --
        never feed cache-restore times in here)."""
        key = family_key(spec)
        row = self.jobs.get(key)
        if row is None:
            self.jobs[key] = {"label": spec.label, "wall": float(wall), "n": 1}
        else:
            row["wall"] = round(
                EMA_ALPHA * float(wall) + (1.0 - EMA_ALPHA) * row["wall"], 6
            )
            row["n"] = row.get("n", 1) + 1
            row["label"] = spec.label
        self.dirty = True

    # -- prediction ----------------------------------------------------------

    def predict(self, spec: RunSpec) -> Optional[float]:
        """Predicted wall for ``spec``, or ``None`` when nothing is known."""
        row = self.jobs.get(family_key(spec))
        if row is not None:
            return float(row["wall"])
        label = spec.label
        walls = [r["wall"] for r in self.jobs.values() if r["label"] == label]
        if not walls and label in self.seeds:
            walls = [self.seeds[label]]
        if walls:
            return float(statistics.median(walls))
        group = _label_group(label)
        walls = [
            r["wall"] for r in self.jobs.values() if _label_group(r["label"]) == group
        ]
        walls += [w for lab, w in self.seeds.items() if _label_group(lab) == group]
        if walls:
            return float(statistics.median(walls))
        return None

    def __len__(self) -> int:
        return len(self.jobs) + len(self.seeds)

    def describe(self) -> dict:
        return {
            "path": str(self.path) if self.path is not None else None,
            "jobs": len(self.jobs),
            "seeds": len(self.seeds),
        }


def open_store(cache_root: Path, bench_json: Optional[Path] = None) -> ProfileStore:
    """The sweep's entry point: profiles live next to the cache objects,
    seeded from a committed BENCH_fleet.json when the store is empty."""
    store = ProfileStore(Path(cache_root) / PROFILES_NAME)
    if not store.jobs and not store.seeds and bench_json is not None:
        if Path(bench_json).is_file():
            store.seed_from_bench(Path(bench_json))
    return store
