"""Correctness oracle: pinned goldens plus run-to-run agreement.

``goldens.json`` pins every operation's fingerprint at the default seed:
the Consultant search-history digests of ``pc_paper`` and of the 1024-rank
tool cell, the sanitizer trace digests of the 1024-rank shapes, and the
82-job clean/defect verdict table of ``fleet_sanitize`` (which has no seed,
so its table holds at every seed).

On a seed without goldens the oracle falls back to the seed-independent
checks each step makes (the paper's findings, clean shapes, defect kinds)
and to agreement: every pass of a run must match the first, and a run must
match an earlier run of the same seed, recorded in a ledger in the
benchmark's scratch directory.

Every mismatch is a failed operation; nothing here raises.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from workloads import WORK_DIR, Outcome

__all__ = ["Oracle", "GOLDENS", "DEFAULT_SEED"]

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
LEDGER = WORK_DIR / "ledger.json"
DEFAULT_SEED = 0
#: goldens key for a workload whose fingerprints do not depend on the seed
ANY_SEED = "*"


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


class Oracle:
    def __init__(self, workload: str, seed: int, *, seeded: bool = True) -> None:
        self.workload = workload
        self.seed_key = str(seed) if seeded else ANY_SEED
        self.golden: dict[str, Any] = _load(GOLDENS).get(workload, {}).get(self.seed_key, {})
        self._ledger = _load(LEDGER)
        self.recorded: dict[str, Any] = (
            self._ledger.setdefault(workload, {}).setdefault(self.seed_key, {})
        )
        self._new = False
        #: first fingerprint seen in this run, per operation label
        self.seen: dict[str, Any] = {}

    def judge(self, outcome: Outcome) -> list[str]:
        """Every problem with ``outcome``: its own, plus any disagreement
        with the golden, an earlier run or an earlier pass."""
        problems = list(outcome.problems)
        label, fingerprint = outcome.label, outcome.fingerprint
        first = self.seen.setdefault(label, fingerprint)
        if first != fingerprint:
            problems.append(f"{label}: differs from this run's first pass")
        if label in self.golden:
            if self.golden[label] != fingerprint:
                problems.append(
                    f"{label}: golden mismatch: {fingerprint!r} != {self.golden[label]!r}"
                )
        elif label in self.recorded:
            if self.recorded[label] != fingerprint:
                problems.append(f"{label}: differs from an earlier run of this seed")
        elif not problems:
            self.recorded[label] = fingerprint
            self._new = True
        return problems

    def save(self) -> None:
        """Persist newly agreed fingerprints (held-out seeds only)."""
        if not self._new:
            return
        LEDGER.parent.mkdir(parents=True, exist_ok=True)
        tmp = LEDGER.with_name(f".{LEDGER.name}.{os.getpid()}")
        tmp.write_text(json.dumps(self._ledger, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, LEDGER)

    def pinned(self) -> dict[str, Any]:
        """This run's fingerprints, in the goldens layout."""
        return {self.workload: {self.seed_key: dict(sorted(self.seen.items()))}}
