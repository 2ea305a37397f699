"""Correctness oracle for modeled offloads: recorded report digests.

The simulator is deterministic, so every modeled offload the benchmark
issues has exactly one right :class:`~repro.core.report.OffloadReport`.  The
SHA-256 of its ``to_dict()`` (canonical JSON) is recorded in
``digests.json``; a later run whose report hashes differently fails the
operation.

Regenerate the table, only when a change is meant to alter simulated
results, from the root of the repository::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


class Mismatch(Exception):
    """An output or report disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    """Fail the operation in flight unless ``condition`` holds."""
    if not condition:
        raise Mismatch(message)


def report_digest(report) -> str:
    payload = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class DigestBook:
    """Recorded digests by offload key.  With ``record=True`` it learns
    digests instead of checking them."""

    def __init__(self, digests: dict[str, str], record: bool = False) -> None:
        self.digests = digests
        self.record = record

    @classmethod
    def load(cls, path: Path = DIGESTS) -> "DigestBook":
        return cls(json.loads(path.read_text())["digests"])

    def check(self, key: str, report) -> None:
        got = report_digest(report)
        if self.record:
            self.digests[key] = got
            return
        want = self.digests.get(key)
        require(want is not None, f"no digest recorded for {key}")
        require(got == want, f"{key}: report digest {got[:12]} != recorded {want[:12]}")


def record_all() -> dict[str, str]:
    """Run every modeled offload of every variant once and learn its digest."""
    from scenarios import VARIANTS, PaperSweep, SimFaults, SimScale
    from run import run_pass

    book = DigestBook({}, record=True)
    passes = [PaperSweep(0, book)]
    passes += [cls(v, book) for cls in (SimScale, SimFaults) for v in range(VARIANTS)]
    for scenario in passes:
        ledger = run_pass(scenario)
        if ledger.failed:
            raise SystemExit(f"{scenario.name}: {ledger.errors}")
    return dict(sorted(book.digests.items()))


if __name__ == "__main__":
    from run import use_checkout_sources

    use_checkout_sources()
    digests = record_all()
    DIGESTS.write_text(json.dumps({"digests": digests}, indent=1) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
