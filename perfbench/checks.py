"""Output checks: exhibit digests against the golden file, counter gates.

The golden file (``golden.json`` beside this module) holds the SHA-256 of
every exhibit's JSON subtree, and of the whole ``exhibits`` subtree, as
``run-all --scale small`` produced them when the benchmark was defined.
A run-all workload passes an exhibit only when its digest matches.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(value: Any) -> str:
    """SHA-256 of ``value`` as canonical JSON (sorted keys, no spaces)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def exhibit_digests(exhibits: Mapping[str, Any]) -> dict[str, str]:
    """Per-exhibit digests plus ``"*"`` for the whole subtree."""
    digests = {name: digest(data) for name, data in exhibits.items()}
    digests["*"] = digest(dict(exhibits))
    return digests


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["exhibits_sha256"]


def wrong_exhibits(digests: Mapping[str, str], golden: Mapping[str, str]) -> list[str]:
    """Names of exhibits that are missing, extra or differ from the golden.

    The whole-subtree digest (``"*"``) is compared too, so a change in
    exhibit order or nesting fails even when every exhibit matches.
    """
    names = sorted(set(golden) | set(digests))
    return [name for name in names if digests.get(name) != golden.get(name)]


def gate_cold(simulated: int, unique_points: int, traces_compiled: int,
              programs: int) -> list[str]:
    """Cold run-all: every unique point simulated once, every trace compiled once."""
    broken = []
    if simulated != unique_points:
        broken.append(f"simulated {simulated} points, {unique_points} unique points stored")
    if traces_compiled != programs:
        broken.append(f"compiled {traces_compiled} traces for {programs} programs")
    return broken


def gate_warm(simulated: int) -> list[str]:
    """Warm run-all: nothing is simulated."""
    return [] if simulated == 0 else [f"warm run simulated {simulated} points"]


def failed_ops(attempted: int, wrong: list[str], broken_gates: list[str]) -> int:
    """Failed exhibits of one run-all sample.

    A wrong exhibit fails itself.  A broken counter gate, or a wrong
    whole-subtree digest with every exhibit right, says the run as a whole
    cannot be trusted, so it fails every exhibit of the sample.
    """
    if broken_gates or wrong == ["*"]:
        return attempted
    return min(attempted, len([name for name in wrong if name != "*"]))
