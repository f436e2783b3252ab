#!/usr/bin/env python3
"""Write ``golden.json``: the exhibit digests the run-all checks compare with.

Run from the repository root, on a commit whose exhibits are known good::

    python3 perfbench/record_golden.py

It computes every exhibit of ``run-all --scale small`` (``jobs=2``, a
fresh cache dir under ``.perfbench``) and records the SHA-256 of each
exhibit's JSON subtree and of the whole ``exhibits`` subtree.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from repro.api import ExhibitSet, Session  # noqa: E402


def main() -> int:
    cache = ROOT / ".perfbench" / "golden-cache"
    shutil.rmtree(cache, ignore_errors=True)
    try:
        with Session(cache_dir=cache, jobs=2) as session:
            exhibits = tuple(session.iter_exhibits(scale="small"))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    payload = ExhibitSet(scale="small", programs=None, exhibits=exhibits).payload()
    document = {
        "scale": "small",
        "exhibits_sha256": checks.exhibit_digests(payload["exhibits"]),
    }
    checks.GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {checks.GOLDEN_PATH} ({len(exhibits)} exhibits)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
