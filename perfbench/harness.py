"""Shared arithmetic and bookkeeping for the benchmark.

Pure helpers with no dependency on ``repro``: percentiles, answer
digests, the environment stamp every record carries, peak memory, and the
contract result line.  Kept import-light so the benchmark's own tests can
exercise the arithmetic without building any world.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import subprocess
import sys
from typing import Any, Iterable, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGEST_FILE = pathlib.Path(__file__).resolve().parent / "digests.json"


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Interpolates between the two nearest order statistics at rank
    ``q/100 * (n - 1)`` (the "type 7" definition NumPy uses by default).
    Raises ``ValueError`` on an empty sample or ``q`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(value: Any) -> Any:
    """A JSON-able image of an answer with every float written exactly.

    Floats become their ``repr`` (the shortest string that round-trips),
    so two answers share a digest only when they are bit-identical.
    """
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    return value


def digest(items: Iterable[Any]) -> str:
    """SHA-256 over the canonical JSON of ``items``, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(canonical(item), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    """The answer digest recorded for ``(workload, seed)``, if any."""
    if not DIGEST_FILE.exists():
        return None
    table = json.loads(DIGEST_FILE.read_text())
    return table.get(workload, {}).get(str(seed))


def git_sha() -> str | None:
    """The checkout's commit, or ``None`` unless it is a git work tree root.

    A checkout exported into some other repository's tree must not be
    stamped with that repository's commit.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    top, sha = lines
    return sha if pathlib.Path(top).resolve() == ROOT else None


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` file, path and content.

    Identifies the measured code where no git metadata exists (an
    exported checkout).
    """
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    """The stamp every record carries: machine, libraries, code, seed."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def result_line(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    """The contract's last stdout line for a run whose checks passed."""
    return json.dumps({
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def fail(message: str) -> None:
    """Abort the run: a failed output check prints no result line."""
    print(f"CHECK FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)
