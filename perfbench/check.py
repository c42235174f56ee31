"""Output checks for benchmark deployments.

Every deployment record must satisfy the program's invariants:

* processing + communication Joules equal the total (ideal path);
* humans detected <= humans present, and something is present;
* no battery below 0 J: every camera drew >= 0 J and at most its
  capacity;
* the networked path delivered messages and wrote its live stream and
  checkpoint.

Every pass must repeat the first pass's deterministic fields exactly,
and for the default seed those fields must match the digest pinned in
``perfbench/digests.json``.  A record that raised, broke an invariant
or disagreed with the digest counts as one failed deployment.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0

# The deterministic fields of a record (floats compared to 1e-9).
DIGEST_FIELDS = (
    "name", "frames", "detected", "present", "energy_j",
    "cameras_per_round", "decisions", "final_cameras", "delivered",
    "dropped", "retransmissions",
)


def digest_of(record: dict) -> dict:
    return {k: record[k] for k in DIGEST_FIELDS if k in record}


def same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def same_digest(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)


def invariant_problems(record: dict) -> list[str]:
    """Broken invariants of one deployment record."""
    if "error" in record:
        return [f"raised {record['error']}"]
    problems = []
    if "processing_j" in record and not math.isclose(
        record["processing_j"] + record["communication_j"],
        record["energy_j"], rel_tol=1e-9, abs_tol=1e-9,
    ):
        problems.append("processing + communication != total energy")
    if not 0 <= record["detected"] <= record["present"]:
        problems.append("detected outside [0, present]")
    if record["present"] <= 0 or record["frames"] <= 0:
        problems.append("no frames or no humans present")
    if record["min_camera_j"] < 0:
        problems.append("a camera drew negative energy")
    if record["capacity_j"] - record["max_camera_j"] < 0:
        problems.append("a battery went below 0 J")
    if not record["energy_j"] > 0:
        problems.append("no energy drawn")
    if "delivered" in record:
        if record["delivered"] <= 0:
            problems.append("no message delivered")
        if record["stream_bytes"] <= 0:
            problems.append("empty live stream")
        if not record["checkpoint_saved"]:
            problems.append("no checkpoint written")
    return problems


def load_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def check_passes(workload: str, seed: int,
                 passes: list[list[dict]]) -> tuple[int, list[str]]:
    """Check every record of every pass.

    Returns (failed deployments, problem descriptions).
    """
    pinned = load_digests().get(workload) if seed == DEFAULT_SEED else None
    first = passes[0]
    failed = 0
    problems: list[str] = []
    for number, records in enumerate(passes):
        for index, record in enumerate(records):
            found = invariant_problems(record)
            if "error" not in record:
                digest = digest_of(record)
                if len(first) != len(records) or "error" in first[index] \
                        or not same_digest(digest, digest_of(first[index])):
                    found.append("differs from the first pass")
                if pinned is not None and (
                    index >= len(pinned)
                    or not same_digest(digest, pinned[index])
                ):
                    found.append("differs from the pinned digest")
            if found:
                failed += 1
                problems.append(
                    f"pass {number} {record['name']}: {'; '.join(found)}"
                )
    return failed, problems
