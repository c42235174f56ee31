"""End-to-end benchmark of the EECS reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lab --seed 0 --seconds 60 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``lab`` and ``fleet64``.  A *cold invocation* is one fresh process
(``perfbench/workload.py``) that imports the program, builds every
context the workload needs (the set-up) and runs one pass over the
workload's deployments.  With ``--trace 0`` the run repeats cold
invocations, one after another, while the next one is expected to end
within ``--seconds``; every end-to-end time is the median over them.
With ``--trace 1`` one traced invocation runs, followed by untraced
passes in the same process until ``--seconds`` have elapsed.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it is the environment block (CPU count, Python and numpy
versions, git revision, a digest of ``src/``) with the raw samples.
Any failure to run prints no result line and exits non-zero.

``--write-digest`` (seed 0 only) re-pins ``perfbench/digests.json``
for the workload after an intended change of simulated output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import DEFAULT_SEED, DIGESTS, check_passes, digest_of  # noqa: E402

WORKLOADS = ("lab", "fleet64")
# Every run must end within 180 s; leave room to report.
DEADLINE_S = 170.0


def launch(args: list[str], deadline: float) -> dict:
    """Run ``workload.py`` in a fresh process; return its report."""
    t0 = time.monotonic()
    remaining = deadline - t0
    if remaining <= 0:
        raise RuntimeError("no time left to start a workload process")
    completed = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args, "--t0", repr(t0)],
        # A fixed hash seed keeps set and dict layouts, and so the
        # work done per run, the same from run to run.
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
        timeout=remaining,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"workload process exited with {completed.returncode}"
        )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no report")
    return json.loads(lines[-1])


def git_rev() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over every source file, identifying a tree without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digest", action="store_true")
    args = parser.parse_args(argv)
    if args.write_digest and args.seed != DEFAULT_SEED:
        parser.error(f"--write-digest needs --seed {DEFAULT_SEED}")

    start = time.monotonic()
    window_end = start + args.seconds
    deadline = start + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace)]
    reports: list[dict] = []
    durations: list[float] = []
    try:
        if args.trace:
            reports.append(launch(common + ["--until", repr(window_end)],
                                  deadline))
        else:
            # Start another cold invocation only while the slowest so
            # far would still end inside the window.
            while not durations or (
                time.monotonic() + max(durations) <= window_end
            ):
                launched = time.monotonic()
                reports.append(launch(common, deadline))
                durations.append(time.monotonic() - launched)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = reports[0]
    passes = [p["records"] for r in reports for p in r["passes"]]
    if args.write_digest:
        pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        pinned[args.workload] = [digest_of(r) for r in passes[0]]
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                           + "\n")
    failed, problems = check_passes(args.workload, args.seed, passes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(len(records) for records in passes)

    first = [r for r in passes[0] if "error" not in r]
    present = sum(r["present"] for r in first)
    outputs = {
        "detection_rate": metric(
            sum(r["detected"] for r in first) / present
            if present else 0.0, "ratio"),
        "energy_j": metric(sum(r["energy_j"] for r in first), "J"),
    }
    setups = [r["setup_s"] for r in reports]
    # The first pass of each cold invocation.
    pass_s = [r["passes"][0]["seconds"] for r in reports]
    if args.trace:
        metrics = report["layers"]
    else:
        cold_pass_s = statistics.median(pass_s)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(statistics.median(
                setup + seconds
                for setup, seconds in zip(setups, pass_s)), "s"),
            "frames_per_s": metric(
                sum(r["frames"] for r in first) / cold_pass_s, "frames/s"),
            "peak_rss_mb": metric(statistics.median(
                r["peak_rss_mb"] for r in reports), "MiB"),
            **outputs,
            "success_share": metric(
                1.0 - failed / attempted if attempted else 0.0, "ratio"),
        }

    print(json.dumps({
        "environment": {
            **report["environment"],
            "git_rev": git_rev(),
            "src_sha256": src_digest(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "setup_samples_s": setups,
        "pass_samples_s": pass_s,
        "import_samples_s": [r["import_s"] for r in reports],
        "outputs": outputs,
    }))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
