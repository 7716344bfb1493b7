#!/usr/bin/env python3
"""Gate on the committed benchmark result files.

Walks every BENCH_*.json in the repository root and fails readably when any
correctness field is false — a digest mismatch or a broken zero-allocation
claim recorded into a committed result file must never slip through review.
It also holds two recorded claims: the streaming path's coalesced speedup,
and grid_scale's per-job host cost at 256 sites staying within 8x of the
32-site cost.

Usage:
    bench_diff.py [repo_root]

Exit status: 0 when every gate field in every file is true, 1 otherwise
(2 on malformed input).
"""

import json
import pathlib
import sys

# Any boolean field whose name contains one of these substrings is a
# correctness gate, not a measurement.
GATE_KEYWORDS = ("digest", "zero_alloc")

# Fields every result row of a given file must carry. The keyword walk above
# only checks fields that exist; this schema makes their absence a failure,
# so a regressed benchmark cannot pass the gate by silently dropping its
# correctness fields.
REQUIRED_ROW_FIELDS = {
    "BENCH_match_scale.json": ("digest_match",),
    "BENCH_sim_scale.json": ("digest_match", "zero_alloc_steady_state"),
    "BENCH_stream_scale.json": ("digest_match", "zero_alloc_steady_state"),
    "BENCH_grid_scale.json": ("sites", "jobs", "events", "wall_s",
                              "host_ms_per_job", "allocs_per_job",
                              "parent_host_ms_per_job"),
}

# grid_scale: per-job host cost may grow at most this much from 32 to 256
# sites (8x the sites: linear in sites, as per-site selection implies).
GRID_SCALE_MAX_RATIO = 8.0


def gate_fields(obj, path=""):
    """Yields (json_path, value) for every gate field in a nested object."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            where = f"{path}.{key}" if path else key
            if isinstance(value, bool) and any(k in key for k in GATE_KEYWORDS):
                yield where, value
            else:
                yield from gate_fields(value, where)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from gate_fields(value, f"{path}[{i}]")


def main():
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    files = sorted(root.glob("BENCH_*.json"))
    if not files:
        print(f"bench_diff: no BENCH_*.json files under {root}", file=sys.stderr)
        return 2

    failures = []
    checked = 0
    for f in files:
        try:
            data = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_diff: cannot read {f}: {err}", file=sys.stderr)
            return 2
        for where, value in gate_fields(data):
            checked += 1
            if not value:
                failures.append((f.name, where))
        required = REQUIRED_ROW_FIELDS.get(f.name)
        if required:
            rows = data.get("results", [])
            if not rows:
                failures.append((f.name, "results (empty)"))
            for i, row in enumerate(rows):
                for field in required:
                    checked += 1
                    if field not in row:
                        failures.append((f.name, f"results[{i}].{field} (missing)"))
        if f.name == "BENCH_stream_scale.json":
            # The streaming rewrite's headline claim: at >= 1000 concurrent
            # sessions some row must hold >= 2x messages/sec over the legacy
            # path (the coalescing configuration; lockstep rows pin digests).
            checked += 1
            rows = data.get("results", [])
            if not any(
                row.get("sessions", 0) >= 1000 and row.get("speedup", 0.0) >= 2.0
                for row in rows
            ):
                failures.append((f.name, "no row with sessions>=1000 and speedup>=2"))
        if f.name == "BENCH_grid_scale.json":
            checked += 1
            cost = {row.get("sites"): row.get("host_ms_per_job")
                    for row in data.get("results", [])}
            small, large = cost.get(32), cost.get(256)
            if not small or not large or large > GRID_SCALE_MAX_RATIO * small:
                failures.append((f.name, "256-site host_ms_per_job <= "
                                 f"{GRID_SCALE_MAX_RATIO:g}x the 32-site value"))

    if failures:
        print("bench_diff: committed benchmark results record failures:")
        for name, where in failures:
            print(f"  {name}: {where} is false")
        print(
            "A false digest/zero-alloc field means the run that produced the"
            " file observed a correctness violation. Re-run the benchmark and"
            " fix the divergence; do not re-pin the numbers."
        )
        return 1

    names = ", ".join(f.name for f in files)
    print(f"bench_diff: {checked} gate fields true across {names}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
