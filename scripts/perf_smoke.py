#!/usr/bin/env python3
"""Perf smoke: diff fresh bench JSON against a checked-in baseline.

Usage: perf_smoke.py <baseline.json> <fresh.json> [threshold]

Compares every key ending in `_events_per_sec` that both files share and
emits a GitHub Actions `::warning::` annotation when the fresh number
falls more than `threshold` (default 10%) below the baseline. CI shared
runners are far too noisy for a hard cross-run perf gate, so baseline
comparisons always pass — the annotations make regressions visible on
the PR without flaking it.

Tracing overhead (within the *fresh* file, so runner speed cancels out):
when the fresh results carry the 1-in-1024 sampled run, it gets a
warn-only 5% allowance against the untraced reference
(`batched_events_per_sec` or, for the hop bench, the loopback series).
There is no tracer-disabled gate: both benches measured that variant as
a rerun of (or the same run as) the reference, so it could not fail.
"""

import json
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(f"usage: {sys.argv[0]} <baseline.json> <fresh.json> [threshold]")
        return 0
    threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.10
    try:
        with open(sys.argv[1]) as f:
            baseline = json.load(f)
        with open(sys.argv[2]) as f:
            fresh = json.load(f)
    except (OSError, ValueError) as e:
        print(f"::warning::perf_smoke could not load results: {e}")
        return 0

    keys = [
        k
        for k in baseline
        if k.endswith("_events_per_sec") and k in fresh
    ]
    if not keys:
        print("::warning::perf_smoke found no comparable *_events_per_sec keys")
        return 0

    for key in sorted(keys):
        base, now = float(baseline[key]), float(fresh[key])
        if base <= 0:
            continue
        ratio = now / base
        line = f"{key}: baseline {base:.0f} -> fresh {now:.0f} ({ratio:.2f}x)"
        if ratio < 1.0 - threshold:
            print(
                f"::warning::perf regression (> {threshold:.0%}): {line}"
            )
        else:
            print(f"perf_smoke ok: {line}")

    trace_warning(fresh)
    return ops_hook_gate(fresh)


def ops_hook_gate(fresh: dict) -> int:
    """Hard 1% gate: registering a pipeline on another stream must not
    tax this stream's publish path. Gated on the process-CPU-time rate
    (both series from the same bench_subscribe_fanout run), which holds
    still when co-tenants steal cycles mid-run — wall-clock on shared
    runners swings far more than the 1% budget."""
    plain_key = "fanout_plain_publish_cpu_events_per_sec"
    hooked_key = "fanout_foreign_pipeline_publish_cpu_events_per_sec"
    if plain_key not in fresh or hooked_key not in fresh:
        return 0
    plain, hooked = float(fresh[plain_key]), float(fresh[hooked_key])
    if plain <= 0:
        return 0
    overhead = 1.0 - hooked / plain
    line = (
        f"{hooked_key}: {hooked:.0f} vs {plain_key} {plain:.0f} "
        f"(overhead {overhead:+.1%}, budget 1%)"
    )
    if overhead > 0.01:
        print(f"::error::idle pipeline-hook overhead gate failed: {line}")
        return 1
    print(f"ops_gate ok: {line}")
    return 0


def trace_warning(fresh: dict) -> None:
    """Warn-only 5% allowance on 1-in-1024 sampled tracing."""
    key, budget = "trace_sampled_1_in_1024_events_per_sec", 0.05
    if key not in fresh:
        return
    for ref_key in ("batched_events_per_sec",
                    "remote_loopback_tcp_events_per_sec"):
        if ref_key in fresh and float(fresh[ref_key]) > 0:
            ref = float(fresh[ref_key])
            break
    else:
        return
    now = float(fresh[key])
    overhead = 1.0 - now / ref
    line = (
        f"{key}: {now:.0f} vs {ref_key} {ref:.0f} "
        f"(overhead {overhead:+.1%}, budget {budget:.0%})"
    )
    if overhead > budget:
        print(f"::warning::tracing overhead above budget: {line}")
    else:
        print(f"trace_gate ok: {line}")


if __name__ == "__main__":
    sys.exit(main())
