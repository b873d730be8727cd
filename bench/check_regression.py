#!/usr/bin/env python3
"""Gate benchmarks against a committed baseline.

Usage:
    check_regression.py CURRENT.json BASELINE.json [--threshold 1.25]

Two JSON schemas are understood, selected automatically:

Kernel schema (BENCH_tensor_ops.json): entries keyed by (op, shape) with an
ns_per_iter field. Every pair present in both files is compared and the gate
fails if any op got slower than baseline * threshold. Speedups are reported
but never fail. Ops present in only one file are listed as warnings (bench
sets are allowed to evolve) without failing the gate. Ops whose baseline
iteration is below --min-ns (default 100 us) are reported but not gated: at
that scale the measurement is dominated by scheduler and VM noise, not
kernel changes.

Hard requirements of the CURRENT kernel run (independent of baseline):
  - the elementwise suite (ew_relu_fwd, ew_sigmoid_bwd, ew_axpy, ew_blend,
    ew_clamp, ew_adam_update) must be present, each carrying gb_per_s and
    speedup_vs_portable fields — the dispatch layer exists and was measured
    (their ns_per_iter is gated at the normal threshold like any kernel;
    the speedup itself is hardware-dependent and only warned on);
  - the refine_step_allocs entry must be present with allocs_per_step == 0:
    the steady-state refinement step's zero-allocation contract. Any
    nonzero value is a regression of the arena hot path, not noise, and
    fails the gate outright.

Scan schema (BENCH_scan_scaling.json): entries carry a "section" field.
  - Contract fields are hard requirements of the CURRENT run alone: every
    "identical" and "same_verdict" must be true (bit-identity across thread
    counts, verdict preservation under early exit).
  - The "service" section (mixed-request fairness: small-scan p50 latency
    under a K=43 background scan on one round dispatcher) is itself a hard
    requirement: the gate fails if the entry is missing from the current
    run, or if its small_before_large / identical booleans are not true.
    The fairness property is load-bearing for the DetectionService's global
    class-job scheduler, so its absence must read as a failure, never as
    "nothing to check". Its latency is gated like any single-thread row.
    The entry must also carry deadline_miss_p50_overhead (solo-scan p50
    latency with an armed-but-never-hit deadline, relative to no deadline,
    minus 1.0) strictly below 0.02: deadline bookkeeping is a few clock
    reads per stage boundary and must stay in the noise. It must further
    carry fleet_redispatch_success_rate == 1.0 (every scan whose fleet
    worker was SIGKILLed mid-flight re-dispatched to a byte-identical
    kDone on a survivor) and fleet_respawn_p50_seconds present and > 0
    (the SIGKILL-to-respawn latency was actually measured).
  - The "overload" section (the robustness layer made measurable) is a hard
    requirement of the current run as well: shed_p50_latency_seconds must be
    present and positive (the depth-watermark shed path actually fired; the
    value is the submit-to-kShed resolution latency an overloaded caller
    waits), and health_snapshot_overhead (best solo-scan latency with a
    100 Hz health() poller, relative to unmonitored, minus 1.0) must stay
    strictly below 0.02. Its "seconds" is the p50 unmonitored solo-scan
    latency.
  - Wall-clock gating compares "seconds" against baseline * threshold, but
    only for single-thread rows: multi-thread rows measure pool scaling,
    which a differently-sized runner legitimately changes.
  - Speedup floors: the matrix row with early exit on must keep a
    single-thread wall-clock speedup >= 1.2x over the early-exit-off cell
    of the SAME run (min-of-2 reps in the bench; both cells share the run's
    machine conditions, and the measured value is ~1.47x, so the floor has
    ~20% noise headroom). The 4-thread wall-clock pool-scaling floor of
    1.1x is WARN-ONLY until it has been demonstrated on multi-core
    hardware (a ROADMAP open item — every measurement so far is from a
    1-core container), and is not even evaluated on runners with fewer
    than 4 cores. USB_SCAN_GATE_SKIP_SPEEDUP=1 skips both floors.

The threshold can also be set via the USB_BENCH_GATE_THRESHOLD environment
variable (the command-line flag wins). The default of 1.25 implements the
ROADMAP rule "fail CI on >25% kernel slowdown"; note the committed baseline
is produced on one machine and CI runs on another, so after a hardware
change the baseline should be refreshed (re-run the bench and commit the
JSON) rather than the threshold loosened.
"""

import argparse
import json
import os
import sys


def load_entries(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def is_scan_schema(entries):
    return any("section" in e for e in entries)


REQUIRED_ELEMENTWISE_OPS = (
    "ew_relu_fwd",
    "ew_sigmoid_bwd",
    "ew_axpy",
    "ew_blend",
    "ew_clamp",
    "ew_adam_update",
)
REQUIRED_ALLOC_OP = "refine_step_allocs"


def check_kernel_contract(current_entries, failures):
    """Hard requirements of the current run alone (see module docstring)."""
    by_op = {}
    for entry in current_entries:
        by_op.setdefault(entry["op"], entry)

    for op in REQUIRED_ELEMENTWISE_OPS:
        entry = by_op.get(op)
        if entry is None:
            failures.append(f"required elementwise entry '{op}' missing from current run")
            continue
        for field in ("gb_per_s", "speedup_vs_portable"):
            if field not in entry:
                failures.append(f"{op}: required field '{field}' missing")

    alloc = by_op.get(REQUIRED_ALLOC_OP)
    if alloc is None:
        failures.append(f"required entry '{REQUIRED_ALLOC_OP}' missing from current run")
    elif "allocs_per_step" not in alloc:
        failures.append(f"{REQUIRED_ALLOC_OP}: required field 'allocs_per_step' missing")
    elif alloc["allocs_per_step"] != 0:
        failures.append(
            f"{REQUIRED_ALLOC_OP}: steady-state refinement step performs "
            f"{alloc['allocs_per_step']} Tensor allocations/step (contract: 0)"
        )

    # The >=1.5x speedup demonstration is hardware-dependent (a runner
    # without AVX2 dispatches the portable kernel and reports exactly 1.0
    # for every entry), so it warns rather than fails. "AVX2 ran" is
    # detected by ANY measured speedup differing from 1.0 — including the
    # all-below-1.0 case where dispatch actively pessimizes, which is
    # precisely what the warning exists to surface.
    speedups = [
        by_op[op].get("speedup_vs_portable", 0.0)
        for op in REQUIRED_ELEMENTWISE_OPS
        if op in by_op
    ]
    measured_both_variants = any(abs(s - 1.0) > 1e-9 for s in speedups)
    if measured_both_variants and sum(1 for s in speedups if s >= 1.5) < 2:
        print(
            "WARNING: fewer than two elementwise kernels reach 1.5x over the "
            f"portable variant (speedups: {speedups})",
            file=sys.stderr,
        )


def check_kernels(current_entries, baseline_entries, args):
    current = {(e["op"], e["shape"]): e for e in current_entries}
    baseline = {(e["op"], e["shape"]): e for e in baseline_entries}

    failures = []
    check_kernel_contract(current_entries, failures)
    rows = []
    for key in sorted(baseline):
        if key not in current:
            print(f"WARNING: {key[0]} [{key[1]}] in baseline but not in current run", file=sys.stderr)
            continue
        base_ns = baseline[key]["ns_per_iter"]
        cur_ns = current[key]["ns_per_iter"]
        if base_ns <= 0:
            continue
        ratio = cur_ns / base_ns
        verdict = "OK"
        if base_ns < args.min_ns:
            verdict = "SKIPPED (below gate floor)"
        elif ratio > args.threshold:
            verdict = "REGRESSION"
            failures.append(f"{key[0]} [{key[1]}] {ratio:.2f}x slower than baseline")
        rows.append((key[0], key[1], base_ns, cur_ns, ratio, verdict))
    for key in sorted(set(current) - set(baseline)):
        print(f"NOTE: new op {key[0]} [{key[1]}] has no baseline yet", file=sys.stderr)

    print(f"{'op':<28} {'shape':<14} {'base ns':>14} {'cur ns':>14} {'ratio':>7}  verdict")
    for op, shape, base_ns, cur_ns, ratio, verdict in rows:
        print(f"{op:<28} {shape:<14} {base_ns:>14.1f} {cur_ns:>14.1f} {ratio:>7.2f}  {verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} kernel gate violation(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: kernel contract holds and no kernel slower than "
          f"{args.threshold:.2f}x baseline ({len(rows)} compared)")
    return 0


def scan_key(entry):
    section = entry.get("section")
    if section == "matrix":
        return ("matrix", entry["method"], entry["early_exit"])
    if section == "service":
        return ("service", entry["method"], entry.get("scenario", "mixed"))
    if section == "overload":
        return ("overload", entry["method"], entry.get("scenario", "overload"))
    return ("threads", entry["method"], entry["threads"])


def check_scan(current_entries, baseline_entries, args):
    failures = []

    # Contract fields of the current run (bit-identity, verdict preservation)
    # are not comparisons against baseline: they must simply hold. A null or
    # absent field means the bench did not measure that property for the row
    # (early-exit rows carry no identity claim) and is not a violation.
    for entry in current_entries:
        for field in ("identical", "same_verdict"):
            if entry.get(field) is False:
                failures.append(f"{scan_key(entry)}: {field} is false")

    # The mixed-request fairness entry is a hard requirement of the current
    # run: a bench build that silently dropped the service section must fail
    # the gate, and its contract booleans must be affirmatively true (null
    # or absent is a violation here, unlike the per-row fields above).
    service_rows = [e for e in current_entries if e.get("section") == "service"]
    if not service_rows:
        failures.append(
            "required 'service' section missing from current run: the "
            "mixed-request fairness entry (small-scan latency under K=43 "
            "background load) was not measured"
        )
    for entry in service_rows:
        for field in ("small_before_large", "identical"):
            if entry.get(field) is not True:
                failures.append(
                    f"{scan_key(entry)}: required contract field '{field}' is "
                    f"{entry.get(field)!r} (must be true)"
                )
        # Deadline bookkeeping (the per-stage steady_clock checks an armed
        # deadline adds) must stay in the noise: below 2% of solo-scan p50
        # latency. A missing field means the bench stopped measuring it,
        # which must fail, not silently pass.
        overhead = entry.get("deadline_miss_p50_overhead")
        if overhead is None:
            failures.append(
                f"{scan_key(entry)}: required field 'deadline_miss_p50_overhead' "
                "missing from current run"
            )
        elif overhead >= 0.02:
            failures.append(
                f"{scan_key(entry)}: deadline bookkeeping overhead "
                f"{overhead:.4f} exceeds the 0.02 gate"
            )
        # By-reference submission: the ModelStore must actually have shared
        # a resident model across the ref submits (hit rate 0 means every
        # submit reloaded). A missing field means the bench stopped
        # measuring the store, which must fail outright.
        hit_rate = entry.get("model_store_hit_rate")
        if hit_rate is None:
            failures.append(
                f"{scan_key(entry)}: required field 'model_store_hit_rate' "
                "missing from current run"
            )
        elif hit_rate <= 0.0:
            failures.append(
                f"{scan_key(entry)}: model_store_hit_rate {hit_rate!r} — ref "
                "submits never shared a resident model"
            )
        # Process-fleet crash resilience: every scan whose worker was
        # SIGKILLed mid-flight must have re-dispatched to a byte-identical
        # kDone on a survivor (rate exactly 1.0 — re-dispatch is only safe
        # because reports are deterministic), and a respawn must actually
        # have been timed (a zero/missing p50 means the kill never landed
        # or the worker binary was absent from the build).
        fleet_rate = entry.get("fleet_redispatch_success_rate")
        if fleet_rate is None:
            failures.append(
                f"{scan_key(entry)}: required field "
                "'fleet_redispatch_success_rate' missing from current run"
            )
        elif fleet_rate != 1.0:
            failures.append(
                f"{scan_key(entry)}: fleet_redispatch_success_rate "
                f"{fleet_rate!r} != 1.0 — a killed worker's scan failed to "
                "re-dispatch to a byte-identical kDone"
            )
        fleet_respawn = entry.get("fleet_respawn_p50_seconds")
        if fleet_respawn is None:
            failures.append(
                f"{scan_key(entry)}: required field "
                "'fleet_respawn_p50_seconds' missing from current run"
            )
        elif fleet_respawn <= 0.0:
            failures.append(
                f"{scan_key(entry)}: fleet_respawn_p50_seconds "
                f"{fleet_respawn!r} — no worker respawn was ever observed"
            )

    # The overload entry (shedding, health-snapshot cost) is likewise a hard
    # requirement of the current run: a bench that stopped measuring the
    # robustness layer must fail the gate outright.
    overload_rows = [e for e in current_entries if e.get("section") == "overload"]
    if not overload_rows:
        failures.append(
            "required 'overload' section missing from current run: the "
            "shed / health-snapshot entry was not measured"
        )
    for entry in overload_rows:
        shed = entry.get("shed_p50_latency_seconds")
        if shed is None:
            failures.append(
                f"{scan_key(entry)}: required field 'shed_p50_latency_seconds' missing"
            )
        elif shed <= 0:
            failures.append(
                f"{scan_key(entry)}: shed_p50_latency_seconds {shed!r} — the "
                "depth-watermark shed path never fired during the bench"
            )
        # health() is polled from monitoring loops; its cost on scan latency
        # must stay in the noise, same 2% bar as deadline bookkeeping.
        health = entry.get("health_snapshot_overhead")
        if health is None:
            failures.append(
                f"{scan_key(entry)}: required field 'health_snapshot_overhead' missing"
            )
        elif health >= 0.02:
            failures.append(
                f"{scan_key(entry)}: health snapshot overhead "
                f"{health:.4f} exceeds the 0.02 gate"
            )

    current = {scan_key(e): e for e in current_entries}
    baseline = {scan_key(e): e for e in baseline_entries}

    print(f"{'row':<50} {'base s':>9} {'cur s':>9} {'ratio':>7}  verdict")
    for key in sorted(current, key=str):
        entry = current[key]
        base = baseline.get(key)
        if base is None:
            print(f"NOTE: new scan row {key} has no baseline yet", file=sys.stderr)
            continue
        ratio = entry["seconds"] / base["seconds"] if base["seconds"] > 0 else 0.0
        if entry.get("threads", 1) != 1:
            verdict = "SKIPPED (multi-thread wall clock)"
        elif ratio > args.threshold:
            verdict = "REGRESSION"
            failures.append(f"{key}: {ratio:.2f}x slower than baseline")
        else:
            verdict = "OK"
        print(f"{str(key):<50} {base['seconds']:>9.3f} {entry['seconds']:>9.3f} {ratio:>7.2f}  {verdict}")
    for key in sorted(set(baseline) - set(current), key=str):
        print(f"WARNING: scan row {key} in baseline but not in current run", file=sys.stderr)

    if os.environ.get("USB_SCAN_GATE_SKIP_SPEEDUP", "") != "1":
        early_on = current.get(("matrix", "USB", "on"))
        if early_on is not None and early_on["speedup"] < 1.2:
            failures.append(
                f"matrix early-exit speedup {early_on['speedup']:.2f}x < 1.20x floor"
            )
        cores = os.cpu_count() or 1
        for entry in current_entries:
            if entry.get("section") != "threads" or entry["threads"] != 4:
                continue
            if cores < 4:
                print(
                    f"NOTE: skipping wall-clock speedup assertion for {scan_key(entry)} "
                    f"(runner has {cores} core(s))",
                    file=sys.stderr,
                )
            elif entry["speedup"] < 1.1:
                # Warn-only: no multi-core run has demonstrated this floor
                # yet (ROADMAP open item); promote to a failure once one has.
                print(
                    f"WARNING: {scan_key(entry)}: 4-thread speedup "
                    f"{entry['speedup']:.2f}x < 1.10x floor",
                    file=sys.stderr,
                )

    if failures:
        print(f"\nFAIL: {len(failures)} scan gate violation(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: scan contract holds and no single-thread row slower than "
          f"{args.threshold:.2f}x baseline")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly generated bench JSON")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("USB_BENCH_GATE_THRESHOLD", "1.25")),
        help="fail when current exceeds baseline * threshold (default 1.25)",
    )
    parser.add_argument(
        "--min-ns",
        type=float,
        default=float(os.environ.get("USB_BENCH_GATE_MIN_NS", "100000")),
        help="ignore kernel ops whose baseline ns/iter is below this floor (default 1e5)",
    )
    args = parser.parse_args()

    current = load_entries(args.current)
    baseline = load_entries(args.baseline)

    if is_scan_schema(current) or is_scan_schema(baseline):
        return check_scan(current, baseline, args)
    return check_kernels(current, baseline, args)


if __name__ == "__main__":
    sys.exit(main())
