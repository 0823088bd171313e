#!/usr/bin/env python3
"""Compare a benchmark run against a committed baseline.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json [--tolerance 0.25]
        [--latency-tolerance 0.50] [--update]

Understands three report schemas, detected from the report itself:

* perf_batch_scaling (BENCH_batch.json): samples keyed by
  (pricing, workers); gates on peak queries_per_second.
* loadgen_serve (BENCH_serve.json, ``"bench": "loadgen_serve"``):
  samples keyed by concurrency; gates on peak queries_per_second AND on
  the best p99_ms latency across concurrency steps.
* perf_mlc_scaling (BENCH_mlc.json, ``"bench": "perf_mlc_scaling"``):
  samples keyed by (n, mode); gates on the largest world's pruned
  queries_per_second, on exact search counters — MLC_EXACT_FIELDS must
  equal the baseline's for every (n, mode) in both reports (the search
  is deterministic, so any change is a change in behaviour) — AND on
  the current report's own rows at every world size: the pruned search
  must create strictly fewer labels and pop fewer queue entries than
  the unbounded one, so the budget pruning can never silently stop
  pruning.
* perf_coldstart (BENCH_coldstart.json, ``"bench": "perf_coldstart"``):
  scalar build/save/load timings; gates on the current run's own
  speedup ratio — mmap-loading a snapshot must be at least 5x faster
  than the text build (a same-machine ratio, so no cross-machine
  tolerance applies) — and on fingerprint_ok (the loaded world produced
  bit-identical plan results).

Exits 1 when the gated q/s falls below ``baseline * (1 - tolerance)``
or (serve reports) the best p99 rises above
``baseline * (1 + latency_tolerance)`` or (mlc reports) a search
counter differs from the baseline or pruning stopped reducing search
effort.

The tolerances are deliberately wide (default 25% throughput, 50%
latency): the committed baseline was recorded on a small dev container
while CI runs on shared runners with different core counts and noisy
neighbours, so only a genuine regression — not machine-to-machine
jitter — should trip them. Faster results never fail; pass --update to
rewrite the baseline from the current run when a real improvement or
environment change lands.
"""

import argparse
import json
import os
import shutil
import sys


def kind(report):
    """Schema of a report: 'serve', 'mlc' or 'batch' (the unnamed
    original)."""
    name = report.get("bench")
    if name == "loadgen_serve":
        return "serve"
    if name == "perf_mlc_scaling":
        return "mlc"
    if name == "perf_coldstart":
        return "coldstart"
    return "batch"


def fmt(value, spec="{:.2f}"):
    """Format an optional numeric cell; '-' for fields the report
    predates (old baselines have no cpu_seconds / window_p99_ms)."""
    if value is None:
        return "-"
    try:
        return spec.format(float(value))
    except (TypeError, ValueError):
        return "-"


def delta_pct(base, cur):
    """Signed percent change current-vs-baseline, '-' when the baseline
    row (or field) is missing."""
    try:
        base, cur = float(base), float(cur)
    except (TypeError, ValueError):
        return "-"
    if base == 0.0:
        return "-"
    return "{:+.1f}%".format((cur - base) / base * 100.0)


def render_table(headers, rows):
    """The rows as aligned plain text (stdout) and as a GitHub markdown
    table ($GITHUB_STEP_SUMMARY) — one source, two renderings."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
        else len(str(h))
        for i, h in enumerate(headers)
    ]
    text_lines = [
        " ".join(str(c).rjust(w) for c, w in zip(row, widths))
        for row in [headers] + rows
    ]
    md_lines = ["| " + " | ".join(str(h) for h in headers) + " |",
                "|" + "|".join("---:" for _ in headers) + "|"]
    md_lines += ["| " + " | ".join(str(c) for c in row) + " |"
                 for row in rows]
    return "\n".join(text_lines), "\n".join(md_lines)


def write_step_summary(markdown):
    """Append to the GitHub Actions job summary when running in CI; a
    no-op locally."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a") as f:
        f.write(markdown + "\n")


def peak_qps(report, label):
    """Peak queries/sec of a report; exits with a readable message (not a
    traceback) on a hand-edited baseline with missing or zero peaks."""
    samples = report.get("samples", [])
    if not samples:
        raise SystemExit(f"error: no samples[] in {label} benchmark report")
    try:
        peak = max(float(s["queries_per_second"]) for s in samples)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(
            f"error: {label} report has a sample without a numeric "
            f"queries_per_second field ({exc!r})"
        )
    if not peak > 0.0:  # also catches NaN
        raise SystemExit(
            f"error: {label} peak throughput is {peak}; a zero or negative "
            "peak cannot gate the build — fix or regenerate the report"
        )
    return peak


def best_p99(report, label):
    """Lowest p99_ms across a serve report's concurrency steps."""
    try:
        best = min(float(s["p99_ms"]) for s in report["samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(
            f"error: {label} serve report has a sample without a numeric "
            f"p99_ms field ({exc!r})"
        )
    if not best > 0.0:
        raise SystemExit(
            f"error: {label} best p99 is {best} ms; a zero or negative "
            "latency cannot gate the build — fix or regenerate the report"
        )
    return best


MIN_COLDSTART_SPEEDUP = 5.0

# perf_mlc_scaling counters that must match the baseline exactly.
MLC_EXACT_FIELDS = ("labels_created", "queue_pops", "pareto_size",
                    "dominance_checks", "labels_pruned_bound")


def gated_rows(report, schema):
    """The rows whose peak q/s is gated: all, except that an mlc report
    keeps only its largest world's pruned row (the small worlds' ~20 us
    searches are too short for a stable rate)."""
    if schema != "mlc":
        return report
    pruned = [s for s in report["samples"] if s.get("mode") == "pruned"]
    return {"samples": pruned and [max(pruned, key=lambda s: s["n"])]}


def compare_coldstart(baseline, current, args):
    """The coldstart report is scalars, not samples: render the timing
    table, then self-gate on the current run's speedup ratio and
    fingerprint flag (both machine-independent, so no tolerance)."""
    headers = ["metric", "baseline", "current", "Δ"]
    rows = []
    for field, spec in (("build_seconds", "{:.4f}"),
                        ("save_seconds", "{:.4f}"),
                        ("load_seconds", "{:.6f}"),
                        ("speedup", "{:.1f}"),
                        ("snapshot_bytes", "{:.0f}"),
                        ("warm_slots", "{:.0f}")):
        rows.append([field, fmt(baseline.get(field), spec),
                     fmt(current.get(field), spec),
                     delta_pct(baseline.get(field), current.get(field))])
    text_table, md_table = render_table(headers, rows)
    print(text_table)
    summary_lines = [md_table, ""]

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"updated {args.baseline} from {args.current}")
        return 0

    failed = False
    try:
        speedup = float(current["speedup"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(
            f"error: coldstart report has no numeric speedup ({exc!r})"
        )
    gate_line = (
        f"speedup: snapshot load is {speedup:.1f}x faster than the text "
        f"build (gate: >= {MIN_COLDSTART_SPEEDUP:.0f}x)"
    )
    print(gate_line)
    summary_lines.append(gate_line)
    if speedup < MIN_COLDSTART_SPEEDUP:
        message = (
            f"FAIL: snapshot load is only {speedup:.1f}x faster than the "
            f"text build (gate requires >= {MIN_COLDSTART_SPEEDUP:.0f}x)"
        )
        print(message, file=sys.stderr)
        summary_lines.append(f"**{message}**")
        failed = True
    if current.get("fingerprint_ok") is not True:
        message = ("FAIL: coldstart report does not assert fingerprint_ok — "
                   "the loaded world's plan results were not bit-identical")
        print(message, file=sys.stderr)
        summary_lines.append(f"**{message}**")
        failed = True

    write_step_summary(
        "### bench_compare: coldstart — "
        f"{'OK' if not failed else 'FAIL'}\n\n" + "\n".join(summary_lines)
    )
    if failed:
        return 1
    print("OK: snapshot boot gate holds")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed benchmark report")
    parser.add_argument("current", help="freshly produced report")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional throughput drop below baseline "
        "(default 0.25)",
    )
    parser.add_argument(
        "--latency-tolerance",
        type=float,
        default=0.50,
        help="allowed fractional p99 rise above baseline, serve reports "
        "only (default 0.50)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the current run and exit 0",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    schema = kind(current)
    if schema != kind(baseline):
        raise SystemExit(
            "error: baseline and current reports are different benchmarks "
            f"(baseline {kind(baseline)}, current {schema})"
        )
    if schema == "coldstart":
        return compare_coldstart(baseline, current, args)
    serve = schema == "serve"

    rate_name = "largest-n pruned" if schema == "mlc" else "peak"
    base_peak = peak_qps(gated_rows(baseline, schema), "baseline")
    cur_peak = peak_qps(gated_rows(current, schema), "current")
    floor = base_peak * (1.0 - args.tolerance)

    if serve:
        # Serve samples are one concurrency step each. window_p99_ms and
        # cpu_seconds are newer report fields: '-' cells keep old
        # baselines comparable instead of KeyError-ing the gate.
        def key(sample):
            return sample["concurrency"]

        headers = ["concurrency", "base q/s", "cur q/s", "Δq/s",
                   "base p99 ms", "cur p99 ms", "Δp99",
                   "window p99 ms", "cpu s"]
        base_by_key = {key(s): s for s in baseline.get("samples", [])}
        rows = []
        for sample in current.get("samples", []):
            base = base_by_key.get(key(sample)) or {}
            rows.append([
                sample["concurrency"],
                fmt(base.get("queries_per_second")),
                fmt(sample["queries_per_second"]),
                delta_pct(base.get("queries_per_second"),
                          sample["queries_per_second"]),
                fmt(base.get("p99_ms"), "{:.3f}"),
                fmt(sample["p99_ms"], "{:.3f}"),
                delta_pct(base.get("p99_ms"), sample["p99_ms"]),
                fmt(sample.get("window_p99_ms"), "{:.3f}"),
                fmt(sample.get("cpu_seconds"), "{:.3f}"),
            ])
    elif schema == "mlc":
        # Samples are keyed by (n, mode): one pruned and one unbounded
        # row per city size.
        def key(sample):
            return (sample["n"], sample["mode"])

        headers = ["n", "mode", "base q/s", "cur q/s", "Δq/s",
                   "base labels", "cur labels", "Δlabels",
                   "cur pruned", "cur pops", "cur checks"]
        base_by_key = {key(s): s for s in baseline.get("samples", [])}
        rows = []
        for sample in current.get("samples", []):
            base = base_by_key.get(key(sample)) or {}
            rows.append([
                sample["n"],
                sample["mode"],
                fmt(base.get("queries_per_second")),
                fmt(sample["queries_per_second"]),
                delta_pct(base.get("queries_per_second"),
                          sample["queries_per_second"]),
                fmt(base.get("labels_created"), "{:.0f}"),
                fmt(sample.get("labels_created"), "{:.0f}"),
                delta_pct(base.get("labels_created"),
                          sample.get("labels_created")),
                fmt(sample.get("labels_pruned_bound"), "{:.0f}"),
                fmt(sample.get("queue_pops"), "{:.0f}"),
                fmt(sample.get("dominance_checks"), "{:.0f}"),
            ])
    else:
        # Samples are keyed by (pricing, workers); old baselines without
        # a pricing field compare against the "exact" rows of a new run.
        def key(sample):
            return (sample.get("pricing", "exact"), sample["workers"])

        headers = ["pricing", "workers", "base q/s", "cur q/s", "Δq/s",
                   "cpu s"]
        base_by_key = {key(s): s for s in baseline.get("samples", [])}
        rows = []
        for sample in current.get("samples", []):
            base = base_by_key.get(key(sample)) or {}
            rows.append([
                sample.get("pricing", "exact"),
                sample["workers"],
                fmt(base.get("queries_per_second")),
                fmt(sample["queries_per_second"]),
                delta_pct(base.get("queries_per_second"),
                          sample["queries_per_second"]),
                fmt(sample.get("cpu_seconds"), "{:.3f}"),
            ])

    text_table, md_table = render_table(headers, rows)
    print(text_table)

    peak_line = (
        f"{rate_name}: baseline {base_peak:.2f} q/s, current "
        f"{cur_peak:.2f} q/s ({cur_peak / base_peak:.2f}x), floor "
        f"{floor:.2f} q/s (tolerance {args.tolerance:.0%})"
    )
    print(peak_line)
    summary_lines = [md_table, "", peak_line]

    # Shared-cache memory and snapshot identity, tracked informationally
    # (never gating): one SlotCostCache per (world version, vehicle), so
    # the bytes trend catches an accidental per-worker duplication while
    # the version confirms which snapshot priced the run. Old reports
    # without the fields stay comparable.
    for label, report in (("baseline", baseline), ("current", current)):
        version = report.get("world_version")
        cache_bytes = report.get("slotcache_bytes")
        if cache_bytes is not None:
            kib = f"{cache_bytes / 1024.0:.1f} KiB"
            print(f"{label}: world v{version if version is not None else '?'}"
                  f", shared slot cache {kib}")

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"updated {args.baseline} from {args.current}")
        return 0

    failed = False
    if cur_peak < floor:
        message = (
            f"FAIL: current {rate_name} {cur_peak:.2f} q/s is more than "
            f"{args.tolerance:.0%} below baseline {base_peak:.2f} q/s"
        )
        print(message, file=sys.stderr)
        summary_lines.append(f"**{message}**")
        failed = True

    if serve:
        base_lat = best_p99(baseline, "baseline")
        cur_lat = best_p99(current, "current")
        ceiling = base_lat * (1.0 + args.latency_tolerance)
        p99_line = (
            f"p99: baseline best {base_lat:.3f} ms, current best "
            f"{cur_lat:.3f} ms ({cur_lat / base_lat:.2f}x), ceiling "
            f"{ceiling:.3f} ms (tolerance {args.latency_tolerance:.0%})"
        )
        print(p99_line)
        summary_lines.append(p99_line)
        if cur_lat > ceiling:
            message = (
                f"FAIL: current best p99 {cur_lat:.3f} ms is more than "
                f"{args.latency_tolerance:.0%} above baseline "
                f"{base_lat:.3f} ms"
            )
            print(message, file=sys.stderr)
            summary_lines.append(f"**{message}**")
            failed = True

    if schema == "mlc":
        # Exact counters against the baseline: the search is
        # deterministic, so a row present in both reports must match
        # field for field whatever machine ran it.
        for sample in current.get("samples", []):
            base = base_by_key.get(key(sample))
            if base is None:
                continue
            for field in MLC_EXACT_FIELDS:
                if sample.get(field) != base.get(field):
                    message = (
                        f"FAIL: {field} at n={sample['n']} "
                        f"{sample['mode']} is {sample.get(field)}, baseline "
                        f"{base.get(field)} — the search no longer does "
                        "the same work; refresh the baseline with --update "
                        "only for an intended change"
                    )
                    print(message, file=sys.stderr)
                    summary_lines.append(f"**{message}**")
                    failed = True

        # Self-gate on the current run (no tolerance — this is a strict
        # invariant, not a machine-speed comparison): at every world
        # size, the budgeted search must do strictly less work than the
        # unbounded one in both labels created and queue pops. The
        # largest world must carry both rows.
        by_n = {}
        for s in current.get("samples", []):
            by_n.setdefault(s["n"], {})[s["mode"]] = s
        largest = max(s["n"] for s in current.get("samples", []))
        if set(by_n.get(largest, {})) < {"pruned", "unbounded"}:
            raise SystemExit(
                "error: mlc report is missing the pruned or unbounded "
                f"sample at its largest world (n={largest})"
            )
        for n, rows in sorted(by_n.items()):
            pruned, unbounded = rows.get("pruned"), rows.get("unbounded")
            if pruned is None or unbounded is None:
                continue
            for field in ("labels_created", "queue_pops"):
                p, u = float(pruned[field]), float(unbounded[field])
                line = (f"pruning (n={n}): {field} {u:.0f} unbounded -> "
                        f"{p:.0f} pruned ({(1 - p / u) * 100.0:.1f}% saved)")
                print(line)
                summary_lines.append(line)
                if not p < u:
                    message = (
                        f"FAIL: pruned search no longer reduces {field} at "
                        f"n={n} ({p:.0f} pruned vs {u:.0f} unbounded) — "
                        "the budget pruning has stopped pruning"
                    )
                    print(message, file=sys.stderr)
                    summary_lines.append(f"**{message}**")
                    failed = True

    verdict = ("within tolerance of baseline" if not failed
               else "regression against baseline")
    name = schema
    write_step_summary(
        f"### bench_compare: {name} — "
        f"{'OK' if not failed else 'FAIL'}, {verdict}\n\n"
        + "\n".join(summary_lines)
    )

    if failed:
        return 1
    print("OK: within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
