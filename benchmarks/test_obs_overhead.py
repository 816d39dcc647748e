"""Observability overhead gate — instrumentation must not tax Figure 13.

The daemon instruments its hot loop at *batch* granularity (one decode
span, one verify span and one histogram observation per batch) precisely
so the metrics plane stays off the per-report fast path; hot-path counters
are plain ints exposed through zero-cost callback instruments.  This bench
measures that choice: the daemon's per-batch unit of work — decode the
wire payloads, verify the batch with ``match_pair`` on the compiled pair
indexes — is run twice over identical batches, once
bare and once wrapped the way the server's batch intake
(``VeriDPServer.receive_report_rows``) wraps the rows a daemon's replica
flagged, and the per-report overhead must stay under 5%.

Measurement is paired: each sample times a group of bare passes then an
adjacent group of instrumented passes, and the *median of the paired
differences* is compared against the best bare time.  On a 1-CPU bench box
the drift between two sequential measurement blocks alone exceeds the
gate; pairing cancels the drift and the median discards scheduler-tick
outliers.  The gate still re-measures with more repeats before failing.

Machine-readable output lands in ``benchmarks/results/BENCH_obs.json``.
"""

import os
from time import perf_counter

from repro.analysis import reports_from_table
from repro.core.reports import PortCodec, pack_report, unpack_report
from repro.core.verifier import Verifier
from repro.obs import DEFAULT_BUCKETS, Observability

from conftest import print_table, write_json

#: VeriDPDaemon's default batch size; one span pair per batch.
BATCH_SIZE = 64
BASE_REPEATS = int(os.environ.get("REPRO_OBS_REPEATS", "30"))
GATE_PCT = 5.0
ATTEMPTS = 3  # each retry triples the repeats to average out box noise


def _fastpath_rig(row):
    reports = reports_from_table(row.builder, row.table)
    row.table.compile_matchers(row.builder.hs)
    verifier = Verifier(row.table, row.builder.hs)
    codec = PortCodec(sorted(row.builder.topo.switches))
    payloads = [pack_report(report, codec) for report in reports]
    batches = [
        payloads[i : i + BATCH_SIZE]
        for i in range(0, len(payloads), BATCH_SIZE)
    ]
    return verifier, codec, batches, len(reports)


def _measure(row, repeats):
    verifier, codec, batches, reports = _fastpath_rig(row)

    def bare():
        for batch in batches:
            decoded = [unpack_report(payload, codec) for payload in batch]
            verifier.verify_batch(decoded)

    obs = Observability()
    hist = obs.registry.histogram(
        "veridp_verify_batch_seconds",
        "Wall-clock seconds spent verifying one batch.",
        buckets=DEFAULT_BUCKETS,
    ).labels()

    def instrumented():
        # Mirrors the batch intake: decode span + verify span + one
        # histogram observation per batch; per-report work is untouched.
        for batch in batches:
            with obs.span("decode", reports=len(batch)):
                decoded = [unpack_report(payload, codec) for payload in batch]
            with obs.span("verify", reports=len(decoded)):
                result = verifier.verify_batch(decoded)
            hist.observe(result.elapsed_s)

    bare()  # warm: lazy matcher state, allocator
    instrumented()
    group = 3  # passes per timed sample; amortises timer/scheduler ticks
    diffs = []
    bare_s = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(group):
            bare()
        bare_sample = (perf_counter() - start) / group
        start = perf_counter()
        for _ in range(group):
            instrumented()
        instr_sample = (perf_counter() - start) / group
        bare_s = min(bare_s, bare_sample)
        diffs.append(instr_sample - bare_sample)
    diffs.sort()
    median_diff = diffs[len(diffs) // 2]
    overhead_pct = median_diff / bare_s * 100.0
    return {
        "reports": reports,
        "batches": len(batches),
        "repeats": repeats,
        "bare_us_per_report": round(bare_s / reports * 1e6, 4),
        "instrumented_us_per_report": round(
            (bare_s + median_diff) / reports * 1e6, 4
        ),
        "overhead_pct": round(overhead_pct, 3),
    }


def test_obs_overhead_under_5pct(benchmark, stanford_row, internet2_row):
    """Satellite 5: the observability wrap costs <5% on the fast path."""
    payload = {"gate_pct": GATE_PCT, "batch_size": BATCH_SIZE, "setups": {}}
    rows = []

    def run_all():
        for row in (stanford_row, internet2_row):
            result = None
            for attempt in range(1, ATTEMPTS + 1):
                result = _measure(row, BASE_REPEATS * attempt)
                result["attempts"] = attempt
                if result["overhead_pct"] < GATE_PCT:
                    break
            payload["setups"][row.setup] = result

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    for setup, result in payload["setups"].items():
        rows.append(
            (
                setup,
                result["reports"],
                result["bare_us_per_report"],
                result["instrumented_us_per_report"],
                f"{result['overhead_pct']:+.2f}%",
                f"< {GATE_PCT:.0f}%",
            )
        )
    print_table(
        "Observability overhead on the Figure 13 fast path "
        "(batch-granular spans + histogram, min-of-repeats)",
        ["setup", "reports", "bare us/rep", "instr us/rep", "overhead", "gate"],
        rows,
        slug="obs_overhead",
    )
    write_json("BENCH_obs", payload)

    for setup, result in payload["setups"].items():
        assert result["overhead_pct"] < GATE_PCT, (
            f"{setup}: observability overhead {result['overhead_pct']}% "
            f"breaches the {GATE_PCT}% gate after {result['attempts']} attempts"
        )
