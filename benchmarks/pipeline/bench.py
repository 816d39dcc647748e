"""Pipeline benchmark: loopback end-to-end runs plus a per-layer trace.

Contract mode (what the driver runs, one workload per process)::

    python3 benchmarks/pipeline/bench.py --workload W --seed N \
        --seconds S --trace 0|1

prints, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--workload`` the whole
set runs (untraced runs first, traced runs after), every metric is printed
by name and unit, a summary lands in ``results/BENCH_pipeline.json`` and one
envelope line is appended to ``results/BENCH_history.jsonl``.  ``--repeat K
--compare`` is the acceptance harness: K full sets, per metric x workload
medians, quartiles and spread against the bound, non-zero exit when two
sets disagree beyond it.

The system under test is always a child process (``sut_host.py``); this
process only generates inputs, sends datagrams and rule calls, and reads
the counters the host publishes.  See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
import workloads  # noqa: E402

RESULTS = os.path.join(HERE, "results")
HOST = os.path.join(HERE, "sut_host.py")

#: Seeds recorded for reviewers: develop against the first, confirm a claim
#: on the second (choosing-metrics §6.3).
DEVELOPMENT_SEED = 20160512
HELD_OUT_SEED = 19040897

WARMUP_S = 1.5
QUICK_S = 2
#: Host set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: ``setup_s`` is reported at a reference speed: each set-up's wall time is
#: scaled by this over what :func:`calibrate` reads right before and after
#: it.  The development box's speed wanders by a third over tens of minutes;
#: the reference loop wanders with it (README "Set-up time").  A box on which
#: the loop takes exactly this long reports plain wall seconds.
CALIBRATION_REFERENCE_S = 0.0095
DETECT_DEADLINE_MS = 10.0
CLOSED_WINDOW_MAX = 1024
#: Share of a socket's measured capacity the generator lets fill.  Linux
#: returns UDP receive memory to the socket in batches of a quarter of the
#: buffer, so a socket that is being read drops from 75% full.
SOCKET_FILL = 0.6
#: Closed-loop rows an open-loop run sends before its schedule starts, so
#: the daemon's first-frame kernel compile is over (a multiple of the burst).
PREWARM_ROWS = 20_000 - 20_000 % loadgen.BURST

#: Gates the benchmark applies itself in ``--compare``: to the metrics that
#: exist on some workloads only or are 0 when healthy (the driver's flat,
#: never-zero metric list cannot carry them), and to ``reports_per_s`` and
#: ``cpu_s_per_mreport``, which do not repeat within the driver's largest
#: bound on a box whose speed wanders (README "What the driver gates").
#: ``rel`` bounds are a share of the first set's median, ``abs`` bounds a
#: plain difference.
OWN_GATES = {
    "reports_per_s": ("rel", 0.25, "higher"),
    "cpu_s_per_mreport": ("rel", 0.25, "lower"),
    "failed_fraction": ("abs", 0.001, "lower"),
    "blame_correct_fraction": ("abs", 0.0, "higher"),
    "detect_latency_p50_ms": ("rel", 0.15, "lower"),
    "detect_within_10ms_fraction": ("abs", 0.02, "higher"),
    "update_latency_p50_ms": ("rel", 0.15, "lower"),
    "false_alarms_per_update": ("rel", 0.15, "lower"),
}


class LedgerError(RuntimeError):
    """The run's counts do not reconcile; no numbers may be printed."""


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- small statistics --------------------------------------------------------


def percentile(samples: List[float], pct: float) -> float:
    ranked = sorted(samples)
    return ranked[min(len(ranked) - 1, int(len(ranked) * pct / 100.0))]


def timing_summary(samples: List[float]) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if not n:
        return {"n": 0}
    out = {"n": n, "p50": statistics.median(samples)}
    for pct in (99.9, 99, 95, 90, 75):
        if n - int(n * pct / 100.0) >= 10:
            out["tail_pct"] = pct
            out["tail"] = percentile(samples, pct)
            break
    return out


def calibrate(units: int = 5) -> float:
    """Median wall seconds of one fixed unit of interpreter, dict and numpy
    gather work: the mix a host's set-up is made of."""
    a = np.arange(1 << 16, dtype=np.uint64)
    scattered = (a * 40503) & 0xFFFF
    times = []
    for _ in range(units):
        started = time.perf_counter()
        total, seen = 0, {}
        for i in range(20000):
            total += i * i % 7
            seen[i & 1023] = (total, i)
        for _ in range(10):
            (a[scattered] * a % 7).sum()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


# -- process accounting (/proc) ----------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def tree_cpu_s(pids: List[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                fields = fh.read().rsplit(b") ", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / _CLK_TCK


def tree_peak_rss_mb(pids: List[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# -- the host child ------------------------------------------------------------


class Host:
    """One spawned ``sut_host.py`` and the channels to it."""

    def __init__(self, cfg: dict, run_dir: str, tag: str) -> None:
        cfg = dict(cfg)
        self.dir = os.path.join(run_dir, tag)
        os.makedirs(self.dir)
        if cfg.pop("durable", False):
            cfg["state_dir"] = os.path.join(self.dir, "state")
        self.progress = loadgen.Progress(os.path.join(self.dir, "progress"))
        cfg["shm_path"] = self.progress.path
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, HOST, json.dumps(cfg)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            start_new_session=True,  # kill() takes the workers and nodes too
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if not line:
            self.kill()
            raise RuntimeError(f"SUT host died during set-up (exit {self.proc.returncode})")
        self.ready = json.loads(line)
        self.pids = [self.ready["pid"]] + self.ready["children"]

    def finish(self, timeout: float = 90.0) -> dict:
        self.proc.stdin.write(b'{"op":"finish"}\n')
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        self.proc.stdin.close()
        self.proc.wait(timeout=timeout)
        self.progress.close()
        if not line:
            raise RuntimeError(f"SUT host exited {self.proc.returncode} without a ledger")
        return json.loads(line)["final"]

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def socket_holds(shape: str) -> int:
    """Datagrams the shape's report socket holds on this kernel, measured.

    The threaded listener asks for a 2 MiB receive buffer; the cluster's
    ingest engines keep the kernel default.
    """
    return loadgen.socket_capacity(None if shape == "cluster" else 1 << 21)


def closed_window(shape: str) -> int:
    """Outstanding-datagram cap of a closed loop: ``SOCKET_FILL`` of what the
    socket holds, at most ``CLOSED_WINDOW_MAX``, a multiple of the burst."""
    window = min(CLOSED_WINDOW_MAX, int(socket_holds(shape) * SOCKET_FILL))
    return max(2 * loadgen.BURST, window - window % loadgen.BURST)


# -- one untraced loopback run --------------------------------------------------


def loopback_run(
    name: str, seed: int, seconds: float, run_dir: str,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Spawn the host, drive ``name`` over loopback, reconcile the ledger.

    Returns every end-to-end number this workload defines plus generator
    diagnostics; raises :class:`LedgerError` when the counts do not add up.
    """
    total_ticks = int((WARMUP_S + seconds) * 1000)
    inputs = workloads.build(name, seed, ticks=total_ticks)
    send_ceiling = loadgen.max_send_rate(inputs.pool)

    setups: List[float] = []
    raw_setups: List[float] = []
    host: Optional[Host] = None
    try:
        for attempt in range(setup_repeats):
            before = calibrate()
            host = Host(inputs.host_cfg, run_dir, f"host{attempt}")
            speed = (before + calibrate()) / 2 / CALIBRATION_REFERENCE_S
            raw_setups.append(host.setup_s)
            setups.append(host.setup_s / speed)
            if attempt < setup_repeats - 1:
                host.finish()
                host = None
        assert host is not None
        sender = loadgen.Sender(host.ready["address"], inputs.pool)
        pids = host.pids
        sample = functools.partial(tree_cpu_s, pids)
        if not inputs.per_tick:  # closed loop
            obs = loadgen.closed_loop(
                sender, host.progress, WARMUP_S, seconds,
                window=closed_window(inputs.host_cfg["shape"]), sample=sample,
            )
        else:
            obs = loadgen.open_loop(
                sender, host.progress,
                per_tick=inputs.per_tick, ticks=total_ticks,
                extras=inputs.extras, controls=inputs.controls,
                control_pipe=host.proc.stdin,
                window_ticks=(int(WARMUP_S * 1000), total_ticks - 1),
                sample=sample,
                prewarm=(PREWARM_ROWS, CLOSED_WINDOW_MAX),
                backlog_cap=int(socket_holds(inputs.host_cfg["shape"]) * SOCKET_FILL),
            )
        sent = obs["sent"]
        # Everything sent must leave the socket buffer before the listener
        # is stopped, or the tail would be counted as lost.
        deadline = time.perf_counter() + 5.0
        view = host.progress.view
        while view[loadgen.RECEIVED] < sent and time.perf_counter() < deadline:
            time.sleep(0.002)
        sender.close()
        peak_rss_mb = tree_peak_rss_mb(pids)
        final = host.finish()
        host = None
    finally:
        if host is not None:
            host.kill()

    result = reconcile(name, inputs, obs, final)
    # Both rates are medians over the window's 1 s slices: the development
    # box slows down for seconds at a time, and a whole-window mean would
    # carry every such phase into the result.
    slices = list(zip(obs["marks"], obs["marks"][1:]))
    rates = [(b[2] - a[2]) / (b[0] - a[0]) for a, b in slices]
    cpu_per_report = [(b[3] - a[3]) / (b[2] - a[2]) for a, b in slices]
    result.update(
        {
            "setup_s": statistics.median(setups),
            "setup_wall_s": statistics.median(raw_setups),
            "reports_per_s": statistics.median(rates),
            "cpu_s_per_mreport": statistics.median(cpu_per_report) * 1e6,
            "peak_rss_mb": peak_rss_mb,
            "loadgen.max_send_rate": send_ceiling,
            "core.ingest.drain_depth.mean": final.get("drain_depth_mean", 0.0),
        }
    )
    if inputs.per_tick:
        result.update(open_loop_metrics(inputs, obs, result["false_alarms"]))
    else:
        result["loadgen.lag_p95_ms"] = 0.0
    bound = []
    if send_ceiling < 2.0 * result["reports_per_s"]:
        bound.append(
            f"max_send_rate {send_ceiling:.0f}/s < 2x reports_per_s "
            f"{result['reports_per_s']:.0f}/s"
        )
    if result["loadgen.lag_p95_ms"] > 1.0:
        bound.append(f"lag_p95 {result['loadgen.lag_p95_ms']:.3f} ms > 1 ms")
    result["generator_bound"] = "; ".join(bound)
    return result


def reconcile(name: str, inputs, obs: dict, final: dict) -> dict:
    """The oracle ledger: ``sent = pass + fail + malformed + lost`` and
    expected-fail = observed-fail, or :class:`LedgerError`."""
    sent = obs["sent"]
    lost = sent - final["received"]
    malformed = (
        final["malformed"] + final["transport_rejected"]
        + final["submit_errors"] + final["dropped"]
    )
    unaccounted = final["received"] - (final["passed"] + final["failed"] + malformed)
    ledger = {bytes.fromhex(k): v for k, v in final["incident_ledger"].items()}
    # Probes may fail while the table lags a rule event (allowed stale);
    # any other failing verdict on a report the oracle calls healthy is not.
    false_alarms = sum(row[0] for key, row in ledger.items() if key in inputs.probes)
    stray = sum(
        row[0] for key, row in ledger.items()
        if key not in inputs.culprits and key not in inputs.probes
    )
    observed_fail = final["failed"] - false_alarms
    if not inputs.per_tick:
        expected_fail = inputs.expected_failures(sent)
    else:
        expected_fail = sum(1 for row in obs["extras"] if row[1] == "canary")
    mismatch = abs(expected_fail - observed_fail) + stray
    problems = []
    if lost < 0 or unaccounted != 0:
        problems.append(
            f"received {final['received']} of {sent} sent, "
            f"{unaccounted} of them unaccounted"
        )
    if mismatch > max(lost, 0):
        problems.append(
            f"expected {expected_fail} failing verdicts, observed {observed_fail} "
            f"({stray} on reports the oracle calls healthy)"
        )
    if problems:
        counts = {k: v for k, v in final.items() if k != "incident_ledger"}
        raise LedgerError(
            f"{name}: ledger does not reconcile: {'; '.join(problems)} "
            f"[sent={sent} host={json.dumps(counts)}]"
        )
    failed = lost + malformed + mismatch
    blamed = [
        (row[0], inputs.culprits[key] in row[1])
        for key, row in ledger.items() if key in inputs.culprits
    ]
    total_blamed = sum(count for count, _ in blamed)
    result = {
        "attempted": sent,
        "failed": failed,
        "held_ticks": obs.get("held_ticks", 0),
        "failed_fraction": failed / sent,
        "lost": lost,
        "expected_failing": expected_fail,
        "observed_failing": observed_fail,
        "false_alarms": false_alarms,
    }
    if total_blamed:
        result["blame_correct_fraction"] = (
            sum(count for count, ok in blamed if ok) / total_blamed
        )
    return result


def open_loop_metrics(inputs, obs: dict, false_alarms: int) -> dict:
    """Latency metrics of the paced workloads, from the sampled timeline."""
    timeline = obs["timeline"]
    times = [row[0] for row in timeline]
    processed = [row[1] for row in timeline]
    incidents = [row[2] for row in timeline]
    warm_tick = int(WARMUP_S * 1000)
    out = {"loadgen.lag_p95_ms": percentile(obs["lag"][warm_tick:], 95) * 1e3}

    # A canary is detected at the first sample whose incident counter has
    # passed what was already there (or already owed) when it was sent.
    detect_ms: List[float] = []
    missed = 0
    canaries_before = 0
    for tick, kind, due, _seq, seen in obs["extras"]:
        if kind != "canary":
            continue
        base = seen if inputs.probes else max(seen, canaries_before)
        canaries_before += 1
        if tick < warm_tick:
            continue
        j = bisect.bisect_left(times, due)
        while j < len(times) and incidents[j] <= base:
            j += 1
        if j < len(times):
            detect_ms.append((times[j] - due) * 1e3)
        else:
            missed += 1
    summary = timing_summary(detect_ms)
    total = len(detect_ms) + missed
    out.update(
        {
            "detect_latency_p50_ms": summary.get("p50", 0.0),
            "detect_latency_tail_ms": summary.get("tail", 0.0),
            "detect_latency_tail_pct": summary.get("tail_pct", 0.0),
            "detect_samples": total,
            # An undetected canary misses any deadline.
            "detect_within_10ms_fraction": (
                sum(1 for ms in detect_ms if ms <= DETECT_DEADLINE_MS) / total
                if total else 0.0
            ),
        }
    )
    if not inputs.probes:
        return out

    # Rule churn.  One probe of the churned flow rides every tick in its
    # new state; the ones verified against the lagging table fail, and the
    # first probe after them is the first PASS of the new rule.  Verdicts
    # are FIFO behind one socket and one worker, so that probe's verdict
    # is in once ``processed`` covers its sequence number.
    probe_log = [row for row in obs["extras"] if row[1] == "probe"]
    probe_ticks = [row[0] for row in probe_log]
    events = obs["controls"]
    settle_s = (workloads.CHURN_CANARY_OFFSET - 2) * loadgen.TICK_S
    update_ms: List[float] = []
    for tick, t_event in events:
        if tick < warm_tick:
            continue
        a = bisect.bisect_left(times, t_event)
        b = bisect.bisect_left(times, t_event + settle_s)
        if b >= len(times):
            continue  # the run ended inside this event's settle window
        alarms = max(0, incidents[b - 1] - (incidents[a - 1] if a else 0))
        first_pass = bisect.bisect_left(probe_ticks, tick) + alarms
        if first_pass >= len(probe_log):
            continue
        j = bisect.bisect_left(processed, probe_log[first_pass][3], lo=a)
        if j < len(times):
            update_ms.append((times[j] - t_event) * 1e3)
    summary = timing_summary(update_ms)
    out.update(
        {
            "update_latency_p50_ms": summary.get("p50", 0.0),
            "update_latency_tail_ms": summary.get("tail", 0.0),
            "update_latency_tail_pct": summary.get("tail_pct", 0.0),
            "update_samples": len(update_ms),
            "rule_events": len(events),
            "false_alarms_per_update": false_alarms / len(events) if events else 0.0,
        }
    )
    return out


# -- output ---------------------------------------------------------------------


def contract_line(spec: dict, traced: bool, result: dict) -> str:
    """The driver's last-line JSON for one run."""
    kind = "per_layer" if traced else "end_to_end"
    metrics = {
        m["name"]: {"value": float(result.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec[kind]
    }
    return json.dumps(
        {
            "correct": True,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def print_metrics(spec: dict, name: str, result: dict, traced: bool) -> None:
    kind = "per_layer" if traced else "end_to_end"
    print(f"== {name} ({'traced' if traced else 'untraced'}) ==")
    for m in spec[kind]:
        if m["name"] in result:
            print(f"  {m['name']:<52} {result[m['name']]:>16.6g} {m['unit']}")
    if not traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for key in OWN_GATES:
            if key in result:
                print(f"  {key:<52} {result[key]:>16.6g} {units[key]}")
        for key in ("detect_latency", "update_latency"):
            if result.get(f"{key}_tail_pct"):
                print(
                    f"  {key}_p{result[f'{key}_tail_pct']:g}_ms (diagnostic)"
                    f"{'':<20} {result[f'{key}_tail_ms']:>12.6g} ms"
                    f"  n={result[key.split('_')[0] + '_samples']}"
                )
        print(f"  setup_wall_s (diagnostic, not speed-corrected){'':<7} {result['setup_wall_s']:>16.6g} s")
        print(
            f"  ledger: sent {result['attempted']} lost {result['lost']} "
            f"failing expected {result['expected_failing']} "
            f"observed {result['observed_failing']}"
            + (f" held ticks {result['held_ticks']}" if result["held_ticks"] else "")
        )
        if result["generator_bound"]:
            print(f"  GENERATOR BOUND: {result['generator_bound']}")
    else:
        for key, value in sorted(result.get("trace_checks", {}).items()):
            print(f"  check {key:<46} {value:>16.6g}")


def envelope(seed: int, seconds: float) -> dict:
    try:
        # The ceiling keeps git from answering for a repository that merely
        # contains an exported checkout.
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    def sysctl(name: str) -> Optional[int]:
        try:
            with open(f"/proc/sys/net/core/{name}", encoding="ascii") as fh:
                return int(fh.read())
        except (OSError, ValueError):
            return None

    spec = manifest()
    return {
        "commit": commit,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rmem_max": sysctl("rmem_max"),
        "rmem_default": sysctl("rmem_default"),
        "seed": seed,
        "warmup_s": WARMUP_S,
        "window_s": seconds,
        "setup_repeats": SETUP_REPEATS,
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "own_bounds": {k: list(v) for k, v in OWN_GATES.items()},
    }


def append_history(entry: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "BENCH_history.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


# -- entry points -----------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One workload, one mode, in a private run directory."""
    run_dir = os.path.join(RESULTS, f"run-{os.getpid()}-{name}-{int(traced)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if not traced:
            return loopback_run(name, seed, seconds, run_dir)
        import layers

        # The traced invocation still needs the loopback numbers that only
        # some workloads define (detection, update, blame); its window is
        # half the untraced one so the layer replay fits the same budget.
        result = loopback_run(
            name, seed, max(1.0, seconds / 2), run_dir, setup_repeats=1
        )
        result.update(
            layers.traced_run(
                name, seed, run_dir, RESULTS,
                depth_hint=result["core.ingest.drain_depth.mean"],
            )
        )
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_set(seed: int, seconds: float, names: List[str]) -> dict:
    spec = manifest()
    out = {"untraced": {}, "traced": {}}
    for name in names:
        out["untraced"][name] = run_one(name, seed, seconds, traced=False)
        print_metrics(spec, name, out["untraced"][name], traced=False)
    for name in names:
        out["traced"][name] = run_one(name, seed, seconds, traced=True)
        print_metrics(spec, name, out["traced"][name], traced=True)
    return out


def gated_values(spec: dict, result: dict) -> Dict[str, float]:
    names = [m["name"] for m in spec["end_to_end"]] + sorted(OWN_GATES)
    return {n: result[n] for n in names if n in result}


def compare(sets: List[dict], spec: dict) -> int:
    """Per metric x workload: medians, quartiles, spread vs bound; returns
    the number of pairings on which two sets disagree beyond the bound."""
    bounds = {
        m["name"]: ("rel", m["bound"], m["better"]) for m in spec["end_to_end"]
    }
    bounds.update(OWN_GATES)
    bad = 0
    print(f"{'workload':<24}{'metric':<30}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}  verdict")
    for name in sets[0]["untraced"]:
        for metric, (kind, bound, better) in bounds.items():
            values = [
                s["untraced"][name][metric]
                for s in sets if metric in s["untraced"][name]
            ]
            if not values:
                continue
            med = statistics.median(values)
            q1, _, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1
                else (values[0],) * 3
            )
            sign = 1.0 if better == "lower" else -1.0
            worst = max(
                sign * (b - a) for a in values for b in values
            )
            if kind == "rel":
                spread = (q3 - q1) / med if med else 0.0
                limit = bound * abs(values[0])
            else:
                spread = q3 - q1
                limit = bound
            verdict = "ok"
            if len(values) > 1 and worst > limit + 1e-12:
                verdict = "DISAGREE"
                bad += 1
            print(
                f"{name:<24}{metric:<30}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                f"{spread:>9.4f}{bound:>8.3f}  {verdict}"
            )
    return bad


def main(argv: Optional[List[str]] = None) -> int:
    spec = manifest()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEVELOPMENT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help=f"{QUICK_S} s windows")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--compare", action="store_true")
    args = parser.parse_args(argv)
    seconds = float(QUICK_S) if args.quick else args.seconds

    try:
        if args.workload is not None:
            traced = bool(args.trace)
            result = run_one(args.workload, args.seed, seconds, traced)
            print_metrics(spec, args.workload, result, traced)
            entry = envelope(args.seed, seconds)
            entry.update(
                workload=args.workload, traced=traced,
                metrics=gated_values(spec, result) if not traced else None,
                generator_bound=result["generator_bound"],
            )
            append_history(entry)
            if result["generator_bound"]:
                print(f"FAILED: generator_bound: {result['generator_bound']}", file=sys.stderr)
                return 3
            print(contract_line(spec, traced, result))
            return 0

        sets = []
        for k in range(max(1, args.repeat)):
            print(f"#### set {k + 1}/{max(1, args.repeat)} (seed {args.seed}, {seconds:g} s windows)")
            sets.append(run_set(args.seed, seconds, names))
    except LedgerError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 2

    summary = envelope(args.seed, seconds)
    summary["workloads"] = {
        name: {
            "untraced": gated_values(spec, sets[-1]["untraced"][name]),
            "per_layer": {
                m["name"]: sets[-1]["traced"][name].get(m["name"], 0.0)
                for m in spec["per_layer"]
            },
            "generator_bound": sets[-1]["untraced"][name]["generator_bound"],
        }
        for name in names
    }
    summary["claim"] = None
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "BENCH_pipeline.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    append_history(summary)
    status = 0
    bound = [n for n in names if sets[-1]["untraced"][n]["generator_bound"]]
    if bound:
        print(f"FAILED: generator_bound on {', '.join(bound)}", file=sys.stderr)
        status = 3
    if args.compare:
        bad = compare(sets, spec)
        if bad:
            print(f"FAILED: {bad} metric x workload pairings disagree beyond their bound", file=sys.stderr)
            status = 1
    print(json.dumps({"sets": len(sets), "seed": args.seed, "window_s": seconds, "claim": None}))
    return status


if __name__ == "__main__":
    sys.exit(main())
