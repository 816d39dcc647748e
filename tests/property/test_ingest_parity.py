"""Parity properties for the batched ingestion fast paths (hypothesis).

Every vectorized helper on the frame path must be *bit-identical* to the
scalar code it replaced: the screen to ``payload_precheck`` (including the
exact dead-letter reason strings), the column extraction to
``unpack_report``-style field decoding, the shard split to the scalar
Knuth hash, the tenant LPM batch to the scalar longest-prefix probe, the
O(1) LRU sampler eviction to the old min-scan policy, and the ``recvmmsg``
socket drain to the per-datagram ``recv_into`` loop it falls back to.  And
on every server shape, a stream fed one ``submit`` at a time gives the same
books as the same stream fed as frames.
"""

import socket
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.headerspace import HeaderSpace
from repro.cluster import VeriDPCluster
from repro.core.daemon import ShardedVeriDPDaemon, VeriDPDaemon
from repro.core import ingest
from repro.core.ingest import (
    HAVE_NUMPY,
    FrameBuffer,
    drain_socket,
    screen_frame,
    shard_split,
)
from repro.core.replica import _shard_of
from repro.core.reports import (
    REPORT_SIZE,
    REPORT_VERSION,
    Frame,
    pack_report,
    payload_precheck,
)
from repro.core.sampling import FlowSampler
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork, ModifyRuleOutput
from repro.slice.registry import SliceRegistry, TenantSpec
from repro.topologies import build_linear

# -- strategies -----------------------------------------------------------

# Bias the version byte towards valid / near-valid values so frames mix
# clean and rejected rows instead of being all-rejected noise.
version_bytes = st.sampled_from(
    [REPORT_VERSION, REPORT_VERSION, REPORT_VERSION, 0, 2, 99, 255]
)

rows = st.tuples(
    version_bytes, st.binary(min_size=REPORT_SIZE - 1, max_size=REPORT_SIZE - 1)
).map(lambda vb: bytes([vb[0]]) + vb[1])

frames = st.lists(rows, min_size=0, max_size=64).map(b"".join)


# -- screen parity --------------------------------------------------------


class TestScreenParity:
    @given(frame=frames)
    @settings(max_examples=200, deadline=None)
    def test_screen_frame_matches_scalar_precheck(self, frame):
        clean, rejected = screen_frame(frame)
        expect_clean = []
        expect_rejected = []
        for i in range(len(frame) // REPORT_SIZE):
            row = frame[i * REPORT_SIZE : (i + 1) * REPORT_SIZE]
            reason = payload_precheck(row)
            if reason is None:
                expect_clean.append(row)
            else:
                expect_rejected.append((row, reason))
        assert clean == b"".join(expect_clean)
        # Same rows, same order, and the *same reason strings* the scalar
        # path would dead-letter with.
        assert list(rejected) == expect_rejected


# -- column extraction parity ---------------------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="column extraction requires numpy")
class TestColumnParity:
    @given(frame=frames)
    @settings(max_examples=100, deadline=None)
    def test_pair_keys_and_dst_ips_match_byte_slices(self, frame):
        from repro.core.ingest import dst_ips, pair_keys

        keys = pair_keys(frame)
        ips = dst_ips(frame)
        for i in range(len(frame) // REPORT_SIZE):
            row = frame[i * REPORT_SIZE : (i + 1) * REPORT_SIZE]
            assert int(keys[i]) == int.from_bytes(row[2:6], "big")
            assert int(ips[i]) == int.from_bytes(row[18:22], "big")


# -- shard split parity ---------------------------------------------------


class TestShardSplitParity:
    @given(frame=frames, workers=st.integers(min_value=1, max_value=9))
    @settings(max_examples=200, deadline=None)
    def test_split_matches_scalar_hash_and_preserves_rows(self, frame, workers):
        chunks = shard_split(frame, workers)
        assert len(chunks) == workers
        expected = [[] for _ in range(workers)]
        for i in range(len(frame) // REPORT_SIZE):
            row = frame[i * REPORT_SIZE : (i + 1) * REPORT_SIZE]
            expected[_shard_of(int.from_bytes(row[2:6], "big"), workers)].append(
                row
            )
        # Same shard owns every row, order preserved within a shard, and
        # the concatenation loses/duplicates nothing.
        assert chunks == [b"".join(rows) for rows in expected]
        assert sum(len(c) for c in chunks) == len(frame)


# -- tenant LPM parity ----------------------------------------------------

_HS = HeaderSpace()  # shared BDD manager; footprints are hash-consed

prefix_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    ),
    min_size=1,
    max_size=6,
)


def build_registry(specs):
    """Register one tenant per prefix, skipping footprint overlaps (the
    registry rejects them by design — the parity property only needs *a*
    valid LPM table, not any particular one)."""
    registry = SliceRegistry(_HS)
    for i, (value, plen) in enumerate(specs):
        masked = value >> (32 - plen) << (32 - plen) if plen else 0
        try:
            registry.register(
                TenantSpec(name=f"t{i}", prefixes=(f"{_fmt(masked)}/{plen}",))
            )
        except ValueError:
            pass  # overlap with an earlier tenant
    return registry


def _fmt(value):
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class TestTenantLpmParity:
    @given(
        specs=prefix_specs,
        dsts=st.lists(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            min_size=0,
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_classify_matches_scalar_probe(self, specs, dsts):
        registry = build_registry(specs)
        # Probe declared-prefix neighborhoods too, not just random space.
        probes = list(dsts)
        for value, plen in specs:
            masked = value >> (32 - plen) << (32 - plen) if plen else 0
            probes += [masked, masked | 1, (masked - 1) % (1 << 32)]
        batch = registry.classify_dst_batch(probes)
        assert batch == [registry.classify_dst(d) for d in probes]

    def test_batch_cache_invalidated_on_registry_change(self):
        registry = SliceRegistry(HeaderSpace())
        registry.register(TenantSpec(name="a", prefixes=("10.0.0.0/8",)))
        probe = [0x0A000001, 0x0B000001]
        assert registry.classify_dst_batch(probe) == ["a", None]
        registry.register(TenantSpec(name="b", prefixes=("11.0.0.0/8",)))
        assert registry.classify_dst_batch(probe) == ["a", "b"]
        registry.remove("a")
        assert registry.classify_dst_batch(probe) == [None, "b"]


# -- sampler LRU parity ---------------------------------------------------


class MinScanSampler:
    """The pre-optimization FlowSampler eviction: an O(n) scan for the
    smallest last-hit instant.  Kept here as the reference model."""

    def __init__(self, default_interval=1.0, capacity=None):
        self.default_interval = default_interval
        self.capacity = capacity
        self._state = {}

    def should_sample(self, flow_key, now):
        state = self._state.get(flow_key)
        if state is None:
            if self.capacity is not None and len(self._state) >= self.capacity:
                victim = min(self._state, key=lambda k: self._state[k][1])
                del self._state[victim]
            self._state[flow_key] = (now, now)
            return True
        last_sampled, _ = state
        if now - last_sampled > self.default_interval:
            self._state[flow_key] = (now, now)
            return True
        self._state[flow_key] = (last_sampled, now)
        return False


class TestSamplerLruParity:
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=7), min_size=1, max_size=200
        ),
        capacity=st.integers(min_value=1, max_value=5),
        step=st.floats(min_value=0.01, max_value=3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_o1_eviction_matches_min_scan_reference(self, keys, capacity, step):
        """With strictly increasing hit instants (the only regime the
        bounded-table emulation ever specified), the insertion-order
        eviction picks the same victim as the old min-scan — so decisions,
        counters, and the tracked flow set all agree."""
        fast = FlowSampler(default_interval=1.0, capacity=capacity)
        reference = MinScanSampler(default_interval=1.0, capacity=capacity)
        for i, key in enumerate(keys):
            now = (i + 1) * step  # strictly increasing: no last-hit ties
            assert fast.should_sample(key, now) == reference.should_sample(
                key, now
            ), f"decision diverged at step {i} (key {key})"
            assert set(fast._state) == set(reference._state)
            assert fast._state == reference._state
        assert len(fast._state) <= capacity

    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, max_size=100
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_unbounded_sampler_never_evicts(self, keys):
        sampler = FlowSampler(default_interval=0.5)
        for i, key in enumerate(keys):
            sampler.should_sample(key, float(i))
        assert len(sampler._state) == len(set(keys))
        assert sampler.seen_count == len(keys)


# -- socket drain parity ----------------------------------------------------

#: What a switch, a fuzzer or a stray sender can put on the report port:
#: reports (good and bad version), anything shorter (the empty datagram
#: included), anything longer.
datagrams = st.lists(
    st.one_of(
        rows,
        rows,
        st.binary(min_size=0, max_size=REPORT_SIZE - 1),
        st.binary(min_size=REPORT_SIZE + 1, max_size=3 * REPORT_SIZE),
    ),
    min_size=0,
    max_size=24,
)


def loop_model(sent, capacity, committed, limit):
    """What the per-datagram loop does to ``sent``, in plain Python."""
    count, rows_, odd = 0, [], []
    for payload in sent:
        if committed + len(rows_) >= capacity:
            break
        if limit is not None and count >= limit:
            break
        count += 1
        if len(payload) == REPORT_SIZE:
            rows_.append(payload)
        else:
            nbytes = min(len(payload), REPORT_SIZE + 1)
            odd.append((payload[:nbytes], nbytes))
    return count, b"".join(rows_), odd


@pytest.mark.skipif(ingest._recvmmsg is None, reason="no recvmmsg on this platform")
class TestDrainParity:
    def drain_once(self, fb, sent, committed, limit, settle):
        """Send ``sent`` over a fresh loopback pair and drain it into ``fb``
        (``committed`` rows already in it, as the listener's blocking
        receive leaves it).  A fresh pair, so a datagram that lands late
        cannot turn up in a later example."""
        first = bytes([REPORT_VERSION]) * REPORT_SIZE
        for _ in range(committed):
            fb.slot()[:REPORT_SIZE] = first
            fb.commit()
        rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            rx.bind(("127.0.0.1", 0))
            rx.setblocking(False)
            tx.connect(rx.getsockname())
            for payload in sent:
                tx.send(payload)
            time.sleep(settle)  # loopback delivery is fast, not synchronous
            count, odd = drain_socket(rx, fb, limit)
        finally:
            rx.close()
            tx.close()
        frame = fb.take()
        assert frame[: committed * REPORT_SIZE] == first * committed
        return count, frame[committed * REPORT_SIZE :], odd

    @given(
        sent=datagrams,
        capacity=st.integers(1, 12),
        committed=st.integers(0, 1),
        limit=st.one_of(st.none(), st.integers(1, 16)),
    )
    @settings(max_examples=150, deadline=None)
    def test_recvmmsg_drain_matches_the_loop(self, sent, capacity, committed, limit):
        committed = min(committed, capacity - 1)
        batched = FrameBuffer(capacity)
        recvmmsg, ingest._recvmmsg = ingest._recvmmsg, None
        try:
            looped = FrameBuffer(capacity)
        finally:
            ingest._recvmmsg = recvmmsg
        assert batched._msgs is not None and looped._msgs is None
        expected = loop_model(sent, capacity, committed, limit)
        for fb in (batched, looped):
            got = self.drain_once(fb, sent, committed, limit, 0.0005)
            if got[0] < expected[0]:
                # A datagram still in flight at the drain is the harness's
                # lateness; a real shortfall repeats.
                got = self.drain_once(fb, sent, committed, limit, 0.2)
            assert got == expected


# -- submit vs submit_frame parity ------------------------------------------


def payload_pools():
    """Passing, failing, bad-version, wrong-length and undecodable-port
    payloads for a ``linear(3)`` fabric (every fresh server of that fabric
    decodes the first two)."""
    scenario = build_linear(3)
    healthy = DataPlaneNetwork(scenario.topo, scenario.channel)
    passing = []
    for src, dst in scenario.host_pairs():
        result = healthy.inject_from_host(src, scenario.header_between(src, dst))
        passing += [pack_report(r, healthy.codec) for r in result.reports]
    faulty = DataPlaneNetwork(scenario.topo, scenario.channel)
    header = scenario.header_between("H1", "H3")
    rule = faulty.switch("S2").table.lookup(header, 3)
    ModifyRuleOutput("S2", rule.rule_id, 1).apply(faulty)
    failing = []
    for src_port in range(3000, 3004):
        result = faulty.inject_from_host("H1", header.with_(src_port=src_port))
        failing += [pack_report(r, faulty.codec) for r in result.reports]
    bad_version = [bytes([REPORT_VERSION + 1]) + p[1:] for p in passing[:3]]
    wrong_length = [passing[0][:-1], passing[1] + b"!", b"", b"\x01garbage"]
    # A plausible report whose inport names no switch the codec knows.
    undecodable = [p[:2] + b"\xff\x00" + p[4:] for p in passing[:2]]
    return (passing, failing, bad_version, wrong_length, undecodable)


POOLS = payload_pools()
UNDECODABLE = set(POOLS[4])

streams = st.lists(
    st.one_of([st.sampled_from(pool) for pool in POOLS]),
    min_size=1,
    max_size=80,
)


def feed_singles(target, stream):
    for payload in stream:
        target.submit(payload)


def feed_frames(target, stream, cuts):
    """Frames of the stream cut at ``cuts``; a wrong-length payload cannot
    be a frame row, so it ends the frame and goes through ``submit``."""
    bounds = sorted({c % (len(stream) + 1) for c in cuts} | {0, len(stream)})
    for lo, hi in zip(bounds, bounds[1:]):
        rows = []
        for payload in stream[lo:hi]:
            if len(payload) == REPORT_SIZE:
                rows.append(payload)
                continue
            if rows:
                target.submit_frame(Frame(b"".join(rows)))
                rows = []
            target.submit(payload)
        if rows:
            target.submit_frame(Frame(b"".join(rows)))


def daemon_books(server, daemon):
    stats = daemon.stats()
    for transport in ("frames", "wire_pass"):  # how rows arrived, not fates
        stats.pop(transport, None)
    letters = Counter(
        (letter.stage, letter.payload) for letter in daemon.dead_letters._pending
    )
    return stats, Counter(str(i) for i in server.incidents), letters


def run_direct(feed):
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    with VeriDPDaemon(server, workers=2) as daemon:
        feed(daemon)
        daemon.join()
        return daemon_books(server, daemon)


def run_sharded(feed):
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    with ShardedVeriDPDaemon(
        server, workers=2, batch_size=16, supervise=False
    ) as daemon:
        feed(daemon)
        daemon.join()
        return daemon_books(server, daemon)


def run_cluster(feed):
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    with VeriDPCluster(server, nodes=2, batch_size=16) as cluster:
        feed(cluster)
        cluster.join()
        stats = cluster.stats()
        coordinator = cluster.coordinator
        frontend = stats.pop("frontend")
        ledger = {
            key: stats[key]
            for key in ("processed", "malformed", "crashed", "counters",
                        "unknown_reingested", "incidents", "tenants")
        }
        ledger.update(
            (key, frontend[key])
            for key in ("submitted", "precheck_rejected", "dropped_no_node",
                        "dispatched_reports")
        )
        letters = Counter(
            (letter.stage, letter.payload)
            for letter in coordinator.dead_letters._pending
        )
        return ledger, Counter(coordinator.incidents), letters


class TestSubmitFrameParity:
    """``submit(payload)`` is a one-row frame: feeding a stream one payload
    at a time and as frames split anywhere gives the same ledger, the same
    incident multiset and the same dead-letter ``(stage, payload)``
    multiset, on each server shape."""

    @pytest.mark.parametrize("run", [run_direct, run_sharded, run_cluster])
    @given(stream=streams, cuts=st.lists(st.integers(0, 80), max_size=6))
    @settings(max_examples=8, deadline=None)
    def test_singles_and_frames_keep_the_same_books(self, run, stream, cuts):
        singles = run(lambda t: feed_singles(t, stream))
        framed = run(lambda t: feed_frames(t, stream, cuts))
        assert singles == framed
        ledger, _incidents, letters = singles
        rejects = [p for p in stream if payload_precheck(p) is not None]
        undecodable = [p for p in stream if p in UNDECODABLE]
        if run is run_cluster:
            # The frontend's precheck turns every reject away at the door;
            # an undecodable-port row is a decode dead letter of the one
            # settle, as on the daemons.
            assert ledger["precheck_rejected"] == len(rejects)
            assert letters == Counter(("decode", p) for p in undecodable)
            return
        # Bad-version, wrong-length and undecodable-port payloads alike are
        # decode-stage dead letters, each counted once in submitted and in
        # malformed.
        rejects += undecodable
        assert letters == Counter(("decode", p) for p in rejects)
        assert ledger["malformed"] == len(rejects)
        assert ledger["submitted"] == len(stream)
        assert ledger["submitted"] == (
            ledger["processed"]
            + ledger["malformed"]
            + ledger["verify_errors"]
            + ledger["dropped"]
        )


def shape_books(daemon_cls, stream, **options):
    """The ledger, verdict counters, incidents and dead letters of one
    daemon shape fed ``stream`` as frames."""
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    with daemon_cls(server, workers=2, **options) as daemon:
        feed_frames(daemon, stream, [])
        daemon.join()
        stats, incidents, letters = daemon_books(server, daemon)
        counters = dict(daemon.counters)
    keys = ("processed", "malformed", "verify_errors", "verified", "failed")
    ledger = {key: stats[key] for key in keys}
    return ledger, counters, incidents, letters


class TestShapeParity:
    """The direct and the sharded daemon keep one set of books for one
    stream: a row the server's codec cannot decode is ``malformed`` and a
    decode dead letter on both, never a ``fail-unknown-pair`` verdict."""

    @given(stream=streams)
    @settings(max_examples=8, deadline=None)
    def test_direct_and_sharded_keep_the_same_books(self, stream):
        stream = stream + list(POOLS[4])
        direct = shape_books(VeriDPDaemon, stream)
        sharded = shape_books(
            ShardedVeriDPDaemon, stream, batch_size=16, supervise=False
        )
        assert direct == sharded
        ledger, _counters, _incidents, letters = direct
        rejects = [
            p for p in stream if payload_precheck(p) is not None or p in UNDECODABLE
        ]
        assert letters == Counter(("decode", p) for p in rejects)
        assert ledger["malformed"] == len(rejects)
