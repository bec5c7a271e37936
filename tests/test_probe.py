import collections
import dataclasses
import math
import random
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest
from conftest import needs_raw_icmp

from deltaprobe import probe as probe_module
from deltaprobe.errors import (AllProbesLost, InvalidProbePlan, NoReply, ProbePermissionError,
                               ResolveFailure)
from deltaprobe.probe import (
    ICMP_HEADER_BYTES as ICMP_HEADER,
    MIN_PAYLOAD_BYTES as MIN_PAYLOAD,
    InvalidSample,
    ProbePlan,
    ProbeSample,
    SampleBatch,
    _build_echo_request,
    _icmp_checksum,
    _run_echo_loop,
    discover_hops,
    run_session,
    wire_size,
)
from deltaprobe.reflector import serve

COLUMNS = ("seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s")


def _have_icmp_socket() -> bool:
    for kind in (socket.SOCK_RAW, socket.SOCK_DGRAM):
        try:
            s = socket.socket(socket.AF_INET, kind, socket.IPPROTO_ICMP)
            s.close()
            return True
        except (PermissionError, OSError):
            continue
    return False


needs_icmp = pytest.mark.skipif(
    not _have_icmp_socket(), reason="no ICMP socket privilege in this environment"
)


@pytest.fixture
def reflector_port():
    """Loopback UDP reflector on an ephemeral port, serving until drained."""
    ready = threading.Event()
    state = {}

    def on_ready(port):
        state["port"] = port
        ready.set()

    thread = threading.Thread(
        target=serve,
        kwargs={"host": "127.0.0.1", "port": 0, "max_datagrams": 4096,
                "on_ready": on_ready},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=5.0)
    yield state["port"]


# ---------------------------------------------------------------------------
# wire sizes
# ---------------------------------------------------------------------------

def test_wire_size_icmp():
    assert wire_size(100, "icmp_echo") == 1024
    assert wire_size(1124, "icmp_echo") == 9216


def test_wire_size_udp_headers_only():
    assert wire_size(0, "udp_echo") == 224


def test_wire_size_rejects_negative_and_unknown():
    with pytest.raises(ValueError):
        wire_size(-1, "icmp_echo")
    with pytest.raises(ValueError):
        wire_size(100, "carrier_pigeon")


# ---------------------------------------------------------------------------
# domain invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("row, fields, message", [
    (1, {"rtt_s": 0.01, "lost": True}, "lost must be true exactly when rtt_s is null"),
    (1, {"rtt_s": None, "lost": False}, "lost must be true exactly when rtt_s is null"),
    (1, {"rtt_s": math.nan, "lost": False}, "lost must be true exactly when rtt_s is null"),
    (1, {"rtt_s": None, "lost": 1}, "lost must be true exactly when rtt_s is null"),
    (1, {"payload_bytes": 200, "wire_bits": 1024}, "wire_bits smaller than 8 * payload_bytes"),
    (1, {"rtt_s": math.inf, "lost": False}, "rtt_s must be positive and finite"),
    (2, {"path_id": "q"}, "path_id 'q' differs from the first sample's 'p'"),
], ids=["lost with an rtt", "no rtt but not lost", "nan rtt but not lost", "lost is 1",
        "wire below payload", "infinite rtt", "second path_id"])
def test_rows_are_checked_where_they_enter_a_batch(row, fields, message):
    # a row is a plain record; the batch it enters checks it and names it
    rows = _rows()
    rows[row] = dataclasses.replace(rows[row], **fields)
    with pytest.raises(InvalidSample, match=re.escape(message)) as excinfo:
        SampleBatch.from_samples(rows)
    assert excinfo.value.index == row


def test_plan_rejects_duplicate_sizes():
    with pytest.raises(ValueError):
        ProbePlan(target="127.0.0.1", sizes_payload_bytes=(100, 100))


def test_plan_rejects_timeout_below_gap():
    with pytest.raises(ValueError):
        ProbePlan(target="127.0.0.1", inter_probe_gap_s=0.5, timeout_s=0.2)


@pytest.mark.parametrize("gap, timeout, message", [
    (0.05, math.inf, "timeout_s must be at most 86400 s, got inf"),
    (0.05, 2e10, "timeout_s must be at most 86400 s, got 20000000000.0"),
    (1e10, 2e10, "timeout_s must be at most 86400 s, got 20000000000.0"),
    (math.inf, math.inf, "timeout_s must exceed inter_probe_gap_s"),
    (math.nan, 2.0, "inter_probe_gap_s must be positive"),
    (0.05, math.nan, "timeout_s must exceed inter_probe_gap_s"),
])
def test_plan_rejects_a_wait_the_engine_cannot_make(gap, timeout, message):
    # select raises OverflowError on such a wait, mid-session
    with pytest.raises(InvalidProbePlan, match=f"^{re.escape(message)}$"):
        ProbePlan(target="127.0.0.1", inter_probe_gap_s=gap, timeout_s=timeout)


def test_plan_takes_the_longest_wait():
    plan = ProbePlan(target="127.0.0.1", inter_probe_gap_s=3600.0, timeout_s=probe_module.MAX_WAIT_S)
    assert plan.timeout_s == 86400.0


@pytest.mark.parametrize("port", [0, 70000, -1])
def test_plan_rejects_udp_port_out_of_range(port):
    with pytest.raises(InvalidProbePlan, match=f"^udp_port must be in 1..65535, got {port}$"):
        ProbePlan(target="127.0.0.1", udp_port=port)


def test_plan_takes_the_udp_port_bounds():
    assert [ProbePlan(target="127.0.0.1", udp_port=p).udp_port for p in (1, 65535)] == [1, 65535]


def test_plan_defaults_follow_recommended_sizes():
    plan = ProbePlan(target="127.0.0.1")
    assert plan.sizes_payload_bytes == (100, 1124)
    assert plan.count_per_size == 30


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

def test_session_rejects_unresolvable_target():
    plan = ProbePlan(target="no-such-host.invalid")
    with pytest.raises(ResolveFailure):
        run_session(plan)


def test_udp_session_loopback(reflector_port):
    plan = ProbePlan(
        target="127.0.0.1",
        sizes_payload_bytes=(100, 1124),
        count_per_size=5,
        inter_probe_gap_s=0.005,
        timeout_s=1.0,
        method="udp_echo",
        udp_port=reflector_port,
    )
    samples = run_session(plan)
    assert len(samples) == 10
    assert sum(s.lost for s in samples) == 0
    assert [s.seq for s in samples] == list(range(10))
    # round-robin sizes, wire model applied
    assert [s.payload_bytes for s in samples[:4]] == [100, 1124, 100, 1124]
    assert samples[0].wire_bits == wire_size(100, "udp_echo")
    for s in samples:
        assert s.rtt_s < 0.005  # loopback echo
    sent = [s.sent_at_us for s in samples]
    assert sent == sorted(sent)


def test_udp_session_all_lost_without_reflector():
    # ephemeral port with no listener: datagrams are refused, never echoed
    plan = ProbePlan(
        target="127.0.0.1",
        sizes_payload_bytes=(100, 1124),
        count_per_size=2,
        inter_probe_gap_s=0.01,
        timeout_s=0.2,
        method="udp_echo",
        udp_port=1,  # tcpmux; nothing listens on UDP/1 here
    )
    with pytest.raises(AllProbesLost):
        run_session(plan)


def test_session_rejects_tiny_payload():
    with pytest.raises(ValueError):
        run_session(ProbePlan(target="127.0.0.1", sizes_payload_bytes=(8, 100)))


@pytest.mark.parametrize("method", ["icmp_echo", "udp_echo"])
def test_session_refuses_a_payload_beyond_one_ipv4_packet(monkeypatch, method):
    class Resolved(Exception):
        pass

    def resolve(_target):
        raise Resolved  # the plan passed every check; no socket is opened

    monkeypatch.setattr(probe_module, "_resolve", resolve)
    largest = 65535 - 20 - 8  # IPv4 and ICMP or UDP headers
    with pytest.raises(Resolved):
        run_session(ProbePlan(target="127.0.0.1", sizes_payload_bytes=(100, largest), method=method))
    with pytest.raises(InvalidProbePlan, match=f"at most {largest} bytes for {method}"):
        run_session(ProbePlan(target="127.0.0.1", sizes_payload_bytes=(100, largest + 1),
                              method=method))


@needs_icmp
def test_icmp_session_loopback():
    plan = ProbePlan(
        target="127.0.0.1",
        sizes_payload_bytes=(100, 1124),
        count_per_size=5,
        inter_probe_gap_s=0.005,
        timeout_s=1.0,
        method="icmp_echo",
    )
    samples = run_session(plan)
    assert len(samples) == 10
    assert sum(s.lost for s in samples) == 0
    assert all(s.rtt_s < 0.005 for s in samples)
    assert samples[1].wire_bits == wire_size(1124, "icmp_echo")


@needs_icmp
def test_icmp_session_unroutable_documentation_address():
    plan = ProbePlan(
        target="203.0.113.7",  # TEST-NET-3 documentation range, never answers
        sizes_payload_bytes=(100, 1124),
        count_per_size=2,
        inter_probe_gap_s=0.01,
        timeout_s=0.2,
        method="icmp_echo",
    )
    with pytest.raises(AllProbesLost):
        run_session(plan)


# ---------------------------------------------------------------------------
# hop discovery
# ---------------------------------------------------------------------------

def test_discover_hops_stub_answers_at_seven():
    def prober(ttl):
        return "target" if ttl >= 7 else "hop"

    assert discover_hops("anything", max_ttl=30, prober=prober) == 7


def test_discover_hops_silent_intermediates_do_not_count():
    def prober(ttl):
        if ttl >= 5:
            return "target"
        return None if ttl % 2 else "hop"

    assert discover_hops("anything", max_ttl=30, prober=prober) == 5


def test_discover_hops_bounded_search():
    def prober(ttl):
        return "target" if ttl >= 7 else "hop"

    with pytest.raises(NoReply):
        discover_hops("anything", max_ttl=3, prober=prober)


@needs_raw_icmp
def test_discover_hops_loopback_is_one():
    assert discover_hops("127.0.0.1", max_ttl=5, timeout_s=1.0) == 1


# ---------------------------------------------------------------------------
# reply matching, on fake sockets
# ---------------------------------------------------------------------------

class FakeSocket:
    """Socket stand-in with the calls the probe transports make, in the
    style of bench/echo.py. Queued datagrams, as (data, address), and
    OSErrors come out of `recvfrom` (or `recv`) in order, an OSError raised.
    While the queue is not empty one byte waits on an AF_UNIX pair, so that
    `select` sees a readable socket. `answer(packet, ttl)`, if given, gives
    the datagrams a sent packet brings back. With `noise`, the socket is
    always readable and, once the queue is empty, yields `noise` at most
    once a millisecond: unrelated traffic that never stops arriving."""

    def __init__(self, answer=None, noise=None):
        self._rx, self._tx = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        self._queue = collections.deque()
        self._answer = answer
        self._noise, self._noise_ns = noise, 0
        if noise is not None:
            self._tx.send(b"n")
        self.ttl = 64
        self.closed = False

    def fileno(self) -> int:
        return self._rx.fileno()

    def setblocking(self, flag: bool) -> None:
        self._rx.setblocking(flag)

    def setsockopt(self, level, name, value) -> None:
        assert (level, name) == (socket.SOL_IP, socket.IP_TTL)
        self.ttl = value

    def queue(self, *items) -> None:
        for item in items:
            if not self._queue and self._noise is None:
                self._tx.send(b"r")
            self._queue.append(item)

    def sendto(self, packet: bytes, _address) -> int:
        if self._answer is not None:
            self.queue(*self._answer(packet, self.ttl))
        return len(packet)

    def recvfrom(self, _bufsize: int):
        if not self._queue:
            now_ns = time.monotonic_ns()
            if self._noise is None or now_ns - self._noise_ns < 1_000_000:
                raise BlockingIOError("nothing waiting")
            self._noise_ns = now_ns
            return self._noise
        item = self._queue.popleft()
        if not self._queue and self._noise is None:
            self._rx.recv(1)
        if isinstance(item, OSError):
            raise item
        return item

    def recv(self, bufsize: int) -> bytes:
        return self.recvfrom(bufsize)[0]

    def close(self) -> None:
        self.closed = True
        self._rx.close()
        self._tx.close()


TARGET = "198.51.100.9"  # TEST-NET-2; only ever a fake socket's peer
NONCE = 0x1234ABCD


def _ip(icmp: bytes, src: str = TARGET) -> bytes:
    """`icmp` behind an IPv4 header without options, as a raw socket reads it."""
    header = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(icmp), 0, 0, 64,
                         socket.IPPROTO_ICMP, 0, socket.inet_aton(src),
                         socket.inet_aton("192.0.2.1"))
    return header + icmp


def _flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes((data[index] ^ 0xFF,)) + data[index + 1:]


def _echo_reply(request: bytes) -> bytes:
    return b"\x00" + request[1:]  # type 0; the checksum is not checked


def _quoting(icmp_type: int, request: bytes) -> bytes:
    """An ICMP error of `icmp_type` quoting the request's IP header and its
    first 8 bytes."""
    return struct.pack(">BBHI", icmp_type, 0, 0, 0) + _ip(request)[:28]


def _drained(transport) -> list:
    """The keys `drain` yields, each receive stamp checked to lie in the call."""
    keys, start_ns = [], time.monotonic_ns()
    for key, recv_ns in transport.drain():
        assert start_ns <= recv_ns <= time.monotonic_ns()
        keys.append(key)
    return keys


@pytest.fixture
def icmp_socket(monkeypatch):
    """open(raw, answer=None, noise=None): a FakeSocket that the next
    `_open_icmp_socket` call hands out as a raw or a ping socket; each is
    checked to be closed at teardown."""
    opened = []

    def open_fake(raw, answer=None, noise=None):
        sock = FakeSocket(answer, noise)
        opened.append(sock)
        monkeypatch.setattr(probe_module, "_open_icmp_socket", lambda: (sock, raw))
        return sock

    yield open_fake
    for sock in opened:
        assert sock.closed
        if sock._rx.fileno() >= 0:
            sock.close()


@pytest.mark.parametrize("spoil", [
    lambda request, reply: _flip(reply, 4),
    lambda request, reply: _flip(reply, ICMP_HEADER + 8),
    lambda request, reply: request,
    lambda request, reply: _flip(reply, 1),
    lambda request, reply: reply[:ICMP_HEADER + MIN_PAYLOAD - 1],
], ids=["wrong identifier", "wrong nonce", "own request looped back", "nonzero code",
        "too short"])
def test_icmp_raw_socket_ignores_a_reply_not_to_its_probe(icmp_socket, spoil):
    sock = icmp_socket(raw=True)
    transport = probe_module._IcmpTransport(TARGET, NONCE)
    key, request = transport.build(5, 1234, 100)
    reply = _echo_reply(request)
    sock.queue((_ip(spoil(request, reply)), (TARGET, 0)), (_ip(reply), (TARGET, 0)))
    assert _drained(transport) == [key] == [5]
    transport.close()


def test_icmp_ping_socket_accepts_a_rewritten_identifier(icmp_socket):
    # a ping socket hands over the ICMP message alone, with the kernel's identifier
    sock = icmp_socket(raw=False)
    transport = probe_module._IcmpTransport(TARGET, NONCE)
    key, request = transport.build(7, 1234, 100)
    reply = _flip(_echo_reply(request), 4)
    sock.queue((_flip(reply, ICMP_HEADER + 8), None), (reply, None))
    assert _drained(transport) == [key] == [7]
    transport.close()


def test_udp_transport_ignores_foreign_and_short_datagrams_and_consumes_errors():
    transport = probe_module._UdpTransport("127.0.0.1", 9, NONCE)
    transport._sock.close()
    transport._sock = sock = FakeSocket()
    key, packet = transport.build(3, 4567, 100)
    peer = ("127.0.0.1", 9)
    sock.queue((_flip(packet, 8), peer), (packet[:MIN_PAYLOAD - 1], peer),
               ConnectionRefusedError(111, "Connection refused"), (packet, peer))
    assert _drained(transport) == [key] == [4567]
    transport.close()


def _network(hops: int, silent: set):
    """answer(packet, ttl) of a path whose routers answer a TTL below `hops`
    with TIME_EXCEEDED, but for the TTLs in `silent`, and whose target
    answers at `hops` and beyond; unrelated ICMP arrives with every answer."""
    def answer(request, ttl):
        seq = struct.unpack_from(">H", request, 6)[0]
        earlier = request[:6] + struct.pack(">H", seq - 1) + request[8:]
        noise = [
            _ip(request, src="192.0.2.1"),  # our own request, looped back
            _ip(_flip(_echo_reply(request), 4)),  # another prober's reply
            _ip(_echo_reply(request), src="192.0.2.77"),  # not from the target
            _ip(_quoting(11, _flip(request, 4)), src="10.0.0.1"),  # another prober's expiry
            _ip(_echo_reply(earlier)),  # the last TTL's reply, late
            _ip(_quoting(11, earlier), src="10.0.0.1"),  # the last TTL's expiry
            _ip(_quoting(11, _echo_reply(request)), src="10.0.0.1"),  # a reply's expiry
            _ip(_quoting(3, request), src="10.0.0.1"),  # unreachable, not expired
            _ip(_quoting(11, request)[:30], src="10.0.0.1"),  # quote cut short
            _ip(b"\x0b\x00"),  # too short to read
        ]
        if ttl >= hops:
            reply = _ip(_echo_reply(request))
        elif ttl in silent:
            reply = None
        else:
            reply = _ip(_quoting(11, request), src=f"10.0.0.{ttl}")
        datagrams = noise[:5] + ([reply] if reply else []) + noise[5:]
        return [(data, (socket.inet_ntoa(data[12:16]), 0)) for data in datagrams]

    return answer


def test_ttl_prober_tells_hops_silence_and_the_target_apart(icmp_socket):
    icmp_socket(raw=True, answer=_network(hops=5, silent={2, 3}))
    prober = probe_module._TtlProber(TARGET, 0.02)
    assert [prober(ttl) for ttl in range(1, 7)] == ["hop", None, None, "hop", "target", "target"]
    prober.close()


def test_discover_hops_on_a_raw_socket_finds_the_target(icmp_socket):
    icmp_socket(raw=True, answer=_network(hops=4, silent={1}))
    assert discover_hops(TARGET, max_ttl=8, timeout_s=0.02) == 4
    icmp_socket(raw=True, answer=_network(hops=9, silent=set()))
    with pytest.raises(NoReply):
        discover_hops(TARGET, max_ttl=3, timeout_s=0.02)


def test_discover_hops_waits_out_only_a_silent_ttl(icmp_socket):
    # a router's reply ends its TTL's wait; only a silent TTL costs a timeout
    icmp_socket(raw=True, answer=_network(hops=5, silent=set()))
    start = time.monotonic()
    assert discover_hops(TARGET, max_ttl=8, timeout_s=0.5) == 5
    assert time.monotonic() - start < 0.25
    icmp_socket(raw=True, answer=_network(hops=5, silent={2}))
    start = time.monotonic()
    assert discover_hops(TARGET, max_ttl=8, timeout_s=0.5) == 5
    assert 0.5 <= time.monotonic() - start < 1.0  # two timeouts would take 1 s


def test_hop_discovery_refuses_a_ping_socket(icmp_socket):
    icmp_socket(raw=False)
    with pytest.raises(ProbePermissionError):
        probe_module._TtlProber(TARGET, 0.02)
    icmp_socket(raw=False)
    with pytest.raises(ProbePermissionError):
        discover_hops(TARGET, max_ttl=3, timeout_s=0.02)


@pytest.mark.parametrize("spoil", [lambda reply: _flip(reply, ICMP_HEADER + 8),
                                   lambda reply: _flip(reply, 1)],
                         ids=["wrong nonce", "nonzero code"])
def test_ttl_prober_takes_the_target_reply_by_the_probe_reply_rule(icmp_socket, spoil):
    icmp_socket(raw=True, answer=lambda request, ttl: [
        (_ip(spoil(_echo_reply(request))), (TARGET, 0))])
    prober = probe_module._TtlProber(TARGET, 0.02)
    assert prober(1) is None
    prober.close()


def test_ttl_prober_wait_ends_at_its_deadline_under_endless_noise(icmp_socket):
    stranger = _ip(_echo_reply(_build_echo_request(1, 1, bytes(MIN_PAYLOAD))), src="192.0.2.77")
    icmp_socket(raw=True, answer=_network(hops=5, silent={1}), noise=(stranger, ("192.0.2.77", 0)))
    prober = probe_module._TtlProber(TARGET, 0.05)
    start = time.monotonic()
    assert prober(1) is None
    assert 0.05 <= time.monotonic() - start < 2.0
    prober.close()


# ---------------------------------------------------------------------------
# sample batches
# ---------------------------------------------------------------------------

def _rows():
    return [
        ProbeSample("p", 0, 100, 1024, 0, 0.018, False, "icmp_echo"),
        ProbeSample("p", 1, 1124, 9216, 1000, None, True, "icmp_echo"),
        ProbeSample("p", 2, 100, 1024, 2000, 0.019, False, "icmp_echo"),
    ]


def test_batch_is_a_sequence_of_rows():
    rows = _rows()
    batch = SampleBatch.from_samples(rows)
    assert len(batch) == 3
    assert list(batch) == rows
    assert batch[1] == rows[1] and batch[-1] == rows[-1]
    assert batch[1].rtt_s is None and batch[1].lost
    with pytest.raises(IndexError):
        batch[3]
    tail = batch[1:]
    assert isinstance(tail, SampleBatch) and list(tail) == rows[1:]
    assert batch == SampleBatch.from_samples(list(batch))
    assert batch != tail
    assert batch.lost.tolist() == [False, True, False]
    assert SampleBatch.from_samples(batch) is batch


def test_batch_columns_are_read_only():
    batch = SampleBatch.from_samples(_rows())
    with pytest.raises(ValueError):
        batch.rtt_s[0] = 1.0


@pytest.mark.parametrize("column, value, row", [
    ("seq", [0, -1, 2], 1),
    ("payload_bytes", [100, 1124, 0], 2),
    ("wire_bits", [1024, 8000, 1024], 1),
    ("rtt_s", [0.018, None, -0.5], 2),
    ("rtt_s", [math.inf, None, 0.019], 0),
    ("rtt_s", [0.018, None, "0.019"], 2),
    ("sent_at_us", [0, True, 2000], 1),
    ("seq", [0, 1, 2**64], 2),
    ("seq", [0, 2, 1], 2),
])
def test_batch_rejects_bad_rows_by_index(column, value, row):
    good = SampleBatch.from_samples(_rows())
    columns = {name: getattr(good, name).tolist() for name in
               ("seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s")}
    columns[column] = value
    with pytest.raises(InvalidSample) as excinfo:
        SampleBatch("p", "icmp_echo", **columns)
    assert excinfo.value.index == row


def test_batch_rejects_unknown_method_and_mixed_paths():
    for method in ("carrier_pigeon", {}):
        with pytest.raises(ValueError):
            SampleBatch("p", method, [0], [100], [1024], [0], [0.01])
    rows = _rows()
    rows[2] = ProbeSample("q", 2, 100, 1024, 2000, 0.019, False, "icmp_echo")
    with pytest.raises(ValueError):
        SampleBatch.from_samples(rows)


def _batch(path_id, method, seq, rng):
    payload = rng.integers(1, 9000, len(seq))
    rtt = rng.uniform(1e-4, 0.5, len(seq))
    rtt[rng.random(len(seq)) < 0.2] = np.nan
    return SampleBatch(path_id, method, seq, payload, payload * 8 + 224,
                       rng.integers(0, 10 ** 15, len(seq)), rtt)


def test_concat_of_checked_parts_equals_a_fresh_batch():
    rng = np.random.default_rng(12)
    parts = [_batch("p", "udp_echo", np.arange(start, stop), rng)
             for start, stop in ((0, 7), (7, 8), (8, 40))]
    joined = SampleBatch.concat(parts)
    fresh = SampleBatch("p", "udp_echo", *(np.concatenate([getattr(b, name) for b in parts])
                                           for name in COLUMNS))
    assert joined == fresh
    for name in COLUMNS:
        column = getattr(joined, name)
        assert column.dtype == getattr(fresh, name).dtype
        assert column.tobytes() == getattr(fresh, name).tobytes()
        assert not column.flags.writeable
    assert SampleBatch.concat(parts[:1]) is parts[0]
    for other in (_batch("q", "udp_echo", [40], rng), _batch("p", "icmp_echo", [40], rng)):
        with pytest.raises(ValueError, match="mix path ids or methods"):
            SampleBatch.concat([*parts, other])


def test_concat_checks_seq_order_at_each_seam():
    rng = np.random.default_rng(13)
    with pytest.raises(InvalidSample, match="sample 1: samples must be ordered by seq, got 0"):
        SampleBatch.concat([_batch("p", "udp_echo", [5], rng), _batch("p", "udp_echo", [0], rng)])
    # the row named is the first of the part out of order, counted in the joined batch
    parts = [_batch("p", "udp_echo", seq, rng) for seq in ([0, 1, 2], [], [2, 3], [1, 4])]
    with pytest.raises(InvalidSample, match="sample 5: samples must be ordered by seq, got 1"):
        SampleBatch.concat(parts)
    parts[3] = _batch("p", "udp_echo", [3, 4], rng)
    assert SampleBatch.concat(parts).seq.tolist() == [0, 1, 2, 2, 3, 3, 4]


# ---------------------------------------------------------------------------
# echo loop timestamps, on a fake transport and clock
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now_ns = 10**9

    def __call__(self):
        return self.now_ns


class FakeEcho:
    """Transport stand-in on a fake clock. Building a packet takes
    `build_ns_per_byte` per payload byte, each receive call takes
    `recv_ns`, and a reply becomes readable `delay_ns` after its send but
    not before `release_ns`. With `stall=(n, ns)`, the n-th wait returns
    `ns` late, as when the process is not scheduled. `ready_at_wait` says,
    per wait, whether a reply was readable when it began."""

    def __init__(self, clock, build_ns_per_byte=0, recv_ns=0, delay_ns=0, release_ns=0,
                 stall=None):
        self.clock = clock
        self.build_ns_per_byte = build_ns_per_byte
        self.recv_ns = recv_ns
        self.delay_ns = delay_ns
        self.release_ns = release_ns
        self.stall = stall
        self.replies = []  # (readable at, key), in send order
        self.ready_at_wait = []

    def build(self, seq, ts_us, payload_bytes):
        self.clock.now_ns += self.build_ns_per_byte * payload_bytes
        return seq, seq.to_bytes(2, "big") + bytes(payload_bytes)

    def transmit(self, packet):
        ready = max(self.clock.now_ns + self.delay_ns, self.release_ns)
        self.replies.append((ready, int.from_bytes(packet[:2], "big")))

    def wait(self, timeout_s):
        self.ready_at_wait.append(bool(self.replies) and self.replies[0][0] <= self.clock.now_ns)
        if self.stall is not None and self.stall[0] == len(self.ready_at_wait):
            self.clock.now_ns += self.stall[1]
        deadline = self.clock.now_ns + int(timeout_s * 1e9)
        if self.replies and self.replies[0][0] <= deadline:
            self.clock.now_ns = max(self.clock.now_ns, self.replies[0][0])
            return True
        self.clock.now_ns = deadline
        return False

    def drain(self):
        while self.replies and self.replies[0][0] <= self.clock.now_ns:
            _, key = self.replies.pop(0)
            self.clock.now_ns += self.recv_ns
            yield key, self.clock.now_ns


def test_echo_loop_excludes_packet_build_time_from_rtt():
    # an echo that adds no delay, and a packet build that grows with size:
    # every RTT is the clock floor, whatever the size
    clock = FakeClock()
    echo = FakeEcho(clock, build_ns_per_byte=500)
    plan = ProbePlan(target="127.0.0.1", sizes_payload_bytes=(100, 1124),
                     count_per_size=3, inter_probe_gap_s=0.001, timeout_s=0.5)
    results = _run_echo_loop(plan, echo, clock)
    assert [rtt for _, rtt in results] == [1e-9] * 6


def test_echo_loop_stamps_each_reply_at_its_own_receive():
    # both replies become readable together 10 ms after the first send;
    # reading each takes 100 us, so the second is read 200 us after wakeup
    clock = FakeClock()
    start = clock.now_ns
    echo = FakeEcho(clock, recv_ns=100_000, release_ns=start + 10_000_000)
    plan = ProbePlan(target="127.0.0.1", sizes_payload_bytes=(100, 1124),
                     count_per_size=1, inter_probe_gap_s=0.001, timeout_s=0.5)
    (_, rtt0), (_, rtt1) = _run_echo_loop(plan, echo, clock)
    assert rtt0 == pytest.approx(10.1e-3, abs=1e-12)  # sent at 0, read at 10.1 ms
    assert rtt1 == pytest.approx(9.2e-3, abs=1e-12)  # sent at 1 ms, read at 10.2 ms


def test_echo_loop_reads_a_ready_reply_right_after_its_send():
    # an echo that adds no delay: each reply is read right after its send,
    # so no wait begins while a reply is readable
    clock = FakeClock()
    echo = FakeEcho(clock, recv_ns=2_000)
    plan = ProbePlan(target="127.0.0.1", sizes_payload_bytes=(100, 1124),
                     count_per_size=5, inter_probe_gap_s=0.001, timeout_s=0.5)
    results = _run_echo_loop(plan, echo, clock)
    assert [rtt for _, rtt in results] == [pytest.approx(2e-6, abs=1e-15)] * 10
    assert echo.ready_at_wait and not any(echo.ready_at_wait)


@pytest.mark.parametrize("stall_ns", [20_000_000, 10**9])
def test_echo_loop_catches_up_after_a_stall_without_losses(stall_ns):
    # one wait returns late; every reply is readable at once, so none may
    # time out while the loop catches up. A stall shorter than the 50 ms
    # timeout is made up in full. After a longer one the schedule owes at
    # most 50 ms; as building a packet takes 50-562 us, catching that up
    # takes at most 50 / (1 - 0.562) < 120 sends, where all ~390 sends left
    # would go at once if the debt were not capped.
    clock = FakeClock()
    echo = FakeEcho(clock, build_ns_per_byte=500, stall=(10, stall_ns))
    plan = ProbePlan(target="127.0.0.1", sizes_payload_bytes=(100, 1124),
                     count_per_size=200, inter_probe_gap_s=0.001, timeout_s=0.05)
    results = _run_echo_loop(plan, echo, clock)
    assert all(rtt is not None for _, rtt in results)
    sent_at_us = [ts for ts, _ in results]
    gaps = [b - a for a, b in zip(sent_at_us, sent_at_us[1:])]
    assert max(gaps) >= stall_ns // 1000
    if stall_ns < 50_000_000:
        assert sent_at_us[-1] - sent_at_us[0] < 400 * 1_000  # back on schedule
    else:
        assert sum(gap < 1_000 for gap in gaps) < 120


def _reference_checksum(data: bytes) -> int:
    """RFC 1071 over 16-bit words, one word at a time."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) + data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def test_icmp_checksum_matches_word_loop():
    rng = random.Random(5)
    cases = [b"", b"\x00" * 10, b"\xff" * 10, b"\xff\xff\x00\x00", b"\x01", b"\xff\xfe\x00\x01"]
    cases += [rng.randbytes(rng.randint(1, 1200)) for _ in range(300)]
    for data in cases:
        assert _icmp_checksum(data) == _reference_checksum(data), data
    packet = _build_echo_request(0x1234, 7, bytes(range(256)) * 4 + b"\x05")
    assert _reference_checksum(packet) == 0  # a checksummed message sums to 0xFFFF
