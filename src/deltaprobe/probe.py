"""Variable-size delay probing over ICMP or UDP echo.

A probe session sends echo packets of several payload sizes in round-robin
order, timestamps each send and receive on the monotonic clock, and returns
its samples in send order as one SampleBatch, the column form every layer
of the package works on. Lost probes (no matching reply within the
timeout) carry no RTT.

ICMP echo needs a raw socket (or a kernel ping socket where permitted);
UDP echo needs a cooperating reflector, see `deltaprobe.reflector`.
"""

from __future__ import annotations

import itertools
import operator
import os
import select
import socket
import struct
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (AllProbesLost, InvalidProbePlan, InvalidSample, NoReply,
                     ProbePermissionError, ResolveFailure)
from .records import check_fields

METHOD_ICMP = "icmp_echo"
METHOD_UDP = "udp_echo"
METHOD_SIMULATED = "simulated"
METHOD_IMPORTED = "imported"

_METHODS = frozenset({METHOD_ICMP, METHOD_UDP, METHOD_SIMULATED, METHOD_IMPORTED})

ICMP_HEADER_BYTES = 8
UDP_HEADER_BYTES = 8
IPV4_HEADER_BYTES = 20
IPV4_MAX_PACKET_BYTES = 0xFFFF

ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0
ICMP_TIME_EXCEEDED = 11

# Probe payload prefix: 8-byte big-endian microsecond send timestamp
# (monotonic clock) followed by a 4-byte session nonce; the rest of the
# payload is zero padding.
_PROBE_PREFIX = struct.Struct(">QL")
MIN_PAYLOAD_BYTES = _PROBE_PREFIX.size

DEFAULT_UDP_PORT = 7777


@dataclass(frozen=True)
class ProbeSample:
    """One probe observation as a plain row, checked where it enters a batch;
    `lost` is true exactly when `rtt_s` is absent."""

    path_id: str
    seq: int
    payload_bytes: int
    wire_bits: int
    sent_at_us: int
    rtt_s: Optional[float]
    lost: bool
    method: str


# ProbeSample's fields in order, the order SampleBatch.from_rows takes them in
SAMPLE_FIELDS = tuple(ProbeSample.__dataclass_fields__)

_INT_TYPES = (int, np.integer)
_FLOAT_TYPES = (int, float, np.integer, np.floating, type(None))
_INT_FIELDS = ("seq", "payload_bytes", "wire_bits", "sent_at_us")
_COLUMNS = (*_INT_FIELDS, "rtt_s")


def read_only_column(values, dtype, name: str) -> np.ndarray:
    """A read-only 1-D copy of `values` as `dtype`. Python sequences may hold
    only integers (and, for float columns, floats and None, which becomes
    NaN); bools and strings are refused, not converted."""
    is_float = dtype is np.float64
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in ("iuf" if is_float else "iu"):
            raise ValueError(f"{name} must be numeric, got dtype {values.dtype}")
    else:
        allowed = _FLOAT_TYPES if is_float else _INT_TYPES
        bad = {t for t in set(map(type, values)) if not issubclass(t, allowed) or t is bool}
        if bad:
            index = next(i for i, v in enumerate(values) if type(v) in bad)
            raise InvalidSample(index, f"{name} must be a number, got {values[index]!r}")
    try:
        column = np.array(values, dtype=dtype)
    except OverflowError:
        for index, value in enumerate(values):
            try:
                np.array(value, dtype=dtype)
            except OverflowError:
                raise InvalidSample(index, f"{name} out of range, got {value!r}") from None
        raise
    if column.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    column.flags.writeable = False
    return column


def _require(ok: np.ndarray, message: str, values: np.ndarray) -> None:
    """InvalidSample naming the first row where `ok` is False. `ok` lines up
    with the last rows of `values`, so a rule on pairs names the later row."""
    if not ok.all():
        index = len(values) - len(ok) + int(ok.argmin())
        raise InvalidSample(index, f"{message}, got {values[index]}")


class SampleBatch(Sequence):
    """The samples of one probing session as columns.

    `seq`, `payload_bytes`, `wire_bits` and `sent_at_us` are int64 arrays and
    `rtt_s` is a float64 array with NaN for a lost probe; `path_id` and
    `method` hold for every sample. The constructor copies the columns,
    makes them read-only and checks every sample rule at once, seq order
    included; a failed check raises InvalidSample naming the first bad row.

    The batch is also a read-only sequence of ProbeSample rows: `len`,
    indexing and iteration give rows (rtt_s None when lost), a slice gives
    a batch, and `==` compares columns.
    """

    __slots__ = ("path_id", "method", *_COLUMNS)

    def __init__(self, path_id, method, seq, payload_bytes, wire_bits, sent_at_us, rtt_s):
        self.path_id = path_id
        self.method = method
        self.seq = read_only_column(seq, np.int64, "seq")
        self.payload_bytes = read_only_column(payload_bytes, np.int64, "payload_bytes")
        self.wire_bits = read_only_column(wire_bits, np.int64, "wire_bits")
        self.sent_at_us = read_only_column(sent_at_us, np.int64, "sent_at_us")
        self.rtt_s = read_only_column(rtt_s, np.float64, "rtt_s")
        if not isinstance(method, str) or method not in _METHODS:
            raise InvalidSample(0, f"unknown method {method!r}")
        if len({len(getattr(self, name)) for name in _COLUMNS}) > 1:
            raise ValueError("sample columns differ in length")
        _require(self.seq >= 0, "seq must be nonnegative", self.seq)
        _require(self.seq[1:] >= self.seq[:-1], "samples must be ordered by seq", self.seq)
        _require(self.payload_bytes > 0, "payload_bytes must be positive", self.payload_bytes)
        # floor division cannot overflow where 8 * payload_bytes could
        _require(self.wire_bits // 8 >= self.payload_bytes,
                 "wire_bits smaller than 8 * payload_bytes", self.wire_bits)
        rtt = self.rtt_s
        _require(np.isnan(rtt) | ((rtt > 0) & (rtt < np.inf)),
                 "rtt_s must be positive and finite", rtt)

    @classmethod
    def from_samples(cls, samples) -> "SampleBatch":
        """The batch itself, or a checked batch of a sequence of ProbeSample rows."""
        if isinstance(samples, cls):
            return samples
        return cls.from_rows(list(map(operator.attrgetter(*SAMPLE_FIELDS), samples)))

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "SampleBatch":
        """A batch of rows given as tuples in SAMPLE_FIELDS order, checked by
        every batch rule and the two that only rows have: one path_id and
        method, and `lost` the bool True exactly when rtt_s is None."""
        if not rows:
            return cls("", METHOD_IMPORTED, (), (), (), (), ())
        path_ids, seqs, payload, wire, sent, rtts, losts, methods = zip(*rows)
        batch = cls(path_ids[0], methods[0], seqs, payload, wire, sent, rtts)
        for name, values in (("path_id", path_ids), ("method", methods)):
            if values.count(values[0]) != len(values):
                i = next(i for i, v in enumerate(values) if v != values[0])
                raise InvalidSample(i, f"{name} {values[i]!r} differs "
                                       f"from the first sample's {values[0]!r}")
        matches = list(map(operator.is_, losts, batch.lost.tolist()))
        if not all(matches):
            raise InvalidSample(matches.index(False),
                                "lost must be true exactly when rtt_s is null")
        return batch

    @classmethod
    def concat(cls, batches: Sequence["SampleBatch"]) -> "SampleBatch":
        """The samples of several batches of one path_id and method joined,
        with only each seam checked (`check_seam`, naming the joined row); a
        lone batch as it is."""
        ids = {(b.path_id, b.method) for b in batches}
        if len(ids) != 1:
            raise ValueError(f"batches mix path ids or methods: {ids}")
        if len(batches) == 1:
            return batches[0]
        parts = [b for b in batches if len(b)]
        for previous, batch, index in zip(parts, parts[1:], itertools.accumulate(map(len, parts))):
            check_seam(previous, batch, index)
        return cls._unchecked(*ids.pop(), [np.concatenate([getattr(b, name) for b in batches])
                                           for name in _COLUMNS])

    @classmethod
    def _unchecked(cls, path_id, method, columns) -> "SampleBatch":
        """A batch of columns that keep every rule, made read-only, not checked."""
        batch = object.__new__(cls)
        batch.path_id, batch.method = path_id, method
        for name, column in zip(_COLUMNS, columns):
            column.flags.writeable = False
            setattr(batch, name, column)
        return batch

    @property
    def lost(self) -> np.ndarray:
        return np.isnan(self.rtt_s)

    def replace(self, **columns) -> "SampleBatch":
        """A batch with the named fields replaced, checked again."""
        return SampleBatch(**{name: getattr(self, name) for name in self.__slots__} | columns)

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._unchecked(self.path_id, self.method,
                                   [getattr(self, name)[index] for name in _COLUMNS])
        i = range(len(self))[index]
        return self._row(*(getattr(self, name)[i].item() for name in _COLUMNS))

    def __iter__(self):
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        return itertools.starmap(self._row, zip(*columns))

    def _row(self, seq, payload_bytes, wire_bits, sent_at_us, rtt_s) -> ProbeSample:
        lost = rtt_s != rtt_s  # NaN
        return ProbeSample(self.path_id, seq, payload_bytes, wire_bits, sent_at_us,
                           None if lost else rtt_s, lost, self.method)

    def __eq__(self, other):
        if not isinstance(other, SampleBatch):
            return NotImplemented
        return (self.path_id == other.path_id and self.method == other.method
                and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _INT_FIELDS)
                and np.array_equal(self.rtt_s, other.rtt_s, equal_nan=True))

    def __repr__(self) -> str:
        return (f"SampleBatch(path_id={self.path_id!r}, method={self.method!r}, "
                f"n={len(self)}, lost={int(self.lost.sum())})")


def check_seam(previous: SampleBatch, batch: SampleBatch, index: int = 0) -> None:
    """InvalidSample naming row `index` unless the nonempty `batch` may follow
    `previous` in one session: the same path_id and method, and its first seq
    not below the last of `previous`."""
    for name in ("path_id", "method"):
        value, want = getattr(batch, name), getattr(previous, name)
        if value != want:
            raise InvalidSample(index, f"{name} {value!r} differs "
                                       f"from the first sample's {want!r}")
    if batch.seq[0] < previous.seq[-1]:
        raise InvalidSample(index, f"samples must be ordered by seq, got {batch.seq[0]}")


# What library entry points take as samples; each converts once, with
# SampleBatch.from_samples.
Samples = Union[SampleBatch, Sequence[ProbeSample]]


@dataclass(frozen=True)
class ProbePlan:
    """Parameters of one probing session, checked when built: every plan is
    one that run_session can run. A refused one raises InvalidProbePlan."""

    target: str
    sizes_payload_bytes: tuple[int, ...] = (100, 1124)
    count_per_size: int = 30
    inter_probe_gap_s: float = 0.05
    timeout_s: float = 2.0
    method: str = METHOD_ICMP
    udp_port: int = DEFAULT_UDP_PORT

    def __post_init__(self):
        object.__setattr__(self, "sizes_payload_bytes", tuple(self.sizes_payload_bytes))
        check_fields(self)
        sizes = self.sizes_payload_bytes
        if not sizes:
            raise InvalidProbePlan("at least one probe size required")
        if len(set(sizes)) != len(sizes):
            raise InvalidProbePlan(f"probe sizes must be distinct, got {sizes}")
        if self.count_per_size < 1:
            raise InvalidProbePlan("count_per_size must be >= 1")
        if not self.inter_probe_gap_s > 0:
            raise InvalidProbePlan("inter_probe_gap_s must be positive")
        if not self.timeout_s > self.inter_probe_gap_s:
            raise InvalidProbePlan("timeout_s must exceed inter_probe_gap_s")
        if self.method not in (METHOD_ICMP, METHOD_UDP):
            raise InvalidProbePlan(f"unsupported probe method {self.method!r}")
        if not 0 < self.udp_port < 65536:
            raise InvalidProbePlan(f"udp_port must be in 1..65535, got {self.udp_port!r}")
        if min(sizes) < MIN_PAYLOAD_BYTES:
            raise InvalidProbePlan(f"payload must be at least {MIN_PAYLOAD_BYTES} bytes "
                                   "(timestamp + nonce prefix)")
        limit = IPV4_MAX_PACKET_BYTES - wire_size(0, self.method) // 8
        if max(sizes) > limit:
            raise InvalidProbePlan(f"payload must be at most {limit} bytes for {self.method} "
                                   "(one IPv4 packet)")
        if len(sizes) * self.count_per_size > 0xFFFF:
            raise InvalidProbePlan("session too large: sequence numbers are 16-bit")


def wire_size(payload_bytes: int, method: str) -> int:
    """Wire size in bits of an echo probe at the IP layer, headers included."""
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be nonnegative, got {payload_bytes}")
    if method == METHOD_ICMP:
        return 8 * (payload_bytes + ICMP_HEADER_BYTES + IPV4_HEADER_BYTES)
    if method == METHOD_UDP:
        return 8 * (payload_bytes + UDP_HEADER_BYTES + IPV4_HEADER_BYTES)
    raise ValueError(f"no wire model for method {method!r}")


def _resolve(target: str) -> str:
    try:
        return socket.gethostbyname(target)
    except socket.gaierror as exc:
        raise ResolveFailure(f"cannot resolve {target!r}: {exc}") from exc


def _icmp_checksum(data: bytes) -> int:
    """Internet checksum (RFC 1071): the complement of the ones'-complement
    sum of the big-endian 16-bit words. As 2**16 = 1 mod 0xFFFF, that sum is
    the whole message read as one integer, mod 0xFFFF, except that a nonzero
    message whose sum is 0 mod 0xFFFF sums to 0xFFFF."""
    if len(data) % 2:
        data += b"\x00"
    value = int.from_bytes(data, "big")
    total = value % 0xFFFF or (0xFFFF if value else 0)
    return ~total & 0xFFFF


def _build_echo_request(ident: int, seq: int, payload: bytes) -> bytes:
    header = struct.pack(">BBHHH", ICMP_ECHO_REQUEST, 0, 0, ident, seq)
    csum = _icmp_checksum(header + payload)
    return struct.pack(">BBHHH", ICMP_ECHO_REQUEST, 0, csum, ident, seq) + payload


def _probe_payload(ts_us: int, nonce: int, payload_bytes: int) -> bytes:
    return _PROBE_PREFIX.pack(ts_us, nonce) + b"\x00" * (payload_bytes - MIN_PAYLOAD_BYTES)


def _open_icmp_socket() -> tuple[socket.socket, bool]:
    """Raw ICMP socket, or a kernel ping socket as unprivileged fallback."""
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP)
        return sock, True
    except PermissionError:
        pass
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM, socket.IPPROTO_ICMP)
        return sock, False
    except (PermissionError, OSError) as exc:
        raise ProbePermissionError(
            "ICMP echo needs a raw socket (root/CAP_NET_RAW) or a ping socket "
            "(net.ipv4.ping_group_range)"
        ) from exc


_session_counter = itertools.count()


class _EchoTransport:
    """One probe socket. `build` makes a probe's packet and the key its reply
    will be matched by, `transmit` sends a built packet, and `drain` yields
    (key, recv_ns) for every reply waiting that `_match` turns into a key,
    each stamped on the monotonic clock right after its own receive call."""

    _sock: socket.socket

    def wait(self, timeout_s: float) -> bool:
        """True when a reply may be waiting before `timeout_s` has passed."""
        readable, _, _ = select.select([self._sock], [], [], timeout_s)
        return bool(readable)

    def drain(self):
        """The package's one receive loop: every datagram is stamped before
        it is matched, and a queued error (an ICMP port or host unreachable
        on a UDP socket) is consumed."""
        recvfrom, match = self._sock.recvfrom, self._match
        while True:
            try:
                data, addr = recvfrom(65535)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                continue
            recv_ns = time.monotonic_ns()
            key = match(data, addr)
            if key is not None:
                yield key, recv_ns

    def close(self):
        self._sock.close()


class _IcmpTransport(_EchoTransport):
    """ICMP echo sender/receiver. Reply matching: (identifier, sequence, nonce);
    on an unprivileged ping socket the kernel rewrites the identifier, so
    matching falls back to (sequence, nonce)."""

    def __init__(self, dst_ip: str, nonce: int):
        self._dst = dst_ip
        self._nonce = nonce
        self._sock, self._raw = _open_icmp_socket()
        self._sock.setblocking(False)
        # process-scoped session id: pid offset by a per-process counter
        self._ident = (os.getpid() + next(_session_counter)) & 0xFFFF

    def build(self, seq: int, ts_us: int, payload_bytes: int) -> tuple[int, bytes]:
        payload = _probe_payload(ts_us, self._nonce, payload_bytes)
        return seq & 0xFFFF, _build_echo_request(self._ident, seq & 0xFFFF, payload)

    def transmit(self, packet: bytes) -> None:
        self._sock.sendto(packet, (self._dst, 0))

    def _match(self, data: bytes, addr) -> Optional[int]:
        """The sequence number of an echo reply to one of our probes."""
        icmp = data[(data[0] & 0x0F) * 4:] if self._raw else data
        if len(icmp) < ICMP_HEADER_BYTES + MIN_PAYLOAD_BYTES:
            return None
        itype, code, _csum, ident, seq = struct.unpack_from(">BBHHH", icmp, 0)
        if itype != ICMP_ECHO_REPLY or code != 0 or (self._raw and ident != self._ident):
            return None
        _ts, nonce = _PROBE_PREFIX.unpack_from(icmp, ICMP_HEADER_BYTES)
        return seq if nonce == self._nonce else None


class _UdpTransport(_EchoTransport):
    """UDP echo sender/receiver against a verbatim reflector. Replies carry
    the probe payload back unchanged; matching uses (timestamp, nonce)."""

    def __init__(self, dst_ip: str, port: int, nonce: int):
        self._nonce = nonce
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.connect((dst_ip, port))
        self._sock.setblocking(False)

    def build(self, seq: int, ts_us: int, payload_bytes: int) -> tuple[int, bytes]:
        return ts_us, _probe_payload(ts_us, self._nonce, payload_bytes)

    def transmit(self, packet: bytes) -> None:
        self._sock.send(packet)

    def _match(self, data: bytes, addr) -> Optional[int]:
        """The send timestamp of a reflected probe of ours."""
        if len(data) < MIN_PAYLOAD_BYTES:
            return None
        ts_us, nonce = _PROBE_PREFIX.unpack_from(data, 0)
        return ts_us if nonce == self._nonce else None


def _run_echo_loop(
    plan: ProbePlan, transport, clock: Callable[[], int] = time.monotonic_ns
) -> list[tuple[int, Optional[float]]]:
    """Interleave sends and receives on one socket; returns per-seq
    (sent_at_us, rtt_s or None) in send order.

    The send stamp is taken after the packet is built and just before it is
    transmitted, so building a larger packet adds nothing to its RTT; the
    receive stamp is the transport's, taken per reply. Replies are drained
    right after every send, so one that is readable at once is stamped
    without a loop pass and a `select` in between, and sends that catch up
    with the schedule never starve the receive side. `clock` must be the
    transport's clock (monotonic nanoseconds).
    """
    sizes = plan.sizes_payload_bytes
    total = len(sizes) * plan.count_per_size
    gap_ns = int(plan.inter_probe_gap_s * 1e9)
    timeout_ns = int(plan.timeout_s * 1e9)

    # key -> (seq, sent_ns, sent_at_us), in send order
    pending: dict[int, tuple[int, int, int]] = {}
    done: dict[int, tuple[int, Optional[float]]] = {}
    last_ts_us = 0
    seq = 0
    next_send_ns = clock()

    def drain() -> None:
        for key, recv_ns in transport.drain():
            entry = pending.pop(key, None)
            if entry is None:
                continue  # duplicate, late, or foreign reply
            pseq, sent_ns, ts_us = entry
            rtt_s = max((recv_ns - sent_ns) / 1e9, 1e-9)  # clock granularity floor
            done[pseq] = (ts_us, rtt_s)

    while seq < total or pending:
        now_ns = clock()

        # every probe has the same timeout, so they expire in send order
        while pending:
            oldest = next(iter(pending))
            pseq, sent_ns, ts_us = pending[oldest]
            if now_ns - sent_ns < timeout_ns:
                break
            del pending[oldest]
            done[pseq] = (ts_us, None)

        if seq < total and now_ns >= next_send_ns:
            payload_bytes = sizes[seq % len(sizes)]
            ts_us = max(now_ns // 1000, last_ts_us + 1)
            last_ts_us = ts_us
            key, packet = transport.build(seq, ts_us, payload_bytes)
            sent_ns = clock()
            try:
                transport.transmit(packet)
            except OSError:
                done[seq] = (ts_us, None)  # unreachable network counts as loss
            else:
                pending[key] = (seq, sent_ns, ts_us)
                drain()
            # The schedule is kept, so the sends due during a short stall go
            # at once, each followed by a drain. It never falls more than
            # one timeout behind, so a long stall cannot stack up a burst.
            next_send_ns = max(next_send_ns + gap_ns, now_ns - timeout_ns)
            seq += 1

        deadlines = [next(iter(pending.values()))[1] + timeout_ns] if pending else []
        if seq < total:
            deadlines.append(next_send_ns)
        if not deadlines:
            continue  # everything sent and settled; loop condition ends us
        if transport.wait(max(0.0, (min(deadlines) - clock()) / 1e9)):
            drain()

    return [done[i] for i in range(total)]


def run_session(plan: ProbePlan, *, path_id: Optional[str] = None) -> SampleBatch:
    """Run one probing session and return its samples in send order.

    Sends `count_per_size` probes per size, interleaving sizes round-robin so
    every size samples the same congestion epoch. Raises AllProbesLost when
    no probe is answered.
    """
    total = len(plan.sizes_payload_bytes) * plan.count_per_size
    dst_ip = _resolve(plan.target)
    nonce = int.from_bytes(os.urandom(4), "big")
    if plan.method == METHOD_ICMP:
        transport = _IcmpTransport(dst_ip, nonce)
    else:
        transport = _UdpTransport(dst_ip, plan.udp_port, nonce)

    try:
        results = _run_echo_loop(plan, transport)
    finally:
        transport.close()

    sent_at_us, rtt_s = zip(*results)
    if all(rtt is None for rtt in rtt_s):
        raise AllProbesLost(f"all {total} probes to {plan.target} were lost")
    sizes = plan.sizes_payload_bytes
    return SampleBatch(
        path_id=path_id if path_id is not None else plan.target,
        method=plan.method,
        seq=np.arange(total),
        payload_bytes=np.tile(sizes, plan.count_per_size),
        wire_bits=np.tile([wire_size(p, plan.method) for p in sizes], plan.count_per_size),
        sent_at_us=sent_at_us,
        rtt_s=rtt_s,
    )


class _TtlProber(_IcmpTransport):
    """Sends one ICMP echo at a given TTL and classifies the outcome by the
    first reply to it: "target" for the target's echo reply, "hop" for a
    TIME_EXCEEDED quoting it, None when neither comes within the timeout.
    Needs a raw socket, as a ping socket does not deliver TIME_EXCEEDED."""

    def __init__(self, dst_ip: str, timeout_s: float):
        super().__init__(dst_ip, int.from_bytes(os.urandom(4), "big"))
        if not self._raw:
            self.close()
            raise ProbePermissionError(
                "hop discovery needs a raw ICMP socket to see TTL-expiry replies"
            )
        self._timeout_s = timeout_s
        self._ttl = 0

    def _match(self, data: bytes, addr) -> Optional[str]:
        icmp = data[(data[0] & 0x0F) * 4:]
        if icmp[:1] != bytes((ICMP_TIME_EXCEEDED,)):
            reply = super()._match(data, addr) == self._ttl and addr[0] == self._dst
            return "target" if reply else None
        # quoted packet: inner IP header + first 8 bytes of our echo
        inner = icmp[ICMP_HEADER_BYTES:]
        if len(inner) < IPV4_HEADER_BYTES + ICMP_HEADER_BYTES:
            return None
        quoted = inner[(inner[0] & 0x0F) * 4:]
        ours = (quoted[:1] == bytes((ICMP_ECHO_REQUEST,))
                and quoted[4:8] == struct.pack(">HH", self._ident, self._ttl))
        return "hop" if ours else None

    def __call__(self, ttl: int) -> Optional[str]:
        self._sock.setsockopt(socket.SOL_IP, socket.IP_TTL, ttl)
        self._ttl, packet = self.build(ttl, time.monotonic_ns() // 1000, 24)
        try:
            self.transmit(packet)
        except OSError:
            return None
        deadline = time.monotonic() + self._timeout_s
        while (remaining := deadline - time.monotonic()) > 0 and self.wait(remaining):
            for outcome, _recv_ns in self.drain():
                return outcome  # no target reply follows a router's for the same request
        return None


def discover_hops(
    target: str,
    max_ttl: int = 30,
    *,
    timeout_s: float = 2.0,
    prober: Optional[Callable[[int], Optional[str]]] = None,
) -> int:
    """Hop count of the path: the smallest TTL at which the target itself
    replies. Probers returning "hop" or None (silent router) do not end the
    search. Raises NoReply if the target never answers within max_ttl.
    """
    if max_ttl < 1:
        raise ValueError("max_ttl must be >= 1")
    owned = None
    if prober is None:
        owned = _TtlProber(_resolve(target), timeout_s)
        prober = owned
    try:
        for ttl in range(1, max_ttl + 1):
            if prober(ttl) == "target":
                return ttl
    finally:
        if owned is not None:
            owned.close()
    raise NoReply(f"{target} did not reply within {max_ttl} hops")
