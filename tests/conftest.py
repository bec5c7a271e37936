"""Shared test helpers."""

import socket

import pytest

from deltaprobe.probe import ProbeSample


def _have_raw_icmp_socket() -> bool:
    try:
        socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP).close()
        return True
    except OSError:
        return False


# hop discovery refuses a ping socket, which does not deliver TIME_EXCEEDED
needs_raw_icmp = pytest.mark.skipif(
    not _have_raw_icmp_socket(), reason="no raw ICMP socket privilege in this environment"
)


def make_sample(wire_bits, rtt_s, seq=0, sent_at_us=None, path_id="test", method="simulated"):
    """ProbeSample with sane defaults; rtt_s=None builds a lost sample."""
    return ProbeSample(
        path_id=path_id,
        seq=seq,
        payload_bytes=max(1, wire_bits // 8),
        wire_bits=wire_bits,
        sent_at_us=seq * 1000 if sent_at_us is None else sent_at_us,
        rtt_s=rtt_s,
        lost=rtt_s is None,
        method=method,
    )


def make_series(wire_bits, delays, start_seq=0, path_id="test"):
    """One sample per delay at a single size, consecutive seq numbers."""
    return [
        make_sample(wire_bits, d, seq=start_seq + i, path_id=path_id)
        for i, d in enumerate(delays)
    ]
