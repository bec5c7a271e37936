"""An in-process ICMP echo that answers every request at once.

`deltaprobe.probe._open_icmp_socket` is the one seam through which the probe
engine gets its socket. `EchoSeam` replaces it with a factory that hands the
engine an `InstantEcho` in place of a kernel ping socket. The echo turns each
request into its reply inside `sendto`, so no raw socket, privilege, second
process or loopback scheduling is involved, and the echo adds no delay of its
own: the RTT the engine records is the engine's own time between its stamps.
"""

from __future__ import annotations

import collections
import socket

ICMP_ECHO_REPLY = 0


class InstantEcho:
    """Socket stand-in with the calls `_IcmpTransport` makes.

    Replies wait in a queue. While it is not empty, one byte waits on an
    AF_UNIX stream pair, so that the engine's `select` sees a readable
    socket. A socket queue of replies would hold only a few: a datagram pair
    takes `net.unix.max_dgram_qlen` (10), so a catch-up burst of sends after
    a stall would turn into send errors. Every request is kept, so that its
    size and checksum can be checked after the session, outside the timed
    call.
    """

    def __init__(self):
        self._rx, self._tx = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        self._replies: collections.deque[bytes] = collections.deque()
        self.requests: list[bytes] = []

    def fileno(self) -> int:
        return self._rx.fileno()

    def setblocking(self, flag: bool) -> None:
        self._rx.setblocking(flag)

    def sendto(self, packet: bytes, _address) -> int:
        self.requests.append(packet)
        # A kernel ping socket hands back the ICMP message without its IP
        # header; the reply differs from the request only in its type byte.
        if not self._replies:
            self._tx.send(b"r")
        self._replies.append(bytes((ICMP_ECHO_REPLY,)) + packet[1:])
        return len(packet)

    def recvfrom(self, _bufsize: int):
        if not self._replies:
            raise BlockingIOError("no reply waiting")
        reply = self._replies.popleft()
        if not self._replies:
            self._rx.recv(1)
        return reply, None

    def close(self) -> None:
        self._rx.close()
        self._tx.close()


class EchoSeam:
    """Puts the echo in place of `probe._open_icmp_socket` until `restore`."""

    def __init__(self, probe_module):
        self._probe = probe_module
        self._original = probe_module._open_icmp_socket
        self._opened: list[InstantEcho] = []

        def open_echo():
            echo = InstantEcho()
            self._opened.append(echo)
            return echo, False  # False: replies arrive without an IP header

        probe_module._open_icmp_socket = open_echo

    def take(self) -> list[InstantEcho]:
        """The echoes opened since the last call."""
        taken, self._opened = self._opened, []
        return taken

    def restore(self) -> None:
        self._probe._open_icmp_socket = self._original
