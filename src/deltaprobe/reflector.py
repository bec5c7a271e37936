"""Minimal UDP echo reflector.

Returns every received datagram to its sender verbatim, which is all the
udp_echo probe method needs on the far end. Runs without privileges.
"""

from __future__ import annotations

import socket
import sys
from typing import Callable, Optional

from .cli import UsageParser
from .errors import EnvironmentFailure
from .probe import DEFAULT_UDP_PORT


def serve(
    host: str = "0.0.0.0",
    port: int = DEFAULT_UDP_PORT,
    *,
    max_datagrams: Optional[int] = None,
    on_ready: Optional[Callable[[int], None]] = None,
) -> None:
    """Echo datagrams until interrupted (or after max_datagrams, for tests).

    on_ready receives the bound port once the socket is listening; useful
    with port=0.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind((host, port))
        if on_ready is not None:
            on_ready(sock.getsockname()[1])
        seen = 0
        while max_datagrams is None or seen < max_datagrams:
            data, addr = sock.recvfrom(65535)
            sock.sendto(data, addr)
            seen += 1
    finally:
        sock.close()


def main(argv=None) -> int:
    """Serve until interrupted. A port outside 1..65535 is a usage error
    (exit 64); an address that cannot be bound, or a socket error while
    serving, prints one line and exits 1."""
    parser = UsageParser(
        prog="deltaprobe-reflector",
        description="UDP echo reflector for udp_echo probing",
    )
    parser.add_argument("--host", default="0.0.0.0", help="bind address (default: all)")
    parser.add_argument("--port", type=int, default=DEFAULT_UDP_PORT,
                        help=f"UDP port (default: {DEFAULT_UDP_PORT})")
    args = parser.parse_args(argv)
    if not 0 < args.port < 65536:
        parser.error(f"--port must be in 1..65535, got {args.port}")

    def ready(port: int) -> None:
        print(f"reflecting UDP datagrams on {args.host}:{port}", file=sys.stderr)

    try:
        serve(args.host, args.port, on_ready=ready)
    except KeyboardInterrupt:
        pass
    except OSError as exc:  # socket.gaierror included
        print(f"deltaprobe-reflector: {args.host}:{args.port}: {exc}", file=sys.stderr)
        return EnvironmentFailure.exit_code
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
