"""Reference computations made apart from deltaprobe, and output checks.

Nothing here imports the program. Session files and CSVs are parsed with
`json` and `csv` directly, and every figure the CLI prints is recomputed
from those raw files: per-size minimum delays, the pairwise formula or a
least-squares line, nearest-rank bounds, jitter, sliding-window jitter, the
2x2 normal equations of the intercept model, and ICMP checksums.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

REL = 1e-9  # relative tolerance for recomputed floating-point outputs
TRIM = 0.025  # nearest-rank trim of the 2.5%/97.5% bounds
ICMP_OVERHEAD_BYTES = 28  # ICMP (8) + IPv4 (20) headers on the wire

# An engine that stamps around the send and receive calls alone sees, on an
# echo that adds no delay, a size-dependent RTT of a copy of ~1 KB, well
# under a microsecond, plus the jitter of the two per-size minima (a few
# microseconds on a 2-vCPU VM). Work inside the stamped interval that grows
# with the packet, such as checksumming it in Python, shows up above this
# bound.
SIZE_BIAS_TOLERANCE_US = 20.0


class CheckFailed(Exception):
    """The program's output disagrees with the reference computation."""


@dataclass
class Session:
    """The columns of a session file, parsed without the program."""

    payload_bytes: list[int]
    wire_bits: list[int]
    sent_at_us: list[int]
    rtt_s: list[Optional[float]]

    @property
    def n(self) -> int:
        return len(self.wire_bits)


def read_session(path) -> Session:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    json.loads(lines[0])  # the metadata line must parse
    payload, wire, sent, rtt = [], [], [], []
    ids = set()
    for seq, text in enumerate(lines[1:]):
        obj = json.loads(text)
        if obj["seq"] != seq:
            raise CheckFailed(f"{path}: line {seq + 2} has seq {obj['seq']}")
        if obj["lost"] != (obj["rtt_s"] is None):
            raise CheckFailed(f"{path}: line {seq + 2}: lost flag and rtt disagree")
        ids.add((obj["path_id"], obj["method"]))
        payload.append(obj["payload_bytes"])
        wire.append(obj["wire_bits"])
        sent.append(obj["sent_at_us"])
        rtt.append(obj["rtt_s"])
    if len(ids) > 1:
        raise CheckFailed(f"{path}: mixed path ids or methods {sorted(ids)}")
    return Session(payload, wire, sent, rtt)


def read_delay_csv(path) -> tuple[list[int], list[Optional[float]]]:
    """Rows of an external delay CSV as (wire bits, delay or None if lost)."""
    wire, delays = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            wire.append(8 * int(row["size_bytes"]))
            delays.append(None if row["lost"] == "1" else float(row["delay_s"]))
    return wire, delays


def write_delay_csv(path, wire_bits, delays) -> None:
    """Write (wire bits, delay or None) rows as an external delay CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["size_bytes", "delay_s", "lost"])
        for w, d in zip(wire_bits, delays):
            out.writerow([w // 8, "" if d is None else repr(d), 0 if d is not None else 1])


def min_profile(wire_bits, delays) -> list[tuple[int, float, int]]:
    """Per-size (size, minimum delay, count) over non-lost rows, by size."""
    best: dict[int, float] = {}
    count: dict[int, int] = {}
    for w, d in zip(wire_bits, delays):
        if d is None:
            continue
        count[w] = count.get(w, 0) + 1
        if w not in best or d < best[w]:
            best[w] = d
    return [(w, best[w], count[w]) for w in sorted(best)]


def line_fit(points) -> Optional[tuple[float, float]]:
    """(B, a) from per-size minima: the pairwise formula for two sizes, a
    least-squares line for more. None when the delay does not grow with
    size, which the program must report as an estimation failure."""
    if len(points) == 2:
        (w1, d1, _), (w2, d2, _) = points
        if not d2 - d1 > 0:
            return None
        return (w2 - w1) / (d2 - d1), (w2 * d1 - w1 * d2) / (w2 - w1)
    w = [p[0] for p in points]
    d = [p[1] for p in points]
    n = len(points)
    mw, md = math.fsum(w) / n, math.fsum(d) / n
    sxx = math.fsum((x - mw) ** 2 for x in w)
    sxy = math.fsum((x - mw) * (y - md) for x, y in zip(w, d))
    slope = sxy / sxx
    if not slope > 0:
        return None
    return 1.0 / slope, md - slope * mw


def summary(delays) -> dict:
    """What `stats --json` prints, from the delays in send order."""
    alive = [d for d in delays if d is not None]
    m, n = len(alive), len(delays)
    ordered = sorted(alive)
    k = int(TRIM * m)
    diffs = [abs(b - a) for a, b in zip(alive, alive[1:])]
    return {
        "n_total": n,
        "n_lost": n - m,
        "mean_s": math.fsum(alive) / m,
        "lower_2_5_s": ordered[k],
        "upper_97_5_s": ordered[m - 1 - k],
        "jitter_s": math.fsum(diffs) / len(diffs) if diffs else 0.0,
        "loss_rate": (n - m) / n,
    }


def jitter_windows(sent_at_us, delays, window) -> tuple[np.ndarray, np.ndarray]:
    """(sent_at_us of each window's last sample, mean |delta| in the window)
    over the non-lost samples, one window per position."""
    keep = [i for i, d in enumerate(delays) if d is not None]
    rtt = np.array([delays[i] for i in keep])
    stamps = np.array([sent_at_us[i] for i in keep], dtype=np.int64)
    diffs = np.abs(np.diff(rtt))
    sums = np.lib.stride_tricks.sliding_window_view(diffs, window - 1).sum(axis=1)
    return stamps[window - 1:], sums / (window - 1)


def normal_equations(rows) -> tuple[float, float]:
    """Least-squares (alpha, beta) of a = alpha*n + beta*l via the 2x2
    normal equations, solved by Cramer's rule."""
    snn = math.fsum(n * n for n, _, _ in rows)
    snl = math.fsum(n * l for n, l, _ in rows)
    sll = math.fsum(l * l for _, l, _ in rows)
    sna = math.fsum(n * a for n, _, a in rows)
    sla = math.fsum(l * a for _, l, a in rows)
    det = snn * sll - snl * snl
    return (sna * sll - sla * snl) / det, (snn * sla - snl * sna) / det


def icmp_checksum_ok(message: bytes) -> bool:
    """True when the ones'-complement sum over the message is 0xFFFF."""
    if len(message) % 2:
        message += b"\x00"
    total = int(np.frombuffer(message, dtype=">u2").sum(dtype=np.uint64))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total == 0xFFFF


def close(got, want, rel=REL, scale=None) -> bool:
    """|got - want| within rel of max(|got|, |want|, scale)."""
    bound = max(abs(got), abs(want), scale or 0.0)
    return abs(got - want) <= rel * bound


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_estimate(label, result: dict, points) -> Optional[tuple[float, float]]:
    """Compare `b_av_bps` and `intercept_s` of a JSON result (or its failure
    exit) with the reference fit of `points`; returns the reference (B, a).

    The intercept is compared relative to the largest filtered delay, since
    a path without fixed delay has an intercept of zero.
    """
    ref = line_fit(points)
    if ref is None:
        expect(result is None, f"{label}: reference says the slope is not positive, "
                               f"program estimated {result}")
        return None
    expect(result is not None, f"{label}: program failed, reference gives B={ref[0]}")
    b, a = ref
    scale = max(p[1] for p in points)
    expect(close(result["b_av_bps"], b), f"{label}: B {result['b_av_bps']} != {b}")
    expect(close(result["intercept_s"], a, scale=scale),
           f"{label}: a {result['intercept_s']} != {a}")
    expected_method = "pairwise" if len(points) == 2 else "regression"
    expect(result["method"] == expected_method,
           f"{label}: method {result['method']} != {expected_method}")
    return ref


def check_summary(label, result: dict, want: dict) -> None:
    for key in ("n_total", "n_lost", "lower_2_5_s", "upper_97_5_s", "loss_rate"):
        expect(result[key] == want[key], f"{label}: {key} {result[key]} != {want[key]}")
    for key in ("mean_s", "jitter_s"):
        expect(close(result[key], want[key], scale=want["mean_s"]),
               f"{label}: {key} {result[key]} != {want[key]}")


def check_series(label, path, stamps, jitter) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    expect(lines[0] == "sent_at_us,jitter_s", f"{label}: header {lines[0]!r}")
    rows = lines[1:]
    expect(len(rows) == len(stamps), f"{label}: {len(rows)} windows, want {len(stamps)}")
    got_ts = np.array([int(r.partition(",")[0]) for r in rows], dtype=np.int64)
    got_j = np.array([float(r.partition(",")[2]) for r in rows])
    expect(bool(np.array_equal(got_ts, stamps)), f"{label}: window timestamps differ")
    scale = float(jitter.mean()) if len(jitter) else 0.0
    err = np.abs(got_j - jitter)
    bound = REL * np.maximum(np.maximum(np.abs(got_j), np.abs(jitter)), scale)
    expect(bool(np.all(err <= bound)),
           f"{label}: window jitter differs by up to {float(err.max())}")
