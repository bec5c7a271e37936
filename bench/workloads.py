"""The benchmark's workloads: their seeded inputs and one round of each.

Every workload runs every command of the CLI in each round, because every
run reports every end-to-end metric; the workloads differ in the regime.

- `bulk_session`: one long simulated session per round (three slots in
  turn), a large observations file for `calibrate` and four probe sessions.
  Per-sample work dominates.
- `path_fleet`: 24 short sessions per round over seeded paths of 1 to 6
  hops, then `calibrate` over the intercepts `estimate` recovered, and two
  default probe sessions. Per-call fixed cost dominates.
- `icmp_instant_echo`: default probe sessions against the instant echo,
  each followed by the session mix on its own file. The probe engine
  dominates.

Each command's output is checked against `oracle`, which never calls the
program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import oracle
from oracle import expect

# The generating intercept model of the simulated paths: every router adds
# ALPHA of processing, every kilometre of route adds BETA of propagation.
ALPHA_S_PER_HOP = 0.25e-3
BETA_S_PER_KM = 5e-6

WINDOW = 10  # `stats --series` window, the CLI default
DEFAULT_SIZES = (100, 1124)  # CLI default sizes in bytes
DEFAULT_COUNT = 30  # CLI default probes per size
BULK_B_TOLERANCE = 0.01  # noisy bulk paths: B within 1% of 1/sum(1/C_i)
NOISY_MODEL_TOLERANCE = 0.01  # alpha, beta fitted from noisy observations

PROBE_TARGET = "127.0.0.1"  # numeric: resolving it needs no lookup
PROBE_GAP_S = 0.001
PROBE_PAYLOADS = DEFAULT_SIZES


def _seed_stream(seed: int, label: str) -> int:
    """A 63-bit seed for one input, derived from the run's seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class SimSlot:
    """One simulated path with its inputs and the analytic truth."""

    name: str
    config: dict
    sizes: tuple[int, ...]
    count: int
    noisy: bool
    hops: int
    route_km: float
    b_tolerance: Optional[float] = None  # B against 1/sum(1/C_i) on a noisy path
    cfg_file: Path = None
    csv_file: Path = None
    csv_points: list = None
    digest: Optional[str] = None
    ref: Optional[dict] = None

    @property
    def truth_bps(self) -> float:
        return 1.0 / math.fsum(1.0 / h["capacity_bps"] for h in self.config["hops"])

    @property
    def truth_a(self) -> float:
        return math.fsum(h.get("propagation_s", 0.0) + h.get("processing_s", 0.0)
                         for h in self.config["hops"])

    def delays(self, rng: np.random.Generator, wire_bits: np.ndarray) -> list:
        """External measurements of this path, drawn by the benchmark's own
        model: the affine fixed delay plus one-sided noise, with loss."""
        fixed = np.zeros(len(wire_bits))
        lost = np.zeros(len(wire_bits), dtype=bool)
        for hop in self.config["hops"]:
            fixed += wire_bits / hop["capacity_bps"] + hop.get("propagation_s", 0.0) \
                + hop.get("processing_s", 0.0)
            if hop.get("queue_noise_mean_s", 0.0) > 0:
                fixed += rng.exponential(hop["queue_noise_mean_s"], len(wire_bits))
            if hop.get("loss_prob", 0.0) > 0:
                lost |= rng.random(len(wire_bits)) < hop["loss_prob"]
        return [None if gone else float(d) for d, gone in zip(fixed, lost)]

    def write_inputs(self, work: Path, seed: int) -> None:
        self.cfg_file = work / f"{self.name}.json"
        self.cfg_file.write_text(json.dumps(self.config))
        rng = np.random.default_rng(_seed_stream(seed, self.name + ".csv"))
        wire = np.tile(np.array(self.sizes) * 8, self.count)
        delays = self.delays(rng, wire.astype(float))
        self.csv_file = work / f"{self.name}.csv"
        oracle.write_delay_csv(self.csv_file, wire.tolist(), delays)
        self.csv_points = oracle.min_profile(*oracle.read_delay_csv(self.csv_file))


def fleet_path(rng: random.Random, name: str, noisy: bool, sizes) -> SimSlot:
    """A seeded path of 1-6 hops whose fixed delay follows the intercept
    model exactly: ALPHA per hop plus BETA per kilometre of route."""
    hops = rng.randint(1, 6)
    route_km = round(rng.uniform(50.0, 4000.0), 3)
    cuts = sorted(rng.uniform(0.0, route_km) for _ in range(hops - 1))
    config = {"seed": rng.getrandbits(63), "hops": []}
    for start, end in zip([0.0] + cuts, cuts + [route_km]):
        hop = {
            "capacity_bps": 10 ** rng.uniform(6.0, 7.0 if noisy else 8.0),
            "propagation_s": BETA_S_PER_KM * (end - start),
            "processing_s": ALPHA_S_PER_HOP,
        }
        if noisy:
            hop["queue_noise_mean_s"] = rng.uniform(20e-6, 100e-6)
            hop["loss_prob"] = 0.02
        config["hops"].append(hop)
    return SimSlot(name, config, tuple(sizes), DEFAULT_COUNT, noisy, hops, route_km)


def bulk_path(seed: int, slot: int, count: int) -> SimSlot:
    """The 2-hop bulk path (1 and 2 Mbit/s, queueing noise, loss); slots
    differ in route length and in the path's own RNG seed."""
    route_km = 400.0 * (slot + 1)
    config = {"seed": _seed_stream(seed, f"bulk{slot}"), "hops": [
        {"capacity_bps": 1e6, "propagation_s": BETA_S_PER_KM * route_km / 2,
         "processing_s": ALPHA_S_PER_HOP, "queue_noise_mean_s": 0.5e-3, "loss_prob": 0.005},
        {"capacity_bps": 2e6, "propagation_s": BETA_S_PER_KM * route_km / 2,
         "processing_s": ALPHA_S_PER_HOP, "queue_noise_mean_s": 0.5e-3, "loss_prob": 0.005},
    ]}
    return SimSlot(f"bulk{slot}", config, DEFAULT_SIZES, count, True, 2, route_km,
                   b_tolerance=BULK_B_TOLERANCE)


def write_observations(path: Path, rows) -> None:
    """rows: (path_id, n, l_km, a_s)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path_id,n,l_km,a_s\n")
        for pid, n, l_km, a_s in rows:
            fh.write(f"{pid},{n},{l_km!r},{a_s!r}\n")


class Workload:
    """Inputs made in `setup`; `round` runs one whole round of operations."""

    name = ""
    PROBE_SESSIONS = 1  # probe sessions a round

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def probe_sessions(self) -> int:
        return 1 if self.smoke else self.PROBE_SESSIONS

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def round(self, bench, r: int) -> None:
        raise NotImplementedError

    # -- operations shared by the workloads ---------------------------------

    def session_mix(self, bench, slot: SimSlot) -> Optional[float]:
        """simulate, estimate (JSONL and CSV), stats, stats --series on one
        simulated path; returns the intercept `estimate` recovered."""
        out = bench.work / f"{slot.name}.jsonl"
        n = len(slot.sizes) * slot.count
        argv = ["simulate", slot.cfg_file, "--json", "--output", out]
        if slot.sizes != DEFAULT_SIZES:
            argv += ["--sizes", ",".join(map(str, slot.sizes))]
        if slot.count != DEFAULT_COUNT:
            argv += ["--count", slot.count]
        sim = bench.json_call("simulate", argv, samples=n)
        ref = self._session_ref(slot, out)
        est_ref = oracle.check_estimate(f"simulate {slot.name}", sim, ref["points"])
        expect(oracle.close(sim["ground_truth_bps"], slot.truth_bps),
               f"simulate {slot.name}: ground truth {sim['ground_truth_bps']}")
        expect(oracle.close(sim["fixed_overhead_s"], slot.truth_a),
               f"simulate {slot.name}: overhead {sim['fixed_overhead_s']}")
        self._check_truth(f"simulate {slot.name}", slot, est_ref)

        est = bench.json_call("estimate", ["estimate", out, "--json"], samples=n)
        oracle.check_estimate(f"estimate {slot.name}", est, ref["points"])

        self.estimate_csv(bench, slot.name, slot.csv_file, slot.csv_points, slot)
        self.stats(bench, slot.name, out, ref, n)
        return None if est is None else est["intercept_s"]

    def estimate_csv(self, bench, label, csv_file, points, slot: Optional[SimSlot]):
        rows = sum(p[2] for p in points)
        est = bench.json_call("estimate_csv", ["estimate", csv_file, "--json",
                                               "--lost-column", "lost"], samples=rows)
        est_ref = oracle.check_estimate(f"estimate csv {label}", est, points)
        if slot is not None:
            self._check_truth(f"estimate csv {label}", slot, est_ref)

    def stats(self, bench, label, session_file, ref, n: int) -> None:
        summary = bench.json_call("stats", ["stats", session_file, "--json"], samples=n)
        expect(summary is not None, f"stats {label}: exit 3")
        oracle.check_summary(f"stats {label}", summary, ref["summary"])
        series_file = bench.work / f"{label}.series.csv"
        code, text = bench.call("stats_series", ["stats", session_file, "--series",
                                                 "--window", WINDOW, "--output", series_file],
                                samples=n)
        stamps, jitter = ref["series"]
        expect(code == 0 and text == f"series: {series_file} ({len(stamps)} windows)\n",
               f"stats --series {label}: exit {code}, output {text!r}")
        oracle.check_series(f"stats --series {label}", series_file, stamps, jitter)

    def calibrate(self, bench, rows, tolerance: float) -> None:
        obs_file = bench.work / "observations.csv"
        write_observations(obs_file, rows)
        model = bench.json_call("calibrate", ["calibrate", obs_file, "--json",
                                              "--output", bench.work / "intercept-model.json"])
        expect(model is not None, "calibrate: exit 3")
        alpha, beta = oracle.normal_equations([(n, l, a) for _, n, l, a in rows])
        for key, want, truth in (("alpha_s_per_hop", alpha, ALPHA_S_PER_HOP),
                                 ("beta_s_per_km", beta, BETA_S_PER_KM)):
            expect(oracle.close(model[key], want),
                   f"calibrate: {key} {model[key]} != normal equations {want}")
            expect(abs(model[key] - truth) <= tolerance * truth,
                   f"calibrate: {key} {model[key]} does not recover {truth}")
        expect(model["n_observations"] == len(rows), "calibrate: observation count")

    def probe(self, bench, label: str) -> tuple:
        """One probe session of the CLI's default shape against the instant
        echo; returns the session file, its parsed columns and its per-size
        minima."""
        out = bench.work / f"{label}.jsonl"
        count = DEFAULT_COUNT
        argv = ["probe", PROBE_TARGET, "--method", "icmp_echo", "--count", count,
                "--gap", PROBE_GAP_S, "--timeout", "0.5", "--json", "--output", out]
        result = bench.json_call("probe", argv, probes=len(PROBE_PAYLOADS) * count)
        echoes = bench.echo.take()
        expect(len(echoes) == 1, f"probe: {len(echoes)} sockets opened")
        session = oracle.read_session(out)
        total = len(PROBE_PAYLOADS) * count
        expect(session.n == total and result["n_samples"] == total,
               f"probe: {session.n} samples, want {total}")
        expect(result["n_lost"] == 0 and all(d is not None for d in session.rtt_s),
               f"probe: {result['n_lost']} of {total} probes unanswered by an instant echo")
        requests = echoes[0].requests
        expect(len(requests) == total, f"probe: {len(requests)} requests sent, want {total}")
        for i, (payload, wire, packet) in enumerate(zip(session.payload_bytes,
                                                        session.wire_bits, requests)):
            want = PROBE_PAYLOADS[i % len(PROBE_PAYLOADS)]
            expect(payload == want and wire == 8 * (want + oracle.ICMP_OVERHEAD_BYTES),
                   f"probe: sample {i} payload {payload} B, wire {wire} bits")
            expect(len(packet) == 8 + want and packet[0] == 8,
                   f"probe: request {i} is {len(packet)} B of type {packet[0]}")
            expect(oracle.icmp_checksum_ok(packet), f"probe: request {i} has a bad checksum")
        points = oracle.min_profile(session.wire_bits, session.rtt_s)
        oracle.check_estimate("probe", None if "estimate_error" in result else result, points)
        bias_us = (points[-1][1] - points[0][1]) * 1e6
        if bias_us > oracle.SIZE_BIAS_TOLERANCE_US:
            bench.count_failure(
                "probe", f"probe: the minimum RTT grows by {bias_us:.1f} us from {PROBE_PAYLOADS[0]} B "
                f"to {PROBE_PAYLOADS[-1]} B on an echo that adds no delay "
                f"(tolerance {oracle.SIZE_BIAS_TOLERANCE_US} us)")
        return out, session, points

    # -- helpers ------------------------------------------------------------

    def _session_ref(self, slot: SimSlot, out: Path) -> dict:
        """Reference figures of a simulated session. The same path, sizes and
        seed must give the same bytes every round, so they are computed once."""
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if slot.digest is not None:
            expect(digest == slot.digest, f"simulate {slot.name}: same seed, different bytes")
            return slot.ref
        session = oracle.read_session(out)
        expect(session.n == len(slot.sizes) * slot.count, f"simulate {slot.name}: sample count")
        expect(set(session.wire_bits) == {8 * s for s in slot.sizes},
               f"simulate {slot.name}: wire sizes {sorted(set(session.wire_bits))}")
        expect(all(p * 8 == w for p, w in zip(session.payload_bytes, session.wire_bits)),
               f"simulate {slot.name}: payload and wire sizes disagree")
        slot.digest = digest
        slot.ref = reference_figures(session)
        return slot.ref

    def _check_truth(self, label, slot: SimSlot, est_ref) -> None:
        expect(est_ref is not None, f"{label}: no estimate")
        b, a = est_ref
        if not slot.noisy:
            expect(oracle.close(b, slot.truth_bps), f"{label}: B {b} != 1/sum(1/C) {slot.truth_bps}")
            expect(oracle.close(a, slot.truth_a), f"{label}: a {a} != sum(prop+proc) {slot.truth_a}")
        elif slot.b_tolerance is not None:
            expect(abs(b - slot.truth_bps) <= slot.b_tolerance * slot.truth_bps,
                   f"{label}: B {b} not within {slot.b_tolerance:.0%} of {slot.truth_bps}")


def reference_figures(session: oracle.Session) -> dict:
    return {
        "points": oracle.min_profile(session.wire_bits, session.rtt_s),
        "summary": oracle.summary(session.rtt_s),
        "series": oracle.jitter_windows(session.sent_at_us, session.rtt_s, WINDOW),
    }


class BulkSession(Workload):
    """A few long sessions; one per round, in turn."""

    name = "bulk_session"
    PROBE_SESSIONS = 4

    def setup(self, work: Path) -> None:
        count = 300 if self.smoke else 10_000
        self.slots = [bulk_path(self.seed, k, count) for k in range(3)]
        for slot in self.slots:
            slot.write_inputs(work, self.seed)
        rng = np.random.default_rng(_seed_stream(self.seed, "bulk-observations"))
        size = 200 if self.smoke else 5_000
        hops = rng.integers(1, 31, size)
        route = rng.uniform(10.0, 10_000.0, size).round(3)
        noise = rng.normal(0.0, 20e-6, size)
        self.observations = [
            (f"p{i}", int(n), float(l), ALPHA_S_PER_HOP * int(n) + BETA_S_PER_KM * float(l) + float(e))
            for i, (n, l, e) in enumerate(zip(hops, route, noise))
        ]

    def round(self, bench, r: int) -> None:
        self.session_mix(bench, self.slots[r % len(self.slots)])
        self.calibrate(bench, self.observations, NOISY_MODEL_TOLERANCE)
        for _ in range(self.probe_sessions()):
            self.probe(bench, "probe")


class PathFleet(Workload):
    """Many short sessions; every path in each round, then one calibrate."""

    name = "path_fleet"
    PROBE_SESSIONS = 2

    def setup(self, work: Path) -> None:
        rng = random.Random(_seed_stream(self.seed, "fleet"))
        self.slots = []
        for i in range(6 if self.smoke else 24):
            # every fourth path probes at 3 or 4 sizes, so the regression runs
            sizes = DEFAULT_SIZES if i % 4 else ((100, 600, 1124), (100, 400, 800, 1124))[i // 4 % 2]
            self.slots.append(fleet_path(rng, f"path{i:02d}", noisy=bool(i % 2), sizes=sizes))
        for slot in self.slots:
            slot.write_inputs(work, self.seed)

    def round(self, bench, r: int) -> None:
        rows = []
        for slot in self.slots:
            a = self.session_mix(bench, slot)
            if not slot.noisy:
                rows.append((slot.name, slot.hops, slot.route_km, a))
        # noise-free paths only: their recovered intercepts are exact, so the
        # fit must give back the generating alpha and beta
        self.calibrate(bench, rows, 1e-6)
        for _ in range(self.probe_sessions()):
            self.probe(bench, "probe")


class IcmpInstantEcho(Workload):
    """Default probe sessions against the instant echo, each followed by the
    session mix on its own file; one small simulate and calibrate a round."""

    name = "icmp_instant_echo"
    PROBE_SESSIONS = 4

    def setup(self, work: Path) -> None:
        rng = random.Random(_seed_stream(self.seed, "echo-paths"))
        self.slots = [fleet_path(rng, f"sim{i}", noisy=False, sizes=DEFAULT_SIZES)
                      for i in range(4)]
        for slot in self.slots:
            slot.write_inputs(work, self.seed)
        model_paths = [fleet_path(rng, f"m{i}", noisy=False, sizes=DEFAULT_SIZES)
                       for i in range(12)]
        self.observations = [(s.name, s.hops, s.route_km, s.truth_a) for s in model_paths]

    def round(self, bench, r: int) -> None:
        work = bench.work
        for k in range(self.probe_sessions()):
            label = f"probe{k}"
            out, session, points = self.probe(bench, label)
            n = session.n
            est = bench.json_call("estimate", ["estimate", out, "--json"], samples=n)
            oracle.check_estimate(f"estimate {label}", est, points)
            csv_file = work / f"{label}.csv"
            oracle.write_delay_csv(csv_file, session.wire_bits, session.rtt_s)
            self.estimate_csv(bench, label, csv_file,
                              oracle.min_profile(*oracle.read_delay_csv(csv_file)), None)
            self.stats(bench, label, out, reference_figures(session), n)
        slot = self.slots[r % len(self.slots)]
        out = work / f"{slot.name}.jsonl"
        sim = bench.json_call("simulate", ["simulate", slot.cfg_file, "--json", "--output", out],
                              samples=len(slot.sizes) * slot.count)
        ref = self._session_ref(slot, out)
        est_ref = oracle.check_estimate(f"simulate {slot.name}", sim, ref["points"])
        self._check_truth(f"simulate {slot.name}", slot, est_ref)
        self.calibrate(bench, self.observations, 1e-6)


WORKLOADS = {w.name: w for w in (BulkSession, PathFleet, IcmpInstantEcho)}
