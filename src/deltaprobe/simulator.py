"""Deterministic multi-hop path model with known ground truth.

Each hop contributes a size-proportional transmission delay plus fixed
propagation and processing delays; optional cross traffic appears as
additive one-sided exponential queueing delay, and loss is Bernoulli per
hop. Because the noise is one-sided, per-size minimum filtering recovers
the fixed delay, which is exactly affine in the wire size. The inverse of
that affine slope, 1 / sum(1/C_i), is what the size-delta estimators
recover in the noise-free regime and is exposed here as the ground truth.

Same path, sizes, counts, and seed always produce the identical sample
sequence (PCG64 stream, drawn hop by hop for all probes at once).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .probe import METHOD_SIMULATED, SampleBatch

RNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class Hop:
    capacity_bps: float
    propagation_s: float = 0.0
    processing_s: float = 0.0
    queue_noise_mean_s: float = 0.0
    loss_prob: float = 0.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            # JSON true and false would pass every range check below as 1 and 0
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if not 0 < self.capacity_bps < math.inf:
            raise ValueError(f"capacity_bps must be positive and finite, got {self.capacity_bps}")
        for name in ("propagation_s", "processing_s", "queue_noise_mean_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")
        if not 0 <= self.loss_prob < 1:
            raise ValueError(f"loss_prob must be in [0, 1), got {self.loss_prob}")


@dataclass(frozen=True)
class SimPath:
    hops: tuple[Hop, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))
        if not self.hops:
            raise ValueError("path needs at least one hop")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def fixed_delay(path: SimPath, wire_bits: int) -> float:
    """Noise-free end-to-end delay of a packet: affine in wire size."""
    if wire_bits <= 0:
        raise ValueError(f"wire_bits must be positive, got {wire_bits}")
    return sum(
        wire_bits / hop.capacity_bps + hop.propagation_s + hop.processing_s
        for hop in path.hops
    )


def fixed_overhead(path: SimPath) -> float:
    """Size-independent part of the fixed delay: sum of propagation and
    processing over all hops (the true intercept)."""
    return sum(hop.propagation_s + hop.processing_s for hop in path.hops)


def ground_truth_rate(path: SimPath) -> float:
    """Exact inverse of the fixed-delay slope: 1 / sum(1/C_i)."""
    return 1.0 / sum(1.0 / hop.capacity_bps for hop in path.hops)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _traverse(path: SimPath, wire_bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """End-to-end delays of probes of the given wire sizes; NaN where lost.

    Hop by hop, draws one uniform per probe if the hop has loss_prob > 0 and
    then one exponential per probe if it has queue_noise_mean_s > 0, so
    noise-free hops leave the stream untouched. Fixed delays are added in the
    order fixed_delay adds them, so noise-free delays equal it bit for bit.
    """
    delay = np.zeros(len(wire_bits))
    lost = np.zeros(len(wire_bits), dtype=bool)
    for hop in path.hops:
        if hop.loss_prob > 0.0:
            lost |= rng.random(len(wire_bits)) < hop.loss_prob
        delay += wire_bits / hop.capacity_bps + hop.propagation_s + hop.processing_s
        if hop.queue_noise_mean_s > 0.0:
            delay += rng.exponential(hop.queue_noise_mean_s, len(wire_bits))
    delay[lost] = np.nan
    return delay


def simulate_probe(
    path: SimPath, wire_bits: int, rng: np.random.Generator
) -> Optional[float]:
    """One probe through the path; None means the probe was lost."""
    if wire_bits <= 0:
        raise ValueError(f"wire_bits must be positive, got {wire_bits}")
    delay = float(_traverse(path, np.array([wire_bits]), rng)[0])
    return None if math.isnan(delay) else delay


def run_experiment(
    path: SimPath,
    sizes: Sequence[int],
    count_per_size: int,
    *,
    path_id: str = "sim",
) -> SampleBatch:
    """Emit count_per_size probes per wire size in round-robin order.

    One RNG stream seeded from path.seed drives the whole experiment, so the
    output is a pure function of (path, sizes, count_per_size). The samples
    feed directly into estimator.min_delay_profile.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("at least one size required")
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"sizes must be distinct, got {sizes}")
    if any(s < 8 for s in sizes):
        raise ValueError("wire sizes below 8 bits cannot carry a payload byte")
    if count_per_size < 1:
        raise ValueError("count_per_size must be >= 1")

    wire_bits = np.tile(np.array(sizes, dtype=np.int64), count_per_size)
    seq = np.arange(len(wire_bits))
    return SampleBatch(
        path_id=path_id,
        method=METHOD_SIMULATED,
        seq=seq,
        payload_bytes=wire_bits // 8,
        wire_bits=wire_bits,
        sent_at_us=seq * 1000,  # synthetic 1 ms send spacing
        rtt_s=_traverse(path, wire_bits, make_rng(path.seed)),
    )


def path_from_config(config: dict) -> SimPath:
    """Build a SimPath from its JSON object form:
    {"seed": u64, "hops": [{"capacity_bps": ..., ...}]}."""
    if not isinstance(config, dict):
        raise ConfigError(f"path config must be an object, got {type(config).__name__}")
    hops_cfg = config.get("hops")
    if not isinstance(hops_cfg, list) or not hops_cfg:
        raise ConfigError('path config needs a non-empty "hops" array')
    hops = []
    for i, hop_cfg in enumerate(hops_cfg):
        # Hop(**...) refuses a hop that is not an object, lacks capacity_bps
        # or has a key Hop does not know, with a TypeError naming it
        try:
            hops.append(Hop(**hop_cfg))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"hop {i}: {exc}") from exc
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    try:
        return SimPath(hops=tuple(hops), seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_path_file(path) -> SimPath:
    """Read a path configuration JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ConfigError(f"{path}: {exc}") from exc
    return path_from_config(config)
