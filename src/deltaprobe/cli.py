"""Command-line interface: probe, estimate, simulate, calibrate, stats.

Exit codes: 0 success, 1 internal/environment error, 2 target unreachable,
3 estimation or statistics failure, 64 usage error, 65 malformed input data.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import uuid
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from . import estimator, intercept, probe, simulator, stats, store
from .errors import (
    AllProbesLost,
    ConfigError,
    CorruptLine,
    DelayNotAboveIntercept,
    EmptyFile,
    EqualSizes,
    InsufficientObservations,
    InsufficientPoints,
    InsufficientSamples,
    MissingColumn,
    NonFiniteModel,
    NonPositiveDelayDifference,
    NonPositiveSlope,
    NoReply,
    NoSamples,
    NoUsableSizes,
    ProbePermissionError,
    RankDeficient,
    ResolveFailure,
    SchemaMismatch,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_UNREACHABLE = 2
EXIT_ESTIMATION = 3
EXIT_USAGE = 64
EXIT_DATA = 65

_ESTIMATION_ERRORS = (
    NoUsableSizes, EqualSizes, NonPositiveDelayDifference, DelayNotAboveIntercept,
    InsufficientPoints, NonPositiveSlope, RankDeficient, InsufficientObservations,
    NonFiniteModel, NoSamples, InsufficientSamples,
)
_DATA_ERRORS = (SchemaMismatch, CorruptLine, MissingColumn, EmptyFile, ConfigError,
                probe.InvalidSample)
_ENV_ERRORS = (ResolveFailure, ProbePermissionError, NoReply)

# Deterministic stand-in for wall-clock time in simulated sessions, so equal
# seed and config give byte-identical files.
_EPOCH_ISO = "1970-01-01T00:00:00+00:00"


class UsageError(Exception):
    pass


@dataclass
class CliConfig:
    """Built-in defaults, overridable by a config file, then by flags."""

    sizes: tuple[int, ...] = probe.DEFAULT_SIZES
    count: int = 30
    gap: float = 0.05
    timeout: float = 2.0
    method: str = probe.METHOD_ICMP
    udp_port: int = probe.DEFAULT_UDP_PORT
    format: str = "text"
    min_samples: int = 1
    seed: Optional[int] = None  # None: keep the path config's own seed


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad size list {text!r}: {exc}") from exc


def load_config_file(path) -> dict:
    """Parse key=value lines; '#' starts a comment."""
    values = {}
    field_types = {f.name: f.type for f in fields(CliConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in field_types:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                if key == "sizes":
                    values[key] = tuple(int(p) for p in value.split(","))
                elif key in ("count", "udp_port", "min_samples", "seed"):
                    values[key] = int(value)
                elif key in ("gap", "timeout"):
                    values[key] = float(value)
                else:
                    values[key] = value
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: {exc}") from exc
    return values


def _resolve_config(args) -> CliConfig:
    cfg = CliConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config))
    if getattr(args, "json", False):
        cfg = replace(cfg, format="json")
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def format_bitrate(bps: float) -> str:
    """Human bit rate with SI suffix, 4 significant digits."""
    for scale, suffix in ((1e9, "Gbit/s"), (1e6, "Mbit/s"), (1e3, "kbit/s")):
        if bps >= scale:
            return f"{bps / scale:.4g} {suffix}"
    return f"{bps:.4g} bit/s"


def _format_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _estimate_to_json(est: estimator.BandwidthEstimate, profile: estimator.DelayProfile) -> dict:
    return {
        "b_av_bps": est.b_av_bps,
        "intercept_s": est.intercept_s,
        "residual_rms_s": est.residual_rms_s,
        "method": est.method,
        "warnings": list(est.warnings),
        "n_sizes": len(profile.points),
        "samples_per_size": {str(k): v for k, v in profile.samples_per_size.items()},
        "dropped_sizes": list(profile.dropped_sizes),
    }


def _print_estimate(est: estimator.BandwidthEstimate) -> None:
    print(
        f"B_av = {format_bitrate(est.b_av_bps)}, a = {_format_ms(est.intercept_s)}"
        f" ({est.b_av_bps} bps)"
    )
    print(f"method = {est.method}, residual_rms = {_format_ms(est.residual_rms_s)}")
    for warning in est.warnings:
        print(f"warning: {warning}")


def _estimate_profile(profile: estimator.DelayProfile) -> estimator.BandwidthEstimate:
    if len(profile.points) < 2:
        raise NoUsableSizes(
            f"only {len(profile.points)} usable size(s); need at least 2 "
            f"(dropped: {list(profile.dropped_sizes) or 'none'})"
        )
    if len(profile.points) == 2:
        return estimator.estimate_pairwise(*profile.points)
    return estimator.estimate_regression(profile)


def _load_samples(args, cfg: CliConfig) -> probe.SampleBatch:
    if str(args.input).endswith(".csv"):
        mapping = {
            "size": args.size_column,
            "size_unit": args.size_unit,
            "delay": args.delay_column,
            "timestamp": args.timestamp_column,
            "lost": args.lost_column,
        }
        return store.import_csv(args.input, mapping)
    return store.load_session(args.input).samples


def cmd_probe(args, cfg: CliConfig) -> int:
    """Probe a live target and persist the session."""
    try:
        plan = probe.ProbePlan(
            target=args.target,
            sizes_payload_bytes=_parse_sizes(args.sizes) if args.sizes else cfg.sizes,
            count_per_size=args.count if args.count is not None else cfg.count,
            inter_probe_gap_s=args.gap if args.gap is not None else cfg.gap,
            timeout_s=args.timeout if args.timeout is not None else cfg.timeout,
            method=args.method or cfg.method,
            udp_port=args.udp_port if args.udp_port is not None else cfg.udp_port,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    samples = probe.run_session(plan)

    features = None
    if args.hop_count is not None or args.discover_hops:
        hop_count = args.hop_count
        if hop_count is None:
            hop_count = probe.discover_hops(plan.target)
        features = intercept.PathFeatures(
            path_id=plan.target,
            hop_count_n=hop_count,
            route_length_l_km=args.route_km or 0.0,
        )

    session_id = uuid.uuid4().hex[:16]
    record = store.SessionRecord(
        session_id=session_id,
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        plan=plan,
        samples=samples,
        features=features,
    )
    out_path = args.output or f"session-{session_id}.jsonl"
    store.save_session(record, out_path)

    n_lost = int(samples.lost.sum())
    # The session is the product; a summary estimate can legitimately be
    # undefined (e.g. loopback, where the delay-size slope is pure noise).
    est = profile = None
    estimate_error = None
    try:
        profile = estimator.min_delay_profile(samples, max(1, cfg.min_samples))
        est = _estimate_profile(profile)
    except _ESTIMATION_ERRORS as exc:
        estimate_error = f"{type(exc).__name__}: {exc}"

    if cfg.format == "json":
        payload = _estimate_to_json(est, profile) if est else {"estimate_error": estimate_error}
        payload.update({
            "session_file": str(out_path),
            "session_id": session_id,
            "n_samples": len(samples),
            "n_lost": n_lost,
        })
        print(json.dumps(payload))
    else:
        print(f"session: {out_path} ({len(samples)} samples, {n_lost} lost)")
        if features is not None:
            print(f"hops = {features.hop_count_n}, route = {features.route_length_l_km} km")
        if est is not None:
            _print_estimate(est)
        else:
            print(f"estimate unavailable: {estimate_error}")
    return EXIT_OK


def cmd_estimate(args, cfg: CliConfig) -> int:
    """Estimate bandwidth from a stored session or a CSV of delays."""
    threshold = args.min_samples if args.min_samples is not None else cfg.min_samples
    if threshold < 1:
        raise UsageError(f"--min-samples must be >= 1, got {threshold}")
    samples = _load_samples(args, cfg)
    if not len(samples):
        raise NoSamples(f"{args.input}: no samples")
    if args.one_way_halve:
        # Delays are round-trip by default; halving assumes a symmetric path.
        print("warning: --one-way-halve assumes a symmetric path; "
              "delays divided by 2", file=sys.stderr)
        samples = samples.replace(rtt_s=samples.rtt_s / 2)
    profile = estimator.min_delay_profile(samples, threshold)
    est = _estimate_profile(profile)
    if cfg.format == "json":
        payload = _estimate_to_json(est, profile)
        payload["one_way_halve"] = bool(args.one_way_halve)
        print(json.dumps(payload))
    else:
        _print_estimate(est)
    return EXIT_OK


def cmd_simulate(args, cfg: CliConfig) -> int:
    """Run the path simulator and compare the estimate to ground truth."""
    path = simulator.load_path_file(args.path_config)
    if cfg.seed is not None:
        path = simulator.SimPath(hops=path.hops, seed=cfg.seed)
    sizes_bytes = _parse_sizes(args.sizes) if args.sizes else cfg.sizes
    sizes_bits = tuple(8 * s for s in sizes_bytes)
    count = args.count if args.count is not None else cfg.count

    samples = simulator.run_experiment(path, sizes_bits, count)

    digest_src = store._dump({
        "plan": store._plan_to_json(path),
        "sizes": list(sizes_bits),
        "count": count,
    })
    session_id = "sim-" + hashlib.sha256(digest_src.encode()).hexdigest()[:16]
    record = store.SessionRecord(
        session_id=session_id,
        created_at=_EPOCH_ISO,
        plan=path,
        samples=samples,
        extra={"rng": simulator.RNG_ALGORITHM},
    )
    out_path = args.output or f"{session_id}.jsonl"
    store.save_session(record, out_path)

    truth = simulator.ground_truth_rate(path)
    overhead = simulator.fixed_overhead(path)
    profile = estimator.min_delay_profile(samples, max(1, min(cfg.min_samples, count)))
    est = _estimate_profile(profile)
    if cfg.format == "json":
        payload = _estimate_to_json(est, profile)
        payload.update({
            "ground_truth_bps": truth,
            "fixed_overhead_s": overhead,
            "session_file": str(out_path),
            "session_id": session_id,
        })
        print(json.dumps(payload))
    else:
        print(f"session: {out_path} ({len(samples)} samples)")
        print(f"ground truth = {format_bitrate(truth)} ({truth} bps), "
              f"overhead = {_format_ms(overhead)}")
        _print_estimate(est)
    return EXIT_OK


def cmd_calibrate(args, cfg: CliConfig) -> int:
    """Fit the intercept model from an observations CSV."""
    observations = store.read_observations_csv(args.observations)
    model = intercept.fit_intercept_model(
        observations, include_constant=args.with_constant
    )
    model_json = {
        "alpha_s_per_hop": model.alpha_s_per_hop,
        "beta_s_per_km": model.beta_s_per_km,
        "const_s": model.const_s,
        "residual_rms_s": model.residual_rms_s,
        "n_observations": model.n_observations,
    }
    out_path = args.output or "intercept-model.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(model_json, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if cfg.format == "json":
        print(json.dumps({**model_json, "model_file": str(out_path)}, allow_nan=False))
    else:
        print(f"alpha = {model.alpha_s_per_hop * 1e3:.6f} ms/hop")
        print(f"beta  = {model.beta_s_per_km * 1e3:.6f} ms/km")
        if args.with_constant:
            print(f"const = {model.const_s * 1e3:.6f} ms")
        print(f"residual_rms = {_format_ms(model.residual_rms_s)} "
              f"over {model.n_observations} paths")
        print(f"model: {out_path}")
    return EXIT_OK


def cmd_stats(args, cfg: CliConfig) -> int:
    """Summarize delays of a stored session."""
    if args.series and args.window < 2:
        raise UsageError(f"--window must be >= 2, got {args.window}")
    record = store.load_session(args.input)
    summary = stats.summarize(record.samples)
    if args.series:
        series = stats.jitter_series(record.samples, args.window)
        lines = ["sent_at_us,jitter_s"]
        lines += [f"{ts},{jitter!r}" for ts, jitter in series]
        text = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"series: {args.output} ({len(series)} windows)")
        else:
            print(text, end="")
        return EXIT_OK

    if cfg.format == "json":
        print(json.dumps({
            "n_total": summary.n_total,
            "n_lost": summary.n_lost,
            "mean_s": summary.mean_s,
            "lower_2_5_s": summary.lower_2_5_s,
            "upper_97_5_s": summary.upper_97_5_s,
            "jitter_s": summary.jitter_s,
            "loss_rate": summary.loss_rate,
        }))
    else:
        print(f"samples = {summary.n_total}, lost = {summary.n_lost} "
              f"(loss rate {summary.loss_rate:.2%})")
        if summary.mean_s is None:
            print("no delays: every sample was lost")
        else:
            print(f"mean = {_format_ms(summary.mean_s)} ({summary.mean_s} s)")
            print(f"bounds (2.5%/97.5%) = {_format_ms(summary.lower_2_5_s)} / "
                  f"{_format_ms(summary.upper_97_5_s)} "
                  f"({summary.lower_2_5_s} s / {summary.upper_97_5_s} s)")
            print(f"jitter = {_format_ms(summary.jitter_s)} ({summary.jitter_s} s)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_parser = None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared after
    it: parsing leaves no state in it, and building it costs about as much
    as a small command."""
    global _parser
    if _parser is None:
        _parser = _make_parser()
    return _parser


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key=value config file")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, metavar="U64", help="RNG seed override")
    common.add_argument("--output", metavar="FILE", help="output file path")

    parser = _Parser(
        prog="deltaprobe",
        description="Available-bandwidth estimation from delays of "
                    "different-size probe packets",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("probe", parents=[common], help="probe a live target")
    p.add_argument("target", help="host name or IPv4 address")
    p.add_argument("--sizes", metavar="B1,B2,...", help="payload sizes in bytes (default 100,1124)")
    p.add_argument("--count", type=int, metavar="N", help="probes per size (default 30)")
    p.add_argument("--gap", type=float, metavar="SEC", help="inter-probe gap (default 0.05)")
    p.add_argument("--timeout", type=float, metavar="SEC", help="per-probe timeout (default 2.0)")
    p.add_argument("--method", choices=[probe.METHOD_ICMP, probe.METHOD_UDP],
                   help="echo method (default icmp_echo)")
    p.add_argument("--udp-port", type=int, metavar="PORT", help="reflector port for udp_echo")
    p.add_argument("--hop-count", type=int, metavar="N", help="attach a known hop count")
    p.add_argument("--discover-hops", action="store_true",
                   help="discover the hop count by TTL probing")
    p.add_argument("--route-km", type=float, metavar="KM",
                   help="attach the route length in kilometers")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("estimate", parents=[common],
                       help="estimate from a session file or CSV")
    p.add_argument("input", help="session .jsonl or .csv file")
    p.add_argument("--min-samples", type=int, metavar="N",
                   help="minimum non-lost samples per size (default 1)")
    p.add_argument("--one-way-halve", action="store_true",
                   help="halve delays to approximate one-way (assumes symmetry)")
    p.add_argument("--size-column", default="size_bytes", metavar="COL")
    p.add_argument("--size-unit", choices=["bytes", "bits"], default="bytes")
    p.add_argument("--delay-column", default="delay_s", metavar="COL")
    p.add_argument("--timestamp-column", default=None, metavar="COL")
    p.add_argument("--lost-column", default=None, metavar="COL")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", parents=[common],
                       help="run the path simulator against ground truth")
    p.add_argument("path_config", help="path configuration JSON file")
    p.add_argument("--sizes", metavar="B1,B2,...", help="wire sizes in bytes (default 100,1124)")
    p.add_argument("--count", type=int, metavar="N", help="probes per size (default 30)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", parents=[common],
                       help="fit the intercept model from observations")
    p.add_argument("observations", help="CSV with columns path_id,n,l_km,a_s")
    p.add_argument("--with-constant", action="store_true",
                   help="add an affine constant term (off by default)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("stats", parents=[common], help="summarize a session")
    p.add_argument("input", help="session .jsonl file")
    p.add_argument("--series", action="store_true", help="emit a jitter time series (CSV)")
    p.add_argument("--window", type=int, default=10, metavar="N",
                   help="jitter window size (default 10)")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = _resolve_config(args)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"deltaprobe: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AllProbesLost as exc:
        print(f"deltaprobe: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except _ESTIMATION_ERRORS as exc:
        print(f"deltaprobe: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except _DATA_ERRORS as exc:
        print(f"deltaprobe: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _ENV_ERRORS as exc:
        print(f"deltaprobe: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"deltaprobe: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
