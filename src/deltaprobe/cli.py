"""Command-line interface: probe, estimate, simulate, calibrate, stats.

Exit codes: 0 success, 1 internal/environment error, 2 target unreachable,
3 estimation or statistics failure, 64 usage error, 65 malformed input data.
Each error of the package carries its code as `exit_code`, set by its
category in `errors`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import uuid
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from typing import Optional

from . import errors, estimator, intercept, probe, simulator, stats, store

_METHODS = (probe.METHOD_ICMP, probe.METHOD_UDP)
_FORMATS = ("text", "json")

# Deterministic stand-in for wall-clock time in simulated sessions, so equal
# seed and config give byte-identical files.
_EPOCH_ISO = "1970-01-01T00:00:00+00:00"


def size_list(text: str) -> tuple[int, ...]:
    """Comma-separated sizes, as --sizes and sizes= take them."""
    return tuple(int(part) for part in text.split(","))


def _setting(default, parse, ok, rule: str):
    """A CliConfig field. `parse` reads its value from config-file text, and
    a value from a flag or a config file must satisfy `ok`, worded `rule`."""
    return field(default=default, metadata={"parse": parse, "ok": ok, "rule": rule})


@dataclass
class CliConfig:
    """Built-in defaults, overridable by a config file, then by flags."""

    sizes: tuple[int, ...] = _setting(
        probe.DEFAULT_SIZES, size_list,
        lambda sizes: min(sizes) > 0 and len(set(sizes)) == len(sizes), "positive and distinct")
    count: int = _setting(30, int, lambda n: n >= 1, "at least 1")
    gap: float = _setting(0.05, float, lambda s: 0 < s < math.inf, "positive and finite")
    timeout: float = _setting(2.0, float, lambda s: 0 < s < math.inf, "positive and finite")
    method: str = _setting(probe.METHOD_ICMP, str, _METHODS.__contains__,
                           "one of " + ", ".join(_METHODS))
    udp_port: int = _setting(probe.DEFAULT_UDP_PORT, int, lambda p: 0 < p < 65536,
                             "in 1..65535")
    format: str = _setting("text", str, _FORMATS.__contains__, "one of " + ", ".join(_FORMATS))
    min_samples: int = _setting(1, int, lambda n: n >= 1, "at least 1")
    # None keeps the path config's own seed
    seed: Optional[int] = _setting(None, int, lambda n: 0 <= n < 2**64, "in 0..2**64-1")


def _checked(setting, value, error, where: str):
    """`value`, if it keeps the rule of `setting`; else raises `error`."""
    if not setting.metadata["ok"](value):
        raise error(f"{where} must be {setting.metadata['rule']}, got {value!r}")
    return value


def load_config_file(path) -> dict:
    """Parse key=value lines; '#' starts a comment. Each value is read and
    checked as its CliConfig field says, and ConfigError names a bad line."""
    settings = {f.name: f for f in fields(CliConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            if "=" not in line:
                raise errors.ConfigError(f"{where}: expected key=value, got {line!r}")
            key, _, text = (part.strip() for part in line.partition("="))
            if key not in settings:
                raise errors.ConfigError(f"{where}: unknown key {key!r}")
            try:
                value = settings[key].metadata["parse"](text)
            except ValueError as exc:
                raise errors.ConfigError(f"{where}: {key}: {exc}") from exc
            values[key] = _checked(settings[key], value, errors.ConfigError, f"{where}: {key}")
    return values


def _resolve_config(args) -> CliConfig:
    """Each setting from its flag, else from the --config file, else its
    default. A flag out of its setting's range raises UsageError."""
    values = load_config_file(args.config) if args.config else {}
    for setting in fields(CliConfig):
        flag = getattr(args, setting.name, None)
        if flag is not None:
            values[setting.name] = _checked(setting, flag, errors.UsageError,
                                            "--" + setting.name.replace("_", "-"))
    return CliConfig(**values)


def format_bitrate(bps: float) -> str:
    """Human bit rate with SI suffix, 4 significant digits."""
    for scale, suffix in ((1e9, "Gbit/s"), (1e6, "Mbit/s"), (1e3, "kbit/s")):
        if bps >= scale:
            return f"{bps / scale:.4g} {suffix}"
    return f"{bps:.4g} bit/s"


def _format_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _estimate_json(est: estimator.BandwidthEstimate, profile: estimator.DelayProfile) -> dict:
    return {
        **asdict(est),
        "n_sizes": len(profile.sizes_bits),
        "samples_per_size": profile.samples_per_size,
        "dropped_sizes": profile.dropped_sizes,
    }


# json.dumps with the defaults, but refusing NaN and infinities
_STRICT_JSON = json.JSONEncoder(allow_nan=False)


def _print_json(payload: dict) -> None:
    try:
        print(_STRICT_JSON.encode(payload))
    except ValueError as exc:  # a result overflowed float64
        raise errors.EstimationError(f"{exc}: {payload}") from exc


def _print_estimate(est: estimator.BandwidthEstimate) -> None:
    print(
        f"B_av = {format_bitrate(est.b_av_bps)}, a = {_format_ms(est.intercept_s)}"
        f" ({est.b_av_bps} bps)"
    )
    print(f"method = {est.method}, residual_rms = {_format_ms(est.residual_rms_s)}")
    for warning in est.warnings:
        print(f"warning: {warning}")


def cmd_probe(args, cfg: CliConfig) -> None:
    """Probe a live target and persist the session."""
    plan = probe.ProbePlan(
        target=args.target,
        sizes_payload_bytes=cfg.sizes,
        count_per_size=cfg.count,
        inter_probe_gap_s=cfg.gap,
        timeout_s=cfg.timeout,
        method=cfg.method,
        udp_port=cfg.udp_port,
    )

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
    est = estimate_error = None
    try:
        est, profile = estimator.estimate_bandwidth(samples, cfg.min_samples)
    except errors.EstimationError as exc:
        estimate_error = f"{type(exc).__name__}: {exc}"

    if cfg.format == "json":
        _print_json({
            **(_estimate_json(est, profile) if est else {"estimate_error": estimate_error}),
            "session_file": str(out_path),
            "session_id": session_id,
            "n_samples": len(samples),
            "n_lost": n_lost,
        })
    else:
        print(f"session: {out_path} ({len(samples)} samples, {n_lost} lost)")
        if features is not None:
            print(f"hops = {features.hop_count_n}, route = {features.route_length_l_km} km")
        if est is not None:
            _print_estimate(est)
        else:
            print(f"estimate unavailable: {estimate_error}")


def cmd_estimate(args, cfg: CliConfig) -> None:
    """Estimate bandwidth from a stored session or a CSV of delays."""
    if str(args.input).endswith(".csv"):
        samples = store.import_csv(args.input, {
            "size": args.size_column,
            "size_unit": args.size_unit,
            "delay": args.delay_column,
            "timestamp": args.timestamp_column,
            "lost": args.lost_column,
        })
    else:
        samples = store.load_session(args.input).samples
    if args.one_way_halve:
        # Delays are round-trip by default; halving assumes a symmetric path.
        print("warning: --one-way-halve assumes a symmetric path; "
              "delays divided by 2", file=sys.stderr)
        samples = samples.replace(rtt_s=samples.rtt_s / 2)
    est, profile = estimator.estimate_bandwidth(samples, cfg.min_samples)
    if cfg.format == "json":
        _print_json({**_estimate_json(est, profile), "one_way_halve": args.one_way_halve})
    else:
        _print_estimate(est)


def cmd_simulate(args, cfg: CliConfig) -> None:
    """Run the path simulator and compare the estimate to ground truth."""
    path = simulator.load_path_file(args.path_config)
    if cfg.seed is not None:
        path = replace(path, seed=cfg.seed)
    sizes_bits = tuple(8 * s for s in cfg.sizes)

    samples = simulator.run_experiment(path, sizes_bits, cfg.count)

    digest_src = store._dump({
        "plan": store._plan_to_json(path),
        "sizes": list(sizes_bits),
        "count": cfg.count,
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
    est, profile = estimator.estimate_bandwidth(samples, min(cfg.min_samples, cfg.count))
    if cfg.format == "json":
        _print_json({
            **_estimate_json(est, profile),
            "ground_truth_bps": truth,
            "fixed_overhead_s": overhead,
            "session_file": str(out_path),
            "session_id": session_id,
        })
    else:
        print(f"session: {out_path} ({len(samples)} samples)")
        print(f"ground truth = {format_bitrate(truth)} ({truth} bps), "
              f"overhead = {_format_ms(overhead)}")
        _print_estimate(est)


def cmd_calibrate(args, cfg: CliConfig) -> None:
    """Fit the intercept model from an observations CSV."""
    observations = store.read_observations_csv(args.observations)
    model = intercept.fit_intercept_model(
        observations, include_constant=args.with_constant
    )
    model_json = asdict(model)
    out_path = args.output or "intercept-model.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(model_json, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if cfg.format == "json":
        _print_json({**model_json, "model_file": str(out_path)})
    else:
        print(f"alpha = {model.alpha_s_per_hop * 1e3:.6f} ms/hop")
        print(f"beta  = {model.beta_s_per_km * 1e3:.6f} ms/km")
        if args.with_constant:
            print(f"const = {model.const_s * 1e3:.6f} ms")
        print(f"residual_rms = {_format_ms(model.residual_rms_s)} "
              f"over {model.n_observations} paths")
        print(f"model: {out_path}")


def cmd_stats(args, cfg: CliConfig) -> None:
    """Summarize delays of a stored session."""
    if args.series and args.window < 2:
        raise errors.UsageError(f"--window must be >= 2, got {args.window}")
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
        return

    if cfg.format == "json":
        _print_json(asdict(summary))
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(errors.UsageError.exit_code, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared after
    it: parsing leaves no state in it, and building it costs about as much
    as a small command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key=value config file")
    common.add_argument("--json", dest="format", action="store_const", const="json",
                        help="machine-readable output")
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
    p.add_argument("--sizes", type=size_list, metavar="B1,B2,...",
                   help="payload sizes in bytes (default 100,1124)")
    p.add_argument("--count", type=int, metavar="N", help="probes per size (default 30)")
    p.add_argument("--gap", type=float, metavar="SEC", help="inter-probe gap (default 0.05)")
    p.add_argument("--timeout", type=float, metavar="SEC", help="per-probe timeout (default 2.0)")
    p.add_argument("--method", choices=_METHODS,
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
    p.add_argument("--sizes", type=size_list, metavar="B1,B2,...",
                   help="wire sizes in bytes (default 100,1124)")
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
        return exc.code if isinstance(exc.code, int) else errors.UsageError.exit_code
    try:
        args.func(args, _resolve_config(args))
        return 0
    except errors.DeltaProbeError as exc:
        kind = "usage error" if isinstance(exc, errors.UsageError) else type(exc).__name__
        print(f"deltaprobe: {kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"deltaprobe: {exc}", file=sys.stderr)
        return errors.EnvironmentFailure.exit_code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
