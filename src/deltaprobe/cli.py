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
from dataclasses import dataclass, field, fields, replace
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

    # 65535 bytes is the largest IPv4 packet
    sizes: tuple[int, ...] = _setting(
        probe.ProbePlan.sizes_payload_bytes, size_list,
        lambda sizes: 0 < min(sizes) <= max(sizes) <= 65535 and len(set(sizes)) == len(sizes),
        "positive and distinct, each at most 65535 bytes")
    count: int = _setting(probe.ProbePlan.count_per_size, int, lambda n: n >= 1, "at least 1")
    gap: float = _setting(probe.ProbePlan.inter_probe_gap_s, float, lambda s: 0 < s < math.inf,
                          "positive and finite")
    timeout: float = _setting(probe.ProbePlan.timeout_s, float, lambda s: 0 < s < math.inf,
                              "positive and finite")
    method: str = _setting(probe.ProbePlan.method, str, _METHODS.__contains__,
                           "one of " + ", ".join(_METHODS))
    udp_port: int = _setting(probe.ProbePlan.udp_port, int, lambda p: 0 < p < 65536,
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
    with open(path, "rb") as fh:
        # split as a text-mode file splits, so the line numbers agree
        lines = (line for chunk in fh for line in chunk.splitlines())
        for line_no, raw in enumerate(lines, start=1):
            where = f"{path}:{line_no}"
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                raise errors.ConfigError(f"{where}: invalid UTF-8 at byte {exc.start}") from exc
            if not line:
                continue
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


# json.dumps with the defaults, but refusing NaN and infinities
_STRICT_JSON = json.JSONEncoder(allow_nan=False)


def _print_json(payload: dict) -> None:
    try:
        print(_STRICT_JSON.encode(payload))
    except ValueError as exc:  # a result overflowed float64
        raise errors.EstimationError(f"{exc}: {payload}") from exc


def _print_report(cfg: CliConfig, report: Optional[estimator.EstimateReport],
                  lines=(), **keys) -> None:
    """Print an estimate `report`, None when there is none, after a command's
    own text `lines`, or as JSON before the command's own `keys`."""
    if cfg.format == "json":
        _print_json({**(report.to_json() if report is not None else {}), **keys})
        return
    for line in lines:
        print(line)
    if report is not None:
        est = report.estimate
        print(f"B_av = {format_bitrate(est.b_av_bps)}, a = {_format_ms(est.intercept_s)}"
              f" ({est.b_av_bps} bps)")
        print(f"method = {est.method}, residual_rms = {_format_ms(est.residual_rms_s)}")
        for warning in est.warnings:
            print(f"warning: {warning}")


def cmd_probe(args, cfg: CliConfig) -> None:
    """Probe a live target and persist the session."""
    # built first: a plan the engine cannot run costs no hop discovery
    plan = probe.ProbePlan(
        target=args.target,
        sizes_payload_bytes=cfg.sizes,
        count_per_size=cfg.count,
        inter_probe_gap_s=cfg.gap,
        timeout_s=cfg.timeout,
        method=cfg.method,
        udp_port=cfg.udp_port,
    )

    # checked before the session is sent: a refused flag costs no session
    features = None
    wants_features = args.hop_count is not None or args.discover_hops
    if args.route_km is not None and not wants_features:
        raise errors.UsageError("--route-km needs --hop-count or --discover-hops")
    if wants_features:
        hop_count = probe.discover_hops(plan.target) if args.discover_hops else args.hop_count
        try:
            features = intercept.PathFeatures(
                path_id=plan.target,
                hop_count_n=hop_count,
                route_length_l_km=args.route_km or 0.0,
            )
        except ValueError as exc:
            raise errors.UsageError(f"--hop-count or --route-km: {exc}") from exc

    samples = probe.run_session(plan)

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
    lines = [f"session: {out_path} ({len(samples)} samples, {n_lost} lost)"]
    if features is not None:
        lines.append(f"hops = {features.hop_count_n}, route = {features.route_length_l_km} km")
    # The session is the product; a summary estimate can legitimately be
    # undefined (e.g. loopback, where the delay-size slope is pure noise).
    try:
        report, unavailable = estimator.estimate_bandwidth(samples, cfg.min_samples), {}
    except errors.EstimationError as exc:
        report, unavailable = None, {"estimate_error": f"{type(exc).__name__}: {exc}"}
        lines.append(f"estimate unavailable: {unavailable['estimate_error']}")
    _print_report(cfg, report, lines, **unavailable, session_file=str(out_path),
                  session_id=session_id, n_samples=len(samples), n_lost=n_lost)


# import_csv's keywords and defaults, for the flags of `estimate` that only
# a CSV input reads; taken at import, before a caller can wrap import_csv
_CSV_DEFAULTS = dict(store.import_csv.__kwdefaults__)


def cmd_estimate(args, cfg: CliConfig) -> None:
    """Estimate bandwidth from a stored session or a CSV of delays."""
    # a keyword without a flag reads None here and keeps its default
    given = {name: getattr(args, name) for name in _CSV_DEFAULTS
             if getattr(args, name, None) is not None}
    if str(args.input).lower().endswith(".csv"):
        samples = store.import_csv(args.input, **given)
    elif given:
        flag = "--" + next(iter(given)).replace("_", "-")
        raise errors.UsageError(f"{flag} applies only to a .csv input")
    else:
        samples = store.load_session(args.input).samples
    if args.one_way_halve:
        # Delays are round-trip by default; halving assumes a symmetric path.
        print("warning: --one-way-halve assumes a symmetric path; "
              "delays divided by 2", file=sys.stderr)
        samples = samples.replace(rtt_s=samples.rtt_s / 2)
    report = estimator.estimate_bandwidth(samples, cfg.min_samples)
    _print_report(cfg, report, one_way_halve=args.one_way_halve)


def cmd_simulate(args, cfg: CliConfig) -> None:
    """Run the path simulator and compare the estimate to ground truth."""
    path = simulator.load_path_file(args.path_config)
    if cfg.seed is not None:
        path = replace(path, seed=cfg.seed)
    sizes_bits = tuple(8 * s for s in cfg.sizes)

    samples = simulator.run_experiment(path, sizes_bits, cfg.count)

    digest_src = store.dump_line({
        "plan": store.plan_to_json(path),
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
    report = estimator.estimate_bandwidth(samples, min(cfg.min_samples, cfg.count))
    lines = [f"session: {out_path} ({len(samples)} samples)",
             f"ground truth = {format_bitrate(truth)} ({truth} bps), "
             f"overhead = {_format_ms(overhead)}"]
    _print_report(cfg, report, lines, ground_truth_bps=truth, fixed_overhead_s=overhead,
                  session_file=str(out_path), session_id=session_id)


def cmd_calibrate(args, cfg: CliConfig) -> None:
    """Fit the intercept model from an observations CSV."""
    observations = store.read_observations_csv(args.observations)
    model = intercept.fit_intercept_model(
        observations, include_constant=args.with_constant
    )
    model_json = store.record_dict(model)
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


# samples a jitter window of `stats --series` spans unless --window says
_JITTER_WINDOW = 10


def cmd_stats(args, cfg: CliConfig) -> None:
    """Summarize delays of a stored session."""
    if args.series:
        window = _JITTER_WINDOW if args.window is None else args.window
        if window < 2:
            raise errors.UsageError(f"--window must be >= 2, got {window}")
        if cfg.format == "json" and not args.output:
            raise errors.UsageError("--series with --json needs --output: the series is CSV")
    elif args.window is not None or args.output is not None:
        flag = "--window" if args.window is not None else "--output"
        raise errors.UsageError(f"{flag} applies only with --series")
    record = store.load_session(args.input)
    if args.series:
        series = stats.jitter_series(record.samples, window)
        lines = ["sent_at_us,jitter_s"]
        lines += [f"{ts},{jitter!r}" for ts, jitter in series]
        text = "\n".join(lines) + "\n"
        if not args.output:
            print(text, end="")
            return
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if cfg.format == "json":
            _print_json({"series_file": str(args.output), "n_windows": len(series)})
        else:
            print(f"series: {args.output} ({len(series)} windows)")
        return

    summary = stats.summarize(record.samples)
    if cfg.format == "json":
        _print_json(store.record_dict(summary))
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


def _help(text: str, value) -> str:
    """A --help line: `text`, then the default `value` as a flag takes it."""
    if isinstance(value, tuple):
        value = ",".join(map(str, value))
    return f"{text} (default {'none' if value is None else value})"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared after
    it: parsing leaves no state in it, and building it costs about as much
    as a small command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key=value config file")
    common.add_argument("--json", dest="format", action="store_const", const="json",
                        help="machine-readable output")
    # for the commands that write a file
    writes = argparse.ArgumentParser(add_help=False, parents=[common])
    writes.add_argument("--output", metavar="FILE", help="output file path")

    parser = _Parser(
        prog="deltaprobe",
        description="Available-bandwidth estimation from delays of "
                    "different-size probe packets",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    default = CliConfig()

    p = sub.add_parser("probe", parents=[writes], help="probe a live target")
    p.add_argument("target", help="host name or IPv4 address")
    p.add_argument("--sizes", type=size_list, metavar="B1,B2,...",
                   help=_help("payload sizes in bytes", default.sizes))
    p.add_argument("--count", type=int, metavar="N", help=_help("probes per size", default.count))
    p.add_argument("--gap", type=float, metavar="SEC", help=_help("inter-probe gap", default.gap))
    p.add_argument("--timeout", type=float, metavar="SEC",
                   help=_help("per-probe timeout", default.timeout))
    p.add_argument("--method", choices=_METHODS, help=_help("echo method", default.method))
    p.add_argument("--udp-port", type=int, metavar="PORT", help="reflector port for udp_echo")
    hops = p.add_mutually_exclusive_group()
    hops.add_argument("--hop-count", type=int, metavar="N", help="attach a known hop count")
    hops.add_argument("--discover-hops", action="store_true",
                      help="discover the hop count by TTL probing")
    p.add_argument("--route-km", type=float, metavar="KM",
                   help="attach the route length in kilometers (needs a hop count)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("estimate", parents=[common],
                       help="estimate from a session file or CSV")
    p.add_argument("input", help="session .jsonl or .csv file")
    p.add_argument("--min-samples", type=int, metavar="N",
                   help=_help("minimum non-lost samples per size", default.min_samples))
    p.add_argument("--one-way-halve", action="store_true",
                   help="halve delays to approximate one-way (assumes symmetry)")
    p.add_argument("--size-column", metavar="COL",
                   help=_help("CSV input: size column", _CSV_DEFAULTS["size_column"]))
    p.add_argument("--size-unit", choices=["bytes", "bits"],
                   help=_help("CSV input: unit of the size column", _CSV_DEFAULTS["size_unit"]))
    p.add_argument("--delay-column", metavar="COL",
                   help=_help("CSV input: delay column in seconds", _CSV_DEFAULTS["delay_column"]))
    p.add_argument("--lost-column", metavar="COL",
                   help=_help("CSV input: lost flag column", _CSV_DEFAULTS["lost_column"]))
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", parents=[writes],
                       help="run the path simulator against ground truth")
    p.add_argument("path_config", help="path configuration JSON file")
    p.add_argument("--sizes", type=size_list, metavar="B1,B2,...",
                   help=_help("wire sizes in bytes", default.sizes))
    p.add_argument("--count", type=int, metavar="N", help=_help("probes per size", default.count))
    p.add_argument("--seed", type=int, metavar="U64", help="RNG seed override")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", parents=[writes],
                       help="fit the intercept model from observations")
    p.add_argument("observations", help="CSV with columns path_id,n,l_km,a_s")
    p.add_argument("--with-constant", action="store_true",
                   help="add an affine constant term (off by default)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("stats", parents=[writes], help="summarize a session")
    p.add_argument("input", help="session .jsonl file")
    p.add_argument("--series", action="store_true", help="emit a jitter time series (CSV)")
    p.add_argument("--window", type=int, metavar="N",
                   help=_help("jitter window size, with --series", _JITTER_WINDOW))
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
