import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import deltaprobe
from conftest import make_sample, needs_raw_icmp
from deltaprobe import cli, probe, store
from deltaprobe.cli import CliConfig, format_bitrate, main
from deltaprobe.reflector import serve
from deltaprobe.simulator import Hop, SimPath, run_experiment
from deltaprobe.store import SessionRecord, load_session, save_session


def _have_icmp_socket() -> bool:
    for kind in (socket.SOCK_RAW, socket.SOCK_DGRAM):
        try:
            s = socket.socket(socket.AF_INET, kind, socket.IPPROTO_ICMP)
            s.close()
            return True
        except (PermissionError, OSError):
            continue
    return False


needs_icmp = pytest.mark.skipif(
    not _have_icmp_socket(), reason="no ICMP socket privilege in this environment"
)


@pytest.fixture
def reflector_port():
    ready = threading.Event()
    state = {}
    thread = threading.Thread(
        target=serve,
        kwargs={"host": "127.0.0.1", "port": 0, "max_datagrams": 4096,
                "on_ready": lambda p: (state.update(port=p), ready.set())},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=5.0)
    yield state["port"]


@pytest.fixture
def adsl_csv(tmp_path):
    path = tmp_path / "adsl.csv"
    path.write_text("size_bytes,delay_s\n100,0.018\n1124,0.042\n")
    return path


@pytest.fixture
def ftp_csv(tmp_path):
    path = tmp_path / "ftp.csv"
    path.write_text("size_bytes,delay_s\n100,0.300\n1124,0.425\n")
    return path


@pytest.fixture
def sim_session(tmp_path):
    """Noisy two-size session persisted from the simulator."""
    path = SimPath(hops=(Hop(capacity_bps=1e6, propagation_s=0.01,
                             queue_noise_mean_s=0.002),), seed=5)
    samples = run_experiment(path, sizes=[800, 8992], count_per_size=40)
    record = SessionRecord(session_id="fixture", created_at="2026-08-09T00:00:00+00:00",
                           plan=path, samples=samples)
    out = tmp_path / "fixture.jsonl"
    save_session(record, out)
    return out


def two_hop_config(tmp_path, seed=3):
    config = {
        "seed": seed,
        "hops": [{"capacity_bps": 1e6}, {"capacity_bps": 2e6}],
    }
    path = tmp_path / "twohop.json"
    path.write_text(json.dumps(config))
    return path


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_format_bitrate_suffixes():
    assert format_bitrate(341333.3333) == "341.3 kbit/s"
    assert format_bitrate(666666.6667) == "666.7 kbit/s"
    assert format_bitrate(285e6) == "285 Mbit/s"
    assert format_bitrate(1.25e9) == "1.25 Gbit/s"
    assert format_bitrate(512.0) == "512 bit/s"


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_adsl_csv(adsl_csv, capsys):
    assert main(["estimate", str(adsl_csv)]) == 0
    out = capsys.readouterr().out
    assert "B_av = 341.3 kbit/s, a = 15.656 ms" in out
    assert "pairwise" in out


def test_estimate_ftp_csv(ftp_csv, capsys):
    assert main(["estimate", str(ftp_csv)]) == 0
    out = capsys.readouterr().out
    assert "B_av = 65.5" in out


def test_estimate_json_carries_all_text_numbers(adsl_csv, capsys):
    assert main(["estimate", "--json", str(adsl_csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["b_av_bps"] == pytest.approx(341333.33, abs=1.0)
    assert payload["intercept_s"] == pytest.approx(0.01565625, abs=1e-6)
    assert payload["method"] == "pairwise"
    assert payload["residual_rms_s"] == 0.0
    assert payload["n_sizes"] == 2


def test_estimate_session_file(sim_session, capsys):
    assert main(["estimate", "--json", str(sim_session)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples_per_size"] == {"800": 40, "8992": 40}


def test_estimate_json_is_the_library_report(sim_session, capsys):
    assert main(["estimate", "--json", str(sim_session)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload.pop("one_way_halve") is False
    report = deltaprobe.estimate_bandwidth(load_session(sim_session).samples,
                                           min_samples_per_size=1)
    assert isinstance(report, deltaprobe.EstimateReport)
    assert payload == json.loads(json.dumps(report.to_json()))
    estimate, profile = report
    assert estimate is report.estimate and profile is report.profile


def test_estimate_single_size_exits_3(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    csv_path.write_text("size_bytes,delay_s\n100,0.018\n100,0.019\n")
    assert main(["estimate", str(csv_path)]) == 3
    assert "NoUsableSizes" in capsys.readouterr().err


def test_estimate_missing_file_exits_1(tmp_path):
    assert main(["estimate", str(tmp_path / "nope.jsonl")]) == 1


def test_estimate_bad_csv_exits_65(tmp_path):
    csv_path = tmp_path / "headerless.csv"
    csv_path.write_text("")
    assert main(["estimate", str(csv_path)]) == 65


def test_estimate_one_way_halve(adsl_csv, capsys):
    # halving every delay doubles the bandwidth and halves the intercept
    assert main(["estimate", "--json", "--one-way-halve", str(adsl_csv)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["b_av_bps"] == pytest.approx(2 * 341333.33, abs=2.0)
    assert payload["intercept_s"] == pytest.approx(0.01565625 / 2, abs=1e-6)
    assert payload["one_way_halve"] is True
    assert "symmetric" in captured.err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_noise_free_single_hop_estimate_equals_truth(tmp_path, capsys):
    config = tmp_path / "one.json"
    config.write_text(json.dumps({"seed": 1, "hops": [{"capacity_bps": 1e6}]}))
    out = tmp_path / "s.jsonl"
    assert main(["simulate", str(config), "--output", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ground_truth_bps"] == pytest.approx(1e6, rel=1e-12)
    assert payload["b_av_bps"] == payload["ground_truth_bps"]
    assert out.exists()


def test_simulate_two_hop_harmonic(tmp_path, capsys):
    config = two_hop_config(tmp_path)
    out = tmp_path / "s.jsonl"
    assert main(["simulate", str(config), "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "666.7 kbit/s" in text
    assert "666666.666666666" in text  # raw bps printed alongside


def test_simulate_malformed_json_exits_65(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{oops")
    assert main(["simulate", str(config)]) == 65


def test_simulate_determinism_byte_identical(tmp_path):
    config = two_hop_config(tmp_path, seed=9)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simulate", str(config), "--output", str(out1)]) == 0
    assert main(["simulate", str(config), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_seed_flag_changes_samples(tmp_path):
    config = tmp_path / "noisy.json"
    config.write_text(json.dumps({
        "seed": 1,
        "hops": [{"capacity_bps": 1e6, "queue_noise_mean_s": 0.003}],
    }))
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simulate", str(config), "--output", str(out1), "--seed", "101"]) == 0
    assert main(["simulate", str(config), "--output", str(out2), "--seed", "102"]) == 0
    a = [s.rtt_s for s in load_session(out1).samples]
    b = [s.rtt_s for s in load_session(out2).samples]
    assert a != b


def test_simulate_records_rng_algorithm(tmp_path):
    config = two_hop_config(tmp_path)
    out = tmp_path / "s.jsonl"
    assert main(["simulate", str(config), "--output", str(out)]) == 0
    record = load_session(out)
    assert record.extra["rng"] == "pcg64"
    assert record.created_at == "1970-01-01T00:00:00+00:00"


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_recovers_synthetic_model(tmp_path, capsys):
    lines = ["path_id,n,l_km,a_s"]
    alpha, beta = 1e-4, 5e-6
    for i, (n, l) in enumerate([(3, 120.0), (7, 2400.0), (12, 800.0), (5, 5000.0)]):
        lines.append(f"p{i},{n},{l},{alpha * n + beta * l!r}")
    obs = tmp_path / "obs.csv"
    obs.write_text("\n".join(lines) + "\n")
    model_file = tmp_path / "model.json"
    assert main(["calibrate", str(obs), "--output", str(model_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha_s_per_hop"] == pytest.approx(alpha, rel=1e-9)
    assert payload["beta_s_per_km"] == pytest.approx(beta, rel=1e-9)
    on_disk = json.loads(model_file.read_text())
    assert on_disk["alpha_s_per_hop"] == payload["alpha_s_per_hop"]


def test_calibrate_rank_deficient_exits_3(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("path_id,n,l_km,a_s\np0,5,1000,0.005\np1,5,1000,0.005\n")
    model_file = tmp_path / "model.json"
    assert main(["calibrate", str(obs), "--output", str(model_file)]) == 3
    assert "RankDeficient" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_text_output(sim_session, capsys):
    assert main(["stats", str(sim_session)]) == 0
    out = capsys.readouterr().out
    assert "mean = " in out
    assert "jitter = " in out
    assert "loss rate" in out


def test_stats_json(sim_session, capsys):
    assert main(["stats", "--json", str(sim_session)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_total"] == 80
    assert payload["loss_rate"] == 0.0
    assert payload["lower_2_5_s"] <= payload["mean_s"] <= payload["upper_97_5_s"]


def test_stats_series_csv(sim_session, tmp_path, capsys):
    out_csv = tmp_path / "series.csv"
    assert main(["stats", str(sim_session), "--series", "--window", "8",
                 "--output", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "sent_at_us,jitter_s"
    assert len(lines) == 1 + (80 - 8 + 1)


def test_stats_series_json_prints_one_object(sim_session, tmp_path, capsys):
    out_csv = tmp_path / "series.csv"
    assert main(["stats", str(sim_session), "--series", "--output", str(out_csv)]) == 0
    text = capsys.readouterr().out
    assert text == f"series: {out_csv} (71 windows)\n"
    config = tmp_path / "json.conf"
    config.write_text("format=json\n")
    for flag in (["--json"], ["--config", str(config)]):
        assert main(["stats", str(sim_session), "--series", "--output", str(out_csv), *flag]) == 0
        assert json.loads(capsys.readouterr().out) == {"series_file": str(out_csv), "n_windows": 71}
        # without --output the series itself is stdout, which is CSV
        assert main(["stats", str(sim_session), "--series", *flag]) == 64
        assert capsys.readouterr().out == ""


def test_stats_empty_session_exits_3(tmp_path, capsys):
    record = SessionRecord(session_id="empty", created_at="t", plan=None, samples=[])
    path = tmp_path / "empty.jsonl"
    save_session(record, path)
    assert main(["stats", str(path)]) == 3


def test_stats_series_of_an_empty_session_exits_3(tmp_path, capsys):
    record = SessionRecord(session_id="empty", created_at="t", plan=None, samples=[])
    path = tmp_path / "empty.jsonl"
    save_session(record, path)
    assert main(["stats", "--series", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("deltaprobe: InsufficientSamples: need >= 10")


def test_estimate_empty_session_exits_3(tmp_path, capsys):
    record = SessionRecord(session_id="empty", created_at="t", plan=None, samples=[])
    path = tmp_path / "empty.jsonl"
    save_session(record, path)
    assert main(["estimate", str(path)]) == 3
    assert "NoSamples" in capsys.readouterr().err


def test_estimate_all_lost_session_exits_3(tmp_path, capsys):
    samples = [make_sample(800 if k % 2 else 8992, None, seq=k) for k in range(6)]
    path = tmp_path / "lost.jsonl"
    record = SessionRecord(session_id="lost", created_at="t", plan=None, samples=samples)
    save_session(record, path)
    assert main(["estimate", "--min-samples", "1", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("deltaprobe: NoUsableSizes: no size has >= 1 non-lost samples "
                          "(0 sizes seen)")


# ---------------------------------------------------------------------------
# probe (live loopback)
# ---------------------------------------------------------------------------

def test_probe_udp_loopback_session(reflector_port, tmp_path, capsys):
    out = tmp_path / "probe.jsonl"
    code = main([
        "probe", "127.0.0.1",
        "--method", "udp_echo", "--udp-port", str(reflector_port),
        "--count", "5", "--gap", "0.005", "--timeout", "1.0",
        "--output", str(out),
    ])
    assert code == 0
    record = load_session(out)
    assert len(record.samples) == 10
    assert sum(s.lost for s in record.samples) == 0
    out_text = capsys.readouterr().out
    # loopback has no usable delay-size slope, so either outcome is fine
    assert "B_av" in out_text or "estimate unavailable" in out_text


def test_probe_all_lost_exits_2(tmp_path, capsys):
    out = tmp_path / "dead.jsonl"
    code = main([
        "probe", "127.0.0.1",
        "--method", "udp_echo", "--udp-port", "1",
        "--count", "2", "--gap", "0.01", "--timeout", "0.2",
        "--output", str(out),
    ])
    assert code == 2


@needs_icmp
def test_probe_icmp_loopback(tmp_path, capsys):
    out = tmp_path / "icmp.jsonl"
    code = main([
        "probe", "127.0.0.1", "--count", "5", "--gap", "0.005",
        "--timeout", "1.0", "--output", str(out),
    ])
    assert code == 0
    record = load_session(out)
    assert len(record.samples) == 10
    assert record.plan.method == "icmp_echo"


@needs_icmp
def test_probe_unreachable_documentation_address_exits_2(tmp_path):
    code = main([
        "probe", "203.0.113.7", "--count", "2", "--gap", "0.01",
        "--timeout", "0.2", "--output", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2


@needs_raw_icmp
def test_probe_discover_hops_loopback(reflector_port, tmp_path):
    out = tmp_path / "hops.jsonl"
    code = main([
        "probe", "127.0.0.1",
        "--method", "udp_echo", "--udp-port", str(reflector_port),
        "--count", "2", "--gap", "0.005", "--timeout", "1.0",
        "--discover-hops", "--route-km", "0.001",
        "--output", str(out),
    ])
    assert code == 0
    record = load_session(out)
    assert record.features.hop_count_n == 1


# ---------------------------------------------------------------------------
# usage and config handling
# ---------------------------------------------------------------------------

def test_duplicate_sizes_usage_error(tmp_path):
    assert main(["probe", "127.0.0.1", "--sizes", "100,100",
                 "--output", str(tmp_path / "x.jsonl")]) == 64


@pytest.mark.parametrize("flags", [["--seed", "7"], ["--output", "estimate.out"]])
def test_estimate_refuses_flags_it_would_ignore(adsl_csv, flags):
    # only simulate reads --seed, and estimate writes no file
    assert main(["estimate", str(adsl_csv), *flags]) == 64


@pytest.mark.parametrize("flags", [
    ["--size-column", "size_bytes"], ["--size-unit", "bytes"], ["--delay-column", "delay_s"],
    ["--lost-column", "lost"],
])
def test_estimate_of_a_session_refuses_csv_flags(sim_session, capsys, flags):
    assert main(["estimate", str(sim_session), *flags]) == 64
    assert f"usage error: {flags[0]} applies only to a .csv input" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--window", "5"], ["--window", "1"], ["--output", "x.csv"]])
def test_stats_refuses_flags_it_would_ignore(sim_session, capsys, flags):
    # without --series, stats reads no window and writes no file
    assert main(["stats", str(sim_session), *flags]) == 64
    assert f"usage error: {flags[0]} applies only with --series" in capsys.readouterr().err


@pytest.mark.parametrize("command, lines", [
    ("estimate", ["size_bytes,delay_s", "100,0.018", "1124,0.042"]),
    ("calibrate", ["path_id,n,l_km,a_s", "p1,5,1000,0.0055", "p2,10,2000,0.011", "p3,3,10,0.3"]),
])
def test_a_csv_with_a_bom_reads_as_one_without(tmp_path, capsys, command, lines):
    # Excel's "CSV UTF-8" files start with a BOM and end their lines in CRLF
    out = []
    for name, data in (("plain.csv", "\n".join(lines) + "\n"),
                       ("bom.csv", "\ufeff" + "\r\n".join(lines) + "\r\n")):
        (tmp_path / name).write_bytes(data.encode())
        assert main([command, str(tmp_path / name), "--json"]
                    + ["--output", str(tmp_path / "m.json")] * (command == "calibrate")) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]


def test_a_csv_suffix_is_read_in_any_case(tmp_path, capsys):
    out = []
    for name in ("lower.csv", "UP.CSV", "Mixed.Csv"):
        path = tmp_path / name
        path.write_text("size_bytes,delay_s,lost\n100,0.018,0\n1124,0.042,0\n1124,,1\n")
        for flags in ([], ["--lost-column", "lost"]):
            assert main(["estimate", str(path), "--json", *flags]) == 0
            out.append(capsys.readouterr().out)
    assert out[0::2] == out[:1] * 3 and out[1::2] == out[1:2] * 3


def test_each_csv_flag_reaches_import_csv(tmp_path, capsys):
    default = tmp_path / "default.csv"
    default.write_text("size_bytes,delay_s\n100,0.018\n1124,0.042\n")
    # sizes in bits, and a row that only its lost cell keeps from the minimum
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("w,d,x\n800,0.018,0\n8992,0.042,0\n8992,0.001,1\n")
    flags = {"--size-column": "w", "--size-unit": "bits", "--delay-column": "d",
             "--lost-column": "x"}
    assert main(["estimate", str(default), "--json"]) == 0
    want = capsys.readouterr().out
    # with every flag the two files read alike, and without any one they do not
    for left_out in (None, *flags):
        argv = [item for flag, value in flags.items() if flag != left_out for item in (flag, value)]
        code = main(["estimate", str(renamed), "--json", *argv])
        out = capsys.readouterr().out
        assert (code == 0 and out == want) == (left_out is None), left_out


def _shown(value) -> str:
    """A default as --help shows it."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "none" if value is None else str(value)


_CSV_DEFAULTS = store.import_csv.__kwdefaults__


@pytest.mark.parametrize("command, defaults", [
    ("probe", {"--sizes": CliConfig.sizes, "--count": CliConfig.count, "--gap": CliConfig.gap,
               "--timeout": CliConfig.timeout, "--method": CliConfig.method}),
    ("estimate", {"--min-samples": CliConfig.min_samples,
                  **{"--" + name.replace("_", "-"): _CSV_DEFAULTS[name]
                     for name in ("size_column", "size_unit", "delay_column", "lost_column")}}),
    ("simulate", {"--sizes": CliConfig.sizes, "--count": CliConfig.count}),
    ("calibrate", {}),
    ("stats", {"--window": cli._JITTER_WINDOW}),
])
def test_help_shows_the_defaults_the_code_holds(capsys, command, defaults):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())  # as if never wrapped
    assert text.count("(default ") == len(defaults)
    for flag, value in defaults.items():
        # the last mention of a flag is its entry, after the usage line
        entry = text[text.rindex(f" {flag} "):]
        assert entry.split("(default ", 1)[1].split(")", 1)[0] == _shown(value), flag


def test_estimate_csv_flags_take_their_defaults(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("size_bytes,delay_s,wire\n100,0.018,800\n1124,0.042,8992\n")
    assert main(["estimate", str(path), "--json"]) == 0
    default = capsys.readouterr().out
    assert main(["estimate", str(path), "--json", "--size-column", "wire", "--size-unit", "bits"]) == 0
    assert capsys.readouterr().out == default


def test_unknown_command_usage_error():
    assert main(["frobnicate"]) == 64


def test_missing_argument_usage_error():
    assert main(["estimate"]) == 64


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "deltaprobe.conf"
    config.write_text("sizes=100,1124\ncount=7\nformat=json\n")
    path_config = two_hop_config(tmp_path)
    out = tmp_path / "s.jsonl"
    assert main(["simulate", str(path_config), "--config", str(config),
                 "--output", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)  # format=json from config
    assert payload["samples_per_size"] == {"800": 7, "8992": 7}

    # flag wins over config file
    out2 = tmp_path / "s2.jsonl"
    assert main(["simulate", str(path_config), "--config", str(config),
                 "--count", "3", "--output", str(out2), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples_per_size"] == {"800": 3, "8992": 3}


def test_config_file_unknown_key_exits_65(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("warp_factor=9\n")
    assert main(["simulate", str(two_hop_config(tmp_path)),
                 "--config", str(config)]) == 65


@pytest.mark.parametrize("seed, hop, needle", [
    ("1", '"capacity_bps": Infinity, "propagation_s": 0.01',
     "hops[0]: capacity_bps must be positive and finite, got inf"),
    ("1", '"capacity_bps": 1e6, "note": "caf\udce9"', "{path}: 'utf-8' codec can't decode byte 0xe9"),
    ("1", '"capacity_bps": true', "hops[0]: capacity_bps must be a number, got True"),
    ("1", '"capacity_bps": 1e6, "loss_prob": false', "hops[0]: loss_prob must be a number, got False"),
    ("true", '"capacity_bps": 1e6', "seed must be an integer, got True"),
    ("1", '"capacity_bps": "1e6"', "hops[0]: capacity_bps must be a number, got '1e6'"),
    ("1", '"capacity_bps": 1e6, "propagation_s": null', "hops[0]: propagation_s must be a number, got None"),
], ids=["infinite capacity", "not utf-8", "true capacity", "false loss", "true seed",
        "string capacity", "null delay"])
def test_simulate_refuses_a_bad_path_file_before_saving(tmp_path, capfd, seed, hop, needle):
    path_config = tmp_path / "path.json"
    path_config.write_bytes(
        f'{{"seed": {seed}, "hops": [{{{hop}}}]}}'.encode("utf-8", "surrogateescape"))
    out_file = tmp_path / "s.jsonl"
    assert main(["simulate", str(path_config), "--output", str(out_file)]) == 65
    out, err = capfd.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"deltaprobe: ConfigError: {needle.format(path=path_config)}" in err
    assert not out_file.exists()


def test_config_file_seed_matches_seed_flag(tmp_path):
    path_config = tmp_path / "noisy.json"
    path_config.write_text(json.dumps({
        "seed": 5,
        "hops": [{"capacity_bps": 1e6, "queue_noise_mean_s": 0.003}],
    }))
    config = tmp_path / "deltaprobe.conf"
    config.write_text("seed=99\n")
    from_file, from_flag, own = (tmp_path / f"{n}.jsonl" for n in ("file", "flag", "own"))
    assert main(["simulate", str(path_config), "--config", str(config),
                 "--output", str(from_file)]) == 0
    assert main(["simulate", str(path_config), "--seed", "99", "--output", str(from_flag)]) == 0
    assert main(["simulate", str(path_config), "--output", str(own)]) == 0
    assert from_file.read_bytes() == from_flag.read_bytes()
    assert from_file.read_bytes() != own.read_bytes()


@pytest.mark.parametrize("flags, config, code, needle", [
    (["--sizes", "100,100"], None, 64, "usage error: --sizes must be positive and distinct"),
    (["--sizes", "0,100"], None, 64, "usage error: --sizes must be positive and distinct"),
    (["--count", "0"], None, 64, "usage error: --count must be at least 1, got 0"),
    (["--seed", "-1"], None, 64, "usage error: --seed must be in 0..2**64-1, got -1"),
    (["--seed", str(2**64)], None, 64, "usage error: --seed must be in 0..2**64-1"),
    ([], "count=0", 65, "ConfigError: {config}:2: count must be at least 1, got 0"),
    ([], "seed=-1", 65, "ConfigError: {config}:2: seed must be in 0..2**64-1, got -1"),
    (["--sizes", "100,1152921504606846976"], None, 64,
     "usage error: --sizes must be positive and distinct, each at most 65535 bytes"),
    ([], "sizes=100,9223372036854775808", 65,
     "ConfigError: {config}:2: sizes must be positive and distinct, each at most 65535 bytes"),
    ([], "# caf\udce9", 65, "ConfigError: {config}:2: invalid UTF-8 at byte 5"),
])
def test_simulator_rejected_values_exit_without_traceback(tmp_path, capfd, flags, config,
                                                          code, needle):
    argv = ["simulate", str(two_hop_config(tmp_path)), "--output", str(tmp_path / "s.jsonl")]
    config_file = tmp_path / "deltaprobe.conf"
    if config is not None:
        text = f"# values the simulator refuses\n{config}\n"
        config_file.write_bytes(text.encode("utf-8", "surrogateescape"))
        argv += ["--config", str(config_file)]
    assert main(argv + flags) == code
    out, err = capfd.readouterr()
    assert out == "" and "Traceback" not in err
    assert needle.format(config=config_file) in err
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("config, needle", [
    ("format=xml", "format must be one of text, json, got 'xml'"),
    ("method=foo", "method must be one of icmp_echo, udp_echo, got 'foo'"),
    ("count=3.5", "count: invalid literal for int()"),
    ("sizes=100,,1124", "sizes: invalid literal for int()"),
    ("min_samples=0", "min_samples must be at least 1, got 0"),
    ("udp_port=70000", "udp_port must be in 1..65535, got 70000"),
    ("sizes=100,12345678901234567890",
     "sizes must be positive and distinct, each at most 65535 bytes, got (100, 12345678901234567890)"),
    ("count=5 # caf\udce9", "invalid UTF-8 at byte 13"),
])
def test_config_file_values_are_checked(tmp_path, capsys, config, needle):
    config_file = tmp_path / "deltaprobe.conf"
    config_file.write_bytes((config + "\n").encode("utf-8", "surrogateescape"))
    for command in (["simulate", str(two_hop_config(tmp_path))], ["probe", "127.0.0.1"]):
        argv = command + ["--config", str(config_file), "--output", str(tmp_path / "s.jsonl")]
        assert main(argv) == 65
        assert f"deltaprobe: ConfigError: {config_file}:1: {needle}" in capsys.readouterr().err


@pytest.mark.parametrize("setting, needle", [
    ("sizes=4,100", "payload must be at least 12 bytes"),
    ("count=40000", "session too large: sequence numbers are 16-bit"),
    ("sizes=100,65508", "payload must be at most 65507 bytes for udp_echo (one IPv4 packet)"),
])
@pytest.mark.parametrize("via", ["flag", "config", "flag with --discover-hops"])
def test_probe_plan_the_engine_refuses_exits_64(tmp_path, capfd, monkeypatch, setting, needle, via):
    # simulate accepts these values: the probe engine is what refuses them,
    # before it opens a socket or discovers a hop
    def send_nothing(*_):
        raise AssertionError("a probe was sent")

    def discover_nothing(target):
        raise AssertionError(f"hops to {target} were discovered")

    monkeypatch.setattr(deltaprobe.probe, "_run_echo_loop", send_nothing)
    monkeypatch.setattr(deltaprobe.probe, "discover_hops", discover_nothing)
    argv = ["probe", "127.0.0.1", "--method", "udp_echo", "--output", str(tmp_path / "s.jsonl")]
    key, value = setting.split("=")
    if via != "config":
        argv += [f"--{key}", value] + ["--discover-hops"] * (via != "flag")
    else:
        config_file = tmp_path / "deltaprobe.conf"
        config_file.write_text(setting + "\n")
        argv += ["--config", str(config_file)]
    assert main(argv) == 64
    out, err = capfd.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"deltaprobe: usage error: {needle}" in err
    assert not (tmp_path / "s.jsonl").exists()


_FEATURE_FLAGS = "--hop-count or --route-km: "


@pytest.mark.parametrize("flags, needle", [
    (["--hop-count", "0"], _FEATURE_FLAGS + "hop_count_n must be >= 1, got 0"),
    (["--hop-count", "5", "--route-km", "-1"],
     _FEATURE_FLAGS + "route_length_l_km must be >= 0 and finite, got -1.0"),
    (["--hop-count", "5", "--route-km", "nan"],
     _FEATURE_FLAGS + "route_length_l_km must be >= 0 and finite, got nan"),
    (["--hop-count", "5", "--route-km", "inf"],
     _FEATURE_FLAGS + "route_length_l_km must be >= 0 and finite, got inf"),
    (["--route-km", "1000"], "--route-km needs --hop-count or --discover-hops"),
    (["--sizes", "100,12345678901234567890"], "--sizes must be positive and distinct, "
     "each at most 65535 bytes, got (100, 12345678901234567890)"),
], ids=["hop count 0", "negative route", "nan route", "infinite route", "route without hops",
        "size beyond int64"])
def test_probe_refuses_bad_feature_flags_before_probing(tmp_path, capfd, monkeypatch, flags, needle):
    def no_session(plan, **kwargs):
        raise AssertionError(f"a session was sent to {plan.target}")

    monkeypatch.setattr(probe, "run_session", no_session)
    out_file = tmp_path / "s.jsonl"
    argv = ["probe", "127.0.0.1", "--method", "udp_echo", "--output", str(out_file), *flags]
    assert main(argv) == 64
    out, err = capfd.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"deltaprobe: usage error: {needle}\n" in err
    assert not out_file.exists()


def test_probe_refuses_a_hop_count_with_discover_hops(tmp_path, capfd, monkeypatch):
    def no_call(*_, **__):
        raise AssertionError("hops were discovered or a session was sent")

    monkeypatch.setattr(probe, "discover_hops", no_call)
    monkeypatch.setattr(probe, "run_session", no_call)
    out_file = tmp_path / "s.jsonl"
    for flags in (["--hop-count", "5", "--discover-hops"], ["--discover-hops", "--hop-count", "5"]):
        assert main(["probe", "127.0.0.1", "--output", str(out_file), *flags]) == 64
        out, err = capfd.readouterr()
        assert out == "" and "Traceback" not in err
        assert "not allowed with argument" in err
    assert not out_file.exists()


# ---------------------------------------------------------------------------
# exact stdout of every command that prints an estimate
# ---------------------------------------------------------------------------

def _probe_batch(target, small_delays, large_delays):
    """A fixed icmp_echo session: 1024- then 9216-bit probes; a None delay is lost."""
    rows = [(1024, d) for d in small_delays] + [(9216, d) for d in large_delays]
    return probe.SampleBatch.from_samples([
        make_sample(wire, delay, seq=i, path_id=target, method="icmp_echo")
        for i, (wire, delay) in enumerate(rows)])


# what the patched run_session returns for each target: an estimate, and a
# larger size that was faster (NonPositiveDelayDifference)
_PROBE_SESSIONS = {
    "192.0.2.1": _probe_batch("192.0.2.1", [0.0101, None], [0.0183, 0.0179]),
    "192.0.2.2": _probe_batch("192.0.2.2", [0.021, 0.02], [0.019, None]),
}

_UNAVAILABLE = ("NonPositiveDelayDifference: delay did not increase with size: "
                "1024b -> 0.02s, 9216b -> 0.019s")

_EXACT_STDOUT = [
    ("estimate adsl.csv",
     "B_av = 341.3 kbit/s, a = 15.656 ms (341333.33333333326 bps)\n"
     "method = pairwise, residual_rms = 0.000 ms\n"),
    ("estimate --json adsl.csv",
     '{"b_av_bps": 341333.33333333326, "intercept_s": 0.01565625, "method": "pairwise", '
     '"residual_rms_s": 0.0, "warnings": [], "n_sizes": 2, '
     '"samples_per_size": {"800": 1, "8992": 1}, "dropped_sizes": [], "one_way_halve": false}\n'),
    ("estimate neg.csv",
     "B_av = 199.8 kbit/s, a = -3.004 ms (199804.8780487805 bps)\n"
     "method = pairwise, residual_rms = 0.000 ms\n"
     "warning: negative intercept\n"),
    ("estimate --json neg.csv",
     '{"b_av_bps": 199804.8780487805, "intercept_s": -0.00300390625, "method": "pairwise", '
     '"residual_rms_s": 0.0, "warnings": ["negative intercept"], "n_sizes": 2, '
     '"samples_per_size": {"800": 1, "8992": 1}, "dropped_sizes": [], "one_way_halve": false}\n'),
    ("estimate fixture.jsonl",
     "B_av = 1.003 Mbit/s, a = 10.027 ms (1002678.5797034354 bps)\n"
     "method = pairwise, residual_rms = 0.000 ms\n"),
    ("estimate --json fixture.jsonl",
     '{"b_av_bps": 1002678.5797034354, "intercept_s": 0.01002694524985345, '
     '"method": "pairwise", "residual_rms_s": 0.0, "warnings": [], "n_sizes": 2, '
     '"samples_per_size": {"800": 40, "8992": 40}, "dropped_sizes": [], '
     '"one_way_halve": false}\n'),
    ("estimate --one-way-halve adsl.csv",
     "B_av = 682.7 kbit/s, a = 7.828 ms (682666.6666666665 bps)\n"
     "method = pairwise, residual_rms = 0.000 ms\n"),
    ("estimate --json --one-way-halve fixture.jsonl",
     '{"b_av_bps": 2005357.1594068708, "intercept_s": 0.005013472624926725, '
     '"method": "pairwise", "residual_rms_s": 0.0, "warnings": [], "n_sizes": 2, '
     '"samples_per_size": {"800": 40, "8992": 40}, "dropped_sizes": [], '
     '"one_way_halve": true}\n'),
    ("simulate twohop.json",
     "session: sim-f8339935fb25bdcf.jsonl (60 samples)\n"
     "ground truth = 666.7 kbit/s (666666.6666666666 bps), overhead = 0.000 ms\n"
     "B_av = 666.7 kbit/s, a = 0.000 ms (666666.6666666666 bps)\n"
     "method = pairwise, residual_rms = 0.000 ms\n"),
    ("simulate --json twohop.json",
     '{"b_av_bps": 666666.6666666666, "intercept_s": 2.168404344971009e-19, '
     '"method": "pairwise", "residual_rms_s": 0.0, "warnings": [], "n_sizes": 2, '
     '"samples_per_size": {"800": 30, "8992": 30}, "dropped_sizes": [], '
     '"ground_truth_bps": 666666.6666666666, "fixed_overhead_s": 0.0, '
     '"session_file": "sim-f8339935fb25bdcf.jsonl", "session_id": "sim-f8339935fb25bdcf"}\n'),
    ("simulate --sizes 100,600,1124 --output three.jsonl twohop.json",
     "session: three.jsonl (90 samples)\n"
     "ground truth = 666.7 kbit/s (666666.6666666666 bps), overhead = 0.000 ms\n"
     "B_av = 666.7 kbit/s, a = 0.000 ms (666666.6666666667 bps)\n"
     "method = regression, residual_rms = 0.000 ms\n"),
    ("simulate --json --sizes 100,600,1124 --output three.jsonl twohop.json",
     '{"b_av_bps": 666666.6666666667, "intercept_s": 0.0, "method": "regression", '
     '"residual_rms_s": 1.1267359490528695e-18, "warnings": [], "n_sizes": 3, '
     '"samples_per_size": {"800": 30, "4800": 30, "8992": 30}, "dropped_sizes": [], '
     '"ground_truth_bps": 666666.6666666666, "fixed_overhead_s": 0.0, '
     '"session_file": "three.jsonl", "session_id": "sim-089412de83d86da5"}\n'),
    ("probe 192.0.2.1",
     "session: session-0123456789abcdef.jsonl (4 samples, 1 lost)\n"
     "B_av = 1.05 Mbit/s, a = 9.125 ms (1050256.4102564103 bps)\n"
     "method = pairwise, residual_rms = 0.000 ms\n"),
    ("probe --json 192.0.2.1",
     '{"b_av_bps": 1050256.4102564103, "intercept_s": 0.009125, "method": "pairwise", '
     '"residual_rms_s": 0.0, "warnings": [], "n_sizes": 2, '
     '"samples_per_size": {"1024": 1, "9216": 2}, "dropped_sizes": [], '
     '"session_file": "session-0123456789abcdef.jsonl", "session_id": "0123456789abcdef", '
     '"n_samples": 4, "n_lost": 1}\n'),
    ("probe --hop-count 5 --route-km 12.5 192.0.2.1",
     "session: session-0123456789abcdef.jsonl (4 samples, 1 lost)\n"
     "hops = 5, route = 12.5 km\n"
     "B_av = 1.05 Mbit/s, a = 9.125 ms (1050256.4102564103 bps)\n"
     "method = pairwise, residual_rms = 0.000 ms\n"),
    ("probe --json --hop-count 5 192.0.2.1",
     '{"b_av_bps": 1050256.4102564103, "intercept_s": 0.009125, "method": "pairwise", '
     '"residual_rms_s": 0.0, "warnings": [], "n_sizes": 2, '
     '"samples_per_size": {"1024": 1, "9216": 2}, "dropped_sizes": [], '
     '"session_file": "session-0123456789abcdef.jsonl", "session_id": "0123456789abcdef", '
     '"n_samples": 4, "n_lost": 1}\n'),
    ("probe --output slow.jsonl 192.0.2.2",
     "session: slow.jsonl (4 samples, 1 lost)\n"
     f"estimate unavailable: {_UNAVAILABLE}\n"),
    ("probe --json --output slow.jsonl 192.0.2.2",
     f'{{"estimate_error": "{_UNAVAILABLE}", "session_file": "slow.jsonl", '
     '"session_id": "0123456789abcdef", "n_samples": 4, "n_lost": 1}\n'),
    ("probe --hop-count 3 --output slow.jsonl 192.0.2.2",
     "session: slow.jsonl (4 samples, 1 lost)\n"
     "hops = 3, route = 0.0 km\n"
     f"estimate unavailable: {_UNAVAILABLE}\n"),
    ("probe --json --hop-count 3 --output slow.jsonl 192.0.2.2",
     f'{{"estimate_error": "{_UNAVAILABLE}", "session_file": "slow.jsonl", '
     '"session_id": "0123456789abcdef", "n_samples": 4, "n_lost": 1}\n'),
]


@pytest.mark.parametrize("command, stdout", _EXACT_STDOUT, ids=[row[0] for row in _EXACT_STDOUT])
def test_estimate_commands_print_exactly(tmp_path, sim_session, capsys, monkeypatch,
                                         command, stdout):
    (tmp_path / "adsl.csv").write_text("size_bytes,delay_s\n100,0.018\n1124,0.042\n")
    (tmp_path / "neg.csv").write_text("size_bytes,delay_s\n100,0.001\n1124,0.042\n")
    two_hop_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(probe, "run_session", lambda plan: _PROBE_SESSIONS[plan.target])
    monkeypatch.setattr(cli.uuid, "uuid4", lambda: cli.uuid.UUID(hex="0123456789abcdef" * 2))
    assert main(command.split()) == 0
    assert capsys.readouterr().out == stdout


def test_usage_error_then_valid_command_in_one_process(adsl_csv, capsys):
    assert main(["frobnicate"]) == 64
    assert main(["estimate"]) == 64
    assert main(["estimate", "--json", str(adsl_csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["b_av_bps"] == pytest.approx(341333.33, abs=1.0)


# ---------------------------------------------------------------------------
# hostile input
# ---------------------------------------------------------------------------

def test_estimate_csv_infinite_size_row_skipped(tmp_path, capsys, caplog):
    csv_path = tmp_path / "inf.csv"
    csv_path.write_text("size_bytes,delay_s\n100,0.018\ninf,0.03\n1124,0.042\n")
    assert main(["estimate", "--json", str(csv_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples_per_size"] == {"800": 1, "8992": 1}
    assert "0 rows with unparseable delay treated as lost, 1 rows skipped" in caplog.text


def test_estimate_csv_without_usable_size_exits_65(tmp_path):
    csv_path = tmp_path / "nosize.csv"
    csv_path.write_text("size_bytes,delay_s\ninf,0.018\nnan,0.03\nx,0.04\n")
    assert main(["estimate", str(csv_path)]) == 65


def test_estimate_csv_nonfinite_delays_are_lost(tmp_path, capsys, caplog):
    csv_path = tmp_path / "nonfinite.csv"
    csv_path.write_text("size_bytes,delay_s\n100,0.018\n100,inf\n1124,0.042\n"
                        "1124,nan\n1124,-inf\n")
    assert main(["estimate", "--json", str(csv_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples_per_size"] == {"800": 1, "8992": 1}
    assert payload["b_av_bps"] == pytest.approx(341333.33, abs=1.0)
    assert "3 rows with unparseable delay treated as lost, 0 rows skipped" in caplog.text


def test_stats_session_with_infinite_rtt_exits_65(sim_session, capsys):
    lines = sim_session.read_text().splitlines()
    sample = json.loads(lines[3])
    sample["rtt_s"] = float("inf")
    lines[3] = json.dumps(sample)  # written as the non-standard literal Infinity
    sim_session.write_text("\n".join(lines) + "\n")
    assert main(["stats", "--json", str(sim_session)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 4" in captured.err


def test_session_with_invalid_features_exits_65(sim_session, capsys):
    lines = sim_session.read_text().splitlines()
    meta = json.loads(lines[0])
    # json.dumps writes the non-finite route lengths as NaN and Infinity
    for hops, km in ((0, 10.0), (1, float("nan")), (1, float("inf"))):
        meta["features"] = {"path_id": "x", "hop_count_n": hops, "route_length_l_km": km}
        sim_session.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        assert main(["stats", str(sim_session)]) == 65
        assert "CorruptLine: line 1: bad metadata" in capsys.readouterr().err


@pytest.mark.parametrize("port", [0, 70000])
def test_session_with_udp_port_out_of_range_exits_65(sim_session, capsys, port):
    lines = sim_session.read_text().splitlines()
    meta = json.loads(lines[0])
    meta["plan"] = {"type": "probe", "target": "x", "method": "udp_echo", "udp_port": port}
    sim_session.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
    assert main(["stats", "--json", str(sim_session)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 1: bad metadata: udp_port must be in 1..65535, got {port}" in captured.err


@pytest.mark.parametrize("plan, needle", [
    ({"sizes_payload_bytes": [8, 100]}, "payload must be at least 12 bytes"),
    ({"sizes_payload_bytes": [100, 65508], "method": "udp_echo"},
     "payload must be at most 65507 bytes for udp_echo"),
    ({"count_per_size": 40000}, "session too large: sequence numbers are 16-bit"),
])
def test_session_with_a_plan_the_engine_cannot_run_exits_65(sim_session, capsys, plan, needle):
    lines = sim_session.read_text().splitlines()
    meta = json.loads(lines[0])
    meta["plan"] = {"type": "probe", "target": "x", **plan}
    sim_session.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
    assert main(["stats", "--json", str(sim_session)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 1: bad metadata: {needle}" in captured.err


@pytest.mark.parametrize("command", ["stats", "estimate"])
def test_session_with_nan_rtt_not_lost_exits_65(sim_session, capsys, command):
    lines = sim_session.read_text().splitlines()
    sample = json.loads(lines[3])
    assert sample["lost"] is False
    sample["rtt_s"] = float("nan")
    lines[3] = json.dumps(sample)  # written as the non-standard literal NaN
    sim_session.write_text("\n".join(lines) + "\n")
    assert main([command, "--json", str(sim_session)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("line 4: bad sample: sample 2: lost must be true exactly when rtt_s is null"
            in captured.err)


def test_invalid_utf8_exits_65_naming_the_line(sim_session, tmp_path, capsys):
    lines = sim_session.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b'"path_id":"', b'"path_id":"\xff')
    sim_session.write_bytes(b"\n".join(lines))
    delays = tmp_path / "delays.csv"
    delays.write_bytes(b"size_bytes,delay_s\n100,0.018\n1124,0.04\xff2\n")
    observations = tmp_path / "obs.csv"
    observations.write_bytes(b"path_id,n,l_km,a_s\np1,5,1000,0.0055\np2,10,2000,0.011\np\xff,3,9,0.003\n")
    model_file = str(tmp_path / "model.json")
    for argv, line_no in ((["stats", str(sim_session)], 4), (["estimate", str(sim_session)], 4),
                          (["estimate", str(delays)], 3),
                          (["calibrate", str(observations), "--output", model_file], 4)):
        assert main(argv) == 65
        assert f"CorruptLine: line {line_no}: invalid UTF-8" in capsys.readouterr().err


def test_calibrate_bad_observation_row_exits_65(tmp_path, capsys):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text("path_id,n,l_km,a_s\np0,5,1000,0.0055\np1,x,100,0.001\n")
    assert main(["calibrate", str(csv_path), "--output", str(tmp_path / "model.json")]) == 65
    assert "CorruptLine: line 3: bad observation" in capsys.readouterr().err


# one cell past the csv module's 131,072-character field limit
_HUGE_CELL = "1" + "0" * 200_000


def test_estimate_csv_field_over_the_csv_limit_exits_65(tmp_path, capfd):
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text(f"size_bytes,delay_s\n100,{_HUGE_CELL}\n")
    assert main(["estimate", str(csv_path)]) == 65
    out, err = capfd.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("deltaprobe: CorruptLine: line 2: field larger than field limit")


def test_calibrate_field_over_the_csv_limit_exits_65(tmp_path, capfd):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text(f"path_id,n,l_km,a_s\np0,5,1000,0.0055\np1,10,2000,{_HUGE_CELL}\n")
    model_file = tmp_path / "model.json"
    assert main(["calibrate", str(csv_path), "--output", str(model_file)]) == 65
    out, err = capfd.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("deltaprobe: CorruptLine: line 3: field larger than field limit")
    assert not model_file.exists()


def test_calibrate_nonfinite_observation_exits_65(tmp_path, capfd):
    csv_path = tmp_path / "obs.csv"
    model_file = tmp_path / "model.json"
    for row in ("p1,10,2000,nan", "p1,10,inf,0.011", "p1,10,2000,-inf"):
        csv_path.write_text(f"path_id,n,l_km,a_s\np0,5,1000,0.0055\n{row}\np2,3,9,0.003\n")
        assert main(["calibrate", str(csv_path), "--json", "--output", str(model_file)]) == 65
        out, err = capfd.readouterr()
        assert out == "" and err.startswith("deltaprobe: CorruptLine: line 3: bad observation")
        assert "Traceback" not in err and "DLASCL" not in err
    assert not model_file.exists()


def test_calibrate_overflowing_fit_exits_3(tmp_path, capsys):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text("path_id,n,l_km,a_s\np0,5,1,1e200\np1,10,2,-1e200\np2,3,7,1e200\n")
    assert main(["calibrate", str(csv_path), "--json", "--output", str(tmp_path / "m.json")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "NonFiniteModel" in err


def test_out_of_range_flags_are_usage_errors(sim_session, capsys):
    assert main(["estimate", "--min-samples", "0", str(sim_session)]) == 64
    assert main(["stats", "--series", "--window", "1", str(sim_session)]) == 64
    assert capsys.readouterr().err.count("usage error") == 2


@pytest.mark.parametrize("rows, method", [
    (["100,1e-300", "1124,1.0000000000000002e-300"], "pairwise"),
    (["100,1e-300", "1124,1.0000000000000002e-300", "2148,1.0000000000000004e-300"], "regression"),
])
@pytest.mark.parametrize("output", [[], ["--json"]])
def test_estimate_nonfinite_bandwidth_exits_3(tmp_path, capsys, rows, method, output):
    # delays 2e-316 s apart give a delay-size slope whose inverse is inf
    csv_path = tmp_path / "tiny.csv"
    csv_path.write_text("\n".join(["size_bytes,delay_s", *rows]) + "\n")
    assert main(["estimate", *output, str(csv_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("deltaprobe: NonFiniteEstimate: ") and "b_av_bps=inf" in err


def test_estimate_regression_that_overflows_exits_3(tmp_path, capsys):
    # finite delays near float64's maximum overflow the fit's sums
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("size_bytes,delay_s\n100,1e308\n600,1.5e308\n1124,1.7e308\n")
    assert main(["estimate", "--json", str(csv_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("deltaprobe: NonPositiveSlope: fitted slope nan")


@pytest.mark.parametrize("output", [[], ["--json"]])
def test_estimate_regression_with_an_infinite_slope_exits_3(tmp_path, capsys, output):
    # the fit's slope overflows to inf, whose inverse would read as 0 bit/s
    csv_path = tmp_path / "steep.csv"
    csv_path.write_text("size_bytes,delay_s\n100,1e-300\n1124,1e-300\n5000,1.7e308\n")
    assert main(["estimate", *output, str(csv_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("deltaprobe: NonFiniteEstimate: the fit overflows float64")
    assert "slope_s_per_bit=inf" in err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_json_output_is_strict_json_or_an_estimation_error(tmp_path, capsys):
    # the mean of these finite delays exceeds float64 when summed
    record = SessionRecord(session_id="huge", created_at="t", plan=None,
                           samples=probe.SampleBatch("x", "imported", [0, 1], [100, 100],
                                                     [800, 800], [0, 1], [1e308, 1.7e308]))
    path = tmp_path / "huge.jsonl"
    save_session(record, path)
    code = main(["stats", "--json", str(path)])
    out, err = capsys.readouterr()
    if code == 0:
        json.loads(out, parse_constant=_refuse_constant)
    else:
        assert code == 3 and out == "" and "EstimationError: Out of range float" in err


def test_stats_json_of_finite_rtts_near_float64_max_is_finite(tmp_path, capsys):
    record = SessionRecord(session_id="huge", created_at="t", plan=None,
                           samples=probe.SampleBatch("x", "imported", [0, 1], [100, 100],
                                                     [800, 800], [0, 1], [1e308, 1.7e308]))
    path = tmp_path / "huge.jsonl"
    save_session(record, path)
    assert main(["stats", "--json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert payload["mean_s"] == pytest.approx(1.35e308)
    assert payload["jitter_s"] == pytest.approx(0.7e308)


def test_estimate_halving_a_subnormal_delay_exits_65(tmp_path, capsys):
    csv_path = tmp_path / "subnormal.csv"
    csv_path.write_text("size_bytes,delay_s\n100,5e-324\n1124,0.042\n")
    assert main(["estimate", "--one-way-halve", str(csv_path)]) == 65
    assert "rtt_s must be positive and finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

EXIT_CODES = {
    "DeltaProbeError": 1,
    "EnvironmentFailure": 1, "ResolveFailure": 1, "ProbePermissionError": 1, "NoReply": 1,
    "AllProbesLost": 2,
    "EstimationError": 3, "NoUsableSizes": 3, "EqualSizes": 3, "NonPositiveDelayDifference": 3,
    "DelayNotAboveIntercept": 3, "InsufficientPoints": 3, "NonPositiveSlope": 3,
    "NonFiniteEstimate": 3, "RankDeficient": 3, "InsufficientObservations": 3,
    "NonFiniteModel": 3, "NoSamples": 3, "InsufficientSamples": 3,
    "UsageError": 64, "InvalidProbePlan": 64,
    "DataError": 65, "SchemaMismatch": 65, "CorruptLine": 65, "MissingColumn": 65,
    "EmptyFile": 65, "ConfigError": 65, "InvalidSample": 65,
}


def test_every_exported_error_carries_its_exit_code():
    exported = {name: value for name, value in vars(deltaprobe).items()
                if isinstance(value, type) and issubclass(value, deltaprobe.DeltaProbeError)}
    assert {name: cls.exit_code for name, cls in exported.items()} == EXIT_CODES
    assert set(EXIT_CODES.values()) == {1, 2, 3, 64, 65}
    assert probe.InvalidSample is deltaprobe.InvalidSample
    assert issubclass(probe.InvalidSample, ValueError)
    assert issubclass(deltaprobe.InvalidProbePlan, ValueError)


def test_module_entry_point_exit_codes(adsl_csv, tmp_path):
    one_size = tmp_path / "one.csv"
    one_size.write_text("size_bytes,delay_s\n100,0.018\n100,0.019\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    cases = [
        (["estimate", str(adsl_csv)], 0),
        (["estimate", str(tmp_path / "nope.jsonl")], 1),
        (["estimate", str(one_size)], 3),
        (["estimate", "--min-samples", "0", str(adsl_csv)], 64),
        (["estimate", str(empty)], 65),
    ]
    src = str(Path(deltaprobe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    runs = [subprocess.Popen([sys.executable, "-m", "deltaprobe.cli", *argv], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for argv, _ in cases]
    for (argv, code), run in zip(cases, runs):
        out, err = run.communicate(timeout=120)
        assert run.returncode == code, (argv, out, err)
        assert "Traceback" not in err
        assert ("B_av = 341.3 kbit/s" in out) == (code == 0)
