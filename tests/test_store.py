import csv
import json
import math
import os
import stat
from dataclasses import asdict
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import make_sample
from deltaprobe.errors import CorruptLine, EmptyFile, MissingColumn, SchemaMismatch
from deltaprobe.estimator import BandwidthEstimate, estimate_pairwise, min_delay_profile
from deltaprobe.intercept import InterceptModel, Observations, PathFeatures, fit_intercept_model
from deltaprobe.probe import ProbePlan, ProbeSample
from deltaprobe import store
from deltaprobe.probe import SampleBatch
from deltaprobe.simulator import Hop, SimPath
from deltaprobe.stats import DelaySummary
from deltaprobe.store import (
    CANONICAL_CSV_MAPPING,
    SessionRecord,
    export_csv,
    import_csv,
    load_session,
    read_observations_csv,
    save_session,
)


def sample_record(session_id="s1", with_features=True):
    plan = ProbePlan(target="example.net", sizes_payload_bytes=(100, 1124),
                     count_per_size=2)
    samples = [
        make_sample(1024, 0.018, seq=0, path_id="example.net", method="icmp_echo"),
        make_sample(9216, 0.042, seq=1, path_id="example.net", method="icmp_echo"),
        make_sample(1024, None, seq=2, path_id="example.net", method="icmp_echo"),
        make_sample(9216, 0.044, seq=3, path_id="example.net", method="icmp_echo"),
    ]
    features = None
    if with_features:
        features = PathFeatures(path_id="example.net", hop_count_n=7,
                                route_length_l_km=1500.0)
    return SessionRecord(
        session_id=session_id,
        created_at="2026-08-09T12:00:00+00:00",
        plan=plan,
        samples=samples,
        features=features,
    )


def random_record(rng, session_id):
    n = int(rng.integers(1, 40))
    samples = []
    for i in range(n):
        wire = int(rng.choice([1024, 4096, 9216]))
        lost = bool(rng.random() < 0.2)
        rtt = None if lost else float(rng.uniform(1e-4, 0.5))
        samples.append(make_sample(wire, rtt, seq=i, path_id="r", method="udp_echo"))
    plan = SimPath(hops=(Hop(capacity_bps=1e6, propagation_s=0.01),),
                   seed=int(rng.integers(0, 2**63)))
    return SessionRecord(
        session_id=session_id,
        created_at="2026-08-09T00:00:00+00:00",
        plan=plan,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# session files
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    record = sample_record()
    path = tmp_path / "session.jsonl"
    save_session(record, path)
    loaded = load_session(path)
    assert loaded == record


def test_round_trip_without_plan_or_features(tmp_path):
    record = sample_record(with_features=False)
    record.plan = None
    path = tmp_path / "s.jsonl"
    save_session(record, path)
    assert load_session(path) == record


@pytest.mark.parametrize("field, value, message", [
    ("hop_count_n", 3.5, "hop_count_n must be an integer, got 3.5"),
    ("hop_count_n", True, "hop_count_n must be an integer, got True"),
    ("hop_count_n", "3", "hop_count_n must be an integer, got '3'"),
    ("route_length_l_km", "1500", "route_length_l_km must be a number, got '1500'"),
    ("route_length_l_km", None, "route_length_l_km must be a number, got None"),
    ("route_length_l_km", False, "route_length_l_km must be a number, got False"),
])
def test_session_features_of_the_wrong_type_are_bad_metadata(tmp_path, field, value, message):
    path = tmp_path / "s.jsonl"
    save_session(sample_record(), path)
    meta, *samples = path.read_text().splitlines(keepends=True)
    meta = json.loads(meta)
    meta["features"][field] = value
    path.write_text(json.dumps(meta) + "\n" + "".join(samples))
    with pytest.raises(CorruptLine, match=f"^line 1: bad metadata: {message}$"):
        load_session(path)


def test_two_sessions_independent(tmp_path):
    a = sample_record("a")
    b = sample_record("b")
    save_session(a, tmp_path / "a.jsonl")
    save_session(b, tmp_path / "b.jsonl")
    assert load_session(tmp_path / "a.jsonl").session_id == "a"
    assert load_session(tmp_path / "b.jsonl").session_id == "b"


def test_save_to_readonly_location_fails(tmp_path):
    ro_dir = tmp_path / "ro"
    ro_dir.mkdir()
    os.chmod(ro_dir, stat.S_IRUSR | stat.S_IXUSR)
    if os.access(ro_dir / "x", os.W_OK) or os.getuid() == 0:
        # root bypasses permission bits; target a directory path instead
        with pytest.raises(OSError):
            save_session(sample_record(), ro_dir)
    else:
        with pytest.raises(OSError):
            save_session(sample_record(), ro_dir / "s.jsonl")
    os.chmod(ro_dir, stat.S_IRWXU)


def test_load_truncated_final_line(tmp_path):
    path = tmp_path / "s.jsonl"
    save_session(sample_record(), path)
    text = path.read_text()
    path.write_text(text[:-10])  # chop the tail of the last sample line
    with pytest.raises(CorruptLine) as excinfo:
        load_session(path)
    assert excinfo.value.line_number == 5


def test_load_future_schema_version(tmp_path):
    path = tmp_path / "s.jsonl"
    save_session(sample_record(), path)
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0])
    meta["schema"] = 99
    path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
    with pytest.raises(SchemaMismatch):
        load_session(path)


def test_unknown_fields_survive_round_trip(tmp_path):
    path = tmp_path / "s.jsonl"
    save_session(sample_record(), path)
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0])
    meta["operator_note"] = "rack 3"
    sample0 = json.loads(lines[1])
    sample0["probe_color"] = "blue"
    lines = [json.dumps(meta), json.dumps(sample0)] + lines[2:]
    path.write_text("\n".join(lines) + "\n")

    loaded = load_session(path)
    assert loaded.extra["operator_note"] == "rack 3"
    assert loaded.sample_extras[0] == {"probe_color": "blue"}

    out = tmp_path / "resaved.jsonl"
    save_session(loaded, out)
    resaved = load_session(out)
    assert resaved.extra["operator_note"] == "rack 3"
    assert resaved.sample_extras[0] == {"probe_color": "blue"}


def test_record_requires_seq_order():
    samples = [make_sample(1024, 0.01, seq=1), make_sample(1024, 0.01, seq=0)]
    with pytest.raises(ValueError):
        SessionRecord(session_id="x", created_at="t", plan=None, samples=samples)


def test_property_round_trip_randomized_sessions(tmp_path):
    rng = np.random.default_rng(51)
    for i in range(25):
        record = random_record(rng, f"r{i}")
        path = tmp_path / f"r{i}.jsonl"
        save_session(record, path)
        assert load_session(path) == record


# ---------------------------------------------------------------------------
# CSV import/export
# ---------------------------------------------------------------------------

def test_import_adsl_csv_feeds_pairwise(tmp_path):
    csv_path = tmp_path / "adsl.csv"
    csv_path.write_text("size_bytes,delay_s\n100,0.018\n1124,0.042\n")
    samples = import_csv(csv_path, {"size": "size_bytes", "delay": "delay_s"})
    assert [s.wire_bits for s in samples] == [800, 8992]
    profile = min_delay_profile(samples, 1)
    est = estimate_pairwise(*profile.points)
    assert est.b_av_bps == pytest.approx(341333.33, abs=1.0)


def test_import_missing_delay_column(tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("size_bytes,rtt\n100,0.018\n")
    with pytest.raises(MissingColumn):
        import_csv(csv_path, {"size": "size_bytes", "delay": "delay_s"})


def test_import_empty_file(tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("")
    with pytest.raises(EmptyFile):
        import_csv(csv_path, {"size": "s", "delay": "d"})
    csv_path.write_text("size_bytes,delay_s\n")
    with pytest.raises(EmptyFile):
        import_csv(csv_path, {"size": "size_bytes", "delay": "delay_s"})


def test_import_unparseable_delay_becomes_lost(tmp_path):
    csv_path = tmp_path / "mixed.csv"
    csv_path.write_text("size_bytes,delay_s\n100,0.018\n100,n/a\n1124,0.042\n")
    samples = import_csv(csv_path, {"size": "size_bytes", "delay": "delay_s"})
    assert len(samples) == 3
    assert [s.lost for s in samples] == [False, True, False]


def test_import_bits_unit(tmp_path):
    csv_path = tmp_path / "bits.csv"
    csv_path.write_text("wire,delay\n800,0.018\n8992,0.042\n")
    samples = import_csv(csv_path, {"size": "wire", "size_unit": "bits", "delay": "delay"})
    assert [s.wire_bits for s in samples] == [800, 8992]


def test_import_lost_column(tmp_path):
    csv_path = tmp_path / "lost.csv"
    csv_path.write_text("size_bytes,delay_s,lost\n100,0.018,0\n100,,1\n")
    samples = import_csv(
        csv_path, {"size": "size_bytes", "delay": "delay_s", "lost": "lost"}
    )
    assert [s.lost for s in samples] == [False, True]


def test_export_import_preserves_size_delay_lost(tmp_path):
    rng = np.random.default_rng(52)
    for i in range(10):
        record = random_record(rng, f"e{i}")
        csv_path = tmp_path / f"e{i}.csv"
        export_csv(record.samples, csv_path)
        back = import_csv(csv_path, CANONICAL_CSV_MAPPING)
        assert len(back) == len(record.samples)
        for orig, imported in zip(record.samples, back):
            assert imported.wire_bits == orig.wire_bits
            assert imported.lost == orig.lost
            assert imported.rtt_s == orig.rtt_s  # repr round-trips floats
            assert imported.sent_at_us == orig.sent_at_us


def _reference_import(path, mapping):
    """import_csv row by row, as its docstring states the rules, on
    csv.DictReader: the last column of a name wins and a short row reads "".
    Returns the expected SampleBatch and the warning's two counts."""
    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return math.nan

    def integer(cell):
        value = number(cell)
        return int(value) if abs(value) < 2.0 ** 59 else None

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh, restval=""))
    columns = {name: [] for name in ("seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s")}
    bad_delays = bad_sizes = 0
    for index, row in enumerate(rows):
        size = integer(row[mapping["size"]])
        wire_bits = None if size is None else size * (8 if mapping["size_unit"] == "bytes" else 1)
        if wire_bits is None or wire_bits < 8:
            bad_sizes += 1
            continue
        rtt = number(row[mapping["delay"]])
        if "lost" in mapping and row[mapping["lost"]].strip().lower() in {"1", "true", "yes", "y", "lost"}:
            rtt = math.nan
        elif not 0 < rtt < math.inf:
            bad_delays += 1
            rtt = math.nan
        stamp = integer(row[mapping["timestamp"]]) if "timestamp" in mapping else None
        for name, value in zip(columns, (index, wire_bits // 8, wire_bits,
                                         index if stamp is None else stamp, rtt)):
            columns[name].append(value)
    batch = SampleBatch("import", "imported", *(
        np.array(values, dtype=np.float64 if name == "rtt_s" else np.int64)
        for name, values in columns.items()))
    return batch, (bad_delays, bad_sizes)


# cells the one numpy parse of a column reads, empty ones included
_CELLS_BY_COLUMN = {
    "size": ["100", "1124", "12", "1500.7", "-3", "0", "+64", "１２８"],
    "delay": ["0.018", "0.04", "1e-3", "5e-324", "0", "-0.5", "nan", "inf", "-inf", "1e400", ""],
    "lost": ["0", "1", "", "true", "True", " yes ", "Y", "lost", "LOST", "no", "false"],
    "timestamp": ["1000", "17.9", "-7", "", "nan", "1e400"],
}
# cells for any column, some of which send a column back cell by cell
_ODD_CELLS = ["", " ", "abc", "nan", "inf", "1e400", "1_000", "1,5", "0x10", ' "2" ']


@pytest.mark.parametrize("seed", range(24))
def test_import_csv_matches_a_row_wise_reference(tmp_path, caplog, seed):
    rng = np.random.default_rng(seed)
    mapping = {"size": "size", "delay": "delay", "size_unit": ("bytes", "bits")[seed % 2]}
    header = ["size", "delay", "note", "size"]  # the last "size" column is the one read
    for bit, key in ((2, "lost"), (4, "timestamp")):
        if seed & bit:
            mapping[key] = key
            header.insert(int(rng.integers(0, len(header) + 1)), key)
    odd = rng.random() < 0.7
    lines = [",".join(header)]
    for _ in range(int(rng.integers(1, 300))):
        if rng.random() < 0.03:
            lines.append("")  # a blank line is no row
            continue
        row = []
        for name in header:
            pool = _CELLS_BY_COLUMN.get(name, ["x", ""])
            if odd and rng.random() < 0.15:
                pool = _ODD_CELLS
            cell = str(rng.choice(pool))
            if "," in cell or '"' in cell or rng.random() < 0.1:
                cell = '"' + cell.replace('"', '""') + '"'
            row.append(cell)
        if rng.random() < 0.05:
            row = row[:int(rng.integers(1, len(row)))]  # a short row
        lines.append(",".join(row))
    csv_path = tmp_path / "delays.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    want, counts = _reference_import(csv_path, mapping)
    if not len(want):
        with pytest.raises(EmptyFile):
            import_csv(csv_path, mapping)
        return
    with caplog.at_level("WARNING", logger="deltaprobe.store"):
        got = import_csv(csv_path, mapping)
    assert (got.path_id, got.method) == (want.path_id, want.method)
    for name in ("seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s"):
        column, expected = getattr(got, name), getattr(want, name)
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes(), name
    warned = [r.args[1:] for r in caplog.records if "treated as lost" in r.getMessage()]
    assert warned == ([counts] if any(counts) else [])


def test_empty_delay_cells_take_the_one_numpy_parse(tmp_path, monkeypatch):
    calls = []
    float_or_nan = store._float_or_nan
    monkeypatch.setattr(store, "_float_or_nan", lambda text: calls.append(text) or float_or_nan(text))
    mapping = {"size": "size_bytes", "delay": "delay_s", "lost": "lost", "timestamp": "t"}
    csv_path = tmp_path / "lossy.csv"
    csv_path.write_text("size_bytes,delay_s,lost,t\n100,0.018,0,5\n100,,1,\n1124,,0,7\n1124,0.042,0,9\n")
    samples = import_csv(csv_path, mapping)
    assert calls == []
    assert [s.lost for s in samples] == [False, True, True, False]
    assert samples.sent_at_us.tolist() == [5, 1, 7, 9]

    csv_path.write_text("size_bytes,delay_s,lost,t\n100,0.018,0,5\n100,abc,0,6\n1124,0.042,0,9\n")
    samples = import_csv(csv_path, mapping)
    assert "abc" in calls
    assert np.isnan(samples.rtt_s[1]) and samples.rtt_s[[0, 2]].tolist() == [0.018, 0.042]


# ---------------------------------------------------------------------------
# observation CSVs for the intercept model
# ---------------------------------------------------------------------------

def test_read_observations(tmp_path):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text(
        "path_id,n,l_km,a_s\np1,5,1000,0.0055\np2,10,2000,0.011\n"
    )
    obs = read_observations_csv(csv_path)
    assert len(obs) == 2
    features, a = obs[0]
    assert features.hop_count_n == 5
    assert features.route_length_l_km == 1000.0
    assert a == 0.0055


def test_read_observations_missing_column(tmp_path):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text("path_id,n,a_s\np1,5,0.0055\n")
    with pytest.raises(MissingColumn):
        read_observations_csv(csv_path)


# ---------------------------------------------------------------------------
# sample lines in bulk
# ---------------------------------------------------------------------------

def _reference_line(sample, extra=None):
    """What a sample line must be: its fields through json.dumps."""
    obj = {name: getattr(sample, name) for name in
           ("path_id", "seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s", "lost", "method")}
    obj.update(extra or {})
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_sample_lines_match_json_dumps(tmp_path, monkeypatch):
    rng = np.random.default_rng(53)
    for i, path_id in enumerate(['plain', 'quote " and % and \\', "höst-☃", "", "extras everywhere"]):
        n = int(rng.integers(1, 200))
        rtts = [None if rng.random() < 0.2 else float(rng.uniform(1e-7, 3.0)) * 10.0 ** int(rng.integers(-3, 3))
                for _ in range(n)]
        samples = [make_sample(int(rng.choice([1024, 9216])), rtt, seq=k, path_id=path_id,
                               sent_at_us=int(rng.integers(0, 2**62)), method="udp_echo")
                   for k, rtt in enumerate(rtts)]
        extras = {0: {"probe_color": "blue"}, n - 1: {"note": [1, 2.5, None]}}
        if path_id == "extras everywhere":
            # chunks of 7 lines, each line with its own extra, so every
            # chunk seam has an extra on both sides
            monkeypatch.setattr(store, "_CHUNK_LINES", 7)
            extras = {k: {"hop": k % 3, "tag": f"t{k}"} for k in range(n)}
        record = SessionRecord(session_id=f"b{i}", created_at="t", plan=None,
                               samples=samples, sample_extras=extras)
        path = tmp_path / f"b{i}.jsonl"
        save_session(record, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert lines == [_reference_line(s, extras.get(s.seq)) for s in samples]
        assert load_session(path) == record


def _long_session(tmp_path, n=5000):
    samples = [make_sample(1024 if k % 2 else 9216, 0.01 + k * 1e-6, seq=k) for k in range(n)]
    path = tmp_path / "long.jsonl"
    save_session(SessionRecord(session_id="long", created_at="t", plan=None, samples=samples), path)
    return path, path.read_text().splitlines()


def test_load_names_bad_line_beyond_first_chunk(tmp_path):
    path, lines = _long_session(tmp_path)
    for line_no, text in ((4000, '{"seq": 3998,'), (3001, lines[3000].replace('"seq":2999', '"seq":-1')),
                          (4500, lines[4499].replace('"lost":false', '"lost":"no"')),
                          (2500, lines[2499].replace('"seq":', '"sequence":')),
                          (2, lines[1].replace('"method":"simulated"', '"method":"pigeon"'))):
        bad = list(lines)
        bad[line_no - 1] = text
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(CorruptLine) as excinfo:
            load_session(path)
        assert excinfo.value.line_number == line_no


def test_load_skips_blank_lines(tmp_path):
    path, lines = _long_session(tmp_path)
    record = load_session(path)
    path.write_text("\n".join(lines[:3000] + ["", "  "] + lines[3000:]) + "\n")
    assert load_session(path) == record


def test_load_rejects_mixed_path_ids(tmp_path):
    path, lines = _long_session(tmp_path)
    lines[2600] = lines[2600].replace('"path_id":"test"', '"path_id":"other"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLine) as excinfo:
        load_session(path)
    assert excinfo.value.line_number == 2601


def test_load_rejects_samples_out_of_seq_order(tmp_path):
    path, lines = _long_session(tmp_path, n=10)
    lines[5], lines[6] = lines[6], lines[5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLine) as excinfo:
        load_session(path)
    assert excinfo.value.line_number == 7


@pytest.mark.parametrize("spacing", [False, True], ids=["bulk", "json"])
def test_load_checks_each_chunk_once_and_concat_never(tmp_path, monkeypatch, spacing):
    path, lines = _long_session(tmp_path, n=10)
    if spacing:  # lines the bulk parser does not take
        path.write_text("\n".join(line.replace('"lost":', '"lost": ') for line in lines) + "\n")
    monkeypatch.setattr(store, "_CHUNK_LINES", 4)
    built = []
    init = SampleBatch.__init__

    def counting_init(self, path_id, method, seq, *columns):
        built.append(len(seq))
        init(self, path_id, method, seq, *columns)

    monkeypatch.setattr(SampleBatch, "__init__", counting_init)
    record = load_session(path)
    assert built == [4, 4, 2]
    monkeypatch.undo()
    assert record.samples == load_session(path).samples
    assert record.samples.seq.tolist() == list(range(10))


@pytest.mark.parametrize("spacing", [False, True], ids=["bulk", "json"])
@pytest.mark.parametrize("old, new, message", [
    ('"seq":4,', '"seq":0,', "samples must be ordered by seq, got 0"),
    ('"path_id":"test"', '"path_id":"other"', "path_id 'other' differs from the first sample's 'test'"),
], ids=["seq steps back", "second path_id"])
def test_load_checks_each_chunk_boundary(tmp_path, monkeypatch, spacing, old, new, message):
    # chunks of 4 sample lines: lines 2-5, 6-9 and 10-11; the second chunk
    # is consistent in itself, and only its seam with the first is bad
    path, lines = _long_session(tmp_path, n=10)
    lines[5:9] = [line.replace(old, new) for line in lines[5:9]]
    if spacing:  # lines the bulk parser does not take
        lines = [line.replace('"lost":', '"lost": ') for line in lines]
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(store, "_CHUNK_LINES", 4)
    with pytest.raises(CorruptLine, match=f"bad sample: sample 0: {message}") as excinfo:
        load_session(path)
    assert excinfo.value.line_number == 6


def test_record_dict_is_asdict_without_the_deep_copy():
    records = [
        BandwidthEstimate(341e3, -0.002, "regression", 1e-4, ("negative intercept", "other")),
        DelaySummary(n_total=4, n_lost=4, mean_s=None, lower_2_5_s=None, upper_97_5_s=None,
                     jitter_s=None, loss_rate=1.0),
        InterceptModel(alpha_s_per_hop=1e-4, beta_s_per_km=5e-6, residual_rms_s=2e-5,
                       n_observations=12, const_s=0.001),
        SimPath(hops=(Hop(capacity_bps=1e6, propagation_s=0.01),
                      Hop(2e6, 0.002, 1e-5, 1e-3, 0.01), Hop(capacity_bps=5e6)), seed=9),
        ProbePlan(target="example.net", sizes_payload_bytes=(100, 600, 1124), count_per_size=5),
        PathFeatures(path_id="example.net", hop_count_n=7, route_length_l_km=1500.0),
    ]
    for record in records:
        shallow, deep = store.record_dict(record), asdict(record)
        assert shallow == deep and list(shallow) == list(deep)
        assert json.dumps(shallow) == json.dumps(deep)
        assert store.dump_line(shallow) == store.dump_line(deep)
    assert store.plan_to_json(records[3]) == {"type": "sim", **asdict(records[3])}


# ---------------------------------------------------------------------------
# bulk parsing of canonical sample lines against the json.loads path
# ---------------------------------------------------------------------------

def _outcome(path):
    """What load_session makes of a file: the record, or the CorruptLine's
    line number."""
    try:
        return load_session(path)
    except CorruptLine as exc:
        return exc.line_number


def _load_both_ways(path, monkeypatch):
    """The outcome of loading `path` as it is, which must equal that with
    every chunk forced through json.loads, and how many chunks were parsed
    in bulk."""
    real, bulk = store._bulk_chunk, []

    def counting(chunk, ids):
        columns = real(chunk, ids)
        bulk.append(columns is not None)
        return columns

    with monkeypatch.context() as patch:
        patch.setattr(store, "_bulk_chunk", counting)
        fast = _outcome(path)
    with monkeypatch.context() as patch:
        patch.setattr(store, "_bulk_chunk", lambda chunk, ids: None)
        slow = _outcome(path)
    if isinstance(fast, SessionRecord):
        # == compares RTTs as numbers; the bits must match too
        assert fast.samples.rtt_s.tobytes() == slow.samples.rtt_s.tobytes()
    assert fast == slow
    return fast, sum(bulk)


def _seeded_session(tmp_path, seed=54, n=3 * 2048 + 777):
    """A session of four chunks, with losses and RTTs over the whole float
    range, written by save_session; also its lines."""
    rng = np.random.default_rng(seed)
    rtt = 10.0 ** rng.uniform(-307, 307, n)
    typical = rng.random(n) < 0.3
    rtt[typical] = rng.uniform(1e-4, 0.5, int(typical.sum()))
    rtt[:4] = (5e-324, 1.7976931348623157e+308, 2.2250738585072014e-308, 0.1)
    rtt[rng.random(n) < 0.1] = np.nan
    payload = rng.integers(1, 9000, n)
    samples = SampleBatch(
        path_id="host-1.example", method="udp_echo",
        seq=np.arange(n) * 7, payload_bytes=payload, wire_bits=payload * 8 + 224,
        sent_at_us=np.sort(rng.integers(0, 10 ** 18, n)), rtt_s=rtt,
    )
    path = tmp_path / "seeded.jsonl"
    save_session(SessionRecord(session_id="seeded", created_at="t", plan=None, samples=samples), path)
    return path, path.read_bytes().split(b"\n")[:-1]


def _write(path, lines, end=b"\n"):
    path.write_bytes(b"\n".join(lines) + end)


def test_bulk_parse_matches_json_path_on_seeded_sessions(tmp_path, monkeypatch):
    for seed in (54, 55):
        path, _ = _seeded_session(tmp_path, seed)
        record, bulk_chunks = _load_both_ways(path, monkeypatch)
        assert isinstance(record, SessionRecord) and bulk_chunks == 4


def _rtt_texts(rng, n):
    """Decimal spellings of RTTs that repr never writes: long digit strings,
    exact binary expansions, exact ties between neighbouring floats."""
    texts = []
    with localcontext() as ctx:
        ctx.prec = 1000
        for x in rng.uniform(1e-6, 2.0, n).tolist():
            exact = Decimal(x)
            tie = (exact + Decimal(np.nextafter(x, np.inf))) / 2
            texts += [f"{x:.40f}", f"{x:.25e}", f"{x:.3E}", str(exact), str(tie), f"{x * 1e6:.0f}e-6"]
    return texts + ["4.9406564584124654e-324", "2.4703282292062328e-324", "1" + "0" * 330 + "e-330",
                    "0." + "9" * 400, "179769313486231570" + "0" * 291, "1e308", "12"]


def test_bulk_parse_matches_json_path_on_hand_written_decimals(tmp_path, monkeypatch):
    path, lines = _seeded_session(tmp_path)
    texts = iter(_rtt_texts(np.random.default_rng(56), 500))
    for i, line in enumerate(lines[1:], start=1):
        if b'"lost":false' in line:
            text = next(texts, None)
            if text is None:
                break
            lines[i] = _replace_field(line, "rtt_s", text.encode())
    assert next(texts, None) is None
    _write(path, lines)
    record, bulk_chunks = _load_both_ways(path, monkeypatch)
    assert isinstance(record, SessionRecord) and bulk_chunks == 4


def _replace_field(line, name, text):
    head, _, tail = line.partition(b'"%s":' % name.encode())
    end = min(i for i in (tail.find(b","), tail.find(b"}")) if i >= 0)
    return head + b'"%s":' % name.encode() + text + tail[end:]


def test_bulk_parse_falls_back_with_the_same_outcome(tmp_path, monkeypatch):
    path, lines = _seeded_session(tmp_path)
    # chunks start at lines 2, 2050, 4098 and 6146; lines[i] is line i + 1
    def first(lost, after):
        return next(i for i in range(after, len(lines)) if (b'"lost":true' in lines[i]) == lost)

    lost, kept, kept_late = first(True, 5000), first(False, 2600), first(False, 6500)
    with_extra = json.loads(lines[3000]) | {"probe_color": "blue"}
    cases = {
        # name: (CorruptLine line number or None, chunks parsed in bulk, {index: line})
        "seq of 19 digits beyond int64": (
            4100, 2, {4099: _replace_field(lines[4099], "seq", b"9" * 19)}),
        "seq of 19 digits within int64": (
            None, 3, {len(lines) - 1: _replace_field(lines[-1], "seq", b"1" + b"0" * 18)}),
        "lost with an rtt_s": (lost + 1, 2, {lost: _replace_field(lines[lost], "rtt_s", b"0.01")}),
        "rtt_s null but not lost": (kept + 1, 1, {kept: _replace_field(lines[kept], "rtt_s", b"null")}),
        "rtt_s overflowing to inf": (
            kept_late + 1, 4, {kept_late: _replace_field(lines[kept_late], "rtt_s", b"1e400")}),
        "second path_id in a later chunk": (4098, 2, {
            i: lines[i].replace(b'"path_id":"host-1.example"', b'"path_id":"other"')
            for i in range(4097, 6145)}),
        "unknown fields mid-file": (None, 3, {
            3000: json.dumps(with_extra, sort_keys=True, separators=(",", ":")).encode()}),
        "bad line past the first chunk": (5001, 2, {5000: lines[5000][:-7]}),
        "invalid UTF-8 past the first chunk": (
            3333, 1, {3332: lines[3332].replace(b"host-1", b"host-\xff")}),
        "UTF-8 encoded surrogate in an unknown field": (
            4444, 2, {4443: lines[4443][:-1] + b',"note":"\xed\xa0\x80"}'}),
    }
    for name, (line_no, want_bulk, changes) in cases.items():
        changed = list(lines)
        for i, text in changes.items():
            changed[i] = text
        _write(path, changed)
        outcome, bulk_chunks = _load_both_ways(path, monkeypatch)
        assert bulk_chunks == want_bulk, name
        if line_no is None:
            assert isinstance(outcome, SessionRecord), name
        else:
            assert outcome == line_no, name
        if name == "unknown fields mid-file":
            assert outcome.sample_extras == {with_extra["seq"]: {"probe_color": "blue"}}

    _write(path, lines, end=b"")  # no final newline: the last chunk falls back
    outcome, bulk_chunks = _load_both_ways(path, monkeypatch)
    assert isinstance(outcome, SessionRecord) and bulk_chunks == 3


def test_load_numbers_lines_as_a_text_file_does(tmp_path, monkeypatch):
    path, lines = _long_session(tmp_path, n=3000)
    record = load_session(path)
    bad = list(lines)
    bad[2500] = '{"seq": 2499,'
    for ending in ("\r\n", "\r", "mixed"):
        for text, want in ((lines, record), (bad, 2501)):
            if ending == "mixed":  # one bare "\r" mid-file ends a line too
                data = "\n".join(text[:1000]) + "\r" + "\n".join(text[1000:]) + "\n"
            else:
                data = ending.join(text) + ending
            path.write_bytes(data.encode())
            assert _load_both_ways(path, monkeypatch)[0] == want


def test_invalid_utf8_names_the_line(tmp_path):
    path, lines = _long_session(tmp_path, n=10)
    for line_no, old, new in ((1, '"session_id":"long"', '"session_id":"lo\udcffng"'),
                              (4, '"path_id":"test"', '"path_id":"te\udcffst"')):
        bad = list(lines)
        bad[line_no - 1] = bad[line_no - 1].replace(old, new)
        path.write_bytes("\n".join(bad).encode("utf-8", "surrogateescape"))
        with pytest.raises(CorruptLine, match="invalid UTF-8") as excinfo:
            load_session(path)
        assert excinfo.value.line_number == line_no

    csv_path = tmp_path / "delays.csv"
    csv_path.write_bytes(b"size_bytes,delay_s\n100,0.018\r\n100,\xff0.02\n1124,0.042\n")
    with pytest.raises(CorruptLine, match="invalid UTF-8") as excinfo:
        import_csv(csv_path, {"size": "size_bytes", "delay": "delay_s"})
    assert excinfo.value.line_number == 3

    csv_path = tmp_path / "obs.csv"
    csv_path.write_bytes(b"path_id,n,l_km,a_s\np1,5,1000,0.0055\np\xff2,10,2000,0.011\n")
    with pytest.raises(CorruptLine, match="invalid UTF-8") as excinfo:
        read_observations_csv(csv_path)
    assert excinfo.value.line_number == 3


def test_read_observations_names_a_bad_row(tmp_path):
    csv_path = tmp_path / "obs.csv"
    for row in ("p1,x,100,0.001", "p1,5,100", "p1,0,100,0.001", "p1,5,-1,0.001", "p1,5,100,fast"):
        csv_path.write_text(f"path_id,n,l_km,a_s\np0,5,1000,0.0055\n{row}\np2,10,2000,0.011\n")
        with pytest.raises(CorruptLine) as excinfo:
            read_observations_csv(csv_path)
        assert excinfo.value.line_number == 3


def _reference_observations(path):
    """The row-wise reader the columnar one replaced: csv.DictReader and one
    PathFeatures per row (a short row reads None, so a missing number cell
    raises TypeError)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            try:
                features = PathFeatures(row["path_id"], int(row["n"]), float(row["l_km"]))
                rows.append((features, float(row["a_s"])))
            except (TypeError, ValueError):
                return reader.line_num
    return rows


def _reference_fit(rows, include_constant=False):
    """The row-wise design matrix and fit the columnar one replaced."""
    design = np.array([[f.hop_count_n, f.route_length_l_km] for f, _ in rows], dtype=float)
    if include_constant:
        design = np.column_stack([design, np.ones(len(rows))])
    targets = np.array([a for _, a in rows], dtype=float)
    coef = np.linalg.lstsq(design, targets, rcond=None)[0]
    residuals = targets - design @ coef
    return [float(c) for c in coef], float(np.sqrt(np.mean(residuals**2)))


@pytest.mark.parametrize("count", [12, 5000])
def test_columnar_observations_match_the_row_reader(tmp_path, count):
    rng = np.random.default_rng(count)
    csv_path = tmp_path / "obs.csv"
    lines = ["path_id,n,l_km,a_s"]
    for i in range(count):
        n, l_km = int(rng.integers(1, 30)), float(rng.uniform(0, 12000))
        lines.append(f"p{i},{n},{l_km!r},{1e-4 * n + 5e-6 * l_km + rng.normal(0, 1e-4)!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    obs = read_observations_csv(csv_path)
    assert isinstance(obs, Observations)
    want = _reference_observations(csv_path)
    assert list(obs) == want and len(obs) == count
    assert obs[3] == want[3] and obs[-1] == want[-1] and list(obs[2:5]) == want[2:5]
    for include_constant in (False, True):
        model = fit_intercept_model(obs, include_constant=include_constant)
        coef, rms = _reference_fit(want, include_constant)
        got = [model.alpha_s_per_hop, model.beta_s_per_km] + [model.const_s] * include_constant
        assert got == coef and model.residual_rms_s == rms
        assert fit_intercept_model(want, include_constant=include_constant) == model


@pytest.mark.parametrize("text", [
    "path_id,n,l_km,a_s\n\np0,5,1000,0.0055\n\n\np1,2,30.5,0.001\n\n",  # blank lines
    "path_id,n,l_km,a_s\r\np0,5,1000,0.0055\r\np1,2,30.5,0.001\r\n",  # CRLF
    'path_id,n,l_km,a_s\n"p,0",5,1000,0.0055\n"p\n1",2,30.5,0.001\n',  # quoted comma, newline
    "path_id,n,l_km,n,a_s\np0,x,1000,5,0.0055\np1,y,30.5,2,0.001\n",  # duplicated column
    "a_s,l_km,n,path_id,extra\n0.0055,1000,5\n0.001,30.5,2,p1,z,z\n",  # short and long rows
    "path_id,n,l_km,a_s\np0, 5 ,1_000,.0055\np1,+2,3e1,1e-3\n",  # what int() and float() take
])
def test_observations_csv_reads_as_dictreader_does(tmp_path, text):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_bytes(text.encode())
    want = _reference_observations(csv_path)
    # DictReader gives None where a short row ends, the columnar reader ""
    want = [(PathFeatures(f.path_id or "", f.hop_count_n, f.route_length_l_km), a)
            for f, a in want]
    assert list(read_observations_csv(csv_path)) == want


@pytest.mark.parametrize("row, line, message", [
    ("p1,5.0,100,0.001", 3, "n: invalid literal for int"),
    ("p1,5,100", 3, "a_s: could not convert string to float: ''"),  # short row
    ("p1,5,100,nan", 3, "a_s must be finite"),
    ("p1,5,inf,0.001", 3, "route_length_l_km must be >= 0 and finite"),
    ("p1,5,nan,0.001", 3, "route_length_l_km must be >= 0 and finite"),
    ("p1,5,100,-inf", 3, "a_s must be finite"),
    ("p1,5,100,inf", 3, "a_s must be finite"),
    ("p1,99999999999999999999,100,0.001", 3, "n: Python int too large"),
    ("p1,5,100,0.001\np2,0,1,1\np3,x,1,1", 4, "hop_count_n must be >= 1"),  # rule before parse
    ("p1,5,100,0.001\np2,1,1,zz\np3,0,1,1", 4, "could not convert"),  # parse before rule
    ("p1,x,100,0.001\np2,1,1,zz", 3, "invalid literal for int"),  # first bad of two columns
    # a quoted cell over two lines and a blank line before the bad row
    ('"p\n1",5,100,0.001\n\np2,0,1,1', 6, "hop_count_n must be >= 1"),
])
def test_observations_csv_names_the_first_bad_row(tmp_path, row, line, message):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text(f"path_id,n,l_km,a_s\np0,5,1000,0.0055\n{row}\np9,10,2000,0.011\n")
    with pytest.raises(CorruptLine, match=message) as excinfo:
        read_observations_csv(csv_path)
    assert excinfo.value.line_number == line


def test_observations_csv_with_every_row_short(tmp_path):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text("path_id,n,l_km,a_s\np0,5,1000\np1,2\n")
    with pytest.raises(CorruptLine, match="a_s: could not convert") as excinfo:
        read_observations_csv(csv_path)
    assert excinfo.value.line_number == 2
