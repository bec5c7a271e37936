import csv
import errno
import functools
import io
import json
import math
import os
import pathlib
import re
import stat
import typing
from dataclasses import asdict, fields
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import make_sample
from deltaprobe.errors import (ConfigError, CorruptLine, DeltaProbeError, EmptyFile, MissingColumn,
                              SchemaMismatch)
from deltaprobe.estimator import BandwidthEstimate, estimate_pairwise, min_delay_profile
from deltaprobe.intercept import InterceptModel, Observations, PathFeatures, fit_intercept_model
from deltaprobe.probe import DEFAULT_UDP_PORT, ProbePlan
from deltaprobe import store
from deltaprobe.probe import SampleBatch
from deltaprobe.records import check_value, from_json
from deltaprobe.simulator import Hop, SimPath, path_from_config
from deltaprobe.stats import DelaySummary
from deltaprobe.store import (
    CANONICAL_CSV_COLUMNS,
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


# Every field of the records a session or path file holds, by its JSON
# kind: "sizes" is an array of integers, "hops" an array of Hop objects.
_RECORD_FIELDS = {
    "metadata": {"session_id": str, "created_at": str},
    "Hop": {"capacity_bps": float, "propagation_s": float, "processing_s": float,
            "queue_noise_mean_s": float, "loss_prob": float},
    "SimPath": {"hops": "hops", "seed": int},
    "ProbePlan": {"target": str, "sizes_payload_bytes": "sizes", "count_per_size": int,
                  "inter_probe_gap_s": float, "timeout_s": float, "method": str, "udp_port": int},
    "PathFeatures": {"path_id": str, "hop_count_n": int, "route_length_l_km": float},
}
_KIND = {int: "an integer", float: "a number", str: "a string"}
_WRONG = {
    int: (True, "x", 1.5, None, [1], {"n": 1}),
    float: (True, "0.01", None, [0.01], {"x": 0.01}),
    str: (5, True, 1.5, None, ["a"], {"a": "b"}),
}
# keys no record has; top-level metadata keys are kept as extras instead
_UNKNOWN_KEYS = {"Hop": ("colour",), "SimPath": ("sede", "features"),
                 "ProbePlan": ("colour",), "PathFeatures": ("colour",)}


def _wrong_type_rows():
    """(record, field, value, message) for each field and each wrong value
    of its kind, and for each unknown key."""
    for record, fields in _RECORD_FIELDS.items():
        prefix = "hops[0]: " if record == "Hop" else ""
        for field, kind in fields.items():
            if kind in _WRONG:
                for value in _WRONG[kind]:
                    yield record, field, value, f"{prefix}{field} must be {_KIND[kind]}, got {value!r}"
                continue
            for value in (True, "x", 5, None, {"a": 1}):
                yield record, field, value, f"{field} must be an array, got {value!r}"
            if kind == "sizes":
                for item in (True, "100", 100.5, None, [100], {"a": 1}):
                    yield (record, field, [item, 1124],
                           f"{field}[0] must be an integer, got {item!r}")
            else:
                for item in (True, "x", 5, None, [{"capacity_bps": 1e6}]):
                    yield record, field, [item], f"hops[0]: Hop must be an object, got {item!r}"
        for key in _UNKNOWN_KEYS.get(record, ()):
            yield record, key, 1, f"{prefix}{record} has no field {key!r}"


_WRONG_TYPE_ROWS = list(_wrong_type_rows())


def test_the_wrong_type_table_covers_every_field():
    for cls in (Hop, SimPath, ProbePlan, PathFeatures):
        assert list(_RECORD_FIELDS[cls.__name__]) == [f.name for f in fields(cls)]
    covered = {(record, field) for record, field, _, _ in _WRONG_TYPE_ROWS}
    assert covered >= {(r, f) for r, fs in _RECORD_FIELDS.items() for f in fs}


def _with_field(obj: dict, record: str, field: str, value) -> dict:
    """`obj`, a session's metadata or a path config, with `field` of
    `record` (its first hop for a Hop) set to `value`."""
    plan = obj.get("plan", obj)  # a path config holds the fields of a sim plan
    target = plan["hops"][0] if record == "Hop" else \
        {"metadata": obj, "PathFeatures": obj.get("features")}.get(record, plan)
    target[field] = value
    return obj


@pytest.mark.parametrize(
    "record, field, value, message", _WRONG_TYPE_ROWS,
    ids=[f"{record}.{field}={value!r}" for record, field, value, _ in _WRONG_TYPE_ROWS])
def test_a_json_field_of_the_wrong_type_is_refused(tmp_path, record, field, value, message):
    path = tmp_path / "s.jsonl"
    save_session(sample_record(), path)
    meta, *samples = path.read_text().splitlines(keepends=True)
    meta = json.loads(meta)
    if record in ("SimPath", "Hop"):
        meta["plan"] = {"type": "sim", "seed": 1, "hops": [{"capacity_bps": 1e6}]}
        config = _with_field({"seed": 1, "hops": [{"capacity_bps": 1e6}]}, record, field, value)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            path_from_config(config)
    path.write_text(json.dumps(_with_field(meta, record, field, value)) + "\n" + "".join(samples))
    with pytest.raises(CorruptLine, match=f"^line 1: bad metadata: {re.escape(message)}$"):
        load_session(path)


class _Text(str):
    pass


# (record, a field of it); every other field is left at a valid value
_RULE_FIELDS = [(Hop, "capacity_bps"), (ProbePlan, "count_per_size"), (ProbePlan, "target"),
                (PathFeatures, "hop_count_n"), (PathFeatures, "route_length_l_km")]
_VALID = {Hop: {"capacity_bps": 1e6}, ProbePlan: {"target": "x"},
          PathFeatures: {"path_id": "p", "hop_count_n": 3, "route_length_l_km": 1.0}}


@pytest.mark.parametrize("record, field", _RULE_FIELDS, ids=[f"{r.__name__}.{f}" for r, f in _RULE_FIELDS])
@pytest.mark.parametrize("value", [
    5, 5.0, True, False, np.float64(5.0), np.float32(5.0), np.int64(5), np.bool_(True),
    "5", _Text("5"), None, Decimal(5), [5],
], ids=repr)
def test_a_record_field_takes_what_check_value_takes(record, field, value):
    hint = typing.get_type_hints(record)[field]
    try:
        check_value(field, hint, value)
    except TypeError as exc:
        with pytest.raises(TypeError, match=f"^{re.escape(str(exc))}$"):
            record(**_VALID[record] | {field: value})
    else:
        assert getattr(record(**_VALID[record] | {field: value}), field) is value


def test_record_field_rules_keep_numpy_scalars_and_refuse_bools():
    assert Hop(capacity_bps=np.float64(1e6)).capacity_bps == 1e6
    assert Hop(capacity_bps=np.float32(1e6), loss_prob=np.int64(0)).capacity_bps == 1e6
    assert ProbePlan(target="x", count_per_size=np.int64(3), udp_port=np.int64(7)).count_per_size == 3
    assert Hop(capacity_bps=10 ** 6).capacity_bps == 10 ** 6  # an int in a float field
    assert PathFeatures(path_id=_Text("p"), hop_count_n=1, route_length_l_km=0).path_id == "p"
    with pytest.raises(TypeError, match=r"^count_per_size must be an integer, got True$"):
        ProbePlan(target="x", count_per_size=True)
    with pytest.raises(TypeError, match=r"^hop_count_n must be an integer, got False$"):
        PathFeatures(path_id="p", hop_count_n=False, route_length_l_km=0.0)
    with pytest.raises(TypeError, match=r"^capacity_bps must be a number, got True$"):
        Hop(capacity_bps=True)
    with pytest.raises(TypeError, match=r"^loss_prob must be a number, got False$"):
        Hop(capacity_bps=1e6, loss_prob=False)
    with pytest.raises(TypeError, match=f"^count_per_size must be an integer, got {re.escape(repr(np.float64(3)))}$"):
        ProbePlan(target="x", count_per_size=np.float64(3))


def test_from_json_names_the_first_unknown_key():
    with pytest.raises(TypeError, match=r"^ProbePlan has no field 'colour'$"):
        from_json(ProbePlan, {"target": "x", "colour": 1, "flavour": 2})
    with pytest.raises(TypeError, match=r"^ProbePlan has no field 'flavour'$"):
        from_json(ProbePlan, {"flavour": 2, "target": "x", "colour": 1})


def test_a_probe_plan_without_udp_port_loads_with_the_default(tmp_path):
    # writers before udp_port was a plan field left it out
    record = sample_record()
    path = tmp_path / "s.jsonl"
    save_session(record, path)
    meta, *samples = path.read_text().splitlines(keepends=True)
    meta = json.loads(meta)
    del meta["plan"]["udp_port"]
    path.write_text(json.dumps(meta) + "\n" + "".join(samples))
    loaded = load_session(path)
    assert loaded.plan.udp_port == DEFAULT_UDP_PORT and loaded == record


@pytest.mark.parametrize("field", ["session_id", "created_at"])
def test_a_session_record_with_a_metadata_string_of_the_wrong_type_is_not_built(tmp_path, field):
    path = tmp_path / "s.jsonl"
    with pytest.raises(TypeError, match=f"^{field} must be a string, got 7$"):
        save_session(SessionRecord(**{**vars(sample_record()), field: 7}), path)
    assert not path.exists()


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


@pytest.mark.parametrize("chunk_lines", [2048, 2])
def test_extras_of_repeated_seqs_round_trip_byte_for_byte(tmp_path, monkeypatch, chunk_lines):
    # seqs may repeat, so extras are kept by row; chunks of 2 split the repeats
    monkeypatch.setattr(store, "_CHUNK_LINES", chunk_lines)
    samples = [make_sample(1024, 0.01, seq=seq) for seq in (0, 5, 5, 6, 6)]
    extras = {1: {"note": "first"}, 3: {"note": "a"}, 4: {"note": "b"}}
    meta = {"created_at": "t", "features": None, "plan": None, "schema": 1, "session_id": "x"}
    lines = [json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    lines += [_reference_line(s, extras.get(row)) for row, s in enumerate(samples)]
    path, out = tmp_path / "repeats.jsonl", tmp_path / "resaved.jsonl"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_session(path)
    assert loaded.sample_extras == extras
    save_session(loaded, out)
    assert out.read_bytes() == path.read_bytes()


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
    samples = import_csv(csv_path)
    assert [s.wire_bits for s in samples] == [800, 8992]
    profile = min_delay_profile(samples, 1)
    est = estimate_pairwise(*profile.points)
    assert est.b_av_bps == pytest.approx(341333.33, abs=1.0)


def test_import_missing_delay_column(tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("size_bytes,rtt\n100,0.018\n")
    with pytest.raises(MissingColumn):
        import_csv(csv_path)


def test_import_empty_file(tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("")
    with pytest.raises(EmptyFile):
        import_csv(csv_path, size_column="s", delay_column="d")
    csv_path.write_text("size_bytes,delay_s\n")
    with pytest.raises(EmptyFile):
        import_csv(csv_path)


def test_import_unparseable_delay_becomes_lost(tmp_path):
    csv_path = tmp_path / "mixed.csv"
    csv_path.write_text("size_bytes,delay_s\n100,0.018\n100,n/a\n1124,0.042\n")
    samples = import_csv(csv_path)
    assert len(samples) == 3
    assert [s.lost for s in samples] == [False, True, False]


def test_import_bits_unit(tmp_path):
    csv_path = tmp_path / "bits.csv"
    csv_path.write_text("wire,delay\n800,0.018\n8992,0.042\n")
    samples = import_csv(csv_path, size_column="wire", size_unit="bits", delay_column="delay")
    assert [s.wire_bits for s in samples] == [800, 8992]


def test_import_lost_column(tmp_path):
    csv_path = tmp_path / "lost.csv"
    csv_path.write_text("size_bytes,delay_s,lost\n100,0.018,0\n100,,1\n")
    samples = import_csv(csv_path, lost_column="lost")
    assert [s.lost for s in samples] == [False, True]


def test_export_import_preserves_size_delay_lost(tmp_path):
    rng = np.random.default_rng(52)
    for i in range(10):
        record = random_record(rng, f"e{i}")
        csv_path = tmp_path / f"e{i}.csv"
        export_csv(record.samples, csv_path)
        back = import_csv(csv_path, **CANONICAL_CSV_COLUMNS)
        assert len(back) == len(record.samples)
        for orig, imported in zip(record.samples, back):
            assert imported.wire_bits == orig.wire_bits
            assert imported.lost == orig.lost
            assert imported.rtt_s == orig.rtt_s  # repr round-trips floats
            assert imported.sent_at_us == orig.sent_at_us


def _reference_import(path, columns):
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
    values_of = {name: [] for name in ("seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s")}
    bad_delays = bad_sizes = 0
    for index, row in enumerate(rows):
        size = integer(row[columns["size_column"]])
        wire_bits = None if size is None else size * (8 if columns["size_unit"] == "bytes" else 1)
        if wire_bits is None or wire_bits < 8:
            bad_sizes += 1
            continue
        rtt = number(row[columns["delay_column"]])
        if ("lost_column" in columns
                and row[columns["lost_column"]].strip().lower() in {"1", "true", "yes", "y", "lost"}):
            rtt = math.nan
        elif not 0 < rtt < math.inf:
            bad_delays += 1
            rtt = math.nan
        stamp = (integer(row[columns["timestamp_column"]]) if "timestamp_column" in columns
                 else None)
        for name, value in zip(values_of, (index, wire_bits // 8, wire_bits,
                                           index if stamp is None else stamp, rtt)):
            values_of[name].append(value)
    batch = SampleBatch("import", "imported", *(
        np.array(values, dtype=np.float64 if name == "rtt_s" else np.int64)
        for name, values in values_of.items()))
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


def _import_against_the_reference(tmp_path, caplog, seed, plain):
    """import_csv of a seeded file, with quoted cells, blank lines and
    short rows or, if `plain`, with none and some files in CRLF, against
    _reference_import."""
    rng = np.random.default_rng(seed)
    columns = {"size_column": "size", "delay_column": "delay",
               "size_unit": ("bytes", "bits")[seed % 2]}
    header = ["size", "delay", "note", "size"]  # the last "size" column is the one read
    for bit, key in ((2, "lost"), (4, "timestamp")):
        if seed & bit:
            columns[key + "_column"] = key
            header.insert(int(rng.integers(0, len(header) + 1)), key)
    odd = rng.random() < 0.7
    lines = [",".join(header)]
    for _ in range(int(rng.integers(1, 300))):
        if not plain and rng.random() < 0.03:
            lines.append("")  # a blank line is no row
            continue
        row = []
        for name in header:
            pool = _CELLS_BY_COLUMN.get(name, ["x", ""])
            if odd and rng.random() < 0.15:
                pool = _ODD_CELLS
            cell = str(rng.choice(pool))
            if plain:
                cell = cell.replace(",", ".").replace('"', "'")
            elif "," in cell or '"' in cell or rng.random() < 0.1:
                cell = '"' + cell.replace('"', '""') + '"'
            row.append(cell)
        if not plain and rng.random() < 0.05:
            row = row[:int(rng.integers(1, len(row)))]  # a short row
        lines.append(",".join(row))
    csv_path = tmp_path / "delays.csv"
    end = "\r\n" if plain and seed % 3 == 0 else "\n"
    csv_path.write_bytes((end.join(lines) + end).encode())
    assert (store._plain_columns(csv_path, csv_path.read_bytes(), ()) is not None) == plain

    want, counts = _reference_import(csv_path, columns)
    if not len(want):
        with pytest.raises(EmptyFile):
            import_csv(csv_path, **columns)
        return
    with caplog.at_level("WARNING", logger="deltaprobe.store"):
        got = import_csv(csv_path, **columns)
    assert (got.path_id, got.method) == (want.path_id, want.method)
    for name in ("seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s"):
        column, expected = getattr(got, name), getattr(want, name)
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes(), name
    warned = [r.args[1:] for r in caplog.records if "treated as lost" in r.getMessage()]
    assert warned == ([counts] if any(counts) else [])


@pytest.mark.parametrize("seed", range(24))
def test_import_csv_matches_a_row_wise_reference(tmp_path, caplog, seed):
    _import_against_the_reference(tmp_path, caplog, seed, plain=False)


@pytest.mark.parametrize("seed", range(24))
def test_plain_import_csv_matches_a_row_wise_reference(tmp_path, caplog, seed):
    _import_against_the_reference(tmp_path, caplog, seed, plain=True)


def test_empty_delay_cells_take_the_one_numpy_parse(tmp_path, monkeypatch):
    calls = []
    float_or_nan = store._float_or_nan
    monkeypatch.setattr(store, "_float_or_nan", lambda text: calls.append(text) or float_or_nan(text))
    columns = {"lost_column": "lost", "timestamp_column": "t"}
    csv_path = tmp_path / "lossy.csv"
    csv_path.write_text("size_bytes,delay_s,lost,t\n100,0.018,0,5\n100,,1,\n1124,,0,7\n1124,0.042,0,9\n")
    samples = import_csv(csv_path, **columns)
    assert calls == []
    assert [s.lost for s in samples] == [False, True, True, False]
    assert samples.sent_at_us.tolist() == [5, 1, 7, 9]

    csv_path.write_text("size_bytes,delay_s,lost,t\n100,0.018,0,5\n100,abc,0,6\n1124,0.042,0,9\n")
    samples = import_csv(csv_path, **columns)
    assert "abc" in calls
    assert np.isnan(samples.rtt_s[1]) and samples.rtt_s[[0, 2]].tolist() == [0.018, 0.042]


def _reference_int_column(cells):
    """_int_column with every column on the float route."""
    values = store._float_column(cells)
    ok = np.abs(values) < 2.0 ** 59
    return np.where(ok, values, 0).astype(np.int64), ok


def _reference_lost_column(cells):
    """_lost_column cell by cell, as import_csv's docstring states the rule."""
    return np.array([c.strip().lower() in {"1", "true", "yes", "y", "lost"} for c in cells], bool)


# size and timestamp cells of plain digits, some of them at or past 2**53,
# where a float no longer holds every integer, and cells of any other kind
_DIGIT_CELLS = ["0", "007", "010", str(2**53 - 1), str(2**53), str(2**53 + 1),
                "9" * 16, "9" * 19, "9" * 25]
_NOT_DIGIT_CELLS = ["", " ", " 8", "+5", "-5", "5.0", "1e3", "٣", "1_0", "inf", "nan"]
_FLAG_CELLS = ["0", "1"]
_NOT_FLAG_CELLS = ["01", " 1", "true", ""]


def _seeded_column(rng, common, rare, n):
    """`n` cells, half the time all of `common` and else some of `rare` too."""
    pool = common if rng.random() < 0.5 else common + rare
    return [str(cell) for cell in rng.choice(pool, n)]


def _same_arrays(got, want):
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_int_column_matches_the_float_route(monkeypatch):
    floated = []
    float_column = store._float_column
    monkeypatch.setattr(store, "_float_column", lambda cells: floated.append(1) or float_column(cells))
    rng = np.random.default_rng(28)
    small = _DIGIT_CELLS[:4]  # below 2**53, so a column of them stays on the integer route
    fallbacks = 0
    for _ in range(4000):
        cells = _seeded_column(rng, small, _DIGIT_CELLS[4:] + _NOT_DIGIT_CELLS, rng.integers(1, 31))
        floated.clear()
        got, took_float = store._int_column(cells), len(floated)
        assert _same_arrays(got, _reference_int_column(cells)), cells
        assert took_float == (not set(cells) <= set(small)), cells
        fallbacks += took_float
    assert 1000 < fallbacks < 3000  # both routes taken


def test_lost_column_matches_the_cell_rule():
    rng = np.random.default_rng(29)
    for _ in range(4000):
        cells = _seeded_column(rng, _FLAG_CELLS, _NOT_FLAG_CELLS, rng.integers(1, 31))
        got = store._lost_column(cells)
        assert got.dtype == bool and got.tolist() == _reference_lost_column(cells).tolist(), cells


_BATCH_COLUMNS = ("seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s")


def _import_outcome(path, caplog, columns):
    """import_csv's batch and warnings, or the error it raises."""
    caplog.clear()
    try:
        with caplog.at_level("WARNING", logger="deltaprobe.store"):
            batch = import_csv(path, **columns)
    except DeltaProbeError as exc:
        return type(exc).__name__, str(exc)
    return ([getattr(batch, name).tobytes() for name in _BATCH_COLUMNS],
            [r.getMessage() for r in caplog.records])


@pytest.mark.parametrize("plain", [True, False])
def test_import_csv_outcomes_match_the_reference_routes(tmp_path, caplog, monkeypatch, plain):
    rng = np.random.default_rng(30 + plain)
    columns = {"lost_column": "lost", "timestamp_column": "t"}
    csv_path = tmp_path / "delays.csv"
    for _ in range(300):
        n = rng.integers(1, 31)
        sizes, stamps = (_seeded_column(rng, _DIGIT_CELLS[:4], _DIGIT_CELLS[4:] + _NOT_DIGIT_CELLS, n)
                         for _ in range(2))
        flags = _seeded_column(rng, _FLAG_CELLS, _NOT_FLAG_CELLS, n)
        delays = [str(cell) for cell in rng.choice(["0.018", "0.042", ""], n)]
        if not plain:  # a quoted cell sends the file to csv.reader
            sizes = [f'"{cell}"' for cell in sizes]
        rows = map(",".join, zip(sizes, delays, flags, stamps))
        csv_path.write_text("size_bytes,delay_s,lost,t\n" + "\n".join(rows) + "\n")
        assert (store._plain_columns(csv_path, csv_path.read_bytes(), ()) is not None) == plain
        got = _import_outcome(csv_path, caplog, columns)
        with monkeypatch.context() as patch:
            patch.setattr(store, "_int_column", _reference_int_column)
            patch.setattr(store, "_lost_column", _reference_lost_column)
            assert got == _import_outcome(csv_path, caplog, columns)


# ---------------------------------------------------------------------------
# observation CSVs for the intercept model
# ---------------------------------------------------------------------------

def test_read_observations(tmp_path):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text(
        "path_id,n,l_km,a_s\np1,5,1000,0.0055\np2,10,2000,0.011\n"
    )
    obs = read_observations_csv(csv_path)
    assert _columns(obs) == [["p1", "p2"], [5, 10], [1000.0, 2000.0], [0.0055, 0.011]]


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


def _columns_of(path):
    return path.with_name(path.name + ".columns")


def _drop_columns(path):
    """Remove the column file that save_session wrote beside `path`, so a
    load parses the session's lines."""
    _columns_of(path).unlink()


def test_bulk_parse_matches_json_path_on_seeded_sessions(tmp_path, monkeypatch):
    for seed in (54, 55):
        path, _ = _seeded_session(tmp_path, seed)
        _drop_columns(path)
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
            assert outcome.sample_extras == {3000 - 1: {"probe_color": "blue"}}

    _write(path, lines, end=b"")  # no final newline: the last chunk falls back
    outcome, bulk_chunks = _load_both_ways(path, monkeypatch)
    assert isinstance(outcome, SessionRecord) and bulk_chunks == 3


def _session_of(tmp_path, path_id, n=10):
    """A session of n samples of `path_id`, every fourth lost, and its lines."""
    samples = [make_sample(1024 if k % 2 else 9216, None if k % 4 == 3 else 0.01 + k * 1e-6,
                           seq=k, path_id=path_id) for k in range(n)]
    path = tmp_path / "ids.jsonl"
    save_session(SessionRecord(session_id="ids", created_at="t", plan=None, samples=samples), path)
    return path, path.read_bytes().split(b"\n")[:-1]


def test_bulk_parse_holds_a_path_id_of_regex_metacharacters_literally(tmp_path, monkeypatch):
    # chunks of 4 sample lines: lines 2-5, 6-9 and 10-11
    monkeypatch.setattr(store, "_CHUNK_LINES", 4)
    path, _ = _session_of(tmp_path, "a.b*c+(d)|[e]^$?{2}%")
    _drop_columns(path)
    record, bulk_chunks = _load_both_ways(path, monkeypatch)
    assert record.samples.path_id == "a.b*c+(d)|[e]^$?{2}%" and bulk_chunks == 3


@pytest.mark.parametrize("changed, line_no, want_bulk", [
    ((7,), 7, 1), ((6, 7, 8, 9), 6, 1), ((11,), 11, 2),
], ids=["mid-chunk", "a whole chunk", "last line"])
def test_bulk_parse_refuses_a_path_id_an_unescaped_pattern_would_take(
        tmp_path, monkeypatch, changed, line_no, want_bulk):
    # chunks before the bad line's are parsed in bulk, and the load stops there
    monkeypatch.setattr(store, "_CHUNK_LINES", 4)
    path, lines = _session_of(tmp_path, "a.c")
    for k in changed:
        lines[k - 1] = lines[k - 1].replace(b'"path_id":"a.c"', b'"path_id":"abc"')
    _write(path, lines)
    assert _load_both_ways(path, monkeypatch) == (line_no, want_bulk)


@pytest.mark.parametrize("name, text, want_bulk, line_no", [
    ("rtt_s", b"5e-05", 3, None),
    ("rtt_s", b"1e+300", 3, None),
    ("rtt_s", b"2.5E-3", 3, None),
    ("sent_at_us", b"-5", 3, None),
    # 19 digits, or outside the JSON grammar: the chunk is read line by line
    ("sent_at_us", b"1" + b"0" * 18, 2, None),
    ("wire_bits", b"1" + b"0" * 18, 2, None),
    ("payload_bytes", b"1" + b"0" * 18, 1, 7),
    ("wire_bits", b"0128", 1, 7),
    ("seq", b"7.0", 1, 7),
])
def test_bulk_parse_takes_json_numbers_of_at_most_18_digits(
        tmp_path, monkeypatch, name, text, want_bulk, line_no):
    monkeypatch.setattr(store, "_CHUNK_LINES", 4)
    path, lines = _session_of(tmp_path, "host")
    lines[6] = _replace_field(lines[6], name, text)  # line 7, in the second chunk
    _write(path, lines)
    outcome, bulk_chunks = _load_both_ways(path, monkeypatch)
    assert bulk_chunks == want_bulk
    if line_no is None:
        assert getattr(outcome.samples, name)[5] == json.loads(text)
    else:
        assert outcome == line_no


# The sample-line pattern as first written, with `?` groups and the other
# branch order; the current one must take exactly the same lines.
_REFERENCE_INT = rb"-?(?:0|[1-9][0-9]{0,17})"


@functools.lru_cache(maxsize=None)
def _reference_sample_line(method: bytes, path_id: bytes) -> re.Pattern:
    return re.compile(
        rb'^\{"lost":(?:(true)|false),"method":"' + re.escape(method)
        + rb'","path_id":"' + re.escape(path_id) + rb'","payload_bytes":(' + _REFERENCE_INT + rb')'
        rb',"rtt_s":((?(1)null|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?))'
        rb',"sent_at_us":(' + _REFERENCE_INT + rb',"seq":' + _REFERENCE_INT
        + rb',"wire_bits":' + _REFERENCE_INT + rb')\}\n',
        re.MULTILINE,
    )


_NUMERIC_FIELDS = ("payload_bytes", "rtt_s", "sent_at_us", "seq", "wire_bits")
_NUMBER_TEXTS = [b"0", b"-0", b"00", b"0128", b"+5", b".5", b"5.", b"1e", b"1e5", b"1E+5",
                 b"2.5E-3", b"-1.5e-300", b"123456789012345678", b"1234567890123456789",
                 b"null", b"true", b"NaN", b"Infinity"]
_ODD_IDS = "a.b*c+(d)|[e]^$?{2}%"


def _flip_lost(line):
    if b'"lost":true' in line:
        return line.replace(b'"lost":true', b'"lost":false')
    return line.replace(b'"lost":false', b'"lost":true')


def _mutated(rng, line):
    """`line` with a random numeric field spelled as a random one of
    _NUMBER_TEXTS, or with lost flipped, or both, or neither."""
    if rng.random() < 0.6:
        text = _NUMBER_TEXTS[rng.integers(len(_NUMBER_TEXTS))]
        line = _replace_field(line, str(rng.choice(_NUMERIC_FIELDS)), text)
    return _flip_lost(line) if rng.random() < 0.25 else line


def _findall_both(data):
    """The sample lines of _session_of(_, _ODD_IDS) in `data`, found alike by
    the pattern and its reference."""
    ids = (b"simulated", _ODD_IDS.encode())
    found = store._sample_line(*ids).findall(data)
    assert found == _reference_sample_line(*ids).findall(data)
    return found


def test_sample_line_pattern_takes_the_lines_its_reference_takes(tmp_path):
    _, lines = _session_of(tmp_path, _ODD_IDS, n=50)
    samples = lines[1:]
    assert b'"method":"simulated"' in samples[0]
    for line in (samples[0], samples[3]):  # kept and lost
        for flipped in (line, _flip_lost(line)):
            for name in _NUMERIC_FIELDS:
                for text in _NUMBER_TEXTS:
                    _findall_both(_replace_field(flipped, name, text) + b"\n")
    rng = np.random.default_rng(57)
    taken = 0
    for _ in range(40):
        chunk = b"".join(_mutated(rng, line) + b"\n" for line in samples)
        taken += len(_findall_both(chunk))
    assert 0 < taken < 40 * 50  # the mutations hit some lines and spare others


def _outcome_with_message(path):
    try:
        return load_session(path)
    except CorruptLine as exc:
        return str(exc)


def test_sample_line_pattern_loads_files_as_its_reference_does(tmp_path, monkeypatch):
    monkeypatch.setattr(store, "_CHUNK_LINES", 4)
    path, lines = _session_of(tmp_path, _ODD_IDS, n=12)
    rng = np.random.default_rng(58)
    outcomes = set()
    for name in _NUMERIC_FIELDS:
        for text in _NUMBER_TEXTS:
            changed = list(lines)
            at = int(rng.integers(1, len(lines)))
            changed[at] = _replace_field(changed[at], name, text)
            if rng.random() < 0.5:
                flip = int(rng.integers(1, len(lines)))
                changed[flip] = _flip_lost(changed[flip])
            _write(path, changed)
            outcome = _outcome_with_message(path)
            with monkeypatch.context() as patch:
                patch.setattr(store, "_sample_line", _reference_sample_line)
                reference = _outcome_with_message(path)
            if isinstance(outcome, SessionRecord):
                assert outcome.samples.rtt_s.tobytes() == reference.samples.rtt_s.tobytes()
            assert outcome == reference, (name, text)
            outcomes.add(type(outcome))
    assert outcomes == {SessionRecord, str}


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
        import_csv(csv_path)
    assert excinfo.value.line_number == 3

    csv_path = tmp_path / "obs.csv"
    csv_path.write_bytes(b"path_id,n,l_km,a_s\np1,5,1000,0.0055\np\xff2,10,2000,0.011\n")
    with pytest.raises(CorruptLine, match="invalid UTF-8") as excinfo:
        read_observations_csv(csv_path)
    assert excinfo.value.line_number == 3


# ---------------------------------------------------------------------------
# column files: taken only when their digest matches, else the lines parsed
# ---------------------------------------------------------------------------

_COLUMN_NAMES = ("seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s")
_COLUMN_PATH_IDS = ("a.b*c+(d)|[e]^$?{2}%", 'hôte-ß-東京 \\"x"\n')


def _column_session(tmp_path, n, path_id=_COLUMN_PATH_IDS[0], seed=61, name="cols.jsonl"):
    """A session of n samples with lost rows, repeated seqs, int64 extremes
    and the extreme RTTs, saved by save_session; its path and its samples."""
    rng = np.random.default_rng(seed)
    rtt = rng.uniform(1e-4, 0.5, n)
    rtt[rng.random(n) < 0.1] = np.nan
    rtt[:3] = (5e-324, 1.7976931348623157e308, -np.nan)  # x86's default NaN has the sign set
    payload = rng.integers(1, 9000, n)
    wire = payload * 8 + rng.integers(0, 300, n)
    payload[0], wire[0] = (2 ** 63 - 1) // 8, 2 ** 63 - 1
    seq = np.sort(rng.integers(0, n // 3, n))  # most seqs repeat
    seq[-1] = 2 ** 63 - 1
    sent = rng.integers(-2 ** 63, 2 ** 63 - 1, n, endpoint=True)
    sent[:2] = (-2 ** 63, 2 ** 63 - 1)
    samples = SampleBatch(path_id, "udp_echo", seq, payload, wire, sent, rtt)
    path = tmp_path / name
    save_session(SessionRecord(session_id=name, created_at="t", plan=None, samples=samples,
                               extra={"note": "columns"}), path)
    return path, samples


def _load_outcome(path):
    """The record load_session makes of `path`, or its error's type, line
    number and message."""
    try:
        return load_session(path)
    except DeltaProbeError as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)


def _same_outcome(got, want):
    """`got` equals `want`, and a record's columns equal byte for byte."""
    if isinstance(want, SessionRecord):
        assert isinstance(got, SessionRecord) and got.sample_extras == {}
        assert type(got.samples.path_id) is str and type(got.samples.method) is str
        for name in _COLUMN_NAMES:
            column, reference = getattr(got.samples, name), getattr(want.samples, name)
            assert column.dtype == reference.dtype, name
            assert column.tobytes() == reference.tobytes(), name
            assert not column.flags.writeable, name
    assert got == want


def _parse_only(monkeypatch):
    """Make a load that parses the session's lines fail the test."""
    def refuse(lines):
        raise AssertionError("the lines were parsed")

    monkeypatch.setattr(store, "_load_samples", refuse)


@pytest.mark.parametrize("path_id", _COLUMN_PATH_IDS, ids=["regex metacharacters", "non-ASCII"])
@pytest.mark.parametrize("n", [2048, 2049, 5003])
def test_a_column_file_loads_what_the_lines_give(tmp_path, monkeypatch, n, path_id):
    path, samples = _column_session(tmp_path, n, path_id)
    assert _columns_of(path).is_file()
    with monkeypatch.context() as patch:
        _parse_only(patch)
        with_columns = load_session(path)
    _drop_columns(path)
    parsed = load_session(path)
    _same_outcome(with_columns, parsed)
    assert parsed.samples == samples and parsed.extra == {"note": "columns"}
    # every NaN, whatever its bits in the saved batch, loads as the one a parse gives
    assert np.isnan(samples.rtt_s[2]) and parsed.samples.rtt_s[2:3].tobytes() == np.array(
        [np.nan]).tobytes()


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _check_each_change(path, original, changes):
    """For each (name, bytes) in `changes`, `path` holding those bytes gives
    the same outcome with its column file as without it; the column file
    is as save_session wrote it. The kinds of outcome seen."""
    columns = _columns_of(path)
    saved = columns.read_bytes()
    kinds = set()
    for name, data in changes:
        path.write_bytes(data)
        columns.write_bytes(saved)
        with_columns = _load_outcome(path)
        columns.unlink()
        _same_outcome(with_columns, _load_outcome(path))
        kinds.add(type(with_columns))
    path.write_bytes(original)
    return kinds


def test_a_changed_session_file_is_parsed(tmp_path):
    path, _ = _column_session(tmp_path, 2049)
    data = path.read_bytes()
    rng = np.random.default_rng(62)
    line_ends = [i for i, byte in enumerate(data) if byte == ord("\n")]
    changes = [(f"flip at {at}", _flip(data, at)) for at in rng.integers(0, len(data), 24).tolist()]
    changes += [("flip in the metadata line", _flip(data, 11)),
                ("flip in the last line", _flip(data, len(data) - 40)),
                ("cut mid-line", data[:line_ends[1500] - 9]),
                ("cut at a line end", data[:line_ends[1500] + 1]),
                ("cut to the metadata line", data[:line_ends[0] + 1]),
                ("cut to nothing", b""),
                ("last line again", data + data[line_ends[-2] + 1:]),
                ("a blank line appended", data + b"\n"),
                ("line ends of \r\n", data.replace(b"\n", b"\r\n"))]
    assert _check_each_change(path, data, changes) == {SessionRecord, tuple}


def test_a_damaged_column_file_is_not_taken(tmp_path):
    path, samples = _column_session(tmp_path, 2048)
    columns = _columns_of(path)
    saved = columns.read_bytes()
    digest_end = saved.index(b"\n")
    ids_end = saved.index(b"\n", digest_end + 1)
    other, _ = _column_session(tmp_path, 2048, seed=63, name="other.jsonl")
    damaged = [_flip(saved, at) for at in (0, digest_end - 1, digest_end, digest_end + 3, ids_end - 2,
                                           ids_end, ids_end + 1, len(saved) // 2, len(saved) - 1)]
    damaged += [saved[:cut] for cut in (0, digest_end, ids_end + 1, len(saved) - 8, len(saved) - 1)]
    damaged += [saved + b"\0", _columns_of(other).read_bytes()]
    _drop_columns(path)
    parsed = load_session(path)
    assert parsed.samples == samples
    for data in damaged:
        columns.write_bytes(data)
        _same_outcome(_load_outcome(path), parsed)
    columns.unlink()
    columns.mkdir()
    _same_outcome(_load_outcome(path), parsed)


def test_no_column_file_below_a_chunk_or_with_sample_extras(tmp_path):
    path, samples = _column_session(tmp_path, 2048)
    stale = _columns_of(path).read_bytes()
    for record in (SessionRecord(session_id="short", created_at="t", plan=None, samples=samples[:2047]),
                   SessionRecord(session_id="extras", created_at="t", plan=None, samples=samples,
                                 sample_extras={2000: {"probe_color": "blue"}})):
        other = tmp_path / f"{record.session_id}.jsonl"
        save_session(record, other)
        assert not _columns_of(other).exists()
        assert load_session(other) == record
        # saved over a session that had one, its stale column file is not taken
        save_session(record, path)
        assert _columns_of(path).read_bytes() == stale
        assert load_session(path) == record


def test_a_save_whose_column_path_is_a_directory_succeeds(tmp_path):
    path = tmp_path / "cols.jsonl"
    _columns_of(path).mkdir()
    _, samples = _column_session(tmp_path, 2048)
    assert _columns_of(path).is_dir() and not any(_columns_of(path).iterdir())
    assert load_session(path).samples == samples
    short = SessionRecord(session_id="short", created_at="t", plan=None, samples=samples[:10])
    save_session(short, path)
    assert _columns_of(path).is_dir() and load_session(path) == short


def test_a_failed_column_write_removes_the_partial_file(tmp_path, monkeypatch):
    class FullDisk(io.BytesIO):
        """A column file that takes its first write and refuses the next."""

        def __init__(self, name):
            super().__init__()
            self.name = name

        def write(self, data):
            if self.tell():
                raise OSError(errno.ENOSPC, "No space left on device")
            self.name.write_bytes(bytes(data))
            return super().write(data)

    real_open = open

    def open_for_columns(file, mode="r", *args, **kwargs):
        if str(file).endswith(".columns") and "w" in mode:
            return FullDisk(pathlib.Path(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(store, "open", open_for_columns, raising=False)
    path, samples = _column_session(tmp_path, 2048)
    monkeypatch.undo()
    assert not _columns_of(path).exists()
    assert load_session(path).samples == samples


def test_read_observations_names_a_bad_row(tmp_path):
    csv_path = tmp_path / "obs.csv"
    for row in ("p1,x,100,0.001", "p1,5,100", "p1,0,100,0.001", "p1,5,-1,0.001", "p1,5,100,fast"):
        csv_path.write_text(f"path_id,n,l_km,a_s\np0,5,1000,0.0055\n{row}\np2,10,2000,0.011\n")
        with pytest.raises(CorruptLine) as excinfo:
            read_observations_csv(csv_path)
        assert excinfo.value.line_number == 3


def _columns(observations):
    """An Observations batch, or the (PathFeatures, a_s) rows of one, as a
    plain list per column."""
    obs = Observations.from_rows(observations)
    return [list(obs.path_id), obs.hop_count_n.tolist(), obs.route_length_l_km.tolist(),
            obs.a_s.tolist()]


def _reference_observations(path):
    """The row-wise reader the columnar one replaced: csv.DictReader and one
    PathFeatures per row. A short row reads None: a missing number cell
    raises TypeError, and a missing path_id reads "", as the columnar reader
    reads it."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            try:
                features = PathFeatures(row["path_id"] or "", int(row["n"]), float(row["l_km"]))
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
    assert _columns(obs) == _columns(want) and len(obs) == count
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
    assert _columns(read_observations_csv(csv_path)) == _columns(want)


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


# ---------------------------------------------------------------------------
# plain CSV files split at once against the csv.reader path
# ---------------------------------------------------------------------------

def _read_outcome(path, columns):
    """What _read_csv makes of a file: its columns, or the error's type,
    message and line number."""
    try:
        return store._read_csv(path, columns)
    except (CorruptLine, EmptyFile, MissingColumn) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


def _read_both_ways(path, columns, monkeypatch):
    """The outcome of reading `columns` of `path` as it is, which must equal
    that with the plain path forced off, and whether the plain path took
    the file."""
    real, plain = store._plain_columns, []

    def counting(*args):
        plain.append(True)  # kept if it raises: the header lacks a column
        read = real(*args)
        plain[-1] = read is not None
        return read

    with monkeypatch.context() as patch:
        patch.setattr(store, "_plain_columns", counting)
        fast = _read_outcome(path, columns)
    with monkeypatch.context() as patch:
        patch.setattr(store, "_plain_columns", lambda *args: None)
        slow = _read_outcome(path, columns)
    assert fast == slow
    return fast, plain == [True]


_PLAIN_CELLS = ["", " ", "\t", "0.018", "-3", "1e-3", "nan", "x y", "é", "日本", "\ufeff"]


def _defective(lines: list[str], at: int, defect: str) -> list[str]:
    """`lines` with `defect` put into line `at`."""
    lines = list(lines)
    if defect == "short row":
        lines[at] = lines[at].rsplit(",", 1)[0]
    elif defect == "long row":
        lines[at] += ",z"
    elif defect == "blank line":
        lines.insert(at, "")
    elif defect == "lone CR":
        lines[at] = "x\r" + lines[at]
    elif defect == "CR before the last field's LF":  # in a CRLF file, the separators of a line end
        lines[at] += "\r7\n" + lines[at]
    elif defect == "NUL":
        lines[at] += "\0"
    elif defect == "quote":
        lines[at] = '"q,' + lines[at].replace(",", '",', 1)
    return lines


@pytest.mark.parametrize("seed", range(8))
def test_plain_csv_files_read_as_csv_reader_reads_them(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "t.csv"
    for trial in range(8):
        width = int(rng.integers(2, 6))
        header = [str(rng.choice(["a", "b", "c", "é"])) for _ in range(width)]  # duplicates too
        lines = [",".join(header)] + [
            ",".join(str(rng.choice(_PLAIN_CELLS)) for _ in range(width))
            for _ in range(int(rng.integers(1, 6)))
        ]
        at = int(rng.integers(1, len(lines)))
        end = ("\n", "\r\n")[trial % 2]
        final = ("", end)[trial // 2 % 2]
        bom = ("", "\ufeff")[trial // 4]
        columns = sorted(set(header))
        for defect in (None, "short row", "long row", "blank line", "lone CR",
                       "CR before the last field's LF", "NUL", "quote"):
            text = end.join(_defective(lines, at, defect) if defect else lines)
            path.write_bytes((bom + text + final).encode())
            outcome, plain = _read_both_ways(path, columns, monkeypatch)
            assert plain == (defect is None), (defect, text)
            if isinstance(outcome, dict):
                with open(path, encoding="utf-8-sig", newline="") as fh:
                    rows = list(csv.DictReader(fh, restval=""))
                assert outcome == {c: [row[c] for row in rows] for c in columns}, (defect, text)


@pytest.mark.parametrize("data, plain, want", [
    (b"a,b\n1,\n,2\n", True, ["", "2"]),  # empty cells
    (b"a,b\r\n1,2", True, ["2"]),  # no final line end
    (b"a,b\n", True, EmptyFile),  # no data row
    (b"\xef\xbb\xbfa,b\r\n1,2\r\n", True, ["2"]),  # a leading BOM
    (b"a,\xef\xbb\xbfb\n1,2\n", True, MissingColumn),  # a BOM elsewhere is part of its cell
    (b"", False, EmptyFile),
    (b"\xef\xbb\xbf", False, EmptyFile),
    (b"a,b", False, EmptyFile),
    (b"\na,b\n1,2\n", False, MissingColumn),  # a leading empty line is the header
    (b"a,b\r\n1,2\n3,4\r\n", False, ["2", "4"]),  # mixed line ends
    (b"a,b\n1,2\r", False, ["2"]),  # a lone CR at the end
    (b"a,b\r\n1124,0.042\r7\n3,4\r\n", False, ["0.042", "", "4"]),  # CR, a last field, LF
    (b"a,b\r7\n1,2\r\n", False, ["", "2"]),  # the same after the header
    (b"a,b\r\n1,\xc3\r\xa9\n3,4\r\n", False, CorruptLine),  # not UTF-8 around a CR
    (b"a,b\n1,2\nx", False, ["2", ""]),  # a short last line without a line end
    (b"a,b\n1,\xff\n", False, CorruptLine),  # not UTF-8
    (b"b\n1\n\n2\n", False, ["1", "2"]),  # one field, where a blank line shows no separator
])
def test_which_csv_files_are_plain(tmp_path, monkeypatch, data, plain, want):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    outcome, took_plain = _read_both_ways(path, ["b"], monkeypatch)
    assert took_plain == plain
    assert outcome[0] is want if isinstance(want, type) else outcome == {"b": want}


def test_a_line_over_the_field_limit_goes_to_csv_reader(tmp_path, monkeypatch):
    limit = csv.field_size_limit(64)
    try:
        path = tmp_path / "t.csv"
        text = "size_bytes,delay_s\n" + "100,0.018\n" * 20  # longer than the limit
        path.write_text(text)
        assert _read_both_ways(path, ["delay_s"], monkeypatch)[1]
        path.write_text(text + "1" * 40 + "," + "2" * 40 + "\n")  # a long line of short fields
        outcome, plain = _read_both_ways(path, ["delay_s"], monkeypatch)
        assert not plain and outcome["delay_s"][-1] == "2" * 40
        path.write_text(text + "1," + "2" * 65 + "\n")
        outcome, plain = _read_both_ways(path, ["delay_s"], monkeypatch)
        assert not plain and outcome == (CorruptLine, "line 22: field larger than field limit (64)", 22)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("quoted", [False, True])
def test_a_leading_bom_is_skipped_in_both_csv_formats(tmp_path, monkeypatch, quoted):
    delays = ["size_bytes,delay_s,lost", "100,0.018,0", "1124,,1", "1124,0.042,0"]
    observations = ["path_id,n,l_km,a_s", "p1,5,1000,0.0055", "p2,10,2000,0.011"]
    if quoted:
        delays[1], observations[1] = '"100",0.018,0', '"p1",5,1000,0.0055'
    lf, bom = tmp_path / "lf.csv", tmp_path / "bom.csv"
    for lines, read in ((delays, lambda path: import_csv(path, lost_column="lost")),
                        (observations, lambda path: _columns(read_observations_csv(path)))):
        lf.write_text("\n".join(lines) + "\n")
        bom.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode())
        columns = lines[0].split(",")
        outcome, plain = _read_both_ways(bom, columns, monkeypatch)
        assert plain != quoted and outcome == _read_both_ways(lf, columns, monkeypatch)[0]
        assert read(bom) == read(lf)

    bom.write_bytes(("\ufeff" + "\r\n".join(observations + ["p3,0,1,1"]) + "\r\n").encode())
    with pytest.raises(CorruptLine, match="hop_count_n must be >= 1") as excinfo:
        read_observations_csv(bom)
    assert excinfo.value.line_number == 4
