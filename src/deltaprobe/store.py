"""Session persistence (JSONL) and CSV import/export.

A session file is UTF-8 JSONL: one metadata line carrying the schema
version, identifiers, plan, and optional path features, then one line per
sample in seq order. Every sample line of a file has the same path_id and
method. Unknown fields on any line survive a load/save round trip
untouched, so newer writers stay readable.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import logging
import operator
import os
import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import CorruptLine, EmptyFile, InvalidSample, MissingColumn, SchemaMismatch
from .intercept import InvalidObservation, Observations, PathFeatures
from .probe import METHOD_IMPORTED, SAMPLE_FIELDS, ProbePlan, SampleBatch, Samples, check_seam
from .simulator import Hop, SimPath

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# Canonical CSV export columns, importable with this mapping.
CSV_COLUMNS = ("seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s", "lost")
CANONICAL_CSV_MAPPING = {
    "size": "wire_bits",
    "size_unit": "bits",
    "delay": "rtt_s",
    "timestamp": "sent_at_us",
    "lost": "lost",
}

_sample_fields_of = operator.itemgetter(*SAMPLE_FIELDS)
_TRUTHY = {"1", "true", "yes", "y", "lost"}
_EMPTY_AS_NAN = {"": "nan"}

# Sample lines written or parsed at a time: a session is never held whole
# as text or as parsed JSON objects, only as columns.
_CHUNK_LINES = 2048

# Largest magnitude taken from a CSV number as an integer: wire bits of a
# size in bytes still fit in int64.
_CSV_INT_LIMIT = 2.0 ** 59


@dataclass
class SessionRecord:
    """One measurement session: metadata plus its samples in seq order.

    `samples` may be given as a SampleBatch or a sequence of ProbeSample
    rows, checked as they enter a batch; it is held as a SampleBatch.
    """

    session_id: str
    created_at: str  # ISO 8601, UTC
    plan: Union[ProbePlan, SimPath, None]
    samples: SampleBatch
    features: Optional[PathFeatures] = None
    extra: dict = field(default_factory=dict)
    sample_extras: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self):
        self.samples = SampleBatch.from_samples(self.samples)


def record_dict(record) -> dict:
    """dataclasses.asdict(record) for the records this package writes as JSON,
    without its deep copy: fields in order, values shared, SimPath.hops as dicts."""
    obj = {name: getattr(record, name) for name in record.__dataclass_fields__}
    if isinstance(record, SimPath):
        obj["hops"] = tuple(map(record_dict, record.hops))
    return obj


_PLAN_TYPES = {ProbePlan: "probe", SimPath: "sim"}


def plan_to_json(plan: Union[ProbePlan, SimPath, None]) -> Optional[dict]:
    """The plan as the metadata line of a session file holds it."""
    if plan is None:
        return None
    if type(plan) not in _PLAN_TYPES:
        raise TypeError(f"unsupported plan type {type(plan).__name__}")
    return {"type": _PLAN_TYPES[type(plan)], **record_dict(plan)}


def _plan_from_json(obj: Optional[dict]) -> Union[ProbePlan, SimPath, None]:
    if obj is None:
        return None
    kind = obj.get("type")
    if kind == "probe":
        return ProbePlan(
            target=obj["target"],
            sizes_payload_bytes=tuple(obj["sizes_payload_bytes"]),
            count_per_size=obj["count_per_size"],
            inter_probe_gap_s=obj["inter_probe_gap_s"],
            timeout_s=obj["timeout_s"],
            method=obj["method"],
            udp_port=obj.get("udp_port", ProbePlan.__dataclass_fields__["udp_port"].default),
        )
    if kind == "sim":
        hops = tuple(Hop(**h) for h in obj["hops"])
        return SimPath(hops=hops, seed=obj.get("seed", 0))
    raise ValueError(f"unknown plan type {kind!r}")


def dump_line(obj: dict) -> str:
    """`obj` as one compact line of JSON, keys sorted: equal records give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sample_lines(samples: SampleBatch, sample_extras: dict[int, dict]) -> str:
    """One JSON line per sample, each ending in a newline, byte for byte what
    dump_line makes of the sample's fields: keys in sorted order, floats by repr."""
    def scalar(value) -> str:
        return json.dumps(value).replace("%", "%%")

    template = (
        '{"lost":%s,"method":' + scalar(samples.method)
        + ',"path_id":' + scalar(samples.path_id)
        + ',"payload_bytes":%d,"rtt_s":%s,"sent_at_us":%d,"seq":%d,"wire_bits":%d}\n'
    )
    n = len(samples)
    lost_text = ["false"] * n
    rtt_text = list(map(repr, samples.rtt_s.tolist()))
    for i in np.flatnonzero(samples.lost).tolist():
        lost_text[i], rtt_text[i] = "true", "null"
    seqs = samples.seq.tolist()
    lines = list(map(template.__mod__, zip(
        lost_text, samples.payload_bytes.tolist(), rtt_text,
        samples.sent_at_us.tolist(), seqs, samples.wire_bits.tolist(),
    )))
    if sample_extras:  # one lookup per row keeps the save linear in the extras
        for i, seq in enumerate(seqs):
            extra = sample_extras.get(seq)
            if extra is not None:
                lines[i] = dump_line({**record_dict(samples[i]), **extra}) + "\n"
    return "".join(lines)


def save_session(record: SessionRecord, path) -> None:
    """Write the session as JSONL and fsync before returning."""
    meta = {
        "schema": SCHEMA_VERSION,
        "session_id": record.session_id,
        "created_at": record.created_at,
        "plan": plan_to_json(record.plan),
        "features": None if record.features is None else record_dict(record.features),
    }
    meta.update(record.extra)
    samples = record.samples
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_line(meta) + "\n")
        for start in range(0, len(samples), _CHUNK_LINES):
            fh.write(_sample_lines(samples[start:start + _CHUNK_LINES], record.sample_extras))
        fh.flush()
        os.fsync(fh.fileno())


def _decode(line_no: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptLine(line_no, f"invalid UTF-8 at byte {exc.start}") from exc


def _parse_line(line_no: int, text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptLine(line_no, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise CorruptLine(line_no, "expected a JSON object")
    return obj


# A sample line exactly as _sample_lines writes it, with the JSON number
# grammar, integers of at most 18 digits (np.fromstring saturates int64
# silently), ASCII strings without escapes, and rtt_s null exactly when lost
# is true.
_INT = rb"-?(?:0|[1-9][0-9]{0,17})"
_SAMPLE_LINE = re.compile(
    rb'^\{"lost":(?:(?P<lost>true)|false)'
    rb',"method":"(?P<method>[\x20\x21\x23-\x5b\x5d-\x7e]*)"'
    rb',"path_id":"(?P<path_id>[\x20\x21\x23-\x5b\x5d-\x7e]*)"'
    rb',"payload_bytes":(?P<payload_bytes>' + _INT + rb')'
    rb',"rtt_s":(?P<rtt_s>(?(lost)null|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?))'
    rb',"sent_at_us":(?P<sent_at_us>' + _INT + rb')'
    rb',"seq":(?P<seq>' + _INT + rb')'
    rb',"wire_bits":(?P<wire_bits>' + _INT + rb')\}\n',
    re.MULTILINE,
)


def _bulk_chunk(chunk: list[bytes], ids: Optional[tuple[str, str]]) -> Optional[tuple]:
    """SampleBatch arguments for a chunk of lines that all match
    _SAMPLE_LINE and share one (path_id, method), which must equal `ids`
    unless that is None; parsed with one regex pass and two np.fromstring
    calls. None for any other chunk."""
    if not (_SAMPLE_LINE.match(chunk[0]) and _SAMPLE_LINE.match(chunk[-1])):
        return None  # spares the scan on files of other lines, e.g. extra fields
    matches = _SAMPLE_LINE.findall(b"".join(chunk))
    if len(matches) != len(chunk):
        return None
    _, methods, path_ids, payload, rtts, sent, seqs, wire = zip(*matches)
    if methods.count(methods[0]) != len(methods) or path_ids.count(path_ids[0]) != len(path_ids):
        return None
    chunk_ids = (path_ids[0].decode("ascii"), methods[0].decode("ascii"))
    if ids is not None and chunk_ids != ids:
        return None
    ints = np.fromstring(b" ".join(seqs + payload + wire + sent), dtype=np.int64, sep=" ")
    rtt_s = np.fromstring(b" ".join(rtts).replace(b"null", b"nan"), dtype=np.float64, sep=" ")
    return (*chunk_ids, *ints.reshape(4, len(matches)), rtt_s)


def _parse_chunk(lines: list[bytes], first_line_no: int) -> tuple[list[tuple], list[int], dict[int, dict]]:
    """The known fields of the sample lines among `lines` as tuples in
    SAMPLE_FIELDS order, their line numbers, and the unknown fields of each
    sample that has any, keyed by its row. Parsed one line at a time: blank
    lines are skipped and the first bad line raises CorruptLine naming it."""
    rows, line_nos, extras = [], [], {}
    for line_no, raw in enumerate(lines, start=first_line_no):
        text = _decode(line_no, raw)
        if not text.strip():
            continue
        obj = _parse_line(line_no, text)
        try:
            rows.append(_sample_fields_of(obj))
        except KeyError as exc:
            raise CorruptLine(line_no, f"bad sample: missing field {exc}") from exc
        if len(obj) > len(SAMPLE_FIELDS):
            extras[len(line_nos)] = {k: v for k, v in obj.items() if k not in SAMPLE_FIELDS}
        line_nos.append(line_no)
    return rows, line_nos, extras


def _load_samples(lines) -> tuple[SampleBatch, dict[int, dict]]:
    """The samples of the sample lines (bytes, line 2 onwards) in `lines`,
    read and checked a chunk at a time, and the unknown fields of each
    sample that has any, keyed by seq. A chunk of canonical lines of the
    file's path_id and method is parsed in bulk, any other chunk line by
    line; each must keep the ids and seq order of the one before."""
    batches: list[SampleBatch] = []
    sample_extras: dict[int, dict] = {}
    first_line_no = 2
    while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
        previous = batches[-1] if batches else None
        ids = None if previous is None else (previous.path_id, previous.method)
        columns = _bulk_chunk(chunk, ids)
        if columns is None:
            # split as a text-mode file would, so a line number is the same
            # whatever the line endings
            chunk = b"".join(chunk).splitlines(keepends=True)
            rows, line_nos, extras = _parse_chunk(chunk, first_line_no)
        else:
            line_nos, extras = range(first_line_no, first_line_no + len(chunk)), {}
        first_line_no += len(chunk)
        if not line_nos:
            continue
        try:
            batch = SampleBatch.from_rows(rows) if columns is None else SampleBatch(*columns)
            if previous is not None:
                check_seam(previous, batch)
        except InvalidSample as exc:
            raise CorruptLine(line_nos[exc.index], f"bad sample: {exc}") from exc
        batches.append(batch)
        sample_extras.update(zip(batch.seq[list(extras)].tolist(), extras.values()))
    if not batches:
        return SampleBatch.from_rows(()), sample_extras
    return SampleBatch.concat(batches), sample_extras


def load_session(path) -> SessionRecord:
    """Reload a session file written by save_session.

    Raises SchemaMismatch for unrecognized schema versions and CorruptLine
    (with the 1-based line number) for lines that are not UTF-8 JSON,
    invalid samples, and sample lines that disagree on path_id or method.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head:
            raise CorruptLine(1, "file is empty")
        # a line may end in a bare "\r", which binary reading does not split
        first_line, *rest = head.splitlines(keepends=True)
        meta = _parse_line(1, _decode(1, first_line))
        schema = meta.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise SchemaMismatch(f"unsupported schema version {schema!r}")
        try:
            session_id = meta.pop("session_id")
            created_at = meta.pop("created_at")
            plan = _plan_from_json(meta.pop("plan", None))
            features_obj = meta.pop("features", None)
            features = PathFeatures(**features_obj) if features_obj else None
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CorruptLine(1, f"bad metadata: {exc}") from exc
        samples, sample_extras = _load_samples(itertools.chain(rest, fh))
    return SessionRecord(
        session_id=session_id,
        created_at=created_at,
        plan=plan,
        samples=samples,
        features=features,
        extra=meta,
        sample_extras=sample_extras,
    )


@contextlib.contextmanager
def _open_csv(path):
    """`path` opened as UTF-8 text for the csv module. A line that is not
    UTF-8 raises CorruptLine naming it, counted as a text-mode file does."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                lines = (line for chunk in raw for line in chunk.splitlines())
                for line_no, line in enumerate(lines, start=1):
                    _decode(line_no, line)
            raise


def _read_csv(path, columns) -> tuple[list[str], list[list[str]]]:
    """The header and the non-blank rows of a CSV file whose header names
    every one of `columns`. A file without a header, a column or a data row
    raises EmptyFile or MissingColumn; a row the csv module refuses (a field
    over its 131,072-character limit) raises CorruptLine naming its line."""
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyFile(f"{path}: no header row")
            for column in columns:
                if column not in header:
                    raise MissingColumn(f"{path}: column {column!r} not in header")
            rows = list(filter(None, reader))
        except csv.Error as exc:
            raise CorruptLine(reader.line_num, str(exc)) from exc
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return header, rows


def _cells(header: list[str], rows: list[list[str]], name: str) -> list[str]:
    """Column `name` as csv.DictReader reads it: the last column of that
    name, and "" (a cell that does not parse) where a row is short."""
    i = max(i for i, column in enumerate(header) if column == name)
    return [row[i] if i < len(row) else "" for row in rows]


def _line_of_row(path, index: int) -> int:
    """The line on which data row `index` of a CSV file that _read_csv read
    ends, found by reading the file again."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        next(itertools.islice(filter(None, reader), index, None))
        return reader.line_num


def export_csv(samples: Samples, path) -> None:
    """Write samples to CSV with the canonical column set."""
    batch = SampleBatch.from_samples(samples)
    lost = batch.lost
    rtt_text = ["" if gone else repr(rtt) for rtt, gone in zip(batch.rtt_s.tolist(), lost.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(
            batch.seq.tolist(), batch.payload_bytes.tolist(), batch.wire_bits.tolist(),
            batch.sent_at_us.tolist(), rtt_text, lost.astype(int).tolist(),
        ))


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _float_column(cells: list) -> np.ndarray:
    """A CSV column as floats; cells that do not parse become NaN. An empty
    cell, the usual lost row, reads as "nan" in the one numpy parse, so only
    a column with some other bad cell is parsed again cell by cell."""
    try:
        return np.array(list(map(_EMPTY_AS_NAN.get, cells, cells)), dtype=np.float64)
    except ValueError:
        return np.fromiter(map(_float_or_nan, cells), np.float64, len(cells))


def _int_column(cells: list) -> tuple[np.ndarray, np.ndarray]:
    """A CSV column of numbers truncated to integers, with the mask of cells
    that hold a finite number small enough to keep."""
    values = _float_column(cells)
    ok = np.abs(values) < _CSV_INT_LIMIT  # False for NaN and inf
    return np.where(ok, values, 0).astype(np.int64), ok


def import_csv(path, mapping: dict, *, path_id: str = "import") -> SampleBatch:
    """Read externally collected size/delay rows into probe samples.

    `mapping` names the columns: required keys "size" and "delay", optional
    "timestamp" (microseconds) and "lost"; "size_unit" declares whether the
    size column is in "bytes" (default) or "bits". Rows whose delay is not a
    positive finite number, an empty or unparseable cell included, become
    lost samples, as do rows whose lost cell reads 1, true, yes, y or lost
    (any case, stripped); rows whose size does not parse are skipped. Both
    are tallied in a single warning.
    """
    for key in ("size", "delay"):
        if key not in mapping:
            raise ValueError(f'mapping must name a "{key}" column')
    size_unit = mapping.get("size_unit", "bytes")
    if size_unit not in ("bytes", "bits"):
        raise ValueError(f'size_unit must be "bytes" or "bits", got {size_unit!r}')

    columns = (mapping.get(key) for key in ("size", "delay", "timestamp", "lost"))
    header, rows = _read_csv(path, [column for column in columns if column is not None])

    size, size_ok = _int_column(_cells(header, rows, mapping["size"]))
    wire_bits = size * 8 if size_unit == "bytes" else size
    kept = size_ok & (wire_bits >= 8)

    index = np.arange(len(rows))
    rtt_s = _float_column(_cells(header, rows, mapping["delay"]))
    bad_delay = ~((rtt_s > 0) & (rtt_s < np.inf))
    if mapping.get("lost") is not None:
        flags = _cells(header, rows, mapping["lost"])
        truthy = {c: c.strip().lower() in _TRUTHY for c in set(flags)}
        lost = np.fromiter(map(truthy.__getitem__, flags), bool, len(flags))
        bad_delay &= ~lost
        rtt_s[lost] = np.nan
    rtt_s[bad_delay] = np.nan

    sent_at_us = index
    if mapping.get("timestamp") is not None:
        stamp, stamp_ok = _int_column(_cells(header, rows, mapping["timestamp"]))
        sent_at_us = np.where(stamp_ok, stamp, index)

    bad_delays = int((bad_delay & kept).sum())
    bad_sizes = len(rows) - int(kept.sum())
    if bad_sizes == len(rows):
        raise EmptyFile(f"{path}: no row has a usable size")
    if bad_delays or bad_sizes:
        logger.warning(
            "%s: %d rows with unparseable delay treated as lost, %d rows skipped",
            path, bad_delays, bad_sizes,
        )
    return SampleBatch(
        path_id=path_id,
        method=METHOD_IMPORTED,
        seq=index[kept],
        payload_bytes=wire_bits[kept] // 8,
        wire_bits=wire_bits[kept],
        sent_at_us=sent_at_us[kept],
        rtt_s=rtt_s[kept],
    )


def _number_column(cells: list, dtype, name: str):
    """(`cells` as a `dtype` array, None), parsed by one numpy call, which
    accepts exactly what int() and float() accept. Where a cell does not
    parse or an integer exceeds int64: (the cells before it, an
    InvalidObservation naming its row)."""
    try:
        return np.array(cells, dtype=dtype), None
    except (ValueError, OverflowError):
        parsed = []
        for index, cell in enumerate(cells):
            try:
                parsed.append(np.array(cell, dtype=dtype))
            except (ValueError, OverflowError) as exc:
                return np.array(parsed, dtype=dtype), InvalidObservation(index, f"{name}: {exc}")
        raise


def read_observations_csv(path) -> Observations:
    """Read intercept-model observations: columns path_id, n, l_km, a_s.

    Rows are read as csv.DictReader reads them: blank lines are skipped, a
    short row reads "" in the cells it lacks, and of two columns of one name
    the last wins. A row that does not parse, breaks a PathFeatures rule or
    holds a non-finite l_km or a_s raises CorruptLine with its line number.
    """
    header, rows = _read_csv(path, ("path_id", "n", "l_km", "a_s"))
    path_id = _cells(header, rows, "path_id")
    parsed = [_number_column(_cells(header, rows, name), dtype, name)
              for name, dtype in (("n", np.int64), ("l_km", np.float64), ("a_s", np.float64))]
    errors = [e for _, e in parsed if e is not None]
    try:
        if errors:
            # the rows before the first cell that does not parse may still
            # break a rule, and the first bad row is the one named
            first = min(errors, key=lambda e: e.index)
            Observations(path_id[:first.index], *(c[:first.index] for c, _ in parsed))
            raise first
        return Observations(path_id, *(c for c, _ in parsed))
    except InvalidObservation as exc:
        raise CorruptLine(_line_of_row(path, exc.index), f"bad observation: {exc}") from exc
