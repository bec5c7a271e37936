"""Session persistence (JSONL) and CSV import/export.

A session file is UTF-8 JSONL: one metadata line carrying the schema
version, identifiers, plan, and optional path features, then one line per
sample in seq order. Every sample line of a file has the same path_id and
method. Unknown metadata keys and sample fields survive a load/save round
trip untouched, a sample's fields keyed by its row (seqs may repeat); the
plan and features refuse keys they have no field for.

A session of at least _CHUNK_LINES samples and no sample extras also gets a
column file beside it, `<session>.columns`: its samples as raw columns,
under one SHA-256 of the session's bytes and its own. A load takes the
columns only when that digest matches, and parses the JSONL otherwise.

A CSV file, of delays or of intercept observations, is read as
csv.DictReader reads it, a leading UTF-8 BOM skipped. A plain file (no
quote, one kind of line end, every row as wide as the header) is split
once at commas and line ends; any other is read by csv.reader.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
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
from .records import check_value, from_json, record_dict
from .simulator import SimPath

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# Canonical CSV export columns, importable with import_csv(path, **CANONICAL_CSV_COLUMNS).
CSV_COLUMNS = ("seq", "payload_bytes", "wire_bits", "sent_at_us", "rtt_s", "lost")
CANONICAL_CSV_COLUMNS = {
    "size_column": "wire_bits",
    "size_unit": "bits",
    "delay_column": "rtt_s",
    "timestamp_column": "sent_at_us",
    "lost_column": "lost",
}

_sample_fields_of = operator.itemgetter(*SAMPLE_FIELDS)
_TRUTHY = {"1", "true", "yes", "y", "lost"}
_EMPTY_AS_NAN = {"": "nan"}

# Sample lines written or parsed at a time: a session is never held whole
# as text or as parsed JSON objects, only as columns.
_CHUNK_LINES = 2048

# The columns of a column file after its two header lines, in SampleBatch's
# argument order, each n items of its little-endian type.
_COLUMN_FILE = (("seq", "<i8"), ("payload_bytes", "<i8"), ("wire_bits", "<i8"),
                ("sent_at_us", "<i8"), ("rtt_s", "<f8"))

# Largest magnitude taken from a CSV number as an integer: wire bits of a
# size in bytes still fit in int64.
_CSV_INT_LIMIT = 2.0 ** 59
# Below this a float64 holds every integer exactly.
_FLOAT_EXACT = 2 ** 53


@dataclass
class SessionRecord:
    """One measurement session: metadata plus its samples in seq order.

    `samples` may be given as a SampleBatch or a sequence of ProbeSample
    rows, checked as they enter a batch; it is held as a SampleBatch.
    `sample_extras` holds the unknown fields of a sample line by the
    sample's row, counted from 0.
    """

    session_id: str
    created_at: str  # ISO 8601, UTC
    plan: Union[ProbePlan, SimPath, None]
    samples: SampleBatch
    features: Optional[PathFeatures] = None
    extra: dict = field(default_factory=dict)
    sample_extras: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self):
        check_value("session_id", str, self.session_id)
        check_value("created_at", str, self.created_at)
        self.samples = SampleBatch.from_samples(self.samples)


_PLAN_TYPES = {ProbePlan: "probe", SimPath: "sim"}


def plan_to_json(plan: Union[ProbePlan, SimPath, None]) -> Optional[dict]:
    """The plan as the metadata line of a session file holds it."""
    if plan is None:
        return None
    if type(plan) not in _PLAN_TYPES:
        raise TypeError(f"unsupported plan type {type(plan).__name__}")
    return {"type": _PLAN_TYPES[type(plan)], **record_dict(plan)}


def _plan_from_json(obj: dict) -> Union[ProbePlan, SimPath]:
    for cls, kind in _PLAN_TYPES.items():
        if isinstance(obj, dict) and obj.get("type") == kind:
            return from_json(cls, {k: v for k, v in obj.items() if k != "type"})
    raise ValueError(f'plan must be an object of type "probe" or "sim", got {obj!r}')


_COMPACT_SORTED = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # json.dumps makes one a call


def dump_line(obj: dict) -> str:
    """`obj` as one compact line of JSON, keys sorted: equal records give equal bytes."""
    return _COMPACT_SORTED.encode(obj)


def _sample_lines(samples: SampleBatch, sample_extras: dict[int, dict], first_row: int) -> str:
    """One JSON line per sample, each ending in a newline, byte for byte what
    dump_line makes of the sample's fields and its extras, the sample being
    row `first_row` onwards of the session: keys in sorted order, floats by repr."""
    def scalar(value) -> str:
        return json.dumps(value).replace("%", "%%")

    template = (
        '{"lost":%s,"method":' + scalar(samples.method)
        + ',"path_id":' + scalar(samples.path_id)
        + ',"payload_bytes":%d,"rtt_s":%s,"sent_at_us":%d,"seq":%d,"wire_bits":%d}\n'
    )
    lost_text = ["false"] * len(samples)
    rtts = samples.rtt_s.tolist()
    rtt_text = list(map(repr, rtts))
    for i in np.flatnonzero(samples.lost).tolist():
        lost_text[i], rtt_text[i], rtts[i] = "true", "null", None
    payload, sent, seqs, wire = (column.tolist() for column in (
        samples.payload_bytes, samples.sent_at_us, samples.seq, samples.wire_bits))
    lines = list(map(template.__mod__, zip(lost_text, payload, rtt_text, sent, seqs, wire)))
    if sample_extras:  # one lookup per row keeps the save linear in the extras
        ids = {"method": samples.method, "path_id": samples.path_id}
        for i, extra in enumerate(map(sample_extras.get, range(first_row, first_row + len(lines)))):
            if extra is not None:
                lines[i] = dump_line({
                    "lost": rtts[i] is None, **ids, "payload_bytes": payload[i], "rtt_s": rtts[i],
                    "sent_at_us": sent[i], "seq": seqs[i], "wire_bits": wire[i], **extra,
                }) + "\n"
    return "".join(lines)


def _columns_path(path):
    """The column file beside the session file `path`."""
    path = os.fspath(path)
    return path + (b".columns" if isinstance(path, bytes) else ".columns")


def save_session(record: SessionRecord, path) -> None:
    """Write the session as JSONL and fsync before returning. A session of
    at least _CHUNK_LINES samples and no sample extras also gets its column
    file."""
    meta = {
        "schema": SCHEMA_VERSION,
        "session_id": record.session_id,
        "created_at": record.created_at,
        "plan": plan_to_json(record.plan),
        "features": None if record.features is None else record_dict(record.features),
    }
    meta.update(record.extra)
    samples = record.samples
    digest = hashlib.sha256()
    texts = itertools.chain([dump_line(meta) + "\n"], (
        _sample_lines(samples[start:start + _CHUNK_LINES], record.sample_extras, start)
        for start in range(0, len(samples), _CHUNK_LINES)))
    with open(path, "wb") as fh:
        for text in texts:
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    if len(samples) >= _CHUNK_LINES and not record.sample_extras:
        _write_columns(samples, digest, _columns_path(path))


def _write_columns(samples: SampleBatch, digest, path) -> None:
    """Write the column file of `samples` to `path`, `digest` having taken
    the session file's bytes: a line of the SHA-256 of those bytes and the
    rest of this file, a line of the ids and the length, then the columns.
    The file is not fsynced. An OSError removes what was written, if it can,
    and fails nothing: the session file is the record."""
    ids = dump_line({"method": samples.method, "n": len(samples), "path_id": samples.path_id})
    columns = {name: getattr(samples, name) for name, _ in _COLUMN_FILE}
    columns["rtt_s"] = np.where(samples.lost, np.nan, samples.rtt_s)  # the NaN a parse gives
    body = [ids.encode("utf-8") + b"\n",
            *(np.ascontiguousarray(columns[name], dtype) for name, dtype in _COLUMN_FILE)]
    for part in body:
        digest.update(part)
    try:
        with open(path, "wb") as fh:
            fh.write(digest.hexdigest().encode("ascii") + b"\n")
            for part in body:
                fh.write(part)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(path)


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
# silently), ASCII ids without escapes, and rtt_s null exactly when lost is
# true. Its ids are literals, so it captures payload_bytes, rtt_s, and the
# span from sent_at_us to wire_bits that _SPAN_TO_INTS makes three integers.
# An optional part is written `(?:x|)`, not `(?:x)?`: re runs a group under
# `?` through its slow generic repeat, and a branch does not need it. Each
# branch that a written line takes most often comes first: lost false, a
# nonzero integer, an rtt_s below one second.
_INT = rb"-?(?:[1-9][0-9]{0,17}|0)"
_ID = rb'"([\x20\x21\x23-\x5b\x5d-\x7e]*)"'
_IDS = re.compile(rb'\{"lost":(?:true|false),"method":' + _ID + rb',"path_id":' + _ID)
_SPAN_TO_INTS = (bytes.maketrans(b",:", b"  "), b'"seqwirbt_')


@functools.lru_cache(maxsize=64)
def _sample_line(method: bytes, path_id: bytes) -> re.Pattern:
    return re.compile(
        rb'^\{"lost":(?:false|(true)),"method":"' + re.escape(method)
        + rb'","path_id":"' + re.escape(path_id) + rb'","payload_bytes":(' + _INT + rb')'
        rb',"rtt_s":((?(1)null|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)))'
        rb',"sent_at_us":(' + _INT + rb',"seq":' + _INT + rb',"wire_bits":' + _INT + rb')\}\n',
        re.MULTILINE,
    )


def _bulk_chunk(chunk: list[bytes], ids: Optional[tuple[str, str]]) -> Optional[tuple]:
    """SampleBatch arguments for a chunk of lines that all match the sample
    line of the first line's (path_id, method), which must equal `ids`
    unless that is None; parsed with one regex pass and two np.fromstring
    calls. None for any other chunk."""
    if not (first := _IDS.match(chunk[0])):
        return None
    method, path_id = first.groups()
    chunk_ids = (path_id.decode("ascii"), method.decode("ascii"))
    line = _sample_line(method, path_id)
    if ids not in (None, chunk_ids) or not (line.match(chunk[0]) and line.match(chunk[-1])):
        return None  # spares the scan on files of other lines, e.g. extra fields
    matches = line.findall(b"".join(chunk))
    if len(matches) != len(chunk):
        return None
    _, payload, rtts, spans = zip(*matches)
    ints = np.fromstring(b" ".join(payload + spans).translate(*_SPAN_TO_INTS), dtype=np.int64, sep=" ")
    sent, seqs, wire = ints[len(matches):].reshape(-1, 3).T
    rtt_s = np.fromstring(b" ".join(rtts).replace(b"null", b"nan"), dtype=np.float64, sep=" ")
    return (*chunk_ids, seqs, ints[:len(matches)], wire, sent, rtt_s)


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
    sample that has any, keyed by its row. A chunk of canonical lines of the
    file's path_id and method is parsed in bulk, any other chunk line by
    line; each must keep the ids and seq order of the one before."""
    batches: list[SampleBatch] = []
    sample_extras: dict[int, dict] = {}
    first_line_no, first_row = 2, 0
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
        sample_extras.update((first_row + i, extra) for i, extra in extras.items())
        first_row += len(batch)
    if not batches:
        return SampleBatch.from_rows(()), sample_extras
    return SampleBatch.concat(batches), sample_extras


def _column_samples(path, fh, head: bytes) -> Optional[SampleBatch]:
    """The samples of the session file `path`, open as `fh` just past its
    first line `head`, from its column file: only if that file is whole and
    its digest matches the session's bytes, the rest of which are read to
    check it. None otherwise, with `fh` where it was."""
    columns_path = _columns_path(path)
    if not os.access(columns_path, os.R_OK):  # spares most loads a raised OSError
        return None
    try:
        with open(columns_path, "rb") as cf:
            data = cf.read()
        digest, ids_line, columns = data.split(b"\n", 2)
        ids = json.loads(ids_line)
        n, path_id = ids["n"], ids["path_id"]
        whole = type(n) is int and len(columns) == 8 * n * len(_COLUMN_FILE)
        if not (whole and type(path_id) is str and fh.seekable()):
            return None
        checked = hashlib.sha256(head)
        for block in iter(functools.partial(fh.read, 1 << 20), b""):
            checked.update(block)
        checked.update(memoryview(data)[len(digest) + 1:])
        if checked.hexdigest().encode("ascii") == digest:
            return SampleBatch(path_id, ids["method"], *(
                np.frombuffer(columns, dtype, n, 8 * n * i) for i, (_, dtype) in enumerate(_COLUMN_FILE)))
    except (OSError, ValueError, TypeError, KeyError):  # InvalidSample is a ValueError
        pass
    fh.seek(len(head))
    return None


def load_session(path) -> SessionRecord:
    """Reload a session file written by save_session.

    Raises SchemaMismatch for unrecognized schema versions and CorruptLine
    (with the 1-based line number) for lines that are not UTF-8 JSON,
    invalid samples, and sample lines that disagree on path_id or method.
    The samples come from the session's column file when its digest
    matches, and are parsed from the lines otherwise, with the same result.
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
            session_id, created_at = meta.pop("session_id"), meta.pop("created_at")
            check_value("session_id", str, session_id)
            check_value("created_at", str, created_at)
            plan, features = meta.pop("plan", None), meta.pop("features", None)
            plan = None if plan is None else _plan_from_json(plan)
            features = None if features is None else from_json(PathFeatures, features)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptLine(1, f"bad metadata: {exc}") from exc
        samples, sample_extras = _column_samples(path, fh, head), {}
        if samples is None:
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


def _check_header(path, header: Optional[list[str]], columns) -> None:
    if header is None:
        raise EmptyFile(f"{path}: no header row")
    for column in columns:
        if column not in header:
            raise MissingColumn(f"{path}: column {column!r} not in header")


def _cells(rows: list[list[str]], i: int) -> list[str]:
    """Column `i` of csv.reader's rows, "" (a cell that does not parse)
    where a row is short."""
    return [row[i] if i < len(row) else "" for row in rows]


def _csv_columns(path, data: bytes, columns):
    """The header of the CSV file `path`, whose bytes are `data`, and a
    function from a column's index to its cells in the non-blank rows, read
    by csv.reader. The header is checked before the rows are read. A line
    that is not UTF-8 raises CorruptLine naming it, counted as a text-mode
    file does, and so does a row that csv.reader refuses (a field over its
    131,072-character limit)."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    try:
        header = next(reader, None)
        _check_header(path, header, columns)
        rows = list(filter(None, reader))
    except csv.Error as exc:
        raise CorruptLine(reader.line_num, str(exc)) from exc
    except UnicodeDecodeError:
        for line_no, line in enumerate(data.splitlines(), start=1):
            _decode(line_no, line)
        raise
    return header, functools.partial(_cells, rows)


_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\r\n")))
_LINE_END_TO_COMMA = (bytes.maketrans(b"\n", b","), b"\r")


def _plain_columns(path, data: bytes, columns):
    """As _csv_columns, for a plain CSV file: one without a quote or NUL,
    whose lines all end in "\\n" or all in "\\r\\n" (the last may have no
    line end) with no other "\\r", none of them blank, with as many fields
    as its header has and at least two. Such a file is split once at line
    ends and commas, each column is a stride of the cells, and they equal
    csv.reader's. None for any other file, or one that is not UTF-8."""
    if b'"' in data or b"\0" in data:
        return None
    separators = data.translate(None, _NOT_SEPARATORS)
    first_end = separators.find(b"\n")
    line_end = b"\r\n" if separators[first_end - 1:first_end] == b"\r" else b"\n"
    line = separators[:first_end + 1]
    width = len(line) - len(line_end) + 1
    # with one field a blank line would show no separator
    if width < 2 or line != b"," * (width - 1) + line_end:
        return None
    ended = data.endswith(line_end)
    if not ended:
        separators += line_end
    lines = len(separators) // len(line)
    if separators != line * lines:
        return None
    # "\r", a last field and "\n" also show a line end's separators, so
    # each "\r" must start a "\r\n": one a line, none on an unended last
    if len(line_end) == 2 and data.count(b"\r\n") != lines - (not ended):
        return None
    limit = csv.field_size_limit()
    if len(data) > limit:  # a field over the limit is csv.reader's to refuse
        ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
        if np.diff(ends, prepend=-1, append=len(data)).max() > limit:
            return None
    try:  # every "\r" here is part of a line end
        cells = data.translate(*_LINE_END_TO_COMMA).decode("utf-8-sig").split(",")
    except UnicodeDecodeError:
        return None
    header, cells = cells[:width], cells[width:lines * width]
    _check_header(path, header, columns)
    return header, lambda i: cells[i::width]


def _read_csv(path, columns) -> dict[str, list[str]]:
    """The cells of each of `columns` in the data rows of a CSV file, as
    csv.DictReader reads them: blank lines are no rows, of two columns of
    one name the last wins, and a short row reads "". A plain file (see
    _plain_columns) is split once, any other is read by csv.reader. A
    leading UTF-8 BOM is skipped. A file without a header, a column or a
    data row raises EmptyFile or MissingColumn, a line that is not UTF-8 or
    a row that csv.reader refuses CorruptLine naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, column = _plain_columns(path, data, columns) or _csv_columns(path, data, columns)
    last = {name: i for i, name in enumerate(header)}
    cells = {name: column(last[name]) for name in columns}
    if not cells[columns[0]]:  # every column has a cell a row
        raise EmptyFile(f"{path}: no data rows")
    return cells


def _line_of_row(path, index: int) -> int:
    """The line on which data row `index` of a CSV file that _read_csv read
    ends, found by reading the file again."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
    that hold a finite number small enough to keep. A column of non-empty
    runs of ASCII digits, each below 2**53, is read as integers by one numpy
    call; a float holds each such value exactly, so the result is the one
    the float route gives any other column."""
    # most columns of other numbers show it in their first cell, before the join
    if cells[0].isdigit() and (text := " ".join(cells)).isascii():
        data = text.encode("ascii")
        # the joining spaces are all that is not a digit
        if data.translate(None, b"0123456789") == b" " * (len(cells) - 1) and all(cells):
            values = np.fromstring(data, np.int64, sep=" ")  # saturates past int64
            if (values < _FLOAT_EXACT).all():
                return values, np.ones_like(values, bool)
    values = _float_column(cells)
    ok = np.abs(values) < _CSV_INT_LIMIT  # False for NaN and inf
    return np.where(ok, values, 0).astype(np.int64), ok


def _lost_column(cells: list) -> np.ndarray:
    """A CSV lost column as flags: a cell that reads 1, true, yes, y or lost
    (any case, stripped) is lost. A column of only "0" and "1" cells is read
    with one byte comparison."""
    text = "".join(cells)
    if len(text) == len(cells) and text.isascii():
        data = text.encode("ascii")
        if not data.translate(None, b"01") and all(cells):  # one byte a cell
            return np.frombuffer(data, np.uint8) == ord("1")
    truthy = {c: c.strip().lower() in _TRUTHY for c in set(cells)}
    return np.fromiter(map(truthy.__getitem__, cells), bool, len(cells))


def import_csv(path, *, size_column: str = "size_bytes", size_unit: str = "bytes",
               delay_column: str = "delay_s", timestamp_column: Optional[str] = None,
               lost_column: Optional[str] = None, path_id: str = "import") -> SampleBatch:
    """Read externally collected size/delay rows into probe samples.

    The keywords name the columns: the size, in `size_unit` "bytes" or
    "bits", the delay in seconds, and optionally the send time in
    microseconds and a lost flag. Rows whose delay is not a positive finite
    number, an empty or unparseable cell included, become lost samples, as
    do rows whose lost cell reads 1, true, yes, y or lost (any case,
    stripped); rows whose size does not parse are skipped. Both are tallied
    in a single warning.
    """
    if size_unit not in ("bytes", "bits"):
        raise ValueError(f'size_unit must be "bytes" or "bits", got {size_unit!r}')

    columns = (size_column, delay_column, timestamp_column, lost_column)
    cells = _read_csv(path, [column for column in columns if column is not None])

    size, size_ok = _int_column(cells[size_column])
    wire_bits = size * 8 if size_unit == "bytes" else size
    kept = size_ok & (wire_bits >= 8)

    index = np.arange(len(size))
    rtt_s = _float_column(cells[delay_column])
    bad_delay = ~((rtt_s > 0) & (rtt_s < np.inf))
    if lost_column is not None:
        lost = _lost_column(cells[lost_column])
        bad_delay &= ~lost
        rtt_s[lost] = np.nan
    rtt_s[bad_delay] = np.nan

    sent_at_us = index
    if timestamp_column is not None:
        stamp, stamp_ok = _int_column(cells[timestamp_column])
        sent_at_us = np.where(stamp_ok, stamp, index)

    bad_delays = int((bad_delay & kept).sum())
    bad_sizes = len(size) - int(kept.sum())
    if bad_sizes == len(size):
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
    cells = _read_csv(path, ("path_id", "n", "l_km", "a_s"))
    path_id = cells["path_id"]
    parsed = [_number_column(cells[name], dtype, name)
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
