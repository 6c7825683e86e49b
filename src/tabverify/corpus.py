"""Canonical table/statement model, XML parsing, corpus statistics, and the
file boundary: the one JSON-lines reader and writer every pipeline file goes
through.  A corpus file holds one interchange record per table and has no
codec of its own: ``read_corpus`` and ``write_corpus`` go through them too.

Every table is built and checked by ``make_document``, and every
interchange line is decoded by ``from_interchange``.

XML schema (one table per file):

    <document id="...">
      <table id="..." header_rows="1">
        <caption text="..."/>
        <legend text="..."/>
        <row><cell text="..."/>...</row>
        ...
        <statements>
          <statement id="..." text="..." type="entailed|refuted|unknown">
            <evidence><cell row="0" col="1"/>...</evidence>   <!-- optional,
                 one element per ground-truth version -->
          </statement>
        </statements>
      </table>
    </document>

A ``<document>`` holds exactly one ``<table>``; a bare ``<table>`` root is
read too.  Ragged rows are padded on the right with empty strings so every
grid is rectangular.  All types are immutable after construction.
"""

from __future__ import annotations

import contextlib
import enum
import json
import os
import re
import reprlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass

INTERCHANGE_VERSION = 1

# The key fields of a statement's record in every per-statement file.
STATEMENT_KEY = ("table_id", "stmt_id")


class SchemaError(ValueError):
    """Input that breaks its file's format: XML, JSON lines, interchange,
    layer files and abbreviation files."""


class Label(enum.Enum):
    ENTAILED = "entailed"
    REFUTED = "refuted"
    UNKNOWN = "unknown"

    @classmethod
    def parse(cls, value):
        try:
            return cls(value.strip().lower())
        except (AttributeError, ValueError):
            raise SchemaError(f"unrecognized label: {value!r}") from None


@dataclass(frozen=True)
class Statement:
    stmt_id: str
    text: str
    gold_label: Label | None = None
    gold_evidence: tuple | None = None  # per gold version, a frozenset of (row, col)


@dataclass(frozen=True)
class TableDocument:
    doc_id: str
    table_id: str
    caption: str
    legend: str
    grid: tuple  # tuple of rows; each row a tuple of str
    header_rows: int
    statements: tuple  # tuple of Statement

    @property
    def n_rows(self):
        return len(self.grid)

    @property
    def n_cols(self):
        return len(self.grid[0]) if self.grid else 0

    @property
    def body_row_indices(self):
        return range(min(self.header_rows, self.n_rows), self.n_rows)


@dataclass(frozen=True)
class TableStatements:
    """A TableDocument without its cell text, for the stages that read none."""
    table_id: str
    n_rows: int
    n_cols: int
    statements: tuple  # tuple of Statement

    @classmethod
    def of(cls, doc):
        return cls(doc.table_id, doc.n_rows, doc.n_cols, doc.statements)


def _build_grid(rows_text):
    """Pad ragged rows on the right with empty strings."""
    width = max((len(r) for r in rows_text), default=0)
    return tuple(tuple(texts) + ("",) * (width - len(texts)) for texts in rows_text)


def make_document(doc_id, table_id, caption, legend, rows_text, header_rows, statements):
    """Assemble a TableDocument, enforcing all structural invariants."""
    if not table_id:
        raise SchemaError("missing table id")
    if header_rows < 0:
        raise SchemaError("header_rows must be >= 0")
    doc = TableDocument(doc_id, table_id, caption, legend, _build_grid(rows_text),
                        header_rows, tuple(statements))
    n_rows, n_cols = doc.n_rows, doc.n_cols
    seen = set()
    for st in doc.statements:
        if not st.stmt_id:
            raise SchemaError(f"statement without id in table {table_id!r}")
        if st.stmt_id in seen:
            raise SchemaError(f"duplicate statement id {st.stmt_id!r} in table {table_id!r}")
        seen.add(st.stmt_id)
        if not st.text:
            raise SchemaError(f"statement {st.stmt_id!r} has empty text")
        for cells in st.gold_evidence or ():
            if not cells:
                raise SchemaError(f"statement {st.stmt_id!r} has an empty evidence version")
            for r, c in cells:
                if not (type(r) is int and type(c) is int  # a bool is no index
                        and 0 <= r < n_rows and 0 <= c < n_cols):
                    raise SchemaError(
                        f"statement {st.stmt_id!r} evidence cell ({r!r}, {c!r}) out of bounds"
                    )
    return doc


_INT = re.compile(r"-?[0-9]+")  # int() also takes "1_0", " 2 ", "\u0663"


def _int_attr(elem, name, default=None):
    value = elem.get(name, default)
    try:
        if not _INT.fullmatch(value):
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError):
        raise SchemaError(f"<{elem.tag}> {name}={value!r} is not an integer") from None


def _text(elem):
    """An element's ``text`` attribute, else its stripped content; "" for None."""
    if elem is None:
        return ""
    return elem.get("text") or (elem.text or "").strip()


def parse_xml(data):
    """Parse one XML table document, bytes or str, into a TableDocument."""
    try:
        root = ET.fromstring(data)
    except (ET.ParseError, LookupError, ValueError) as exc:
        # The last two: a declared encoding that is unknown, not a text
        # codec, or multi-byte.  expat's own messages end in the position.
        raise SchemaError(f"malformed XML: {exc}") from exc

    tables = ([root] if root.tag == "table"
              else root.findall("table") if root.tag == "document" else [])
    if len(tables) != 1:  # several tables per document: not read yet
        raise SchemaError(f"expected one <table> element inside <document>, found {len(tables)}")
    table = tables[0]
    doc_id = root.get("id", "") if root.tag == "document" else ""
    table_id = table.get("id")
    header_rows = _int_attr(table, "header_rows", "1")

    rows_text = [[_text(cell) for cell in row.findall("cell")] for row in table.findall("row")]

    statements = []
    stmts_elem = table.find("statements")
    if stmts_elem is not None:
        for st in stmts_elem.findall("statement"):
            label = None
            if st.get("type") is not None:
                label = Label.parse(st.get("type"))
            versions = tuple(
                frozenset((_int_attr(c, "row"), _int_attr(c, "col")) for c in ev.findall("cell"))
                for ev in st.findall("evidence"))
            statements.append(Statement(
                stmt_id=st.get("id"),
                text=_text(st),
                gold_label=label,
                gold_evidence=versions or None,
            ))

    return make_document(doc_id, table_id, _text(table.find("caption")),
                         _text(table.find("legend")), rows_text, header_rows, statements)


# The file boundary: every JSON-lines file the pipeline reads or writes, and
# every indented JSON document it writes, goes through the functions below.

def json_field(obj, name, kind, item=None):
    """``obj[name]``, of type ``kind`` (with ``item``: a list of ``item``).  A
    missing field is a KeyError, a wrongly typed one a SchemaError.  Types
    must match exactly, so a JSON boolean is not an int."""
    value = obj[name]
    if type(value) is not kind or (item and not all([type(v) is item for v in value])):
        expected = kind.__name__ + (f" of {item.__name__}" if item else "")
        raise SchemaError(f"field {name!r} must be {expected}, got {reprlib.repr(value)}")
    return value


# What decoding bad input raises (JSON nested too deep: RecursionError); every
# reader reports it via bad_input_reason.
BAD_INPUT = (KeyError, TypeError, ValueError, RecursionError)


def bad_input_reason(exc):
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON: {exc}"
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


class Records(dict):
    """The records of the file or files named ``path``, by key.  Looking up a
    key they do not hold raises ``SchemaError("path: no record for key")``;
    ``get``, ``in`` and ``setdefault`` behave as for any dict."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, key):
        raise SchemaError(f"{self.path}: no record for {key}")


def read_jsonl(path, convert, key, records=None):
    """Map each record's ``key`` fields (strings) to ``convert(record)``, in
    file order, skipping blank lines, into ``records`` (new Records of
    ``path`` if not given), and return them.  A key already there, from this
    file or an earlier one, and every BAD_INPUT error are raised as
    ``SchemaError("path:line: reason")``."""
    if records is None:
        records = Records(path)
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                if not isinstance(obj, dict):
                    raise SchemaError(f"expected a JSON object, got {reprlib.repr(obj)}")
                record_key = tuple([json_field(obj, name, str) for name in key])
                if record_key in records:
                    raise SchemaError(f"duplicate {key[0]} {record_key[0]!r}" if len(key) == 1
                                      else f"duplicate record for {record_key}")
                records[record_key] = convert(obj)
            except BAD_INPUT as exc:
                raise SchemaError(f"{path}:{lineno}: {bad_input_reason(exc)}") from exc
    return records


# json.dumps with these options would build a new encoder for every record.
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def _jsonl_line(obj):
    return (_JSONL_ENCODER.encode(obj) + "\n").encode("utf-8")


def _write_atomic(chunks, path):
    """Write the byte strings ``chunks`` to a temporary file beside ``path``
    and rename it to ``path``: a write that fails leaves ``path`` as it was,
    removes the temporary file and reports its own OSError under ``path``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename in (None, tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_jsonl(records, path):
    """Write each record as one JSON line: keys sorted, text as UTF-8."""
    _write_atomic(map(_jsonl_line, records), path)


def write_json(obj, path):
    """Write one indented JSON document with sorted keys."""
    _write_atomic([(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")], path)


def _statement_to_json(st):
    return {
        "stmt_id": st.stmt_id,
        "text": st.text,
        "label": st.gold_label.value if st.gold_label else None,
        "evidence": (
            [sorted([r, c] for r, c in cells) for cells in st.gold_evidence]
            if st.gold_evidence is not None else None
        ),
    }


def _statement_from_json(obj):
    label = obj.get("label")
    evidence = obj.get("evidence")
    return Statement(
        stmt_id=json_field(obj, "stmt_id", str),
        text=json_field(obj, "text", str),
        gold_label=None if label is None else Label.parse(label),
        gold_evidence=None if evidence is None else tuple(
            frozenset((r, c) for r, c in version)
            for version in json_field(obj, "evidence", list, list)),
    )


def _document_to_json(doc):
    return {
        "format_version": INTERCHANGE_VERSION,
        "doc_id": doc.doc_id,
        "table_id": doc.table_id,
        "caption": doc.caption,
        "legend": doc.legend,
        "grid": doc.grid,
        "header_rows": doc.header_rows,
        "statements": [_statement_to_json(st) for st in doc.statements],
    }


def from_interchange(obj):
    """Decode the JSON object of one interchange line into a TableDocument.
    Bad input raises one of BAD_INPUT, which read_jsonl reports."""
    if json_field(obj, "format_version", int) != INTERCHANGE_VERSION:
        raise SchemaError(f"unsupported interchange version: {obj['format_version']!r}")
    grid = json_field(obj, "grid", list, list)
    "".join(map("".join, grid))  # a TypeError unless every cell is a string
    return make_document(
        doc_id=json_field(obj, "doc_id", str),
        table_id=json_field(obj, "table_id", str),
        caption=json_field(obj, "caption", str),
        legend=json_field(obj, "legend", str),
        rows_text=grid,
        header_rows=json_field(obj, "header_rows", int),
        statements=[_statement_from_json(s)
                    for s in json_field(obj, "statements", list, dict)],
    )


def read_corpus(path, keep=None):
    """Read a corpus: one interchange line per table, table ids unique.  Each
    table's TableDocument is kept, or with ``keep`` what ``keep(doc)``
    returns, so that only one line's grid is alive at a time."""
    convert = from_interchange if keep is None else lambda obj: keep(from_interchange(obj))
    return list(read_jsonl(path, convert, ("table_id",)).values())


def write_corpus(docs, path):
    write_jsonl(map(_document_to_json, docs), path)


def _minmaxmean(values):
    if not values:
        return 0, 0, 0.0
    return max(values), min(values), sum(values) / len(values)


def corpus_stats(corpus):
    """Descriptive statistics over a corpus: the dict that ``stats.json``
    holds.

    Token counts use plain whitespace splitting: statements on their text,
    tables on the per-row concatenation of cell texts.
    """
    labels = {label.value: 0 for label in Label}
    stmt_tokens = []
    row_tokens = []
    row_counts = []
    for doc in corpus:
        row_counts.append(doc.n_rows)
        for row in doc.grid:
            row_tokens.append(len(" ".join(row).split()))
        for st in doc.statements:
            stmt_tokens.append(len(st.text.split()))
            if st.gold_label is not None:
                labels[st.gold_label.value] += 1
    stats = {"table_count": len(corpus), **labels}
    for name, values in [("stmt_tokens", stmt_tokens), ("row_tokens", row_tokens),
                         ("row_count", row_counts)]:
        stats[f"{name}_max"], stats[f"{name}_min"], stats[f"{name}_mean"] = _minmaxmean(values)
    return stats
