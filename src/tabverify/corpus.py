"""Canonical table/statement model, XML parsing, corpus statistics, and the
file boundary: the one JSON-lines reader and writer every pipeline file goes
through.  A corpus file holds one interchange record per table and has no
codec of its own: ``iter_corpus`` yields one table at a time, so one grid
is alive, and every stage takes what it needs from the stream;
``read_corpus`` is its list.  ``write_corpus`` writes one.

Every table is built and checked by ``make_document``, which takes each
statement as plain fields and builds its one ``Statement``, each gold
evidence version as its mask (``cell_mask``; ``mask_cells`` inverts it), and
every interchange line is decoded by ``from_interchange``.  ``located`` is the
one place that names the file and line of rejected input.  ``corpus_stats``
folds each table as it arrives, so ``stats`` holds no grid.

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
import itertools
import json
import os
import re
import reprlib
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
    gold_label: Label | None
    gold_evidence: tuple | None  # per gold version, its mask (``cell_mask``)


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


def cell_mask(cells, n_cols):
    """The mask of ``cells``, ``(row, col)`` pairs: bit ``row * n_cols + col`` per cell."""
    return sum({1 << r * n_cols + c for r, c in cells})


def mask_cells(mask, n_cols):
    """The ``[row, col]`` cells of ``mask`` in row-major order: the inverse of ``cell_mask``."""
    return [list(divmod(bit.start(), n_cols)) for bit in re.finditer("1", f"{mask:b}"[::-1])]


def _build_grid(rows_text):
    """Pad ragged rows on the right with empty strings."""
    width = max((len(r) for r in rows_text), default=0)
    return tuple(tuple(texts) + ("",) * (width - len(texts)) for texts in rows_text)


def make_document(doc_id, table_id, caption, legend, rows_text, header_rows, statements):
    """Assemble a TableDocument, enforcing its invariants.  Each statement
    comes as plain fields, ``(stmt_id, text, gold_label, versions)``, each
    gold version a collection of ``(row, col)`` cells; its ``Statement``
    holds each version as its mask (``cell_mask``)."""
    if not table_id:
        raise SchemaError("missing table id")
    if header_rows < 0:
        raise SchemaError("header_rows must be >= 0")
    grid = _build_grid(rows_text)
    n_rows, n_cols = len(grid), len(grid[0]) if grid else 0
    seen, checked = set(), []
    for stmt_id, text, gold_label, versions in statements:
        if not stmt_id:
            raise SchemaError(f"statement without id in table {table_id!r}")
        if stmt_id in seen:
            raise SchemaError(f"duplicate statement id {stmt_id!r} in table {table_id!r}")
        seen.add(stmt_id)
        if not text:
            raise SchemaError(f"statement {stmt_id!r} has empty text")
        for cells in versions or ():
            if not cells:
                raise SchemaError(f"statement {stmt_id!r} has an empty evidence version")
            for r, c in cells:
                if not (type(r) is int and type(c) is int  # a bool is no index
                        and 0 <= r < n_rows and 0 <= c < n_cols):
                    raise SchemaError(
                        f"statement {stmt_id!r} evidence cell ({r!r}, {c!r}) out of bounds"
                    )
        if versions is not None:
            versions = tuple([cell_mask(cells, n_cols) for cells in versions])
        checked.append(Statement(stmt_id, text, gold_label, versions))
    return TableDocument(doc_id, table_id, caption, legend, grid, header_rows, tuple(checked))


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
    import xml.etree.ElementTree as ET  # here, so only `parse` loads pyexpat

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
            versions = [[(_int_attr(c, "row"), _int_attr(c, "col")) for c in ev.findall("cell")]
                        for ev in st.findall("evidence")]
            statements.append((st.get("id"), _text(st), label, versions or None))

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
# reader reports it through ``located``.
BAD_INPUT = (KeyError, TypeError, ValueError, RecursionError)


class located:
    """A context manager that reports an ``errors`` exception raised inside
    as ``SchemaError("path: reason")``, or ``"path:line: reason"`` once a
    reader has set ``line``: the one place an error gets its file."""

    def __init__(self, path, errors=BAD_INPUT):
        self.path, self.errors, self.line = path, errors, None

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, self.errors):
            where = self.path if self.line is None else f"{self.path}:{self.line}"
            reason = (f"invalid JSON: {exc}" if isinstance(exc, json.JSONDecodeError)
                      else f"missing field {exc}" if isinstance(exc, KeyError) else str(exc))
            raise SchemaError(f"{where}: {reason}") from exc


class Records(dict):
    """The records of the file or files named ``path``, by key.  Looking up a
    key they do not hold raises ``SchemaError("path: no record for key")``;
    ``get``, ``in`` and ``setdefault`` behave as for any dict."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, key):
        raise SchemaError(f"{self.path}: no record for {key}")


def _each_record(path, convert, key, seen):
    """Yield each record's ``key`` fields (strings) and ``convert(record)``,
    in file order, skipping blank lines: the one loop that reads a JSON-lines
    file.  A key in ``seen``, which the caller fills as it takes records,
    and every BAD_INPUT error are raised as ``SchemaError("path:line:
    reason")``."""
    with open(path, "rb") as fh, located(path) as at:
        for at.line, line in enumerate(fh, 1):
            if not line.strip():
                continue
            obj = json.loads(line.decode("utf-8"))
            if not isinstance(obj, dict):
                raise SchemaError(f"expected a JSON object, got {reprlib.repr(obj)}")
            record_key = tuple([json_field(obj, name, str) for name in key])
            if record_key in seen:
                raise SchemaError(f"duplicate {key[0]} {record_key[0]!r}" if len(key) == 1
                                  else f"duplicate record for {record_key}")
            yield record_key, convert(obj)


def read_jsonl(path, convert, key, records=None):
    """Map each record's key to ``convert(record)`` into ``records`` (new
    Records of ``path`` if not given) and return them.  A key already there,
    from this file or an earlier one, is a duplicate."""
    if records is None:
        records = Records(path)
    for record_key, value in _each_record(path, convert, key, records):
        records[record_key] = value
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
    """Write one indented JSON document with sorted keys, the bytes of
    ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, chunk by chunk
    rather than joined first."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    _write_atomic(map(str.encode, itertools.chain(chunks, ["\n"])), path)


def _statement_to_json(st, n_cols):
    return {
        "stmt_id": st.stmt_id,
        "text": st.text,
        "label": st.gold_label.value if st.gold_label else None,
        "evidence": (
            [mask_cells(mask, n_cols) for mask in st.gold_evidence]
            if st.gold_evidence is not None else None
        ),
    }


def _statement_from_json(obj):
    """A statement record's fields, as ``make_document`` takes them."""
    label = obj.get("label")
    return (json_field(obj, "stmt_id", str), json_field(obj, "text", str),
            None if label is None else Label.parse(label),
            None if obj.get("evidence") is None else json_field(obj, "evidence", list, list))


def _document_to_json(doc):
    return {
        "format_version": INTERCHANGE_VERSION,
        "doc_id": doc.doc_id,
        "table_id": doc.table_id,
        "caption": doc.caption,
        "legend": doc.legend,
        "grid": doc.grid,
        "header_rows": doc.header_rows,
        "statements": [_statement_to_json(st, doc.n_cols) for st in doc.statements],
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


def iter_corpus(path):
    """Yield a corpus's TableDocuments one line at a time: one interchange
    line per table, table ids unique."""
    seen = set()
    for key, doc in _each_record(path, from_interchange, ("table_id",), seen):
        seen.add(key)
        yield doc


def read_corpus(path):
    """The list of a corpus's TableDocuments, as ``iter_corpus`` yields them."""
    return list(iter_corpus(path))


def write_corpus(docs, path):
    write_jsonl(map(_document_to_json, docs), path)


def _minmaxmean(values):
    if not values:
        return 0, 0, 0.0
    return max(values), min(values), sum(values) / len(values)


def corpus_stats(docs):
    """Descriptive statistics of a corpus's tables, folded one table at a
    time: the dict that ``stats.json`` holds.  Tokens are split on
    whitespace: a row's from the concatenation of its cell texts."""
    labels = {label.value: 0 for label in Label}
    stmt_tokens, row_tokens, row_counts = [], [], []
    for doc in docs:
        row_counts.append(doc.n_rows)
        row_tokens += [len(" ".join(row).split()) for row in doc.grid]
        for st in doc.statements:
            stmt_tokens.append(len(st.text.split()))
            if st.gold_label is not None:
                labels[st.gold_label.value] += 1
    stats = {"table_count": len(row_counts), **labels}
    for name, values in [("stmt_tokens", stmt_tokens), ("row_tokens", row_tokens),
                         ("row_count", row_counts)]:
        stats[f"{name}_max"], stats[f"{name}_min"], stats[f"{name}_mean"] = _minmaxmean(values)
    return stats
