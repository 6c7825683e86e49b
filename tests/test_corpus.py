import dataclasses
import json
import pathlib
import re
import tempfile
import weakref

import pytest
from hypothesis import given, strategies as st

from tabverify import corpus as cp
from conftest import cells_of, corpus_bytes, documents, make_statement, make_table, mask_of

SIMPLE_XML = b"""
<document id="d1">
  <table id="t1">
    <caption text="a caption"/>
    <row><cell text="h1"/><cell text="h2"/><cell text="h3"/></row>
    <row><cell text="a"/><cell text="b"/><cell text="c"/></row>
    <statements>
      <statement id="s1" text="first" type="Entailed"/>
      <statement id="s2" text="second" type="REFUTED"/>
    </statements>
  </table>
</document>
"""


class TestParseXml:
    def test_structural_mapping(self):
        doc = cp.parse_xml(SIMPLE_XML)
        assert (doc.n_rows, doc.n_cols) == (2, 3)
        assert [s.gold_label for s in doc.statements] == [cp.Label.ENTAILED, cp.Label.REFUTED]
        assert doc.caption == "a caption"
        assert doc.header_rows == 1

    def test_ragged_row_padded(self):
        doc = cp.parse_xml(
            b'<document id="d"><table id="t">'
            b'<row><cell text="a"/><cell text="b"/></row>'
            b'<row><cell text="c"/></row>'
            b'</table></document>')
        assert doc.n_cols == 2
        assert doc.grid[1][1] == ""

    def test_no_statements_section(self):
        doc = cp.parse_xml(b'<document id="d"><table id="t"><row><cell text="x"/></row></table></document>')
        assert doc.statements == ()

    def test_malformed_xml_has_position(self):
        with pytest.raises(cp.SchemaError,
                           match=r"^malformed XML: unclosed token: line 1, column 10$"):
            cp.parse_xml(b"<document><table")

    @pytest.mark.parametrize("encoding", ["bogus", "rot13", "utf-32", "idna"])
    def test_unreadable_declared_encoding(self, encoding):
        """Unknown, not a text codec, multi-byte, and failing to decode."""
        with pytest.raises(cp.SchemaError, match="^malformed XML: "):
            cp.parse_xml(f'<?xml version="1.0" encoding="{encoding}"?>'
                         '<document><table id="t"><row><cell text="x"/></row></table></document>'
                         .encode())

    def test_missing_table_id(self):
        with pytest.raises(cp.SchemaError, match="table id"):
            cp.parse_xml(b'<document id="d"><table><row><cell text="x"/></row></table></document>')

    def test_negative_header_rows(self):
        with pytest.raises(cp.SchemaError, match="header_rows must be >= 0"):
            cp.parse_xml(b'<document id="d"><table id="t" header_rows="-1">'
                         b'<row><cell text="x"/></row></table></document>')

    def test_statement_without_id(self):
        with pytest.raises(cp.SchemaError, match="statement without id in table 't'"):
            cp.parse_xml(b'<document id="d"><table id="t"><row><cell text="x"/></row>'
                         b'<statements><statement text="x" type="entailed"/></statements>'
                         b'</table></document>')

    def test_unrecognized_label_named(self):
        with pytest.raises(cp.SchemaError, match="maybe"):
            cp.parse_xml(
                b'<document id="d"><table id="t"><row><cell text="x"/></row>'
                b'<statements><statement id="s" text="x" type="maybe"/></statements>'
                b'</table></document>')

    def test_evidence_parsed(self):
        doc = cp.parse_xml(
            b'<document id="d"><table id="t">'
            b'<row><cell text="a"/><cell text="b"/></row>'
            b'<statements><statement id="s" text="x" type="entailed">'
            b'<evidence><cell row="0" col="1"/></evidence>'
            b'</statement></statements></table></document>')
        assert doc.statements[0].gold_evidence == (0b10,)

    def test_out_of_bounds_evidence(self):
        with pytest.raises(cp.SchemaError, match="out of bounds"):
            cp.parse_xml(
                b'<document id="d"><table id="t">'
                b'<row><cell text="a"/></row>'
                b'<statements><statement id="s" text="x" type="entailed">'
                b'<evidence><cell row="5" col="0"/></evidence>'
                b'</statement></statements></table></document>')

    def test_empty_evidence_version(self):
        with pytest.raises(cp.SchemaError, match="'s' has an empty evidence version"):
            cp.parse_xml(
                b'<document id="d"><table id="t"><row><cell text="a"/></row>'
                b'<statements><statement id="s" text="x" type="entailed">'
                b'<evidence><cell row="0" col="0"/></evidence><evidence/>'
                b'</statement></statements></table></document>')

    @pytest.mark.parametrize("xml", [b'<document id="d"/>',
                                     b'<document id="d"><tabel id="t"/></document>',
                                     b'<row><cell text="a"/></row>',
                                     b'<document id="d"><table id="a"/><table id="b"/></document>'])
    def test_without_table_element(self, xml):
        """Not one table: a second one is not dropped silently."""
        with pytest.raises(cp.SchemaError, match="^expected one <table> element inside "
                           f"<document>, found {xml.count(b'<table ')}$"):
            cp.parse_xml(xml)

    def test_bare_table_root(self):
        doc = cp.parse_xml(b'<table id="t"><caption>c</caption><row><cell text="a"/></row></table>')
        assert (doc.doc_id, doc.table_id, doc.caption, doc.grid) == ("", "t", "c", (("a",),))

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    def test_str_input_keeps_its_text(self, encoding):
        """A str is already decoded: its encoding declaration changes nothing."""
        doc = cp.parse_xml(f'<?xml version="1.0" encoding="{encoding}"?>'
                           '<document id="d"><table id="t"><row><cell text="caf\u00e9"/></row>'
                           '</table></document>')
        assert doc.grid == (("caf\u00e9",),)

    def test_duplicate_statement_id(self):
        with pytest.raises(cp.SchemaError, match="duplicate"):
            cp.parse_xml(
                b'<document id="d"><table id="t"><row><cell text="x"/></row>'
                b'<statements><statement id="s" text="a" type="entailed"/>'
                b'<statement id="s" text="b" type="refuted"/></statements>'
                b'</table></document>')

    def test_deterministic(self):
        assert cp.parse_xml(SIMPLE_XML) == cp.parse_xml(SIMPLE_XML)

    @pytest.mark.parametrize("value", ["1_0", " 2 ", "\u0663"])
    @pytest.mark.parametrize("attribute", ["header_rows", "row"])
    def test_only_ascii_integer_attributes(self, attribute, value):
        """int() would read these as 10, 2 and 3."""
        xml = (b'<document id="d"><table id="t" header_rows="1">'
               b'<row><cell text="a"/></row><row><cell text="b"/></row><row><cell text="c"/></row>'
               b'<statements><statement id="s" text="x" type="entailed">'
               b'<evidence><cell row="1" col="0"/></evidence>'
               b'</statement></statements></table></document>')
        xml = xml.replace(f'{attribute}="1"'.encode(), f'{attribute}="{value}"'.encode("utf-8"))
        with pytest.raises(cp.SchemaError, match=f"{attribute}={value!r} is not an integer"):
            cp.parse_xml(xml)


def round_trip(doc, path):
    cp.write_corpus([doc], path)
    [back] = cp.read_corpus(path)
    return back


def corpus_line(path, doc):
    """The one line of ``doc`` as ``write_corpus`` writes it, as text."""
    cp.write_corpus([doc], path)
    return path.read_text("utf-8")


def read_error(path, text):
    """The message of the SchemaError that reading a corpus file of ``text``
    raises, the same from ``read_corpus`` and ``iter_corpus``."""
    path.write_text(text, "utf-8")
    messages = []
    for read in (cp.read_corpus, lambda path: list(cp.iter_corpus(path))):
        with pytest.raises(cp.SchemaError) as exc:
            read(path)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    return messages[0]


class TestInterchange:
    @given(documents())
    def test_round_trip_identity(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            assert round_trip(doc, pathlib.Path(tmp) / "corpus.jsonl") == doc

    @given(documents())
    def test_gold_versions_are_masks(self, doc):
        """Every gold version of a built or decoded document is the int mask
        of its cells, written back as them in row-major order; a corpus
        written, read and written again keeps its bytes."""
        n_cols = doc.n_cols
        versions = [None if s.gold_evidence is None else
                    [sorted(cells_of(mask, n_cols)) for mask in s.gold_evidence]
                    for s in doc.statements]
        # the same cells as lists, each one twice, in reverse order
        rebuilt = make_table(doc.grid, doc.table_id, doc.header_rows, [
            make_statement(s.stmt_id, s.text, s.gold_label, None if v is None else
                           [[list(cell) for cell in cells[::-1] * 2] for cells in v])
            for s, v in zip(doc.statements, versions)])
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "corpus.jsonl"
            written = corpus_bytes([rebuilt], path)
            [decoded] = cp.read_corpus(path)
            assert corpus_bytes([decoded], path) == written
        assert [s["evidence"] for s in json.loads(written)["statements"]] == [
            None if v is None else [list(map(list, cells)) for cells in v] for v in versions]
        masks = [None if v is None else tuple(mask_of(cells, n_cols) for cells in v)
                 for v in versions]
        for built in (doc, rebuilt, decoded):
            assert [s.gold_evidence for s in built.statements] == masks
            assert all(type(mask) is int for s in built.statements
                       for mask in s.gold_evidence or ())

    def test_gold_cells_written_once_in_row_major_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = corpus_line(path, make_table([["a", "b"], ["c", "d"]], statements=[
            make_statement("s", "x", cp.Label.ENTAILED, [{(0, 0)}])]))
        line = line.replace('"evidence": [[[0, 0]]]', '"evidence": [[[1, 0], [0, 1], [0, 1]]]')
        path.write_text(line, "utf-8")
        assert b'"evidence": [[[0, 1], [1, 0]]]' in corpus_bytes(cp.read_corpus(path), path)

    def test_empty_caption_preserved(self, tmp_path):
        doc = make_table([["a"]], caption="")
        assert round_trip(doc, tmp_path / "corpus.jsonl").caption == ""

    def test_large_table_round_trips(self, tmp_path):
        doc = make_table([[f"r{i}", "v"] for i in range(302)])
        assert round_trip(doc, tmp_path / "corpus.jsonl").n_rows == 302

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = corpus_line(path, make_table([["a"]])).replace(
            '"format_version": 1', '"format_version": 99')
        assert read_error(path, line) == f"{path}:1: unsupported interchange version: 99"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        assert read_error(path, "{not json\n") == (
            f"{path}:1: invalid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)")

    def test_empty_evidence_version(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = corpus_line(path, make_table([["a"]], statements=[
            make_statement("s", "x", cp.Label.ENTAILED, [{(0, 0)}])]))
        line = line.replace('"evidence": [[[0, 0]]]', '"evidence": [[]]')
        assert read_error(path, line) == f"{path}:1: statement 's' has an empty evidence version"

    def test_statement_without_id(self, tmp_path):
        """The rule that parse_xml applies to XML holds for interchange too."""
        path = tmp_path / "corpus.jsonl"
        line = corpus_line(path, make_table([["a"]], table_id="t1", statements=[
            make_statement("s1", "x", cp.Label.ENTAILED)]))
        line = line.replace('"stmt_id": "s1"', '"stmt_id": ""')
        assert read_error(path, line) == f"{path}:1: statement without id in table 't1'"

    def test_missing_field(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        assert read_error(path, '{"format_version": 1, "doc_id": "d", "table_id": "t"}\n') == \
            f"{path}:1: missing field 'grid'"

    def test_corpus_file_round_trip(self, tmp_path):
        docs = [make_table([["a", "b"]], table_id="t1"),
                make_table([["c"]], table_id="t2")]
        path = tmp_path / "corpus.jsonl"
        cp.write_corpus(docs, path)
        assert cp.read_corpus(path) == docs


def statements_of(doc):
    """The TableStatements of ``doc``, field by field: not from ``TableStatements.of``."""
    return cp.TableStatements(doc.table_id, doc.n_rows, doc.n_cols, doc.statements)


def read_statements(path):
    """The TableStatements of a corpus file, as `score` reads them."""
    return list(map(cp.TableStatements.of, cp.iter_corpus(path)))


class TestReadStatements:
    @given(documents())
    def test_keeps_what_read_corpus_reads(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "corpus.jsonl"
            cp.write_corpus([doc], path)
            assert read_statements(path) == [statements_of(doc)]

    @pytest.mark.parametrize("evidence, error", [
        ([[1, 2]], None),
        ([[0, 3]], "statement 's1' evidence cell (0, 3) out of bounds"),
        ([[2, 0]], "statement 's1' evidence cell (2, 0) out of bounds"),
    ], ids=["widest-row", "past-widest-row", "past-last-row"])
    def test_ragged_grid_has_the_padded_shape(self, tmp_path, evidence, error):
        """A grid's width is its widest row's, wherever that row is."""
        path = tmp_path / "corpus.jsonl"
        line = json.dumps({"format_version": 1, "doc_id": "", "table_id": "t1",
                           "caption": "", "legend": "", "grid": [["a"], ["b", "c", "d"]],
                           "header_rows": 1, "statements": [
                               {"stmt_id": "s1", "text": "x", "evidence": [evidence]}]})
        path.write_text(line + "\n")
        if error:
            assert read_error(path, line) == f"{path}:1: {error}"
            with pytest.raises(cp.SchemaError, match=re.escape(f"{path}:1: {error}")):
                read_statements(path)
        else:
            [doc] = cp.read_corpus(path)
            assert (doc.n_rows, doc.n_cols) == (2, 3)
            assert read_statements(path) == [statements_of(doc)]


class TestIterCorpus:
    @given(st.lists(documents(), max_size=4, unique_by=lambda doc: doc.table_id))
    def test_yields_what_read_corpus_reads(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "corpus.jsonl"
            cp.write_corpus(docs, path)
            assert list(cp.iter_corpus(path)) == cp.read_corpus(path) == docs

    def test_builds_one_statement_per_statement(self, fixtures_dir, monkeypatch):
        """Each statement's Statement is built once, with its gold masks:
        none is built again to convert its evidence."""
        built = []

        class Counted(cp.Statement):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.stmt_id)

        monkeypatch.setattr(cp, "Statement", Counted)
        statements = [st for doc in cp.iter_corpus(fixtures_dir / "expected" / "corpus.jsonl")
                      for st in doc.statements]
        assert any(st.gold_evidence for st in statements)
        assert built == [st.stmt_id for st in statements]

    def test_duplicate_table_id_after_the_tables_before_it(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        cp.write_corpus([make_table([["a"]], table_id=t) for t in ("t1", "t2")], path)
        lines = path.read_text("utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[:1]), "utf-8")
        tables = cp.iter_corpus(path)
        assert [next(tables).table_id, next(tables).table_id] == ["t1", "t2"]
        with pytest.raises(cp.SchemaError, match=re.escape(f"{path}:3: duplicate table_id 't1'")):
            next(tables)


class TestAtomicWrite:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b'{"old": 1}\n')

        def records():
            yield {"new": 1}
            raise RuntimeError("halfway")

        with pytest.raises(RuntimeError, match="halfway"):
            cp.write_jsonl(records(), path)
        assert path.read_bytes() == b'{"old": 1}\n'
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("error", [
        FileNotFoundError(2, "No such file or directory", "input.jsonl"),
        ValueError("bad record"),
    ], ids=["oserror-of-another-file", "value-error"])
    def test_error_while_producing_records_passes_through(self, tmp_path, error):
        """Only the writer's own OSErrors are reported under its path."""
        path = tmp_path / "out.jsonl"

        def records():
            yield {"new": 1}
            raise error

        with pytest.raises(type(error)) as raised:
            cp.write_jsonl(records(), path)
        assert raised.value is error
        assert not list(tmp_path.iterdir())

    def test_write_replaces_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"old\n")
        cp.write_json({"b": 1, "a": "\u00e9"}, path)
        assert path.read_bytes() == b'{\n  "a": "\\u00e9",\n  "b": 1\n}\n'
        assert list(tmp_path.iterdir()) == [path]


# Every JSON value: nested dicts and lists, empty ones too, floats with NaN
# and infinities, and text and keys beyond ASCII.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


class TestWriteJson:
    @given(json_values)
    def test_writes_the_bytes_of_json_dumps(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "out.json"
            cp.write_json(obj, path)
            assert path.read_bytes() == (
                json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


class TestCorpusStats:
    def fixture_corpus(self):
        t1 = make_table(
            [["h1", "h2"], ["one two three", "x"], ["a b", ""]],
            table_id="t1",
            statements=[
                make_statement("s1", "one two", cp.Label.ENTAILED),
                make_statement("s2", "three four five", cp.Label.ENTAILED),
                make_statement("s3", "six", cp.Label.REFUTED),
            ])
        t2 = make_table(
            [["h"], ["x"]],
            table_id="t2",
            statements=[
                make_statement("s1", "a b c d", cp.Label.REFUTED),
                make_statement("s2", "e", cp.Label.UNKNOWN),
                make_statement("s3", "f g", cp.Label.ENTAILED),
                make_statement("s4", "h i j", cp.Label.ENTAILED),
                make_statement("s5", "k", cp.Label.ENTAILED),
            ])
        return [t1, t2]

    def test_hand_enumerated_counts(self):
        stats = cp.corpus_stats(self.fixture_corpus())
        assert stats["table_count"] == 2
        assert (stats["entailed"], stats["refuted"], stats["unknown"]) == (5, 2, 1)
        # statement token counts: 2,3,1,4,1,2,3,1
        assert stats["stmt_tokens_max"] == 4
        assert stats["stmt_tokens_min"] == 1
        assert stats["stmt_tokens_mean"] == pytest.approx(17 / 8)
        # row whitespace tokens: t1 -> 2, 4, 2; t2 -> 1, 1
        assert stats["row_tokens_max"] == 4
        assert stats["row_tokens_min"] == 1
        assert stats["row_tokens_mean"] == pytest.approx(10 / 5)
        assert (stats["row_count_max"], stats["row_count_min"]) == (3, 2)

    def test_empty_corpus_zeroed(self):
        stats = cp.corpus_stats([])
        assert stats["table_count"] == 0
        assert stats["stmt_tokens_mean"] == 0
        assert stats["row_count_max"] == 0

    def test_permutation_invariant(self):
        docs = self.fixture_corpus()
        assert cp.corpus_stats(docs) == cp.corpus_stats(reversed(docs))

    def test_max_ge_mean_ge_min(self):
        stats = cp.corpus_stats(self.fixture_corpus())
        assert stats["stmt_tokens_max"] >= stats["stmt_tokens_mean"] >= stats["stmt_tokens_min"]
        assert stats["row_tokens_max"] >= stats["row_tokens_mean"] >= stats["row_tokens_min"]

    def test_folds_one_table_at_a_time(self):
        """A stream of tables is counted as it arrives, not listed first:
        when the third table is drawn, the first is gone."""
        drawn = []

        def tables():
            for table in self.fixture_corpus() * 2:
                assert all(ref() is None for ref in drawn[:-1]), "a counted table is held"
                doc = dataclasses.replace(table)  # a copy that only the consumer holds
                drawn.append(weakref.ref(doc))
                yield doc
                del doc

        stats = cp.corpus_stats(tables())
        assert len(drawn) == 4
        assert stats == cp.corpus_stats(self.fixture_corpus() * 2)
