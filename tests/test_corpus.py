import json
import pathlib
import re
import tempfile

import pytest
from hypothesis import given

from tabverify import corpus as cp
from conftest import documents, make_statement, make_table

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
        assert doc.statements[0].gold_evidence[0] == {(0, 1)}

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
    """The message of the SchemaError that reading a corpus file of ``text`` raises."""
    path.write_text(text, "utf-8")
    with pytest.raises(cp.SchemaError) as exc:
        cp.read_corpus(path)
    return str(exc.value)


class TestInterchange:
    @given(documents())
    def test_round_trip_identity(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            assert round_trip(doc, pathlib.Path(tmp) / "corpus.jsonl") == doc

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


class TestReadStatements:
    @given(documents())
    def test_keeps_what_read_corpus_reads(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "corpus.jsonl"
            cp.write_corpus([doc], path)
            assert cp.read_corpus(path, cp.TableStatements.of) == [statements_of(doc)]

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
                cp.read_corpus(path, cp.TableStatements.of)
        else:
            [doc] = cp.read_corpus(path)
            assert (doc.n_rows, doc.n_cols) == (2, 3)
            assert cp.read_corpus(path, cp.TableStatements.of) == [statements_of(doc)]


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
        assert cp.corpus_stats(docs) == cp.corpus_stats(list(reversed(docs)))

    def test_max_ge_mean_ge_min(self):
        stats = cp.corpus_stats(self.fixture_corpus())
        assert stats["stmt_tokens_max"] >= stats["stmt_tokens_mean"] >= stats["stmt_tokens_min"]
        assert stats["row_tokens_max"] >= stats["row_tokens_mean"] >= stats["row_tokens_min"]
