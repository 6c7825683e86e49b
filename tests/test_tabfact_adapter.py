"""scripts/tabfact_to_interchange.py on a small TabFact layout."""

import importlib.util
import json
import pathlib

from tabverify.corpus import Label, read_corpus

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "tabfact_to_interchange.py"
_spec = importlib.util.spec_from_file_location("tabfact_to_interchange", SCRIPT)
adapter = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(adapter)


def tabfact_layout(root):
    """Two CSV tables, a third one whose statement is empty, and a statements
    file that also names a table with no CSV file."""
    csv_dir = root / "data" / "all_csv"
    csv_dir.mkdir(parents=True)
    (csv_dir / "a.csv").write_text("team#wins\nlions#3\ntigers#5\n", "utf-8")
    (csv_dir / "b.csv").write_text("city#population\nparis#2\n", "utf-8")
    (csv_dir / "c.csv").write_text("x#y\n1#2\n", "utf-8")
    statements = root / "collected_data" / "r1_training_all.json"
    statements.parent.mkdir()
    statements.write_text(json.dumps({
        "a.csv": [["lions have 3 wins", "tigers have 4 wins"], [1, 0], "season"],
        "b.csv": [["paris has 2"], [1]],
        "c.csv": [[""], [1]],
        "missing.csv": [["no table"], [0]],
    }), "utf-8")
    return csv_dir, statements


class TestConvert:
    def test_written_corpus_reads_back(self, tmp_path, capsys):
        csv_dir, statements = tabfact_layout(tmp_path)
        out = tmp_path / "corpus.jsonl"
        adapter.convert(csv_dir, [statements], out)
        docs = read_corpus(out)
        assert [doc.table_id for doc in docs] == ["a", "b"]
        a = docs[0]
        assert (a.doc_id, a.caption, a.header_rows) == ("a.csv", "season", 1)
        assert a.grid == (("team", "wins"), ("lions", "3"), ("tigers", "5"))
        assert [(st.stmt_id, st.text, st.gold_label) for st in a.statements] == [
            ("s0", "lions have 3 wins", Label.ENTAILED),
            ("s1", "tigers have 4 wins", Label.REFUTED)]
        assert docs[1].caption == ""
        assert capsys.readouterr().out == f"wrote 2 tables (2 skipped) to {out}\n"

    def test_missing_and_rejected_tables_skipped_with_warning(self, tmp_path, capsys):
        csv_dir, statements = tabfact_layout(tmp_path)
        adapter.convert(csv_dir, [statements], tmp_path / "corpus.jsonl")
        assert capsys.readouterr().err == (
            f"warning: skipped table {csv_dir / 'c.csv'}: statement 's0' has empty text\n"
            f"warning: missing table file {csv_dir / 'missing.csv'}\n")
