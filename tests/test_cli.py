import contextlib
import gc
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tracemalloc
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tabverify
from conftest import FIXTURES, make_statement, make_table
from run_fixture_pipeline import run_pipeline
from tabverify import classify, cli, corpus, ensemble, evidence, scoring, snapshot
from tabverify.corpus import (Label, Statement, TableDocument, iter_corpus, parse_xml,
                              read_corpus, write_corpus)


def run(argv):
    return cli.main(argv)


SUBCOMMANDS = ["parse", "stats", "augment", "snapshot", "baseline",
               "ensemble-train", "predict", "evidence", "score"]


class TestHelp:
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0


class TestLogLevel:
    """TABFACT_KIT_LOG sets the log level.  Logging is process-global, so the
    CLI runs in a fresh interpreter, whose root logger has no handler yet."""

    @pytest.mark.parametrize("level, code, err", [
        ("info", 0, "INFO tabverify: wrote 5 tables to {out}\n"),
        ("bogus", 2, "error: TABFACT_KIT_LOG: Unknown level: 'BOGUS'\n"),
        ("5", 2, "error: TABFACT_KIT_LOG: Unknown level: '5'\n"),
        ("", 0, ""),
    ], ids=["info", "unknown-name", "number", "empty"])
    def test_level(self, fixtures_dir, tmp_path, level, code, err):
        out = tmp_path / "corpus.jsonl"
        env = dict(os.environ, PYTHONPATH=str(fixtures_dir.parent.parent / "src"),
                   TABFACT_KIT_LOG=level)
        argv = ["parse", str(fixtures_dir / "corpus"), str(out)]
        proc = subprocess.run([sys.executable, "-m", "tabverify.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err.format(out=out))
        assert out.exists() == (code == 0)

    def test_unknown_level_with_a_root_handler(self, fixtures_dir, tmp_path, monkeypatch,
                                               capsys):
        """Under pytest the root logger has handlers, so logging.basicConfig
        would not check the level: main does."""
        monkeypatch.setenv("TABFACT_KIT_LOG", "bogus")
        assert run(["stats", str(fixtures_dir / "expected" / "corpus.jsonl")]) == 2
        assert capsys.readouterr() == ("", "error: TABFACT_KIT_LOG: Unknown level: 'BOGUS'\n")


# Runs one entry point as its process would, then prints the exit code and
# whether the collector was frozen when the entry point returned.
ENTRY_POINT = """
import gc, importlib, runpy, sys
sys.argv[1:] = {argv!r}
try:
    {call}
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count() > 0)
"""


def entry_point_call(script):
    """The statement that enters the CLI as ``python -m tabverify.cli`` does,
    or as the ``tabverify`` script that pyproject.toml declares does."""
    if not script:
        return 'runpy.run_module("tabverify.cli", run_name="__main__", alter_sys=True)'
    pyproject = (FIXTURES.parent.parent / "pyproject.toml").read_text("utf-8")
    module, name = re.search(r'^tabverify = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    return f"sys.exit(importlib.import_module({module!r}).{name}())"


class TestProcessExit:
    """A CLI process freezes the collector on its way out, however ``main``
    ends, so the shutdown collection has nothing to walk; ``main`` called
    in-process freezes nothing."""

    def test_main_in_process_freezes_nothing(self, fixtures_dir, capsys):
        before = gc.get_freeze_count()
        assert run(["stats", str(fixtures_dir / "expected" / "corpus.jsonl")]) == 0
        with pytest.raises(SystemExit):
            run(["--help"])
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("script", [False, True], ids=["module", "console-script"])
    @pytest.mark.parametrize("argv, code", [
        (["stats", "{corpus}"], 0),
        (["stats", "{missing}"], 2),
        (["--help"], 0),
    ], ids=["exit-0", "exit-2", "help"])
    def test_entry_point_freezes_on_exit(self, fixtures_dir, tmp_path, script, argv, code):
        root = fixtures_dir.parent.parent
        argv = [arg.format(corpus=fixtures_dir / "expected" / "corpus.jsonl",
                           missing=tmp_path / "missing.jsonl") for arg in argv]
        wrapper = ENTRY_POINT.format(argv=argv, call=entry_point_call(script))
        proc = subprocess.run([sys.executable, "-c", wrapper],
                              env=dict(os.environ, PYTHONPATH=str(root / "src")),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{code} True"

    def test_stage_process_delivers_its_whole_stdout(self, fixtures_dir, capsys):
        corpus_path = str(fixtures_dir / "expected" / "corpus.jsonl")
        assert run(["stats", corpus_path]) == 0
        expected = capsys.readouterr().out
        assert len(expected.splitlines()) == 7
        env = dict(os.environ, PYTHONPATH=str(fixtures_dir.parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-m", "tabverify.cli", "stats", corpus_path],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


class TestParse:
    def test_fixture_dir(self, fixtures_dir, tmp_path):
        out = tmp_path / "corpus.jsonl"
        assert run(["parse", str(fixtures_dir / "corpus"), str(out)]) == 0
        assert len(read_corpus(out)) == 5
        manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
        assert manifest["subcommand"] == "parse"

    def test_empty_dir(self, tmp_path):
        (tmp_path / "empty").mkdir()
        out = tmp_path / "corpus.jsonl"
        assert run(["parse", str(tmp_path / "empty"), str(out)]) == 0
        assert out.read_bytes() == b""

    def test_malformed_file_collected(self, fixtures_dir, tmp_path):
        src = tmp_path / "corpus"
        src.mkdir()
        shutil.copy(fixtures_dir / "corpus" / "t1.xml", src / "t1.xml")
        shutil.copy(fixtures_dir / "corpus" / "t2.xml", src / "t2.xml")
        (src / "bad.xml").write_text("<document><table oops")
        t3 = (fixtures_dir / "corpus" / "t3.xml").read_text()
        (src / "bad_header.xml").write_text(t3.replace('header_rows="1"', 'header_rows="x"'))
        (src / "bad_cell.xml").write_text(t3.replace('row="1" col="0"', 'row="1" col="0.5"', 1))
        out = tmp_path / "corpus.jsonl"
        assert run(["parse", str(src), str(out)]) == 1
        assert len(read_corpus(out)) == 2

    def test_unknown_encoding_is_a_failed_file(self, fixtures_dir, tmp_path, caplog):
        src = tmp_path / "corpus"
        src.mkdir()
        shutil.copy(fixtures_dir / "corpus" / "t1.xml", src / "t1.xml")
        (src / "bogus.xml").write_bytes(
            b'<?xml version="1.0" encoding="bogus"?>'
            b'<document><table id="t"><row><cell text="x"/></row></table></document>')
        out = tmp_path / "corpus.jsonl"
        assert run(["parse", str(src), str(out)]) == 1
        assert [doc.table_id for doc in read_corpus(out)] == ["t1"]
        assert f"{src / 'bogus.xml'}: malformed XML: unknown encoding: bogus" in caplog.text

    def test_repeated_table_id_is_a_failed_file(self, fixtures_dir, tmp_path, caplog):
        src = tmp_path / "corpus"
        shutil.copytree(fixtures_dir / "corpus", src)
        shutil.copy(src / "t1.xml", src / "t6.xml")
        out = tmp_path / "corpus.jsonl"
        assert run(["parse", str(src), str(out)]) == 1
        assert [doc.table_id for doc in read_corpus(out)] == ["t1", "t2", "t3", "t4", "t5"]
        assert f"{src / 't6.xml'}: duplicate table_id 't1', also in {src / 't1.xml'}" \
            in caplog.text
        assert run(["stats", str(out)]) == 0

    def test_two_table_document_is_a_failed_file(self, fixtures_dir, tmp_path, caplog):
        src = tmp_path / "corpus"
        shutil.copytree(fixtures_dir / "corpus", src)
        t1 = (src / "t1.xml").read_text("utf-8")
        second = t1[t1.index("<table"):t1.index("</table>") + len("</table>")]
        (src / "t1.xml").write_text(t1.replace("</table>", "</table>" + second.replace(
            'id="t1"', 'id="t9"'), 1), "utf-8")
        out = tmp_path / "corpus.jsonl"
        assert run(["parse", str(src), str(out)]) == 1
        assert [doc.table_id for doc in read_corpus(out)] == ["t2", "t3", "t4", "t5"]
        assert (f"{src / 't1.xml'}: expected one <table> element inside <document>, found 2"
                in caplog.text)

    def test_unreadable_xml_named_and_nothing_written(self, fixtures_dir, tmp_path, capsys):
        """A file that cannot be read is reported under its own name, though
        the output is being written when it is reached."""
        src = tmp_path / "corpus"
        shutil.copytree(fixtures_dir / "corpus", src)
        (src / "t6.xml").symlink_to(tmp_path / "missing.xml")
        out = tmp_path / "out" / "corpus.jsonl"
        out.parent.mkdir()
        assert run(["parse", str(src), str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{src / 't6.xml'}'\n")
        assert not list(out.parent.iterdir())

    def test_missing_input(self, tmp_path, capsys):
        assert run(["parse", str(tmp_path / "nope"), str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'nope'}: not a directory\n"

    def test_missing_corpus_file(self, tmp_path):
        assert run(["stats", str(tmp_path / "nope.jsonl")]) == 2


class TestEndToEnd:
    def test_smoke_reproduces_frozen_reports(self, fixtures_dir, tmp_path):
        run_pipeline(fixtures_dir / "corpus", tmp_path)
        w = str(tmp_path)
        assert run(["score", "--corpus", f"{w}/corpus.jsonl", "--preds", f"{w}/preds.jsonl",
                    "--evidence", f"{w}/evidence.jsonl", "--micro",
                    "--out", f"{w}/report_micro.json"]) == 0
        expected = fixtures_dir / "expected"
        for name in ["corpus.jsonl", "stats.json", "augmented.jsonl", "snapshots.jsonl",
                     "scores.jsonl", "layer.json", "preds.jsonl", "evidence.jsonl",
                     "report.json", "report_micro.json"]:
            assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name

    def test_evidence_trace_reproduces_frozen_file(self, pipeline_dir, fixtures_dir, tmp_path):
        out = tmp_path / "evidence_trace.jsonl"
        assert run(["evidence", f"{pipeline_dir}/corpus.jsonl", f"{pipeline_dir}/preds.jsonl",
                    str(out), "--trace"]) == 0
        assert out.read_bytes() == (fixtures_dir / "expected" / out.name).read_bytes()

    @pytest.mark.parametrize("word, text", [("alpha", "alpha is big"),
                                            ("avg", "average is big")],
                             ids=["plain", "default-abbreviation"])
    def test_evidence_trace_shows_rule_3(self, tmp_path, word, text):
        """A word in a header cell and in a body row's first cell fires rule 3
        at their crossing, and the trace names it there; a cell's abbreviation
        matches the statement's full form."""
        (tmp_path / "xml").mkdir()
        cells = [["name", word, "beta"], [word, "1", "2"], ["gamma", "3", "4"]]
        rows = "".join("<row>" + "".join(f'<cell text="{c}"/>' for c in row) + "</row>"
                       for row in cells)
        (tmp_path / "xml" / "t.xml").write_text(
            f'<document><table id="t" header_rows="1">{rows}<statements>'
            f'<statement id="s" text="{text}" type="refuted"/></statements></table></document>')
        assert run(["parse", str(tmp_path / "xml"), f"{tmp_path}/corpus.jsonl"]) == 0
        assert run(["evidence", f"{tmp_path}/corpus.jsonl", f"{tmp_path}/evidence.jsonl",
                    "--use-gold-taskA", "--trace"]) == 0
        [record] = map(json.loads, (tmp_path / "evidence.jsonl").read_text().splitlines())
        assert record["trace"] == [[[], ["4"], []],
                                   [["2", "4"], ["1", "2", "3"], ["2"]],
                                   [[], ["1"], []]]

    def test_predict_on_split_score_file(self, pipeline_dir, tmp_path):
        """One model's scores split across two files predict as the whole file."""
        lines = (pipeline_dir / "scores.jsonl").read_text().splitlines(keepends=True)
        halves = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        halves[0].write_text("".join(lines[:len(lines) // 2]))
        halves[1].write_text("".join(lines[len(lines) // 2:]))
        out = tmp_path / "preds.jsonl"
        assert run(["predict", *map(str, halves), "--layer", f"{pipeline_dir}/layer.json",
                    "--out", str(out)]) == 0
        assert out.read_bytes() == (pipeline_dir / "preds.jsonl").read_bytes()

    def test_missing_model_names_every_score_file(self, pipeline_dir, tmp_path, capsys):
        """Two models split across two files, each file lacking one model's
        triple for one statement: the error names both files."""
        lines = (pipeline_dir / "scores.jsonl").read_text().splitlines(keepends=True)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("".join(lines[1:]))
        b.write_text("".join([lines[0], *lines[2:]])
                     .replace('"model": "lexical"', '"model": "other"'))
        assert run(["ensemble-train", str(a), str(b), "--corpus", f"{pipeline_dir}/corpus.jsonl",
                    "--out", f"{tmp_path}/layer.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: {a}, {b}: missing scores from model 'other' for (t1, s2)\n")

    def test_idempotent_across_runs(self, fixtures_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        run_pipeline(fixtures_dir / "corpus", a)
        run_pipeline(fixtures_dir / "corpus", b)
        for name in ["corpus.jsonl", "stats.json", "augmented.jsonl",
                     "snapshots.jsonl", "scores.jsonl", "layer.json",
                     "preds.jsonl", "evidence.jsonl", "report.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_inputs_not_mutated(self, fixtures_dir, tmp_path):
        before = {p.name: p.read_bytes()
                  for p in (fixtures_dir / "corpus").iterdir()}
        run_pipeline(fixtures_dir / "corpus", tmp_path)
        after = {p.name: p.read_bytes()
                 for p in (fixtures_dir / "corpus").iterdir()}
        assert before == after

    def test_majority_vote_mode(self, fixtures_dir, tmp_path):
        run_pipeline(fixtures_dir / "corpus", tmp_path)
        w = str(tmp_path)
        assert run(["predict", f"{w}/scores.jsonl", "--layer", f"{w}/layer.json",
                    "--out", f"{w}/preds_mv.jsonl", "--majority"]) == 0
        labels = {json.loads(line)["label"]
                  for line in open(f"{w}/preds_mv.jsonl")}
        assert labels <= {"entailed", "refuted", "unknown"}

    def test_evidence_without_labels(self, pipeline_dir, tmp_path, capsys):
        assert run(["evidence", f"{pipeline_dir}/corpus.jsonl", f"{tmp_path}/e.jsonl"]) == 2
        assert capsys.readouterr().err == (
            "error: evidence requires a predictions file or --use-gold-taskA\n")
        assert not (tmp_path / "e.jsonl").exists()

    @pytest.mark.parametrize("predictions", [None, "not json\n"], ids=["missing", "garbage"])
    def test_evidence_with_predictions_and_gold_labels(self, pipeline_dir, tmp_path, capsys,
                                                       predictions):
        """The gold labels would be used and the predictions file ignored."""
        preds = tmp_path / "preds.jsonl"
        if predictions is not None:
            preds.write_text(predictions)
        assert run(["evidence", f"{pipeline_dir}/corpus.jsonl", str(preds),
                    f"{tmp_path}/e.jsonl", "--use-gold-taskA"]) == 2
        assert capsys.readouterr().err == (
            "error: evidence requires a predictions file or --use-gold-taskA, not both\n")
        assert not (tmp_path / "e.jsonl").exists()

    def test_score_without_inputs(self, pipeline_dir, tmp_path, capsys):
        assert run(["score", "--corpus", f"{pipeline_dir}/corpus.jsonl",
                    "--out", f"{tmp_path}/report.json"]) == 2
        assert capsys.readouterr().err == "error: score requires --preds or --evidence\n"
        assert not list(tmp_path.iterdir())

    def test_evidence_with_gold_labels(self, fixtures_dir, tmp_path):
        run_pipeline(fixtures_dir / "corpus", tmp_path)
        w = str(tmp_path)
        assert run(["evidence", f"{w}/corpus.jsonl", f"{w}/evidence_gold.jsonl",
                    "--use-gold-taskA"]) == 0
        assert run(["score", "--corpus", f"{w}/corpus.jsonl",
                    "--evidence", f"{w}/evidence_gold.jsonl",
                    "--out", f"{w}/report_gold.json"]) == 0
        report = json.loads((tmp_path / "report_gold.json").read_text())
        # gold entailed statements short-circuit to all-relevant: recall 1
        assert report["task_b"]["overall"] > 0

    def test_micro_flag(self, fixtures_dir, tmp_path):
        run_pipeline(fixtures_dir / "corpus", tmp_path)
        w = str(tmp_path)
        assert run(["score", "--corpus", f"{w}/corpus.jsonl",
                    "--preds", f"{w}/preds.jsonl", "--micro",
                    "--out", f"{w}/report_micro.json"]) == 0
        micro = json.loads((tmp_path / "report_micro.json").read_text())
        assert 0 <= micro["task_a"]["overall_3way"] <= 1



SCORE_PREDS = ["score", "--corpus", "{w}/corpus.jsonl", "--preds", "{w}/preds.jsonl",
               "--out", "{w}/report2.json"]
STATS = ["stats", "{w}/corpus.jsonl"]
BASELINE = ["baseline", "{w}/corpus.jsonl", "{w}/snapshots.jsonl", "{w}/scores2.jsonl"]
PREDICT = ["predict", "{w}/scores.jsonl", "--layer", "{w}/layer.json",
           "--out", "{w}/preds2.jsonl"]
EVIDENCE = ["evidence", "{w}/corpus.jsonl", "{w}/preds.jsonl", "{w}/evidence2.jsonl"]
SCORE_EVIDENCE = ["score", "--corpus", "{w}/corpus.jsonl", "--evidence", "{w}/evidence.jsonl",
                  "--out", "{w}/report2.json"]


def set_field(name, value):
    return lambda line: json.dumps({**json.loads(line), name: value})


def set_first_evidence(cells):
    def rewrite(line):
        record = json.loads(line)
        record["statements"][0]["evidence"] = [cells]
        return json.dumps(record)
    return rewrite


def set_cell(row, col, value):
    def rewrite(line):
        record = json.loads(line)
        record["grid"][row][col] = value
        return json.dumps(record)
    return rewrite


DEEP_JSON = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"

# Rewrites of corpus line 1 (table t1, 4x3) that every corpus reader rejects,
# with the reason it gives.
BAD_CORPUS_LINE = {
    "grid-type": (set_field("grid", 5), "field 'grid' must be list of list, got 5"),
    "header-rows-type": (set_field("header_rows", "1"),
                         "field 'header_rows' must be int, got '1'"),
    "header-rows-bool": (set_field("header_rows", True),
                         "field 'header_rows' must be int, got True"),
    "statements-null": (set_field("statements", None),
                        "field 'statements' must be list of dict, got None"),
    "evidence-cell-bool": (set_first_evidence([[True, 0]]),
                           "statement 's1' evidence cell (True, 0) out of bounds"),
    "evidence-cell-list": (set_first_evidence([[[0], 1]]),
                           "statement 's1' evidence cell ([0], 1) out of bounds"),
    "evidence-cell-triple": (set_first_evidence([[0, 1, 2]]),
                             "too many values to unpack (expected 2)"),
    "evidence-cell-single": (set_first_evidence([[0]]),
                             "not enough values to unpack (expected 2, got 1)"),
    "evidence-cell-int": (set_first_evidence([5]), "cannot unpack non-iterable int object"),
    "cell-not-string": (set_cell(1, 2, 7), "sequence item 2: expected str instance, int found"),
    "evidence-cell-past-last-column": (set_first_evidence([[0, 3]]),
                                       "statement 's1' evidence cell (0, 3) out of bounds"),
    "evidence-cell-past-last-row": (set_first_evidence([[4, 0]]),
                                    "statement 's1' evidence cell (4, 0) out of bounds"),
    "format-version": (set_field("format_version", 2), "unsupported interchange version: 2"),
    "nested-too-deep": (lambda line: "[" * 100_000, DEEP_JSON),
}


def bad_corpus_line(case):
    rewrite, reason = BAD_CORPUS_LINE[case]
    return ("corpus.jsonl", 1, rewrite, STATS, "{w}/corpus.jsonl:1: " + reason)


def not_body_rows(rows):
    """Snapshot line 1 selecting ``rows``, with ``k`` kept at their count."""
    return ("snapshots.jsonl", 1,
            lambda line: set_field("k", len(rows))(set_field("rows", rows)(line)), BASELINE,
            f"{{w}}/snapshots.jsonl:1: snapshot rows {rows} for table 't1' statement 's1' "
            "are not body rows")


def missing_model(argv):
    """The first statement scored by a second model only, 'other'."""
    return ("scores.jsonl", 1, set_field("model", "other"), argv,
            "{w}/scores.jsonl: missing scores from model 'lexical' for (t1, s1)")


class TestJsonlBoundary:
    @pytest.mark.parametrize("name, lineno, rewrite, argv, message", [
        ("snapshots.jsonl", 6, lambda line: "",
         ["baseline", "{w}/corpus.jsonl", "{w}/snapshots.jsonl", "{w}/scores2.jsonl"],
         "{w}/snapshots.jsonl: no record for ('t2', 's3')"),
        ("preds.jsonl", 2,
         lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "label"}),
         SCORE_PREDS, "{w}/preds.jsonl:2: missing field 'label'"),
        ("preds.jsonl", 2, lambda line: line.replace("}", ""),
         SCORE_PREDS, "{w}/preds.jsonl:2: invalid JSON"),
        ("preds.jsonl", 2, lambda line: line + "\n" + line.replace("refuted", "entailed"),
         SCORE_PREDS, "{w}/preds.jsonl:3: duplicate record for ('t1', 's2')"),
        ("snapshots.jsonl", 2, lambda line: line + "\n" + line,
         ["baseline", "{w}/corpus.jsonl", "{w}/snapshots.jsonl", "{w}/scores2.jsonl"],
         "{w}/snapshots.jsonl:3: duplicate record for ('t1', 's2')"),
        ("evidence.jsonl", 2, lambda line: line + "\n" + line,
         ["score", "--corpus", "{w}/corpus.jsonl", "--evidence", "{w}/evidence.jsonl",
          "--out", "{w}/report2.json"],
         "{w}/evidence.jsonl:3: duplicate record for ('t1', 's2')"),
        ("corpus.jsonl", 1, lambda line: line + "\n" + line,
         SCORE_PREDS, "{w}/corpus.jsonl:2: duplicate table_id 't1'"),
        bad_corpus_line("grid-type"),
        bad_corpus_line("header-rows-type"),
        bad_corpus_line("statements-null"),
        ("corpus.jsonl", 2, lambda line: "[1]", STATS,
         "{w}/corpus.jsonl:2: expected a JSON object, got [1]"),
        ("scores.jsonl", 1, set_field("scores", 5), PREDICT,
         "{w}/scores.jsonl:1: field 'scores' must be list, got 5"),
        ("scores.jsonl", 1, set_field("scores", ["a", "b", "c"]), PREDICT,
         "{w}/scores.jsonl:1: scores must be finite numbers, got ('a', 'b', 'c')"),
        ("scores.jsonl", 1, set_field("stmt_id", 7), PREDICT,
         "{w}/scores.jsonl:1: field 'stmt_id' must be str, got 7"),
        ("scores.jsonl", 1, lambda line: line + "\n" + line, PREDICT,
         "{w}/scores.jsonl:2: duplicate record for ('lexical', 't1', 's1')"),
        ("preds.jsonl", 2, lambda line: "", EVIDENCE,
         "{w}/preds.jsonl: no record for ('t1', 's2')"),
        not_body_rows([-1]),
        not_body_rows([0]),
        not_body_rows([999]),
        ("preds.jsonl", 2, lambda line: "", SCORE_PREDS,
         "{w}/preds.jsonl: no record for ('t1', 's2')"),
        ("evidence.jsonl", 2, lambda line: "", SCORE_EVIDENCE,
         "{w}/evidence.jsonl: no record for ('t1', 's2')"),
        ("evidence.jsonl", 1, lambda line: set_field("n_cols", 6)(set_field("n_rows", 2)(line)),
         SCORE_EVIDENCE, "{w}/evidence.jsonl:1: evidence grid for ('t1', 's1') is 2x6, "
         "table is 4x3"),
        ("scores.jsonl", 1, lambda line: line, ["predict", "{w}/scores.jsonl", *PREDICT[1:]],
         "{w}/scores.jsonl:1: duplicate record for ('lexical', 't1', 's1')"),
        bad_corpus_line("header-rows-bool"),
        ("snapshots.jsonl", 1, set_field("rows", [True]), BASELINE,
         "{w}/snapshots.jsonl:1: field 'rows' must be list of int, got [True]"),
        ("scores.jsonl", 1, set_field("scores", [True, False, 0]), PREDICT,
         "{w}/scores.jsonl:1: scores must be finite numbers, got (True, False, 0)"),
        bad_corpus_line("evidence-cell-bool"),
        missing_model(PREDICT),
        missing_model([*PREDICT, "--majority"]),
        missing_model(["ensemble-train", "{w}/scores.jsonl", "--corpus", "{w}/corpus.jsonl",
                       "--out", "{w}/layer2.json"]),
        ("scores.jsonl", 1, lambda line: "",
         ["ensemble-train", "{w}/scores.jsonl", "--corpus", "{w}/corpus.jsonl",
          "--out", "{w}/layer2.json"],
         "{w}/scores.jsonl: no record for ('t1', 's1')"),
        ("snapshots.jsonl", 1, set_field("k", 99), BASELINE,
         "{w}/snapshots.jsonl:1: field 'k' is 99, but 'rows' holds 3 rows"),
        ("evidence.jsonl", 1, set_field("relevant_rle", [1]), SCORE_EVIDENCE,
         "{w}/evidence.jsonl:1: run lengths sum to 1, expected 12"),
        ("evidence.jsonl", 1, set_field("relevant_rle", [13, -1]), SCORE_EVIDENCE,
         "{w}/evidence.jsonl:1: negative run length -1"),
        ("scores.jsonl", 1, lambda line: "[" * 100_000, PREDICT,
         "{w}/scores.jsonl:1: " + DEEP_JSON),
    ], ids=["missing-snapshot", "missing-field", "invalid-json", "duplicate-prediction",
            "duplicate-snapshot", "duplicate-evidence", "duplicate-table",
            "grid-type", "header-rows-type", "statements-null", "corpus-line-not-object",
            "scores-type", "score-item-type", "score-id-type", "duplicate-score",
            "missing-prediction", "snapshot-row-negative", "snapshot-row-header",
            "snapshot-row-past-end", "score-missing-prediction", "score-missing-evidence",
            "score-evidence-shape", "duplicate-score-across-files", "header-rows-bool",
            "snapshot-row-bool", "scores-bool", "evidence-cell-bool",
            "score-missing-model", "score-missing-model-majority",
            "score-missing-model-train", "train-unscored-statement", "snapshot-k-not-row-count",
            "evidence-runs-short", "evidence-run-negative", "score-line-nested-too-deep"])
    def test_bad_record_reports_location(self, fixtures_dir, tmp_path, capsys,
                                         name, lineno, rewrite, argv, message):
        run_pipeline(fixtures_dir / "corpus", tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[lineno - 1] = rewrite(lines[lineno - 1])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run([arg.format(w=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(w=tmp_path)), err

    @pytest.mark.parametrize("argv", [
        ["stats", "{c}", "--out", "{o}/stats.json"],
        ["ensemble-train", "{w}/scores.jsonl", "--corpus", "{c}", "--out", "{o}/layer.json"],
        ["score", "--corpus", "{c}", "--preds", "{w}/preds.jsonl",
         "--evidence", "{w}/evidence.jsonl", "--out", "{o}/report.json"],
    ], ids=["stats", "ensemble-train", "score"])
    @pytest.mark.parametrize("case", sorted(BAD_CORPUS_LINE))
    def test_statement_read_keeps_every_check(self, pipeline_dir, tmp_path, capsys,
                                              case, argv):
        """`ensemble-train` and `score`, which keep no cell text, reject a
        bad corpus line as `stats` does, with the same error line."""
        rewrite, reason = BAD_CORPUS_LINE[case]
        lines = (pipeline_dir / "corpus.jsonl").read_text().splitlines()
        lines[0] = rewrite(lines[0])
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run([arg.format(c=path, w=pipeline_dir, o=out) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {path}:1: {reason}\n"
        assert not list(out.iterdir())

    @pytest.mark.parametrize("rewrite, message", [
        (lambda layer: json.dumps(layer)[:-1], "invalid JSON: "),
        (lambda layer: json.dumps({k: v for k, v in layer.items() if k != "weights"}),
         "missing field 'weights'"),
        (lambda layer: json.dumps({k: v for k, v in layer.items() if k != "model_names"}),
         "missing field 'model_names'"),
        (lambda layer: json.dumps({k: v for k, v in layer.items() if k != "bias"}),
         "missing field 'bias'"),
        (lambda layer: json.dumps({**layer, "model_names": []}), "at least one model required"),
        (lambda layer: json.dumps({**layer, "model_names": ["lexical", "lexical"],
                                   "weights": [row * 2 for row in layer["weights"]]}),
         "model names repeat: ['lexical', 'lexical']"),
        (lambda layer: json.dumps({**layer, "bias": [0.0, float("nan"), 0.0]}),
         "non-finite layer parameters"),
        (lambda layer: "[" * 100_000, DEEP_JSON),
    ], ids=["invalid-json", "missing-weights", "missing-model-names", "missing-bias",
            "no-models", "repeated-model", "nan-bias", "nested-too-deep"])
    def test_bad_layer_file_reports_path(self, fixtures_dir, tmp_path, capsys,
                                         rewrite, message):
        run_pipeline(fixtures_dir / "corpus", tmp_path)
        layer = tmp_path / "layer.json"
        layer.write_text(rewrite(json.loads(layer.read_text())))
        capsys.readouterr()
        assert run(["predict", f"{tmp_path}/scores.jsonl", "--layer", str(layer),
                    "--out", f"{tmp_path}/preds2.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {layer}: {message}"), err


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One fixture pipeline run, shared read-only by the module's fuzz test."""
    return run_pipeline(FIXTURES / "corpus", tmp_path_factory.mktemp("pipeline"))


# Each pipeline file and the subcommands that read it; {w} is the pipeline
# directory and {o} a fresh directory holding the mutated file and outputs.
READERS = {
    "corpus.jsonl": [
        ["stats", "{w}/corpus.jsonl"],
        ["augment", "{w}/corpus.jsonl", "{o}/augmented.jsonl", "--seed", "7"],
        ["snapshot", "{w}/corpus.jsonl", "{o}/snapshots.jsonl"],
        ["baseline", "{w}/corpus.jsonl", "{w}/snapshots.jsonl", "{o}/scores.jsonl"],
        ["ensemble-train", "{w}/scores.jsonl", "--corpus", "{w}/corpus.jsonl",
         "--out", "{o}/layer.json"],
        ["evidence", "{w}/corpus.jsonl", "{w}/preds.jsonl", "{o}/evidence.jsonl"],
        ["score", "--corpus", "{w}/corpus.jsonl", "--preds", "{w}/preds.jsonl",
         "--evidence", "{w}/evidence.jsonl", "--out", "{o}/report.json"]],
    "snapshots.jsonl": [
        ["baseline", "{w}/corpus.jsonl", "{w}/snapshots.jsonl", "{o}/scores.jsonl"]],
    "scores.jsonl": [
        ["ensemble-train", "{w}/scores.jsonl", "--corpus", "{w}/corpus.jsonl",
         "--out", "{o}/layer.json"],
        ["predict", "{w}/scores.jsonl", "--layer", "{w}/layer.json",
         "--out", "{o}/preds.jsonl"]],
    "layer.json": [
        ["predict", "{w}/scores.jsonl", "--layer", "{w}/layer.json",
         "--out", "{o}/preds.jsonl"]],
    "preds.jsonl": [
        ["evidence", "{w}/corpus.jsonl", "{w}/preds.jsonl", "{o}/evidence.jsonl"],
        ["score", "--corpus", "{w}/corpus.jsonl", "--preds", "{w}/preds.jsonl",
         "--out", "{o}/report.json"]],
    "evidence.jsonl": [
        ["score", "--corpus", "{w}/corpus.jsonl", "--evidence", "{w}/evidence.jsonl",
         "--out", "{o}/report.json"]],
}

_scalars = (st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats()
            | st.text(max_size=8))
# One strategy per JSON value type; integers and fractional numbers count apart.
JSON_VALUES = {
    type(None): st.none(), bool: st.booleans(), int: st.integers(-10**6, 10**6),
    float: st.floats(), str: st.text(max_size=8),
    list: st.lists(_scalars, max_size=3),
    dict: st.dictionaries(st.text(max_size=4), _scalars, max_size=3),
}


class TestMutatedInputs:
    # Each example runs a whole subcommand; on a loaded machine the input
    # draws alone can exceed Hypothesis' too_slow budget, which says nothing
    # about the subcommand under test.
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_zero_or_reported(self, pipeline_dir, tmp_path_factory, data):
        """One field of one record set to a value of another type: the
        subcommand reading the file succeeds or reports `error: <path>`, a
        path it was given, with exit 2, and never raises."""
        name = data.draw(st.sampled_from(sorted(READERS)), "file")
        argv = data.draw(st.sampled_from(READERS[name]), "argv")
        text = (pipeline_dir / name).read_text()
        lines = [text] if name.endswith(".json") else text.splitlines()
        lineno = data.draw(st.integers(0, len(lines) - 1), "line")
        record = json.loads(lines[lineno])
        field = data.draw(st.sampled_from(sorted(record)), "field")
        kind = data.draw(st.sampled_from(
            [k for k in JSON_VALUES if k is not type(record[field])]), "type")
        record[field] = data.draw(JSON_VALUES[kind], "value")
        lines[lineno] = json.dumps(record)

        out = tmp_path_factory.mktemp("mutated")
        (out / name).write_text("\n".join(lines) + "\n")
        argv = [arg.format(w=pipeline_dir, o=out) for arg in argv]
        argv = [str(out / name) if arg == f"{pipeline_dir}/{name}" else arg for arg in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
        paths = tuple(f"error: {arg}:" for arg in argv
                      if arg.startswith((str(pipeline_dir), str(out))))
        assert code == 0 or (code == 2 and stderr.getvalue().startswith(paths)), \
            (code, stderr.getvalue())


def documents_alive():
    gc.collect()
    return sum(isinstance(obj, TableDocument) for obj in gc.get_objects())


def documents_alive_at(monkeypatch, calls):
    """The list that gets the number of TableDocuments alive at each call of
    each ``(module, name)`` of ``calls``; a corpus read as a list fails."""
    def refuse(path):
        raise AssertionError("the corpus was read as a list")
    monkeypatch.setattr("tabverify.corpus.read_corpus", refuse)
    alive = []
    for module, name in calls:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, fn=fn: alive.append(documents_alive()) or fn(*args))
    return alive


class TestStatementRead:
    def test_train_and_score_hold_no_document(self, pipeline_dir, fixtures_dir, tmp_path,
                                              monkeypatch):
        """`stats`, `ensemble-train` and `score` hold no TableDocument, grid
        and all, while they count, train and score, and write the frozen
        outputs."""
        alive = documents_alive_at(monkeypatch, [
            (corpus, "corpus_stats"), (ensemble, "train"),
            (scoring, "score_task_a"), (scoring, "score_task_b")])
        before = documents_alive()
        w = pipeline_dir
        assert run(["stats", f"{w}/corpus.jsonl", "--out", f"{tmp_path}/stats.json"]) == 0
        assert run(["ensemble-train", f"{w}/scores.jsonl", "--corpus", f"{w}/corpus.jsonl",
                    "--out", f"{tmp_path}/layer.json"]) == 0
        assert run(["score", "--corpus", f"{w}/corpus.jsonl", "--preds", f"{w}/preds.jsonl",
                    "--evidence", f"{w}/evidence.jsonl", "--out", f"{tmp_path}/report.json"]) == 0
        assert alive == [before] * 4
        for name in ["stats.json", "layer.json", "report.json"]:
            assert ((tmp_path / name).read_bytes()
                    == (fixtures_dir / "expected" / name).read_bytes()), name

    def test_streamed_stages_hold_one_document(self, pipeline_dir, fixtures_dir, tmp_path,
                                               monkeypatch):
        """`snapshot`, `baseline` and `evidence` hold one TableDocument at a
        time while they select, score and find evidence, and write the
        frozen outputs."""
        alive = documents_alive_at(monkeypatch, [
            (snapshot, "select_snapshot"), (classify, "lexical_baseline"),
            (evidence, "find_evidence")])
        before = documents_alive()
        w, o = pipeline_dir, tmp_path
        assert run(["snapshot", f"{w}/corpus.jsonl", f"{o}/snapshots.jsonl"]) == 0
        assert run(["baseline", f"{w}/corpus.jsonl", f"{w}/snapshots.jsonl",
                    f"{o}/scores.jsonl"]) == 0
        assert run(["evidence", f"{w}/corpus.jsonl", f"{w}/preds.jsonl",
                    f"{o}/evidence.jsonl"]) == 0
        assert alive and max(alive) == before + 1
        for name in ["snapshots.jsonl", "scores.jsonl", "evidence.jsonl"]:
            assert ((tmp_path / name).read_bytes()
                    == (fixtures_dir / "expected" / name).read_bytes()), name

    def test_pipeline_reads_corpus_through_one_reader(self, fixtures_dir, tmp_path,
                                                      monkeypatch):
        """Every stage read of the corpus is an `iter_corpus` stream, and
        `augment` alone lists it, through `read_corpus`, which streams it
        too.  `snapshot` and `baseline` stream it twice: a first pass for
        the body rows, then the documents."""
        reads = []

        def listing(path):
            reads.append("list")
            return read_corpus(path)

        def streaming(path):
            reads.append("stream")
            return iter_corpus(path)
        monkeypatch.setattr("tabverify.corpus.read_corpus", listing)
        monkeypatch.setattr("tabverify.corpus.iter_corpus", streaming)
        run_pipeline(fixtures_dir / "corpus", tmp_path)
        assert reads == ["stream",  # stats
                         "list", "stream",  # augment
                         "stream", "stream",  # snapshot
                         "stream", "stream",  # baseline
                         "stream",  # ensemble-train
                         "stream",  # evidence
                         "stream"]  # score

    def test_train_holds_no_statement(self, pipeline_dir, tmp_path, monkeypatch):
        """`ensemble-train` keeps only the gold labels while it trains."""
        def statements_alive():
            gc.collect()
            return sum(isinstance(obj, Statement) for obj in gc.get_objects())

        train, alive = ensemble.train, []
        monkeypatch.setattr(ensemble, "train",
                            lambda *args: alive.append(statements_alive()) or train(*args))
        before = statements_alive()
        w = pipeline_dir
        assert run(["ensemble-train", f"{w}/scores.jsonl", "--corpus", f"{w}/corpus.jsonl",
                    "--out", f"{tmp_path}/layer.json"]) == 0
        assert alive == [before]


class TestEvidenceShape:
    @pytest.mark.parametrize("table_id, code, message", [
        ("t1", 2, "error: {e}:1: evidence grid for ('t1', 's1') is 1000000x1, table is 4x3\n"),
        ("not-in-corpus", 0, ""),
    ], ids=["shape-mismatch", "table-outside-corpus"])
    def test_huge_claim_is_not_decoded(self, pipeline_dir, tmp_path, capsys,
                                       table_id, code, message):
        """A record claiming a 1,000,000x1 grid is checked against its corpus
        table, or skipped when the corpus lacks that table, before decoding."""
        lines = (pipeline_dir / "evidence.jsonl").read_text().splitlines()
        claim = json.dumps({**json.loads(lines[0]), "table_id": table_id,
                            "n_rows": 1_000_000, "n_cols": 1, "relevant_rle": [1_000_000]})
        lines = [claim] + lines[1:] if table_id == "t1" else lines + [claim]
        path = tmp_path / "evidence.jsonl"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert run(["score", "--corpus", f"{pipeline_dir}/corpus.jsonl",
                        "--evidence", str(path), "--out", f"{tmp_path}/report.json"]) == code
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == message.format(e=path)
        assert peak < 1_000_000, peak

    def test_each_corpus_record_is_decoded_once_as_read(self, pipeline_dir, tmp_path,
                                                         monkeypatch):
        """`score` decodes each record of a corpus table once, while it reads
        the file and before Task B scores anything, and never a record of a
        table outside the corpus."""
        lines = (pipeline_dir / "evidence.jsonl").read_text().splitlines()
        outside = json.dumps({**json.loads(lines[0]), "table_id": "not-in-corpus"})
        path = tmp_path / "evidence.jsonl"
        path.write_text("\n".join(lines + [outside]) + "\n")
        decode, decoded, before_scoring = evidence.rle_decode, [], []
        monkeypatch.setattr(evidence, "rle_decode",
                            lambda *args: decoded.append(args) or decode(*args))
        score_task_b = scoring.score_task_b
        monkeypatch.setattr(scoring, "score_task_b", lambda *args: before_scoring.append(
            len(decoded)) or score_task_b(*args))
        assert run(["score", "--corpus", f"{pipeline_dir}/corpus.jsonl",
                    "--evidence", str(path), "--out", f"{tmp_path}/report.json"]) == 0
        records = [json.loads(line) for line in lines]
        assert decoded == [(r["relevant_rle"], r["n_rows"], r["n_cols"]) for r in records]
        assert before_scoring == [len(records)]


XML_ATTRIBUTE = re.compile(r'(\w+)="[^"]*"')
# Empty, negative, non-numeric, fractional, huge (past int()'s digit limit
# too) and non-ASCII values; hypothesis adds arbitrary text.
HOSTILE = ["", "-1", "-99999", "x", "1.5", "0x1f", " 2 ", "9" * 40, "9" * 5000,
           "\u0663", "\u00e9", "\u2603"]


class TestMutatedXml:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_zero_or_one(self, tmp_path_factory, data):
        """One attribute of one fixture XML file set to a hostile value:
        `parse` exits 0 or 1, never raises, and writes every other table."""
        files = sorted((FIXTURES / "corpus").glob("*.xml"))
        target = data.draw(st.sampled_from(files), "file")
        text = target.read_text("utf-8")
        attr = data.draw(st.sampled_from(list(XML_ATTRIBUTE.finditer(text))), "attribute")
        value = data.draw(st.sampled_from(HOSTILE) | st.text(
            st.characters(blacklist_categories=("Cs",)), max_size=8), "value")

        src = tmp_path_factory.mktemp("xml")
        for path in files:
            shutil.copy(path, src / path.name)
        (src / target.name).write_text(
            f"{text[:attr.start()]}{attr[1]}={quoteattr(value)}{text[attr.end():]}", "utf-8")
        out = src / "corpus.jsonl"
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            code = run(["parse", str(src), str(out)])
        assert code in (0, 1)
        # bytes.splitlines, unlike str.splitlines, does not split at U+0085 or U+2028
        ids = [json.loads(line)["table_id"] for line in out.read_bytes().splitlines()]
        # the mutated table is written exactly when parse exits 0
        assert len(ids) == len(files) - code
        assert {parse_xml(p.read_bytes()).table_id for p in files if p != target} <= set(ids)


ABBREVS = pathlib.Path(cli.__file__).parent / "data" / "abbreviations.tsv"
# Every subcommand with every option given; {w} is the pipeline directory, {o}
# a fresh output directory.
EVERY_OPTION = [
    ["parse", str(FIXTURES / "corpus"), "{o}/corpus.jsonl"],
    ["stats", "{w}/corpus.jsonl", "--out", "{o}/stats.json"],
    ["augment", "{w}/corpus.jsonl", "{o}/augmented.jsonl", "--external", "{w}/corpus.jsonl",
     "--seed", "3", "--ratio", "0.25", "--guard-threshold", "0.4", "--abbrev-file", str(ABBREVS)],
    ["snapshot", "{w}/corpus.jsonl", "{o}/snapshots.jsonl", "--rows-R", "2", "--ngrams", "1",
     "--abbrev-file", str(ABBREVS)],
    ["baseline", "{w}/corpus.jsonl", "{w}/snapshots.jsonl", "{o}/scores.jsonl", "--ngrams", "1",
     "--abbrev-file", str(ABBREVS), "--model-name", "lex2"],
    ["ensemble-train", "{w}/scores.jsonl", "--corpus", "{w}/corpus.jsonl",
     "--out", "{o}/layer.json", "--lr", "0.2", "--epochs", "5", "--l2", "0.01"],
    ["predict", "{w}/scores.jsonl", "--layer", "{w}/layer.json", "--out", "{o}/preds.jsonl",
     "--majority"],
    ["evidence", "{w}/corpus.jsonl", "{o}/evidence.jsonl",
     "--use-gold-taskA", "--abbrev-file", str(ABBREVS), "--trace"],
    ["score", "--corpus", "{w}/corpus.jsonl", "--preds", "{w}/preds.jsonl",
     "--evidence", "{w}/evidence.jsonl", "--out", "{o}/report.json", "--micro"],
]
# Options the manifest records as resolved from the input, not as parsed.
RESOLVED = {"rows_r", "ngrams"}


class TestManifest:
    @pytest.mark.parametrize("argv", EVERY_OPTION, ids=[argv[0] for argv in EVERY_OPTION])
    def test_records_every_parsed_option(self, pipeline_dir, tmp_path, capsys, argv):
        argv = [arg.format(w=pipeline_dir, o=tmp_path) for arg in argv]
        args = cli.build_parser().parse_args(argv)
        assert run(argv) == 0
        manifest = json.loads(pathlib.Path(args.out + ".manifest.json").read_text())
        assert manifest["subcommand"] == argv[0]
        parsed = {k: v for k, v in vars(args).items() if k not in ("fn", "command")}
        options = manifest["options"]
        assert set(parsed) <= set(options), set(parsed) - set(options)
        assert {k: options[k] for k in parsed if k not in RESOLVED} == \
            {k: v for k, v in parsed.items() if k not in RESOLVED}
        assert manifest["tool_version"] == tabverify.__version__

    def test_cli_import_does_not_load_package_metadata(self, fixtures_dir):
        """The version comes from the package, so importing the CLI does not
        load ``importlib.metadata`` (its import and distribution scan cost
        every stage process tens of milliseconds)."""
        code = ("import sys; before = 'importlib.metadata' in sys.modules; "
                "import tabverify.cli; print(before, 'importlib.metadata' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(fixtures_dir.parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before, proc.stdout

    def test_cli_import_does_not_load_the_xml_parser(self, fixtures_dir):
        """Only ``parse`` reads XML, so importing the CLI loads neither
        ElementTree nor ``pyexpat`` (about 0.4 MB of every other stage's peak)."""
        code = ("import sys; import tabverify.cli; "
                "print(*[m in sys.modules for m in ('xml.etree.ElementTree', 'pyexpat')])")
        env = dict(os.environ, PYTHONPATH=str(fixtures_dir.parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]


class TestFixtureScript:
    @pytest.mark.parametrize("hash_seed", ["0", "3"])
    def test_reproduces_frozen_reports(self, fixtures_dir, tmp_path, hash_seed):
        """scripts/run_fixture_pipeline.py, as the README runs it, writes
        every one of its outputs, as frozen, into a fresh directory under
        TMPDIR, whatever the hash seed."""
        root = fixtures_dir.parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=hash_seed,
                   TMPDIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_fixture_pipeline.py")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        [workdir] = tmp_path.iterdir()
        assert proc.stdout.splitlines()[-1] == f"report: {workdir / 'report.json'}"
        for name in ["corpus.jsonl", "stats.json", "augmented.jsonl", "snapshots.jsonl",
                     "scores.jsonl", "layer.json", "preds.jsonl", "evidence.jsonl",
                     "report.json"]:
            assert ((workdir / name).read_bytes()
                    == (fixtures_dir / "expected" / name).read_bytes()), name


class TestScoreCoverage:
    """The score files must hold the models of the layer; scores of
    statements outside the training corpus are ignored with a warning."""

    @pytest.mark.parametrize("majority", [[], ["--majority"]], ids=["layer", "majority"])
    def test_predict_models_differ_from_layer(self, pipeline_dir, tmp_path, capsys, majority):
        other = tmp_path / "other.jsonl"
        other.write_text((pipeline_dir / "scores.jsonl").read_text()
                         .replace('"model": "lexical"', '"model": "other"'))
        layer = pipeline_dir / "layer.json"
        assert run(["predict", str(other), "--layer", str(layer),
                    "--out", f"{tmp_path}/preds.jsonl", *majority]) == 2
        assert capsys.readouterr().err == (
            f"error: {layer}: layer models ['lexical'] are not the models ['other'] "
            f"of {other}\n")
        assert not (tmp_path / "preds.jsonl").exists()

    def test_train_ignores_statements_outside_corpus(self, pipeline_dir, tmp_path, caplog):
        lines = (pipeline_dir / "scores.jsonl").read_text().splitlines()
        extra = [json.dumps({**json.loads(lines[0]), "table_id": f"zz{i}"}) for i in range(2)]
        scores = tmp_path / "scores.jsonl"
        scores.write_text("\n".join(lines + extra) + "\n")
        corpus = f"{pipeline_dir}/corpus.jsonl"
        assert run(["ensemble-train", str(scores), "--corpus", corpus,
                    "--out", f"{tmp_path}/layer.json"]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            f"{scores}: ignored the scores of 2 statement(s) not in {corpus}"]
        assert ((tmp_path / "layer.json").read_bytes()
                == (pipeline_dir / "layer.json").read_bytes())

    def test_colliding_report_keys_name_the_corpus(self, tmp_path, capsys):
        """Tables "a/b" and "a" with statements "c" and "b/c" would both be
        reported as "a/b/c"; both ids come from the corpus."""
        src = tmp_path / "xml"
        src.mkdir()
        for name, table_id, stmt_id in (("1.xml", "a/b", "c"), ("2.xml", "a", "b/c")):
            (src / name).write_text(
                f'<document><table id="{table_id}"><row><cell text="h"/></row>'
                f'<row><cell text="x"/></row><statements><statement id="{stmt_id}" '
                'text="x" type="entailed"><evidence><cell row="1" col="0"/></evidence>'
                '</statement></statements></table></document>')
        corpus, ev = f"{tmp_path}/corpus.jsonl", f"{tmp_path}/ev.jsonl"
        assert run(["parse", str(src), corpus]) == 0
        assert run(["evidence", corpus, ev, "--use-gold-taskA"]) == 0
        assert run(["score", "--corpus", corpus, "--evidence", ev,
                    "--out", f"{tmp_path}/report.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: {corpus}: statement ('a', 'b/c') and an earlier one share "
            "the key 'a/b/c'\n")


class TestBadOptions:
    @pytest.mark.parametrize("option, message", [
        (["--lr", "nan"], "learning_rate must be finite and > 0"),
        (["--lr", "inf"], "learning_rate must be finite and > 0"),
        (["--l2", "nan"], "l2 must be finite and >= 0"),
        (["--lr", "1e308"], "non-finite loss at epoch 1"),
    ], ids=["lr-nan", "lr-inf", "l2-nan", "lr-diverges"])
    def test_ensemble_train(self, pipeline_dir, tmp_path, capsys, option, message):
        assert run(["ensemble-train", f"{pipeline_dir}/scores.jsonl",
                    "--corpus", f"{pipeline_dir}/corpus.jsonl",
                    "--out", f"{tmp_path}/layer.json", *option]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_baseline_empty_model_name(self, tmp_path, capsys):
        """Every reader of a score file rejects an empty model name, so
        `baseline` does, before it reads its inputs (here missing): the old
        output stays."""
        out = tmp_path / "scores.jsonl"
        out.write_bytes(b"old\n")
        assert run(["baseline", f"{tmp_path}/corpus.jsonl", f"{tmp_path}/snapshots.jsonl",
                    str(out), "--model-name", ""]) == 2
        assert capsys.readouterr().err == "error: model name must be non-empty\n"
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == b"old\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_augment_guard_threshold_not_finite(self, pipeline_dir, tmp_path, capsys,
                                                threshold):
        assert run(["augment", f"{pipeline_dir}/corpus.jsonl", f"{tmp_path}/augmented.jsonl",
                    "--seed", "7", f"--guard-threshold={threshold}"]) == 2
        assert capsys.readouterr().err == (
            f"error: guard_threshold must be finite, got {float(threshold)}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text, lineno, reason", [
        ("justoneword\n", 1, "expected 'abbrev<TAB>full form', got 'justoneword'"),
        ("# comment\navg\taverage\nno\tno more\n", 3, "abbreviation 'no' expands to itself"),
        ("No\tnumber\n", 1, "abbreviation key must be one lowercase token: 'No'"),
        ("\ufeffavg\taverage\n", 1, "abbreviation key must be one lowercase token: '\\ufeffavg'"),
        ("avg\taverage\ne.g.\tfor example\n", 2,
         "abbreviation key must be one lowercase token: 'e.g.'"),
        ("\navg\t--\n", 2, "empty expansion for 'avg'"),
        ("avg\taverage\n# comment\navg\tmaximum\n", 3, "duplicate abbreviation key 'avg'"),
    ], ids=["no-tab", "cycle", "uppercase-key", "bom-key", "punctuation-key", "empty-expansion",
            "duplicate-key"])
    def test_bad_abbrev_file_reports_location(self, pipeline_dir, tmp_path, capsys,
                                              text, lineno, reason):
        abbrevs = tmp_path / "abbrevs.tsv"
        abbrevs.write_text(text, "utf-8")
        assert run(["snapshot", f"{pipeline_dir}/corpus.jsonl", f"{tmp_path}/snapshots.jsonl",
                    "--abbrev-file", str(abbrevs)]) == 2
        assert capsys.readouterr().err == f"error: {abbrevs}:{lineno}: {reason}\n"
        assert list(tmp_path.iterdir()) == [abbrevs]

    @pytest.mark.parametrize("out, directory, message", [
        ("nope/out.json", None, "[Errno 2] No such file or directory: '{w}/nope/out.json'"),
        ("out.json", "out.json.manifest.json",
         "[Errno 21] Is a directory: '{w}/out.json.manifest.json'"),
    ], ids=["output", "manifest"])
    def test_unwritable_output_reported_under_its_path(self, pipeline_dir, tmp_path, capsys,
                                                       out, directory, message):
        """A failed write names the file it was to write, not its temp file,
        and leaves no temp file."""
        if directory:
            (tmp_path / directory).mkdir()
        assert run(["stats", f"{pipeline_dir}/corpus.jsonl", "--out", f"{tmp_path}/{out}"]) == 2
        assert capsys.readouterr().err == f"error: {message.format(w=tmp_path)}\n"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("argv", [
        ["augment", "{w}/corpus.jsonl", "{o}/augmented.jsonl"],
        ["snapshot", "{w}/corpus.jsonl", "{o}/snapshots.jsonl"],
        ["baseline", "{w}/corpus.jsonl", "{w}/snapshots.jsonl", "{o}/scores.jsonl"],
        ["evidence", "{w}/corpus.jsonl", "{w}/preds.jsonl", "{o}/evidence.jsonl"],
    ], ids=lambda argv: argv[0])
    def test_missing_abbrev_file_named(self, pipeline_dir, tmp_path, capsys, argv):
        abbrevs = tmp_path / "nope.tsv"
        argv = [a.format(w=pipeline_dir, o=tmp_path) for a in argv]
        assert run([*argv, "--abbrev-file", str(abbrevs)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{abbrevs}'\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, side", [
        (BASELINE, "snapshots.jsonl"),
        (EVIDENCE, "preds.jsonl"),
        (["snapshot", "--rows-R=2", "{w}/corpus.jsonl", "{w}/snapshots2.jsonl"], "corpus.jsonl"),
        (BASELINE, "corpus.jsonl"),
        (EVIDENCE, "corpus.jsonl"),
        ([*STATS, "--out", "{w}/stats2.json"], "corpus.jsonl"),
        (["ensemble-train", "{w}/scores.jsonl", "--corpus", "{w}/corpus.jsonl",
          "--out", "{w}/layer2.json"], "corpus.jsonl"),
        (["score", "--corpus", "{w}/corpus.jsonl", "--preds", "{w}/preds.jsonl",
          "--evidence", "{w}/evidence.jsonl", "--out", "{w}/report2.json"], "corpus.jsonl"),
    ], ids=["baseline", "evidence", "snapshot-corpus", "baseline-corpus", "evidence-corpus",
            "stats-corpus", "ensemble-train-corpus", "score-corpus"])
    def test_failure_mid_stream_keeps_old_output(self, pipeline_dir, tmp_path, capsys,
                                                 argv, side):
        """The side file lacks the corpus's last statement, or the corpus's
        last line is bad, so the stage fails at its last table: after writing
        every other record in a stage that streams its output, before writing
        in one that does not.  The old output stays."""
        work = tmp_path / "work"
        shutil.copytree(pipeline_dir, work)
        lines = (work / side).read_text("utf-8").splitlines(keepends=True)
        if side == "corpus.jsonl":
            rewrite, reason = BAD_CORPUS_LINE["grid-type"]
            lines[-1] = rewrite(lines[-1]) + "\n"
            kept, message = lines, f"{work / side}:{len(lines)}: {reason}"
        else:
            last = read_corpus(work / "corpus.jsonl")[-1]
            key = (last.table_id, last.statements[-1].stmt_id)
            kept = [line for line in lines
                    if tuple(map(json.loads(line).get, ("table_id", "stmt_id"))) != key]
            assert len(kept) == len(lines) - 1
            message = f"{work / side}: no record for {key}"
        (work / side).write_text("".join(kept), "utf-8")
        argv = [a.format(w=work) for a in argv]
        pathlib.Path(argv[-1]).write_bytes(b"old\n")
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert pathlib.Path(argv[-1]).read_bytes() == b"old\n"
        assert not list(work.glob("*.tmp"))

    def test_augment_warns_of_unfilled_quota(self, tmp_path, caplog):
        """Table a asks for 3 Unknown statements; table b has 1 to lend."""
        docs = [make_table([["h"], ["x"]], table_id=tid, statements=[
            make_statement(f"s{i}", f"text {tid} {i}", Label.ENTAILED) for i in range(n)])
            for tid, n in (("a", 6), ("b", 1))]
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(docs, corpus_path)
        out = tmp_path / "augmented.jsonl"
        assert run(["augment", str(corpus_path), str(out)]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "table a: appended 1 of 3 requested unknown statements"]
        manifest = json.loads((tmp_path / "augmented.jsonl.manifest.json").read_text())
        assert manifest["options"]["warnings"] == [
            {"table_id": "a", "requested": 3, "appended": 1}]

    @pytest.mark.parametrize("rows, tables", [
        ("0", None), ("-5", None), ("0", []), ("0", [make_table([["h"], ["x"]])]),
    ], ids=["0", "-5", "0-empty-corpus", "0-no-statements"])
    def test_snapshot_rows_r_not_replaced(self, pipeline_dir, tmp_path, capsys, rows, tables):
        """Rejected before the corpus is read, so also when no statement
        would reach the row selection."""
        corpus_path = f"{pipeline_dir}/corpus.jsonl"
        if tables is not None:
            corpus_path = f"{tmp_path}/corpus.jsonl"
            write_corpus(tables, corpus_path)
        assert run(["snapshot", corpus_path, f"{tmp_path}/snapshots.jsonl",
                    f"--rows-R={rows}"]) == 2
        assert capsys.readouterr().err == f"error: r_rows must be >= 1, got {rows}\n"
        assert not (tmp_path / "snapshots.jsonl").exists()

    @pytest.mark.parametrize("spec", [",", "x", "0", "1,-2"])
    @pytest.mark.parametrize("argv", [
        ["snapshot", "{w}/corpus.jsonl", "{o}/snapshots.jsonl"],
        ["baseline", "{w}/corpus.jsonl", "{w}/snapshots.jsonl", "{o}/scores.jsonl"],
    ], ids=["snapshot", "baseline"])
    def test_ngrams_without_sizes_rejected(self, pipeline_dir, tmp_path, capsys, argv, spec):
        argv = [arg.format(w=pipeline_dir, o=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            run([*argv, f"--ngrams={spec}"])
        assert exc.value.code == 2
        assert (f"argument --ngrams: expected comma-separated integers >= 1, got {spec!r}"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())


class TestWholeCorpusErrors:
    """A check that holds of a whole corpus, not of one record, names the
    corpus file."""

    def test_snapshot_of_empty_corpus(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus([], corpus_path)
        assert run(["snapshot", str(corpus_path), f"{tmp_path}/snapshots.jsonl"]) == 2
        assert capsys.readouterr().err == (
            f"error: {corpus_path}: median_row_count requires a non-empty corpus\n")
        assert not (tmp_path / "snapshots.jsonl").exists()

    @pytest.mark.parametrize("external", [False, True], ids=["corpus", "with-external"])
    def test_augment_of_one_table(self, tmp_path, capsys, external):
        """With ``--external`` the two files hold the tables together."""
        corpus_path, external_path = tmp_path / "corpus.jsonl", tmp_path / "external.jsonl"
        write_corpus([make_table([["h"], ["x"]])], corpus_path)
        write_corpus([], external_path)
        argv = ["augment", str(corpus_path), f"{tmp_path}/augmented.jsonl"]
        paths = str(corpus_path)
        if external:
            argv += ["--external", str(external_path)]
            paths += f", {external_path}"
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {paths}: generate_unknown requires at least 2 tables\n")
        assert not (tmp_path / "augmented.jsonl").exists()

    def test_augment_merge_with_duplicate_table_id(self, tmp_path, capsys):
        """External table "a" becomes "ext:a", which the corpus holds."""
        corpus_path, external_path = tmp_path / "corpus.jsonl", tmp_path / "external.jsonl"
        write_corpus([make_table([["h"], ["x"]], table_id=t) for t in ("ext:a", "b")],
                     corpus_path)
        write_corpus([make_table([["h"], ["y"]], table_id="a")], external_path)
        assert run(["augment", str(corpus_path), f"{tmp_path}/augmented.jsonl",
                    "--external", str(external_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {corpus_path}, {external_path}: duplicate table_id after merge: 'ext:a'\n")
        assert not (tmp_path / "augmented.jsonl").exists()

    def test_ensemble_train_without_labels(self, tmp_path, capsys):
        corpus_path, scores = tmp_path / "corpus.jsonl", tmp_path / "scores.jsonl"
        write_corpus([make_table([["h"], ["x"]], table_id="t1",
                                 statements=[make_statement("s1", "x")])], corpus_path)
        classify.write_scores({("lexical", "t1", "s1"): (0.5, 0.0, 0.5)}.items(), scores)
        assert run(["ensemble-train", str(scores), "--corpus", str(corpus_path),
                    "--out", f"{tmp_path}/layer.json"]) == 2
        assert capsys.readouterr().err == f"error: {corpus_path}: no training examples\n"
        assert not (tmp_path / "layer.json").exists()
