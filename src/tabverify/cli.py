"""Command-line entry point wiring the pipeline together.

Subcommands: parse, stats, augment, snapshot, baseline, ensemble-train,
predict, evidence, score.  Every run that writes an output file (all but
``stats`` without ``--out``) also writes a manifest (<output>.manifest.json)
recording the subcommand, every parsed option plus the values resolved from
the input, tool version and timestamp; reruns with identical inputs and
flags produce identical outputs (manifest timestamp aside).

Log level comes from the TABFACT_KIT_LOG environment variable.
"""

from __future__ import annotations

import argparse
import datetime
import logging
import os
import sys
from pathlib import Path

from . import __version__
from . import augment as augment_mod
from . import classify, corpus, ensemble, evidence, scoring, snapshot, textnorm

log = logging.getLogger("tabverify")


def _write_manifest(args, **resolved):
    """Record every parsed option of ``args``, with ``resolved`` values (such
    as defaults computed from the input) added or put in their place."""
    options = {k: v for k, v in vars(args).items() if k not in ("fn", "command")}
    manifest = {
        "subcommand": args.command,
        "options": {**options, **resolved},
        "output": str(args.out),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    corpus.write_json(manifest, str(args.out) + ".manifest.json")


def _load_abbrevs(path):
    return textnorm.load_abbrev_file(path) if path else textnorm.default_abbrevs()


def _parse_ngrams(spec):
    """The ``--ngrams`` type: comma-separated n-gram sizes, each >= 1."""
    try:
        n_values = tuple(sorted({int(n) for n in spec.split(",") if n.strip()}))
    except ValueError:
        n_values = ()
    if not n_values or n_values[0] < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 1, got {spec!r}")
    return n_values


STATEMENT_KEY = ("table_id", "stmt_id")


def cmd_parse(args):
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise ValueError(f"{in_dir}: not a directory")
    files = sorted(in_dir.glob("*.xml"))
    if not files:
        log.warning("no XML files in %s", in_dir)
    docs = []
    seen = {}  # table_id -> the file it came from
    failures = []
    for path in files:
        try:
            doc = corpus.parse_xml(path.read_bytes())
            if doc.table_id in seen:
                raise corpus.SchemaError(
                    f"duplicate table_id {doc.table_id!r}, also in {seen[doc.table_id]}")
            seen[doc.table_id] = path
            docs.append(doc)
        except corpus.CorpusError as exc:
            failures.append(path)
            log.error("%s: %s", path, exc)
    corpus.write_corpus(docs, args.out)
    _write_manifest(args)
    log.info("wrote %d tables to %s", len(docs), args.out)
    if failures:
        print(f"{len(failures)} file(s) failed to parse", file=sys.stderr)
        return 1
    return 0


def cmd_stats(args):
    docs = corpus.read_corpus(args.corpus)
    stats = corpus.corpus_stats(docs)
    lines = [
        f"{'tables':<22}{stats['table_count']}",
        f"{'entailed':<22}{stats['entailed']}",
        f"{'refuted':<22}{stats['refuted']}",
        f"{'unknown':<22}{stats['unknown']}",
        f"{'stmt tokens max/min/mean':<28}{stats['stmt_tokens_max']}/{stats['stmt_tokens_min']}/{stats['stmt_tokens_mean']:.2f}",
        f"{'row tokens max/min/mean':<28}{stats['row_tokens_max']}/{stats['row_tokens_min']}/{stats['row_tokens_mean']:.2f}",
        f"{'row count max/min/mean':<28}{stats['row_count_max']}/{stats['row_count_min']}/{stats['row_count_mean']:.2f}",
    ]
    print("\n".join(lines))
    if args.out:
        corpus.write_json(stats, args.out)
        _write_manifest(args)
    return 0


def cmd_augment(args):
    docs = corpus.read_corpus(args.corpus)
    if args.external:
        docs = augment_mod.merge_corpora(docs, corpus.read_corpus(args.external))
    config = augment_mod.AugmentConfig(
        rng_seed=args.seed, unknown_ratio=args.ratio,
        guard_threshold=args.guard_threshold)
    augmented, warnings = augment_mod.generate_unknown(
        docs, config, _load_abbrevs(args.abbrev_file))
    corpus.write_corpus(augmented, args.out)
    for w in warnings:
        log.warning("table %s: appended %d of %d requested unknown statements",
                    w["table_id"], w["appended"], w["requested"])
    _write_manifest(args, warnings=warnings)
    return 0


def cmd_snapshot(args):
    docs = corpus.read_corpus(args.corpus)
    r_rows = args.rows_r if args.rows_r is not None else max(1, snapshot.median_row_count(docs))
    abbrevs = _load_abbrevs(args.abbrev_file)
    records = []
    for doc in docs:
        view = textnorm.TableView(doc, abbrevs)
        for st in doc.statements:
            rows = snapshot.select_snapshot(view, st, r_rows, args.ngrams)
            records.append({"table_id": doc.table_id, "stmt_id": st.stmt_id,
                            "rows": list(rows), "k": len(rows)})
    corpus.write_jsonl(records, args.out)
    _write_manifest(args, rows_r=r_rows)
    return 0


def _snapshot_rows(obj):
    rows = tuple(corpus.json_field(obj, "rows", list, int))
    if corpus.json_field(obj, "k", int) != len(rows):  # not used, but must agree
        raise corpus.SchemaError(f"field 'k' is {obj['k']}, but 'rows' holds {len(rows)} rows")
    return rows


def _read_snapshots(path):
    return corpus.read_jsonl(path, _snapshot_rows, STATEMENT_KEY, ValueError)


def cmd_baseline(args):
    docs = corpus.read_corpus(args.corpus)
    snaps = _read_snapshots(args.snapshots)
    abbrevs = _load_abbrevs(args.abbrev_file)
    scores = {}
    for doc in docs:
        view = textnorm.TableView(doc, abbrevs)
        body = doc.body_row_indices
        for st in doc.statements:
            rows = snaps.get((doc.table_id, st.stmt_id))
            if rows is None:
                raise ValueError(f"{args.snapshots}: no snapshot for table "
                                 f"{doc.table_id!r} statement {st.stmt_id!r}")
            if not all(r in body for r in rows):
                raise ValueError(f"{args.snapshots}: snapshot rows {list(rows)} "
                                 f"for table {doc.table_id!r} statement {st.stmt_id!r} "
                                 "are not body rows")
            scores[(args.model_name, doc.table_id, st.stmt_id)] = classify.lexical_baseline(
                st, view, rows, args.ngrams)
    classify.write_scores(scores, args.out)
    _write_manifest(args)
    return 0


def cmd_ensemble_train(args):
    docs = corpus.read_corpus(args.corpus)
    scores, model_names = classify.read_scores(args.scores)
    gold = {(doc.table_id, st.stmt_id): st.gold_label for doc in docs for st in doc.statements}
    missing = next((key for key, label in gold.items() if label and key not in scores), None)
    if missing:
        raise ValueError(f"{', '.join(args.scores)}: no scores for labelled statement "
                         f"({missing[0]}, {missing[1]})")
    outside = sum(key not in gold for key in scores)
    if outside:
        log.warning("%s: ignored the scores of %d statement(s) not in %s",
                    ", ".join(args.scores), outside, args.corpus)
    examples = [(ensemble.assemble_features(scores[key], model_names), gold[key])
                for key in sorted(gold) if gold[key]]
    config = ensemble.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                                  rng_seed=args.seed, l2=args.l2)
    layer, trace = ensemble.train(examples, config, model_names)
    layer.save(args.out, config)
    log.info("trained on %d examples; final loss %.6f", len(examples), trace[-1])
    _write_manifest(args, final_loss=trace[-1])
    return 0


def cmd_predict(args):
    scores, model_names = classify.read_scores(args.scores)
    layer = ensemble.VoteLayer.load(args.layer)
    if set(layer.model_names) != set(model_names):
        raise ValueError(f"{args.layer}: layer models {sorted(layer.model_names)} are not "
                         f"the models {sorted(model_names)} of {', '.join(args.scores)}")
    records = []
    for (table_id, stmt_id), by_model in sorted(scores.items()):
        if args.majority:
            label = ensemble.majority_vote(by_model, layer)
        else:
            label = ensemble.predict(
                layer, ensemble.assemble_features(by_model, layer.model_names))
        records.append({"table_id": table_id, "stmt_id": stmt_id,
                        "label": label.value})
    corpus.write_jsonl(records, args.out)
    _write_manifest(args)
    return 0


def _read_predictions(path):
    return corpus.read_jsonl(path, lambda obj: corpus.Label.parse(obj["label"]),
                             STATEMENT_KEY, ValueError)


def cmd_evidence(args):
    if not (args.use_gold_taska or args.predictions):
        raise ValueError("evidence requires a predictions file or --use-gold-taskA")
    docs = corpus.read_corpus(args.corpus)
    labels = {} if args.use_gold_taska else _read_predictions(args.predictions)
    abbrevs = _load_abbrevs(args.abbrev_file)
    records = []
    for doc in docs:
        view = textnorm.TableView(doc, abbrevs)
        for st in doc.statements:
            key = (doc.table_id, st.stmt_id)
            if not (args.use_gold_taska or key in labels):
                raise ValueError(f"{args.predictions}: no prediction for table "
                                 f"{doc.table_id!r} statement {st.stmt_id!r}")
            label = st.gold_label if args.use_gold_taska else labels[key]
            rec = {"table_id": doc.table_id, "stmt_id": st.stmt_id,
                   "n_rows": doc.n_rows, "n_cols": doc.n_cols}
            if label is None or label == corpus.Label.UNKNOWN:
                # Unknown statements are outside the rule engine; emit no
                # relevant cells so downstream scoring has full coverage.
                fired = {}
            else:
                fired = evidence.find_evidence(st, view, label)
                if args.trace:
                    rec["trace"] = [[list(fired.get((r, c), ())) for c in range(doc.n_cols)]
                                    for r in range(doc.n_rows)]
            rec["relevant_rle"] = evidence.rle_encode(fired, doc.n_rows, doc.n_cols)
            records.append(rec)
    corpus.write_jsonl(records, args.out)
    _write_manifest(args)
    return 0


class _Evidence(dict):
    """Evidence records kept as ``(runs, n_rows, n_cols)``; looking a record
    up decodes it into its set of relevant cells."""

    def __getitem__(self, key):
        return evidence.rle_decode(*super().__getitem__(key))


def _read_evidence(path, docs):
    """Each record's checked runs and shape, decoded only when scored.  A
    record's runs must cover its claimed grid, and a record of a corpus table
    must claim that table's shape."""
    shapes = {doc.table_id: (doc.n_rows, doc.n_cols) for doc in docs}

    def check(obj):
        runs = corpus.json_field(obj, "relevant_rle", list, int)
        shape = (corpus.json_field(obj, "n_rows", int), corpus.json_field(obj, "n_cols", int))
        table = shapes.get(obj["table_id"], shape)
        if shape != table:
            raise ValueError(f"evidence grid for {(obj['table_id'], obj['stmt_id'])} is "
                             f"{shape[0]}x{shape[1]}, table is {table[0]}x{table[1]}")
        evidence.rle_check(runs, *shape)
        return runs, *shape

    return _Evidence(corpus.read_jsonl(path, check, STATEMENT_KEY, ValueError))


def _score(path, scorer, *args):
    """``scorer(*args)``, naming ``path`` in a ScoringError about its records."""
    try:
        return scorer(*args)
    except scoring.ScoringError as exc:
        raise scoring.ScoringError(f"{path}: {exc}") from exc


def cmd_score(args):
    if not (args.preds or args.evidence):
        raise ValueError("score requires --preds or --evidence")
    docs = corpus.read_corpus(args.corpus)
    average = "micro" if args.micro else "macro"
    report = {}
    if args.preds:
        task_a = _score(args.preds, scoring.score_task_a,
                        _read_predictions(args.preds), docs, average)
        report["task_a"] = task_a
        print(f"task A 2-way F1: {task_a['overall_2way']:.4f}")
        print(f"task A 3-way F1: {task_a['overall_3way']:.4f}")
    if args.evidence:
        task_b = _score(args.evidence, scoring.score_task_b,
                        _read_evidence(args.evidence, docs), docs)
        report["task_b"] = task_b
        print(f"task B cell F1: {task_b['overall']:.4f}")
    corpus.write_json(report, args.out)
    _write_manifest(args, average=average)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tabverify",
        description="Table-based statement verification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a directory of XML tables")
    p.add_argument("in_dir")
    p.add_argument("out")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("corpus")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("augment", help="merge external data and add unknown statements")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--external", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--guard-threshold", type=float, default=0.5)
    p.add_argument("--abbrev-file", default=None)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("snapshot", help="select content-snapshot rows")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--rows-R", dest="rows_r", type=int, default=None)
    p.add_argument("--ngrams", type=_parse_ngrams, default="1,2")
    p.add_argument("--abbrev-file", default=None)
    p.set_defaults(fn=cmd_snapshot)

    p = sub.add_parser("baseline", help="run the lexical baseline classifier")
    p.add_argument("corpus")
    p.add_argument("snapshots")
    p.add_argument("out")
    p.add_argument("--ngrams", type=_parse_ngrams, default="1,2")
    p.add_argument("--abbrev-file", default=None)
    p.add_argument("--model-name", default="lexical")
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("ensemble-train", help="train the vote layer on score files")
    p.add_argument("scores", nargs="+")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_ensemble_train)

    p = sub.add_parser("predict", help="predict labels from score files")
    p.add_argument("scores", nargs="+")
    p.add_argument("--layer", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--majority", action="store_true",
                   help="per-model argmax plurality vote instead of the vote layer")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evidence", help="rule-based evidence cell selection")
    p.add_argument("corpus")
    p.add_argument("predictions", nargs="?", default=None)
    p.add_argument("out")
    p.add_argument("--use-gold-taskA", dest="use_gold_taska", action="store_true")
    p.add_argument("--abbrev-file", default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_evidence)

    p = sub.add_parser("score", help="task A / task B reports")
    p.add_argument("--corpus", required=True)
    p.add_argument("--preds", default=None)
    p.add_argument("--evidence", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--micro", action="store_true")
    p.set_defaults(fn=cmd_score)

    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("TABFACT_KIT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (corpus.CorpusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
