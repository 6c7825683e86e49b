"""Command-line entry point wiring the pipeline together.

Subcommands: parse, stats, augment, snapshot, baseline, ensemble-train,
predict, evidence, score.  After a subcommand that writes an output file
(all but ``stats`` without ``--out``), ``main`` writes its manifest
(<output>.manifest.json): the subcommand, every option on ``args`` (a
subcommand puts there the values it resolved from its input), tool version
and timestamp.  Reruns with identical inputs and flags produce identical
outputs (manifest timestamp aside).

Log level comes from the TABFACT_KIT_LOG environment variable.

A process enters through ``process_main``, which freezes the collector on
its way out, so the collection at interpreter shutdown has nothing to walk.
``main`` called in-process freezes nothing.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import logging
import os
import sys
from pathlib import Path

from . import __version__
from . import augment as augment_mod
from . import classify, corpus, ensemble, evidence, scoring, snapshot, textnorm

log = logging.getLogger("tabverify")


def _write_manifest(args):
    """Record every option on ``args``: those parsed, and the values the
    subcommand resolved from its input."""
    manifest = {
        "subcommand": args.command,
        "options": {k: v for k, v in vars(args).items() if k not in ("fn", "command")},
        "output": str(args.out),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    corpus.write_json(manifest, str(args.out) + ".manifest.json")


def _load_abbrevs(path):
    return textnorm.load_abbrev_file(path) if path else textnorm.default_abbrevs()


def _each_statement(docs, abbrevs):
    """Each statement of ``docs`` as ``(key, view, statement)``: its
    ``corpus.STATEMENT_KEY`` tuple and its table's one ``TableView``."""
    for doc in docs:
        view = textnorm.TableView(doc, abbrevs)
        for st in doc.statements:
            yield (doc.table_id, st.stmt_id), view, st


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


def cmd_parse(args):
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise ValueError(f"{in_dir}: not a directory")
    files = sorted(in_dir.glob("*.xml"))
    if not files:
        log.warning("no XML files in %s", in_dir)
    seen = {}  # table_id -> the file it came from
    failures = []

    def parsed():
        for path in files:
            try:
                doc = corpus.parse_xml(path.read_bytes())
                if doc.table_id in seen:
                    raise corpus.SchemaError(
                        f"duplicate table_id {doc.table_id!r}, also in {seen[doc.table_id]}")
                seen[doc.table_id] = path
                yield doc
            except corpus.SchemaError as exc:
                failures.append(path)
                log.error("%s: %s", path, exc)
    corpus.write_corpus(parsed(), args.out)
    log.info("wrote %d tables to %s", len(seen), args.out)
    if failures:
        print(f"{len(failures)} file(s) failed to parse", file=sys.stderr)
        return 1
    return 0


def cmd_stats(args):
    stats = corpus.corpus_stats(corpus.iter_corpus(args.corpus))
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
    return 0


def cmd_augment(args):
    docs = corpus.read_corpus(args.corpus)
    external = corpus.read_corpus(args.external) if args.external else []
    config = augment_mod.AugmentConfig(
        rng_seed=args.seed, unknown_ratio=args.ratio,
        guard_threshold=args.guard_threshold)
    abbrevs = _load_abbrevs(args.abbrev_file)
    with corpus.located(", ".join(filter(None, (args.corpus, args.external))), ValueError):
        docs = augment_mod.merge_corpora(docs, external)
        augmented, args.warnings = augment_mod.generate_unknown(docs, config, abbrevs)
    corpus.write_corpus(augmented, args.out)
    for w in args.warnings:
        log.warning("table %s: appended %d of %d requested unknown statements",
                    w["table_id"], w["appended"], w["requested"])
    return 0


def cmd_snapshot(args):
    if args.rows_r is not None and args.rows_r < 1:
        raise ValueError(f"r_rows must be >= 1, got {args.rows_r}")
    if args.rows_r is None:
        bodies = [doc.body_row_indices for doc in corpus.iter_corpus(args.corpus)]
        with corpus.located(args.corpus, ValueError):
            args.rows_r = max(1, snapshot.median_row_count(bodies))
    abbrevs = _load_abbrevs(args.abbrev_file)
    records = (dict(zip(corpus.STATEMENT_KEY, key), rows=list(rows), k=len(rows))
               for key, view, st in _each_statement(corpus.iter_corpus(args.corpus), abbrevs)
               for rows in [snapshot.select_snapshot(view, st, args.rows_r, args.ngrams)])
    corpus.write_jsonl(records, args.out)
    return 0


def _read_snapshots(path, bodies):
    """Each record's rows.  A record of a table in ``bodies`` (table id ->
    body rows) must select body rows of that table."""

    def rows_of(obj):
        rows = tuple(corpus.json_field(obj, "rows", list, int))
        if corpus.json_field(obj, "k", int) != len(rows):  # not used, but must agree
            raise corpus.SchemaError(
                f"field 'k' is {obj['k']}, but 'rows' holds {len(rows)} rows")
        table_id, stmt_id = map(obj.get, corpus.STATEMENT_KEY)
        body = bodies.get(table_id, rows)
        if not all(r in body for r in rows):
            raise ValueError(f"snapshot rows {list(rows)} for table {table_id!r} "
                             f"statement {stmt_id!r} are not body rows")
        return rows

    return corpus.read_jsonl(path, rows_of, corpus.STATEMENT_KEY)


def cmd_baseline(args):
    if not args.model_name:  # every reader of a score file rejects an empty model
        raise ValueError("model name must be non-empty")
    bodies = {doc.table_id: doc.body_row_indices for doc in corpus.iter_corpus(args.corpus)}
    snaps = _read_snapshots(args.snapshots, bodies)
    abbrevs = _load_abbrevs(args.abbrev_file)
    classify.write_scores((((args.model_name, *key),
                            classify.lexical_baseline(st, view, snaps[key], args.ngrams))
                           for key, view, st in _each_statement(
                               corpus.iter_corpus(args.corpus), abbrevs)), args.out)
    return 0


def cmd_ensemble_train(args):
    # Keep the labels only: no Statement stays in memory while training.
    gold = {(doc.table_id, st.stmt_id): st.gold_label
            for doc in corpus.iter_corpus(args.corpus)
            for st in doc.statements}
    scores, model_names = classify.read_scores(args.scores)
    examples = [(ensemble.assemble_features(scores[key], model_names), gold[key])
                for key in sorted(gold) if gold[key]]
    outside = sum(key not in gold for key in scores)
    if outside:
        log.warning("%s: ignored the scores of %d statement(s) not in %s",
                    scores.path, outside, args.corpus)
    config = ensemble.TrainConfig(learning_rate=args.lr, epochs=args.epochs, l2=args.l2)
    # No examples: the corpus holds no label.  A divergence is the options' doing.
    with corpus.located(args.corpus, () if examples else ValueError):
        layer, trace = ensemble.train(examples, config, model_names)
    layer.save(args.out, config)
    args.final_loss = trace[-1]
    log.info("trained on %d examples; final loss %.6f", len(examples), args.final_loss)
    return 0


def cmd_predict(args):
    scores, model_names = classify.read_scores(args.scores)
    layer = ensemble.VoteLayer.load(args.layer)
    if set(layer.model_names) != set(model_names):
        raise ValueError(f"{args.layer}: layer models {sorted(layer.model_names)} are not "
                         f"the models {sorted(model_names)} of {', '.join(args.scores)}")

    def records():
        for key, by_model in sorted(scores.items()):
            if args.majority:
                label = ensemble.majority_vote(by_model, layer)
            else:
                label = ensemble.predict(
                    layer, ensemble.assemble_features(by_model, layer.model_names))
            yield dict(zip(corpus.STATEMENT_KEY, key), label=label.value)
    corpus.write_jsonl(records(), args.out)
    return 0


def _read_predictions(path):
    return corpus.read_jsonl(path, lambda obj: corpus.Label.parse(obj["label"]),
                             corpus.STATEMENT_KEY)


def cmd_evidence(args):
    if args.use_gold_taska == bool(args.predictions):
        raise ValueError("evidence requires a predictions file or --use-gold-taskA"
                         + (", not both" if args.use_gold_taska else ""))
    labels = None if args.use_gold_taska else _read_predictions(args.predictions)
    abbrevs = _load_abbrevs(args.abbrev_file)

    def records():
        for key, view, st in _each_statement(corpus.iter_corpus(args.corpus), abbrevs):
            label = st.gold_label if labels is None else labels[key]
            rec = dict(zip(corpus.STATEMENT_KEY, key), n_rows=view.n_rows, n_cols=view.n_cols)
            relevant = 0  # no rule fires on Unknown, but its record keeps scoring's coverage
            if label is not None and label != corpus.Label.UNKNOWN:
                fired = evidence.find_evidence(st, view, label)
                for mask in fired.values():
                    relevant |= mask
                if args.trace:
                    rec["trace"] = evidence.rule_trace(fired, view.n_rows, view.n_cols)
            rec["relevant_rle"] = evidence.rle_encode(relevant, view.n_rows, view.n_cols)
            yield rec
    corpus.write_jsonl(records(), args.out)
    return 0


def _read_evidence(path, docs):
    """Each record's mask of relevant cells, decoded as it is read.  A
    record's runs must cover its claimed grid, and a record of a corpus table
    must claim that table's shape; a record of a table outside the corpus,
    which Task B never scores, is only checked."""
    shapes = {doc.table_id: (doc.n_rows, doc.n_cols) for doc in docs}

    def mask_of(obj):
        runs = corpus.json_field(obj, "relevant_rle", list, int)
        shape = (corpus.json_field(obj, "n_rows", int), corpus.json_field(obj, "n_cols", int))
        table_id, stmt_id = map(obj.get, corpus.STATEMENT_KEY)
        table = shapes.get(table_id)
        if table is None:
            return evidence.rle_check(runs, *shape)
        if shape != table:
            raise ValueError(f"evidence grid for {(table_id, stmt_id)} is "
                             f"{shape[0]}x{shape[1]}, table is {table[0]}x{table[1]}")
        return evidence.rle_decode(runs, *shape)  # checks the runs before it expands them

    return corpus.read_jsonl(path, mask_of, corpus.STATEMENT_KEY)


def cmd_score(args):
    if not (args.preds or args.evidence):
        raise ValueError("score requires --preds or --evidence")
    docs = list(map(corpus.TableStatements.of, corpus.iter_corpus(args.corpus)))
    args.average = "micro" if args.micro else "macro"
    report = {}
    if args.preds:
        task_a = scoring.score_task_a(_read_predictions(args.preds), docs, args.average)
        report["task_a"] = task_a
        print(f"task A 2-way F1: {task_a['overall_2way']:.4f}")
        print(f"task A 3-way F1: {task_a['overall_3way']:.4f}")
    if args.evidence:
        with corpus.located(args.corpus, scoring.ScoringError):  # statements sharing a report key
            task_b = scoring.score_task_b(_read_evidence(args.evidence, docs), docs)
        report["task_b"] = task_b
        print(f"task B cell F1: {task_b['overall']:.4f}")
    corpus.write_json(report, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tabverify",
        description="Table-based statement verification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    # Shared options are defined once, and a default a config class holds comes from it.
    abbrev = argparse.ArgumentParser(add_help=False)
    abbrev.add_argument("--abbrev-file", default=None)
    ngrams = argparse.ArgumentParser(add_help=False)
    ngrams.add_argument("--ngrams", type=_parse_ngrams, default=textnorm.DEFAULT_NGRAMS)
    augment_config, train_config = augment_mod.AugmentConfig, ensemble.TrainConfig

    p = sub.add_parser("parse", help="parse a directory of XML tables")
    p.add_argument("in_dir")
    p.add_argument("out")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("corpus")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("augment", parents=[abbrev],
                       help="merge external data and add unknown statements")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--external", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio", type=float, default=augment_config.unknown_ratio)
    p.add_argument("--guard-threshold", type=float, default=augment_config.guard_threshold)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("snapshot", parents=[ngrams, abbrev], help="select content-snapshot rows")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--rows-R", dest="rows_r", type=int, default=None)
    p.set_defaults(fn=cmd_snapshot)

    p = sub.add_parser("baseline", parents=[ngrams, abbrev],
                       help="run the lexical baseline classifier")
    p.add_argument("corpus")
    p.add_argument("snapshots")
    p.add_argument("out")
    p.add_argument("--model-name", default="lexical")
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("ensemble-train", help="train the vote layer on score files")
    p.add_argument("scores", nargs="+")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float, default=train_config.learning_rate)
    p.add_argument("--epochs", type=int, default=train_config.epochs)
    p.add_argument("--l2", type=float, default=train_config.l2)
    p.set_defaults(fn=cmd_ensemble_train)

    p = sub.add_parser("predict", help="predict labels from score files")
    p.add_argument("scores", nargs="+")
    p.add_argument("--layer", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--majority", action="store_true",
                   help="per-model argmax plurality vote instead of the vote layer")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evidence", parents=[abbrev], help="rule-based evidence cell selection")
    p.add_argument("corpus")
    p.add_argument("predictions", nargs="?", default=None)
    p.add_argument("out")
    p.add_argument("--use-gold-taskA", dest="use_gold_taska", action="store_true")
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
    args = build_parser().parse_args(argv)
    try:
        # basicConfig checks the level only when the root logger has no handler yet.
        level = (os.environ.get("TABFACT_KIT_LOG") or "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):  # a level name maps to its number
            raise ValueError(f"TABFACT_KIT_LOG: Unknown level: {level!r}")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        code = args.fn(args)
        if args.out:
            _write_manifest(args)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def process_main():
    """``main()`` as a process's entry point: it freezes the collector on the way out."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(process_main())
