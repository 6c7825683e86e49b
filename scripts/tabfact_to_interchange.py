#!/usr/bin/env python3
"""Best-effort adapter from the TabFact native layout to the interchange
corpus format.

Expects the TabFact repository layout:

    data/all_csv/<table>.csv         '#'-delimited rows, first row = header
    collected_data/r1_training_all.json  (and/or r2_...):
        {"<table>.csv": [[statements...], [labels...], caption], ...}

Labels are 1 -> entailed, 0 -> refuted.  Tables referenced by the JSON but
missing on disk, and tables that the corpus model rejects (an empty
statement, for one), are skipped with a warning.  This adapter is a one-shot
conversion utility and is intentionally lenient.
"""

import argparse
import json
import pathlib
import sys

from tabverify.corpus import (Label, SchemaError, Statement, make_document,
                              write_corpus)


def convert(csv_dir, statement_files, out_path):
    tables = {}
    for path in statement_files:
        tables.update(json.loads(pathlib.Path(path).read_text("utf-8")))
    docs = []
    n_skipped = 0
    for name, entry in sorted(tables.items()):
        csv_path = pathlib.Path(csv_dir) / name
        if not csv_path.exists():
            print(f"warning: missing table file {csv_path}", file=sys.stderr)
            n_skipped += 1
            continue
        rows = [line.split("#") for line in
                csv_path.read_text("utf-8").splitlines() if line]
        texts, labels = entry[0], entry[1]
        caption = entry[2] if len(entry) > 2 else ""
        statements = []
        for i, (text, label) in enumerate(zip(texts, labels)):
            statements.append(Statement(
                f"s{i}", text,
                Label.ENTAILED if label == 1 else Label.REFUTED, None))
        try:
            docs.append(make_document(
                doc_id=name, table_id=name.removesuffix(".csv"),
                caption=caption, legend="", rows_text=rows,
                header_rows=1, statements=statements))
        except SchemaError as exc:
            print(f"warning: skipped table {csv_path}: {exc}", file=sys.stderr)
            n_skipped += 1
    write_corpus(docs, out_path)
    print(f"wrote {len(docs)} tables ({n_skipped} skipped) to {out_path}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("csv_dir", help="TabFact data/all_csv directory")
    ap.add_argument("out", help="output interchange corpus (.jsonl)")
    ap.add_argument("--statements", nargs="+", required=True,
                    help="TabFact collected_data JSON file(s)")
    args = ap.parse_args()
    convert(args.csv_dir, args.statements, args.out)
