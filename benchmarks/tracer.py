"""Run the whole pipeline in one process through ``tabverify.cli.main`` and,
with ``--traced``, measure each module from outside.

    python3 benchmarks/tracer.py XML_DIR WORK_DIR OUT_JSON [--traced]

Tracing replaces the module attributes that callers resolve at call time
with span recorders.  A span records name, stage, start, end and parent;
spans stay in memory and are written to OUT_JSON when the run ends.  Self
time is a span's duration minus the time its child spans cover; the self
time of a function that is not wrapped falls to its nearest wrapped caller.
Per-token ``stem`` gets a call count and a distinct-input set instead of
spans, and per-text ``normalize`` gets aggregate time and a distinct-input
set, so the overhead stays bounded.

OUT_JSON always holds the pipeline's wall time and each stage's exit code;
with ``--traced`` it also holds the spans, the counts and the per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

from pipeline import STAGES, stage_argvs

MODULES = ("cli", "corpus", "textnorm", "snapshot", "augment", "classify",
           "ensemble", "evidence", "scoring")


class Tracer:
    def __init__(self):
        self.stage = None
        self.spans = []  # (id, name, stage, start, end, parent id, self s)
        self.stack = []  # [span id, seconds covered by child spans]
        self.aggregate = {}  # (name, stage) -> [calls, total s, self s]
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.next_id = 0

    @contextlib.contextmanager
    def span(self, name, keep=True):
        span_id = None
        if keep:
            span_id = self.next_id
            self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [span_id, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            if self.stack:
                self.stack[-1][1] += duration
            own = duration - frame[1]
            agg = self.aggregate.setdefault((name, self.stage), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
            if keep:
                self.spans.append((span_id, name, self.stage, start, end, parent, own))

    def wrap(self, module, attr, keep=True, observe=None):
        """Replace module.attr with a recorder; ``observe(args, result,
        seconds)`` may add counts."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def recorder(*args, **kwargs):
            start = time.perf_counter()
            with self.span(name, keep):
                result = fn(*args, **kwargs)
            if observe:
                observe(args, result, time.perf_counter() - start)
            return result

        setattr(module, attr, recorder)

    def count(self, module, attr):
        """Replace a one-argument function with a call and distinct-input counter."""
        fn = getattr(module, attr)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        seen = self.distinct[key]
        counts = self.counts

        def counter(arg):
            counts[key] += 1
            seen.add(arg)
            return fn(arg)

        setattr(module, attr, counter)

    def total(self, name, stage=None, field=1):
        return sum(v[field] for (n, s), v in self.aggregate.items()
                   if n == name and stage in (None, s))

    def calls(self, name, stage=None):
        return self.total(name, stage, field=0)

    def per_call_us(self, name, stage=None):
        calls = self.calls(name, stage)
        return self.total(name, stage) / calls * 1e6 if calls else 0.0


def install(tracer):
    """Wrap every public function the CLI reaches, where its caller looks it up."""
    from tabverify import augment, classify, corpus, ensemble, evidence, scoring, snapshot, textnorm
    from tabverify.corpus import Label

    c = tracer.counts

    def on_normalize(args, result, seconds):
        tracer.distinct["textnorm.normalize"].add(args[0])

    def on_select(args, result, seconds):
        table, _, r_rows = args[:3]
        c["snapshot.k"] = r_rows
        c["snapshot.ranked"] += len(table.body_row_indices) > r_rows

    def on_generate(args, result, seconds):
        out, warnings = result
        c["augment.appended"] += (sum(len(d.statements) for d in out)
                                  - sum(len(d.statements) for d in args[0]))
        c["augment.shortfall_tables"] += len(warnings)

    def on_train(args, result, seconds):
        c["ensemble.epochs"] += len(result[1])

    def on_find(args, result, seconds):
        _, table, label = args[:3]
        if label == Label.ENTAILED:
            c["evidence.shortcut_calls"] += 1
        else:
            c["evidence.rule_calls"] += 1
            c["evidence.rule_s"] += seconds
            c["evidence.rule_cells"] += table.n_rows * table.n_cols

    wrap = tracer.wrap
    for attr in ("read_corpus", "write_corpus", "parse_xml"):
        wrap(corpus, attr)
    wrap(corpus, "from_interchange", keep=False)
    wrap(textnorm, "normalize", keep=False, observe=on_normalize)
    tracer.count(textnorm, "stem")
    wrap(snapshot, "select_snapshot", observe=on_select)
    wrap(augment, "generate_unknown", observe=on_generate)
    for attr in ("lexical_baseline", "read_scores", "write_scores"):
        wrap(classify, attr)
    wrap(ensemble, "train", observe=on_train)
    wrap(ensemble, "assemble_features")
    wrap(ensemble, "predict")
    wrap(evidence, "find_evidence", observe=on_find)
    wrap(evidence, "rle_decode")
    wrap(evidence, "rle_encode")
    wrap(scoring, "score_task_a")
    wrap(scoring, "score_task_b")


def layer_metrics(tracer):
    t, c = tracer, tracer.counts
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m = {
        "corpus.read_calls": t.calls("corpus.read_corpus"),
        "corpus.read_s": t.total("corpus.read_corpus"),
        "corpus.decode_us_per_table": t.per_call_us("corpus.from_interchange"),
        "corpus.write_s": t.total("corpus.write_corpus"),
        "corpus.parse_xml_us_per_table": t.per_call_us("corpus.parse_xml"),
        "textnorm.normalize_calls": t.calls("textnorm.normalize"),
        "textnorm.normalize_us_per_call": t.per_call_us("textnorm.normalize"),
        "textnorm.normalize_distinct_frac": ratio(len(t.distinct["textnorm.normalize"]),
                                                  t.calls("textnorm.normalize")),
        "textnorm.stem_calls": c["textnorm.stem"],
        "textnorm.stem_distinct_frac": ratio(len(t.distinct["textnorm.stem"]),
                                             c["textnorm.stem"]),
        "snapshot.select_us_per_stmt": t.per_call_us("snapshot.select_snapshot"),
        "snapshot.ranked_frac": ratio(c["snapshot.ranked"], t.calls("snapshot.select_snapshot")),
        "snapshot.k": c["snapshot.k"],
        "augment.generate_s": t.total("augment.generate_unknown"),
        "augment.appended": c["augment.appended"],
        "augment.shortfall_tables": c["augment.shortfall_tables"],
        "classify.baseline_us_per_stmt": t.per_call_us("classify.lexical_baseline"),
        "classify.read_scores_s": t.total("classify.read_scores"),
        "classify.write_scores_s": t.total("classify.write_scores"),
        "ensemble.train_s": t.total("ensemble.train"),
        "ensemble.epoch_ms": ratio(t.total("ensemble.train"), c["ensemble.epochs"]) * 1e3,
        "ensemble.assemble_us_per_stmt": t.per_call_us("ensemble.assemble_features",
                                                       "ensemble-train"),
        "ensemble.predict_us_per_stmt": t.per_call_us("ensemble.predict"),
        "evidence.rule_calls": c["evidence.rule_calls"],
        "evidence.shortcut_frac": ratio(c["evidence.shortcut_calls"],
                                        c["evidence.shortcut_calls"] + c["evidence.rule_calls"]),
        "evidence.find_us_per_rule_call": ratio(c["evidence.rule_s"],
                                                c["evidence.rule_calls"]) * 1e6,
        "evidence.cells_per_rule_call": ratio(c["evidence.rule_cells"], c["evidence.rule_calls"]),
        "evidence.rle_decode_us_per_stmt": t.per_call_us("evidence.rle_decode"),
        "scoring.task_a_s": t.total("scoring.score_task_a"),
        "scoring.task_b_s": t.total("scoring.score_task_b"),
        "cli.stats_s": t.total("cli.stats"),
        "cli.predict_s": t.total("cli.predict"),
    }
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = t.total(f"cli.{stage}", field=2)
    for module in MODULES:
        m[f"{module}.self_s"] = sum(v[2] for (name, _), v in t.aggregate.items()
                                    if name.split(".", 1)[0] == module)
    return m


def grid_mb(corpus_path):
    """Memory held by one decoded corpus, from tracemalloc."""
    from tabverify import corpus
    tracemalloc.start()
    try:
        docs = corpus.read_corpus(corpus_path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del docs
    return held / 2**20


def run(xml_dir, workdir, traced):
    from tabverify import cli, corpus

    tracer = Tracer()
    read_corpus = corpus.read_corpus
    if traced:
        install(tracer)
    codes, errors = {}, {}
    begin = time.perf_counter()
    for stage, argv in stage_argvs(xml_dir, workdir):
        tracer.stage = stage
        span = tracer.span(f"cli.{stage}") if traced else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                codes[stage] = cli.main(argv)
        except SystemExit as exc:
            codes[stage] = exc.code
        except Exception:  # a crashing stage is a counted failure, not an abort
            codes[stage] = "exception"
            errors[stage] = traceback.format_exc()
    out = {"pipeline_s": time.perf_counter() - begin, "codes": codes, "errors": errors}
    if traced:
        tracer.stage = None
        corpus.read_corpus = read_corpus
        out["metrics"] = dict(layer_metrics(tracer),
                              **{"corpus.grid_mb": grid_mb(f"{workdir}/corpus.jsonl")})
        out["counts"] = dict(tracer.counts)
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5) or sys.argv[4:] not in ([], ["--traced"]):
        sys.exit(__doc__.split("\n\n")[1])
    result = run(sys.argv[1], sys.argv[2], sys.argv[4:] == ["--traced"])
    Path(sys.argv[3]).write_text(json.dumps(result), "utf-8")
