"""Per-layer spans for one cveminer CLI run, recorded from outside the program.

    PYTHONPATH=src python3 perfbench/layertrace.py SPANS.json pipeline --config cfg.json

imports the program, replaces every public function of each layer module
(plus the ``ResponseCache`` methods) with a wrapper that records a span, runs
the CLI in-process and writes the spans when the CLI returns.  Spans stay in
memory until then.  ``summarize`` turns the written spans into the per-layer
metrics the benchmark reports; a metric whose functions no longer exist is
reported as missing (``None``), never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("corpus", "gateway", "classifier", "vectors", "clustering", "topics",
          "projection", "reporting", "pipeline")
METHODS = {"gateway.ResponseCache": ("__init__", "get", "put")}
CACHE_PUT = "gateway.ResponseCache.put"

# Numbers taken from a call's return value, keyed by span name.
PROBES = {
    "corpus.parse_records": lambda result: len(result[0]),
    "classifier.classify_corpus": lambda result: len(result[1]),
    "gateway.complete": lambda result: result.attempts,
    "vectors.dump_matrix": len,
    "clustering.lloyd": lambda model: model.iterations,
    "projection.tsne": lambda result: result.final_kl,
}


class Tracer:
    """Collects (id, parent, name, start, end, probe value, raised) per call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            value, raised = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    value = probe(result)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, value, raised))

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer's public functions; return the wrapped names."""
    wrapped, replacements = [], {}
    for layer in LAYERS:
        module = importlib.import_module(f"cveminer.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                replacements[obj] = tracer.wrap(f"{layer}.{attr}", obj)
                wrapped.append(f"{layer}.{attr}")
    for qualname, methods in METHODS.items():
        layer, cls_name = qualname.split(".")
        cls = getattr(importlib.import_module(f"cveminer.{layer}"), cls_name, None)
        for method in methods:
            if cls is not None and method in vars(cls):
                setattr(cls, method, tracer.wrap(f"{qualname}.{method}", vars(cls)[method]))
                wrapped.append(f"{qualname}.{method}")
    # rebind the module attributes, and names bound elsewhere with
    # `from .module import fn` (such as the CLI's run_pipeline)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "cveminer" or mod_name.startswith("cveminer."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(module, attr, replacements[obj])
    return wrapped


class SpanSummary:
    """Per-name totals over a list of spans, with self time and cache misses."""

    def __init__(self, spans: list):
        self._by_id = {s[0]: s for s in spans}
        child_s: dict[int, float] = defaultdict(float)
        self._missed: set[int] = set()   # spans that appended to the cache
        for span_id, parent, name, start, end, *_ in spans:
            if parent:
                child_s[parent] += end - start
                if name == CACHE_PUT:
                    self._missed.add(parent)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.values: dict[str, list] = defaultdict(list)
        self.by_name: dict[str, list] = defaultdict(list)
        for span in spans:
            span_id, _, name, start, end, value, _ = span
            self.calls[name] += 1
            self.incl[name] += end - start
            self.self_s[name] += end - start - child_s[span_id]
            if value is not None:
                self.values[name].append(value)
            self.by_name[name].append(span)

    def has_ancestor(self, span, name: str) -> bool:
        parent = span[1]
        while parent:
            ancestor = self._by_id[parent]
            if ancestor[2] == name:
                return True
            parent = ancestor[1]
        return False

    def cache_hits(self, name: str) -> int:
        return sum(1 for s in self.by_name[name] if s[0] not in self._missed and not s[6])

    def provider_ms(self) -> list[float]:
        """Durations of complete/embed calls that went to the provider."""
        return [(s[4] - s[3]) * 1000.0
                for name in ("gateway.complete", "gateway.embed")
                for s in self.by_name[name] if s[0] in self._missed]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


# metric name -> (unit, functions it needs, value from a SpanSummary)
SPAN_METRICS = {
    "corpus.parse_s": ("s", ["corpus.parse_records"], lambda t: t.incl["corpus.parse_records"]),
    "corpus.records": ("count", ["corpus.parse_records"],
                       lambda t: sum(t.values["corpus.parse_records"])),
    "classifier.classify_s": ("s", ["classifier.classify_corpus"],
                              lambda t: t.incl["classifier.classify_corpus"]),
    "classifier.failures": ("count", ["classifier.classify_corpus"],
                            lambda t: sum(t.values["classifier.classify_corpus"])),
    "gateway.complete.calls": ("count", ["gateway.complete"], lambda t: t.calls["gateway.complete"]),
    "gateway.complete.cache_hits": ("count", ["gateway.complete", CACHE_PUT],
                                    lambda t: t.cache_hits("gateway.complete")),
    "gateway.complete.attempts": ("count", ["gateway.complete"],
                                  lambda t: sum(t.values["gateway.complete"])),
    "gateway.embed.calls": ("count", ["gateway.embed"], lambda t: t.calls["gateway.embed"]),
    "gateway.embed.cache_hits": ("count", ["gateway.embed", CACHE_PUT],
                                 lambda t: t.cache_hits("gateway.embed")),
    "gateway.batch_s": ("s", ["gateway.run_batch"], lambda t: t.incl["gateway.run_batch"]),
    "gateway.provider_latency_p50_ms": ("ms", ["gateway.complete", "gateway.embed", CACHE_PUT],
                                        lambda t: _percentile(t.provider_ms(), 50)),
    "gateway.provider_latency_p99_ms": ("ms", ["gateway.complete", "gateway.embed", CACHE_PUT],
                                        lambda t: _percentile(t.provider_ms(), 99)),
    "gateway.cache_load_s": ("s", ["gateway.ResponseCache.__init__"],
                             lambda t: t.incl["gateway.ResponseCache.__init__"]),
    "gateway.cache_puts": ("count", [CACHE_PUT], lambda t: t.calls[CACHE_PUT]),
    "gateway.cache_put_s": ("s", [CACHE_PUT], lambda t: t.incl[CACHE_PUT]),
    "vectors.embed_corpus_s": ("s", ["vectors.embed_corpus"], lambda t: t.incl["vectors.embed_corpus"]),
    "vectors.dump_matrix_s": ("s", ["vectors.dump_matrix"], lambda t: t.incl["vectors.dump_matrix"]),
    "vectors.load_matrix_s": ("s", ["vectors.load_matrix"], lambda t: t.incl["vectors.load_matrix"]),
    "vectors.load_matrix.calls": ("count", ["vectors.load_matrix"],
                                  lambda t: t.calls["vectors.load_matrix"]),
    "vectors.matrix_bytes": ("bytes", ["vectors.dump_matrix"],
                             lambda t: sum(t.values["vectors.dump_matrix"])),
    "clustering.elbow_s": ("s", ["clustering.elbow_select"],
                           lambda t: t.incl["clustering.elbow_select"]),
    "clustering.final_fit_s": ("s", ["clustering.fit_best_of", "clustering.elbow_select"],
                               lambda t: sum((s[4] - s[3] for s in t.by_name["clustering.fit_best_of"]
                                              if not t.has_ancestor(s, "clustering.elbow_select")),
                                             0.0)),
    "clustering.kmeanspp_s": ("s", ["clustering.kmeanspp_init"],
                              lambda t: t.incl["clustering.kmeanspp_init"]),
    "clustering.lloyd.calls": ("count", ["clustering.lloyd"], lambda t: t.calls["clustering.lloyd"]),
    "clustering.lloyd.iterations": ("count", ["clustering.lloyd"],
                                    lambda t: sum(t.values["clustering.lloyd"])),
    "clustering.representatives_s": ("s", ["clustering.representatives"],
                                     lambda t: t.incl["clustering.representatives"]),
    "topics.keywords_s": ("s", ["topics.cluster_keywords"], lambda t: t.incl["topics.cluster_keywords"]),
    "topics.summarize.calls": ("count", ["topics.summarize_cluster"],
                               lambda t: t.calls["topics.summarize_cluster"]),
    "projection.affinities_s": ("s", ["projection.conditional_affinities", "projection.joint_affinities"],
                                lambda t: t.incl["projection.conditional_affinities"]
                                + t.incl["projection.joint_affinities"]),
    "projection.gradient_s": ("s", ["projection.tsne", "projection.conditional_affinities",
                                    "projection.joint_affinities"],
                              lambda t: t.self_s["projection.tsne"]),
    "projection.final_kl": ("nat", ["projection.tsne"],
                            lambda t: (t.values["projection.tsne"] or [0.0])[-1]),
    "reporting.s": ("s", [], lambda t: sum((v for k, v in t.self_s.items()
                                            if k.startswith("reporting.")), 0.0)),
}


def summarize(doc: dict) -> tuple[dict[str, float | None], SpanSummary]:
    """Span metrics from a written trace; None marks a metric whose functions are gone."""
    summary = SpanSummary(doc["spans"])
    wrapped = set(doc["wrapped"])
    metrics = {}
    for name, (_, needs, value) in SPAN_METRICS.items():
        metrics[name] = value(summary) if all(n in wrapped for n in needs) else None
    return metrics, summary


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    from cveminer import cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    wrapped = install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "wrapped": wrapped, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
