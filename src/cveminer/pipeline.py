"""End-to-end pipeline: ingest, classify, embed, cluster, topics,
representatives, project, report.

The stages are declared once, in order, in a stage table that
``run_pipeline`` walks in one loop; ``until`` cuts the table short.  Every
run writes a manifest (``manifest.json``) listing the stages, the digests of
their inputs, the artifacts they produced, and per-stage counts.  On a
re-run, a stage whose inputs and existing outputs match the previous
manifest is skipped; the first stage that must recompute forces all later
stages to recompute as well.  A recomputed stage deletes every file of its
previous record that it no longer writes, so a parameter change (a smaller
K, say) leaves none of the earlier run's artifacts behind.  A run cut short
by ``until`` keeps the previous records of the stages it did not reach, since
their files stay on disk.

Each consumed artifact is parsed at most once per run, and not at all when
its producer computed in the same run: the value is handed forward, which is
exact because every artifact format round-trips bit for bit.

Every artifact and the manifest are written to a temporary file beside the
target and then renamed over it, so a run killed mid-write leaves the
previous file whole; the next run removes any temporary file left behind.
No write is synced to disk, so this guards against a killed run, not against
a crash of the machine.

An output directory is guarded by an exclusive ``flock`` on its ``.lock``
file; two runs may not share one.  The kernel releases the lock when its
holder dies, so a killed run does not block the next.  A dry run takes the
lock too, and its manifest keeps the previous run's stage records next to
the ``planned`` calls, since that run's files stay on disk.
The response cache lives at its own configured path (outside the artifact
tree), so re-runs never re-bill completed provider calls.  It is opened only
when a stage computes, so a fully cached re-run never loads it, and closed
when the run ends.  The manifest's ``cache_torn_bytes`` is the length of the
torn last line the run dropped from it: 0 when the cache ends on a whole
line or the run never loaded it.  No artifact carries that number.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import classifier, clustering, corpus, gateway, projection, reporting, topics, vectors
from .assets import blocklist as default_blocklist
from .assets import load_termfile_path
from .assets import stopwords as default_stopwords
from .errors import CveMinerError, EmptyHardwareSet, MissingDescriptions, OutputDirLocked


@dataclass
class PipelineConfig:
    """Every knob of a run; serialized into the manifest for reproducibility."""

    corpus_paths: list[str]
    output_dir: str
    cache_path: str
    corpus_format: str = "canonical-jsonl"
    years: tuple[int, int] | None = None
    seed: int = 0
    chat_provider: gateway.ProviderConfig = field(
        default_factory=lambda: gateway.ProviderConfig(kind="mock-chat", model_id="mock-hwsw"))
    embed_provider: gateway.ProviderConfig = field(
        default_factory=lambda: gateway.ProviderConfig(kind="mock-embed", model_id="mock-embed-64"))
    template_path: str | None = None
    k: int | None = None
    elbow_range: tuple[int, int] = (2, 10)
    restarts: int = 8
    max_iter: int = 300
    tol: float = 1e-6
    normalize: bool = True
    metric: str = "cosine"
    r: int = 15
    m: int = 10
    per_document: bool = False
    stopwords_path: str | None = None
    blocklist_path: str | None = None
    perplexity: float = 30.0
    tsne_iterations: int = 1000
    learning_rate: float = 200.0
    dry_run: bool = False

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not self.corpus_paths:
            raise ValueError("at least one corpus path is required")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """Build from a config document; an absent key keeps the field's default."""
        kwargs = {"corpus_paths": list(doc.get("corpus", {}).get("paths", [])),
                  "output_dir": doc["output_dir"], "cache_path": doc["cache_path"]}
        for name, (dotted, coerce) in _DOC_KEYS.items():
            *sections, key = dotted.split(".")
            node = doc
            for section in sections:
                node = node.get(section, {})
            if key in node:
                kwargs[name] = node[key] if coerce is None else coerce(node[key])
        return cls(**kwargs)

    def identity(self) -> dict:
        """Config view that determines results (paths that are pure
        environment, like output_dir and cache_path, are excluded)."""
        doc = asdict(self)
        doc.pop("output_dir")
        doc.pop("cache_path")
        doc.pop("dry_run")
        doc.pop("corpus_paths")
        return doc


# field -> (its dotted key in a config document, the coercion of a present
# value, None for none); a key the document leaves out keeps the field's default
_DOC_KEYS = {
    "corpus_format": ("corpus.format", None),
    "years": ("corpus.years", lambda v: tuple(v) if v else None),
    "seed": ("seed", int),
    "chat_provider": ("providers.chat", lambda v: gateway.ProviderConfig(**v)),
    "embed_provider": ("providers.embed", lambda v: gateway.ProviderConfig(**v)),
    "template_path": ("classifier.template_path", None),
    "k": ("clustering.k", None),
    "elbow_range": ("clustering.elbow_range", lambda v: (int(v[0]), int(v[1]))),
    "restarts": ("clustering.restarts", int),
    "max_iter": ("clustering.max_iter", int),
    "tol": ("clustering.tol", float),
    "normalize": ("clustering.normalize", bool),
    "metric": ("clustering.metric", None),
    "r": ("topics.r", int),
    "per_document": ("topics.per_document", bool),
    "stopwords_path": ("topics.stopwords_path", None),
    "blocklist_path": ("topics.blocklist_path", None),
    "perplexity": ("projection.perplexity", float),
    "tsne_iterations": ("projection.iterations", int),
    "learning_rate": ("projection.learning_rate", float),
    "m": ("report.m", int),
    "dry_run": ("dry_run", bool),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_file(path: Path) -> str:
    return _sha256(path.read_bytes())


def _digest_params(params: dict) -> str:
    return _sha256(json.dumps(params, sort_keys=True, default=str).encode("utf-8"))


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


class _Lock:
    """An exclusive ``flock`` on ``<outdir>/.lock``, held for the run.

    The kernel drops the lock when its holder dies, so a killed run never
    blocks the next one.  The file is unlinked while still locked; a run
    that locked a file after it was unlinked sees that the path no longer
    names its file, and tries again on a fresh one.
    """

    def __init__(self, outdir: Path):
        self.path = outdir / ".lock"
        self._fd = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while self._fd is None:
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    self._fd, fd = fd, None
            except BlockingIOError:
                raise OutputDirLocked(
                    f"{self.path} is locked; another run owns this directory") from None
            except FileNotFoundError:
                pass  # unlinked by the run that held it; try again on a fresh file
            finally:
                if fd is not None:
                    os.close(fd)
        os.ftruncate(self._fd, 0)
        os.write(self._fd, str(os.getpid()).encode("ascii"))
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        os.close(self._fd)  # releases the lock
        self._fd = None
        return False


_PARTIAL = ".partial"  # suffix of a file being written; see _write


def _write(path: Path, data: bytes) -> None:
    """Replace `path` with `data` in one rename, so it is never seen half written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + _PARTIAL)
    partial.write_bytes(data)
    os.replace(partial, path)


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _jsonl_bytes(docs: list[dict]) -> bytes:
    return ("\n".join(json.dumps(d) for d in docs) + ("\n" if docs else "")).encode("utf-8")


def _parse_jsonl(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines() if line.strip()]


def _load_terms(path: str | None, bundled) -> frozenset[str]:
    return load_termfile_path(path) if path else bundled()


def _effective_perplexity(configured: float, n: int) -> float:
    # strict upper bound is (n - 1) / 3; clamp so small runs still project
    return min(configured, (n - 1) / 3.0 - 1e-9)


def _write_manifest(config: PipelineConfig, stages: list[dict], planned: dict | None = None,
                    cache_torn_bytes: int | None = None) -> dict:
    doc = {
        "run_id": _digest_params(config.identity())[:16],
        "seed": config.seed,
        "config": config.identity(),
        "created_at": _utcnow(),
        "stages": stages,
    }
    if planned is not None:
        doc["planned"] = planned
    if cache_torn_bytes is not None:
        doc["cache_torn_bytes"] = cache_torn_bytes
    _write(Path(config.output_dir) / "manifest.json", _json_bytes(doc))
    return doc


def _ingest_records(config: PipelineConfig) -> tuple[list[corpus.CveRecord], list[corpus.RejectEntry]]:
    records: list[corpus.CveRecord] = []
    rejects: list[corpus.RejectEntry] = []
    for path in config.corpus_paths:
        recs, rej = corpus.parse_records(Path(path).read_bytes(), config.corpus_format)
        records.extend(recs)
        rejects.extend(rej)
    if config.years is not None:
        records = corpus.filter_by_years(records, config.years[0], config.years[1])
    return records, rejects


class _Run:
    """One run's stage records, artifact values and lazily opened resources."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.outdir = Path(config.output_dir)
        self.stages: list[dict] = []         # this run's manifest records
        self.counts: dict[str, dict] = {}    # stage name -> its counts
        self.digests: dict[str, str] = {}    # artifact -> sha256 recorded by this run
        self.values: dict[str, object] = {}  # artifact -> parsed or handed-forward value
        self.outputs: dict[str, str] = {}    # artifact -> sha256, for the computing stage

    def write(self, name: str, data: bytes, value=None) -> None:
        """Write an artifact; a `value` given here is what later stages get
        for it, in place of parsing `data` back."""
        _write(self.outdir / name, data)
        self.outputs[name] = _sha256(data)
        if value is not None:
            self.values[name] = value

    def get(self, name: str):
        if name not in self.values:
            self.values[name] = _PARSERS[name](self, (self.outdir / name).read_bytes())
        return self.values[name]

    def input_digests(self, stage: "Stage") -> list[str]:
        if not stage.inputs:  # the first stage reads the corpus files themselves
            return [_digest_file(Path(p)) for p in self.config.corpus_paths]
        return [self.digests[name] for name in stage.inputs]

    def outputs_fresh(self, record: dict) -> bool:
        for rel, digest in record.get("outputs", {}).items():
            path = self.outdir / rel
            if not path.exists() or _digest_file(path) != digest:
                return False
        return True

    @cached_property
    def cache(self) -> gateway.ResponseCache:
        return gateway.ResponseCache(self.config.cache_path)

    def cache_torn_bytes(self) -> int:
        return self.cache.torn_bytes if "cache" in vars(self) else 0

    @cached_property
    def hwsw_template(self) -> classifier.PromptTemplate:
        return classifier.load_template("hwsw", self.config.template_path)

    @cached_property
    def stopwords(self) -> frozenset[str]:
        return _load_terms(self.config.stopwords_path, default_stopwords)

    @cached_property
    def blocklist(self) -> frozenset[str]:
        return _load_terms(self.config.blocklist_path, default_blocklist)

    @cached_property
    def matrix(self) -> vectors.EmbeddingMatrix:
        """The embeddings as clustering and projection see them."""
        matrix = self.get("embeddings.jsonl")
        return vectors.normalize_matrix(matrix) if self.config.normalize else matrix


def _parse_model(run: _Run, data: bytes) -> clustering.ClusterModel:
    doc = json.loads(data)
    assignments = run.get("assignments.jsonl")
    return clustering.ClusterModel(
        k=int(doc["k"]), centroids=np.array(doc["centroids"], dtype=np.float64),
        assignments=np.array([assignments[i] for i in run.matrix.ids], dtype=np.int64),
        wcss=float(doc["wcss"]), seed=doc["seed"],
        iterations=int(doc["iterations"]), converged=bool(doc["converged"]))


def _parse_coords(run: _Run, data: bytes):
    """The projection and each point's cluster, or None when it was skipped."""
    points = _parse_jsonl(data)
    if not points:
        return None
    result = projection.ProjectionResult(
        ids=[p["id"] for p in points], coords=np.array([(p["x"], p["y"]) for p in points]),
        seed=run.config.seed, params=projection.TsneParams(), final_kl=0.0)
    return result, {p["id"]: p["cluster"] for p in points}


# artifact -> parse(run, data): the one place each consumed artifact is read
_PARSERS = {
    "records.jsonl": lambda run, data: corpus.parse_records(data)[0],
    "hardware.jsonl": lambda run, data: corpus.parse_records(data)[0],
    "classify_failures.jsonl": lambda run, data: [(d["id"], d["reason"]) for d in _parse_jsonl(data)],
    "embeddings.jsonl": lambda run, data: vectors.load_matrix(data),
    "assignments.jsonl": lambda run, data: clustering.load_assignments(data),
    "cluster_model.json": _parse_model,
    "ngram_profiles.json": lambda run, data: topics.load_profiles(data),
    "topic_summaries.json": lambda run, data: json.loads(data),
    "blocked_labels.json": lambda run, data: json.loads(data),
    "representatives.json": lambda run, data: {int(c): ids for c, ids in json.loads(data).items()},
    "coords.jsonl": _parse_coords,
}


# -- stages: each writes its artifacts through run.write and returns counts ----

def _ingest(run: _Run) -> dict:
    records, rejects = _ingest_records(run.config)
    run.write("records.jsonl", corpus.dump_records(records), records)
    run.write("rejects.jsonl", _jsonl_bytes(
        [{"index": r.index, "reason": r.reason, "raw": r.raw} for r in rejects]))
    run.write("yearly_counts.csv",
              reporting.growth_csv(corpus.yearly_counts(records)).encode("utf-8"))
    return {"ingested": len(records), "rejected": len(rejects)}


def _classify(run: _Run) -> dict:
    records = run.get("records.jsonl")
    predictions, failures = classifier.classify_corpus(
        run.config.chat_provider, run.hwsw_template, records, cache=run.cache)
    hardware = classifier.hardware_subset(records, predictions)
    run.write("predictions.jsonl", classifier.dump_predictions(predictions))
    run.write("classify_failures.jsonl",
              _jsonl_bytes([{"id": i, "reason": why} for i, why in failures]), failures)
    run.write("hardware.jsonl", corpus.dump_records(hardware), hardware)
    if not hardware:
        raise EmptyHardwareSet("no record was classified as hardware")
    return {"predicted": len(predictions), "failures": len(failures), "hardware": len(hardware)}


def _embed(run: _Run) -> dict:
    matrix = vectors.embed_corpus(run.config.embed_provider, run.get("hardware.jsonl"),
                                  cache=run.cache)
    run.write("embeddings.jsonl", vectors.dump_matrix(matrix), matrix)
    return {"rows": len(matrix), "dim": matrix.dim}


def _cluster(run: _Run) -> dict:
    config, matrix = run.config, run.matrix
    if config.k is not None:
        chosen_k = config.k
    else:
        k_min, k_max = config.elbow_range
        curve = clustering.elbow_select(matrix, k_min, min(k_max, len(matrix) - 1), config.seed,
                                        config.restarts, config.max_iter, config.tol)
        chosen_k = curve.chosen_k
        run.write("elbow.json", (json.dumps(asdict(curve), sort_keys=True) + "\n").encode("utf-8"))
    # elbow_select has already fitted chosen_k with these seeds; the refit
    # stays while perfbench's clustering.final_fit_s metric measures it
    model = clustering.fit_best_of(matrix, chosen_k, config.seed,
                                   config.restarts, config.max_iter, config.tol)
    run.write("cluster_model.json", clustering.dump_model(model), model)
    run.write("assignments.jsonl", clustering.dump_assignments(matrix.ids, model.assignments),
              {i: int(c) for i, c in zip(matrix.ids, model.assignments)})
    return {"k": model.k, "wcss": model.wcss, "iterations": model.iterations,
            "converged": model.converged}


def _topics(run: _Run) -> dict:
    config, hardware, assignments = run.config, run.get("hardware.jsonl"), run.get("assignments.jsonl")
    profiles = topics.cluster_keywords([r.description for r in hardware],
                                       [assignments[r.id] for r in hardware],
                                       int(run.counts["cluster"]["k"]), config.r,
                                       run.blocklist, run.stopwords,
                                       per_document=config.per_document)
    template = classifier.load_template("summarize")
    summaries, blocked = [], []
    for profile in profiles:
        if not profile.entries:
            summaries.append({"cluster": profile.cluster, "label": None,
                              "keywords": [], "model": None})
            continue
        try:
            summary = topics.summarize_cluster(config.chat_provider, template, profile,
                                               cache=run.cache, blocked=run.blocklist)
            summaries.append({"cluster": summary.cluster, "label": summary.label,
                              "keywords": list(summary.keywords_used),
                              "model": summary.model_id})
        except topics.BlockedTermInLabel as exc:
            blocked.append({"cluster": profile.cluster, "label": exc.label, "term": exc.term})
            summaries.append({"cluster": profile.cluster, "label": None,
                              "keywords": profile.keywords, "model": None})
    run.write("ngram_profiles.json", topics.dump_profiles(profiles), profiles)
    run.write("topic_summaries.json", _json_bytes(summaries), summaries)
    run.write("blocked_labels.json", _json_bytes(blocked), blocked)
    return {"profiles": len(profiles), "blocked": len(blocked)}


def _representatives(run: _Run) -> dict:
    reps = clustering.representatives(run.matrix, run.get("cluster_model.json"),
                                      run.config.m, run.config.metric)
    run.write("representatives.json",
              _json_bytes({str(c): ids for c, ids in sorted(reps.items())}), reps)
    return {"clusters": len(reps), "m": run.config.m}


def _project(run: _Run) -> dict:
    config, matrix = run.config, run.matrix
    n = len(matrix)
    if n < 5:
        run.write("coords.jsonl", b"")
        return {"skipped": f"{n} rows < 5"}
    eff = _effective_perplexity(config.perplexity, n)
    params = projection.TsneParams(perplexity=eff, iterations=config.tsne_iterations,
                                   learning_rate=config.learning_rate)
    result = projection.tsne(matrix, params, seed=config.seed)
    assignments = run.get("assignments.jsonl")
    run.write("coords.jsonl", projection.dump_coords(result, assignments), (result, assignments))
    return {"points": n, "perplexity": eff, "final_kl": result.final_kl}


def _report(run: _Run) -> dict:
    summaries = [topics.TopicSummary(cluster=s["cluster"], label=s["label"] or "(needs review)",
                                     keywords_used=tuple(s["keywords"]), model_id=s["model"] or "")
                 for s in run.get("topic_summaries.json")]
    profiles = run.get("ngram_profiles.json")
    run.write("topic_table.md", reporting.topic_table(profiles, summaries).encode("utf-8"))
    run.write("representatives.md",
              reporting.representatives_table(run.get("representatives.json")).encode("utf-8"))
    run.write("review_queue.json", reporting.review_export(
        run.get("classify_failures.jsonl"),
        [(b["cluster"], b["label"], b["term"]) for b in run.get("blocked_labels.json")]
    ).encode("utf-8"))
    for profile in profiles:
        if profile.entries:
            run.write(f"term_weights_{profile.cluster}.json",
                      reporting.term_weights(profile).encode("utf-8"))
            run.write(f"wordcloud_{profile.cluster}.svg", reporting.wordcloud_grid_svg(profile))
    coords = run.get("coords.jsonl")
    if coords is not None:
        legend = {s.cluster: s.label for s in summaries}
        run.write("scatter.svg", reporting.scatter_svg(*coords, legend))
    return {"artifacts": len(run.outputs)}


@dataclass(frozen=True)
class Stage:
    """One pipeline step.

    ``params(config, run)`` and the digests of the ``inputs`` artifacts decide
    whether a recorded result is still fresh; ``fn(run)`` recomputes it.
    """

    name: str
    params: Callable[[PipelineConfig, _Run], dict]
    inputs: tuple[str, ...]
    fn: Callable[[_Run], dict]


_STAGE_TABLE = (
    Stage("ingest", lambda c, run: {"format": c.corpus_format, "years": c.years},
          (), _ingest),
    Stage("classify", lambda c, run: {
        "provider": [c.chat_provider.kind, c.chat_provider.model_id, c.chat_provider.temperature],
        "template": _sha256(run.hwsw_template.system_text.encode("utf-8"))},
          ("records.jsonl",), _classify),
    Stage("embed", lambda c, run: {"provider": [c.embed_provider.kind, c.embed_provider.model_id],
                                   "format": vectors.MATRIX_FORMAT},
          ("hardware.jsonl",), _embed),
    Stage("cluster", lambda c, run: {
        "k": c.k, "elbow_range": list(c.elbow_range), "restarts": c.restarts,
        "max_iter": c.max_iter, "tol": c.tol, "normalize": c.normalize, "seed": c.seed},
          ("embeddings.jsonl",), _cluster),
    Stage("topics", lambda c, run: {
        "r": c.r, "k": int(run.counts["cluster"]["k"]), "per_document": c.per_document,
        "stopwords": sorted(run.stopwords), "blocklist": sorted(run.blocklist),
        "provider": [c.chat_provider.kind, c.chat_provider.model_id]},
          ("hardware.jsonl", "assignments.jsonl"), _topics),
    Stage("representatives", lambda c, run: {
        "m": c.m, "metric": c.metric, "normalize": c.normalize},
          ("embeddings.jsonl", "cluster_model.json", "assignments.jsonl"), _representatives),
    Stage("project", lambda c, run: {
        "perplexity": c.perplexity, "iterations": c.tsne_iterations,
        "learning_rate": c.learning_rate, "seed": c.seed, "normalize": c.normalize},
          ("embeddings.jsonl", "assignments.jsonl"), _project),
    Stage("report", lambda c, run: {"m": c.m},
          ("ngram_profiles.json", "topic_summaries.json", "representatives.json",
           "coords.jsonl", "classify_failures.jsonl"), _report),
)

STAGES = tuple(stage.name for stage in _STAGE_TABLE)


def run_pipeline(config: PipelineConfig, until: str | None = None) -> dict:
    """Run stages in order up to `until` (default: all) and return the manifest.

    Stage errors halt the run; the manifest written so far records the
    completed stages.
    """
    if until is not None and until not in STAGES:
        raise ValueError(f"unknown stage {until!r}")
    outdir = Path(config.output_dir)
    with _Lock(outdir):
        for stale in outdir.glob("*" + _PARTIAL):  # left by a run killed mid-write
            stale.unlink()
        manifest_path = outdir / "manifest.json"
        previous = {}
        if manifest_path.exists():
            doc = json.loads(manifest_path.read_text(encoding="utf-8"))
            previous = {s["name"]: s for s in doc.get("stages", [])}
        if config.dry_run:
            records, _ = _ingest_records(config)
            template = classifier.load_template("hwsw", config.template_path)
            planned = {
                "classify_calls": len(records),
                "classify_prompt_chars": sum(
                    len(classifier.build_hwsw_prompt(template, r)) for r in records),
                "embed_calls_upper_bound": len(records),
                "embed_chars_upper_bound": sum(len(r.description) for r in records),
                "summarize_calls": config.k if config.k is not None else "chosen by elbow",
                "note": "no provider was contacted; counts bound the billable calls",
            }
            # the previous run's files stay on disk, so its records stay too
            return _write_manifest(config, list(previous.values()), planned=planned)
        run = _Run(config)
        dirty = False
        try:
            for stage in _STAGE_TABLE[:STAGES.index(until) + 1 if until else None]:
                input_digest = _digest_params({"params": stage.params(config, run),
                                               "files": run.input_digests(stage)})
                prev = previous.get(stage.name)
                if (not dirty and prev is not None and prev.get("input_digest") == input_digest
                        and run.outputs_fresh(prev)):
                    record = dict(prev, status="cached")
                else:
                    dirty = True
                    run.outputs = {}
                    started = _utcnow()
                    t0 = time.perf_counter()
                    counts = stage.fn(run)
                    record = {"name": stage.name, "status": "computed",
                              "input_digest": input_digest, "outputs": run.outputs,
                              "counts": counts, "started_at": started,
                              "duration_s": round(time.perf_counter() - t0, 6)}
                    for rel in (prev or {}).get("outputs", {}):
                        # flat names only: a hand-edited manifest must not reach outside
                        if rel not in run.outputs and Path(rel).name == rel:
                            (outdir / rel).unlink(missing_ok=True)
                run.stages.append(record)
                run.counts[stage.name] = record["counts"]
                run.digests.update(record["outputs"])
                if record["status"] == "computed":
                    _write_manifest(config, run.stages, cache_torn_bytes=run.cache_torn_bytes())
            if until is not None:
                # later stages' files stay on disk, so keep their records: the
                # next run can then reuse them, or delete what they no longer write
                run.stages.extend(previous[name] for name in STAGES[STAGES.index(until) + 1:]
                                  if name in previous)
        finally:
            if "cache" in vars(run):
                run.cache.close()
            doc = _write_manifest(config, run.stages, cache_torn_bytes=run.cache_torn_bytes())
        return doc


def run_validate(config: PipelineConfig, fixture_paths: list[str]) -> classifier.ValidationReport:
    """Classify exactly the fixture records and score against their labels.

    Fixture ids are joined against the ingested corpus by id (no year
    filtering); unresolvable ids raise MissingDescriptions listing them.
    Emits the per-model summary table, its CSV mirror, and the predictions.
    """
    outdir = Path(config.output_dir)
    records: list[corpus.CveRecord] = []
    for path in config.corpus_paths:
        recs, _ = corpus.parse_records(Path(path).read_bytes(), config.corpus_format)
        records.extend(recs)
    by_id = {r.id: r for r in records}

    labeled: list[corpus.LabeledCve] = []
    missing: list[str] = []
    for path in fixture_paths:
        fixture = corpus.load_fixture(Path(path).read_bytes())
        if fixture.expected_label is None:
            raise ValueError(f"fixture {fixture.name!r} carries no label; cannot validate")
        for cve_id in fixture.ids:
            record = by_id.get(cve_id)
            if record is None:
                missing.append(cve_id)
            else:
                labeled.append(corpus.LabeledCve(record=record, label=fixture.expected_label))
    if missing:
        raise MissingDescriptions(missing)

    cache = gateway.ResponseCache(config.cache_path)
    template = classifier.load_template("hwsw", config.template_path)
    try:
        predictions, failures = classifier.classify_corpus(
            config.chat_provider, template, [lc.record for lc in labeled], cache=cache)
    finally:
        cache.close()
    if failures:
        raise CveMinerError(f"{len(failures)} records failed classification: {failures[:3]}")
    report = classifier.evaluate(predictions, labeled)

    md, csv = reporting.validation_summary(report, [(config.chat_provider.model_id, report)])
    outdir.mkdir(parents=True, exist_ok=True)
    _write(outdir / "validation_summary.md", md.encode("utf-8"))
    _write(outdir / "validation_summary.csv", csv.encode("utf-8"))
    _write(outdir / "validation_predictions.jsonl", classifier.dump_predictions(predictions))
    return report
