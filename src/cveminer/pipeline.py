"""End-to-end pipeline: ingest, classify, embed, cluster, topics,
representatives, project, report.

The stages are declared once, in order, in a stage table that
``run_pipeline`` walks in one loop; ``until`` cuts the table short.  Every
run writes a manifest (``manifest.json``) listing the stages, the digests of
their inputs, the artifacts they produced, and per-stage counts.  On a
re-run, a stage is skipped when its input digest (its ``version``, params
and input digests) and its outputs match its previous record, whatever ran
before it, unless the record counts provider errors: classify's failed calls
are not cached, so they are asked again.  A code change that makes a stage
write other bytes for the same inputs bumps its ``version``.  A recomputed
stage deletes every file of its previous record that it no longer writes, so
a parameter change (a smaller K, say) leaves none of the earlier run's
artifacts behind.  A run cut short by ``until`` keeps the previous records of
the stages it did not reach, since their files stay on disk.

Each consumed artifact is parsed at most once per run, and not at all when
its producer computed in the same run: the value is handed forward, which is
exact because every artifact format round-trips bit for bit.  The parsed
corpus is an input but no artifact: ingest hands it to classify, and a
classify that recomputes after a cached ingest parses the corpus files again.
Classify asks the provider in chunks of records
(``classifier.CHUNK_RECORDS``), so its prompts and replies take one chunk's
memory, not the corpus's.
Both stages take the corpus's digest (its files' digests, each file hashed
once per run, with ``corpus.format`` and ``corpus.years``) as their input.
The embeddings are stored as raw float64 (``vectors.dump_matrix``) and read
back as a read-only view of the file's bytes.  A value is
released once the last stage that declares it as an input has run (the
table cut by ``until`` decides which is last), and the raw embeddings as soon
as their normalized copy is built, so a run holds only what a later stage
reads.  Each computed stage's record gives ``max_rss_mib``, the process's
peak resident set once the stage is done; the stage whose figure first
reaches the run's largest set the peak.  The format of an artifact that only
this module writes and reads (``assignments.jsonl``, ``cluster_model.json``,
``elbow.json``, ``coords.jsonl``, ...) lives here.

Every artifact and the manifest are written to a temporary file beside the
target and then renamed over it, so a run killed mid-write leaves the
previous file whole; the next run removes any temporary file left behind.
No write is synced to disk, so this guards against a killed run, not against
a crash of the machine.

An output directory is guarded by an exclusive ``flock`` on its ``.lock``
file; two runs may not share one.  The kernel releases the lock when its
holder dies, so a killed run does not block the next.  A dry run and
``run_validate`` take the lock too; a dry run's manifest keeps the previous
run's stage records next to the ``planned`` calls, since that run's files
stay on disk.
The response cache lives at its own configured path (outside the artifact
tree), so re-runs never re-bill completed provider calls.  It is opened only
when a stage computes, so a fully cached re-run never loads it, and closed
when the run ends.  The manifest's ``cache_torn_bytes`` and
``cache_skipped_lines`` count the torn last line's bytes and the bad lines
the run dropped from it (see ``gateway.ResponseCache``): 0 when the cache was
clean or the run never loaded it.  No artifact carries those numbers.

Every stage runs on one BLAS thread (``projection.one_blas_thread``), so the
artifacts do not depend on the host's default thread count.  The manifest's
``blas`` names the function that set it and the count it replaced, or holds
nulls when numpy's BLAS exports no known one.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import classifier, clustering, corpus, gateway, projection, reporting, topics, vectors
from .assets import blocklist as default_blocklist
from .assets import load_termfile_path
from .assets import stopwords as default_stopwords
from .errors import CveMinerError


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
        def reject(name: str, why: str):
            raise ValueError(f"config key {_DOC_KEYS[name][0]!r}: {why}")

        for name in ("r", "m", "restarts", "max_iter", "tsne_iterations", "k"):
            value = getattr(self, name)
            if value is not None and value < 1:
                reject(name, f"must be >= 1, got {value}")
        for name in ("perplexity", "learning_rate"):
            if not getattr(self, name) > 0:  # NaN included
                reject(name, f"must be > 0, got {getattr(self, name)}")
        for name in ("seed", "tol"):
            if not getattr(self, name) >= 0:  # NaN included
                reject(name, f"must be >= 0, got {getattr(self, name)}")
        if self.k is None and not 2 <= self.elbow_range[0] <= self.elbow_range[1] - 2:
            reject("elbow_range", f"need 2 <= k_min and k_max - k_min >= 2, got {list(self.elbow_range)}")
        for name, allowed in (("metric", clustering.METRICS), ("corpus_format", corpus.PARSE_FORMATS)):
            if getattr(self, name) not in allowed:
                reject(name, f"expected one of {allowed}, got {getattr(self, name)!r}")
        for name, kinds in (("chat_provider", gateway.CHAT_KINDS),
                            ("embed_provider", gateway.EMBED_KINDS)):
            if getattr(self, name).kind not in kinds:
                reject(name, f"expected a kind in {kinds}, got {getattr(self, name).kind!r}")
        if self.years is not None and self.years[0] > self.years[1]:
            reject("years", f"year range [{self.years[0]}, {self.years[1]}] is empty")
        if not self.corpus_paths:
            raise ValueError("at least one corpus path is required")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """Build from a config document; an absent key keeps the field's default."""
        kwargs = {"corpus_paths": [], "output_dir": doc["output_dir"],
                  "cache_path": doc["cache_path"]}
        for name, (dotted, coerce) in _DOC_KEYS.items():
            *sections, key = dotted.split(".")
            node = doc
            try:
                for section in sections:
                    node = node.get(section, {})
                    if not isinstance(node, dict):
                        raise TypeError(f"{section!r} is not an object")
                if key in node:
                    kwargs[name] = node[key] if coerce is None else coerce(node[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config key {dotted!r}: {exc}") from None
        _reject_unknown_keys(doc, "")
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


def _expect(ok, what: str):
    """A coercion that passes a value `ok` accepts and rejects any other."""
    def coerce(v):
        if not ok(v):
            raise TypeError(f"expected {what}, got {v!r}")
        return v
    return coerce


_bool = _expect(lambda v: isinstance(v, bool), "true or false")
_pair = _expect(lambda v: isinstance(v, list) and len(v) == 2, "a two-element list")


def _int(v) -> int:
    """`int(v)`, but a fraction or a bool is rejected instead of truncated."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v)


def _float(v) -> float:
    """`float(v)`, but a bool or a value that is not finite is rejected."""
    if isinstance(v, bool) or not math.isfinite(float(v)):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


# field -> (its dotted key in a config document, the coercion of a present
# value, None for none); a key the document leaves out keeps the field's default
_DOC_KEYS = {
    "corpus_paths": ("corpus.paths", _expect(
        lambda v: isinstance(v, list) and all(isinstance(p, str) for p in v), "a list of strings")),
    "corpus_format": ("corpus.format", None),
    "years": ("corpus.years", lambda v: None if v is None else tuple(map(_int, _pair(v)))),
    "seed": ("seed", _int),
    "chat_provider": ("providers.chat", lambda v: gateway.ProviderConfig(**v)),
    "embed_provider": ("providers.embed", lambda v: gateway.ProviderConfig(**v)),
    "template_path": ("classifier.template_path", None),
    "k": ("clustering.k", lambda v: None if v is None else _int(v)),
    "elbow_range": ("clustering.elbow_range", lambda v: tuple(map(_int, _pair(v)))),
    "restarts": ("clustering.restarts", _int),
    "max_iter": ("clustering.max_iter", _int),
    "tol": ("clustering.tol", _float),
    "normalize": ("clustering.normalize", _bool),
    "metric": ("clustering.metric", None),
    "r": ("topics.r", _int),
    "per_document": ("topics.per_document", _bool),
    "stopwords_path": ("topics.stopwords_path", None),
    "blocklist_path": ("topics.blocklist_path", None),
    "perplexity": ("projection.perplexity", _float),
    "tsne_iterations": ("projection.iterations", _int),
    "learning_rate": ("projection.learning_rate", _float),
    "m": ("report.m", _int),
    "dry_run": ("dry_run", _bool),
}
_KNOWN_KEYS = {dotted for dotted, _ in _DOC_KEYS.values()} | {"output_dir", "cache_path"}


def _reject_unknown_keys(node: dict, prefix: str) -> None:
    """Reject a key that names no setting (`ProviderConfig` checks its own)."""
    for key, value in node.items():
        dotted = prefix + key
        if isinstance(value, dict) and any(k.startswith(dotted + ".") for k in _KNOWN_KEYS):
            _reject_unknown_keys(value, dotted + ".")  # a section
        elif dotted not in _KNOWN_KEYS:
            raise ValueError(f"config key {dotted!r}: names no setting")


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
                raise CveMinerError(
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


def _json_line(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _jsonl_bytes(docs: list[dict]) -> bytes:
    return ("\n".join(json.dumps(d) for d in docs) + ("\n" if docs else "")).encode("utf-8")


def _parse_jsonl(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines() if line.strip()]


def _load_terms(path: str | None, bundled) -> frozenset[str]:
    return load_termfile_path(path) if path else bundled()


def _effective_perplexity(configured: float, n: int) -> float:
    # strict upper bound is (n - 1) / 3; clamp so small runs still project
    return min(configured, (n - 1) / 3.0 - 1e-9)


def _max_rss_mib() -> float:
    """The process's peak resident set so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, KiB elsewhere
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


def _asks_again(record: dict) -> bool:
    """Whether a stage record holds provider errors, which the next run asks again."""
    return record.get("counts", {}).get("provider_errors", 0) > 0


def _write_manifest(config: PipelineConfig, stages: list[dict], **fields) -> dict:
    """Write the manifest: the run's identity, its stage records and `fields`."""
    doc = {
        "run_id": _digest_params(config.identity())[:16],
        "seed": config.seed,
        "config": config.identity(),
        "created_at": _utcnow(),
        "stages": stages,
        **fields,
    }
    _write(Path(config.output_dir) / "manifest.json", _json_bytes(doc))
    return doc


def _ingest_records(config: PipelineConfig, seen: set[str] | None = None
                    ) -> tuple[list[corpus.CveRecord], list[corpus.RejectEntry]]:
    """The corpus's records and rejects.  When an id repeats, the files are
    parsed again with a `seen` set, so each later copy becomes a ``duplicate
    id`` reject; the first parse checks only afterwards, since an id set grown
    while parsing raised the peak memory of later stages."""
    records: list[corpus.CveRecord] = []
    rejects: list[corpus.RejectEntry] = []
    for path in config.corpus_paths:
        recs, rej = corpus.parse_records(Path(path).read_bytes(), config.corpus_format, seen)
        records.extend(recs)
        rejects.extend(rej)
    if seen is None and len({r.id for r in records}) < len(records):
        return _ingest_records(config, set())
    if config.years is not None:
        records = corpus.filter_by_years(records, config.years[0], config.years[1])
    return records, rejects


CORPUS = "corpus"  # the parsed input records: an input of stages, but no artifact
EMBEDDINGS = "embeddings.f64"


class _Run:
    """One run's stage records, artifact values and lazily opened resources.

    The template and term files the config names are read up front, so a
    missing one fails the run before it writes or bills anything.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.hwsw_template = classifier.load_template("hwsw", config.template_path)
        self.summarize_template = classifier.load_template("summarize")
        self.stopwords = _load_terms(config.stopwords_path, default_stopwords)
        self.blocklist = _load_terms(config.blocklist_path, default_blocklist)
        self.outdir = Path(config.output_dir)
        self.stages: list[dict] = []         # this run's manifest records
        self.counts: dict[str, dict] = {}    # stage name -> its counts
        self.digests: dict[str, str] = {}    # artifact -> sha256 recorded by this run
        self.values: dict[str, object] = {}  # artifact -> value, while a later stage reads it
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
            self.values[name] = (_ingest_records(self.config)[0] if name == CORPUS else
                                 _PARSERS[name](self, (self.outdir / name).read_bytes()))
        return self.values[name]

    @cached_property
    def corpus_digest(self) -> str:
        """The parsed corpus's identity: its files' digests, format and years."""
        config = self.config
        return _digest_params({"format": config.corpus_format, "years": config.years,
                               "files": [_digest_file(Path(p)) for p in config.corpus_paths]})

    def input_digests(self, stage: "Stage") -> list[str]:
        return [self.corpus_digest if name == CORPUS else self.digests[name]
                for name in stage.inputs]

    def outputs_fresh(self, record: dict) -> bool:
        for rel, digest in record.get("outputs", {}).items():
            path = self.outdir / rel
            if not path.exists() or _digest_file(path) != digest:
                return False
        return True

    @cached_property
    def cache(self) -> gateway.ResponseCache:
        return gateway.ResponseCache(self.config.cache_path)

    def cache_health(self) -> dict:
        loaded = "cache" in vars(self)
        return {"cache_torn_bytes": self.cache.torn_bytes if loaded else 0,
                "cache_skipped_lines": self.cache.skipped_lines if loaded else 0}

    @cached_property
    def matrix(self) -> vectors.EmbeddingMatrix:
        """The embeddings as clustering and projection see them; the normalized
        copy takes the raw value's place, which no stage reads after it."""
        matrix = self.get(EMBEDDINGS)
        if not self.config.normalize:
            return matrix
        del self.values[EMBEDDINGS]
        return vectors.normalize_matrix(matrix)

    def keep_only(self, names: set[str]) -> None:
        """Drop every value but those of `names`, the artifacts later stages read."""
        for name in set(self.values) - names:
            del self.values[name]
        if EMBEDDINGS not in names:
            vars(self).pop("matrix", None)  # built from that artifact


def _parse_model(run: _Run, data: bytes) -> clustering.ClusterModel:
    doc = json.loads(data)
    assignments = run.get("assignments.jsonl")
    return clustering.ClusterModel(
        k=int(doc["k"]), centroids=np.array(doc["centroids"], dtype=np.float64),
        assignments=np.array([assignments[i] for i in run.matrix.ids], dtype=np.int64),
        wcss=float(doc["wcss"]), seed=doc["seed"],
        iterations=int(doc["iterations"]), converged=bool(doc["converged"]))


def _parse_coords(run: _Run, data: bytes):
    """(ids, coords, each point's cluster), or None when the projection was skipped."""
    points = _parse_jsonl(data)
    if not points:
        return None
    return ([p["id"] for p in points], np.array([(p["x"], p["y"]) for p in points]),
            {p["id"]: p["cluster"] for p in points})


# artifact -> parse(run, data): the one place each consumed artifact is read
_PARSERS = {
    "hardware.jsonl": lambda run, data: corpus.parse_records(data)[0],
    "classify_failures.jsonl": lambda run, data: [(d["id"], d["reason"]) for d in _parse_jsonl(data)],
    EMBEDDINGS: lambda run, data: vectors.load_matrix(data),
    "assignments.jsonl": lambda run, data: {d["id"]: d["cluster"] for d in _parse_jsonl(data)},
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
    run.values[CORPUS] = records  # handed forward; classify re-reads the corpus otherwise
    run.write("rejects.jsonl", _jsonl_bytes(
        [{"index": r.index, "reason": r.reason, "raw": r.raw} for r in rejects]))
    run.write("yearly_counts.csv",
              reporting.growth_csv(corpus.yearly_counts(records)).encode("utf-8"))
    return {"ingested": len(records), "rejected": len(rejects)}


def _classify(run: _Run) -> dict:
    records = run.get(CORPUS)
    predictions, failures = classifier.classify_corpus(
        run.config.chat_provider, run.hwsw_template, records, cache=run.cache)
    unparseable = sum(why.startswith(classifier.UNPARSEABLE) for _, why in failures)
    hardware = classifier.hardware_subset(records, predictions)
    run.write("predictions.jsonl", classifier.dump_predictions(predictions))
    run.write("classify_failures.jsonl",
              _jsonl_bytes([{"id": i, "reason": why} for i, why in failures]), failures)
    run.write("hardware.jsonl", corpus.dump_records(hardware), hardware)
    if not hardware:
        raise CveMinerError("no record was classified as hardware")
    return {"predicted": len(predictions), "failures": len(failures),
            "provider_errors": len(failures) - unparseable, "hardware": len(hardware)}


def _embed(run: _Run) -> dict:
    matrix = vectors.embed_corpus(run.config.embed_provider, run.get("hardware.jsonl"),
                                  cache=run.cache)
    run.write(EMBEDDINGS, vectors.dump_matrix(matrix), matrix)
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
        run.write("elbow.json", _json_line(asdict(curve)))
    # elbow_select has already fitted chosen_k with these seeds; the refit
    # stays while perfbench's clustering.final_fit_s metric measures it
    model = clustering.fit_best_of(matrix, chosen_k, config.seed,
                                   config.restarts, config.max_iter, config.tol)
    run.write("cluster_model.json", _json_line(
        {"k": model.k, "seed": model.seed, "wcss": model.wcss, "iterations": model.iterations,
         "converged": model.converged, "centroids": model.centroids.tolist()}), model)
    lines = [{"id": i, "cluster": int(c)} for i, c in zip(matrix.ids, model.assignments)]
    run.write("assignments.jsonl", _jsonl_bytes(lines), {d["id"]: d["cluster"] for d in lines})
    return {"k": model.k, "wcss": model.wcss, "iterations": model.iterations,
            "converged": model.converged}


def _topics(run: _Run) -> dict:
    config, hardware, assignments = run.config, run.get("hardware.jsonl"), run.get("assignments.jsonl")
    profiles = topics.cluster_keywords([r.description for r in hardware],
                                       [assignments[r.id] for r in hardware],
                                       int(run.counts["cluster"]["k"]), config.r,
                                       run.blocklist, run.stopwords,
                                       per_document=config.per_document)
    summaries, blocked = [], []  # blocked: labels held for review; an empty one has no term
    for profile in profiles:
        label = None
        if profile.entries:
            label, term = topics.summarize_cluster(config.chat_provider, run.summarize_template,
                                                   profile, cache=run.cache, blocked=run.blocklist)
            if not label or term is not None:
                blocked.append({"cluster": profile.cluster, "label": label, "term": term})
                label = None
        summaries.append({"cluster": profile.cluster, "label": label, "keywords": profile.keywords,
                          "model": None if label is None else config.chat_provider.model_id})
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
    ids, coords = result.ids, result.coords
    run.write("coords.jsonl", _jsonl_bytes(
        [{"id": i, "x": float(x), "y": float(y), "cluster": assignments[i]}
         for i, (x, y) in zip(ids, coords)]), (ids, coords, assignments))
    return {"points": n, "perplexity": eff, "final_kl": result.final_kl}


def _report(run: _Run) -> dict:
    labels = {s["cluster"]: s["label"] or "(needs review)" for s in run.get("topic_summaries.json")}
    profiles = run.get("ngram_profiles.json")
    run.write("topic_table.md", reporting.topic_table(profiles, labels).encode("utf-8"))
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
        run.write("scatter.svg", reporting.scatter_svg(*coords, labels))
    return {"artifacts": len(run.outputs)}


@dataclass(frozen=True)
class Stage:
    """One pipeline step.

    ``version``, ``params(config, run)`` and the digests of the ``inputs``
    (artifacts, or ``CORPUS``) decide whether a recorded result is still
    fresh; ``fn(run)`` recomputes it.  A change that makes ``fn`` write other
    bytes for the same inputs bumps ``version``.
    """

    name: str
    version: int
    params: Callable[[PipelineConfig, _Run], dict]
    inputs: tuple[str, ...]
    fn: Callable[[_Run], dict]


_STAGE_TABLE = (
    Stage("ingest", 1, lambda c, run: {}, (CORPUS,), _ingest),
    Stage("classify", 1, lambda c, run: {
        "provider": [c.chat_provider.kind, c.chat_provider.model_id, c.chat_provider.temperature],
        "template": _sha256(run.hwsw_template.encode("utf-8"))},
          (CORPUS,), _classify),
    Stage("embed", 1, lambda c, run: {"provider": [c.embed_provider.kind, c.embed_provider.model_id]},
          ("hardware.jsonl",), _embed),
    Stage("cluster", 1, lambda c, run: {
        "k": c.k, "elbow_range": list(c.elbow_range), "restarts": c.restarts,
        "max_iter": c.max_iter, "tol": c.tol, "normalize": c.normalize, "seed": c.seed},
          (EMBEDDINGS,), _cluster),
    Stage("topics", 1, lambda c, run: {
        "r": c.r, "k": int(run.counts["cluster"]["k"]), "per_document": c.per_document,
        "stopwords": sorted(run.stopwords), "blocklist": sorted(run.blocklist),
        "provider": [c.chat_provider.kind, c.chat_provider.model_id],
        "template": _sha256(run.summarize_template.encode("utf-8"))},
          ("hardware.jsonl", "assignments.jsonl"), _topics),
    Stage("representatives", 1, lambda c, run: {
        "m": c.m, "metric": c.metric, "normalize": c.normalize},
          (EMBEDDINGS, "cluster_model.json", "assignments.jsonl"), _representatives),
    Stage("project", 1, lambda c, run: {
        "perplexity": c.perplexity, "iterations": c.tsne_iterations,
        "learning_rate": c.learning_rate, "seed": c.seed, "normalize": c.normalize},
          (EMBEDDINGS, "assignments.jsonl"), _project),
    Stage("report", 1, lambda c, run: {"m": c.m},
          ("ngram_profiles.json", "topic_summaries.json", "blocked_labels.json",
           "representatives.json", "coords.jsonl", "classify_failures.jsonl"), _report),
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
    run = _Run(config)
    # every stage runs on one BLAS thread: see projection.one_blas_thread
    with _Lock(outdir), projection.one_blas_thread() as blas:
        for stale in outdir.glob("*" + _PARTIAL):  # left by a run killed mid-write
            stale.unlink()
        manifest_path = outdir / "manifest.json"
        previous = {}
        if manifest_path.exists():
            doc = json.loads(manifest_path.read_text(encoding="utf-8"))
            previous = {s["name"]: s for s in doc.get("stages", [])}
        if config.dry_run:
            records, _ = _ingest_records(config)
            planned = {
                "classify_calls": len(records),
                "classify_prompt_chars": sum(
                    len(classifier.build_hwsw_prompt(run.hwsw_template, r)) for r in records),
                "embed_calls_upper_bound": len(records),
                "embed_chars_upper_bound": sum(len(r.description) for r in records),
                "summarize_calls": config.k if config.k is not None else "chosen by elbow",
                "note": "no provider was contacted; counts bound the billable calls",
            }
            # the previous run's files stay on disk, so its records stay too
            return _write_manifest(config, list(previous.values()), planned=planned)
        table = _STAGE_TABLE[:STAGES.index(until) + 1 if until else None]
        # after table[i] has run, only the artifacts that later stages read are held
        read_later = [set().union(*(s.inputs for s in table[i + 1:])) for i in range(len(table))]
        try:
            for stage, needed in zip(table, read_later):
                input_digest = _digest_params({"version": stage.version,
                                               "params": stage.params(config, run),
                                               "files": run.input_digests(stage)})
                prev = previous.get(stage.name)
                if (prev is not None and prev.get("input_digest") == input_digest
                        and not _asks_again(prev) and run.outputs_fresh(prev)):
                    record = dict(prev, status="cached")
                else:
                    run.outputs = {}
                    started = _utcnow()
                    t0 = time.perf_counter()
                    counts = stage.fn(run)
                    record = {"name": stage.name, "status": "computed",
                              "input_digest": input_digest, "outputs": run.outputs,
                              "counts": counts, "started_at": started,
                              "duration_s": round(time.perf_counter() - t0, 6),
                              "max_rss_mib": _max_rss_mib()}
                    for rel in (prev or {}).get("outputs", {}):
                        # flat names only: a hand-edited manifest must not reach outside
                        if rel not in run.outputs and Path(rel).name == rel:
                            (outdir / rel).unlink(missing_ok=True)
                run.keep_only(needed)
                run.stages.append(record)
                run.counts[stage.name] = record["counts"]
                run.digests.update(record["outputs"])
                if record["status"] == "computed":
                    _write_manifest(config, run.stages, **run.cache_health(), blas=blas)
            if until is not None:
                # later stages' files stay on disk, so keep their records: the
                # next run can then reuse them, or delete what they no longer write
                run.stages.extend(previous[name] for name in STAGES[STAGES.index(until) + 1:]
                                  if name in previous)
        finally:
            if "cache" in vars(run):
                run.cache.close()
            doc = _write_manifest(config, run.stages, **run.cache_health(), blas=blas)
        return doc


def run_validate(config: PipelineConfig, fixture_paths: list[str]) -> classifier.ValidationReport:
    """Classify exactly the fixture records and score against their labels.

    Fixture ids are joined against the ingested corpus by id (no year
    filtering); unresolvable ids raise CveMinerError naming up to 10 of them,
    and so does an id that two fixtures list, before any call.
    Emits the per-model summary table, its CSV mirror, and the predictions.
    """
    outdir = Path(config.output_dir)
    template = classifier.load_template("hwsw", config.template_path)
    with _Lock(outdir):
        by_id = {r.id: r for r in _ingest_records(replace(config, years=None))[0]}

        labeled: list[corpus.LabeledCve] = []
        missing: list[str] = []
        listed: set[str] = set()
        for path in fixture_paths:
            fixture = corpus.load_fixture(Path(path).read_bytes())
            if fixture.expected_label is None:
                raise ValueError(f"fixture {fixture.name!r} carries no label; cannot validate")
            for cve_id in fixture.ids:
                if cve_id in listed:
                    raise CveMinerError(f"{cve_id} is listed by more than one fixture")
                listed.add(cve_id)
                record = by_id.get(cve_id)
                if record is None:
                    missing.append(cve_id)
                else:
                    labeled.append(corpus.LabeledCve(record=record, label=fixture.expected_label))
        if missing:
            raise CveMinerError(f"{len(missing)} fixture ids missing from corpus: "
                                f"{', '.join(missing[:10])}")

        cache = gateway.ResponseCache(config.cache_path)
        try:
            predictions, failures = classifier.classify_corpus(
                config.chat_provider, template, [lc.record for lc in labeled], cache=cache)
        finally:
            cache.close()
        if failures:
            raise CveMinerError(f"{len(failures)} records failed classification: {failures[:3]}")
        report = classifier.evaluate(predictions, labeled)

        md, csv = reporting.validation_summary(report, [(config.chat_provider.model_id, report)])
        _write(outdir / "validation_summary.md", md.encode("utf-8"))
        _write(outdir / "validation_summary.csv", csv.encode("utf-8"))
        _write(outdir / "validation_predictions.jsonl", classifier.dump_predictions(predictions))
        return report
