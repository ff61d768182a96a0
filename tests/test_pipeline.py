import fcntl
import http.client
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cveminer
from cveminer import clustering, corpus, gateway, pipeline, projection, vectors
from cveminer.assets import fixture_bytes
from cveminer.cli import main as cli_main
from cveminer.errors import CveMinerError
from cveminer.pipeline import STAGES, PipelineConfig, run_pipeline, run_validate


def write_config(tmp_path, **overrides):
    corpus_path = tmp_path / "mini.jsonl"
    if not corpus_path.exists():
        corpus_path.write_bytes(fixture_bytes("mini_corpus.jsonl"))
    doc = {
        "seed": 7,
        "corpus": {"paths": [str(corpus_path)], "format": "canonical-jsonl",
                   "years": [2021, 2024]},
        "providers": {
            "chat": {"kind": "mock-chat", "model_id": "mock-hwsw", "max_parallel": 4},
            "embed": {"kind": "mock-embed", "model_id": "mock-embed-64", "max_parallel": 4},
        },
        "clustering": {"k": None, "elbow_range": [2, 10], "restarts": 8},
        "projection": {"perplexity": 30, "iterations": 500},
        "output_dir": str(tmp_path / "out"),
        "cache_path": str(tmp_path / "cache" / "responses.jsonl"),
    }
    for key, value in overrides.items():
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return doc


def tree_bytes(outdir: Path, skip=("manifest.json",)):
    out = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and path.name not in skip:
            out[str(path.relative_to(outdir))] = path.read_bytes()
    return out


def stripped_manifest(outdir: Path):
    doc = json.loads((outdir / "manifest.json").read_text())
    doc.pop("created_at", None)
    for stage in doc["stages"]:
        stage.pop("started_at", None)
        stage.pop("duration_s", None)
        stage.pop("max_rss_mib", None)
        stage.pop("status", None)
    return doc


def test_pipeline_counts_and_artifacts(tmp_path):
    config = PipelineConfig.from_dict(write_config(tmp_path))
    manifest = run_pipeline(config)
    by_name = {s["name"]: s for s in manifest["stages"]}
    assert by_name["ingest"]["counts"] == {"ingested": 60, "rejected": 0}
    assert by_name["classify"]["counts"]["hardware"] == 24
    assert by_name["embed"]["counts"] == {"rows": 24, "dim": 64}
    assert by_name["cluster"]["counts"]["k"] == by_name["topics"]["counts"]["profiles"]
    outdir = tmp_path / "out"
    for name in ("rejects.jsonl", "predictions.jsonl", "hardware.jsonl",
                 "embeddings.f64", "elbow.json", "cluster_model.json",
                 "assignments.jsonl", "ngram_profiles.json", "topic_summaries.json",
                 "representatives.json", "coords.jsonl", "topic_table.md",
                 "representatives.md", "scatter.svg", "review_queue.json",
                 "yearly_counts.csv", "manifest.json"):
        assert (outdir / name).exists(), name
    assert not (outdir / ".lock").exists() and not (outdir / "records.jsonl").exists()
    model_doc = json.loads((outdir / "cluster_model.json").read_text(encoding="utf-8"))
    assert by_name["cluster"]["counts"]["converged"] is model_doc["converged"] is True


def test_pipeline_manifest_records_the_blas_pin(tmp_path, blas_threads):
    get, set_ = blas_threads
    set_(2)
    manifest = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)))
    symbol = projection._blas_threads()[0]
    assert symbol in {set_name for _, set_name in projection._BLAS_THREAD_SYMBOLS}
    assert manifest["blas"] == {"symbol": symbol, "replaced_threads": 2}
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["blas"] == manifest["blas"]
    assert get() == 2


def test_pipeline_restores_the_blas_thread_count_when_a_stage_raises(tmp_path, blas_threads,
                                                                      monkeypatch):
    get, set_ = blas_threads
    seen = []

    def failing_tsne(*args, **kwargs):
        seen.append(get())
        raise CveMinerError("injected projection failure")

    monkeypatch.setattr(projection, "tsne", failing_tsne)
    set_(2)
    with pytest.raises(CveMinerError, match="injected"):
        run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)))
    assert seen == [1]
    assert get() == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["blas"]["replaced_threads"] == 2


def test_pipeline_deterministic_across_runs(tmp_path):
    doc_a = write_config(tmp_path, output_dir=str(tmp_path / "out_a"),
                         cache_path=str(tmp_path / "cache_a.jsonl"))
    doc_b = write_config(tmp_path, output_dir=str(tmp_path / "out_b"),
                         cache_path=str(tmp_path / "cache_b.jsonl"))
    run_pipeline(PipelineConfig.from_dict(doc_a))
    run_pipeline(PipelineConfig.from_dict(doc_b))
    assert tree_bytes(tmp_path / "out_a") == tree_bytes(tmp_path / "out_b")
    assert stripped_manifest(tmp_path / "out_a") == stripped_manifest(tmp_path / "out_b")


def test_pipeline_resume_recomputes_later_stages_only(tmp_path):
    config = PipelineConfig.from_dict(write_config(tmp_path))
    run_pipeline(config)
    (tmp_path / "out" / "embeddings.f64").unlink()
    manifest = run_pipeline(config)
    status = {s["name"]: s["status"] for s in manifest["stages"]}
    assert status["ingest"] == "cached"
    assert status["classify"] == "cached"
    assert status["embed"] == "computed"
    assert status["cluster"] == "computed"
    assert status["report"] == "computed"


def test_pipeline_fully_cached_second_run(tmp_path):
    config = PipelineConfig.from_dict(write_config(tmp_path))
    run_pipeline(config)
    manifest = run_pipeline(config)
    assert all(s["status"] == "cached" for s in manifest["stages"])


def test_pipeline_param_change_invalidates_downstream(tmp_path):
    config = PipelineConfig.from_dict(write_config(tmp_path))
    run_pipeline(config)
    changed = PipelineConfig.from_dict(write_config(tmp_path, **{"report.m": 3}))
    manifest = run_pipeline(changed)
    status = {s["name"]: s["status"] for s in manifest["stages"]}
    assert status["ingest"] == "cached"
    assert status["topics"] == "cached"
    assert status["representatives"] == "computed"


def test_pipeline_smaller_k_leaves_no_stale_outputs(tmp_path):
    elbow_dir = tmp_path / "out"
    manifest = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)))
    old_k = {s["name"]: s["counts"] for s in manifest["stages"]}["cluster"]["k"]
    assert old_k > 2 and (elbow_dir / "elbow.json").exists()

    run_pipeline(PipelineConfig.from_dict(write_config(tmp_path, **{"clustering.k": 2})))
    assert not (elbow_dir / "elbow.json").exists()
    for j in range(2, old_k):
        assert not (elbow_dir / f"term_weights_{j}.json").exists()
        assert not (elbow_dir / f"wordcloud_{j}.svg").exists()
    fresh = write_config(tmp_path, output_dir=str(tmp_path / "fresh"),
                         cache_path=str(tmp_path / "fresh_cache.jsonl"), **{"clustering.k": 2})
    run_pipeline(PipelineConfig.from_dict(fresh))
    assert tree_bytes(elbow_dir) == tree_bytes(tmp_path / "fresh")


def test_pipeline_until_keeps_later_stage_records(tmp_path):
    elbow_dir = tmp_path / "out"
    manifest = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)))
    old_k = {s["name"]: s["counts"] for s in manifest["stages"]}["cluster"]["k"]
    assert old_k > 2

    cut = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)), until="embed")
    assert [s["name"] for s in cut["stages"]] == list(STAGES)
    assert cut["stages"][3:] == manifest["stages"][3:]
    rerun = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)))
    assert [s["status"] for s in rerun["stages"]] == ["cached"] * len(STAGES)

    run_pipeline(PipelineConfig.from_dict(write_config(tmp_path, **{"clustering.k": 2})))
    assert not (elbow_dir / "elbow.json").exists()
    for j in range(2, old_k):
        assert not (elbow_dir / f"term_weights_{j}.json").exists()
        assert not (elbow_dir / f"wordcloud_{j}.svg").exists()
    fresh = write_config(tmp_path, output_dir=str(tmp_path / "fresh"),
                         cache_path=str(tmp_path / "fresh_cache.jsonl"), **{"clustering.k": 2})
    run_pipeline(PipelineConfig.from_dict(fresh))
    assert tree_bytes(elbow_dir) == tree_bytes(tmp_path / "fresh")


def test_pipeline_split_runs_match_one_shot(tmp_path):
    split = PipelineConfig.from_dict(write_config(tmp_path))
    for name in STAGES:
        run_pipeline(split, until=name)
    one_shot = write_config(tmp_path, output_dir=str(tmp_path / "one_shot"),
                            cache_path=str(tmp_path / "one_shot_cache.jsonl"))
    run_pipeline(PipelineConfig.from_dict(one_shot))
    assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "one_shot")
    assert stripped_manifest(tmp_path / "out") == stripped_manifest(tmp_path / "one_shot")


def test_pipeline_manifest_reports_torn_cache_tail(tmp_path):
    clean = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)))
    assert clean["cache_torn_bytes"] == 0
    torn = b'{"key": "0123", "kind": "chat", "mo'  # an append cut off mid-line
    with open(tmp_path / "cache" / "responses.jsonl", "ab") as fh:
        fh.write(torn)
    rerun = PipelineConfig.from_dict(write_config(tmp_path, output_dir=str(tmp_path / "rerun")))
    manifest = run_pipeline(rerun)
    assert manifest["cache_torn_bytes"] == len(torn)
    on_disk = json.loads((tmp_path / "rerun" / "manifest.json").read_text(encoding="utf-8"))
    assert on_disk["cache_torn_bytes"] == len(torn)
    assert tree_bytes(tmp_path / "rerun") == tree_bytes(tmp_path / "out")


def test_pipeline_reasks_corrupt_cache_lines(tmp_path, monkeypatch):
    clean = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)))
    assert clean["cache_skipped_lines"] == 0
    path = tmp_path / "cache" / "responses.jsonl"
    lines = path.read_bytes().split(b"\n")
    chat = next(i for i, line in enumerate(lines) if b'"kind": "chat"' in line)
    lines[chat] = lines[chat][:40]  # cut mid-line, then appended to
    embed = next(i for i, line in enumerate(lines) if b'"kind": "embed"' in line)
    doc = json.loads(lines[embed])
    doc["value"] = [*gateway.decode_f64(doc.pop("f64"))[:-1], float("inf")]
    lines[embed] = json.dumps(doc).encode("utf-8")  # an older decimal line, not finite
    path.write_bytes(b"\n".join(lines))
    calls = []
    for name in ("mock_chat_reply", "mock_embed_vector"):
        real = getattr(gateway, name)
        monkeypatch.setattr(gateway, name, lambda model_id, text, real=real:
                            calls.append(model_id) or real(model_id, text))
    for rerun in ("rerun", "rerun2"):
        config = write_config(tmp_path, output_dir=str(tmp_path / rerun))
        manifest = run_pipeline(PipelineConfig.from_dict(config))
        assert manifest["cache_skipped_lines"] == 2
        assert sorted(calls) == ["mock-embed-64", "mock-hwsw"]  # asked once, then cached
        assert tree_bytes(tmp_path / rerun) == tree_bytes(tmp_path / "out")


def test_pipeline_sends_empty_and_blocked_labels_to_review(tmp_path, monkeypatch):
    real = gateway.mock_chat_reply
    replies = iter(["  \n", "Intel firmware issue"])  # the first two summary prompts
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda model_id, prompt: (
        next(replies, None) if "\nKeywords: " in prompt else None) or real(model_id, prompt))
    config = _config_file(tmp_path)
    assert cli_main(["pipeline", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert json.loads((out / "review_queue.json").read_text(encoding="utf-8")) == [
        {"id": "cluster-0", "stage": "summarize", "reason": "empty label", "raw": ""},
        {"id": "cluster-1", "stage": "summarize", "reason": "blocked term",
         "raw": "Intel firmware issue"}]
    assert json.loads((out / "blocked_labels.json").read_text(encoding="utf-8")) == [
        {"cluster": 0, "label": "", "term": None},
        {"cluster": 1, "label": "Intel firmware issue", "term": "intel"}]
    table = (out / "topic_table.md").read_text(encoding="utf-8")
    assert table.count("(needs review)") == 2
    # the cached empty answer blocks no later run: a re-run is all cached, and
    # a fresh output dir over the same cache asks no provider
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda *a: pytest.fail("provider called"))
    assert cli_main(["pipeline", "--config", str(config)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert [s["status"] for s in manifest["stages"]] == ["cached"] * len(STAGES)
    assert cli_main(["pipeline", "--config", str(config), "--out", str(tmp_path / "rerun")]) == 0
    assert tree_bytes(tmp_path / "rerun") == tree_bytes(out)


def test_pipeline_report_follows_a_change_of_blocked_labels_alone(tmp_path, monkeypatch):
    # every summary label is blocked, by another term per chat model, so the
    # topics stage rewrites blocked_labels.json and nothing else the report reads
    real = gateway.mock_chat_reply
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda model_id, prompt: (
        ("adobe label" if model_id == "mock-other" else "acer label")
        if "\nKeywords: " in prompt else real(model_id, prompt)))
    run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)))
    other = PipelineConfig.from_dict(write_config(tmp_path, **{"providers.chat.model_id": "mock-other"}))
    run_pipeline(other, until="topics")
    manifest = run_pipeline(other)
    assert [s["status"] for s in manifest["stages"]] == ["cached"] * 7 + ["computed"]
    out = tmp_path / "out"
    labels = {b["label"] for b in json.loads((out / "blocked_labels.json").read_text(encoding="utf-8"))}
    queue = {q["raw"] for q in json.loads((out / "review_queue.json").read_text(encoding="utf-8"))}
    assert labels == queue == {"adobe label"}


def test_every_artifact_a_stage_reads_is_a_declared_input(tmp_path, monkeypatch):
    reads: dict[str, set] = {name: set() for name in STAGES}
    running = []
    real_get = pipeline._Run.get

    def get(run, name):
        reads[running[-1]].add(name)
        return real_get(run, name)

    def traced(stage):
        def fn(run):
            running.append(stage.name)
            return stage.fn(run)
        return replace(stage, fn=fn)

    monkeypatch.setattr(pipeline._Run, "get", get)
    monkeypatch.setattr(pipeline, "_STAGE_TABLE", tuple(map(traced, pipeline._STAGE_TABLE)))
    config = PipelineConfig.from_dict(write_config(tmp_path))
    # a split run: the second half parses what the first half wrote
    written = {s["name"]: set(s["outputs"]) for s in run_pipeline(config, until="cluster")["stages"]}
    written.update((s["name"], set(s["outputs"])) for s in run_pipeline(config)["stages"])
    assert running == list(STAGES)
    for stage in pipeline._STAGE_TABLE:
        assert reads[stage.name] <= set(stage.inputs) | written[stage.name], stage.name
    assert all(reads[name] for name in STAGES[1:])


def test_cold_run_parses_no_artifact(tmp_path, monkeypatch):
    parsed = []
    monkeypatch.setattr(pipeline, "_PARSERS", {
        name: lambda run, data, name=name, parse=parse: parsed.append(name) or parse(run, data)
        for name, parse in pipeline._PARSERS.items()})
    manifest = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)))
    assert [s["status"] for s in manifest["stages"]] == ["computed"] * len(STAGES)
    assert parsed == []


def test_run_holds_only_values_a_later_stage_reads(tmp_path, monkeypatch):
    runs, held = [], []

    class Run(pipeline._Run):
        def __init__(self, config):
            super().__init__(config)
            runs.append(self)

    def traced(stage):
        def fn(run):
            held.append((stage.name, set(run.values), "matrix" in vars(run)))
            return stage.fn(run)
        return replace(stage, fn=fn)

    monkeypatch.setattr(pipeline, "_Run", Run)
    monkeypatch.setattr(pipeline, "_STAGE_TABLE", tuple(map(traced, pipeline._STAGE_TABLE)))
    inputs = {stage.name: set(stage.inputs) for stage in pipeline._STAGE_TABLE}
    config = PipelineConfig.from_dict(write_config(tmp_path))
    # a split run: the first half computes, the second half parses what it wrote
    for until, computed in (("cluster", STAGES[:4]), (None, STAGES[4:])):
        held.clear()
        run_pipeline(config, until=until)
        table = STAGES[:STAGES.index(until) + 1] if until else STAGES
        assert [name for name, _, _ in held] == list(computed)
        for name, values, has_matrix in held:
            read_later = set().union(*(inputs[n] for n in table[table.index(name):]))
            assert values <= read_later, name
            assert pipeline.EMBEDDINGS in read_later or not has_matrix, name
        assert runs[-1].values == {} and "matrix" not in vars(runs[-1])


def test_pipeline_manifest_records_peak_memory_per_stage(tmp_path):
    manifest = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path)))
    peaks = [s["max_rss_mib"] for s in manifest["stages"]]
    assert len(peaks) == len(STAGES) and peaks == sorted(peaks) and peaks[0] > 1.0
    assert all(b"max_rss_mib" not in data for data in tree_bytes(tmp_path / "out").values())


def test_pipeline_asks_a_classify_provider_error_again(tmp_path, monkeypatch, failing_inputs):
    real_chat, real_embed = gateway.mock_chat_reply, gateway.mock_embed_vector
    config = PipelineConfig.from_dict(write_config(tmp_path))
    victim = "CVE-2021-4100"  # a software record: the hardware set does not change
    failing_inputs(victim, status=429)  # every attempt
    first = run_pipeline(config)["stages"][1]
    failures = (tmp_path / "out" / "classify_failures.jsonl").read_text(encoding="utf-8")
    assert victim in failures and "status=429" in failures

    calls = []
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda *a: calls.append(a[1]) or real_chat(*a))
    monkeypatch.setattr(gateway, "mock_embed_vector", lambda *a: calls.append(a[1]) or real_embed(*a))
    second = run_pipeline(config)["stages"][1]
    assert second["status"] == "computed"
    assert len(calls) == 1 and victim in calls[0]  # every answered record was a cache hit
    assert (tmp_path / "out" / "classify_failures.jsonl").read_bytes() == b""
    assert first["counts"]["failures"] == first["counts"]["provider_errors"] == 1
    assert second["counts"]["failures"] == second["counts"]["provider_errors"] == 0
    assert [s["status"] for s in run_pipeline(config)["stages"]] == ["cached"] * len(STAGES)


def test_pipeline_keeps_an_unparseable_label_cached(tmp_path, monkeypatch):
    real = gateway.mock_chat_reply
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda model_id, prompt: (
        "maybe" if "CVE-2021-4100" in prompt else real(model_id, prompt)))
    config = PipelineConfig.from_dict(write_config(tmp_path))
    counts = run_pipeline(config)["stages"][1]["counts"]
    assert (counts["failures"], counts["provider_errors"]) == (1, 0)
    assert [s["status"] for s in run_pipeline(config)["stages"]] == ["cached"] * len(STAGES)


def test_pipeline_cached_rerun_never_opens_response_cache(tmp_path, monkeypatch):
    config = PipelineConfig.from_dict(write_config(tmp_path))
    run_pipeline(config)

    def refuse(*args, **kwargs):
        raise AssertionError("a fully cached run must not load the response cache")

    monkeypatch.setattr(gateway, "ResponseCache", refuse)
    manifest = run_pipeline(config)
    assert [s["status"] for s in manifest["stages"]] == ["cached"] * 8


def _as_decimal_lines(data: bytes, old_field: str) -> bytes:
    """jsonl lines with their "f64" vector rewritten as a decimal list, as
    versions before the base64 encoding wrote them."""
    out = []
    for line in data.decode("utf-8").splitlines():
        doc = json.loads(line)
        doc = {(old_field if k == "f64" else k): (gateway.decode_f64(v).tolist() if k == "f64" else v)
               for k, v in doc.items()}
        out.append(json.dumps(doc, ensure_ascii=False))
    return ("\n".join(out) + "\n").encode("utf-8")


def _as_older_layout(outdir: Path, config: PipelineConfig, vector_field: str) -> None:
    """Rewrite a run's output dir as versions before raw float64 embeddings
    left it: a records.jsonl copy of the corpus, an embeddings.jsonl with one
    {"id", vector_field} line per row ("f64": base64 of the float64 bytes;
    "v": a decimal list, the oldest layout), and stage records digested as
    those versions digested them."""
    matrix = vectors.load_matrix((outdir / pipeline.EMBEDDINGS).read_bytes())
    (outdir / pipeline.EMBEDDINGS).unlink()
    lines = [json.dumps({"dim": matrix.dim, "model": matrix.model_id, "normalized": False})]
    lines += [json.dumps({"id": i, "f64": gateway.encode_f64(row)})
              for i, row in zip(matrix.ids, matrix.rows)]
    old_matrix = ("\n".join(lines) + "\n").encode("utf-8")
    if vector_field == "v":
        old_matrix = _as_decimal_lines(old_matrix, "v")
    old_records = corpus.dump_records(pipeline._ingest_records(config)[0])
    (outdir / "embeddings.jsonl").write_bytes(old_matrix)
    (outdir / "records.jsonl").write_bytes(old_records)

    manifest = json.loads((outdir / "manifest.json").read_text())
    records = {s["name"]: s for s in manifest["stages"]}
    records["ingest"]["outputs"]["records.jsonl"] = pipeline._sha256(old_records)
    records["embed"]["outputs"] = {"embeddings.jsonl": pipeline._sha256(old_matrix)}
    digests = {name: d for record in records.values() for name, d in record["outputs"].items()}
    provider = config.embed_provider
    params = {"ingest": {"format": config.corpus_format, "years": config.years},
              "embed": {"provider": [provider.kind, provider.model_id],
                        **({"format": "f64-base64"} if vector_field == "f64" else {})}}
    inputs = {"ingest": None, "classify": ["records.jsonl"], "embed": ["hardware.jsonl"],
              "cluster": ["embeddings.jsonl"],
              "representatives": ["embeddings.jsonl", "cluster_model.json", "assignments.jsonl"],
              "project": ["embeddings.jsonl", "assignments.jsonl"]}
    run = pipeline._Run(config)
    for stage in pipeline._STAGE_TABLE:
        if stage.name in inputs:
            files = inputs[stage.name]
            records[stage.name]["input_digest"] = pipeline._digest_params({
                "params": params.get(stage.name) or stage.params(config, run),
                "files": [pipeline._digest_file(Path(p)) for p in config.corpus_paths]
                if files is None else [digests[name] for name in files]})
    (outdir / "manifest.json").write_text(json.dumps(manifest))


def _upgrades_without_billing(monkeypatch, outdir: Path, config: PipelineConfig,
                              expected: dict, expected_manifest: dict) -> None:
    """One run over an older version's dir bills nothing, leaves the tree a
    fresh run writes, and the next run reuses every stage."""
    cache_path = Path(config.cache_path)
    old_cache = cache_path.read_bytes()
    calls = []
    monkeypatch.setattr(gateway, "mock_embed_vector", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda *a, **k: calls.append(a))
    manifest = run_pipeline(config)
    assert calls == []
    assert [s["status"] for s in manifest["stages"]] == ["computed"] * len(STAGES)
    assert not (outdir / "records.jsonl").exists() and not (outdir / "embeddings.jsonl").exists()
    assert tree_bytes(outdir) == expected
    assert stripped_manifest(outdir) == expected_manifest
    assert cache_path.read_bytes() == old_cache  # nothing re-billed, nothing appended
    assert [s["status"] for s in run_pipeline(config)["stages"]] == ["cached"] * len(STAGES)


def test_pipeline_reuses_decimal_vectors_of_older_versions_without_billing(tmp_path, monkeypatch):
    doc = write_config(tmp_path)
    config = PipelineConfig.from_dict(doc)
    run_pipeline(config)
    outdir, cache_path = tmp_path / "out", Path(doc["cache_path"])
    expected, expected_manifest = tree_bytes(outdir), stripped_manifest(outdir)

    # the output dir and cache as the version before base64 vectors left them:
    # decimal vectors, and an embed record whose params carry no format marker
    cache_path.write_bytes(_as_decimal_lines(cache_path.read_bytes(), "value"))
    _as_older_layout(outdir, config, "v")
    old_cache = cache_path.read_bytes()
    assert b'"f64"' not in old_cache and b'"value": [' in old_cache
    assert b'"v": [' in (outdir / "embeddings.jsonl").read_bytes()
    _upgrades_without_billing(monkeypatch, outdir, config, expected, expected_manifest)


def test_pipeline_upgrades_base64_embeddings_and_a_records_copy_without_billing(tmp_path,
                                                                                monkeypatch):
    config = PipelineConfig.from_dict(write_config(tmp_path))
    run_pipeline(config)
    outdir = tmp_path / "out"
    expected, expected_manifest = tree_bytes(outdir), stripped_manifest(outdir)
    _as_older_layout(outdir, config, "f64")
    assert b'"f64": "' in (outdir / "embeddings.jsonl").read_bytes()
    _upgrades_without_billing(monkeypatch, outdir, config, expected, expected_manifest)


def test_pipeline_classify_rereads_the_corpus_after_a_cached_ingest(tmp_path, monkeypatch):
    doc = write_config(tmp_path)
    one_shot = dict(doc, output_dir=str(tmp_path / "one_shot"))
    run_pipeline(PipelineConfig.from_dict(one_shot))  # warms the shared cache
    cache_path = Path(doc["cache_path"])
    warm_cache = cache_path.read_bytes()
    reads, calls = [], []
    real_ingest = pipeline._ingest_records
    monkeypatch.setattr(pipeline, "_ingest_records", lambda c: reads.append(1) or real_ingest(c))
    monkeypatch.setattr(gateway, "mock_embed_vector", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda *a, **k: calls.append(a))

    config = PipelineConfig.from_dict(doc)
    run_pipeline(config, until="ingest")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "manifest.json", "rejects.jsonl", "yearly_counts.csv"]
    manifest = run_pipeline(config)
    assert [s["status"] for s in manifest["stages"]] == ["cached"] + ["computed"] * 7
    assert len(reads) == 2 and calls == []  # ingest's parse, then classify's
    assert cache_path.read_bytes() == warm_cache
    assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "one_shot")
    assert stripped_manifest(tmp_path / "out") == stripped_manifest(tmp_path / "one_shot")


def test_pipeline_clusters_cached_read_only_rows_without_normalizing(tmp_path, monkeypatch):
    raw = {"clustering.normalize": False}
    config = PipelineConfig.from_dict(write_config(tmp_path, **raw))
    run_pipeline(config)
    seen = []
    real_fit = clustering.fit_best_of
    monkeypatch.setattr(clustering, "fit_best_of", lambda matrix, *a: seen.append(
        (matrix.normalized, matrix.rows.flags.writeable)) or real_fit(matrix, *a))
    changed = PipelineConfig.from_dict(write_config(tmp_path, **raw, **{"clustering.k": 3}))
    manifest = run_pipeline(changed)
    assert [s["status"] for s in manifest["stages"]] == ["cached"] * 3 + ["computed"] * 5
    assert seen == [(False, False)]  # the loaded rows themselves
    fresh = write_config(tmp_path, output_dir=str(tmp_path / "fresh"),
                         cache_path=str(tmp_path / "fresh_cache.jsonl"), **raw,
                         **{"clustering.k": 3})
    run_pipeline(PipelineConfig.from_dict(fresh))
    assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "fresh")


@pytest.mark.parametrize("victim", ["manifest.json", "cluster_model.json"])
def test_pipeline_write_killed_midway_keeps_previous_file(tmp_path, monkeypatch, victim):
    config = PipelineConfig.from_dict(write_config(tmp_path))
    run_pipeline(config)
    outdir = tmp_path / "out"
    first = tree_bytes(outdir)
    before = (outdir / victim).read_bytes()

    class Killed(BaseException):
        """The process dying mid-write: nothing after it runs or writes."""

    real_write_bytes = Path.write_bytes
    dead = []

    def dies_halfway(self, data):
        if dead:
            raise Killed
        if self.name.startswith(victim):
            real_write_bytes(self, data[:len(data) // 2])
            dead.append(self)
            raise Killed
        return real_write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", dies_halfway)
    with pytest.raises(Killed):  # a k=2 run recomputes the cluster stage and dies in it
        run_pipeline(PipelineConfig.from_dict(write_config(tmp_path, **{"clustering.k": 2})))
    monkeypatch.undo()
    assert (outdir / victim).read_bytes() == before
    assert dead[0].exists()  # the half-written file the kill left behind

    manifest = run_pipeline(config)
    if victim == "cluster_model.json":  # killed before any rename: every stage is still fresh
        assert [s["status"] for s in manifest["stages"]] == ["cached"] * len(STAGES)
    listed = {name for s in manifest["stages"] for name in s["outputs"]}
    assert {p.name for p in outdir.iterdir()} == listed | {"manifest.json"}
    assert tree_bytes(outdir) == first


def test_importing_the_cli_loads_neither_scipy_nor_requests():
    # nor the HTTP stack, which only a remote provider call imports
    heavy = {'scipy', 'requests', 'http.client', 'ssl', 'urllib.request'}
    code = f"import sys, cveminer.cli; print(sorted({heavy!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(cveminer.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_pipeline_empty_hardware_set(tmp_path):
    corpus_path = tmp_path / "sw_only.jsonl"
    lines = [json.dumps({"id": f"CVE-2021-{5000+i}",
                         "description": "plain web application flaw", "source": "t"})
             for i in range(6)]
    corpus_path.write_text("\n".join(lines) + "\n")
    doc = write_config(tmp_path)
    doc["corpus"]["paths"] = [str(corpus_path)]
    with pytest.raises(CveMinerError, match="no record was classified as hardware"):
        run_pipeline(PipelineConfig.from_dict(doc))
    # completed stages are still recorded in the manifest
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [s["name"] for s in manifest["stages"]] == ["ingest"]


def test_pipeline_until_stage(tmp_path):
    config = PipelineConfig.from_dict(write_config(tmp_path))
    manifest = run_pipeline(config, until="embed")
    assert [s["name"] for s in manifest["stages"]] == ["ingest", "classify", "embed"]
    assert not (tmp_path / "out" / "cluster_model.json").exists()


def test_pipeline_dry_run_contacts_no_provider(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("provider must not be called in a dry run")

    monkeypatch.setattr(gateway, "mock_chat_reply", explode)
    monkeypatch.setattr(gateway, "mock_embed_vector", explode)
    # every remote call, http or https, connects through this method
    monkeypatch.setattr(http.client.HTTPConnection, "connect", explode)

    doc = write_config(tmp_path, dry_run=True)
    manifest = run_pipeline(PipelineConfig.from_dict(doc))
    assert manifest["planned"]["classify_calls"] == 60
    assert manifest["planned"]["embed_calls_upper_bound"] == 60
    assert manifest["planned"]["classify_prompt_chars"] > 0
    assert manifest["stages"] == []
    assert not (tmp_path / "out" / "records.jsonl").exists()


def test_pipeline_dry_run_keeps_previous_stage_records(tmp_path):
    outdir = tmp_path / "out"
    manifest = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path, **{"clustering.k": 6})))
    dry = run_pipeline(PipelineConfig.from_dict(write_config(tmp_path, dry_run=True)))
    assert dry["stages"] == manifest["stages"] and "planned" in dry

    run_pipeline(PipelineConfig.from_dict(write_config(tmp_path, **{"clustering.k": 3})))
    for j in range(3, 6):
        assert not (outdir / f"term_weights_{j}.json").exists()
        assert not (outdir / f"wordcloud_{j}.svg").exists()
    fresh = write_config(tmp_path, output_dir=str(tmp_path / "fresh"),
                         cache_path=str(tmp_path / "fresh_cache.jsonl"), **{"clustering.k": 3})
    run_pipeline(PipelineConfig.from_dict(fresh))
    assert tree_bytes(outdir) == tree_bytes(tmp_path / "fresh")


def test_pipeline_dry_run_respects_the_output_dir_lock(tmp_path):
    outdir = tmp_path / "out"
    outdir.mkdir()
    with open(outdir / ".lock", "w") as holder:  # a live run's lock
        fcntl.flock(holder, fcntl.LOCK_EX)
        with pytest.raises(CveMinerError, match="another run owns this directory"):
            run_pipeline(PipelineConfig.from_dict(write_config(tmp_path, dry_run=True)))
    assert not (outdir / "manifest.json").exists()


# Pinned at a release: a config document must keep digesting to the same
# run_id and stage input digests, or every output directory written before an
# upgrade recomputes (a field read as int instead of float is enough).
PINNED_RUN_IDS = {"minimal": "8e7f33a89550d536", "remote": "7e6a661ede972c8d"}
PINNED_STAGE_DIGESTS = {
    "example": ("8485eccde079e163", {
        "ingest": "077df69de0069970c03f76f6d498006e0b4badc0d142e8ed383a2144e0771438",
        "classify": "4c4bdd3faba978866aed01a0ee0a8f83f9cba45521f7254c460bd8a870dcee28",
        "embed": "cbf36937150223a2e6b5d45e1af499598fbbbd13387ddf409a537f6bba2ac50e",
        "cluster": "5ba2122a35023a2c79f2aafdd747a3fd60ea94f12e48688dc47f44c527f675a0",
        "topics": "fbaa0be8b79021c3ab3d1c6a714d8f9bb7cd5f1892d98f2b4929ea0e05c57369",
        "representatives": "571eb8da275ddcf0ab17f5db61886aed7c611b8216ecaa2c7956484a4a4a097b",
        "project": "48abcf20120605c09a5527b158598baaaba5e345984422b34a1f553db15f2237",
        "report": "aea0af8638f11ab9e087aebcd04c442a2b15edd965bcd2e0bf2df4e50040ab4d"}),
    "perfbench": ("ba9732f069430e48", {
        "ingest": "ba858708ce37c7ce7692f3efce6c1b875f07ace274678f7d712a65a49887688a",
        "classify": "955141f5db3d6a6b296e5365cbd12866287fb6a90e1aed7217786fd4993fa592",
        "embed": "36d664368fad065e578f3e6bc2119a664b57ce4225b8dc887709d97de4eff2a6",
        "cluster": "956bb544f39b6c9800959c90b71fc8894b83953af6466f2a8926d50752e63e96",
        "topics": "fbaa0be8b79021c3ab3d1c6a714d8f9bb7cd5f1892d98f2b4929ea0e05c57369",
        "representatives": "5e56a25824f439c0d31c056857d9be41c7e95b70e707f10d423079e667eb9f94",
        "project": "0b0ae2a91403a0d0be85450df98970e0eece9a641e7b9b1adc61709c31c27b60",
        "report": "73b252d6320510a611f7a70fc516244eaade9607b944ad3670f00b521d6a7be4"}),
}


def _pinned_doc(name: str) -> dict:
    if name == "example":
        return json.loads((Path(__file__).resolve().parents[1] / "demos" / "config.example.json")
                          .read_text(encoding="utf-8"))
    if name == "minimal":
        return {"corpus": {"paths": ["corpus.jsonl"]}, "output_dir": "out",
                "cache_path": "cache.jsonl"}
    doc = {"seed": 7, "corpus": {"paths": ["corpus.jsonl"]},  # perfbench's pipeline_config
           "providers": {"chat": {"kind": "mock-chat", "model_id": "mock-hwsw", "max_parallel": 2},
                         "embed": {"kind": "mock-embed", "model_id": "mock-embed-3072",
                                   "max_parallel": 2}},
           "clustering": {"elbow_range": [2, 10]}, "projection": {"iterations": 1000},
           "output_dir": "out", "cache_path": "cache.jsonl"}
    if name == "remote":
        doc["providers"]["chat"].update(kind="remote-chat",
                                        endpoint="http://127.0.0.1:8000/v1/chat/completions")
        doc["providers"]["embed"].update(kind="remote-embed",
                                         endpoint="http://127.0.0.1:8000/v1/embeddings")
    return doc


@pytest.mark.parametrize("name", sorted(PINNED_RUN_IDS))
def test_config_run_id_is_pinned(name):
    config = PipelineConfig.from_dict(_pinned_doc(name))
    assert pipeline._digest_params(config.identity())[:16] == PINNED_RUN_IDS[name]


@pytest.mark.parametrize("name", sorted(PINNED_STAGE_DIGESTS))
def test_config_stage_input_digests_are_pinned(tmp_path, name):
    doc = _pinned_doc(name)
    corpus_path = tmp_path / "mini.jsonl"
    corpus_path.write_bytes(fixture_bytes("mini_corpus.jsonl"))
    doc["corpus"]["paths"] = [str(corpus_path)]
    doc["output_dir"], doc["cache_path"] = str(tmp_path / "out"), str(tmp_path / "cache.jsonl")
    manifest = run_pipeline(PipelineConfig.from_dict(doc))
    run_id, digests = PINNED_STAGE_DIGESTS[name]
    assert manifest["run_id"] == run_id
    assert {s["name"]: s["input_digest"] for s in manifest["stages"]} == digests


def test_pipeline_ingests_nvd_feed_format(tmp_path):
    feed = {"vulnerabilities": [
        {"cve": {"id": f"CVE-2022-{6000+i}",
                 "descriptions": [{"lang": "en",
                                   "value": "firmware flash region writable" if i % 2 == 0
                                   else "web form input flaw"}]}}
        for i in range(8)]}
    feed_path = tmp_path / "feed.json"
    feed_path.write_text(json.dumps(feed))
    doc = write_config(tmp_path)
    doc["corpus"] = {"paths": [str(feed_path)], "format": "nvd-feed"}
    manifest = run_pipeline(PipelineConfig.from_dict(doc), until="classify")
    counts = {s["name"]: s["counts"] for s in manifest["stages"]}
    assert counts["ingest"]["ingested"] == 8
    assert counts["classify"]["hardware"] == 4


def test_pipeline_output_dir_locked(tmp_path):
    doc = write_config(tmp_path)
    outdir = tmp_path / "out"
    outdir.mkdir()
    with open(outdir / ".lock", "w") as holder:  # a live run's lock
        fcntl.flock(holder, fcntl.LOCK_EX)
        with pytest.raises(CveMinerError, match="another run owns this directory"):
            run_pipeline(PipelineConfig.from_dict(doc))
    assert (outdir / ".lock").exists() and not (outdir / "manifest.json").exists()


def test_pipeline_runs_after_the_lock_holder_is_killed(tmp_path):
    doc = write_config(tmp_path)
    outdir = tmp_path / "out"
    code = ("import sys, time; from pathlib import Path; from cveminer import pipeline; "
            "lock = pipeline._Lock(Path(sys.argv[1])).__enter__(); "
            "print('locked', flush=True); time.sleep(60)")
    env = dict(os.environ, PYTHONPATH=str(Path(cveminer.__file__).parents[1]))
    child = subprocess.Popen([sys.executable, "-c", code, str(outdir)], env=env,
                             stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "locked"
        with pytest.raises(CveMinerError, match="another run owns this directory"):
            run_pipeline(PipelineConfig.from_dict(doc))
    finally:
        child.kill()  # SIGKILL: the child cannot clean up after itself
        child.wait(timeout=30)
        child.stdout.close()
    assert (outdir / ".lock").exists()
    manifest = run_pipeline(PipelineConfig.from_dict(doc))
    assert [s["status"] for s in manifest["stages"]] == ["computed"] * len(STAGES)
    assert not (outdir / ".lock").exists()


def test_lock_taken_on_a_file_unlinked_meanwhile_is_retaken(tmp_path, monkeypatch):
    real_flock = fcntl.flock
    raced = []

    def flock(fd, operation):
        if not raced:  # another run locks, finishes and unlinks the file first
            raced.append(fd)
            with pipeline._Lock(tmp_path):
                pass
        return real_flock(fd, operation)

    monkeypatch.setattr(pipeline.fcntl, "flock", flock)
    with pipeline._Lock(tmp_path) as lock:
        assert raced and os.path.samestat(os.fstat(lock._fd), os.stat(tmp_path / ".lock"))
        with pytest.raises(CveMinerError, match="another run owns this directory"):
            pipeline._Lock(tmp_path).__enter__()
    assert not (tmp_path / ".lock").exists()


def _bench_paths(tmp_path):
    corpus_path = tmp_path / "bench.jsonl"
    corpus_path.write_bytes(fixture_bytes("mock_labeled_corpus.jsonl"))
    hw = tmp_path / "hw.json"
    hw.write_bytes(fixture_bytes("mock_labeled_hardware.json"))
    sw = tmp_path / "sw.json"
    sw.write_bytes(fixture_bytes("mock_labeled_software.json"))
    return corpus_path, hw, sw


def test_validate_benchmark_accuracy(tmp_path):
    corpus_path, hw, sw = _bench_paths(tmp_path)
    doc = write_config(tmp_path)
    doc["corpus"]["paths"] = [str(corpus_path)]
    report = run_validate(PipelineConfig.from_dict(doc), [str(hw), str(sw)])
    assert (report.tp, report.tn, report.fp, report.fn) == (100, 99, 1, 0)
    assert report.accuracy == 0.995
    outdir = tmp_path / "out"
    assert (outdir / "validation_summary.md").exists()
    assert "0.995" in (outdir / "validation_summary.csv").read_text()


def test_validate_perfect_subset(tmp_path):
    corpus_path, hw, _ = _bench_paths(tmp_path)
    doc = write_config(tmp_path)
    doc["corpus"]["paths"] = [str(corpus_path)]
    report = run_validate(PipelineConfig.from_dict(doc), [str(hw)])
    assert report.accuracy == 1.0 and report.n == 100


def test_validate_respects_the_output_dir_lock(tmp_path):
    corpus_path, hw, sw = _bench_paths(tmp_path)
    doc = write_config(tmp_path)
    doc["corpus"]["paths"] = [str(corpus_path)]
    outdir = tmp_path / "out"
    outdir.mkdir()
    with open(outdir / ".lock", "w") as holder:  # a live run's lock
        fcntl.flock(holder, fcntl.LOCK_EX)
        with pytest.raises(CveMinerError, match="another run owns this directory"):
            run_validate(PipelineConfig.from_dict(doc), [str(hw), str(sw)])
    assert [p.name for p in outdir.iterdir()] == [".lock"]
    assert not Path(doc["cache_path"]).exists()  # nothing was billed


def test_validate_missing_descriptions(tmp_path):
    corpus_path, hw, _ = _bench_paths(tmp_path)
    fixture = {"name": "missing", "label": 1,
               "ids": [f"CVE-2020-{9000+i}" for i in range(10)]}
    missing_path = tmp_path / "missing.json"
    missing_path.write_text(json.dumps(fixture))
    doc = write_config(tmp_path)
    doc["corpus"]["paths"] = [str(corpus_path)]
    ids = ", ".join(fixture["ids"])
    with pytest.raises(CveMinerError, match=f"^10 fixture ids missing from corpus: {ids}$"):
        run_validate(PipelineConfig.from_dict(doc), [str(missing_path)])


def test_validate_requires_labeled_fixture(tmp_path):
    corpus_path, _, _ = _bench_paths(tmp_path)
    unlabeled = tmp_path / "unlabeled.json"
    unlabeled.write_text(json.dumps({"name": "x", "label": None, "ids": []}))
    doc = write_config(tmp_path)
    doc["corpus"]["paths"] = [str(corpus_path)]
    with pytest.raises(ValueError):
        run_validate(PipelineConfig.from_dict(doc), [str(unlabeled)])


# --- command-line interface ---------------------------------------------------

def _config_file(tmp_path, **overrides):
    doc = write_config(tmp_path, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def test_cli_pipeline_success(tmp_path, capsys):
    code = cli_main(["pipeline", "--config", str(_config_file(tmp_path))])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("classify: computed") for line in lines)
    assert (tmp_path / "out" / "scatter.svg").exists()


def test_cli_stage_subcommand(tmp_path):
    code = cli_main(["classify", "--config", str(_config_file(tmp_path))])
    assert code == 0
    assert (tmp_path / "out" / "predictions.jsonl").exists()
    assert not (tmp_path / "out" / "embeddings.jsonl").exists()


def test_cli_representatives_subcommand(tmp_path):
    code = cli_main(["representatives", "--config", str(_config_file(tmp_path))])
    assert code == 0
    assert (tmp_path / "out" / "representatives.json").exists()
    assert not (tmp_path / "out" / "coords.jsonl").exists()


def test_cli_dotted_override(tmp_path):
    config = _config_file(tmp_path)
    code = cli_main(["cluster", "--config", str(config), "--clustering.k=3",
                     "--out", str(tmp_path / "out_k3")])
    assert code == 0
    model = json.loads((tmp_path / "out_k3" / "cluster_model.json").read_text())
    assert model["k"] == 3
    assert not (tmp_path / "out_k3" / "elbow.json").exists()


def test_cli_template_flag(tmp_path):
    alt = tmp_path / "alt_prompt.txt"
    alt.write_text("Answer 1 for hardware, 0 for software.\n")
    config = _config_file(tmp_path)
    assert cli_main(["classify", "--config", str(config), "--template", str(alt)]) == 0
    # alternate instructions still route through the DESC payload convention
    predictions = (tmp_path / "out" / "predictions.jsonl").read_text().splitlines()
    assert len(predictions) == 60


def test_report_ids_exist_in_source_corpus(tmp_path):
    config = PipelineConfig.from_dict(write_config(tmp_path))
    run_pipeline(config)
    outdir = tmp_path / "out"
    corpus_ids = {json.loads(line)["id"]
                  for line in (tmp_path / "mini.jsonl").read_text().splitlines()}
    import re
    pattern = re.compile(r"CVE-\d{4}-\d{4,7}")
    for name in ("topic_table.md", "representatives.md", "scatter.svg",
                 "review_queue.json", "coords.jsonl", "representatives.json"):
        found = set(pattern.findall((outdir / name).read_text()))
        assert found <= corpus_ids, f"{name} references unknown ids: {found - corpus_ids}"


def test_cli_seed_override_changes_manifest(tmp_path):
    config = _config_file(tmp_path)
    assert cli_main(["ingest", "--config", str(config), "--seed", "99"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_cli_dry_run(tmp_path, capsys):
    code = cli_main(["pipeline", "--config", str(_config_file(tmp_path)), "--dry-run"])
    assert code == 0
    assert "classify_calls" in capsys.readouterr().out


def test_cli_validate(tmp_path, capsys):
    corpus_path, hw, sw = _bench_paths(tmp_path)
    config = _config_file(tmp_path, **{"corpus.paths": [str(corpus_path)]})
    code = cli_main(["validate", "--config", str(config),
                     "--fixture", str(hw), "--fixture", str(sw)])
    assert code == 0
    assert "accuracy 0.995" in capsys.readouterr().out


def test_cli_exit_code_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["pipeline", "--config", str(missing)]) == 2
    # a config whose top level is not an object, with and without an override
    for doc, extras in [([], []), ("x", []), ([], ["--seed", "3"]), (None, [])]:
        path = tmp_path / "not_an_object.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(path), *extras]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err
    # a value of the wrong type names its key, before any stage runs
    misspelled = {"kind": "mock-chat", "model_id": "mock-hwsw", "max_paralel": 4}
    for overrides, extras, key in [
            ({"providers.chat": misspelled}, [], "providers.chat"),
            ({"clustering.elbow_range": 5}, [], "clustering.elbow_range"),
            ({}, ["--providers.chat=5"], "providers.chat"),
            ({"clustering.k": "three"}, [], "clustering.k"),
            # values are read as written: no truthy strings, no strings split into chars
            ({"clustering.normalize": "false"}, [], "clustering.normalize"),
            ({"topics.per_document": "no"}, [], "topics.per_document"),
            ({"dry_run": "false"}, [], "dry_run"),
            ({"corpus.paths": "corpus.jsonl"}, [], "corpus.paths"),
            ({"corpus.years": "2021"}, [], "corpus.years"),
            ({"clustering.elbow_range": "25"}, [], "clustering.elbow_range"),
            ({"corpus": 5}, [], "corpus.paths"),
            # out-of-range values, rejected before a stage computes or bills a call
            ({"projection.iterations": 0}, [], "projection.iterations"),
            ({"clustering.max_iter": 0}, [], "clustering.max_iter"),
            ({"clustering.restarts": 0}, [], "clustering.restarts"),
            ({"clustering.k": 0}, [], "clustering.k"),
            ({"projection.perplexity": 0}, [], "projection.perplexity"),
            ({}, ["--projection.perplexity=NaN"], "projection.perplexity"),
            ({"topics.r": 0}, [], "topics.r"),
            ({"report.m": 0}, [], "report.m"),
            ({}, ["--projection.learning_rate=NaN"], "projection.learning_rate"),
            ({"projection.learning_rate": -5}, [], "projection.learning_rate"),
            ({"clustering.elbow_range": [5, 2]}, [], "clustering.elbow_range"),
            ({"clustering.elbow_range": [0, 3]}, [], "clustering.elbow_range"),
            ({"clustering.elbow_range": [2, 3]}, [], "clustering.elbow_range"),
            ({"clustering.metric": "euclid"}, [], "clustering.metric"),
            ({"corpus.format": "csv"}, [], "corpus.format"),
            ({"corpus.years": [2024, 2021]}, [], "corpus.years"),
            # integers are read as written: no truncated fractions, no booleans
            ({"topics.r": 1.5}, [], "topics.r"),
            ({}, ["--seed=1.5"], "seed"),
            ({"clustering.k": True}, [], "clustering.k"),
            ({"corpus.years": [2021, 2024.5]}, [], "corpus.years"),
            # a key that names no setting
            ({}, ["--clustering.K=3"], "clustering.K"),
            ({"colour": "red"}, [], "colour"),
            ({}, ["--providers.extra.kind=mock-chat"], "providers.extra"),
            # provider number fields
            ({"providers.chat.max_parallel": 2.5}, [], "providers.chat"),
            ({"providers.chat.max_parallel": True}, [], "providers.chat"),
            ({"providers.embed.retry_limit": 1.5}, [], "providers.embed"),
            ({"providers.chat.timeout": -1}, [], "providers.chat"),
            ({"providers.chat.temperature": "hot"}, [], "providers.chat"),
            # each provider serves one role, set by its kind
            ({}, ["--providers.chat.kind=mock-embed"], "providers.chat"),
            ({}, ["--providers.embed.kind=mock-chat"], "providers.embed"),
            # float keys take a finite number, not a bool; tol and seed are not negative
            ({}, ["--projection.perplexity=true"], "projection.perplexity"),
            ({}, ["--projection.learning_rate=Infinity"], "projection.learning_rate"),
            ({}, ["--clustering.tol=NaN"], "clustering.tol"),
            ({}, ["--clustering.tol=-1"], "clustering.tol"),
            ({}, ["--seed=-1"], "seed")]:
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(_config_file(tmp_path, **overrides)),
                         *extras]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    assert PipelineConfig.from_dict(write_config(tmp_path, **{"clustering.k": "3"})).k == 3
    # the elbow range is checked only when the elbow chooses K
    assert PipelineConfig.from_dict(write_config(
        tmp_path, **{"clustering.k": 3.0, "clustering.elbow_range": [5, 2]})).k == 3


@pytest.mark.parametrize("key", ["classifier.template_path", "topics.stopwords_path",
                                 "topics.blocklist_path"])
def test_cli_missing_named_file_exits_before_any_work(tmp_path, capsys, key):
    config = _config_file(tmp_path, **{key: str(tmp_path / "absent.txt")})
    _, hw, _ = _bench_paths(tmp_path)
    commands = [["pipeline"], ["ingest"], ["pipeline", "--dry-run"]]
    if key == "classifier.template_path":
        commands.append(["validate", "--fixture", str(hw)])
    for command in commands:
        capsys.readouterr()
        assert cli_main([*command, "--config", str(config)]) == 2
        assert "absent.txt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


def test_cli_embed_failure_exits_3_naming_the_failed_ids(tmp_path, capsys):
    config = _config_file(tmp_path, **{"providers.embed.model_id": "mock-fail-embed-64",
                                       "providers.embed.retry_limit": 0})
    assert cli_main(["pipeline", "--config", str(config)]) == 3
    hardware = corpus.parse_records((tmp_path / "out" / "hardware.jsonl").read_bytes())[0]
    err = capsys.readouterr().err
    ids = ", ".join(r.id for r in hardware[:3])
    assert (f"{len(hardware)} embeddings failed (0 completed and cached): {ids}, ...; "
            "the first with provider error (status=503)") in err


def test_cli_exit_code_data_error(tmp_path):
    config = _config_file(tmp_path, **{"corpus.paths": [str(tmp_path / "absent.jsonl")]})
    assert cli_main(["pipeline", "--config", str(config)]) == 2


def test_cli_exit_code_enumerated_failures(tmp_path):
    corpus_path, hw, _ = _bench_paths(tmp_path)
    config = _config_file(tmp_path, **{
        "corpus.paths": [str(corpus_path)],
        "providers.chat.model_id": "mock-fail-hwsw",
        "providers.chat.retry_limit": 0,
    })
    # per-record failures are enumerated and surface as a data error
    code = cli_main(["validate", "--config", str(config), "--fixture", str(hw)])
    assert code == 2


def test_cli_provider_exit_code_on_hard_failure(tmp_path, monkeypatch):
    from cveminer.errors import ProviderError

    def boom(*args, **kwargs):
        raise ProviderError(503, "down")

    monkeypatch.setattr("cveminer.pipeline.run_pipeline", boom)
    monkeypatch.setattr("cveminer.cli.run_pipeline", boom)
    config = _config_file(tmp_path)
    assert cli_main(["pipeline", "--config", str(config)]) == 3
