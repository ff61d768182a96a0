import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

import cveminer
from cveminer import gateway, pipeline, vectors
from cveminer.assets import fixture_bytes
from cveminer.cli import main as cli_main
from cveminer.errors import (EmptyHardwareSet, MissingDescriptions,
                             OutputDirLocked)
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
    for name in ("records.jsonl", "predictions.jsonl", "hardware.jsonl",
                 "embeddings.jsonl", "elbow.json", "cluster_model.json",
                 "assignments.jsonl", "ngram_profiles.json", "topic_summaries.json",
                 "representatives.json", "coords.jsonl", "topic_table.md",
                 "representatives.md", "scatter.svg", "review_queue.json",
                 "yearly_counts.csv", "manifest.json"):
        assert (outdir / name).exists(), name
    assert not (outdir / ".lock").exists()
    model_doc = json.loads((outdir / "cluster_model.json").read_text(encoding="utf-8"))
    assert by_name["cluster"]["counts"]["converged"] is model_doc["converged"] is True


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
    (tmp_path / "out" / "embeddings.jsonl").unlink()
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
        doc = {(old_field if k == "f64" else k): (vectors.decode_f64(v).tolist() if k == "f64" else v)
               for k, v in doc.items()}
        out.append(json.dumps(doc, ensure_ascii=False))
    return ("\n".join(out) + "\n").encode("utf-8")


def test_pipeline_reuses_decimal_vectors_of_older_versions_without_billing(tmp_path, monkeypatch):
    doc = write_config(tmp_path)
    config = PipelineConfig.from_dict(doc)
    run_pipeline(config)
    outdir, cache_path = tmp_path / "out", Path(doc["cache_path"])
    expected = tree_bytes(outdir)

    # the output dir and cache as the previous version left them: decimal
    # vectors, and an embed record whose params carry no format marker
    cache_path.write_bytes(_as_decimal_lines(cache_path.read_bytes(), "value"))
    old_matrix = _as_decimal_lines((outdir / "embeddings.jsonl").read_bytes(), "v")
    (outdir / "embeddings.jsonl").write_bytes(old_matrix)
    manifest = json.loads((outdir / "manifest.json").read_text())
    records = {s["name"]: s for s in manifest["stages"]}
    provider = config.embed_provider
    records["embed"]["input_digest"] = pipeline._digest_params({
        "params": {"provider": [provider.kind, provider.model_id]},
        "files": [records["classify"]["outputs"]["hardware.jsonl"]]})
    records["embed"]["outputs"] = {"embeddings.jsonl": pipeline._sha256(old_matrix)}
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    old_cache = cache_path.read_bytes()
    assert b'"f64"' not in old_cache and b'"value": [' in old_cache

    calls = []
    monkeypatch.setattr(gateway, "mock_embed_vector", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda *a, **k: calls.append(a))
    manifest = run_pipeline(config)
    assert calls == []
    assert {s["name"]: s["status"] for s in manifest["stages"]}["embed"] == "computed"
    assert tree_bytes(outdir) == expected
    assert cache_path.read_bytes() == old_cache  # nothing re-billed, nothing appended


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
    code = "import sys, cveminer.cli; print(sorted({'scipy', 'requests'} & set(sys.modules)))"
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
    with pytest.raises(EmptyHardwareSet):
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
    monkeypatch.setattr(requests, "post", explode)

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
        with pytest.raises(OutputDirLocked):
            run_pipeline(PipelineConfig.from_dict(write_config(tmp_path, dry_run=True)))
    assert not (outdir / "manifest.json").exists()


# Pinned at a release: a config document must keep digesting to the same
# run_id and stage input digests, or every output directory written before an
# upgrade recomputes (a field read as int instead of float is enough).
PINNED_RUN_IDS = {"minimal": "8e7f33a89550d536", "remote": "7e6a661ede972c8d"}
PINNED_STAGE_DIGESTS = {
    "example": ("8485eccde079e163", {
        "ingest": "6cf7af2c5f78a79d0968a7dd39ec8c13d0124ec98d54567128ecc52a76f61fa2",
        "classify": "8487c33d9a539d13cff0d846ad90bd2dc0edffdffc64fee9506ffa5b956dd79d",
        "embed": "7f791552f7c597c968d76795fa1482baf4165418fe0dffca19ee48e0f1bfa179",
        "cluster": "7b1b665de96b33e4b69395700ef488d6a8f8452c30f8d0a30ef7c05b6f1564ce",
        "topics": "fbaa0be8b79021c3ab3d1c6a714d8f9bb7cd5f1892d98f2b4929ea0e05c57369",
        "representatives": "a2dfcb8d8a051e7e0b77af82e86bf8d5e04023a086a5ba6cf74a84507acbf16d",
        "project": "53dedbe1f793359c8e5cb77e873f35e303a4a1974985a6a458c3988bed861ef0",
        "report": "75155d30571acf52d3a4ddb7ef61b1c33fa84295147b9fb629b58227983996c6"}),
    "perfbench": ("ba9732f069430e48", {
        "ingest": "939aa85d1f3ba5785c9101abbd4e3a870777b62ca6ffeb4211e78fd64d74d841",
        "classify": "8487c33d9a539d13cff0d846ad90bd2dc0edffdffc64fee9506ffa5b956dd79d",
        "embed": "b685fb10eb8b3a54d9922bd454e51860c8e0fac69330c3039ea89be50dc2c0a1",
        "cluster": "4c4ab5747ace01ae3d504aa9419079249bf48c92b6b0da2c79bf441bdcd0a5d4",
        "topics": "fbaa0be8b79021c3ab3d1c6a714d8f9bb7cd5f1892d98f2b4929ea0e05c57369",
        "representatives": "793f212131e2997b5076b25b71177596b7070c1dafcc7c932259f93fdc74a775",
        "project": "e35821a0675bccb15fb254c89690366d0191be3014892b559bc4957e2ea4c9c3",
        "report": "42386c2d9649928f94b11b5a6728b059a8dd21bcb8336bb4ab4c98610ff61219"}),
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
        with pytest.raises(OutputDirLocked):
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
        with pytest.raises(OutputDirLocked):
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
        with pytest.raises(OutputDirLocked):
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


def test_validate_missing_descriptions(tmp_path):
    corpus_path, hw, _ = _bench_paths(tmp_path)
    fixture = {"name": "missing", "label": 1,
               "ids": [f"CVE-2020-{9000+i}" for i in range(10)]}
    missing_path = tmp_path / "missing.json"
    missing_path.write_text(json.dumps(fixture))
    doc = write_config(tmp_path)
    doc["corpus"]["paths"] = [str(corpus_path)]
    with pytest.raises(MissingDescriptions) as err:
        run_validate(PipelineConfig.from_dict(doc), [str(missing_path)])
    assert len(err.value.ids) == 10


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
