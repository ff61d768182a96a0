import json
import os
import subprocess
import sys
from pathlib import Path

import corpus_gen
import layertrace

HERE = Path(__file__).resolve().parent


def span(span_id, parent, name, start, end, value=None, raised=False):
    return [span_id, parent, name, start, end, value, raised]


def test_self_time_cache_misses_and_missing_functions():
    spans = [
        span(1, 0, "projection.tsne", 0.0, 10.0, value=0.5),
        span(2, 1, "projection.conditional_affinities", 1.0, 3.0),
        span(3, 1, "projection.joint_affinities", 3.0, 3.5),
        span(4, 0, "gateway.complete", 20.0, 20.2, value=1),
        span(5, 4, layertrace.CACHE_PUT, 20.1, 20.2),
        span(6, 0, "gateway.complete", 21.0, 21.001, value=0),
        span(7, 0, "gateway.complete", 22.0, 22.5, raised=True),
    ]
    names = {s[2] for s in spans} | {"gateway.embed"}
    metrics, summary = layertrace.summarize({"spans": spans, "wrapped": sorted(names)})

    assert metrics["projection.affinities_s"] == 2.5
    assert metrics["projection.gradient_s"] == 7.5
    assert metrics["projection.final_kl"] == 0.5
    assert metrics["gateway.complete.calls"] == 3
    assert metrics["gateway.complete.cache_hits"] == 1
    assert abs(metrics["gateway.provider_latency_p50_ms"] - 200.0) < 1e-6
    # functions the program no longer has are missing, not zero
    assert metrics["clustering.elbow_s"] is None
    assert metrics["vectors.load_matrix.calls"] is None
    assert summary.calls["gateway.complete"] == 3


def test_traced_cli_run_covers_every_layer(tmp_path):
    (tmp_path / "corpus.jsonl").write_bytes(corpus_gen.generate(5, 400, 0.1).data)
    (tmp_path / "config.json").write_text(json.dumps({
        "seed": 5, "corpus": {"paths": ["corpus.jsonl"]},
        "providers": {"chat": {"kind": "mock-chat", "model_id": "mock-hwsw"},
                      "embed": {"kind": "mock-embed", "model_id": "mock-embed-64"}},
        "output_dir": "out", "cache_path": "cache.jsonl"}))
    env = dict(os.environ, PYTHONPATH=str(HERE.parents[1] / "src"))
    subprocess.run([sys.executable, str(HERE.parent / "layertrace.py"), "spans.json",
                    "pipeline", "--config", "config.json"],
                   cwd=tmp_path, env=env, check=True, timeout=120, capture_output=True)

    doc = json.loads((tmp_path / "spans.json").read_text())
    metrics, summary = layertrace.summarize(doc)
    assert [name for name, value in metrics.items() if value is None] == []
    elbow = json.loads((tmp_path / "out" / "elbow.json").read_text())
    assert metrics["gateway.complete.calls"] == 400 + elbow["chosen_k"]
    assert metrics["gateway.embed.calls"] == 40
    assert metrics["gateway.cache_puts"] == 400 + 40 + elbow["chosen_k"]
    assert metrics["clustering.final_fit_s"] > 0 and metrics["clustering.elbow_s"] > 0
    # the CLI's own reference to run_pipeline was rebound to the wrapper
    assert summary.calls["pipeline.run_pipeline"] == 1
    assert doc["import_s"] > 0
