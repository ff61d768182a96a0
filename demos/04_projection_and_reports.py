"""2-D projection with quality gating, plus the report emitters.

Projects the mini corpus's hardware embeddings with exact t-SNE, checks the
neighborhood-preservation score, and renders the scatter SVG, topic table,
and term-weight artifacts.
"""

import json
from pathlib import Path

from cveminer import classifier, corpus, topics, vectors
from cveminer.assets import fixture_bytes
from cveminer.clustering import fit_best_of, representatives
from cveminer.gateway import ProviderConfig
from cveminer.projection import TsneParams, trustworthiness, tsne
from cveminer.reporting import (representatives_table, scatter_svg,
                                term_weights, topic_table, wordcloud_grid_svg)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

chat = ProviderConfig(kind="mock-chat", model_id="mock-hwsw")
embedder = ProviderConfig(kind="mock-embed", model_id="mock-embed-64")

records, _ = corpus.parse_records(fixture_bytes("mini_corpus.jsonl"))
template = classifier.load_template("hwsw")
predictions, _ = classifier.classify_corpus(chat, template, records)
hardware = classifier.hardware_subset(records, predictions)
matrix = vectors.normalize_matrix(vectors.embed_corpus(embedder, hardware))
model = fit_best_of(matrix, 5, seed=7, restarts=8)

# Perplexity must stay below (n - 1) / 3; with 24 points that means < 7.67.
params = TsneParams(perplexity=7.0, iterations=1000)
result = tsne(matrix, params, seed=7)
score = trustworthiness(matrix, result, k=5)
print(f"projected {len(result.ids)} points; final KL {result.final_kl:.4f}; "
      f"trustworthiness(k=5) {score:.3f}")

texts = [r.description for r in hardware]
profiles = topics.cluster_keywords(texts, model.assignments, model.k, r=15)
summarize = classifier.load_template("summarize")
labels = {}
for p in profiles:
    label, blocked_term = topics.summarize_cluster(chat, summarize, p)
    labels[p.cluster] = label if label and blocked_term is None else "(needs review)"

clusters = dict(zip(matrix.ids, (int(a) for a in model.assignments)))
(OUT / "scatter.svg").write_bytes(scatter_svg(result.ids, result.coords, clusters, labels))
print("wrote", OUT / "scatter.svg")

(OUT / "topic_table.md").write_text(topic_table(profiles, labels))
reps = representatives(matrix, model, m=10)
(OUT / "representatives.md").write_text(representatives_table(reps))
print("wrote", OUT / "topic_table.md", "and", OUT / "representatives.md")

# Term weights normalize each profile's counts to (0, 1] for cloud-style
# rendering; a plain deterministic grid SVG is included for convenience.
weights = json.loads(term_weights(profiles[0]))
print("cluster 0 top terms:", [(w["term"], round(w["weight"], 2)) for w in weights[:4]])
(OUT / "wordcloud_0.svg").write_bytes(wordcloud_grid_svg(profiles[0]))
print("wrote", OUT / "wordcloud_0.svg")
