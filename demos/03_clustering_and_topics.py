"""Embeddings, elbow-selected K-means, keyword profiles, and topic labels.

The mock embedder gives keyword-sharing texts a common direction, so the
24 hardware records of the mini corpus form visible clusters; the elbow
rule recovers the planted group count without being told.
"""

from pathlib import Path

from cveminer import classifier, corpus, topics, vectors
from cveminer.assets import fixture_bytes
from cveminer.clustering import elbow_select, fit_best_of, representatives
from cveminer.gateway import ProviderConfig

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

chat = ProviderConfig(kind="mock-chat", model_id="mock-hwsw")
embedder = ProviderConfig(kind="mock-embed", model_id="mock-embed-64", max_parallel=4)

records, _ = corpus.parse_records(fixture_bytes("mini_corpus.jsonl"))
template = classifier.load_template("hwsw")
predictions, _ = classifier.classify_corpus(chat, template, records)
hardware = classifier.hardware_subset(records, predictions)

matrix = vectors.normalize_matrix(vectors.embed_corpus(embedder, hardware))
print(f"embedded {len(matrix)} hardware records at dim {matrix.dim}")

# Scan K over [2, 10]; the chosen K maximizes the discrete second
# difference of the objective curve (the sharpest bend).
curve = elbow_select(matrix, 2, 10, seed=7, restarts=8)
print("objective curve:")
for k, wcss in zip(curve.k_values, curve.wcss_values):
    marker = "  <- chosen" if k == curve.chosen_k else ""
    print(f"  k={k:2d}  wcss={wcss:8.4f}{marker}")

model = fit_best_of(matrix, curve.chosen_k, seed=7, restarts=8)
print(f"\nfitted k={model.k}, wcss={model.wcss:.4f}, converged={model.converged}")

# Keyword profiles per cluster, then a provider-generated topic label; the
# mock summarizer echoes the leading keywords.
texts = [r.description for r in hardware]
profiles = topics.cluster_keywords(texts, model.assignments, model.k, r=15)
summarize = classifier.load_template("summarize")
for profile in profiles:
    # an empty label, or one holding a blocklisted term, would go to review
    label, blocked_term = topics.summarize_cluster(chat, summarize, profile)
    keywords = ", ".join(profile.keywords[:6])
    print(f"  T{profile.cluster}: [{keywords}, ...] -> {label!r}, blocked term: {blocked_term}")

# Ten nearest member CVEs per centroid, by cosine similarity.
reps = representatives(matrix, model, m=10, metric="cosine")
for cluster, ids in sorted(reps.items()):
    print(f"  cluster {cluster} representatives: {', '.join(ids[:3])}, ...")

(OUT / "ngram_profiles.json").write_bytes(topics.dump_profiles(profiles))
print("wrote", OUT / "ngram_profiles.json")
