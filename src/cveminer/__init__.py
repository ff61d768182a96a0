"""cveminer: mine hardware-related CVEs from vulnerability corpora.

The pipeline classifies CVE descriptions as hardware or software with a
prompted chat model, embeds the hardware subset, clusters the embeddings
with seeded K-means (elbow-selected K), profiles each cluster with top
n-gram keywords, labels clusters via prompted summarization, projects to
2-D with exact t-SNE, and emits deterministic reports.  Mock providers
make every stage runnable offline.

Import the layer modules themselves (``cveminer.pipeline``,
``cveminer.gateway``, ...); the package root loads none of them.
"""

__version__ = "0.1.0"
