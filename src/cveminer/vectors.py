"""Embedding matrices: assembly, storage and normalization, in double precision.

The layering is corpus, gateway, then vectors: ``embed_corpus`` stacks the
read-only float64 arrays ``gateway.embed`` answers into a matrix, or raises
``ProviderError`` as every failed provider call does.  Rows are stored with
the response cache's codec (``gateway.encode_f64``): exact bit for bit,
about half the size of shortest round-trip decimal, and decoded without
building Python floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import gateway
from .corpus import CveRecord
from .errors import CveMinerError, ProviderError


@dataclass
class EmbeddingMatrix:
    """Row-aligned ids and finite vectors sharing one dimension and model."""

    ids: list[str]
    rows: np.ndarray  # (n, dim) float64
    dim: int
    model_id: str
    normalized: bool = False

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape != (len(self.ids), self.dim):
            raise CveMinerError(
                f"matrix shape {self.rows.shape} does not match {len(self.ids)} ids x dim {self.dim}"
            )
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("matrix ids must be unique")
        if not np.isfinite(self.rows).all():
            raise ValueError("matrix contains non-finite values")

    def __len__(self) -> int:
        return len(self.ids)


def normalize_matrix(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Return a copy with every row scaled to unit norm."""
    norms = np.sqrt(np.einsum("ij,ij->i", matrix.rows, matrix.rows))
    if np.any(norms == 0.0):
        raise CveMinerError("matrix contains a zero row")
    return EmbeddingMatrix(
        ids=list(matrix.ids),
        rows=matrix.rows / norms[:, None],
        dim=matrix.dim,
        model_id=matrix.model_id,
        normalized=True,
    )


# The row encoding of the embeddings artifact; the embed stage records it so
# that a file in another encoding is rebuilt (from the cache) instead of read.
MATRIX_FORMAT = "f64-base64"


def dump_matrix(matrix: EmbeddingMatrix) -> bytes:
    """Serialize: header line {dim, model, normalized}, then one
    ``{"id", "f64"}`` line per row, bit-exact (see ``gateway.encode_f64``)."""
    # bytes lines joined once: two copies of the file held at the peak, not three
    lines = [json.dumps({"dim": matrix.dim, "model": matrix.model_id,
                         "normalized": matrix.normalized}).encode("utf-8") + b"\n"]
    for cve_id, row in zip(matrix.ids, matrix.rows):
        # the json.dumps layout, written by hand: base64 text needs no escaping,
        # and scanning it for escapes would cost more than encoding it
        lines.append(f'{{"id": {json.dumps(cve_id)}, "f64": "{gateway.encode_f64(row)}"}}\n'
                     .encode("utf-8"))
    return b"".join(lines)


def load_matrix(data: bytes) -> EmbeddingMatrix:
    lines = [ln for ln in data.decode("utf-8").splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = json.loads(lines[0])
    dim = int(header["dim"])
    ids: list[str] = []
    rows: list[np.ndarray] = []
    for line in lines[1:]:
        obj = json.loads(line)
        vec = gateway.decode_f64(obj["f64"])
        if len(vec) != dim:
            raise CveMinerError(f"row {obj.get('id')} has {len(vec)} values, expected {dim}")
        ids.append(obj["id"])
        rows.append(vec)
    return EmbeddingMatrix(
        ids=ids,
        rows=np.array(rows, dtype=np.float64).reshape(len(ids), dim),
        dim=dim,
        model_id=str(header["model"]),
        normalized=bool(header["normalized"]),
    )


def embed_corpus(config: gateway.ProviderConfig, records: list[CveRecord],
                 cache=None) -> EmbeddingMatrix:
    """Embed record descriptions in order and assemble the matrix.

    Row order equals record order.  If any record fails, no matrix is built:
    ``ProviderError`` gives the number of failures, the number of rows
    completed, the first three failed ids and the first one's error.  The
    completed rows are in the cache, so a re-run asks the provider only for
    the failed ones.
    """
    if not records:
        raise ValueError("no records to embed")
    if config.is_chat:
        raise ValueError(f"embed_corpus needs an embed provider, got {config.kind}")
    items = gateway.run_batch(config, [r.description for r in records], cache=cache)
    failed = [it for it in items if it.error is not None]
    if failed:
        ids = ", ".join(records[it.index].id for it in failed[:3]) + (", ..." if len(failed) > 3 else "")
        raise ProviderError(None, f"{len(failed)} embeddings failed ({len(items) - len(failed)} "
                                  f"completed and cached): {ids}; the first with {failed[0].error}")

    vectors = [it.value for it in items]
    dim = len(vectors[0])
    for record, vec in zip(records, vectors):
        if len(vec) != dim:
            raise CveMinerError(f"row {record.id} has dim {len(vec)}, expected {dim}")
    return EmbeddingMatrix(ids=[r.id for r in records], rows=np.vstack(vectors), dim=dim,
                           model_id=config.model_id)
