"""Embedding matrices: assembly, storage and normalization, in double precision.

The layering is corpus, gateway, then vectors: ``embed_corpus`` stacks the
read-only float64 arrays ``gateway.embed`` answers into a matrix, or raises
``ProviderError`` as every failed provider call does.  The matrix is stored
as one JSON header line (dim, model, normalized flag and the row ids) and
then the rows as raw little-endian float64: exact bit for bit, written with
one copy of the rows and loaded as a read-only view of the file's bytes.
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


def dump_matrix(matrix: EmbeddingMatrix) -> bytes:
    """Serialize: header line {dim, model, normalized, ids}, then the n x dim
    rows as little-endian float64, row after row.  The header line is padded
    with spaces to a multiple of 8 bytes, so the loaded rows are aligned."""
    header = json.dumps({"dim": matrix.dim, "model": matrix.model_id,
                         "normalized": matrix.normalized, "ids": matrix.ids}).encode("ascii")
    header += b" " * (-(len(header) + 1) % 8) + b"\n"
    return b"".join((header, np.ascontiguousarray(matrix.rows, dtype="<f8")))


def load_matrix(data: bytes) -> EmbeddingMatrix:
    """The matrix `dump_matrix` wrote; its rows are a read-only view of `data`."""
    end = data.find(b"\n")
    if end < 0:
        raise CveMinerError("matrix file has no header line")
    header = json.loads(data[:end])
    ids, dim = header["ids"], int(header["dim"])
    if len(data) - end - 1 != 8 * len(ids) * dim:
        raise CveMinerError(f"matrix body holds {len(data) - end - 1} bytes, expected "
                            f"{8 * len(ids) * dim} for {len(ids)} rows x dim {dim}")
    return EmbeddingMatrix(
        ids=ids,
        rows=np.frombuffer(data, dtype="<f8", offset=end + 1).reshape(len(ids), dim),
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
