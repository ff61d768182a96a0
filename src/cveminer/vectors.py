"""Embedding vectors and matrices: storage and normalization, in double precision.

Vectors are stored as the base64 text of their little-endian float64 bytes
(``encode_f64`` / ``decode_f64``), in the response cache and in the
embeddings artifact alike: exact bit for bit, about half the size of
shortest round-trip decimal, and decoded without building Python floats.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .corpus import CveRecord
from .errors import DimensionError, ZeroVectorError


@dataclass(frozen=True)
class EmbeddingVector:
    """A fixed-dimension real vector tagged with the producing model."""

    values: np.ndarray
    dim: int
    model_id: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != self.dim:
            raise DimensionError(f"expected {self.dim} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@dataclass
class EmbeddingMatrix:
    """Row-aligned ids and vectors sharing one dimension and model."""

    ids: list[str]
    rows: np.ndarray  # (n, dim) float64
    dim: int
    model_id: str
    normalized: bool = False

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape != (len(self.ids), self.dim):
            raise DimensionError(
                f"matrix shape {self.rows.shape} does not match {len(self.ids)} ids x dim {self.dim}"
            )
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("matrix ids must be unique")

    def __len__(self) -> int:
        return len(self.ids)


def normalize_matrix(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Return a copy with every row scaled to unit norm."""
    norms = np.sqrt(np.einsum("ij,ij->i", matrix.rows, matrix.rows))
    if np.any(norms == 0.0):
        raise ZeroVectorError("matrix contains a zero row")
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


def encode_f64(values: np.ndarray) -> str:
    """Base64 text of a vector's little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_f64(text: str) -> np.ndarray:
    """The read-only float64 vector that `encode_f64` wrote."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")


def dump_matrix(matrix: EmbeddingMatrix) -> bytes:
    """Serialize: header line {dim, model, normalized}, then one
    ``{"id", "f64"}`` line per row, bit-exact (see ``encode_f64``)."""
    lines = [json.dumps({"dim": matrix.dim, "model": matrix.model_id,
                         "normalized": matrix.normalized})]
    for cve_id, row in zip(matrix.ids, matrix.rows):
        # the json.dumps layout, written by hand: base64 text needs no escaping,
        # and scanning it for escapes would cost more than encoding it
        lines.append(f'{{"id": {json.dumps(cve_id)}, "f64": "{encode_f64(row)}"}}')
    return ("\n".join(lines) + "\n").encode("utf-8")


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
        vec = decode_f64(obj["f64"])
        if len(vec) != dim:
            raise DimensionError(f"row {obj.get('id')} has {len(vec)} values, expected {dim}")
        ids.append(obj["id"])
        rows.append(vec)
    return EmbeddingMatrix(
        ids=ids,
        rows=np.array(rows, dtype=np.float64).reshape(len(ids), dim),
        dim=dim,
        model_id=str(header["model"]),
        normalized=bool(header["normalized"]),
    )


@dataclass
class EmbedFailure:
    """One record that could not be embedded, with the provider's reason."""

    id: str
    reason: str


class EmbedAborted(Exception):
    """Raised when embedding a corpus hit per-record failures.

    Successful rows were written to the response cache before the abort, so
    a re-run only re-requests the failed records.
    """

    def __init__(self, failures: list[EmbedFailure], completed: int):
        super().__init__(f"{len(failures)} embeddings failed ({completed} completed and cached)")
        self.failures = failures
        self.completed = completed


def embed_corpus(config, records: list[CveRecord], cache=None) -> EmbeddingMatrix:
    """Embed record descriptions in order and assemble the matrix.

    Row order equals record order.  Any per-record provider failure aborts
    with EmbedAborted; completed rows are retained by the cache.
    """
    from . import gateway  # local import: gateway depends on this module's types

    if not records:
        raise ValueError("no records to embed")
    items = gateway.run_batch(config, [r.description for r in records], op="embed", cache=cache)
    for it in items:
        if isinstance(it.error, DimensionError):
            raise DimensionError(f"row {records[it.index].id}: {it.error}")
    failures = [EmbedFailure(records[it.index].id, str(it.error))
                for it in items if it.error is not None]
    if failures:
        raise EmbedAborted(failures, completed=len(items) - len(failures))

    vectors = [it.value for it in items]
    dim = vectors[0].dim
    for record, vec in zip(records, vectors):
        if vec.dim != dim:
            raise DimensionError(f"row {record.id} has dim {vec.dim}, expected {dim}")
    return EmbeddingMatrix(
        ids=[r.id for r in records],
        rows=np.vstack([v.values for v in vectors]),
        dim=dim,
        model_id=vectors[0].model_id,
        normalized=False,
    )
