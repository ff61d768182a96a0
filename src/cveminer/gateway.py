"""Provider-agnostic chat-completion and embedding access.

Remote providers speak the common HTTP+JSON interfaces: a chat-completions
endpoint (message list in, first choice text out) and an embeddings
endpoint (input text in, float array out).  Both go through one POST path,
``_post``, and each only pulls its answer out of the JSON reply.  The bearer
token comes from the ``LLM_API_KEY`` environment variable; endpoint and
model always come from the config.

``run_batch`` dispatches each distinct input once (inputs that are equal
after NFC normalization, as ``cache_key`` sees them, count as one), from at
most ``max_parallel`` workers (the calling thread is one) that pull the next
index from a shared iterator.  Answers go to ``ResponseCache``, a jsonl
file opened once for unbuffered appending, one ``write`` call per line.  Each
line is built with ``json.encoder.encode_basestring``, the function
``json.dumps(..., ensure_ascii=False)`` itself calls for every string, so its
bytes equal ``json.dumps`` of the same object.  A chat answer is stored as
its text (``"value"``); an embedding as the base64 text of its little-endian
float64 bytes (``"f64"``, see ``vectors.encode_f64``), which loads back as a
read-only float64 array.
Lines written before that, holding the vector as a decimal ``"value"``
list, still load and still count as answered.  ``embed`` keeps the vector
as an array from the provider through the cache to its ``EmbeddingVector``.

``requests`` is imported by the remote calls only, so mock runs never load
it.

Mock providers make the whole pipeline runnable offline and are pure
functions of (model_id, input text):

* ``mock-chat`` finds the line starting with ``DESC:`` in the prompt and
  answers "1" iff it contains any configured hardware keyword, else "0".
  A prompt whose last content is a ``Keywords:`` line is answered with
  ``topic: <first four keywords>``.
* ``mock-embed`` draws the vector from a counter-based (Philox) stream
  keyed by digest(model_id, text) and L2-normalizes it.  Texts containing a
  hardware keyword get that keyword's fixed class direction mixed in before
  normalization, so clusters of same-keyword texts are well separated.

Mock model-id grammar: a ``flaky<N>`` token makes the first N attempts per
distinct input fail with a retryable error; a ``fail`` token makes every
attempt fail; a trailing integer token sets the embedding dimension
(default 64).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import re
import threading
import time
import unicodedata
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring as _json_str
from pathlib import Path

import numpy as np

from .errors import DimensionError, ProviderError
from .vectors import EmbeddingVector, decode_f64, encode_f64

CHAT_KINDS = ("remote-chat", "mock-chat")
EMBED_KINDS = ("remote-embed", "mock-embed")

DEFAULT_HW_KEYWORDS = (
    "firmware", "bios", "spi", "jtag", "dram",
    "cpu", "soc", "bootloader", "debug port", "physical access",
)

MOCK_EMBED_DIM = 64
MOCK_CLASS_WEIGHT = 3.0

RETRYABLE_STATUS = {429, 500, 502, 503, 504}
BACKOFF_BASE_S = 0.5

_jitter = random.Random()


@dataclass
class ProviderConfig:
    """How to reach one provider and how hard to push it."""

    kind: str
    model_id: str
    endpoint: str | None = None
    max_parallel: int = 4
    retry_limit: int = 3
    timeout: float = 30.0
    temperature: float = 0.0

    def __post_init__(self):
        if self.kind not in CHAT_KINDS + EMBED_KINDS:
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if not 0 <= self.retry_limit <= 10:
            raise ValueError("retry_limit must be in [0, 10]")
        if self.kind.startswith("remote-") and not self.endpoint:
            raise ValueError(f"{self.kind} requires an endpoint")

    @property
    def is_chat(self) -> bool:
        return self.kind in CHAT_KINDS

    @property
    def is_mock(self) -> bool:
        return self.kind.startswith("mock-")


@dataclass
class CompletionResult:
    text: str
    model_id: str
    latency: float
    attempts: int
    cached: bool = False


@dataclass
class BatchItem:
    """One slot of a batch result: either a value or the per-item error."""

    index: int
    value: object | None = None
    error: Exception | None = None


@functools.cache
def _key_prefix(kind: str, model_id: str):
    # shared by every caller: copy it, never update it
    return hashlib.sha256(f"{kind}\x00{model_id}\x00".encode("utf-8"))


def cache_key(kind: str, model_id: str, text: str) -> str:
    """Stable digest of (kind, model, NFC-normalized input)."""
    h = _key_prefix(kind, model_id).copy()
    h.update(unicodedata.normalize("NFC", text).encode("utf-8"))
    h.update(b"\x00")
    return h.hexdigest()


class ResponseCache:
    """Append-only jsonl store keyed by digest; safe for threaded use.

    Lines are split on ``"\\n"`` only, so a value holding U+2028, U+2029 or
    U+0085 (written raw by ``ensure_ascii=False``) loads back intact.  A last
    line without its newline is the torn tail of an interrupted append: it is
    ignored, its length is kept in ``torn_bytes`` (0 when the file ends on a
    whole line), and it is cut off before the next append.  The file is
    opened once, on the first ``put``, for unbuffered appending.  ``put``
    claims its key under the lock, so each distinct key is written once, and
    then writes its whole line with one ``write`` call outside the lock:
    ``O_APPEND`` keeps concurrent lines whole, and the line is in the kernel
    before ``put`` returns.  ``get`` takes no lock.  ``close`` releases the
    file; a later put reopens it.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, object] = {}
        self._fh = None
        self._truncate_to = None  # end of the last complete line, when a torn tail follows
        self.torn_bytes = 0
        if self.path.exists():
            data = self.path.read_bytes()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                self._truncate_to = complete
                self.torn_bytes = len(data) - complete
            for line in data[:complete].decode("utf-8").split("\n"):
                if not line.strip():
                    continue
                obj = json.loads(line)
                self._entries[obj["key"]] = (decode_f64(obj["f64"]) if "f64" in obj
                                             else obj["value"])

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        # a single dict read is atomic under the GIL; put only ever adds keys
        return self._entries.get(key)

    def put(self, key: str, kind: str, model_id: str, value) -> None:
        """Store one answer: a string, or a float64 vector as its ``"f64"`` text."""
        if isinstance(value, np.ndarray):
            stored = f'"f64": "{encode_f64(value)}"'  # base64 needs no escaping
        elif isinstance(value, str):
            stored = f'"value": {_json_str(value)}'
        else:
            stored = f'"value": {json.dumps(value, ensure_ascii=False)}'
        data = (f'{{"key": {_json_str(key)}, "kind": {_json_str(kind)}, '
                f'"model": {_json_str(model_id)}, {stored}, '
                f'"created_at": "{datetime.now(timezone.utc).isoformat()}"}}\n').encode("utf-8")
        with self._lock:
            if key in self._entries:
                return
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                if self._truncate_to is not None:
                    os.truncate(self.path, self._truncate_to)
                    self._truncate_to = None
                self._fh = open(self.path, "ab", buffering=0)
            self._entries[key] = value
            fh = self._fh
        written = fh.write(data)
        if written != len(data):
            raise OSError(f"short write to {self.path}: {written} of {len(data)} bytes")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# --- mock providers ---------------------------------------------------------

class _Transient(Exception):
    """Internal: a failure the retry loop is allowed to absorb."""

    def __init__(self, status, body):
        super().__init__(body)
        self.status = status
        self.body = body


_flaky_lock = threading.Lock()
_flaky_counts: dict[tuple[str, str], int] = {}

# Failure injection for tests: a "fail"/"flaky<N>" token in the model id
# applies to every input; the markers below apply to a single input text.
TEXT_FAIL_MARKER = "mock::fail"
_TEXT_FLAKY = re.compile(r"mock::flaky(\d+)")


def reset_flaky_state() -> None:
    """Forget per-input failure counters of flaky mock models (test helper)."""
    with _flaky_lock:
        _flaky_counts.clear()


def _mock_tokens(model_id: str) -> list[str]:
    return model_id.lower().split("-")


@functools.cache
def _mock_failure_plan(model_id: str) -> tuple[bool, int]:
    """(every attempt fails, flaky budget) from the model id's tokens."""
    tokens = _mock_tokens(model_id)
    flaky = next((t for t in tokens if t.startswith("flaky") and t[5:].isdigit()), None)
    return "fail" in tokens, int(flaky[5:]) if flaky else 0


def mock_embed_dim(model_id: str) -> int:
    tokens = _mock_tokens(model_id)
    if tokens and tokens[-1].isdigit():
        return int(tokens[-1])
    return MOCK_EMBED_DIM


def _mock_maybe_fail(model_id: str, text: str) -> None:
    always_fail, budget = _mock_failure_plan(model_id)
    marked = "mock::" in text
    if always_fail or (marked and TEXT_FAIL_MARKER in text):
        raise _Transient(503, "mock provider configured to fail")
    marker = _TEXT_FLAKY.search(text) if marked else None
    if marker:
        budget = max(budget, int(marker.group(1)))
    if budget > 0:
        key = (model_id, text)
        with _flaky_lock:
            seen = _flaky_counts.get(key, 0)
            _flaky_counts[key] = seen + 1
        if seen < budget:
            raise _Transient(503, f"flaky mock failure {seen + 1}/{budget}")


def keyword_class(text: str, keywords=DEFAULT_HW_KEYWORDS) -> str | None:
    """First configured hardware keyword contained in the text, if any."""
    lowered = text.lower()
    for term in keywords:
        if term in lowered:
            return term
    return None


def mock_chat_reply(model_id: str, prompt: str, keywords=DEFAULT_HW_KEYWORDS) -> str:
    # lines end at "\n" only: a description may hold U+2028 and the like, which
    # str.splitlines would break the DESC: line at
    start = ("\n" + prompt).find("\nDESC:")  # where the first DESC: line starts
    if start >= 0:
        line = prompt[start:].partition("\n")[0]
        return "1" if keyword_class(line, keywords) else "0"
    for line in prompt.split("\n"):
        if line.startswith("Keywords:"):
            terms = [t.strip() for t in line[len("Keywords:"):].split(",") if t.strip()]
            return "topic: " + " ".join(terms[:4])
    raise _Transient(None, "mock chat cannot interpret prompt")


def _philox(material: str) -> np.random.Generator:
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def mock_embed_vector(model_id: str, text: str, keywords=DEFAULT_HW_KEYWORDS) -> np.ndarray:
    dim = mock_embed_dim(model_id)
    vec = _philox(model_id + "\x00" + text).standard_normal(dim)
    cls = keyword_class(text, keywords)
    if cls is not None:
        direction = _philox(model_id + "\x00class:" + cls).standard_normal(dim)
        direction /= np.linalg.norm(direction)
        # scale with sqrt(dim) so the class direction dominates the noise
        # (whose norm grows like sqrt(dim)) by the same factor at any dim
        vec = vec + MOCK_CLASS_WEIGHT * np.sqrt(dim) * direction
    return vec / np.linalg.norm(vec)


# --- remote providers -------------------------------------------------------

def _post(config: ProviderConfig, payload: dict) -> dict:
    """POST `payload` as JSON to the provider's endpoint; return the JSON reply.

    A timeout, a failed connection or a retryable status raises `_Transient`;
    any other status but 200, or a reply that is not JSON, raises ProviderError.
    """
    import requests

    headers = {"Content-Type": "application/json"}
    token = os.environ.get("LLM_API_KEY")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    try:
        resp = requests.post(config.endpoint, json=payload, headers=headers,
                             timeout=config.timeout)
    except requests.Timeout:
        raise _Transient(None, "timeout")
    except requests.RequestException as exc:
        raise _Transient(None, f"connection failure: {exc}")
    if resp.status_code in RETRYABLE_STATUS:
        raise _Transient(resp.status_code, resp.text)
    if resp.status_code != 200:
        raise ProviderError(resp.status_code, resp.text)
    try:
        return resp.json()
    except ValueError:
        raise ProviderError(resp.status_code, f"non-json response: {resp.text[:200]}")


# --- retry loop and public operations ---------------------------------------

def _with_retries(config: ProviderConfig, call, backoff_base: float, sleep):
    """Run `call` with up to retry_limit retries on transient failures.

    Backoff is exponential with full jitter: uniform(0, base * 2^attempt).
    Returns (value, attempts).
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return call(), attempts
        except _Transient as exc:
            if attempts > config.retry_limit:
                if exc.status is None and exc.body == "timeout":
                    raise TimeoutError(f"{config.model_id}: timed out after {attempts} attempts")
                raise ProviderError(exc.status, exc.body)
            sleep(_jitter.uniform(0.0, backoff_base * (2 ** (attempts - 1))))


def complete(config: ProviderConfig, prompt: str, cache: ResponseCache | None = None,
             backoff_base: float = BACKOFF_BASE_S, sleep=time.sleep) -> CompletionResult:
    """One chat completion; cache hits short-circuit the provider entirely."""
    if not config.is_chat:
        raise ValueError(f"complete() needs a chat provider, got {config.kind}")
    key = cache_key("chat", config.model_id, prompt)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return CompletionResult(str(hit), config.model_id, 0.0, attempts=0, cached=True)

    def call() -> str:
        if config.is_mock:
            _mock_maybe_fail(config.model_id, prompt)
            return mock_chat_reply(config.model_id, prompt)
        data = _post(config, {"model": config.model_id,
                              "messages": [{"role": "user", "content": prompt}],
                              "temperature": config.temperature})
        try:
            return str(data["choices"][0]["message"]["content"])
        except (KeyError, IndexError, TypeError):
            raise ProviderError(200, f"malformed chat response: {json.dumps(data)[:200]}")

    start = time.perf_counter()
    text, attempts = _with_retries(config, call, backoff_base, sleep)
    latency = time.perf_counter() - start
    if cache is not None:
        cache.put(key, "chat", config.model_id, text)
    return CompletionResult(text, config.model_id, latency, attempts=attempts)


def embed(config: ProviderConfig, text: str, cache: ResponseCache | None = None,
          backoff_base: float = BACKOFF_BASE_S, sleep=time.sleep) -> EmbeddingVector:
    """Embed one text; the vector's dimension is recorded alongside it."""
    if config.is_chat:
        raise ValueError(f"embed() needs an embed provider, got {config.kind}")
    if not text:
        raise ValueError("cannot embed empty text")
    key = cache_key("embed", config.model_id, text)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:  # an array, or a decimal list from an older cache line
            values = np.asarray(hit, dtype=np.float64)
            return EmbeddingVector(values, len(values), config.model_id)

    def call() -> np.ndarray:
        if config.is_mock:
            _mock_maybe_fail(config.model_id, text)
            return mock_embed_vector(config.model_id, text)
        data = _post(config, {"model": config.model_id, "input": text})
        try:
            return np.array([float(x) for x in data["data"][0]["embedding"]], dtype=np.float64)
        except (KeyError, IndexError, TypeError, ValueError):
            raise ProviderError(200, f"malformed embedding response: {json.dumps(data)[:200]}")

    values, _ = _with_retries(config, call, backoff_base, sleep)
    if config.is_mock and len(values) != mock_embed_dim(config.model_id):
        raise DimensionError(f"mock returned {len(values)} values, declared {mock_embed_dim(config.model_id)}")
    if cache is not None:
        cache.put(key, "embed", config.model_id, values)
    return EmbeddingVector(values, len(values), config.model_id)  # makes `values` read-only


def run_batch(config: ProviderConfig, inputs: list[str], op: str,
              cache: ResponseCache | None = None,
              backoff_base: float = BACKOFF_BASE_S, sleep=time.sleep) -> list[BatchItem]:
    """Run an operation over many inputs with bounded parallelism.

    The result list is index-aligned with the inputs regardless of
    completion order; a failing item carries its error instead of aborting
    the batch.  Each distinct input is dispatched once and its result (or
    error) is given to every index that repeats it, so duplicates are never
    billed twice; inputs equal after NFC normalization share one cache key and
    so count as one.  ``min(max_parallel, distinct inputs)`` workers, the
    calling thread among them, pull the next index from a shared iterator,
    so at most config.max_parallel requests are in flight at once and
    ``max_parallel=1`` runs on the calling thread alone.
    """
    if not inputs:
        raise ValueError("run_batch needs at least one input")
    if op not in ("complete", "embed"):
        raise ValueError(f"unknown batch op {op!r}")
    fn = complete if op == "complete" else embed
    first: dict[str, int] = {}  # NFC input -> index of its first occurrence
    for i, text in enumerate(inputs):
        first.setdefault(unicodedata.normalize("NFC", text), i)
    items: list[BatchItem | None] = [None] * len(inputs)
    pending = iter(first.values())
    pending_lock = threading.Lock()

    def work() -> None:
        while True:
            with pending_lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                items[i] = BatchItem(i, value=fn(config, inputs[i], cache=cache,
                                                 backoff_base=backoff_base, sleep=sleep))
            except Exception as exc:  # per-item isolation
                items[i] = BatchItem(i, error=exc)

    helpers = [threading.Thread(target=work)
               for _ in range(min(config.max_parallel, len(first)) - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        with pending_lock:  # on an interrupt, helpers stop after their current item
            for _ in pending:
                pass
        for thread in helpers:
            thread.join()
    for i, text in enumerate(inputs):
        if items[i] is None:
            dispatched = items[first[unicodedata.normalize("NFC", text)]]
            items[i] = BatchItem(i, value=dispatched.value, error=dispatched.error)
    return items  # type: ignore[return-value]
