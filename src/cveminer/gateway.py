"""Provider-agnostic chat-completion and embedding access.

Remote providers speak the common HTTP+JSON interfaces: a chat-completions
endpoint (message list in, first choice text out) and an embeddings
endpoint (input text in, float array out).  Both go through one POST path,
``_post``, and each only pulls its answer out of the JSON reply.  The bearer
token comes from the ``LLM_API_KEY`` environment variable; endpoint and
model always come from the config.

``complete`` and ``embed`` share one answer path, ``_answer`` (cache lookup,
retried and timed provider call, cache put); each supplies only its provider
call and the type it returns.  A transient failure (a timeout, a failed
connection, a status in RETRYABLE_STATUS) is retried up to ``retry_limit``
times, with exponential backoff and full jitter: before retry k the calling
thread sleeps a uniform random time in [0, BACKOFF_BASE_S * 2^(k-1)], or
longer when the failed reply's ``Retry-After`` header gives more seconds
(capped at RETRY_AFTER_CAP_S; the HTTP-date form is not read).
A call that fails for good, a timeout included, raises ``ProviderError``.

``run_batch`` dispatches each distinct input once (inputs that are equal
after NFC normalization, as ``cache_key`` sees them, count as one), from at
most ``max_parallel`` workers (the calling thread is one) that pull the next
index from a shared iterator.  Answers go to ``ResponseCache``, a jsonl
file opened once for unbuffered appending, one ``write`` call per line.  Each
line is built with ``json.encoder.encode_basestring``, the function
``json.dumps(..., ensure_ascii=False)`` itself calls for every string, so its
bytes equal ``json.dumps`` of the same object.  A chat answer is stored as
its text (``"value"``); an embedding as the base64 text of its little-endian
float64 bytes (``"f64"``, ``encode_f64``), which loads back as a read-only
float64 array.
Lines written before that, holding the vector as a decimal ``"value"``
list, still load and still count as answered.  A remote reply is checked
in its provider call, and a cache line as it loads: chat content that is not
a string, or an embedding that is not a non-empty, 1-D, all-finite vector,
raises ``ProviderError`` (never retried or cached), or skips the line.

The remote calls speak HTTP/1.1 through the standard library's
``http.client``, imported by them only, so mock runs never load it.  Each
``run_batch`` worker keeps one connection per endpoint (scheme, host, port)
open for the whole batch, and the batch closes them all when it returns; a
single ``complete``/``embed`` call outside a batch opens one connection and
closes it after the reply.  A reused connection that the server dropped
while idle is reopened once, and that reopen is not counted as an attempt.
``https`` uses the default SSL context (the system CA store) and, unless
``NO_PROXY`` exempts the host, a CONNECT tunnel through ``HTTPS_PROXY``;
plain ``http`` endpoints are always reached directly.

Mock providers make the whole pipeline runnable offline and are pure
functions of (model_id, input text):

* ``mock-chat`` finds the line starting with ``DESC:`` in the prompt and
  answers "1" iff it contains any of ``DEFAULT_HW_KEYWORDS``, else "0".
  A prompt whose last content is a ``Keywords:`` line is answered with
  ``topic: <first four keywords>``.
* ``mock-embed`` draws the vector from a counter-based (Philox) stream
  keyed by digest(model_id, text) and L2-normalizes it.  Texts containing a
  hardware keyword get that keyword's fixed class direction mixed in before
  normalization, so clusters of same-keyword texts are well separated.

Mock model-id grammar, its only knobs: a ``fail`` token makes every attempt
fail with a retryable error; a trailing integer token sets the embedding
dimension (default 64).  The mocks keep no state, so a test that needs a
single input to fail patches ``mock_chat_reply`` or ``mock_embed_vector``.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import os
import random
import threading
import time
import unicodedata
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring as _json_str
from pathlib import Path
from urllib.parse import unquote, urlsplit

import numpy as np

from .errors import ProviderError

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
RETRY_AFTER_CAP_S = 60

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
        # numbers are checked as given, never converted; type() also rejects a bool
        if type(self.max_parallel) is not int or self.max_parallel < 1:
            raise ValueError(f"max_parallel must be an integer >= 1, got {self.max_parallel!r}")
        if type(self.retry_limit) is not int or not 0 <= self.retry_limit <= 10:
            raise ValueError(f"retry_limit must be an integer in [0, 10], got {self.retry_limit!r}")
        if type(self.timeout) not in (int, float) or not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a finite number > 0, got {self.timeout!r}")
        if type(self.temperature) not in (int, float) or not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be a finite number, got {self.temperature!r}")
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
    latency: float
    attempts: int  # 0 when the cache answered

    @property
    def cached(self) -> bool:
        return self.attempts == 0


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


def encode_f64(values: np.ndarray) -> str:
    """Base64 text of a vector's little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_f64(text: str) -> np.ndarray:
    """The read-only float64 vector that `encode_f64` wrote."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")


def cache_key(kind: str, model_id: str, text: str) -> str:
    """Stable digest of (kind, model, NFC-normalized input)."""
    h = _key_prefix(kind, model_id).copy()
    h.update(unicodedata.normalize("NFC", text).encode("utf-8"))
    h.update(b"\x00")
    return h.hexdigest()


def _vector(raw) -> np.ndarray:
    """`raw` as a read-only float64 vector; ValueError unless it is non-empty, 1-D and finite."""
    values = np.asarray(raw)
    if (values.dtype.kind not in "iuf" or values.ndim != 1 or not values.size
            or not np.isfinite(values).all()):
        raise ValueError("not a non-empty, 1-D, all-finite vector")
    values = values.astype(np.float64, copy=False)
    values.flags.writeable = False
    return values


def _cached_value(obj: dict):
    """A cache line's answer, checked as a provider reply is."""
    if obj["kind"] != "chat":
        return _vector(decode_f64(obj["f64"]) if "f64" in obj else obj["value"])
    if not isinstance(obj["value"], str):
        raise TypeError("a chat answer must be a string")
    return obj["value"]


class ResponseCache:
    """Append-only jsonl store keyed by digest; safe for threaded use.

    Lines are split on ``"\\n"`` only, so a value holding U+2028, U+2029 or
    U+0085 (written raw by ``ensure_ascii=False``) loads back intact.  A last
    line without its newline is the torn tail of an interrupted append: it is
    ignored, its length is kept in ``torn_bytes`` (0 when the file ends on a
    whole line), and it is cut off before the next append.  A line that does
    not parse or fails ``_cached_value`` is skipped, counted in
    ``skipped_lines`` and asked for again.  The file is
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
        self.skipped_lines = 0
        if self.path.exists():
            data = self.path.read_bytes()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                self._truncate_to = complete
                self.torn_bytes = len(data) - complete
            for line in data[:complete].split(b"\n"):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line.decode("utf-8"))
                    self._entries[obj["key"]] = _cached_value(obj)
                except (ValueError, KeyError, TypeError):  # not JSON, or no valid answer
                    self.skipped_lines += 1

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        # a single dict read is atomic under the GIL; put only ever adds keys
        return self._entries.get(key)

    def put(self, key: str, kind: str, model_id: str, value) -> None:
        """Store one answer: a string, or a float64 vector as its ``"f64"`` text."""
        if isinstance(value, str):
            stored = f'"value": {_json_str(value)}'
        else:
            stored = f'"f64": "{encode_f64(value)}"'  # base64 needs no escaping
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

    def __init__(self, status, body, retry_after: int = 0):
        super().__init__(body)
        self.status = status
        self.body = body
        self.retry_after = retry_after  # the least wait, in seconds, the server asked for


def _mock_tokens(model_id: str) -> list[str]:
    return model_id.lower().split("-")


@functools.cache
def _mock_always_fails(model_id: str) -> bool:
    """Whether the model id has a ``fail`` token."""
    return "fail" in _mock_tokens(model_id)


def _mock_maybe_fail(model_id: str) -> None:
    if _mock_always_fails(model_id):
        raise _Transient(503, "mock provider configured to fail")


def keyword_class(text: str) -> str | None:
    """First of ``DEFAULT_HW_KEYWORDS`` contained in the text, if any."""
    lowered = text.lower()
    for term in DEFAULT_HW_KEYWORDS:
        if term in lowered:
            return term
    return None


def mock_chat_reply(model_id: str, prompt: str) -> str:
    # lines end at "\n" only: a description may hold U+2028 and the like, which
    # str.splitlines would break the DESC: line at
    start = ("\n" + prompt).find("\nDESC:")  # where the first DESC: line starts
    if start >= 0:
        line = prompt[start:].partition("\n")[0]
        return "1" if keyword_class(line) else "0"
    for line in prompt.split("\n"):
        if line.startswith("Keywords:"):
            terms = [t.strip() for t in line[len("Keywords:"):].split(",") if t.strip()]
            return "topic: " + " ".join(terms[:4])
    raise _Transient(None, "mock chat cannot interpret prompt")


def _philox(material: str) -> np.random.Generator:
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def mock_embed_vector(model_id: str, text: str) -> np.ndarray:
    last = _mock_tokens(model_id)[-1]
    dim = int(last) if last.isdigit() else MOCK_EMBED_DIM
    vec = _philox(model_id + "\x00" + text).standard_normal(dim)
    cls = keyword_class(text)
    if cls is not None:
        direction = _philox(model_id + "\x00class:" + cls).standard_normal(dim)
        direction /= np.linalg.norm(direction)
        # scale with sqrt(dim) so the class direction dominates the noise
        # (whose norm grows like sqrt(dim)) by the same factor at any dim
        vec = vec + MOCK_CLASS_WEIGHT * np.sqrt(dim) * direction
    return vec / np.linalg.norm(vec)


# --- remote providers -------------------------------------------------------

@functools.cache
def _tls_context():
    import ssl

    return ssl.create_default_context()  # shared: one load of the system CA store


def _connect(url, timeout: float):
    """A new, not yet connected ``http.client`` connection to ``url``'s host.

    An ``https`` endpoint is reached through the ``HTTPS_PROXY`` proxy, with a
    CONNECT tunnel, unless ``NO_PROXY`` exempts its host; a plain ``http``
    endpoint is always reached directly.
    """
    import http.client

    if url.scheme == "http":
        return http.client.HTTPConnection(url.hostname, url.port, timeout=timeout)
    if url.scheme != "https":
        raise ProviderError(None, f"unsupported endpoint scheme {url.scheme!r}")
    import urllib.request

    proxy = urllib.request.getproxies().get("https")
    if not proxy or urllib.request.proxy_bypass(url.hostname):
        return http.client.HTTPSConnection(url.hostname, url.port, timeout=timeout,
                                           context=_tls_context())
    via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    conn = http.client.HTTPSConnection(via.hostname, via.port or 80, timeout=timeout,
                                       context=_tls_context())
    auth = {}
    if via.username is not None:
        secret = f"{unquote(via.username)}:{unquote(via.password or '')}".encode("utf-8")
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(secret).decode("ascii")
    conn.set_tunnel(url.hostname, url.port, headers=auth)
    return conn


def _post(config: ProviderConfig, payload: dict, conns: dict | None = None) -> dict:
    """POST `payload` as JSON to the provider's endpoint; return the JSON reply.

    `conns` holds the caller's open connections by (scheme, host, port) and
    keeps the one used for the next call; without it, the call opens its own
    connection and closes it before returning.  A reused connection that
    fails before any reply byte arrives (the server dropped it while idle) is
    reopened once, within the same attempt.  A timeout, a failed connection
    or a retryable status raises `_Transient`; any other status but 200, or a
    reply that is not JSON, raises ProviderError.
    """
    import http.client

    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get("LLM_API_KEY")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    url = urlsplit(config.endpoint)
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    key = (url.scheme, url.hostname, url.port)
    pool = {} if conns is None else conns
    try:
        while True:
            conn = pool.get(key)
            if conn is None:
                conn = pool[key] = _connect(url, config.timeout)
            reused, resp = conn.sock is not None, None
            try:
                conn.request("POST", target, body, headers)
                resp = conn.getresponse()
                # a reply with Connection: close, or HTTP/1.0 without
                # keep-alive, has closed the connection once it is read
                status, data = resp.status, resp.read()
                retry_after = resp.getheader("Retry-After", "").strip()
                break
            except TimeoutError:
                conn.close()
                raise _Transient(None, "timeout")
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if reused and resp is None and isinstance(exc, ConnectionError):
                    continue  # dropped while idle: reopen once (a new one is not reused)
                raise _Transient(None, f"connection failure: {exc}")
    finally:
        if conns is None:
            for conn in pool.values():
                conn.close()
    if status in RETRYABLE_STATUS:
        wait = int(retry_after) if retry_after.isascii() and retry_after.isdigit() else 0
        raise _Transient(status, data.decode("utf-8", "replace"), min(wait, RETRY_AFTER_CAP_S))
    if status != 200:
        raise ProviderError(status, data.decode("utf-8", "replace"))
    try:
        return json.loads(data)
    except ValueError:
        raise ProviderError(status, f"non-json response: {data.decode('utf-8', 'replace')[:200]}")


# --- the answer path and public operations -----------------------------------

def _answer(config: ProviderConfig, kind: str, text: str, cache: ResponseCache | None, call):
    """A cache hit, else `call` with up to retry_limit retries on transient
    failures, whose answer is then put in the cache.

    Retry k first sleeps uniform(0, BACKOFF_BASE_S * 2^(k-1)), reading the
    base when it runs, or the failure's `retry_after` if that is longer.
    Returns (value, attempts, latency); a hit makes no call: 0 attempts.
    """
    key = cache_key(kind, config.model_id, text)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit, 0, 0.0
    start = time.perf_counter()
    for attempts in range(1, config.retry_limit + 2):  # the last attempt returns or raises
        try:
            value = call()
            break
        except _Transient as exc:
            if attempts > config.retry_limit:  # a timeout too: its body says "timeout"
                raise ProviderError(exc.status, exc.body)
            time.sleep(max(_jitter.uniform(0.0, BACKOFF_BASE_S * (2 ** (attempts - 1))),
                           exc.retry_after))
    latency = time.perf_counter() - start
    if cache is not None:
        cache.put(key, kind, config.model_id, value)
    return value, attempts, latency


def complete(config: ProviderConfig, prompt: str, cache: ResponseCache | None = None,
             _conns: dict | None = None) -> CompletionResult:
    """One chat completion; cache hits short-circuit the provider entirely.

    ``_conns`` is the calling batch worker's connection pool (see `_post`).
    """
    if not config.is_chat:
        raise ValueError(f"complete() needs a chat provider, got {config.kind}")

    def call() -> str:
        if config.is_mock:
            _mock_maybe_fail(config.model_id)
            return mock_chat_reply(config.model_id, prompt)
        data = _post(config, {"model": config.model_id,
                              "messages": [{"role": "user", "content": prompt}],
                              "temperature": config.temperature}, _conns)
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise ProviderError(200, f"malformed chat response: {json.dumps(data)[:200]}")
        return content

    text, attempts, latency = _answer(config, "chat", prompt, cache, call)
    return CompletionResult(text, latency, attempts)


def embed(config: ProviderConfig, text: str, cache: ResponseCache | None = None,
          _conns: dict | None = None) -> np.ndarray:
    """Embed one text: a read-only float64 vector, shared with the cache.

    ``_conns`` is the calling batch worker's connection pool (see `_post`).
    """
    if config.is_chat:
        raise ValueError(f"embed() needs an embed provider, got {config.kind}")
    if not text:
        raise ValueError("cannot embed empty text")

    def call() -> np.ndarray:
        if config.is_mock:
            _mock_maybe_fail(config.model_id)
            return _vector(mock_embed_vector(config.model_id, text))
        data = _post(config, {"model": config.model_id, "input": text}, _conns)
        try:
            return _vector(data["data"][0]["embedding"])
        except (KeyError, IndexError, TypeError, ValueError):  # absent, or not a vector
            raise ProviderError(200, f"malformed embedding response: {json.dumps(data)[:200]}")

    return _answer(config, "embed", text, cache, call)[0]


def run_batch(config: ProviderConfig, inputs: list[str],
              cache: ResponseCache | None = None) -> list[BatchItem]:
    """``complete`` (a chat provider) or ``embed`` (an embed provider) over
    many inputs with bounded parallelism.

    The result list is index-aligned with the inputs regardless of
    completion order; a failing item carries its error instead of aborting
    the batch.  Each distinct input is dispatched once and its result (or
    error) is given to every index that repeats it, so duplicates are never
    billed twice; inputs equal after NFC normalization share one cache key and
    so count as one.  ``min(max_parallel, distinct inputs)`` workers, the
    calling thread among them, pull the next index from a shared iterator,
    so at most config.max_parallel requests are in flight at once and
    ``max_parallel=1`` runs on the calling thread alone.  Each worker keeps
    its remote connections open from one item to the next; all of them are
    closed before run_batch returns.
    """
    if not inputs:
        raise ValueError("run_batch needs at least one input")
    fn = complete if config.is_chat else embed
    first: dict[str, int] = {}  # NFC input -> index of its first occurrence
    for i, text in enumerate(inputs):
        first.setdefault(unicodedata.normalize("NFC", text), i)
    items: list[BatchItem | None] = [None] * len(inputs)
    pending = iter(first.values())
    pending_lock = threading.Lock()
    pools: list[dict] = []  # one connection pool per worker

    def work() -> None:
        conns: dict = {}
        pools.append(conns)
        while True:
            with pending_lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                items[i] = BatchItem(i, value=fn(config, inputs[i], cache=cache, _conns=conns))
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
        for conns in pools:
            for conn in conns.values():
                conn.close()
    for i, text in enumerate(inputs):
        if items[i] is None:
            dispatched = items[first[unicodedata.normalize("NFC", text)]]
            items[i] = BatchItem(i, value=dispatched.value, error=dispatched.error)
    return items  # type: ignore[return-value]
