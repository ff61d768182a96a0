"""Loopback chat-completions and embeddings endpoint for the remote providers.

The stub answers exactly what the mock providers would answer for the same
model id and input (``gateway.mock_chat_reply`` / ``gateway.mock_embed_vector``)
after a fixed delay, so a ``remote-*`` run against it produces the same
artifacts as a ``mock-*`` run while the client pays real HTTP and waiting.

It serves on one asyncio thread and works on at most ``max_parallel``
requests at a time; further requests wait for a slot, as they would at a
provider that limits concurrency.  (The limit is per request, not per
connection, so a client that keeps idle connections open cannot starve
others.)  It counts requests, bytes in and out, the largest number of requests
in flight (received and not yet answered, waiting ones included), and the time
between the first request and the last reply during which nothing was in
flight.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass

from cveminer import gateway

CHAT_PATH = "/v1/chat/completions"
EMBED_PATH = "/v1/embeddings"


@dataclass
class StubStats:
    requests: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    max_inflight: int = 0
    busy_s: float = 0.0
    first_start: float | None = None
    last_end: float | None = None

    @property
    def idle_s(self) -> float:
        """Time between the first request and the last reply with nothing in flight."""
        if self.first_start is None:
            return 0.0
        return (self.last_end - self.first_start) - self.busy_s


def _reply(path: str, body: bytes) -> tuple[int, dict]:
    doc = json.loads(body)
    if path == CHAT_PATH:
        prompt = doc["messages"][-1]["content"]
        text = gateway.mock_chat_reply(doc["model"], prompt)
        return 200, {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if path == EMBED_PATH:
        vec = gateway.mock_embed_vector(doc["model"], doc["input"])
        return 200, {"data": [{"embedding": vec.tolist()}]}
    return 404, {"error": f"no route {path}"}


def _response(request_line: bytes, body: bytes) -> bytes:
    try:
        status, doc = _reply(request_line.split()[1].decode("ascii"), body)
    except Exception as exc:  # keep serving; the client retries a 500
        status, doc = 500, {"error": f"{type(exc).__name__}: {exc}"}
    payload = json.dumps(doc).encode("utf-8")
    head = (f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n")
    return head.encode("ascii") + payload


class ProviderStub:
    """HTTP/1.1 endpoint on 127.0.0.1 served by a private event loop thread."""

    def __init__(self, delay_s: float, max_parallel: int):
        self.delay_s = delay_s
        self.max_parallel = max_parallel
        self.port: int | None = None
        self._stats = StubStats()
        self._inflight = 0
        self._busy_since = 0.0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._slots: asyncio.Semaphore | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def __enter__(self) -> "ProviderStub":
        started = threading.Event()
        self._loop = asyncio.new_event_loop()

        async def serve() -> None:
            self._slots = asyncio.Semaphore(self.max_parallel)
            self._server = await asyncio.start_server(self._serve_connection, "127.0.0.1", 0)
            self.port = self._server.sockets[0].getsockname()[1]
            started.set()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(serve())
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, name="provider-stub", daemon=True)
        self._thread.start()
        if not started.wait(timeout=10):
            raise RuntimeError("provider stub did not start")
        return self

    def __exit__(self, *exc) -> None:
        async def shutdown() -> None:
            self._server.close()
            handlers = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()

        asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def take_stats(self) -> StubStats:
        """Return the counters gathered since the last call and start new ones."""
        async def swap() -> StubStats:
            stats, self._stats = self._stats, StubStats()
            return stats

        return asyncio.run_coroutine_threadsafe(swap(), self._loop).result(timeout=10)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                received = len(request_line)
                headers = {}
                while (line := await reader.readline()) not in (b"\r\n", b"\n", b""):
                    received += len(line)
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                body = await reader.readexactly(int(headers.get("content-length", 0)))
                self._begin(received + len(body))
                sent = 0
                try:
                    async with self._slots:
                        await asyncio.sleep(self.delay_s)
                        response = _response(request_line, body)
                        writer.write(response)
                        sent = len(response)
                        await writer.drain()
                finally:
                    self._end(sent)
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _begin(self, nbytes: int) -> None:
        now = time.perf_counter()
        stats = self._stats
        stats.requests += 1
        stats.bytes_in += nbytes
        if stats.first_start is None:
            stats.first_start = now
        if self._inflight == 0:
            self._busy_since = now
        self._inflight += 1
        stats.max_inflight = max(stats.max_inflight, self._inflight)

    def _end(self, nbytes: int) -> None:
        now = time.perf_counter()
        stats = self._stats
        stats.bytes_out += nbytes
        self._inflight -= 1
        if self._inflight == 0:
            stats.busy_s += now - self._busy_since
        stats.last_end = now
