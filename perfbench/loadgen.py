"""HTTP load generator: an open loop for latency, a closed loop for capacity.

Runs in the benchmark process, never in the server's, over at most
``nproc`` keep-alive connections. The open loop sends request ``i`` when it
is due, at ``start + i / rate``, whether or not earlier requests have
returned; a request that finds every connection busy waits, and its latency
is timed from when it was due, so a stall is charged to every request it
delays. ``late`` is how long after its due time a request actually went out.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass


@dataclass
class Reply:
    path: str
    due: float
    sent: float
    done: float
    status: int | None  # None: the connection failed
    headers: dict
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def get(self, path: str) -> tuple[int, dict, bytes]:
        if self.writer is None:
            await self.open()
        self.writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode("ascii")
        )
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        body = await self.reader.readexactly(int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, body


async def _send(connection: Connection, path: str, due: float) -> Reply:
    sent = time.perf_counter()
    try:
        status, headers, body = await connection.get(path)
    except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
        await connection.close()
        status, headers, body = None, {}, b""
    return Reply(path, due, sent, time.perf_counter(), status, headers, body)


async def _open_loop(host, port, paths, rate, n_connections) -> list[Reply]:
    connections = [Connection(host, port) for _ in range(n_connections)]
    for connection in connections:
        await connection.open()
    queue: asyncio.Queue = asyncio.Queue()
    replies: list[Reply] = []

    async def worker(connection: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            replies.append(await _send(connection, *item))

    workers = [asyncio.create_task(worker(c)) for c in connections]
    start = time.perf_counter() + 0.01
    for index, path in enumerate(paths):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        queue.put_nowait((path, due))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    for connection in connections:
        await connection.close()
    return replies


async def _closed_loop(host, port, paths, seconds, n_connections) -> list[Reply]:
    connections = [Connection(host, port) for _ in range(n_connections)]
    for connection in connections:
        await connection.open()
    replies: list[Reply] = []
    feed = iter(paths)
    stop = time.perf_counter() + seconds

    async def worker(connection: Connection) -> None:
        for path in feed:
            if time.perf_counter() >= stop:
                return
            replies.append(await _send(connection, path, time.perf_counter()))

    await asyncio.gather(*(worker(c) for c in connections))
    for connection in connections:
        await connection.close()
    return replies


def open_loop(host: str, port: int, paths, rate: float, n_connections: int) -> list[Reply]:
    """Send every path in order at ``rate`` per second; replies by due time."""
    replies = asyncio.run(_open_loop(host, port, list(paths), rate, n_connections))
    return sorted(replies, key=lambda reply: reply.due)


def closed_loop(host: str, port: int, paths, seconds: float, n_connections: int) -> list[Reply]:
    """Each connection sends its next path as soon as the last one returns,
    for ``seconds``; ``paths`` must not run out first."""
    return asyncio.run(_closed_loop(host, port, paths, seconds, n_connections))


def get(host: str, port: int, path: str) -> tuple[int, dict, bytes]:
    """One request on a fresh connection."""

    async def once():
        connection = Connection(host, port)
        try:
            return await connection.get(path)
        finally:
            await connection.close()

    return asyncio.run(once())
