"""Perplexity backends: the common protocol, caching, and the external
newline-delimited-JSON scorer client.

A backend maps (target tokens, optional context tokens) to a summed
natural log probability and a token count. The pipeline owns the
exp/normalize step, so rounding behavior is centralized here:

    perplexity = exp(-logprob_sum / token_count)
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import selectors
import signal
import socket
import subprocess
import threading
from typing import Iterable, Iterator, Protocol, Sequence

from .corpus import SegmentGrid, Token, TokenizerSpec
from .errors import BackendError, BackendUnreachable, ScoringError


class PerplexityBackend(Protocol):
    """``score`` is the one required call. A backend refuses a request it
    cannot take, such as one beyond its context limit, with BackendError.
    Optional calls, looked up with ``getattr``: ``score_pairs``,
    ``score_stream`` and ``close``."""

    def score(
        self, target: Sequence[Token], context: Sequence[Token] | None = None
    ) -> tuple[float, int]: ...


def ppl_from_sum(logprob_sum: float, token_count: int) -> float:
    """``exp(-logprob_sum / token_count)``; ScoringError unless finite
    and positive."""
    if token_count <= 0:
        raise ScoringError(f"backend returned token_count={token_count}")
    try:
        value = math.exp(-logprob_sum / token_count)
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) and value > 0.0):
        raise ScoringError(f"non-finite perplexity from logprob_sum={logprob_sum}")
    return value


def ppl(backend: PerplexityBackend, target: Sequence[Token]) -> float:
    """Perplexity of ``target`` with no context."""
    if not target:
        raise ValueError("target must be non-empty")
    logprob_sum, token_count = backend.score(target, None)
    return ppl_from_sum(logprob_sum, token_count)


def ppl_given(
    backend: PerplexityBackend,
    target: Sequence[Token],
    context: Sequence[Token],
) -> float:
    """Perplexity of ``target`` with ``context`` prepended as history.

    Context tokens contribute no loss terms. An empty context is exactly
    the unconditional case.
    """
    if not context:
        return ppl(backend, target)
    if not target:
        raise ValueError("target must be non-empty")
    logprob_sum, token_count = backend.score(target, context)
    return ppl_from_sum(logprob_sum, token_count)


class PplCache:
    """Unconditional segment perplexities of one document.

    Keys are the segment token contents, so repeated segments of a
    document share one backend call.
    """

    def __init__(self):
        self._entries: dict[tuple[Token, ...], float] = {}

    def lookup(self, segment: tuple[Token, ...]) -> float | None:
        return self._entries.get(segment)

    def store(self, segment: tuple[Token, ...], value: float) -> None:
        self._entries[segment] = value


def cached_unconditional(backend: PerplexityBackend, grid: SegmentGrid) -> list[float]:
    """Unconditional perplexity of every segment, at most one backend call
    per distinct segment content of this grid. Nothing is kept across
    calls, so memory does not grow with the corpus. Backend failures
    carry the segment index."""
    cache = PplCache()
    values: list[float] = []
    for idx, seg in enumerate(grid.segments):
        value = cache.lookup(seg)
        if value is None:
            try:
                value = ppl(backend, seg)
            except BackendUnreachable:
                raise
            except BackendError as exc:
                raise BackendError(
                    f"unconditional scoring failed at segment {idx}: {exc}",
                    retriable=exc.retriable,
                    segment_index=idx,
                ) from exc
            cache.store(seg, value)
        values.append(value)
    return values


# -- external scorer client ----------------------------------------------
#
# Wire protocol, one JSON object per line over a stream socket or a child
# process's stdio:
#   request:  {"req_id": str, "target": str, "context": str | null}
#   response: {"req_id": str, "logprob_sum": number, "token_count": integer}
#          or {"req_id": str, "error": str}
#
# Requests go out in windows: the client writes every line of a window,
# then reads one answer per request and matches them by ``req_id``, so
# answers may come back in any order. A window holds at most
# WINDOW_REQUESTS lines and WINDOW_BYTES bytes (one longer request goes
# alone), so it fits in a pipe's buffer and the write cannot block on a
# scorer that answers each line before it reads the next.

WINDOW_REQUESTS = 32
WINDOW_BYTES = 64 * 1024
# How long a ``stdio://`` scorer gets to exit once its stdin is closed.
CLOSE_GRACE_S = 1.0

_REQ_IDS = itertools.count(1)

ScoreResult = tuple[float, int] | BackendError


class _ShortRead(Exception):
    """The stream failed before every answer of a window was read;
    ``lines`` holds the answers read until then."""

    def __init__(self, message: str, lines: list[str]):
        super().__init__(message)
        self.lines = lines


class _Connection:
    """One open stream to the scorer. Subclasses supply ``_write`` and
    ``_read``; a read that times out raises TimeoutError."""

    # True once the scorer has sent any line on this stream.
    answered = False

    def __init__(self):
        self._buffer = bytearray()

    def round_trip(self, requests: list[bytes]) -> list[str]:
        """Write the request lines, then read one answer line per
        request, in arrival order. Raises _ShortRead if the stream ends,
        breaks or times out first."""
        lines: list[str] = []
        try:
            self._write(b"".join(requests))
            while len(lines) < len(requests):
                end = self._buffer.find(b"\n") + 1
                if end:
                    lines.append(self._buffer[:end].decode("utf-8", "replace"))
                    del self._buffer[:end]
                    continue
                chunk = self._read()
                if not chunk:
                    raise _ShortRead("scorer closed the stream", lines)
                self._buffer += chunk
        except OSError as exc:
            raise _ShortRead(f"transport failure: {exc}", lines) from exc
        finally:
            if lines:
                self.answered = True
        return lines

    def _write(self, data: bytes) -> None:
        raise NotImplementedError

    def _read(self) -> bytes:
        raise NotImplementedError


class _TcpConnection(_Connection):
    def __init__(self, host: str, port: int, timeout: float):
        super().__init__()
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise BackendError(f"connect to {host}:{port} failed: {exc}", retriable=True) from exc

    def _write(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _read(self) -> bytes:
        return self.sock.recv(1 << 16)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _StdioConnection(_Connection):
    """A child process in its own process group, so that closing it also
    stops whatever its shell started."""

    def __init__(self, command: str, timeout: float):
        super().__init__()
        try:
            self.proc = subprocess.Popen(
                command,
                shell=True,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                start_new_session=True,
            )
        except OSError as exc:
            raise BackendError(f"spawn {command!r} failed: {exc}", retriable=True) from exc
        self.timeout = timeout
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)

    def _write(self, data: bytes) -> None:
        if self.proc.poll() is not None:
            raise BrokenPipeError("scorer process exited")
        self.proc.stdin.write(data)
        self.proc.stdin.flush()

    def _read(self) -> bytes:
        if not self._selector.select(self.timeout):
            raise TimeoutError(f"no answer within {self.timeout} s")
        return os.read(self.proc.stdout.fileno(), 1 << 16)

    def close(self) -> None:
        """Close the scorer's stdin, give it CLOSE_GRACE_S to exit, then
        terminate its process group."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=CLOSE_GRACE_S)
        except subprocess.TimeoutExpired:
            self._signal_group(signal.SIGTERM)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._signal_group(signal.SIGKILL)
                self.proc.wait()
        self._selector.close()
        self.proc.stdout.close()

    def _signal_group(self, sig: int) -> None:
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            pass


class ExternalBackend:
    """Client for an external perplexity scorer.

    Endpoints: ``tcp://host:port`` (one socket) or ``stdio://command``
    (one child process). The connection opens on first use or in
    ``connect_check``, and calls from several threads take turns on it.
    Segments are detokenized to text before shipping; the scorer
    re-tokenizes with its own vocabulary. Context and target are sent as
    separate fields, so any separator policy is the scorer's own.

    ``score`` sends a one-request window; ``score_stream`` sends windows
    of up to WINDOW_REQUESTS. Every read waits at most ``timeout``
    seconds. An error answer from the scorer fails its own request only
    and is not retried. Failed connects, transport failures, timeouts,
    undecodable lines and unknown ``req_id``s drop the connection, and
    the requests still unanswered are resent on a fresh one, up to
    ``retries`` times. A call on which no connection could be opened, or
    none ever answered, on any attempt raises BackendUnreachable; a call
    that otherwise runs out of attempts fails its unanswered requests
    with BackendError.
    """

    def __init__(
        self,
        endpoint: str,
        tokenizer: TokenizerSpec | None = None,
        timeout: float = 30.0,
        retries: int = 2,
    ):
        self.endpoint = endpoint
        self.tokenizer = tokenizer or TokenizerSpec()
        self.timeout = timeout
        self.retries = retries
        if endpoint.startswith("stdio://"):
            self._open = functools.partial(_StdioConnection, endpoint[len("stdio://"):])
        else:
            addr = endpoint[len("tcp://"):] if endpoint.startswith("tcp://") else endpoint
            host, _, port = addr.rpartition(":")
            if not (host and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
                raise BackendError(
                    f"bad endpoint {endpoint!r}; expected tcp://host:port, port 1-65535"
                )
            self._open = functools.partial(_TcpConnection, host, int(port))
        # The open connection, or None. Used and replaced only under the
        # lock, so two callers never share its stream.
        self._conn: _Connection | None = None
        self._lock = threading.Lock()

    def _connection(self) -> _Connection:
        if self._conn is None:
            self._conn = self._open(self.timeout)
        return self._conn

    def _drop(self) -> None:
        self._conn.close()
        self._conn = None

    def connect_check(self) -> None:
        """Open the connection; raises BackendUnreachable on failure."""
        with self._lock:
            try:
                self._connection()
            except BackendError as exc:
                raise BackendUnreachable(
                    f"scorer endpoint {self.endpoint!r} unreachable: {exc}"
                ) from exc

    def close(self) -> None:
        """Close the connection; the next call opens a fresh one."""
        with self._lock:
            if self._conn is not None:
                self._drop()

    def _request(
        self,
        target: Sequence[Token],
        context: Sequence[Token] | None,
        texts: dict[tuple[Token, ...], bytes],
    ) -> tuple[str, bytes]:
        if not target:
            raise ValueError("target must be non-empty")
        req_id = str(next(_REQ_IDS))
        line = b'{"req_id": "%s", "target": %s, "context": %s}\n' % (
            req_id.encode("ascii"),
            self._json_text(target, texts),
            self._json_text(context, texts) if context else b"null",
        )
        return req_id, line

    def _json_text(
        self, tokens: Sequence[Token], texts: dict[tuple[Token, ...], bytes]
    ) -> bytes:
        """The detokenized segment as a JSON string, kept in ``texts``:
        a document's pairs reuse its few segments many times."""
        key = tuple(tokens)
        text = texts.get(key)
        if text is None:
            text = json.dumps(self.tokenizer.detokenize(tokens), ensure_ascii=False)
            text = texts[key] = text.encode("utf-8")
        return text

    def score(
        self, target: Sequence[Token], context: Sequence[Token] | None = None
    ) -> tuple[float, int]:
        [result] = self._exchange([self._request(target, context, {})])
        if isinstance(result, BackendError):
            raise result
        return result

    def score_stream(
        self, calls: Iterable[tuple[Sequence[Token], Sequence[Token] | None]]
    ) -> Iterator[ScoreResult]:
        """The (logprob_sum, token_count) of each (target, context) call,
        in call order, or the BackendError that failed that call alone.

        Calls are sent in windows, and a window goes out only when the
        consumer asks for its first result. BackendUnreachable is raised,
        not yielded.
        """
        texts: dict[tuple[Token, ...], bytes] = {}
        window: list[tuple[str, bytes]] = []
        size = 0
        for target, context in calls:
            request = self._request(target, context, texts)
            if window and (
                len(window) == WINDOW_REQUESTS or size + len(request[1]) > WINDOW_BYTES
            ):
                yield from self._exchange(window)
                window, size = [], 0
            window.append(request)
            size += len(request[1])
        if window:
            yield from self._exchange(window)

    def _exchange(self, window: list[tuple[str, bytes]]) -> list[ScoreResult]:
        results: list[ScoreResult | None] = [None] * len(window)
        # req_id -> position of each request still unanswered, in order.
        pending = {req_id: i for i, (req_id, _) in enumerate(window)}
        last_error: BackendError | None = None
        reached = False
        with self._lock:
            for _ in range(self.retries + 1):
                if not pending:
                    break
                try:
                    conn = self._connection()
                except BackendError as exc:
                    last_error = exc
                    continue
                failure: BackendError | None = None
                try:
                    lines = conn.round_trip([window[i][1] for i in pending.values()])
                except _ShortRead as exc:
                    lines, failure = exc.lines, BackendError(str(exc), retriable=True)
                reached = reached or conn.answered
                for line in lines:
                    try:
                        req_id, result = self._parse_response(line, pending)
                    except BackendError as exc:
                        failure = exc
                        continue
                    results[pending.pop(req_id)] = result
                if failure is not None:
                    # The stream may be out of step with our requests.
                    self._drop()
                    last_error = failure
        if pending:
            assert last_error is not None
            if not reached:
                raise BackendUnreachable(
                    f"scorer endpoint {self.endpoint!r} unreachable: {last_error}"
                )
            for i in pending.values():
                results[i] = last_error
        return results

    @staticmethod
    def _parse_response(line: str, pending: dict[str, int]) -> tuple[str, ScoreResult]:
        """The req_id of an answer and its result. Raises a retriable
        BackendError for a line that answers no request in flight."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BackendError(f"bad response line: {line!r}", retriable=True) from exc
        req_id = payload.get("req_id") if isinstance(payload, dict) else None
        if not isinstance(req_id, str) or req_id not in pending:
            raise BackendError(
                f"response req_id {req_id!r} matches no request in flight", retriable=True
            )
        if "error" in payload:
            return req_id, BackendError(f"scorer error: {payload['error']}", retriable=False)
        logprob_sum, token_count = payload.get("logprob_sum"), payload.get("token_count")
        if type(logprob_sum) in (int, float) and type(token_count) is int:
            return req_id, (float(logprob_sum), token_count)
        return req_id, BackendError(f"malformed response: {line!r}", retriable=False)
