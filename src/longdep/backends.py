"""Perplexity backends: the common protocol, caching, and the external
newline-delimited-JSON scorer client.

A backend maps (target tokens, optional context tokens) to a summed
natural log probability and a token count. The pipeline owns the
exp/normalize step, so rounding behavior is centralized here:

    perplexity = exp(-logprob_sum / token_count)
"""

from __future__ import annotations

import itertools
import json
import math
import socket
import subprocess
import threading
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from .corpus import SegmentGrid, Token, TokenizerSpec
from .errors import BackendError, BackendUnreachable, ScoringError


@dataclass(frozen=True)
class BackendCapabilities:
    max_context_tokens: int
    deterministic: bool


@runtime_checkable
class PerplexityBackend(Protocol):
    @property
    def capabilities(self) -> BackendCapabilities: ...

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
    if len(target) > backend.capabilities.max_context_tokens:
        raise ValueError("target exceeds backend context capacity")
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
    if len(target) + len(context) > backend.capabilities.max_context_tokens:
        raise ValueError("context + target exceeds backend context capacity")
    logprob_sum, token_count = backend.score(target, context)
    return ppl_from_sum(logprob_sum, token_count)


class CountingBackend:
    """Wrapper that counts calls; used by tests and the bench to verify
    call-count contracts (N unconditional + T conditional per document)."""

    def __init__(self, inner: PerplexityBackend):
        self.inner = inner
        self.unconditional_calls = 0
        self.conditional_calls = 0

    @property
    def capabilities(self) -> BackendCapabilities:
        return self.inner.capabilities

    @property
    def total_calls(self) -> int:
        return self.unconditional_calls + self.conditional_calls

    def score(self, target, context=None):
        if context:
            self.conditional_calls += 1
        else:
            self.unconditional_calls += 1
        return self.inner.score(target, context)


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
#   response: {"req_id": str, "logprob_sum": float, "token_count": int}
#          or {"req_id": str, "error": str}

_REQ_IDS = itertools.count(1)


class _TcpConnection:
    def __init__(self, host: str, port: int, timeout: float):
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise BackendError(f"connect to {host}:{port} failed: {exc}", retriable=True) from exc
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def round_trip(self, request: str) -> str:
        self.sock.sendall(request.encode("utf-8"))
        return self.reader.readline()

    def close(self) -> None:
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


class _StdioConnection:
    def __init__(self, command: str):
        try:
            self.proc = subprocess.Popen(
                command,
                shell=True,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise BackendError(f"spawn {command!r} failed: {exc}", retriable=True) from exc

    def round_trip(self, request: str) -> str:
        if self.proc.poll() is not None:
            raise BackendError("scorer process exited", retriable=True)
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.write(request)
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()


class ExternalBackend:
    """Client for an external perplexity scorer.

    Endpoints: ``tcp://host:port`` (one socket) or ``stdio://command``
    (one child process). The connection opens on first use or in
    ``connect_check``, and calls from several threads take turns on it.
    Segments are detokenized to text before shipping; the scorer
    re-tokenizes with its own vocabulary. Context and target are sent as
    separate fields, so any separator policy is the scorer's own.

    Failed connects, transport failures, undecodable lines and mismatched
    ``req_id``s are retried up to ``retries`` times on a fresh
    connection; an error response from the scorer is not retried. A call
    whose every attempt failed to open a connection raises
    BackendUnreachable; any other failure raises BackendError.
    """

    def __init__(
        self,
        endpoint: str,
        tokenizer: TokenizerSpec | None = None,
        timeout: float = 30.0,
        retries: int = 2,
        max_context_tokens: int = 1 << 16,
    ):
        self.endpoint = endpoint
        self.tokenizer = tokenizer or TokenizerSpec()
        self.timeout = timeout
        self.retries = retries
        self._capabilities = BackendCapabilities(
            max_context_tokens=max_context_tokens, deterministic=False
        )
        if endpoint.startswith("stdio://"):
            self._mode = "stdio"
            self._command = endpoint[len("stdio://"):]
        else:
            self._mode = "tcp"
            addr = endpoint[len("tcp://"):] if endpoint.startswith("tcp://") else endpoint
            host, _, port = addr.rpartition(":")
            if not host or not port.isdigit():
                raise BackendError(f"bad endpoint {endpoint!r}; expected tcp://host:port")
            self._host, self._port = host, int(port)
        # The open connection, or None. Used and replaced only under the
        # lock, so two callers never share its stream.
        self._conn = None
        self._lock = threading.Lock()

    @property
    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    def _connection(self):
        if self._conn is None:
            if self._mode == "stdio":
                self._conn = _StdioConnection(self._command)
            else:
                self._conn = _TcpConnection(self._host, self._port, self.timeout)
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

    def score(
        self, target: Sequence[Token], context: Sequence[Token] | None = None
    ) -> tuple[float, int]:
        if not target:
            raise ValueError("target must be non-empty")
        req_id = str(next(_REQ_IDS))
        request = json.dumps(
            {
                "req_id": req_id,
                "target": self.tokenizer.detokenize(target),
                "context": self.tokenizer.detokenize(context) if context else None,
            },
            ensure_ascii=False,
        ) + "\n"
        with self._lock:
            return self._send(request, req_id)

    def _send(self, request: str, req_id: str) -> tuple[float, int]:
        last_error: BackendError | None = None
        connected = False
        for _ in range(self.retries + 1):
            try:
                conn = self._connection()
            except BackendError as exc:
                last_error = exc
                continue
            connected = True
            try:
                line = conn.round_trip(request)
            except (OSError, BackendError) as exc:
                self._drop()
                last_error = BackendError(f"transport failure: {exc}", retriable=True)
                continue
            if not line:
                self._drop()
                last_error = BackendError("scorer closed the stream", retriable=True)
                continue
            try:
                return self._parse_response(line, req_id)
            except BackendError as exc:
                if not exc.retriable:
                    raise
                # The stream may be out of step with our requests: drop it.
                self._drop()
                last_error = exc
        assert last_error is not None
        if not connected:
            raise BackendUnreachable(
                f"scorer endpoint {self.endpoint!r} unreachable: {last_error}"
            )
        raise last_error

    @staticmethod
    def _parse_response(line: str, req_id: str) -> tuple[float, int]:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BackendError(f"bad response line: {line!r}", retriable=True) from exc
        if payload.get("req_id") != req_id:
            raise BackendError(
                f"response req_id {payload.get('req_id')!r} does not match {req_id!r}",
                retriable=True,
            )
        if "error" in payload:
            raise BackendError(f"scorer error: {payload['error']}", retriable=False)
        try:
            logprob_sum = float(payload["logprob_sum"])
            token_count = int(payload["token_count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed response: {line!r}", retriable=False) from exc
        return logprob_sum, token_count
