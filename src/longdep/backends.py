"""Perplexity backends: the common protocol, caching, and the external
newline-delimited-JSON scorer client.

A backend maps (target tokens, optional context tokens) to a summed
natural log probability and a token count. The pipeline owns the
exp/normalize step, so rounding behavior is centralized here:

    perplexity = exp(-logprob_sum / token_count)
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import os
import select
import signal
import socket
import subprocess
import threading
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .corpus import SegmentGrid, Token, detokenize
from .errors import BackendError, BackendUnreachable, LongdepError, ScoringError


class PerplexityBackend(Protocol):
    """``score`` is the one required call. A backend refuses a request it
    cannot take, such as one beyond its context limit, with BackendError.
    Optional calls, looked up with ``getattr``: ``close`` and
    ``score_pairs(segments, targets, sources)``, an iterable of the
    ``score(segments[t], segments[s])`` of each (t, s) pair, in order; a
    pair that fails raises its ``failed_at`` when its result is taken."""

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


def failed_at(exc: LongdepError, target: int, source: int | None = None) -> LongdepError:
    """``exc``, a BackendError or ScoringError, as one of the same class
    that names where it happened: pair (target, source), or segment
    ``target`` scored alone if ``source`` is None. Callers let
    BackendUnreachable pass unwrapped."""
    where = (f"conditional scoring failed at pair ({target}, {source})" if source is not None
             else f"unconditional scoring failed at segment {target}")
    return (ScoringError if isinstance(exc, ScoringError) else BackendError)(f"{where}: {exc}")


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


def cached_unconditional(
    backend: PerplexityBackend, grid: SegmentGrid, targets: Sequence[int]
) -> list[float]:
    """Unconditional perplexity of each segment of ``grid`` that
    ``targets`` names, in order, at most one backend call per distinct
    segment content. Nothing is kept across calls, so memory does not
    grow with the corpus. A failure names its segment (``failed_at``)."""
    cache = PplCache()
    values: list[float] = []
    for idx in targets:
        seg = grid.segments[idx]
        value = cache.lookup(seg)
        if value is None:
            try:
                value = ppl(backend, seg)
            except BackendUnreachable:
                raise
            except (BackendError, ScoringError) as exc:
                raise failed_at(exc, idx) from exc
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
# Requests go out in windows, and answers are matched by ``req_id``, so
# they may come back in any order. The client writes a window's lines
# while it reads answers, so no window size can deadlock it against a
# scorer that answers each line before it reads the next. A window holds
# at most WINDOW_REQUESTS lines and WINDOW_BYTES bytes (one longer
# request goes alone). These bound the client's memory and the requests
# that a refusal wastes, since the rest of a refused request's window has
# already gone out. Within them, a larger window measured faster on the
# external-stdio benchmark, whose scorer answers line by line on the
# client's CPU: the client wakes for each answer only once the window is
# all written, and a batching scorer sees more requests at once.

WINDOW_REQUESTS = 1024
WINDOW_BYTES = 1 << 20
# How long a ``stdio://`` scorer gets to exit once its stdin is closed.
CLOSE_GRACE_S = 1.0
# How long the client waits for room to write before it also wakes for
# each answer (see ``_Connection.round_trip``).
STALL_S = 0.002

_REQ_IDS = itertools.count(1)
_REQUEST = b'{"req_id": "%d", "target": %s, "context": %s}\n'

ScoreResult = tuple[float, int] | BackendError


class _Connection:
    """One open stream to the scorer: it is read from file descriptor
    ``rfd`` and written to ``wfd`` (the same one for a socket), neither
    blocking, and one poll watches both. A subclass may supply
    ``_check_open``, run before each round trip."""

    # True once the scorer has sent any line on this stream.
    answered = False

    def __init__(self, timeout: float, rfd: int, wfd: int):
        os.set_blocking(rfd, False)
        os.set_blocking(wfd, False)
        self.timeout = timeout
        self._rfd, self._wfd = rfd, wfd
        self._buffer = bytearray()
        self._poll = select.poll()

    def round_trip(self, requests: list[bytes]) -> tuple[list[str], BackendError | None]:
        """Write the request lines while reading answer lines, until
        every line is out and one answer per request is in. Returns the
        answers read, in arrival order, and the failure that cut them
        short, if any: the stream failed or ended first, or it neither
        took nor gave a byte for ``timeout`` seconds. A failed write ends
        the writing, but the answers already on their way are still
        read."""
        failure = None
        have = self._buffer.count(b"\n")
        expected = len(requests)
        unsent = memoryview(b"".join(requests))
        stalled = False
        try:
            self._check_open()
            while True:
                if unsent:
                    try:
                        unsent = unsent[os.write(self._wfd, unsent):]
                    except BlockingIOError:
                        pass
                    except OSError as exc:
                        failure = f"transport failure: {exc}"
                        expected -= unsent.tobytes().count(b"\n")
                        unsent = unsent[:0]
                try:
                    chunk = os.read(self._rfd, 1 << 16)
                except BlockingIOError:
                    chunk = None
                if chunk == b"":
                    failure = failure or "scorer closed the stream"
                    break
                if chunk:
                    self._buffer += chunk
                    have += chunk.count(b"\n")
                if have >= expected and not unsent:
                    break
                # While lines remain unsent, the client waits for room to
                # write them and then reads what has come, rather than
                # waking for each answer line. A scorer that takes nothing
                # for STALL_S may be blocked writing answers, so from then
                # on answers wake the client too.
                waiting_to_write = bool(unsent) and not stalled
                self._watch(read=not waiting_to_write, write=bool(unsent))
                ready = self._poll.poll((STALL_S if waiting_to_write else self.timeout) * 1000)
                if not ready:
                    if waiting_to_write:
                        stalled = True
                        continue
                    raise TimeoutError(f"no answer within {self.timeout} s")
        except OSError as exc:
            failure = failure or f"transport failure: {exc}"
        lines = self._take(min(have, len(requests)))
        self.answered = self.answered or bool(lines)
        return lines, BackendError(failure) if failure else None

    def _watch(self, read: bool, write: bool) -> None:
        """Poll for answers to read if ``read``, and for room to write if
        ``write``; hang-ups and errors are reported either way."""
        readable = select.POLLIN if read else 0
        writable = select.POLLOUT if write else 0
        if self._wfd == self._rfd:
            self._poll.register(self._rfd, readable | writable)
        else:
            self._poll.register(self._rfd, readable)
            self._poll.register(self._wfd, writable)

    def _take(self, count: int) -> list[str]:
        """The first ``count`` lines of the buffer, each with its newline,
        split off in one pass; the buffer keeps the rest."""
        *lines, self._buffer = self._buffer.split(b"\n", count)
        return [line.decode("utf-8", "replace") + "\n" for line in lines]

    def _check_open(self) -> None:
        """Raise OSError if the stream is known to be gone; by default
        that is found by reading or writing."""


class _TcpConnection(_Connection):
    """A socket to ``address``, (host, port), which messages call ``name``."""

    def __init__(self, address: tuple[str, int], name: str, timeout: float):
        try:
            self.sock = socket.create_connection(address, timeout=timeout)
        except OSError as exc:
            raise BackendError(f"connect to {name} failed: {exc}") from exc
        super().__init__(timeout, self.sock.fileno(), self.sock.fileno())

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _StdioConnection(_Connection):
    """A child process in its own process group, so that closing it also
    stops whatever its shell started."""

    def __init__(self, command: str, timeout: float):
        try:
            self.proc = subprocess.Popen(
                command,
                shell=True,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                start_new_session=True,
            )
        except OSError as exc:
            raise BackendError(f"spawn {command!r} failed: {exc}") from exc
        super().__init__(timeout, self.proc.stdout.fileno(), self.proc.stdin.fileno())

    def _check_open(self) -> None:
        if self.proc.poll() is not None:
            raise BrokenPipeError("scorer process exited")

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
        self.proc.stdout.close()

    def _signal_group(self, sig: int) -> None:
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            pass


def _json_text(tokens: Sequence[Token]) -> bytes:
    """The detokenized segment as a JSON string."""
    return json.dumps(detokenize(tokens), ensure_ascii=False).encode("utf-8")


class ExternalBackend:
    """Client for an external perplexity scorer.

    Endpoints: ``tcp://host:port``, or ``tcp://[addr]:port`` for an IPv6
    address (one socket), or ``stdio://command`` (one child process). The
    connection opens on first use or in ``connect_check``, and calls from
    several threads take turns on it. Segments are detokenized to text
    before shipping; the scorer re-tokenizes with its own vocabulary.
    Context and target are sent as separate fields, so any separator
    policy is the scorer's own.

    ``score_pairs`` sends a document's unconditional requests, one per
    distinct target segment, and then its pairs, in windows of up to
    WINDOW_REQUESTS. ``score`` answers an unconditional request from
    the last ``score_pairs`` call's results when it can, and otherwise
    sends a one-request window. A window's request lines are built
    together and written while its answers are read, so a scorer may
    take and answer them at any pace and no window size can deadlock;
    the stream may go at most ``timeout`` seconds without taking or
    giving a byte. The answers are checked and matched to their requests
    in one pass. An error or malformed answer from the scorer fails its
    own request only and is not resent: ``score`` raises it, and
    ``score_pairs`` raises it, named by ``failed_at``, when that pair's
    result is taken. Failed
    connects, transport failures, timeouts, undecodable lines and
    unknown ``req_id``s drop the connection, and the requests still
    unanswered are resent on a fresh one, up to ``retries`` times. A
    call on which no connection could be opened, or none ever answered,
    on any attempt raises BackendUnreachable; a call that otherwise runs
    out of attempts fails its unanswered requests with BackendError.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        retries: int = 2,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        if endpoint.startswith("stdio://"):
            self._open = functools.partial(_StdioConnection, endpoint[len("stdio://"):])
        else:
            addr = endpoint[len("tcp://"):] if endpoint.startswith("tcp://") else endpoint
            shown, _, port = addr.rpartition(":")
            # An IPv6 address comes in one pair of brackets: [::1]:port.
            host = shown[1:-1] if shown[:1] == "[" and shown[-1:] == "]" else shown
            if not (host and "[" not in host and "]" not in host
                    and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
                raise BackendError(
                    f"bad endpoint {endpoint!r}; expected tcp://host:port, port 1-65535"
                )
            port = int(port)
            self._open = functools.partial(_TcpConnection, (host, port), f"{shown}:{port}")
        # The open connection, or None. Used and replaced only under the
        # lock, so two callers never share its stream.
        self._conn: _Connection | None = None
        self._lock = threading.Lock()
        # The unconditional results of the last ``score_pairs`` call, by
        # segment content.
        self._kept: dict[tuple[Token, ...], ScoreResult] = {}

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

    def score(
        self, target: Sequence[Token], context: Sequence[Token] | None = None
    ) -> tuple[float, int]:
        if not target:
            raise ValueError("target must be non-empty")
        result = None if context else self._kept.get(tuple(target))
        if result is None:
            context_text = _json_text(context) if context else b"null"
            [result] = self._exchange(*next(_windows([(_json_text(target), context_text)])))
        if isinstance(result, BackendError):
            raise result
        return result

    def score_pairs(
        self,
        segments: Sequence[Sequence[Token]],
        targets: Sequence[int],
        sources: Sequence[int],
    ) -> Iterator[tuple[float, int]]:
        """The (logprob_sum, token_count) of ``segments[t]`` after context
        ``segments[s]`` for each (t, s) of ``targets`` and ``sources``, in
        order. An empty segment raises ValueError here.

        First, in this call, the unconditional requests of the distinct
        target segments go out in windows, in ascending row order and one
        per distinct content. Their results are kept until the next call,
        and ``score(target)`` with no context answers from there. A window
        with a failed request is the last one sent, and the failure is
        raised when ``score`` reads that target. BackendUnreachable is
        raised as it is.

        Then the pairs are sent in windows, and a window goes out only
        when its first result is taken. A pair the scorer answers with an
        error raises its ``failed_at`` when its result is taken;
        BackendUnreachable is raised as it is.
        """
        if not all(segments):
            raise ValueError("segments must be non-empty")
        # Each segment is detokenized once; a document's pairs reuse it often.
        texts = list(map(_json_text, segments))
        targets = np.asarray(targets, dtype=np.int64)
        rows: dict[tuple[Token, ...], int] = {}
        for row in np.unique(targets).tolist():
            rows.setdefault(tuple(segments[row]), row)
        self._kept = kept = {}
        contents = list(rows)
        unconditional = zip(map(texts.__getitem__, rows.values()), itertools.repeat(b"null"))
        for ids, lines in _windows(unconditional):
            results = self._exchange(ids, lines)
            kept.update(zip(contents[len(kept):], results))
            if _failed(results):
                break
        sources = np.asarray(sources, dtype=np.int64)
        return itertools.chain.from_iterable(
            self._pair_windows(texts, targets.tolist(), sources.tolist())
        )

    def _pair_windows(self, texts, targets, sources) -> Iterator[list[tuple[float, int]]]:
        """The results of each window of pairs. A window is sent when
        this is advanced to it; one with a failed pair yields the results
        before it and then raises that pair's ``failed_at``."""
        done = 0
        parts = zip(map(texts.__getitem__, targets), map(texts.__getitem__, sources))
        for ids, lines in _windows(parts):
            results = self._exchange(ids, lines)
            failed = _failed(results)
            if failed:
                i = failed[0]
                yield results[:i]
                raise failed_at(results[i], targets[done + i], sources[done + i]) from results[i]
            yield results
            done += len(results)

    def _exchange(self, ids: list[int], lines: list[bytes]) -> list[ScoreResult]:
        """The result of each request of one window, by position: request
        ``lines[i]`` carries ``req_id`` ``ids[i]``. Each answer is checked
        and matched in one pass over the window's answers."""
        results: list[ScoreResult | None] = [None] * len(ids)
        # req_id -> position of each request still unanswered, in order.
        pending = dict(zip(map(str, ids), range(len(ids))))
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
                answers, failure = conn.round_trip([lines[i] for i in pending.values()])
                reached = reached or conn.answered
                for line, payload in zip(answers, _decoded(answers)):
                    req_id = payload.get("req_id") if type(payload) is dict else None
                    i = pending.pop(req_id, None) if type(req_id) is str else None
                    if i is None:
                        # Not JSON, or answers no request in flight.
                        failure = BackendError(
                            f"bad response line: {line!r}" if payload is _UNDECODABLE
                            else f"response req_id {req_id!r} matches no request in flight"
                        )
                    elif "error" in payload:
                        results[i] = BackendError(f"scorer error: {payload['error']}")
                    else:
                        logprob_sum = payload.get("logprob_sum")
                        token_count = payload.get("token_count")
                        if type(logprob_sum) in (int, float) and type(token_count) is int:
                            results[i] = (float(logprob_sum), token_count)
                        else:
                            results[i] = BackendError(f"malformed response: {line!r}")
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


_UNDECODABLE = object()


def _decoded(lines: list[str]) -> list:
    """The JSON value of each answer line, or _UNDECODABLE. One
    ``json.loads`` reads the whole window; only when that fails, or
    finds another count of values, is each line decoded alone, to find
    the bad one."""
    try:
        payloads = json.loads("[%s]" % ",".join(lines))
        if len(payloads) == len(lines):
            return payloads
    except ValueError:
        pass
    return list(map(_decoded_line, lines))


def _decoded_line(line: str) -> object:
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        return _UNDECODABLE


def _failed(results: list[ScoreResult]) -> list[int]:
    """The positions of the failed results."""
    return [i for i, result in enumerate(results) if type(result) is not tuple]


def _windows(parts: Iterable[tuple[bytes, bytes]]) -> Iterator[tuple[list[int], list[bytes]]]:
    """The request lines of ``parts``, (target, context) pairs of JSON
    texts, in windows of at most WINDOW_REQUESTS lines and WINDOW_BYTES
    bytes (a longer line goes alone), each with its lines' req_ids. A
    window's lines are built together, when it is about to be sent; the
    lines past its byte bound open the next window."""
    parts = iter(parts)
    ids: list[int] = []
    lines: list[bytes] = []
    while True:
        fresh = list(itertools.islice(parts, WINDOW_REQUESTS - len(lines)))
        new_ids = list(itertools.islice(_REQ_IDS, len(fresh)))
        lines += [_REQUEST % (i, t, c) for i, (t, c) in zip(new_ids, fresh)]
        ids += new_ids
        if not lines:
            return
        cut = max(1, bisect.bisect_right(list(itertools.accumulate(map(len, lines))), WINDOW_BYTES))
        yield ids[:cut], lines[:cut]
        ids, lines = ids[cut:], lines[cut:]
