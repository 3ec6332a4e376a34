"""Perplexity helpers, caching, and the external scorer client."""

import json
import math
import socket
import socketserver
import threading
import time

import pytest
from support import CountingBackend, DyingScorer, HashBackend, ScriptedBackend, process_alive

from longdep.backends import (
    WINDOW_BYTES,
    WINDOW_REQUESTS,
    ExternalBackend,
    _StdioConnection,
    cached_unconditional,
    ppl,
    ppl_given,
)
from longdep.corpus import SegmentGrid
from longdep.errors import BackendError, BackendUnreachable, ScoringError


class RateBackend:
    """Constant per-token log probability, chosen per construction."""

    def __init__(self, rate, count_override=None):
        self.rate = rate
        self.count_override = count_override

    def score(self, target, context=None):
        n = len(target)
        return self.rate * n, self.count_override if self.count_override is not None else n


class TestPplConversion:
    def test_mean_logprob_is_exponentiated(self):
        backend = RateBackend(-math.log(2.5))
        assert ppl(backend, ("a", "b", "c")) == pytest.approx(2.5, rel=1e-12)

    def test_scripted_value_round_trips(self):
        backend = ScriptedBackend({(("a",), None): 7.0})
        assert ppl(backend, ("a",)) == pytest.approx(7.0, rel=1e-12)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            ppl(RateBackend(-1.0), ())
        with pytest.raises(ValueError):
            ppl_given(RateBackend(-1.0), (), ("c",))

    def test_zero_token_count_is_scoring_error(self):
        with pytest.raises(ScoringError):
            ppl(RateBackend(-1.0, count_override=0), ("a",))

    def test_nan_sum_is_scoring_error(self):
        with pytest.raises(ScoringError):
            ppl(RateBackend(math.nan), ("a",))

    def test_underflow_to_zero_is_scoring_error(self):
        with pytest.raises(ScoringError):
            ppl(RateBackend(1e6), ("a",))

    def test_overflow_is_scoring_error(self):
        with pytest.raises(ScoringError):
            ppl(RateBackend(-1e6), ("a",))

    def test_empty_context_is_unconditional_path(self):
        backend = CountingBackend(RateBackend(-0.5))
        a = ppl_given(backend, ("a", "b"), ())
        b = ppl(backend, ("a", "b"))
        assert a == b
        assert backend.conditional_calls == 0
        assert backend.unconditional_calls == 2


class TestCountingBackend:
    def test_splits_call_kinds(self):
        backend = CountingBackend(RateBackend(-1.0))
        backend.score(("a",))
        backend.score(("a",), ())
        backend.score(("a",), ("c",))
        assert backend.unconditional_calls == 2
        assert backend.conditional_calls == 1
        assert backend.total_calls == 3


def _grid(doc_id, segments):
    return SegmentGrid(
        doc_id=doc_id,
        segment_len=len(segments[0]),
        segments=tuple(tuple(s) for s in segments),
    )


class TestPplCache:
    def test_one_call_per_distinct_content(self):
        counting = CountingBackend(HashBackend())
        grid = _grid("d", [("a", "b"), ("c", "d"), ("a", "b"), ("a", "b")])
        values = cached_unconditional(counting, grid)
        assert counting.unconditional_calls == 2
        assert values[0] == values[2] == values[3]
        assert values[0] == ppl(HashBackend(), ("a", "b"))

    def test_nothing_is_kept_across_documents(self):
        counting = CountingBackend(HashBackend())
        cached_unconditional(counting, _grid("one", [("a", "b"), ("c", "d")]))
        cached_unconditional(counting, _grid("two", [("c", "d"), ("a", "b")]))
        assert counting.unconditional_calls == 4

    def test_failure_carries_segment_index(self):
        class Poison:
            def score(self, target, context=None):
                if "bad" in target:
                    raise BackendError("refused", retriable=False)
                return -1.0 * len(target), len(target)

        grid = _grid("d", [("a", "b"), ("bad", "x")])
        with pytest.raises(BackendError) as info:
            cached_unconditional(Poison(), grid)
        assert info.value.segment_index == 1


# -- external scorer -------------------------------------------------------


STUB_PREAMBLE = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
"""


def _stub(tmp_path, body, name="stub.py"):
    path = tmp_path / name
    path.write_text(STUB_PREAMBLE + body, encoding="utf-8")
    return f"stdio://python3 {path}"


GOOD_BODY = """\
    n = len(req["target"].split())
    rate = -0.5 if req["context"] else -1.0
    out = {"req_id": req["req_id"], "logprob_sum": rate * n, "token_count": n}
    sys.stdout.write(json.dumps(out) + "\\n")
    sys.stdout.flush()
"""


class TestExternalStdio:
    def test_round_trip_scores(self, tmp_path):
        backend = ExternalBackend(_stub(tmp_path, GOOD_BODY))
        try:
            assert ppl(backend, ("x", "y")) == pytest.approx(math.e, rel=1e-9)
            assert ppl_given(backend, ("x", "y"), ("c",)) == pytest.approx(
                math.exp(0.5), rel=1e-9
            )
        finally:
            backend.close()

    def test_context_field_is_null_when_absent(self, tmp_path):
        body = """\
    n = len(req["target"].split())
    rate = -2.0 if req["context"] is None else -0.1
    out = {"req_id": req["req_id"], "logprob_sum": rate * n, "token_count": n}
    sys.stdout.write(json.dumps(out) + "\\n")
    sys.stdout.flush()
"""
        backend = ExternalBackend(_stub(tmp_path, body))
        try:
            assert ppl(backend, ("x",)) == pytest.approx(math.exp(2.0), rel=1e-9)
        finally:
            backend.close()

    def test_error_response_is_not_retriable(self, tmp_path):
        body = """\
    out = {"req_id": req["req_id"], "error": "no such model"}
    sys.stdout.write(json.dumps(out) + "\\n")
    sys.stdout.flush()
"""
        backend = ExternalBackend(_stub(tmp_path, body))
        try:
            with pytest.raises(BackendError) as info:
                backend.score(("x",))
            assert info.value.retriable is False
        finally:
            backend.close()

    def test_malformed_fields_are_not_retriable(self, tmp_path):
        body = """\
    out = {"req_id": req["req_id"], "logprob_sum": "soon"}
    sys.stdout.write(json.dumps(out) + "\\n")
    sys.stdout.flush()
"""
        backend = ExternalBackend(_stub(tmp_path, body))
        try:
            with pytest.raises(BackendError) as info:
                backend.score(("x",))
            assert info.value.retriable is False
        finally:
            backend.close()

    @pytest.mark.parametrize(
        "field, value",
        [("token_count", True), ("token_count", 12.9), ("token_count", "12"),
         ("logprob_sum", "-3.5")],
    )
    def test_answer_of_the_wrong_type_is_malformed(self, tmp_path, field, value):
        # float() and int() would read these as a count of 1 or 12, or a sum of -3.5.
        answer = {"logprob_sum": -3.5, "token_count": 12, field: value}
        body = f"""\
    out = {{"req_id": req["req_id"], **{answer!r}}}
    sys.stdout.write(json.dumps(out) + "\\n")
    sys.stdout.flush()
"""
        backend = ExternalBackend(_stub(tmp_path, body))
        try:
            with pytest.raises(BackendError, match="malformed response") as info:
                backend.score(("x",))
            assert info.value.retriable is False
        finally:
            backend.close()

    def test_garbage_line_is_retriable(self, tmp_path):
        body = """\
    sys.stdout.write("{broken\\n")
    sys.stdout.flush()
"""
        backend = ExternalBackend(_stub(tmp_path, body))
        try:
            with pytest.raises(BackendError) as info:
                backend.score(("x",))
            assert info.value.retriable is True
        finally:
            backend.close()

    def test_one_garbage_line_is_retried_on_a_fresh_connection(self, tmp_path):
        marker = tmp_path / "garbled"
        body = """\
    import os
    if not os.path.exists(MARKER):
        open(MARKER, "w").close()
        sys.stdout.write("{broken\\n")
        sys.stdout.flush()
        continue
""".replace("MARKER", repr(str(marker))) + GOOD_BODY
        backend = ExternalBackend(_stub(tmp_path, body))
        try:
            assert ppl(backend, ("x", "y")) == pytest.approx(math.e, rel=1e-9)
            assert marker.exists()
        finally:
            backend.close()

    def test_request_id_mismatch_is_retriable(self, tmp_path):
        body = """\
    out = {"req_id": "wrong", "logprob_sum": -1.0, "token_count": 1}
    sys.stdout.write(json.dumps(out) + "\\n")
    sys.stdout.flush()
"""
        backend = ExternalBackend(_stub(tmp_path, body))
        try:
            with pytest.raises(BackendError) as info:
                backend.score(("x",))
            assert info.value.retriable is True
        finally:
            backend.close()

    def test_dead_process_exhausts_retries(self, tmp_path):
        path = tmp_path / "dead.py"
        path.write_text("raise SystemExit(0)\n", encoding="utf-8")
        backend = ExternalBackend(f"stdio://python3 {path}", retries=1)
        try:
            with pytest.raises(BackendUnreachable) as info:
                backend.score(("x",))
            assert info.value.retriable is True
        finally:
            backend.close()

    def test_empty_target_rejected(self, tmp_path):
        backend = ExternalBackend(_stub(tmp_path, GOOD_BODY))
        try:
            with pytest.raises(ValueError):
                backend.score(())
        finally:
            backend.close()


class TestStdioDeadline:
    def test_silent_scorer_times_out_as_unreachable(self, tmp_path):
        body = """\
    import time
    time.sleep(600)
"""
        backend = ExternalBackend(_stub(tmp_path, body), timeout=0.5, retries=1)
        try:
            started = time.monotonic()
            error = _raised_in_time(_start_call(lambda: backend.score(("x",))))
            assert isinstance(error, BackendUnreachable)
            assert "no answer within 0.5 s" in str(error)
            assert time.monotonic() - started < 8.0
        finally:
            _raised_in_time(_start_call(backend.close))

    def test_scorer_that_stops_answering_fails_the_call(self, tmp_path):
        # It has answered before, so it was reached: a plain failure.
        body = """\
    import time
    if req["context"]:
        time.sleep(600)
""" + GOOD_BODY
        backend = ExternalBackend(_stub(tmp_path, body), timeout=0.5, retries=0)
        try:
            assert backend.score(("x",)) == (-1.0, 1)
            error = _raised_in_time(_start_call(lambda: backend.score(("x",), ("c",))))
            assert type(error) is BackendError
            assert error.retriable is True
        finally:
            _raised_in_time(_start_call(backend.close))

    def test_close_stops_the_whole_process_group(self, tmp_path):
        # The scorer runs under a shell and never reads its stdin again,
        # so neither EOF nor terminating the shell alone stops it.
        pid_file = tmp_path / "pid"
        body = """\
    import os, time
    open(PID_FILE, "w").write(str(os.getpid()))
    time.sleep(600)
""".replace("PID_FILE", repr(str(pid_file)))
        backend = ExternalBackend(_stub(tmp_path, body), timeout=0.5, retries=0)
        error = _raised_in_time(_start_call(lambda: backend.score(("x",))))
        assert isinstance(error, BackendUnreachable)
        _raised_in_time(_start_call(backend.close))
        assert not process_alive(int(pid_file.read_text()))


class _ScorerHandler(socketserver.StreamRequestHandler):
    def handle(self):
        import json

        for raw in self.rfile:
            req = json.loads(raw)
            n = len(req["target"].split())
            rate = -0.25 if req["context"] else -0.75
            out = {
                "req_id": req["req_id"],
                "logprob_sum": rate * n,
                "token_count": n,
            }
            self.wfile.write((json.dumps(out) + "\n").encode("utf-8"))
            self.wfile.flush()


@pytest.fixture()
def tcp_scorer():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _ScorerHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"tcp://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def _start_call(fn):
    """Run ``fn`` in a daemon thread, so a call that blocks for good
    cannot hang the suite."""
    outcome = {}

    def run():
        try:
            outcome["result"] = fn()
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def _raised_in_time(call, timeout=10.0):
    thread, outcome = call
    thread.join(timeout)
    assert not thread.is_alive(), f"call still blocked after {timeout} s"
    return outcome.get("error")


class TestExternalTcp:
    def test_dead_scorer_fails_each_call_without_hanging(self):
        scorer = DyingScorer(answers=1)
        backend = ExternalBackend(scorer.endpoint)
        try:
            backend.connect_check()
            assert backend.score(("x",)) == (-1.0, 1)
            scorer.kill()
            for _ in range(4):
                error = _raised_in_time(_start_call(lambda: backend.score(("x",))))
                assert isinstance(error, BackendError)
        finally:
            backend.close()

    def test_refused_reconnects_raise_unreachable(self):
        scorer = DyingScorer(answers=1)
        backend = ExternalBackend(scorer.endpoint)
        try:
            assert backend.score(("x",)) == (-1.0, 1)
            scorer.kill()
            # The open connection is tried and found dead: a plain failure.
            error = _raised_in_time(_start_call(lambda: backend.score(("x",))))
            assert type(error) is BackendError
            # No attempt of the next call gets a connection at all.
            error = _raised_in_time(_start_call(lambda: backend.score(("x",))))
            assert isinstance(error, BackendUnreachable)
        finally:
            backend.close()

    def test_waiting_callers_are_released_when_connections_die(self):
        scorer = DyingScorer(answers=0)
        backend = ExternalBackend(scorer.endpoint)
        try:
            backend.connect_check()
            calls = [_start_call(lambda: backend.score(("x",))) for _ in range(4)]
            assert scorer.seen.acquire(timeout=10.0)
            time.sleep(0.1)  # the other three callers are waiting for the connection
            scorer.kill()
            for call in calls:
                assert isinstance(_raised_in_time(call), BackendError)
        finally:
            backend.close()

    def test_round_trip_scores(self, tcp_scorer):
        backend = ExternalBackend(tcp_scorer)
        try:
            backend.connect_check()
            assert ppl(backend, ("x", "y", "z")) == pytest.approx(
                math.exp(0.75), rel=1e-9
            )
            assert ppl_given(backend, ("x",), ("c",)) == pytest.approx(
                math.exp(0.25), rel=1e-9
            )
        finally:
            backend.close()

    def test_concurrent_scores_are_correct(self, tcp_scorer):
        backend = ExternalBackend(tcp_scorer)
        results = [None] * 8

        def work(i):
            results[i] = backend.score((f"w{i}", "x"), ("ctx",))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
                assert not t.is_alive()
            assert all(r == (-0.5, 2) for r in results)
        finally:
            backend.close()

    def test_unreachable_port_raises(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = ExternalBackend(f"tcp://127.0.0.1:{port}", timeout=0.5)
        with pytest.raises(BackendUnreachable):
            backend.connect_check()

    def test_bare_host_port_accepted(self, tcp_scorer):
        backend = ExternalBackend(tcp_scorer[len("tcp://"):])
        try:
            backend.connect_check()
        finally:
            backend.close()

    def test_bad_endpoint_rejected(self):
        with pytest.raises(BackendError):
            ExternalBackend("tcp://nohost")
        with pytest.raises(BackendError):
            ExternalBackend("just-words")

    @pytest.mark.parametrize("port", ["0", "65536", "99999"])
    def test_port_outside_range_is_a_bad_endpoint(self, port):
        # getaddrinfo would wrap 99999 to port 34463 and connect there.
        with pytest.raises(BackendError, match="bad endpoint") as info:
            ExternalBackend(f"tcp://127.0.0.1:{port}")
        assert not isinstance(info.value, BackendUnreachable)
        for edge in ("1", "65535"):
            ExternalBackend(f"tcp://127.0.0.1:{edge}")


# -- windows ---------------------------------------------------------------


WINDOW_STUB_HEAD = """\
import json, os, sys

def answer(req):
    n = len(req["target"].split())
    rate = -0.5 if req["context"] else -1.0
    out = {"req_id": req["req_id"], "logprob_sum": rate * n, "token_count": n}
    return json.dumps(out) + "\\n"

def log(req):
    with open(LOG, "a") as handle:
        handle.write(f"{os.getpid()} {req['target']}\\n")
"""


def _window_stub(tmp_path, body):
    path = tmp_path / "window_stub.py"
    log = tmp_path / "requests.log"
    path.write_text(WINDOW_STUB_HEAD.replace("LOG", repr(str(log))) + body, encoding="utf-8")
    return f"stdio://python3 {path}", log


def _answer(req):
    """The window stub's ``answer``, for scorers served from the tests."""
    n = len(req["target"].split())
    rate = -0.5 if req["context"] else -1.0
    return json.dumps({"req_id": req["req_id"], "logprob_sum": rate * n, "token_count": n}) + "\n"


def _calls(n, width=2):
    """``n`` (target, context) calls with distinct targets ``t<i>``."""
    return [((f"t{i}",) * width, ("c",)) for i in range(n)]


def _expected(calls):
    return [(-0.5 * len(target), len(target)) for target, _ in calls]


def _targets_by_process(log):
    seen = {}
    for line in log.read_text().splitlines():
        pid, target = line.split(" ", 1)
        seen.setdefault(pid, []).append(target.split()[0])
    return list(seen.values())


class TestWindows:
    def test_answers_out_of_order_are_matched(self, tmp_path):
        endpoint, _ = _window_stub(tmp_path, """
window = []
for line in sys.stdin:
    window.append(json.loads(line))
    if len(window) == 5:
        sys.stdout.write("".join(answer(req) for req in reversed(window)))
        sys.stdout.flush()
        window = []
""")
        backend = ExternalBackend(endpoint)
        calls = [((f"t{i}",) * (i + 1), ("c",)) for i in range(5)]
        try:
            assert list(backend.score_stream(calls)) == _expected(calls)
        finally:
            backend.close()

    def test_error_answer_fails_only_its_call(self, tmp_path):
        endpoint, log = _window_stub(tmp_path, """
for line in sys.stdin:
    req = json.loads(line)
    log(req)
    if req["target"].startswith("t2 "):
        sys.stdout.write(json.dumps({"req_id": req["req_id"], "error": "refused"}) + "\\n")
    else:
        sys.stdout.write(answer(req))
    sys.stdout.flush()
""")
        backend = ExternalBackend(endpoint)
        calls = _calls(5)
        try:
            results = list(backend.score_stream(calls))
            assert isinstance(results[2], BackendError)
            assert results[2].retriable is False
            assert str(results[2]) == "scorer error: refused"
            del results[2], calls[2]
            assert results == _expected(calls)
            # The stream is still in step: the same process answers on.
            assert backend.score(("x",)) == (-1.0, 1)
            assert len(_targets_by_process(log)) == 1
        finally:
            backend.close()

    def test_garbage_line_resends_only_unanswered_requests(self, tmp_path):
        # The first process answers t0, t1, garbage, t3, t4.
        marker = tmp_path / "garbled"
        endpoint, log = _window_stub(tmp_path, """
first = not os.path.exists(MARKER)
open(MARKER, "a").close()
window = []
for line in sys.stdin:
    req = json.loads(line)
    log(req)
    window.append(req)
    if first and len(window) < 5:
        continue
    out = [answer(req) for req in window]
    if first:
        out[2] = "{broken\\n"
        first = False
    sys.stdout.write("".join(out))
    sys.stdout.flush()
    window = []
""".replace("MARKER", repr(str(marker))))
        backend = ExternalBackend(endpoint)
        calls = _calls(5)
        try:
            assert list(backend.score_stream(calls)) == _expected(calls)
            assert _targets_by_process(log) == [["t0", "t1", "t2", "t3", "t4"], ["t2"]]
        finally:
            backend.close()

    def test_dropped_connection_resends_only_unanswered_requests(self):
        received = []

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                seen = []
                received.append(seen)
                dropping = len(received) == 1
                window = []
                for raw in self.rfile:
                    window.append(json.loads(raw))
                    seen.append(window[-1]["target"].split()[0])
                    if dropping and len(window) < 5:
                        continue
                    # The first connection answers two of five and closes.
                    answered = window[:2] if dropping else window
                    self.wfile.write("".join(map(_answer, answered)).encode("utf-8"))
                    self.wfile.flush()
                    if dropping:
                        return
                    window = []

        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, daemon=True).start()
        backend = ExternalBackend(f"tcp://127.0.0.1:{server.server_address[1]}", timeout=5.0)
        calls = _calls(5)
        try:
            assert list(backend.score_stream(calls)) == _expected(calls)
            assert received == [["t0", "t1", "t2", "t3", "t4"], ["t2", "t3", "t4"]]
        finally:
            backend.close()
            server.shutdown()
            server.server_close()

    def test_windows_stay_within_their_bounds(self, tmp_path, monkeypatch):
        endpoint, _ = _window_stub(tmp_path, """
for line in sys.stdin:
    sys.stdout.write(answer(json.loads(line)))
    sys.stdout.flush()
""")
        windows = []
        round_trip = _StdioConnection.round_trip

        def recording(self, requests):
            windows.append((len(requests), sum(map(len, requests))))
            return round_trip(self, requests)

        monkeypatch.setattr(_StdioConnection, "round_trip", recording)
        backend = ExternalBackend(endpoint)
        # 100 small calls, then seven of about 15 KiB and one of 90 KiB.
        calls = _calls(100) + _calls(7, width=5000) + _calls(1, width=30000)
        try:
            assert list(backend.score_stream(calls)) == _expected(calls)
        finally:
            backend.close()
        assert [count for count, _ in windows[:3]] == [32, 32, 32]
        for count, size in windows:
            assert count <= WINDOW_REQUESTS == 32
            assert size <= WINDOW_BYTES == 64 * 1024 or count == 1
        assert windows[-1][0] == 1 and windows[-1][1] > WINDOW_BYTES
        assert sum(count for count, _ in windows) == len(calls)
