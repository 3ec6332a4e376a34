"""Perplexity helpers, caching, and the external scorer client."""

import json
import math
import shlex
import socket
import socketserver
import sys
import threading
import time
from pathlib import Path

import pytest
from scripted_scorer import Script, TcpScorer
from support import CountingBackend, DyingScorer, HashBackend, ScriptedBackend, process_alive

from longdep import backends
from longdep.backends import (
    ExternalBackend,
    _StdioConnection,
    cached_unconditional,
    ppl,
    ppl_given,
)
from longdep.corpus import SegmentGrid
from longdep.errors import BackendError, BackendUnreachable, ScoringError
from longdep.lds import LdsConfig, derive_seed, sample_pairs, score_document


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
        values = cached_unconditional(counting, grid, range(4))
        assert counting.unconditional_calls == 2
        assert values[0] == values[2] == values[3]
        assert values[0] == ppl(HashBackend(), ("a", "b"))

    def test_nothing_is_kept_across_documents(self):
        counting = CountingBackend(HashBackend())
        cached_unconditional(counting, _grid("one", [("a", "b"), ("c", "d")]), [0, 1])
        cached_unconditional(counting, _grid("two", [("c", "d"), ("a", "b")]), [0, 1])
        assert counting.unconditional_calls == 4

    def test_only_the_named_segments_are_scored(self):
        counting = CountingBackend(HashBackend())
        grid = _grid("d", [("a", "b"), ("c", "d"), ("e", "f"), ("c", "d")])
        values = cached_unconditional(counting, grid, [1, 3])
        assert counting.unconditional_calls == 1
        assert values == [ppl(HashBackend(), ("c", "d"))] * 2

    def test_failure_carries_segment_index(self):
        class Poison:
            def score(self, target, context=None):
                if "bad" in target:
                    raise BackendError("refused")
                return -1.0 * len(target), len(target)

        grid = _grid("d", [("a", "b"), ("bad", "x")])
        with pytest.raises(BackendError) as info:
            cached_unconditional(Poison(), grid, [0, 1])
        assert str(info.value) == "unconditional scoring failed at segment 1: refused"
        assert cached_unconditional(Poison(), grid, [0]) == [ppl(Poison(), ("a", "b"))]


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
        endpoint, log = _answering_stub(
            tmp_path, 'json.dumps({"req_id": req["req_id"], "error": "no such model"})'
        )
        backend = ExternalBackend(endpoint)
        try:
            with pytest.raises(BackendError, match="scorer error: no such model"):
                backend.score(("x",))
        finally:
            backend.close()
        # One scorer process, which got the request once.
        assert _targets_by_process(log) == [["x"]]

    def test_malformed_fields_are_not_retriable(self, tmp_path):
        endpoint, log = _answering_stub(
            tmp_path, 'json.dumps({"req_id": req["req_id"], "logprob_sum": "soon"})'
        )
        backend = ExternalBackend(endpoint)
        try:
            with pytest.raises(BackendError, match="malformed response"):
                backend.score(("x",))
        finally:
            backend.close()
        assert _targets_by_process(log) == [["x"]]

    @pytest.mark.parametrize(
        "field, value",
        [("token_count", True), ("token_count", 12.9), ("token_count", "12"),
         ("logprob_sum", "-3.5")],
    )
    def test_answer_of_the_wrong_type_is_malformed(self, tmp_path, field, value):
        # float() and int() would read these as a count of 1 or 12, or a sum of -3.5.
        answer = {"logprob_sum": -3.5, "token_count": 12, field: value}
        endpoint, log = _answering_stub(
            tmp_path, f'json.dumps({{"req_id": req["req_id"], **{answer!r}}})'
        )
        backend = ExternalBackend(endpoint)
        try:
            with pytest.raises(BackendError, match="malformed response"):
                backend.score(("x",))
        finally:
            backend.close()
        assert _targets_by_process(log) == [["x"]]

    def test_garbage_line_is_retriable(self, tmp_path):
        endpoint, log = _answering_stub(tmp_path, '"{broken"')
        backend = ExternalBackend(endpoint, retries=2)
        try:
            with pytest.raises(BackendError, match="bad response line"):
                backend.score(("x",))
        finally:
            backend.close()
        # Sent on the first connection, then resent on each of 2 fresh ones.
        assert _targets_by_process(log) == [["x"]] * 3

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
        endpoint, log = _answering_stub(
            tmp_path, 'json.dumps({"req_id": "wrong", "logprob_sum": -1.0, "token_count": 1})'
        )
        backend = ExternalBackend(endpoint, retries=1)
        try:
            with pytest.raises(BackendError, match="matches no request in flight"):
                backend.score(("x",))
        finally:
            backend.close()
        assert _targets_by_process(log) == [["x"]] * 2

    def test_dead_process_exhausts_retries(self, tmp_path):
        path = tmp_path / "dead.py"
        starts = tmp_path / "starts.log"
        path.write_text(f"open({str(starts)!r}, 'a').write('started\\n')\n", encoding="utf-8")
        backend = ExternalBackend(f"stdio://python3 {path}", retries=1)
        try:
            with pytest.raises(BackendUnreachable):
                backend.score(("x",))
        finally:
            backend.close()
        # The first attempt and one retry, each on a fresh process.
        assert starts.read_text().splitlines() == ["started"] * 2

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
        endpoint, log = _window_stub(tmp_path, """
import time
for line in sys.stdin:
    req = json.loads(line)
    log(req)
    if req["context"]:
        time.sleep(600)
    sys.stdout.write(answer(req))
    sys.stdout.flush()
""")
        backend = ExternalBackend(endpoint, timeout=0.5, retries=1)
        try:
            assert backend.score(("x",)) == (-1.0, 1)
            error = _raised_in_time(_start_call(lambda: backend.score(("x",), ("c",))))
            assert type(error) is BackendError
            assert "no answer within 0.5 s" in str(error)
        finally:
            _raised_in_time(_start_call(backend.close))
        # The request that timed out was resent once, on a fresh process.
        assert _targets_by_process(log) == [["x", "x"], ["x"]]

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

    def test_ipv6_address_in_brackets(self):
        class Server(socketserver.ThreadingTCPServer):
            address_family = socket.AF_INET6

        server = Server(("::1", 0), _ScorerHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        port = server.server_address[1]
        try:
            for endpoint in (f"tcp://[::1]:{port}", f"[::1]:{port}"):
                backend = ExternalBackend(endpoint)
                try:
                    backend.connect_check()
                    assert backend.score(("x",)) == (-0.75, 1)
                finally:
                    backend.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_ipv6_connect_failure_shows_the_brackets(self):
        probe = socket.socket(socket.AF_INET6)
        probe.bind(("::1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = ExternalBackend(f"tcp://[::1]:{port}", timeout=0.5)
        with pytest.raises(BackendUnreachable, match=rf"connect to \[::1\]:{port} failed"):
            backend.connect_check()

    @pytest.mark.parametrize("host", ["[::1", "::1]", "[]", "[[::1]]", "[::1]x"])
    def test_unmatched_bracket_is_a_bad_endpoint(self, host):
        with pytest.raises(BackendError, match="bad endpoint") as info:
            ExternalBackend(f"tcp://{host}:9")
        assert not isinstance(info.value, BackendUnreachable)

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


def _answering_stub(tmp_path, answer):
    """A ``_window_stub`` that logs each request and answers it with the
    line ``answer``, a Python expression of ``req``; its endpoint and log."""
    return _window_stub(tmp_path, f"""
for line in sys.stdin:
    req = json.loads(line)
    log(req)
    sys.stdout.write({answer} + "\\n")
    sys.stdout.flush()
""")


def _answer(req):
    """The window stub's ``answer``, for scorers served from the tests."""
    n = len(req["target"].split())
    rate = -0.5 if req["context"] else -1.0
    return json.dumps({"req_id": req["req_id"], "logprob_sum": rate * n, "token_count": n}) + "\n"


def _targets(n, width=2):
    """``n`` distinct targets ``t<i>``, ``width`` tokens each."""
    return [(f"t{i}",) * width for i in range(n)]


def _batch(targets):
    """``score_pairs`` arguments that score each of ``targets``, in
    order, after the context segment ``c``."""
    return [("c",), *targets], list(range(1, len(targets) + 1)), [0] * len(targets)


def _expected(targets):
    return [(-0.5 * len(target), len(target)) for target in targets]


def _record_windows(monkeypatch):
    """The request lines of each window sent on a ``stdio://``
    connection from now on, one list per window."""
    windows = []
    round_trip = _StdioConnection.round_trip

    def recording(self, requests):
        windows.append(list(requests))
        return round_trip(self, requests)

    monkeypatch.setattr(_StdioConnection, "round_trip", recording)
    return windows


@pytest.fixture()
def bounds_of_32(monkeypatch):
    """The window bounds the shape tests below were written for: 32
    requests and 64 KiB."""
    monkeypatch.setattr(backends, "WINDOW_REQUESTS", 32)
    monkeypatch.setattr(backends, "WINDOW_BYTES", 64 * 1024)


def _unconditional(request):
    return request.endswith(b'"context": null}\n')


ANSWER_EACH_LINE = """
for line in sys.stdin:
    sys.stdout.write(answer(json.loads(line)))
    sys.stdout.flush()
"""


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
        targets = [(f"t{i}",) * (i + 1) for i in range(5)]
        try:
            assert list(backend.score_pairs(*_batch(targets))) == _expected(targets)
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
        targets = _targets(5)
        try:
            results = backend.score_pairs(*_batch(targets))
            assert [next(results), next(results)] == _expected(targets[:2])
            with pytest.raises(BackendError) as raised:
                next(results)
            assert str(raised.value) == (
                "conditional scoring failed at pair (3, 0): scorer error: refused"
            )
            # The stream is still in step: the same process answers on.
            assert backend.score(("x",)) == (-1.0, 1)
            assert list(backend.score_pairs(*_batch(targets[3:]))) == _expected(targets[3:])
        finally:
            backend.close()
        # One process, and the refused pair was not resent: t2 went out
        # once alone and once after c.
        [sent] = _targets_by_process(log)
        assert sent.count("t2") == 2

    def test_failing_pair_sends_no_later_window(self, tmp_path, bounds_of_32):
        endpoint, log = _window_stub(tmp_path, """
for line in sys.stdin:
    req = json.loads(line)
    log(req)
    if "BOOM" in (req["context"] or ""):
        sys.stdout.write(json.dumps({"req_id": req["req_id"], "error": "refused"}) + "\\n")
    else:
        sys.stdout.write(answer(req))
    sys.stdout.flush()
""")
        # 16 distinct segments, so 120 exact pairs in 4 windows; the
        # first pair, (1, 0), has the poisoned context.
        segments = (("BOOM",) * 4,) + tuple((f"s{i}",) * 4 for i in range(1, 16))
        grid = SegmentGrid(doc_id="d", segment_len=4, segments=segments)
        backend = ExternalBackend(endpoint)
        try:
            with pytest.raises(BackendError, match=r"pair \(1, 0\): scorer error: refused"):
                score_document(backend, grid, LdsConfig(segment_len=4, truncate_len=64,
                                                        mode="exact"))
        finally:
            backend.close()
        # One unconditional request per target segment (1-15; segment 0
        # is only ever a source), then the first window only.
        assert len(log.read_text().splitlines()) == 15 + 32

    def test_one_unconditional_request_per_distinct_target(self, tmp_path):
        requests = tmp_path / "kinds.log"
        endpoint, _ = _window_stub(tmp_path, f"""
for line in sys.stdin:
    req = json.loads(line)
    with open({str(requests)!r}, "a") as handle:
        handle.write(json.dumps([req["target"], req["context"]]) + "\\n")
    sys.stdout.write(answer(req))
    sys.stdout.flush()
""")
        # 12 segments, three of them repeats; segment 0 is never a target.
        words = ["z", "a", "b", "a", "c", "d", "b", "e", "f", "a", "g", "h"]
        grid = SegmentGrid(doc_id="d", segment_len=2, segments=tuple((w, w) for w in words))
        cfg = LdsConfig(segment_len=2, truncate_len=24, sample_size=12, seed=3)
        targets, sources = sample_pairs(12, 12, derive_seed(3, "d"))
        backend = ExternalBackend(endpoint)
        try:
            report = score_document(backend, grid, cfg)
        finally:
            backend.close()
        assert report.pair_count == 12
        lines = [json.loads(line) for line in requests.read_text().splitlines()]
        unconditional = [target for target, context in lines if context is None]
        conditional = [(target, context) for target, context in lines if context is not None]
        first_seen = list(dict.fromkeys(f"{words[t]} {words[t]}" for t in targets.tolist()))
        assert unconditional == first_seen
        assert len(first_seen) < len(set(words))
        assert "z z" not in unconditional
        assert conditional == [
            (f"{words[t]} {words[t]}", f"{words[s]} {words[s]}")
            for t, s in zip(targets.tolist(), sources.tolist())
        ]

    def test_empty_segment_rejected_before_any_request(self):
        backend = ExternalBackend("tcp://127.0.0.1:1")
        with pytest.raises(ValueError):
            backend.score_pairs((("a",), ()), [1], [0])

    def test_garbage_line_resends_only_unanswered_requests(self, tmp_path):
        # The first process answers the unconditional requests, then the
        # pairs t0, t1, garbage, t3, t4; only pairs are logged.
        marker = tmp_path / "garbled"
        endpoint, log = _window_stub(tmp_path, """
first = not os.path.exists(MARKER)
open(MARKER, "a").close()
window = []
for line in sys.stdin:
    req = json.loads(line)
    if req["context"] is None:
        sys.stdout.write(answer(req))
        sys.stdout.flush()
        continue
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
        targets = _targets(5)
        try:
            assert list(backend.score_pairs(*_batch(targets))) == _expected(targets)
            assert _targets_by_process(log) == [["t0", "t1", "t2", "t3", "t4"], ["t2"]]
        finally:
            backend.close()

    def test_two_answers_on_one_line_are_a_bad_line(self, tmp_path):
        # The first process answers both requests of its window on one
        # line, then sends a line that answers nothing. Read together,
        # the two lines hold as many values as the window has lines.
        marker = tmp_path / "joined"
        endpoint, log = _window_stub(tmp_path, """
first = not os.path.exists(MARKER)
open(MARKER, "a").close()
window = []
for line in sys.stdin:
    req = json.loads(line)
    log(req)
    window.append(req)
    if first and len(window) == 2:
        sys.stdout.write(answer(window[0]).strip() + ", " + answer(window[1]) + "{}\\n")
    elif not first:
        sys.stdout.write(answer(req))
    sys.stdout.flush()
""".replace("MARKER", repr(str(marker))))
        backend = ExternalBackend(endpoint)
        targets = _targets(2)
        try:
            assert list(backend.score_pairs(*_batch(targets))) == _expected(targets)
            assert [backend.score(target) for target in targets] == [(-2.0, 2)] * 2
        finally:
            backend.close()
        # Neither answer of the joined line is taken: both unconditional
        # requests go again to a fresh process, before the pairs.
        assert _targets_by_process(log) == [["t0", "t1"], ["t0", "t1", "t0", "t1"]]

    def test_dropped_connection_resends_only_unanswered_requests(self):
        received = []

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                seen = []
                received.append(seen)
                dropping = len(received) == 1
                window = []
                for raw in self.rfile:
                    req = json.loads(raw)
                    if req["context"] is None:
                        # Unconditional requests are answered at once.
                        self.wfile.write(_answer(req).encode("utf-8"))
                        self.wfile.flush()
                        continue
                    window.append(req)
                    seen.append(req["target"].split()[0])
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
        targets = _targets(5)
        try:
            assert list(backend.score_pairs(*_batch(targets))) == _expected(targets)
            assert received == [["t0", "t1", "t2", "t3", "t4"], ["t2", "t3", "t4"]]
        finally:
            backend.close()
            server.shutdown()
            server.server_close()

    def test_windows_stay_within_their_bounds(self, tmp_path, monkeypatch, bounds_of_32):
        endpoint, _ = _window_stub(tmp_path, ANSWER_EACH_LINE)
        windows = _record_windows(monkeypatch)
        backend = ExternalBackend(endpoint)
        # 100 small pairs, then seven of about 15 KiB and one of 90 KiB.
        targets = _targets(100) + _targets(7, width=5000) + _targets(1, width=30000)
        try:
            assert list(backend.score_pairs(*_batch(targets))) == _expected(targets)
        finally:
            backend.close()
        # The unconditional requests of the 108 distinct targets go in
        # windows of their own, under the same bounds as the pairs.
        for unconditional in (True, False):
            sizes = [
                (len(window), sum(map(len, window)))
                for window in windows
                if _unconditional(window[0]) == unconditional
            ]
            assert [count for count, _ in sizes[:3]] == [32, 32, 32]
            for count, size in sizes:
                assert count <= 32
                assert size <= 64 * 1024 or count == 1
            assert sizes[-1][0] == 1 and sizes[-1][1] > 64 * 1024
            assert sum(count for count, _ in sizes) == len(targets)

    def test_unconditional_requests_go_out_in_windows(self, tmp_path, monkeypatch, bounds_of_32):
        endpoint, _ = _window_stub(tmp_path, ANSWER_EACH_LINE)
        windows = _record_windows(monkeypatch)
        backend = ExternalBackend(endpoint)
        targets = _targets(40)
        try:
            results = backend.score_pairs(*_batch(targets))
            # Sent in the call, before any pair result is taken.
            assert [len(window) for window in windows] == [32, 8]
            assert all(map(_unconditional, windows[0] + windows[1]))
            assert list(results) == _expected(targets)
        finally:
            backend.close()
        assert [len(window) for window in windows] == [32, 8, 32, 8]

    def test_refused_unconditional_request_fails_its_document(
        self, tmp_path, monkeypatch, bounds_of_32
    ):
        endpoint, _ = _window_stub(tmp_path, """
for line in sys.stdin:
    req = json.loads(line)
    if req["context"] is None and req["target"].startswith("BAD "):
        sys.stdout.write(json.dumps({"req_id": req["req_id"], "error": "refused"}) + "\\n")
    else:
        sys.stdout.write(answer(req))
    sys.stdout.flush()
""")
        windows = _record_windows(monkeypatch)
        # 41 distinct segments, so targets 1-40 in two unconditional
        # windows; the scorer refuses segment 5.
        segments = tuple(("BAD",) * 2 if i == 5 else (f"s{i}",) * 2 for i in range(41))
        grid = SegmentGrid(doc_id="d", segment_len=2, segments=segments)
        backend = ExternalBackend(endpoint)
        try:
            with pytest.raises(BackendError) as raised:
                score_document(backend, grid, LdsConfig(segment_len=2, truncate_len=82,
                                                        mode="exact"))
        finally:
            backend.close()
        assert str(raised.value) == (
            "unconditional scoring failed at segment 5: scorer error: refused"
        )
        # The rest of the first window went out with it; no later window,
        # unconditional or pair, did, and the refused request was not resent.
        assert [len(window) for window in windows] == [32]
        assert all(map(_unconditional, windows[0]))

    def test_score_reads_what_the_last_call_kept(self, tmp_path, monkeypatch):
        endpoint, _ = _window_stub(tmp_path, ANSWER_EACH_LINE)
        windows = _record_windows(monkeypatch)
        backend = ExternalBackend(endpoint)
        first, second = _targets(3), [("u",) * 2]
        try:
            list(backend.score_pairs(*_batch(first)))
            sent = len(windows)
            assert [backend.score(target) for target in first] == [(-2.0, 2)] * 3
            assert len(windows) == sent
            # With a context, ``score`` always asks the scorer.
            assert backend.score(first[0], ("c",)) == (-1.0, 2)
            assert len(windows) == sent + 1
            # The next call replaces what was kept.
            list(backend.score_pairs(*_batch(second)))
            sent = len(windows)
            assert backend.score(second[0]) == (-2.0, 2)
            assert len(windows) == sent
            assert backend.score(first[0]) == (-2.0, 2)
            assert len(windows) == sent + 1
        finally:
            backend.close()


# -- writing while reading ---------------------------------------------------


SCRIPTED_SCORER = Path(__file__).parent / "scripted_scorer.py"


@pytest.fixture()
def bounds_of_256(monkeypatch):
    """Window bounds of 256 requests and 1 MiB, so that ``BIG_TARGETS``
    go out as one window."""
    monkeypatch.setattr(backends, "WINDOW_REQUESTS", 256)
    monkeypatch.setattr(backends, "WINDOW_BYTES", 1 << 20)


@pytest.fixture(params=["stdio", "tcp"])
def scripted(request, tmp_path):
    """``scripted(script)``: the endpoint of a scripted scorer that
    follows ``script``, over ``stdio://`` or ``tcp://``."""
    closers = []

    def start(script):
        if request.param == "tcp":
            scorer = TcpScorer(script)
            closers.append(scorer.close)
            return scorer.endpoint
        args = [sys.executable, str(SCRIPTED_SCORER), "--pad", str(script.pad),
                "--then", script.then, "--marker", str(tmp_path / "first")]
        if script.log:
            args += ["--log", script.log]
        if script.stop_after is not None:
            args += ["--stop-after", str(script.stop_after)]
        return f"stdio://{shlex.join(args)}"

    yield start
    for close in closers:
        close()


# 100 targets of 600 tokens: each request line is about 2.4 KB, so one
# window of them is about 240 KB, several times a 64 KiB pipe buffer.
BIG_TARGETS = _targets(100, width=600)
# What the scripted scorer answers for each pair of ``_batch(BIG_TARGETS)``.
BIG_EXPECTED = [(-0.875 * 600, 600)] * 100


def _ids_by_stream(log):
    """The req_ids each stream of the scripted scorer answered, in order,
    one list per stream."""
    seen = {}
    for line in log.read_text().splitlines():
        stream, req_id = line.split()
        seen.setdefault(stream, []).append(int(req_id))
    return list(seen.values())


class TestFullDuplex:
    def test_window_beyond_every_buffer_does_not_block(self, scripted, monkeypatch):
        # The scorer answers each line before it reads the next, and both
        # the window's 100 requests and their padded answers come to about
        # 6.4 MB: past a pipe's 64 KiB, and past what the socket buffers of
        # both ends of a local TCP connection hold (4 MiB at most here).
        monkeypatch.setattr(backends, "WINDOW_REQUESTS", 256)
        monkeypatch.setattr(backends, "WINDOW_BYTES", 8 << 20)
        targets = _targets(100, width=16000)
        backend = ExternalBackend(scripted(Script(pad=64000)), timeout=5.0)
        try:
            call = _start_call(lambda: list(backend.score_pairs(*_batch(targets))))
            assert _raised_in_time(call, timeout=30.0) is None
            assert call[1]["result"] == [(-0.875 * 16000, 16000)] * 100
            assert backend.score(targets[0]) == (-16000.0, 16000)
        finally:
            _raised_in_time(_start_call(backend.close))

    @pytest.mark.parametrize("then", ["exit", "silent"])
    def test_stream_that_stops_mid_window_is_a_retriable_failure(
        self, scripted, bounds_of_256, tmp_path, then
    ):
        # The first stream answers 10 of the 100 unconditional requests,
        # then ends or goes silent while the client is still writing.
        log = tmp_path / "answers.log"
        endpoint = scripted(Script(log=str(log), stop_after=10, then=then))
        backend = ExternalBackend(endpoint, timeout=1.0, retries=0)
        try:
            started = time.monotonic()
            call = _start_call(lambda: backend.score_pairs(*_batch(BIG_TARGETS)))
            assert _raised_in_time(call, timeout=30.0) is None
            # A silent stream is given up on at the read deadline.
            assert time.monotonic() - started < 8.0
            assert backend.score(BIG_TARGETS[9]) == (-600.0, 600)
            with pytest.raises(BackendError) as raised:
                backend.score(BIG_TARGETS[10])
            assert type(raised.value) is BackendError
            if then == "silent":
                assert "no answer within 1.0 s" in str(raised.value)
        finally:
            _raised_in_time(_start_call(backend.close))
        # With retries=0 the unanswered 90 are not resent on a fresh stream.
        [answered] = _ids_by_stream(log)
        assert len(answered) == 10

    @pytest.mark.parametrize("then", ["exit", "silent"])
    def test_stream_that_stops_mid_window_resends_only_unanswered(
        self, scripted, bounds_of_256, tmp_path, then
    ):
        log = tmp_path / "answers.log"
        endpoint = scripted(Script(log=str(log), stop_after=10, then=then))
        backend = ExternalBackend(endpoint, timeout=1.0, retries=1)
        try:
            call = _start_call(lambda: list(backend.score_pairs(*_batch(BIG_TARGETS))))
            assert _raised_in_time(call, timeout=30.0) is None
            assert call[1]["result"] == BIG_EXPECTED
        finally:
            _raised_in_time(_start_call(backend.close))
        first, second = _ids_by_stream(log)
        # The first window's 100 requests: 10 answered by the first
        # stream, and only the other 90 sent again, in order.
        assert len(first) == 10
        assert first + second[:90] == list(range(first[0], first[0] + 100))
        assert len(second) == 90 + 100
