"""A scripted external scorer for the client tests, over stdio or TCP.

Run as ``python3 scripted_scorer.py`` it answers NDJSON requests on
stdin/stdout, one line per request, and exits on EOF. ``TcpScorer``
serves the same answers on a local port. The answer to a request comes
from ``answer``: a target scores better when its context shares a token
with it, and a context holding the token ``BOOM`` gets an error answer.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading


def answer(line: str) -> str:
    req = json.loads(line)
    target = req["target"].split()
    context = (req["context"] or "").split()
    if "BOOM" in context:
        return json.dumps({"req_id": req["req_id"], "error": "poisoned context"}) + "\n"
    if not context:
        rate = -1.0
    elif set(context) & set(target):
        rate = -0.5
    else:
        rate = -0.875
    out = {"req_id": req["req_id"], "logprob_sum": rate * len(target), "token_count": len(target)}
    return json.dumps(out) + "\n"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            self.wfile.write(answer(raw.decode("utf-8")).encode("utf-8"))
            self.wfile.flush()


class TcpScorer:
    """``answer`` served on 127.0.0.1 by a background thread, until
    ``close``."""

    def __init__(self):
        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Handler)
        self.server.daemon_threads = True
        self.endpoint = f"tcp://127.0.0.1:{self.server.server_address[1]}"
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(answer(line))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
