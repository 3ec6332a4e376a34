"""A scripted external scorer for the client tests, over stdio or TCP.

Run as ``python3 scripted_scorer.py [options]`` it answers NDJSON
requests on stdin/stdout, one line per request and each before it reads
the next, and exits on EOF. ``TcpScorer`` serves the same answers on a
local port. The answer to a request comes from ``answer``: a target
scores better when its context shares a token with it, and a context
holding the token ``BOOM`` gets an error answer.

Options (``Script`` holds them for ``TcpScorer``):
  --pad N          each answer carries an extra field of N bytes
  --log PATH       append "<stream> <req_id>" for each answer sent
  --stop-after K   the first stream answers K requests, then does --then
  --then exit      the stream ends: the process exits, or the TCP
                   scorer closes its side and reads on until the client
                   hangs up
  --then silent    the stream neither reads nor answers again
  --marker PATH    a stdio scorer is the first stream when PATH does not
                   exist yet; it creates it
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import socket
import socketserver
import sys
import threading
from dataclasses import dataclass


@dataclass
class Script:
    pad: int = 0
    log: str | None = None
    stop_after: int | None = None
    then: str = "exit"


def answer(line: str, pad: int = 0) -> str:
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
    if pad:
        out["pad"] = "." * pad
    return json.dumps(out) + "\n"


def serve(lines, write, script: Script, stream: str, first: bool) -> str | None:
    """Answer ``lines`` with ``write`` until they end, or until a first
    stream has answered ``script.stop_after`` requests; then the
    ``script.then`` it should do, else None."""
    for count, line in enumerate(lines):
        if first and count == script.stop_after:
            return script.then
        write(answer(line, script.pad))
        if script.log:
            with open(script.log, "a") as handle:
                handle.write(f"{stream} {json.loads(line)['req_id']}\n")
    return None


class TcpScorer:
    """``serve`` on 127.0.0.1 by background threads, one per connection,
    until ``close``; the first connection accepted is the first stream."""

    def __init__(self, script: Script | None = None):
        script = script or Script()
        release = self.release = threading.Event()
        streams = itertools.count()

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                stream = next(streams)
                lines = (raw.decode("utf-8") for raw in self.rfile)

                def write(out):
                    self.wfile.write(out.encode("utf-8"))
                    self.wfile.flush()

                then = serve(lines, write, script, f"tcp{stream}", stream == 0)
                if then == "exit":
                    self.connection.shutdown(socket.SHUT_WR)
                    for _ in self.rfile:
                        pass
                elif then == "silent":
                    release.wait()

        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        # Each connection inherits socket buffers about the size of a
        # pipe's, so a client that does not read holds the scorer up soon.
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            self.server.socket.setsockopt(socket.SOL_SOCKET, option, 64 * 1024)
        self.endpoint = f"tcp://127.0.0.1:{self.server.server_address[1]}"
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def close(self) -> None:
        self.release.set()
        self.server.shutdown()
        self.server.server_close()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--pad", type=int, default=0)
    parser.add_argument("--log")
    parser.add_argument("--stop-after", type=int)
    parser.add_argument("--then", choices=("exit", "silent"), default="exit")
    parser.add_argument("--marker")
    args = parser.parse_args(argv)
    first = args.marker is not None and not os.path.exists(args.marker)
    if first:
        open(args.marker, "w").close()

    def write(out):
        sys.stdout.write(out)
        sys.stdout.flush()

    script = Script(args.pad, args.log, args.stop_after, args.then)
    if serve(sys.stdin, write, script, f"pid{os.getpid()}", first) == "silent":
        threading.Event().wait()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
