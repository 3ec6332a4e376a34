"""Single-threaded stand-in for an external perplexity scorer.

Usage: python3 stub_scorer.py LINKS_JSON

Speaks the NDJSON wire protocol of the README over stdin/stdout, one
request line in, one response line out, and exits on EOF. It answers
like ``longdep.bench.OracleBackend``: a conditional request scores well
exactly when the context's closing bigram is a planted link predicting
the target's opening token. The links file is a JSON list of
``[[a, b], c]`` triples written at benchmark set-up. A response routed
to the wrong request therefore lands on the wrong document and lowers
``accuracy_at_k``.

``target`` and ``context`` are accepted as token lists (the README form)
or as whitespace-joined text (what the client sends for whitespace
tokens); a null or absent context means unconditional scoring.
"""

from __future__ import annotations

import json
import sys

BASE_LOGPROB = -2.0
BOOST_LOGPROB = -0.5


def load_links(path: str) -> frozenset:
    with open(path, "r", encoding="utf-8") as handle:
        return frozenset(((a, b), c) for (a, b), c in json.load(handle))


def _tokens(field) -> list:
    if field is None:
        return []
    if isinstance(field, str):
        return field.split()
    if isinstance(field, list):
        return field
    raise ValueError(f"expected a token list or text, got {type(field).__name__}")


def logprob_sum(target, context, links: frozenset) -> float:
    """The stub's scoring rule, shared with the benchmark's reference."""
    n = len(target)
    if context and len(context) >= 2 and ((context[-2], context[-1]), target[0]) in links:
        return n * BOOST_LOGPROB
    return n * BASE_LOGPROB


def answer(line: str, links: frozenset) -> dict:
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"req_id": None, "error": f"bad request line: {exc}"}
    if not isinstance(request, dict):
        return {"req_id": None, "error": "request is not a JSON object"}
    req_id = request.get("req_id")
    try:
        target = _tokens(request.get("target"))
        context = _tokens(request.get("context"))
    except ValueError as exc:
        return {"req_id": req_id, "error": str(exc)}
    if not target:
        return {"req_id": req_id, "error": "empty target"}
    return {
        "req_id": req_id,
        "logprob_sum": logprob_sum(target, context, links),
        "token_count": len(target),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: stub_scorer.py LINKS_JSON", file=sys.stderr)
        return 2
    links = load_links(argv[0])
    for line in sys.stdin:
        if not line.strip():
            continue
        sys.stdout.write(json.dumps(answer(line, links)) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
