"""Command-line entry point.

Subcommands cover the full workflow: train-ngram, score, select,
heatmap, bench. Configuration resolves as flags > config file >
built-in "reference" profile. Report rows, pair sidecars and the
manifest carry the LDS parameters' hash; the reports' .meta.json
sidecar carries the resolved run config's hash. Identical inputs
reproduce identical bytes (run metadata such as timestamps lives in
.meta.json sidecars).

Exit codes: 0 success, 2 validation or usage error, or a file that
cannot be read or written, 3 scorer endpoint unreachable (at startup,
or no connection could be reopened mid-run), 4 completed with
per-document or per-cell failures, 130 interrupted (partial outputs are
written and marked incomplete).
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import glob
import hashlib
import json
import logging
import os
import re
import sys

from .backends import ExternalBackend
from .bench import (
    OracleBackend,
    SynthSpec,
    bench_csv,
    bench_table,
    cell_config,
    generate_testset,
    run_bench,
)
from .config import REFERENCE_PROFILE, RunConfig, resolve_config
from .corpus import IngestStats, ingest, tokenize
from .errors import BackendUnreachable, ConfigError, LongdepError
from .heatmap import SCALES, VALUES, render_heatmap
from .jsonio import (
    canonical_dumps,
    drop_meta_sidecar,
    ensure_parent,
    fingerprint,
    open_atomic,
    read_json,
    write_canonical,
    write_meta_sidecar,
)
from .lds import LdsConfig, field_types, pair_sidecar, report_from_sidecar
from .ngram import NGramBackend, NGramModel, train_ngram
from .pipeline import (
    STRATEGIES, DocumentOutcome, build_manifest, reports_only, retained_ids, score_corpus,
)

SCORER_ENDPOINT_ENV = "LONGDEP_SCORER_ENDPOINT"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNREACHABLE = 3
EXIT_PARTIAL = 4
EXIT_INTERRUPTED = 130

log = logging.getLogger("longdep")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to the ``sys.stderr`` of that moment."""

    def __init__(self):
        logging.Handler.__init__(self)
        self.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))

    @property
    def stream(self):
        return sys.stderr


def _configure_logging(verbose: bool) -> None:
    """Set the package logger's level and give it one stderr handler.

    The root logger is left to the host program, and a second ``main``
    call in one process adds no second handler.
    """
    log.setLevel(logging.DEBUG if verbose else logging.WARNING)
    if not any(isinstance(handler, _StderrHandler) for handler in log.handlers):
        log.addHandler(_StderrHandler())


def _external_endpoint(spec_str: str) -> str | None:
    """The endpoint of an ``external[:<endpoint>]`` spec, falling back to
    $LONGDEP_SCORER_ENDPOINT; None when the spec names another backend."""
    if spec_str != "external" and not spec_str.startswith("external:"):
        return None
    endpoint = spec_str[len("external:"):] or os.environ.get(SCORER_ENDPOINT_ENV, "")
    if not endpoint:
        raise ConfigError(
            f"no scorer endpoint for {spec_str!r}: use external:<endpoint> "
            f"or set {SCORER_ENDPOINT_ENV}"
        )
    return endpoint


def _resolve_backend(spec_str: str, tokenizer: str):
    """Backend selector: ngram:<model-file> or external[:<endpoint>]."""
    if spec_str.startswith("ngram:"):
        path = spec_str[len("ngram:"):]
        if not os.path.exists(path):
            raise ConfigError(f"model file not found: {path}")
        model = NGramModel.load(path)
        if model.tokenizer_kind != tokenizer:
            raise ConfigError(
                f"model {path} was trained on {model.tokenizer_kind!r} tokens, but this "
                f"run uses the {tokenizer!r} tokenizer; pass --tokenizer "
                f"{model.tokenizer_kind} or retrain the model"
            )
        return NGramBackend(model)
    endpoint = _external_endpoint(spec_str)
    if endpoint is not None:
        backend = ExternalBackend(endpoint)
        backend.connect_check()
        return backend
    raise ConfigError(
        f"bad backend {spec_str!r}: expected ngram:<model-file> or external[:<endpoint>]"
    )


def _sidecar_name(doc_id: str) -> str:
    # The whole digest, so that ids with one 80-character prefix get two files.
    safe = re.sub(r"[^-._a-zA-Z0-9]", "_", doc_id)[:80]
    tag = hashlib.sha256(doc_id.encode("utf-8")).hexdigest()
    return f"{safe}-{tag}.json"


# -- subcommands -----------------------------------------------------------


def cmd_train_ngram(args: argparse.Namespace, rc: RunConfig) -> int:
    if not os.path.exists(args.input):
        raise ConfigError(f"input not found: {args.input}")
    stats = IngestStats()
    docs = (
        tokenize(doc, rc.tokenizer)
        for doc in ingest(args.input, format=rc.input_format, stats=stats)
    )
    model = train_ngram(docs, order=rc.order, k=rc.k, tokenizer_kind=rc.tokenizer)
    ensure_parent(args.out)
    drop_meta_sidecar(args.out)
    model.save(args.out)
    write_meta_sidecar(
        args.out,
        complete=True,
        extra={
            "documents": stats.yielded,
            "vocabulary": len(model.vocab),
            "order": model.order,
        },
    )
    print(f"trained order-{model.order} model on {stats.yielded} docs -> {args.out}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace, rc: RunConfig) -> int:
    if not rc.backend:
        raise ConfigError("--backend is required (ngram:<model-file> or external[:<endpoint>])")
    if not args.input:
        raise ConfigError("--input is required")
    if not os.path.exists(args.input):
        raise ConfigError(f"input not found: {args.input}")
    backend = _resolve_backend(rc.backend, rc.tokenizer)
    try:
        return _score_into(args, rc, backend)
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()


def _score_into(args: argparse.Namespace, rc: RunConfig, backend) -> int:
    if rc.workers > 1:
        log.info("workers=%d: documents are scored one at a time", rc.workers)

    # The input is checked first, so a bad one leaves earlier outputs as they were.
    ingest_stats = IngestStats()
    docs = ingest(args.input, format=rc.input_format, stats=ingest_stats)
    os.makedirs(args.out_dir, exist_ok=True)
    pairs_dir = os.path.join(args.out_dir, "pairs")
    if args.emit_pairs:
        os.makedirs(pairs_dir, exist_ok=True)
    reports_path = os.path.join(args.out_dir, "reports.jsonl")

    counts = collections.Counter()
    complete = interrupted = False
    outcomes = score_corpus(
        docs, backend, rc.lds, tokenizer=rc.tokenizer, keep_pairs=args.emit_pairs
    )
    # An earlier run's sidecar and pair files, and the .partial of a
    # killed pair write, must not outlive its rows.
    drop_meta_sidecar(reports_path)
    for pattern in ("*.json", "*.partial"):
        for stale in glob.glob(os.path.join(glob.escape(pairs_dir), pattern)):
            os.remove(stale)
    try:
        with open(reports_path, "w", encoding="utf-8") as handle:
            for outcome in outcomes:
                if args.emit_pairs and outcome.report is not None:
                    sidecar = os.path.join(pairs_dir, _sidecar_name(outcome.doc_id))
                    write_canonical(sidecar, pair_sidecar(outcome.report))
                handle.write(canonical_dumps(outcome.to_row()))
                handle.write("\n")
                handle.flush()
                counts[outcome.status] += 1
        complete = True
    except KeyboardInterrupt:
        interrupted = True
        outcomes.close()
    finally:
        write_meta_sidecar(
            reports_path,
            complete=complete,
            extra={
                "config_hash": rc.fingerprint(),
                "scored": counts["scored"],
                "excluded": counts["excluded"],
                "failed": counts["failed"],
                "ingest": dataclasses.asdict(ingest_stats),
            },
        )
    print(
        f"scored={counts['scored']} excluded={counts['excluded']} failed={counts['failed']} "
        f"-> {reports_path}"
    )
    if interrupted:
        return EXIT_INTERRUPTED
    return EXIT_PARTIAL if counts["failed"] else EXIT_OK


def _load_outcomes(path: str) -> list[DocumentOutcome]:
    outcomes: list[DocumentOutcome] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                outcomes.append(DocumentOutcome.from_row(json.loads(line)))
            except (AttributeError, ConfigError, KeyError, ValueError) as exc:
                raise ConfigError(f"{path}:{number}: not a report row: {_problem(exc)}") from exc
    return outcomes


def _problem(exc: Exception) -> str:
    return f"no field {exc}" if isinstance(exc, KeyError) else str(exc)


def _marked_complete(path: str) -> bool:
    """Whether ``path`` has a readable ``.meta.json`` sidecar holding
    ``complete: true``."""
    try:
        meta = read_json(path + ".meta.json")
    except (OSError, ValueError):
        return False
    return isinstance(meta, dict) and meta.get("complete") is True


def cmd_select(args: argparse.Namespace, rc: RunConfig) -> int:
    if args.passthrough and args.global_ranking:
        raise ConfigError(
            "--passthrough keeps a source whole, but --global-ranking ranks every "
            "source as one group; pass one of the two"
        )
    if not os.path.exists(args.reports):
        raise ConfigError(f"reports file not found: {args.reports}")
    input_complete = _marked_complete(args.reports)
    if not input_complete:
        log.warning(
            "%s has no sidecar marking it complete; the manifest is marked complete: false",
            args.reports,
        )
    outcomes = _load_outcomes(args.reports)
    unknown = sorted(set(args.passthrough or ()) - {outcome.source for outcome in outcomes})
    if unknown:
        raise ConfigError(f"--passthrough names sources no row of {args.reports} has: {unknown}")
    fraction = 1.0 if args.strategy == "full" else rc.fraction
    manifest = build_manifest(
        reports_only(outcomes),
        outcomes,
        fraction,
        args.strategy,
        seed=rc.lds.seed,
        per_source=not args.global_ranking,
        passthrough_sources=frozenset(args.passthrough or ()),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    ids_path = os.path.join(args.out_dir, "retained_ids.txt")
    drop_meta_sidecar(manifest_path)
    kept = retained_ids(manifest)
    # Both files or neither: the ids' .partial is written and closed
    # before the manifest is replaced, and renamed only after it is.
    with open_atomic(ids_path) as handle:
        handle.writelines(f"{doc_id}\n" for doc_id in kept)
        handle.close()
        write_canonical(manifest_path, manifest)
    write_meta_sidecar(
        manifest_path,
        complete=input_complete,
        extra={"run_id": manifest["run_id"], "retained": len(kept)},
    )
    ranked = sum(len(entry["documents"]) for entry in manifest["sources"])
    print(f"strategy={manifest['strategy']} retained={len(kept)}/{ranked} -> {manifest_path}")
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    if not os.path.exists(args.pairs):
        raise ConfigError(
            f"pair sidecar not found: {args.pairs}; run "
            "'longdep score --emit-pairs' to write per-document pair records"
        )
    try:
        report = report_from_sidecar(read_json(args.pairs))
    except (ConfigError, KeyError, ValueError) as exc:
        raise ConfigError(f"{args.pairs} is not a pair sidecar: {_problem(exc)}") from exc
    base = os.path.splitext(args.pairs)[0]
    image_path = args.out_image or base + ".ppm"
    csv_path = args.out_csv or base + ".csv"
    render_heatmap(report, image_path, csv_path, args.scale, args.value, args.cell_size)
    print(f"wrote {image_path} and {csv_path}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace, rc: RunConfig) -> int:
    spec = SynthSpec(
        n_positive=args.n_positive,
        n_negative=args.n_negative,
        n_segments=args.n_segments,
        segment_len=args.bench_segment_len,
        seed=rc.lds.seed,
    )
    testset = generate_testset(spec)
    backends = []
    for token in args.backends.split(","):
        token = token.strip()
        if token == "ngram":
            model = train_ngram(testset.docs, order=rc.order, k=rc.k)
            backends.append(("ngram", lambda m=model: NGramBackend(m)))
        elif token == "oracle":
            backends.append(("oracle", lambda ts=testset: OracleBackend(ts.links)))
        elif (endpoint := _external_endpoint(token)) is not None:
            backends.append(("external", lambda ep=endpoint: ExternalBackend(ep)))
        else:
            raise ConfigError(f"unknown bench backend {token!r}")

    sample_sizes = [int(t) for t in args.sample_sizes.split(",")]
    results = run_bench(testset, backends, sample_sizes, rc.lds)
    failed = [r for r in results if r.status != "ok"]
    for r in failed:
        log.error("bench cell %s T=%d failed: %s", r.backend, r.sample_size, r.error)
    print(bench_table(results), end="")
    if args.out:
        ensure_parent(args.out)
        drop_meta_sidecar(args.out)
        with open_atomic(args.out) as handle:
            handle.write(bench_csv(results))
        # What the numbers depend on; each row states its own T.
        hashed = {**cell_config(spec, rc.lds).to_dict(), "order": rc.order, "k": rc.k}
        del hashed["sample_size"]
        write_meta_sidecar(args.out, complete=True, extra={"config_hash": fingerprint(hashed)})
        print(f"wrote {args.out}")
    return EXIT_PARTIAL if failed else EXIT_OK


# -- parser ----------------------------------------------------------------


def _add_config_flags(sub: argparse.ArgumentParser, *keys: str) -> None:
    """``--config``, ``--show-config``, and a flag for each config key of
    ``keys``, typed and checked as its field declares."""
    sub.add_argument("--config", help="JSON config file (flags override it)")
    sub.add_argument(
        "--show-config",
        action="store_true",
        help="print the resolved configuration and exit",
    )
    for cls in (LdsConfig, RunConfig):
        types = field_types(cls)
        for f in dataclasses.fields(cls):
            if f.name in keys:
                sub.add_argument(
                    "--" + f.name.replace("_", "-"),
                    dest=f.name,
                    type=types[f.name],
                    choices=f.metadata.get("choices"),
                    default=None,
                )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longdep",
        description="Long-dependency scoring and selection for training corpora.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train-ngram", help="train the built-in scorer model")
    train.add_argument("--input", required=True)
    train.add_argument("--out", required=True)
    _add_config_flags(train, "tokenizer", "input_format", "order", "k")
    train.set_defaults(func=cmd_train_ngram)

    score = commands.add_parser("score", help="score a corpus")
    score.add_argument("--input", default="")
    score.add_argument("--out-dir", dest="out_dir", default="longdep-out")
    score.add_argument(
        "--emit-pairs",
        action="store_true",
        help="write per-document pair sidecars (heatmap input)",
    )
    lds_keys = (f.name for f in dataclasses.fields(LdsConfig))
    _add_config_flags(score, "backend", "tokenizer", "input_format", "workers", *lds_keys)
    score.set_defaults(func=cmd_score)

    select = commands.add_parser("select", help="rank and select documents")
    select.add_argument("--reports", required=True)
    select.add_argument("--out-dir", dest="out_dir", default="longdep-out")
    select.add_argument("--strategy", choices=STRATEGIES, default="prolong")
    select.add_argument(
        "--global-ranking",
        dest="global_ranking",
        action="store_true",
        help="rank across sources instead of per source",
    )
    select.add_argument(
        "--passthrough",
        action="append",
        help="source retained whole regardless of strategy; per-source ranking only (repeatable)",
    )
    _add_config_flags(select, "seed", "fraction")
    select.set_defaults(func=cmd_select)

    heat = commands.add_parser("heatmap", help="render a scored document's dst matrix")
    heat.add_argument("--pairs", required=True, help="pair sidecar from score --emit-pairs")
    heat.add_argument("--out-image", dest="out_image", default="")
    heat.add_argument("--out-csv", dest="out_csv", default="")
    heat.add_argument("--scale", choices=SCALES, default="linear")
    heat.add_argument("--value", choices=VALUES, default="dst")
    heat.add_argument("--cell-size", dest="cell_size", type=int, default=4)
    heat.set_defaults(func=cmd_heatmap)

    bench = commands.add_parser("bench", help="synthetic accuracy/throughput bench")
    bench.add_argument("--backends", default="ngram")
    bench.add_argument("--sample-sizes", dest="sample_sizes", default="500,5000")
    bench.add_argument("--n-positive", dest="n_positive", type=int, default=100)
    bench.add_argument("--n-negative", dest="n_negative", type=int, default=100)
    bench.add_argument("--n-segments", dest="n_segments", type=int, default=64)
    bench.add_argument(
        "--segment-len", dest="bench_segment_len", type=int, default=16
    )
    bench.add_argument("--out", default="")
    _add_config_flags(bench, "seed", "order", "k")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    try:
        if "show_config" not in args:
            return args.func(args)
        flags = {key: getattr(args, key, None) for key in REFERENCE_PROFILE}
        rc = resolve_config(flags, args.config)
        if args.show_config:
            payload = {"profile": "reference", "config": rc.to_dict(), "hash": rc.fingerprint()}
            print(canonical_dumps(payload))
            return EXIT_OK
        return args.func(args, rc)
    except BackendUnreachable as exc:
        log.error("%s", exc)
        return EXIT_UNREACHABLE
    except (ConfigError, LongdepError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
