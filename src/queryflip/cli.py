"""Command-line entry point: index, search, edit, eval, sweep-beam."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from typing import Sequence, get_args, get_type_hints

from .config import RunConfig
from .corpus import numbered_lines, open_lines, read_records
from .editor import EditResult, Triplet
from .evaluation import (
    METHODS,
    EvalContext,
    EvalReport,
    beam_sweep,
    build_triplets,
    evaluate,
    render_markdown,
    reports_to_json,
    sweep_edits,
)
from .pipeline import (
    Stack,
    build_stack_from_file,
    load_stack,
    make_context,
    save_stack,
)
from .text import tokenize

logger = logging.getLogger(__name__)


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults) with every given setting flag applied."""
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    return config.with_overrides(
        **{f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    )


def _open_run(args: argparse.Namespace) -> tuple[RunConfig, Stack, EvalContext]:
    """Config, loaded stack and editing context for edit, eval and sweep-beam."""
    config = _load_config(args)
    stack = load_stack(config)
    return config, stack, make_context(stack, config)


def _result_payload(
    result: EditResult, triplet: Triplet, stack: Stack, query_text: str,
    elapsed: float,
) -> dict:
    return {
        "query": query_text,
        "doc_id": triplet.d.id,
        "counter_doc_id": triplet.d_prime.id,
        "q_prime": None if result.outcome is None else stack.vocab.text(result.outcome),
        "masks_used": result.masks_used,
        "elapsed_s": elapsed,
        "iterations": [
            {
                "masks": len(it.masked_positions),
                "masked_positions": list(it.masked_positions),
                "beam": [
                    {
                        "tokens": stack.vocab.text(c.tokens),
                        "log_prob": c.log_prob,
                        "flipped": flipped,
                    }
                    for c, flipped in zip(it.beam.candidates, it.flips)
                ],
            }
            for it in result.trace
        ],
    }


def _triplet_from_ids(
    stack: Stack, query_text: str, doc_id: str, counter_doc_id: str
) -> Triplet:
    for an_id in (doc_id, counter_doc_id):
        if an_id not in stack.corpus:
            raise ValueError(f"unknown document id: {an_id}")
    query_ids = tuple(stack.vocab.encode(tokenize(query_text)))
    return Triplet(
        query_ids,
        stack.corpus[doc_id],
        stack.corpus[counter_doc_id],
        stack.search.score(query_ids, doc_id),
        stack.search.score(query_ids, counter_doc_id),
    )


def _require_queries_or_triplets(args) -> None:
    if not (args.queries or args.triplets):
        raise ValueError("provide --queries or --triplets")


def _collect_triplets(
    stack: Stack, config: RunConfig, args
) -> list[tuple[str, Triplet]]:
    """Each triplet with the query text it came from, as given."""
    triplets: list[tuple[str, Triplet]] = []
    if args.triplets:
        with open_lines(args.triplets) as fh:
            fields = ("query", "doc_id", "counter_doc_id")
            for lineno, values in read_records(fh, fields):
                try:
                    triplets.append((values[0], _triplet_from_ids(stack, *values)))
                except ValueError as exc:
                    raise ValueError(f"{exc} @ line {lineno}") from exc
        return triplets
    with open_lines(args.queries) as fh:
        queries = [line.strip() for _, line in numbered_lines(fh)]
    for query_text in queries:
        query_ids = tuple(stack.vocab.encode(tokenize(query_text)))
        if not query_ids:
            logger.warning("skipping empty query %r", query_text)
            continue
        ranking = stack.search.search(query_ids, config.top_k)
        triplets += [(query_text, t) for t in build_triplets(ranking, stack.corpus)]
    return triplets


def _sweep_options(config: RunConfig) -> dict:
    """The ``sweep_edits`` options edit, eval and sweep-beam share, plus the
    ``meta`` of the reports eval and sweep-beam write. No ``workers`` means
    1 when every role is local, since local edits hold the interpreter
    lock, and the available parallelism when a role is remote."""
    parallelism = (os.cpu_count() or 1) if config.backends else 1
    return {
        "workers": config.workers or parallelism,
        "timing": config.timing,
        "meta": {
            "config": config.result_dict(),
            "config_hash": config.config_hash(),
            "lam": config.lam,
            "masker": config.masker,
        },
    }


def cmd_index(args) -> int:
    config = _load_config(args)
    stack = build_stack_from_file(config.corpus, config)
    save_stack(stack, config)
    print(
        f"indexed {stack.corpus.n_docs} docs, vocab {len(stack.vocab)} "
        f"(dim {stack.table.dim}, lm order {stack.lm.order}) -> {config.artifacts}"
    )
    return 0


def cmd_search(args) -> int:
    tokens = tokenize(args.query)
    if not tokens:  # out-of-vocabulary words still count: they encode as [UNK]
        raise ValueError("empty query")
    stack = load_stack(_load_config(args))
    ranking = stack.search.search(stack.vocab.encode(tokens), args.k)
    for position, (doc_id, score) in enumerate(ranking.entries, start=1):
        print(f"{position}\t{doc_id}\t{score:.6f}")
    return 0


def cmd_edit(args) -> int:
    if not (args.triplets or (args.query and args.doc and args.counter)):
        raise ValueError("edit needs --query/--doc/--counter or --triplets")
    config, stack, ctx = _open_run(args)
    if args.triplets:
        items = _collect_triplets(stack, config, args)
    else:
        triplet = _triplet_from_ids(stack, args.query, args.doc, args.counter)
        items = [(args.query, triplet)]
    options = _sweep_options(config)
    del options["meta"]  # edit writes no report
    rows = sweep_edits(
        [t for _, t in items], [config.beam], ctx,
        lambda index, triplet, method, result, work, target, elapsed: (result, elapsed),
        **options,
    )
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for (text, triplet), [(result, elapsed)] in zip(items, rows):
            payload = _result_payload(result, triplet, stack, text, elapsed)
            out.write(json.dumps(payload))
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _write_reports(
    reports: list[EvalReport], config: RunConfig, stem: str
) -> tuple[str, str]:
    os.makedirs(config.out_dir, exist_ok=True)
    json_path = os.path.join(config.out_dir, f"{stem}.json")
    md_path = os.path.join(config.out_dir, f"{stem}.md")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(reports_to_json(reports))
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(render_markdown(reports, title=stem))
    return json_path, md_path


def cmd_eval(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("--methods needs at least one method")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(f"unknown method: {method}")
        if method in methods[:i]:
            raise ValueError(f"duplicate method: {method}")
    _require_queries_or_triplets(args)
    config, stack, ctx = _open_run(args)
    triplets = [t for _, t in _collect_triplets(stack, config, args)]
    options = _sweep_options(config)
    reports = [
        evaluate(triplets, method, ctx, beam_width=config.beam, **options)
        for method in methods
    ]
    json_path, md_path = _write_reports(reports, config, "report")
    print(f"wrote {json_path} and {md_path} ({len(triplets)} triplets)")
    return 0


def _beam_sizes(text: str) -> list[int]:
    """The comma-separated ``--sizes``: at least one, each >= 1 and none
    repeated, since a size's reports are named after it."""
    try:
        sizes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValueError("--sizes must be comma-separated integers") from None
    if not sizes:
        raise ValueError("no beam sizes")
    if any(b < 1 for b in sizes):
        raise ValueError("beam sizes must be >= 1")
    repeated = [b for i, b in enumerate(sizes) if b in sizes[:i]]
    if repeated:
        raise ValueError(f"duplicate beam size: {repeated[0]}")
    return sizes


def cmd_sweep_beam(args) -> int:
    sizes = _beam_sizes(args.sizes)
    _require_queries_or_triplets(args)
    config, stack, ctx = _open_run(args)
    triplets = [t for _, t in _collect_triplets(stack, config, args)]
    reports = beam_sweep(triplets, sizes, ctx, **_sweep_options(config))
    for size, report in zip(sizes, reports):
        json_path, _ = _write_reports([report], config, f"sweep_b{size}")
        aggregates = report.aggregates
        print(
            f"b={size}: flip_rate={aggregates['flip_rate']:.4f} "
            f"runtime={aggregates['mean_runtime_s']:.6f}s -> {json_path}"
        )
    return 0


def _add_settings(parser: argparse.ArgumentParser, *names: str) -> None:
    """``--config`` plus one override flag per named RunConfig field (the
    paths always), typed by its annotation (``int | None`` parses as
    ``int``), with the field's ``choices`` and ``help`` metadata."""
    parser.add_argument("--config", help="JSON config file")
    hints = get_type_hints(RunConfig)
    metadata = {f.name: f.metadata for f in fields(RunConfig)}
    for name in ("corpus", "artifacts", *names):
        hint = hints[name]
        kind = next((t for t in get_args(hint) if t is not type(None)), hint)
        parser.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=kind,
            choices=metadata[name].get("choices"),
            help=metadata[name].get("help"),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queryflip",
        description="Edit queries so a chosen lower-ranked document wins.",
    )
    parser.add_argument(
        "--log-level", default="INFO",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="least severe queryflip log message to print (default INFO)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build every artifact from the corpus")
    _add_settings(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="print a ranking for a query")
    _add_settings(p)
    p.add_argument("query")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("edit", help="edit one query or a triplets file")
    _add_settings(p, "beam", "lam", "masker", "max_masks", "workers", "timing")
    p.add_argument("--query")
    p.add_argument("--doc", help="id of the currently winning document")
    p.add_argument("--counter", help="id of the document that should win")
    p.add_argument("--triplets", help="JSONL: {query, doc_id, counter_doc_id}")
    p.add_argument("--out", help="output JSONL path (default stdout)")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("eval", help="run methods over queries and report")
    _add_settings(p, "out_dir", "beam", "lam", "masker", "top_k", "workers", "timing")
    p.add_argument("--queries", help="text file, one query per line")
    p.add_argument("--triplets", help="JSONL: {query, doc_id, counter_doc_id}")
    p.add_argument("--methods", default=",".join(METHODS))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-beam", help="evaluate cfe2 across beam sizes")
    _add_settings(p, "out_dir", "workers", "timing")
    p.add_argument("--queries")
    p.add_argument("--triplets")
    p.add_argument("--sizes", default="5,10,15,20")
    p.set_defaults(func=cmd_sweep_beam)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(message)s")
    logging.getLogger("queryflip").setLevel(args.log_level)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
