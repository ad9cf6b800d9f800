"""Command-line entry point: index, search, edit, eval, sweep-beam."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Sequence

from .config import RunConfig
from .editor import EditResult, Triplet
from .evaluation import (
    METHODS,
    EvalReport,
    beam_sweep,
    build_triplets,
    evaluate,
    render_markdown,
    reports_to_json,
    run_method,
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
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {
        name: getattr(args, name)
        for name in (
            "corpus", "artifacts", "out_dir", "beam", "lam", "masker",
            "top_k", "seed", "workers", "timing", "max_masks",
        )
        if hasattr(args, name)
    }
    return config.with_overrides(**overrides)


def _result_payload(
    result: EditResult, triplet: Triplet, stack: Stack, query_text: str
) -> dict:
    outcome = None
    if result.outcome is not None:
        outcome = " ".join(stack.vocab.decode(result.outcome))
    return {
        "query": query_text,
        "doc_id": triplet.d.id,
        "counter_doc_id": triplet.d_prime.id,
        "q_prime": outcome,
        "masks_used": result.masks_used,
        "elapsed_s": result.elapsed,
        "iterations": [
            {
                "masks": it.masks,
                "masked_positions": list(it.masked_positions),
                "beam": [
                    {
                        "tokens": " ".join(stack.vocab.decode(c.tokens)),
                        "log_prob": c.log_prob,
                        "flipped": c.flipped,
                    }
                    for c in it.candidates
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
    if not query_ids:
        raise ValueError("empty query")
    return Triplet(
        query_ids,
        stack.corpus[doc_id],
        stack.corpus[counter_doc_id],
        stack.search.score(query_ids, doc_id),
        stack.search.score(query_ids, counter_doc_id),
    )


def _collect_triplets(stack: Stack, config: RunConfig, args) -> list[Triplet]:
    triplets: list[Triplet] = []
    if getattr(args, "triplets", None):
        with open(args.triplets, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError("not a JSON object")
                    triplets.append(
                        _triplet_from_ids(
                            stack,
                            record["query"],
                            record["doc_id"],
                            record["counter_doc_id"],
                        )
                    )
                except (KeyError, ValueError) as exc:
                    raise ValueError(f"triplets file line {lineno}: {exc}") from exc
        return triplets
    if not getattr(args, "queries", None):
        raise ValueError("provide --queries or --triplets")
    with open(args.queries, encoding="utf-8") as fh:
        queries = [line.strip() for line in fh if line.strip()]
    for query_text in queries:
        query_ids = tuple(stack.vocab.encode(tokenize(query_text)))
        if not query_ids:
            logger.warning("skipping empty query %r", query_text)
            continue
        ranking = stack.search.search(query_ids, config.top_k)
        triplets.extend(build_triplets(ranking, stack.corpus))
    return triplets


def _eval_meta(config: RunConfig) -> dict:
    return {
        "config": config.result_dict(),
        "config_hash": config.config_hash(),
        "lam": config.lam,
        "masker": config.masker,
        "seed": config.seed,
    }


def _resolve_workers(config: RunConfig) -> int:
    if config.workers is not None:
        return config.workers
    return os.cpu_count() or 1


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
    config = _load_config(args)
    stack = load_stack(config)
    query_ids = stack.vocab.encode(tokenize(args.query))
    ranking = stack.search.search(query_ids, args.k)
    for position, (doc_id, score) in enumerate(ranking.entries, start=1):
        print(f"{position}\t{doc_id}\t{score:.6f}")
    return 0


def cmd_edit(args) -> int:
    config = _load_config(args)
    stack = load_stack(config)
    ctx = make_context(stack, config)
    if args.triplets:
        triplets = _collect_triplets(stack, config, args)
        texts = [" ".join(stack.vocab.decode(t.query_ids)) for t in triplets]
    else:
        if not (args.query and args.doc and args.counter):
            raise ValueError("edit needs --query/--doc/--counter or --triplets")
        triplets = [_triplet_from_ids(stack, args.query, args.doc, args.counter)]
        texts = [args.query]
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for triplet, text in zip(triplets, texts):
            result = run_method(
                triplet, "cfe2", ctx, beam_width=config.beam,
                max_masks=config.max_masks,
            )
            out.write(json.dumps(_result_payload(result, triplet, stack, text)))
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
    config = _load_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method: {method}")
    stack = load_stack(config)
    ctx = make_context(stack, config)
    triplets = _collect_triplets(stack, config, args)
    reports = [
        evaluate(
            triplets,
            method,
            ctx,
            beam_width=config.beam,
            max_masks=config.max_masks,
            workers=_resolve_workers(config),
            timing=config.timing,
            meta=_eval_meta(config),
        )
        for method in methods
    ]
    json_path, md_path = _write_reports(reports, config, "report")
    print(f"wrote {json_path} and {md_path} ({len(triplets)} triplets)")
    return 0


def cmd_sweep_beam(args) -> int:
    config = _load_config(args)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    stack = load_stack(config)
    ctx = make_context(stack, config)
    triplets = _collect_triplets(stack, config, args)
    reports = beam_sweep(
        triplets,
        sizes,
        ctx,
        max_masks=config.max_masks,
        workers=_resolve_workers(config),
        timing=config.timing,
        meta=_eval_meta(config),
    )
    for size, report in zip(sizes, reports):
        json_path, _ = _write_reports([report], config, f"sweep_b{size}")
        aggregates = report.aggregates
        print(
            f"b={size}: flip_rate={aggregates['flip_rate']:.4f} "
            f"runtime={aggregates['mean_runtime_s']:.6f}s -> {json_path}"
        )
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--corpus", help="corpus JSONL path")
    parser.add_argument("--artifacts", help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queryflip",
        description="Edit queries so a chosen lower-ranked document wins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build every artifact from the corpus")
    _add_common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="print a ranking for a query")
    _add_common(p)
    p.add_argument("query")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("edit", help="edit one query or a triplets file")
    _add_common(p)
    p.add_argument("--query")
    p.add_argument("--doc", help="id of the currently winning document")
    p.add_argument("--counter", help="id of the document that should win")
    p.add_argument("--triplets", help="JSONL: {query, doc_id, counter_doc_id}")
    p.add_argument("--out", help="output JSONL path (default stdout)")
    p.add_argument("--beam", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--masker")
    p.add_argument("--max-masks", dest="max_masks", type=int)
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("eval", help="run methods over queries and report")
    _add_common(p)
    p.add_argument("--queries", help="text file, one query per line")
    p.add_argument("--triplets", help="JSONL: {query, doc_id, counter_doc_id}")
    p.add_argument("--methods", default="cfe2,mask_only,max_flip")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--beam", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--masker")
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--timing", choices=("wall", "off"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-beam", help="evaluate cfe2 across beam sizes")
    _add_common(p)
    p.add_argument("--queries")
    p.add_argument("--triplets")
    p.add_argument("--sizes", default="5,10,15,20")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--workers", type=int)
    p.add_argument("--timing", choices=("wall", "off"))
    p.set_defaults(func=cmd_sweep_beam)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
