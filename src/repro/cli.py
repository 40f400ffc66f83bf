"""Command-line interface.

Seven subcommands mirror how a downstream user drives the library:

* ``generate`` — produce a scenario (ontology JSON + corpus JSONL);
* ``enrich`` — run the four-step workflow over an ontology + corpus;
* ``link`` — position one candidate term (Table 3 style output);
* ``evaluate`` — run the Table 4 protocol over held-out terms;
* ``index`` — build (``index build``) or inspect (``index inspect``)
  an on-disk corpus index store (see :mod:`repro.corpus.index_store`);
* ``serve`` — run the HTTP enrichment & shared-cache service
  (see :mod:`repro.service`);
* ``recommend`` — rank candidate ontologies against input text or a
  scenario corpus (see :mod:`repro.recommend`);
* ``cache-info`` — inspect a feature-cache store's layout, on disk
  (``--cache-dir``) or through a live service (``--cache-url``);
* ``lint`` — run the project-invariant static analysis
  (see :mod:`repro.analysis`; nonzero exit on new findings).

Run ``python -m repro.cli <command> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.corpus.io import read_corpus_jsonl, write_corpus_jsonl
from repro.extraction.measures import MEASURE_NAMES
from repro.text.stopwords import SUPPORTED_LANGUAGES
from repro.linkage.evaluation import evaluate_linkage, gold_positions
from repro.linkage.linker import SemanticLinker
from repro.ontology.io import read_ontology_json, write_ontology_json
from repro.ontology.snapshot import held_out_terms
from repro.scenarios import make_enrichment_scenario
from repro.utils.tables import format_table
from repro.utils.validation import check_positive_int, check_seconds
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError

    try:
        scenario = make_enrichment_scenario(
            seed=args.seed,
            n_concepts=args.concepts,
            docs_per_concept=args.docs_per_concept,
        )
    except ValidationError as exc:
        # A size the generator cannot build (one concept, say): nothing
        # is written yet.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    write_ontology_json(scenario.ontology, out / "ontology.json")
    write_corpus_jsonl(scenario.corpus, out / "corpus.jsonl")
    print(f"wrote {out / 'ontology.json'} ({len(scenario.ontology)} concepts)")
    print(
        f"wrote {out / 'corpus.jsonl'} ({scenario.corpus.n_documents()} documents, "
        f"{scenario.corpus.n_tokens():,} tokens)"
    )
    return 0


def _enrich_config(args: argparse.Namespace) -> EnrichmentConfig:
    return EnrichmentConfig(
        language=args.language,
        extraction_measure=args.extraction_measure,
        n_candidates=args.candidates,
        min_term_length=args.min_term_length,
        min_contexts=args.min_contexts,
        polysemy_classifier=args.polysemy_classifier,
        sense_algorithm=args.sense_algorithm,
        sense_index=args.sense_index,
        sense_representation=args.sense_representation,
        context_window=args.context_window,
        top_k_positions=args.top_k,
        expand_hierarchy=not args.no_expand_hierarchy,
        seed=args.seed,
        skip_known_terms=not args.no_skip_known_terms,
        max_contexts_per_term=args.max_contexts,
        index_dir=args.index_dir,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        cache_url=args.cache_url,
        cache_timeout=args.cache_timeout,
    )


def _cmd_enrich(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError

    try:
        config = _enrich_config(args)
    except ValidationError as exc:
        # Checked before any file is read.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ontology = read_ontology_json(args.ontology)
    corpus = read_corpus_jsonl(args.corpus)
    enricher = OntologyEnricher(ontology, config=config)
    report = enricher.enrich(corpus)
    print(report.to_table())
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.timings:
        print()
        print(
            format_table(
                ["stage", "seconds"],
                [
                    [stage, f"{seconds:.3f}"]
                    for stage, seconds in report.timings.items()
                ],
                title="Stage timings",
            )
        )
        if report.cache:
            print()
            print(
                format_table(
                    ["counter", "value"],
                    [[k, v] for k, v in sorted(report.cache.items())],
                    title="Feature cache",
                )
            )
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    ontology = read_ontology_json(args.ontology)
    corpus = read_corpus_jsonl(args.corpus)
    linker = SemanticLinker(ontology, corpus, top_k=args.top_k)
    propositions = linker.propose(args.term)
    concept_ids = ontology.concepts_for_term(args.term)
    gold = (
        gold_positions(ontology, concept_ids[0], args.term)
        if concept_ids
        else set()
    )
    rows = [
        [p.rank, p.term, f"{p.cosine:.4f}", "*" if p.term in gold else ""]
        for p in propositions
    ]
    print(
        format_table(
            ["#", "where", "cosine", "correct"],
            rows,
            title=f"Propositions for {args.term!r}",
        )
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.start_year > args.end_year:
        print(
            f"error: --start-year {args.start_year} is after "
            f"--end-year {args.end_year}",
            file=sys.stderr,
        )
        return 2
    ontology = read_ontology_json(args.ontology)
    corpus = read_corpus_jsonl(args.corpus)
    held = held_out_terms(ontology, args.start_year, args.end_year)
    if args.max_terms:
        held = held[: args.max_terms]
    if not held:
        print("no held-out terms in the requested window", file=sys.stderr)
        return 1
    linker = SemanticLinker(ontology, corpus, top_k=10)
    evaluation = evaluate_linkage(linker, held)
    row = evaluation.as_row()
    print(
        format_table(
            ["Top 1", "Top 2", "Top 5", "Top 10"],
            [[f"{row[k]:.3f}" for k in (1, 2, 5, 10)]],
            title=f"Linkage precision over {evaluation.n_terms} held-out terms",
        )
    )
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.corpus.index_store import IndexStore

    corpus = read_corpus_jsonl(args.corpus)
    store = IndexStore(args.index_dir)
    started = time.perf_counter()
    index = store.load_or_build(corpus)
    elapsed = time.perf_counter() - started
    fingerprint = index.fingerprint()
    stored = store.path_for(fingerprint).is_dir()
    print(
        format_table(
            ["property", "value"],
            [
                ["fingerprint", fingerprint],
                ["documents", index.n_documents()],
                ["tokens", index.n_tokens()],
                ["stored", "yes" if stored else "no (store unwritable)"],
                ["seconds", f"{elapsed:.3f}"],
            ],
            title=f"Corpus index at {store.directory}",
        )
    )
    return 0


def _cmd_index_inspect(args: argparse.Namespace) -> int:
    from repro.corpus.index_store import IndexStore

    if not Path(args.index_dir).is_dir():
        # Inspection must not create the directory it was asked to look
        # at (IndexStore would, and a typo'd path would print an empty
        # store instead of the mistake).
        print(f"error: no index store at {args.index_dir}", file=sys.stderr)
        return 1
    info = IndexStore(args.index_dir).describe()
    print(
        format_table(
            ["property", "value"],
            [
                ["generations", info["n_generations"]],
                ["store bytes", info["store_bytes"]],
            ],
            title=f"Corpus index store at {info['index_dir']}",
        )
    )
    generations = info["generations"]
    if generations:
        print()
        print(
            format_table(
                ["fingerprint", "kind", "docs", "tokens", "bytes"],
                [
                    [
                        g["fingerprint"][:12],
                        g["kind"],
                        g.get("n_documents", "-"),
                        g.get("n_tokens", "-"),
                        g["bytes"],
                    ]
                    for g in generations
                ],
                title="Generations",
            )
        )
        for g in generations:
            if g["kind"] == "corrupt":
                print(
                    f"warning: {g['fingerprint'][:12]} is corrupt "
                    f"({g['error']}); the next build will replace it",
                    file=sys.stderr,
                )
    return 0


def _positive_int(text: str) -> int:
    """argparse type of a count option: an integer >= 1."""
    try:
        return check_positive_int(int(text), "count")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        ) from None


def _port(text: str) -> int:
    """argparse type of a listen port: 0 (ephemeral) to 65535."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port number from 0 to 65535, got {text!r}"
        )
    return value


def _seconds(text: str) -> float:
    """argparse type of a seconds option: a finite number > 0."""
    try:
        return check_seconds(float(text), "seconds")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0, got {text!r}"
        ) from None


def _named_path(form: str):
    """argparse type of a repeatable ``NAME=PATH`` option: ``(name, Path)``.

    ``form`` (say ``NAME=DIR``) names the expected shape in the error.
    """

    def parse(text: str) -> tuple[str, Path]:
        name, sep, path = text.partition("=")
        if not sep or not name or not path:
            raise argparse.ArgumentTypeError(
                f"must look like {form}, got {text!r}"
            )
        return name, Path(path)

    return parse


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.service.server import serve

    try:
        return serve(
            cache_dir=args.cache_dir,
            host=args.host,
            port=args.port,
            cache_max_bytes=args.cache_max_bytes,
            # A scenario directory has the `repro generate` layout.
            corpora={
                name: (root / "ontology.json", root / "corpus.jsonl")
                for name, root in args.scenario
            },
            job_workers=args.job_workers,
            index_dir=args.index_dir,
            access_log=args.access_log,
            watch=dict(args.watch),
            watch_poll_seconds=args.watch_poll,
            ontologies=dict(args.ontology),
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_recommend(args: argparse.Namespace) -> int:
    """Rank registered ontologies against text or a scenario corpus.

    ``--format json`` prints exactly the ``POST /recommend`` response
    body (``json.dumps(report.to_dict(), sort_keys=True)``), so the two
    surfaces are byte-identical for the same input.
    """
    import json as _json

    from repro.errors import ValidationError
    from repro.recommend import OntologyRegistry, RecommendConfig, Recommender

    if args.text is None and args.scenario is None:
        print(
            "error: --text and/or --scenario is required", file=sys.stderr
        )
        return 2
    try:
        config = RecommendConfig(
            coverage_weight=args.coverage_weight,
            acceptance_weight=args.acceptance_weight,
            detail_weight=args.detail_weight,
            specialization_weight=args.specialization_weight,
            synonym_factor=args.synonym_factor,
            multiword_factor=args.multiword_factor,
            max_set_size=args.max_set_size,
            min_coverage_gain=args.min_coverage_gain,
        )
        registry = OntologyRegistry()
        for name, path in dict(args.ontology).items():
            registry.register_path(name, path)
        recommender = Recommender(registry, config)
        index = None
        if args.scenario is not None:
            from repro.corpus.index import CorpusIndex

            index = CorpusIndex(
                read_corpus_jsonl(Path(args.scenario) / "corpus.jsonl")
            )
        if args.text is not None:
            text = (
                sys.stdin.read()
                if args.text == "-"
                else Path(args.text).read_text(encoding="utf-8")
            )
            report = recommender.recommend_text(
                text,
                acceptance_index=index,
                acceptance_source="corpus" if index is not None else None,
            )
        else:
            report = recommender.recommend_index(index)
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.to_table())
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Follow a scenario's delta stream: one summary line per diff."""
    import time as _time

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    since = args.since
    try:
        while True:
            try:
                deltas = client.deltas(args.name, since=since)
            except ServiceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            for delta in deltas:
                since = max(since, int(delta["seq"]))
                cache = delta.get("cache", {})
                print(
                    "delta #{seq} fp={fp} docs={docs} recomputed={rec} "
                    "added={added} rescored={rescored} dropped={dropped} "
                    "cache_hits={hits} cache_misses={misses} "
                    "({secs:.2f}s)".format(
                        seq=delta["seq"],
                        fp=str(delta.get("fingerprint", ""))[:12],
                        docs=len(delta.get("documents", [])),
                        rec=delta.get("n_recomputed", 0),
                        added=len(delta.get("added", [])),
                        rescored=len(delta.get("rescored", [])),
                        dropped=len(delta.get("dropped", [])),
                        hits=cache.get("hits", 0),
                        misses=cache.get("misses", 0),
                        secs=delta.get("timings", {}).get(
                            "delta_total", 0.0
                        ),
                    ),
                    flush=True,
                )
            if args.once:
                return 0
            _time.sleep(args.poll)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def _cmd_loadbench(args: argparse.Namespace) -> int:
    import json as _json

    from repro.errors import ValidationError
    from repro.service.loadgen import run_load

    try:
        report = run_load(
            args.url,
            clients=args.clients,
            ops_per_client=args.ops,
            batch_size=args.batch_size,
            job_corpus=args.job_corpus,
            seed=args.seed,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document = report.to_dict()
    rows = [
        ["clients", document["clients"]],
        ["requests", document["requests"]],
        ["failed requests", document["failed_requests"]],
        ["duration (s)", f"{document['duration_seconds']:.3f}"],
        ["req/s", f"{document['requests_per_second']:.1f}"],
        ["p50 (ms)", f"{document['p50_seconds'] * 1e3:.2f}"],
        ["p99 (ms)", f"{document['p99_seconds'] * 1e3:.2f}"],
    ]
    print(format_table(["measure", "value"], rows, title="Service load"))
    print()
    print(
        format_table(
            ["op", "count", "p50 (ms)", "p99 (ms)"],
            [
                [
                    op,
                    stats["count"],
                    f"{stats['p50_seconds'] * 1e3:.2f}",
                    f"{stats['p99_seconds'] * 1e3:.2f}",
                ]
                for op, stats in document["per_op"].items()
            ],
            title="Per-operation latency",
        )
    )
    if args.json is not None:
        Path(args.json).write_text(
            _json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json}")
    if report.failed_requests:
        print(
            f"error: {report.failed_requests} failed requests",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_cache_info(args: argparse.Namespace) -> int:
    if (args.cache_dir is None) == (args.cache_url is None):
        print(
            "error: exactly one of --cache-dir / --cache-url is required",
            file=sys.stderr,
        )
        return 2
    if args.cache_url is not None:
        from repro.service.client import ServiceClient, ServiceError

        try:
            info = ServiceClient(args.cache_url).cache_info()
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        source = args.cache_url
    else:
        from repro.polysemy.cache_store import DiskCacheStore

        if not Path(args.cache_dir).is_dir():
            # Inspection must not create the directory it was asked to
            # look at (DiskCacheStore would, and a typo'd path would
            # print an empty store instead of the mistake).
            print(
                f"error: no cache store at {args.cache_dir}",
                file=sys.stderr,
            )
            return 1
        info = DiskCacheStore(args.cache_dir).describe()
        source = info["cache_dir"]
    max_bytes = info.get("max_bytes")
    print(
        format_table(
            ["property", "value"],
            [
                ["entries", info.get("entries", 0)],
                ["store bytes", info.get("store_bytes", 0)],
                ["max bytes", max_bytes if max_bytes is not None else "-"],
                ["shard max bytes", info.get("shard_max_bytes", "-")],
                ["generations", info.get("n_generations", 0)],
                ["session disk hits", info.get("disk_hits", 0)],
                ["session evictions", info.get("evictions", 0)],
            ],
            title=f"Feature cache store at {source}",
        )
    )
    generations = info.get("generations", [])
    if generations:
        eviction_rank = {
            name: position + 1
            for position, name in enumerate(info.get("eviction_order", []))
        }
        now = time.time()
        print()
        print(
            format_table(
                ["generation", "entries", "shards", "bytes",
                 "idle (s)", "evict #"],
                [
                    [
                        g["name"],
                        g["entries"],
                        g["shards"],
                        g["bytes"],
                        f"{max(0.0, now - g['last_used']):.0f}",
                        eviction_rank.get(g["name"], "-"),
                    ]
                    for g in generations
                ],
                title="Generations (evict # = LRU eviction order)",
            )
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        lint_project,
        load_baseline,
        render_json,
        render_text,
        save_baseline,
    )
    from repro.errors import ValidationError

    root = Path(args.root)
    try:
        baseline = (
            load_baseline(args.baseline)
            if args.baseline is not None
            else None
        )
        result = lint_project(root, baseline=baseline)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline is not None:
        save_baseline(result.findings, args.write_baseline)
        print(
            f"wrote {len(result.findings)} finding(s) to "
            f"{args.write_baseline}"
        )
        return 0
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.clean else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Biomedical ontology enrichment (EDBT 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic scenario")
    generate.add_argument("--output", required=True, help="output directory")
    generate.add_argument("--concepts", type=_positive_int, default=60)
    generate.add_argument("--docs-per-concept", type=_positive_int, default=6)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(fn=_cmd_generate)

    enrich = sub.add_parser("enrich", help="run the four-step workflow")
    enrich.add_argument("--ontology", required=True, help="ontology JSON path")
    enrich.add_argument("--corpus", required=True, help="corpus JSONL path")
    enrich.add_argument(
        "--language", choices=SUPPORTED_LANGUAGES, default="en",
        help="corpus/ontology language",
    )
    enrich.add_argument(
        "--extraction-measure", choices=MEASURE_NAMES,
        default="lidf_value",
        help="Step I candidate ranking measure",
    )
    enrich.add_argument("--candidates", type=int, default=10)
    enrich.add_argument(
        "--min-term-length", type=int, default=2,
        help="minimum candidate length in tokens (2 = multi-word only)",
    )
    enrich.add_argument(
        "--min-contexts", type=int, default=4,
        help="candidates with fewer corpus contexts are skipped",
    )
    enrich.add_argument(
        "--polysemy-classifier", default="forest",
        help="Step II classifier registry name",
    )
    enrich.add_argument(
        "--sense-algorithm", default="rb",
        help="Step III clustering algorithm",
    )
    enrich.add_argument(
        "--sense-index", default="fk",
        help="Step III internal clustering index",
    )
    enrich.add_argument(
        "--sense-representation", default="bow",
        help="Step III context representation",
    )
    enrich.add_argument(
        "--context-window", type=int, default=10,
        help="tokens kept each side of a term occurrence",
    )
    enrich.add_argument("--top-k", type=int, default=10)
    enrich.add_argument(
        "--no-expand-hierarchy", action="store_true",
        help="disable Step IV.2 father/son neighbourhood expansion",
    )
    enrich.add_argument("--seed", type=int, default=0)
    enrich.add_argument(
        "--no-skip-known-terms", action="store_true",
        help="also push terms the ontology already knows through "
        "Steps II-IV",
    )
    enrich.add_argument(
        "--max-contexts", type=int, default=80,
        help="context cap per candidate (stride-subsampled above this)",
    )
    enrich.add_argument(
        "--index-dir", default=None,
        help="persist the corpus index here (repro.corpus.index_store); "
        "later runs mmap-reopen it in O(1) instead of rebuilding",
    )
    enrich.add_argument(
        "--cache-dir", default=None,
        help="persist the feature cache on disk here, shared across "
        "runs and processes (see repro.polysemy.cache_store)",
    )
    enrich.add_argument(
        "--cache-max-bytes", type=int, default=None,
        help="size cap on the on-disk cache (LRU eviction above it; "
        "requires --cache-dir)",
    )
    enrich.add_argument(
        "--cache-url", default=None,
        help="base URL of a `repro serve` cache service backing the "
        "feature cache over HTTP (mutually exclusive with --cache-dir; "
        "network failures degrade to cache misses)",
    )
    enrich.add_argument(
        "--cache-timeout", type=float, default=5.0,
        help="per-request network timeout (seconds) for --cache-url",
    )
    enrich.add_argument(
        "--timings", action="store_true",
        help="print per-stage wall times after the report",
    )
    enrich.set_defaults(fn=_cmd_enrich)

    link = sub.add_parser("link", help="position one candidate term")
    link.add_argument("--ontology", required=True)
    link.add_argument("--corpus", required=True)
    link.add_argument("--term", required=True)
    link.add_argument("--top-k", type=_positive_int, default=10)
    link.set_defaults(fn=_cmd_link)

    evaluate = sub.add_parser("evaluate", help="run the Table 4 protocol")
    evaluate.add_argument("--ontology", required=True)
    evaluate.add_argument("--corpus", required=True)
    evaluate.add_argument("--start-year", type=int, default=2009)
    evaluate.add_argument("--end-year", type=int, default=2015)
    evaluate.add_argument("--max-terms", type=_positive_int, default=None)
    evaluate.set_defaults(fn=_cmd_evaluate)

    index = sub.add_parser(
        "index",
        help="build or inspect an on-disk corpus index store",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build",
        help="fingerprint a corpus and persist its index (idempotent: "
        "an existing generation is mmap-reopened, not rebuilt)",
    )
    index_build.add_argument("--corpus", required=True,
                             help="corpus JSONL path")
    index_build.add_argument("--index-dir", required=True,
                             help="index store root directory")
    index_build.set_defaults(fn=_cmd_index_build)
    index_inspect = index_sub.add_parser(
        "inspect",
        help="summarise the store's generations (corrupt ones flagged)",
    )
    index_inspect.add_argument("--index-dir", required=True,
                               help="index store root directory")
    index_inspect.set_defaults(fn=_cmd_index_inspect)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP enrichment & shared-cache service",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_port, default=8750,
        help="listen port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--cache-dir", required=True,
        help="DiskCacheStore directory the service owns and serves",
    )
    serve.add_argument(
        "--cache-max-bytes", type=int, default=None,
        help="size cap on the served store (LRU eviction above it)",
    )
    serve.add_argument(
        "--scenario", action="append", default=[], metavar="NAME=DIR",
        type=_named_path("NAME=DIR"),
        help="register a corpus for server-side enrichment jobs; DIR "
        "holds ontology.json + corpus.jsonl (the `repro generate` "
        "layout); repeatable",
    )
    serve.add_argument(
        "--job-workers", type=_positive_int, default=1,
        help="concurrent server-side enrichment jobs",
    )
    serve.add_argument(
        "--index-dir", default=None,
        help="persist registered corpora's indexes in this index store "
        "(first job builds, later jobs and restarts mmap-reopen)",
    )
    serve.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="write one JSON line per request to PATH ('-' = stderr)",
    )
    serve.add_argument(
        "--watch", action="append", default=[], metavar="NAME=DIR",
        type=_named_path("NAME=DIR"),
        help="poll DIR for dropped *.jsonl document files and stream "
        "them into registered scenario NAME as delta re-enrichments; "
        "repeatable",
    )
    serve.add_argument(
        "--watch-poll", type=_seconds, default=1.0,
        help="seconds between scans of watched directories",
    )
    serve.add_argument(
        "--ontology", action="append", default=[], metavar="NAME=PATH",
        type=_named_path("NAME=PATH"),
        help="register an ontology (JSON or .obo) as a POST /recommend "
        "candidate; repeatable",
    )
    serve.set_defaults(fn=_cmd_serve)

    recommend = sub.add_parser(
        "recommend",
        help="rank ontologies against input text or a scenario corpus",
    )
    recommend.add_argument(
        "--ontology", action="append", required=True, metavar="NAME=PATH",
        type=_named_path("NAME=PATH"),
        help="register a candidate ontology (JSON or .obo); repeatable",
    )
    recommend.add_argument(
        "--text", default=None, metavar="PATH",
        help="input text file to annotate ('-' = stdin)",
    )
    recommend.add_argument(
        "--scenario", default=None, metavar="DIR",
        help="scenario directory (the `repro generate` layout): its "
        "corpus.jsonl is the input when --text is absent, and the "
        "acceptance reference when --text is given too",
    )
    recommend.add_argument(
        "--coverage-weight", type=float, default=0.55,
        help="weight of the coverage criterion",
    )
    recommend.add_argument(
        "--acceptance-weight", type=float, default=0.15,
        help="weight of the acceptance criterion",
    )
    recommend.add_argument(
        "--detail-weight", type=float, default=0.15,
        help="weight of the detail criterion",
    )
    recommend.add_argument(
        "--specialization-weight", type=float, default=0.15,
        help="weight of the specialization criterion",
    )
    recommend.add_argument(
        "--synonym-factor", type=float, default=0.8,
        help="coverage down-weight for synonym (non-preferred) matches",
    )
    recommend.add_argument(
        "--multiword-factor", type=float, default=2.0,
        help="coverage up-weight for multi-word label matches",
    )
    recommend.add_argument(
        "--max-set-size", type=int, default=3,
        help="maximum ontologies in the recommended set",
    )
    recommend.add_argument(
        "--min-coverage-gain", type=float, default=0.05,
        help="coverage a later set member must add to be admitted",
    )
    recommend.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json = the POST /recommend wire document)",
    )
    recommend.set_defaults(fn=_cmd_recommend)

    watch = sub.add_parser(
        "watch",
        help="follow a served scenario's streaming delta reports",
    )
    watch.add_argument(
        "--url", required=True,
        help="base URL of the `repro serve` service",
    )
    watch.add_argument(
        "name", help="registered scenario name to follow",
    )
    watch.add_argument(
        "--since", type=int, default=0,
        help="only show deltas with seq greater than this",
    )
    watch.add_argument(
        "--poll", type=_seconds, default=2.0,
        help="seconds between polls",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="print the current history once and exit (no follow loop)",
    )
    watch.set_defaults(fn=_cmd_watch)

    loadbench = sub.add_parser(
        "loadbench",
        help="drive a running service with concurrent mixed traffic",
    )
    loadbench.add_argument(
        "--url", required=True,
        help="base URL of the `repro serve` service under test",
    )
    loadbench.add_argument(
        "--clients", type=int, default=8,
        help="concurrent client threads (each owns its own connections)",
    )
    loadbench.add_argument(
        "--ops", type=int, default=50,
        help="operations issued per client",
    )
    loadbench.add_argument(
        "--batch-size", type=int, default=32,
        help="vectors per batch_get/batch_put operation",
    )
    loadbench.add_argument(
        "--job-corpus", default=None,
        help="registered corpus name to add idempotent job submissions "
        "to the mix",
    )
    loadbench.add_argument("--seed", type=int, default=0)
    loadbench.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the report as JSON to PATH",
    )
    loadbench.set_defaults(fn=_cmd_loadbench)

    info = sub.add_parser(
        "cache-info",
        help="inspect a feature-cache store's layout and usage",
    )
    info.add_argument(
        "--cache-dir", default=None,
        help="inspect this DiskCacheStore directory",
    )
    info.add_argument(
        "--cache-url", default=None,
        help="inspect the store behind a live `repro serve` service",
    )
    info.set_defaults(fn=_cmd_cache_info)

    lint = sub.add_parser(
        "lint",
        help="run the project-invariant static analysis over src/",
    )
    lint.add_argument(
        "--root", default=".",
        help="project root (must contain src/; default: cwd)",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="baseline JSON of grandfathered findings to ignore",
    )
    lint.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="write current findings as a baseline and exit 0",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
