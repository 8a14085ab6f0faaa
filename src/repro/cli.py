"""Command-line interface: ``rdf-align`` (or ``python -m repro``).

Subcommands
-----------

``align``
    Align two RDF files (N-Triples or Turtle, sniffed) and print the
    aligned pairs, a summary, or a serializable JSON report.
``stats``
    Node/edge statistics of an RDF file.
``generate``
    Write a version of one of the synthetic datasets as N-Triples.
``synth``
    Generate a seeded synthetic evolution history (shape + mutation
    operators), write every version as N-Triples plus a manifest, and
    optionally run the differential oracle on it (``--check``).
``experiment``
    Run paper-figure experiments and save reports (``--store`` loads the
    VersionStore from a persisted archive).
``store``
    Persist a dataset's VersionStore to disk (``save``), reload and
    summarize it (``load``), list an archive's keys (``ls``), or
    recompute its checksums (``verify``, with ``--quarantine`` to
    isolate corrupt blocks for rebuild-from-source).
``lint``
    Run the reprolint static-analysis checks
    (:mod:`repro.analysis`) over the source tree; all flags are
    forwarded to ``python -m repro.analysis``.

Every alignment flag is collected into one
:class:`~repro.align.config.AlignConfig` and handed to the session API —
the CLI threads no raw keyword arguments.  The ``--method`` choices come
from the method registry, so ``register_method`` extensions (and the
built-in baselines ``similarity_flooding``/``label_invention``) are
selectable without touching this module.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .align import AlignConfig, Aligner, method_names, method_order
from .align.config import PROBE_RULES, SPLITTERS
from .datasets.synthetic import SHAPES, SyntheticConfig, SyntheticGenerator
from .exceptions import ReproError
from .io.atomic import atomic_write_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdf-align",
        description="RDF graph alignment with bisimulation (PVLDB 2016 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    align_cmd = commands.add_parser(
        "align", help="align two or more RDF files (N-Triples or Turtle)"
    )
    align_cmd.add_argument("source", help="source version (.nt/.ttl)")
    align_cmd.add_argument(
        "targets",
        nargs="+",
        metavar="target",
        help="target version(s); more than one aligns the whole chain "
        "source -> t1 -> t2 -> ...",
    )
    align_cmd.add_argument(
        "--method",
        choices=method_names(),
        default="hybrid",
        help="alignment method (from the method registry, incl. baselines)",
    )
    align_cmd.add_argument("--theta", type=float, default=0.65, help="overlap threshold")
    align_cmd.add_argument(
        "--splitter",
        choices=sorted(SPLITTERS),
        default="words",
        help="literal characterizer for the overlap method",
    )
    align_cmd.add_argument(
        "--probe",
        choices=PROBE_RULES,
        default="paper",
        help="prefix-probe rule of the overlap heuristic",
    )
    align_cmd.add_argument(
        "--engine",
        choices=("reference", "dense"),
        default="reference",
        help="refinement engine (dense = flat-array fast path; with "
        "--method overlap it also runs the whole Algorithm 2 loop on "
        "CSR buffers)",
    )
    align_cmd.add_argument(
        "--k",
        type=int,
        default=3,
        help="round bound of the k-bisimulation family (--method kbisim/"
        "kbisim_deblank); k at or above the graph diameter reproduces "
        "the full bisimulation fixpoint",
    )
    align_cmd.add_argument(
        "--incremental",
        action="store_true",
        help="compute each version's deblanking fixpoint once, in "
        "canonical colors, instead of refining every pair from scratch "
        "(identical results, less work on long version chains)",
    )
    align_cmd.add_argument(
        "--pairs", action="store_true", help="print every aligned pair (TSV)"
    )
    align_cmd.add_argument("--output", help="write pairs to this file instead of stdout")
    align_cmd.add_argument(
        "--report",
        help="write a serializable AlignmentReport (JSON, schema "
        "repro/alignment-report) to this path",
    )

    stats_cmd = commands.add_parser("stats", help="node/edge statistics of a file")
    stats_cmd.add_argument("file", help="an RDF file (N-Triples or Turtle)")

    delta_cmd = commands.add_parser(
        "delta", help="change report between two versions (alignment-based)"
    )
    delta_cmd.add_argument("source", help="source version (.nt/.ttl)")
    delta_cmd.add_argument("target", help="target version (.nt/.ttl)")
    delta_cmd.add_argument(
        "--method",
        choices=method_order(),
        default="hybrid",
        help="alignment method (partition methods only: delta walks classes)",
    )
    delta_cmd.add_argument("--limit", type=int, default=20, help="entries per section")
    delta_cmd.add_argument(
        "--engine",
        choices=("reference", "dense"),
        default="reference",
        help="refinement engine (dense = flat-array fast path)",
    )

    generate_cmd = commands.add_parser("generate", help="write a synthetic dataset version")
    generate_cmd.add_argument(
        "dataset", choices=("efo", "gtopdb", "dbpedia"), help="dataset family"
    )
    generate_cmd.add_argument("--graph-version", type=int, default=1, help="1-based version")
    generate_cmd.add_argument("--scale", type=float, default=0.5)
    generate_cmd.add_argument("--seed", type=int, default=None)
    generate_cmd.add_argument("--out", required=True, help="output .nt path")

    synth_cmd = commands.add_parser(
        "synth",
        help="generate a seeded synthetic evolution history (multi-version)",
    )
    synth_cmd.add_argument(
        "--seed", type=int, default=None, help="generator seed (default 7)"
    )
    synth_cmd.add_argument(
        "--shape",
        choices=SHAPES,
        default=None,
        help="base-graph shape of the history (default erdos_renyi)",
    )
    synth_cmd.add_argument(
        "--versions", type=int, default=None, help="history length (default 4)"
    )
    synth_cmd.add_argument("--scale", type=float, default=None)
    synth_cmd.add_argument(
        "--entities", type=int, default=None, help="entity count at scale 1.0"
    )
    synth_cmd.add_argument(
        "--blank-density", type=float, default=None, help="blank-node fraction"
    )
    synth_cmd.add_argument(
        "--literal-noise",
        type=float,
        default=None,
        help="per-step fraction of literals replaced wholesale",
    )
    synth_cmd.add_argument(
        "--config",
        default=None,
        help="load a full SyntheticConfig from this JSON file (e.g. a CI "
        "differential artifact); explicit flags override its fields",
    )
    synth_cmd.add_argument(
        "--out",
        default="results/synthetic",
        help="output directory for the version files and manifest",
    )
    synth_cmd.add_argument(
        "--check",
        action="store_true",
        help="run the differential oracle on the generated history "
        "(every registered method x engine x jobs)",
    )

    experiment_cmd = commands.add_parser("experiment", help="run paper-figure experiments")
    experiment_cmd.add_argument(
        "names",
        nargs="*",
        help="experiment names (default: all); e.g. figure13",
    )
    experiment_cmd.add_argument("--scale", type=float, default=None)
    experiment_cmd.add_argument("--seed", type=int, default=None)
    experiment_cmd.add_argument("--theta", type=float, default=None)
    experiment_cmd.add_argument(
        "--engine",
        choices=("reference", "dense"),
        default=None,
        help="refinement engine for experiments that accept one "
        "(figure13/14/15 overlap runs and the figure16 timings)",
    )
    experiment_cmd.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the experiment cells (0 = one per CPU; "
        "default: serial).  Parallel reports are byte-identical to serial "
        "ones — cells are sharded with a deterministic merge",
    )
    experiment_cmd.add_argument("--out", default="results", help="report directory")
    experiment_cmd.add_argument(
        "--no-check", action="store_true", help="skip the shape checks"
    )
    experiment_cmd.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="load the experiments' VersionStore from a persisted archive "
        "(see 'rdf-align store save') instead of regenerating the dataset; "
        "results are byte-identical either way",
    )

    store_cmd = commands.add_parser(
        "store", help="persist/inspect a VersionStore archive on disk"
    )
    store_actions = store_cmd.add_subparsers(dest="store_command", required=True)
    store_save = store_actions.add_parser(
        "save", help="materialize a dataset's version store and write it to disk"
    )
    store_save.add_argument(
        "--family",
        required=True,
        help="dataset family (efo/gtopdb/dbpedia or synthetic_<shape>)",
    )
    store_save.add_argument("--scale", type=float, default=0.35)
    store_save.add_argument("--seed", type=int, default=234)
    store_save.add_argument("--versions", type=int, default=10)
    store_save.add_argument("--out", required=True, help="archive directory")
    store_load = store_actions.add_parser(
        "load", help="reload a persisted store and print its contents"
    )
    store_load.add_argument("path", help="archive directory")
    store_ls = store_actions.add_parser(
        "ls", help="list the keys of a persisted store archive"
    )
    store_ls.add_argument("path", help="archive directory")
    store_verify = store_actions.add_parser(
        "verify",
        help="recompute every block's checksum; exit 1 on corruption",
    )
    store_verify.add_argument("path", help="archive directory")
    store_verify.add_argument(
        "--quarantine",
        action="store_true",
        help="move corrupt block files into quarantine/ and drop them "
        "from the manifest so the next load rebuilds them from the "
        "version graphs",
    )

    lint_cmd = commands.add_parser(
        "lint",
        add_help=False,
        help="run the reprolint static-analysis checks on the source tree "
        "(all flags forwarded; see `rdf-align lint --help`)",
    )
    lint_cmd.add_argument("lint_args", nargs=argparse.REMAINDER)
    return parser


def _command_align(args: argparse.Namespace) -> int:
    config = AlignConfig(
        method=args.method,
        theta=args.theta,
        engine=args.engine,
        probe=args.probe,
        splitter=args.splitter,
        k=args.k,
        incremental=args.incremental,
    )
    aligner = Aligner(config)
    history = [args.source, *args.targets]
    chain = len(history) > 2
    if chain or config.incremental:
        results = aligner.align_chain(history)
    else:
        results = [aligner.align(args.source, args.targets[0])]

    pair_lines: list[str] = []
    for step, result in enumerate(results):
        unaligned_source, unaligned_target = result.unaligned_counts()
        prefix = f"step={step + 1} " if chain else ""
        print(
            f"{prefix}method={result.method} "
            f"matched_entities={result.matched_entities()} "
            f"unaligned_source={unaligned_source} "
            f"unaligned_target={unaligned_target}"
        )
        if args.pairs or args.output:
            if chain:
                pair_lines.append(
                    f"# step {step + 1}: {history[step]} -> {history[step + 1]}"
                )
            # Sorted on the rendered nodes: node ids follow input order.
            graph = result.graph
            for source_node, target_node in result.alignment.sorted_pairs(
                graph.sort_key
            ):
                source_term = graph.original(source_node)
                target_term = graph.original(target_node)
                pair_lines.append(f"{source_term!r}\t{target_term!r}")
    if args.pairs or args.output:
        text = "\n".join(pair_lines) + ("\n" if pair_lines else "")
        if args.output:
            atomic_write_text(args.output, text)
            print(f"wrote {len(pair_lines)} pairs to {args.output}")
        else:
            sys.stdout.write(text)
    if args.report:
        if chain:
            from .align.report import reports_to_json

            reports = [result.report(config) for result in results]
            atomic_write_text(args.report, reports_to_json(reports) + "\n")
        else:
            results[0].report(config).save(args.report)
        print(f"wrote report to {args.report}")
    return 0


def _command_delta(args: argparse.Namespace) -> int:
    from .delta import compute_delta, render_delta

    config = AlignConfig(method=args.method, engine=args.engine)
    result = Aligner(config).align(args.source, args.target)
    delta = compute_delta(result.graph, result.partition)
    print(render_delta(result.graph, delta, limit=args.limit))
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from .io import load_graph

    graph = load_graph(args.file)
    stats = graph.stats()
    for key, value in stats.as_dict().items():
        print(f"{key}: {value}")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    from .datasets.dbpedia import DBpediaCategoryGenerator
    from .datasets.efo import EFOGenerator
    from .datasets.gtopdb import GtoPdbGenerator
    from .io import ntriples

    factories = {
        "efo": lambda: EFOGenerator(
            scale=args.scale, **({"seed": args.seed} if args.seed is not None else {})
        ),
        "gtopdb": lambda: GtoPdbGenerator(
            scale=args.scale, **({"seed": args.seed} if args.seed is not None else {})
        ),
        "dbpedia": lambda: DBpediaCategoryGenerator(
            scale=args.scale, **({"seed": args.seed} if args.seed is not None else {})
        ),
    }
    generator = factories[args.dataset]()
    graph = generator.graph(args.graph_version - 1)
    ntriples.dump_path(graph, args.out)
    stats = graph.stats()
    print(
        f"wrote {args.dataset} v{args.graph_version} to {args.out} "
        f"({stats.num_edges} triples, {stats.num_nodes} nodes)"
    )
    return 0


def _command_synth(args: argparse.Namespace) -> int:
    import json
    import os

    from .datasets.synthetic import history_stats
    from .io import ntriples

    overrides = {
        key: getattr(args, key)
        for key in (
            "seed", "shape", "versions", "scale", "entities",
        )
        if getattr(args, key) is not None
    }
    if args.blank_density is not None:
        overrides["blank_density"] = args.blank_density
    if args.literal_noise is not None:
        overrides["literal_noise"] = args.literal_noise
    if args.config:
        from .exceptions import ConfigError

        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError as error:
                raise ConfigError(
                    f"--config {args.config} is not JSON: {error}"
                ) from None
        # A differential artifact nests the config; a bare config is flat.
        if isinstance(payload, dict):
            payload = payload.get("config", payload)
        config = SyntheticConfig.from_dict(payload)
        config = config.evolve(**overrides)
    else:
        config = SyntheticConfig(**overrides)

    generator = SyntheticGenerator.shared(config)
    os.makedirs(args.out, exist_ok=True)
    files = []
    for index in range(config.versions):
        name = f"{config.shape}-seed{config.seed}-v{index + 1}.nt"
        path = os.path.join(args.out, name)
        ntriples.dump_path(generator.graph(index), path)
        files.append(name)
    manifest = {
        "schema": "repro/synthetic-manifest",
        "version": 1,
        "config": config.to_dict(),
        "files": files,
        "stats": history_stats(generator),
        "ground_truth_sizes": [
            len(generator.ground_truth(index, index + 1))
            for index in range(config.versions - 1)
        ],
    }
    manifest_path = os.path.join(args.out, "manifest.json")
    atomic_write_text(
        manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    for row, name in zip(manifest["stats"], files):
        print(
            f"wrote {os.path.join(args.out, name)} "
            f"({row['edges']} triples, {row['nodes']} nodes, "
            f"{row['blanks']} blanks)"
        )
    print(f"wrote manifest to {manifest_path}")
    if args.check:
        from .testing.differential import run_differential

        report = run_differential(config, name=f"synth-{config.shape}")
        print(report.summary())
        if not report.ok:
            for divergence in report.divergences:
                print("  " + divergence.render())
            artifact = os.path.join(args.out, "differential-failure.json")
            atomic_write_text(
                artifact, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
            )
            print(f"differential artifact written to {artifact}")
            return 1
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from .experiments.runner import run_experiments

    # All alignment settings fold into one config; dataset settings
    # (scale/seed) stay per-figure parameters.
    overrides = {}
    for key in ("theta", "engine", "jobs"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.store is not None:
        overrides["backend"] = args.store
    config = AlignConfig().evolve(**overrides) if overrides else None
    parameters = {}
    for key in ("scale", "seed"):
        value = getattr(args, key)
        if value is not None:
            parameters[key] = value
    results = run_experiments(
        args.names or None,
        out_dir=args.out,
        check=not args.no_check,
        progress=print,
        config=config,
        **parameters,
    )
    for result in results.values():
        print()
        print(result.render())
    print(f"\nreports saved under {args.out}/")
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from .experiments.persist import DiskBackend, describe
    from .experiments.store import VersionStore

    if args.store_command == "save":
        store = VersionStore.shared(
            args.family, scale=args.scale, seed=args.seed, versions=args.versions
        )
        store.prepare(summaries=True, tokens=("trivial", "deblank"), csr=True)
        store.save(args.out)
        print(
            f"saved {args.family} store (scale={args.scale}, seed={args.seed}, "
            f"versions={args.versions}) to {args.out}"
        )
    elif args.store_command == "load":
        store = VersionStore.load(args.path)
        identity = store.identity or {}
        described = ", ".join(
            f"{key}={value}" for key, value in sorted(identity.items())
        )
        print(f"loaded store: {described or f'versions={store.versions}'}")
        for version in range(store.versions):
            stats = store.graph(version).stats()
            print(
                f"  v{version + 1}: {stats.num_edges} triples, "
                f"{stats.num_nodes} nodes"
            )
    elif args.store_command == "verify":
        backend = DiskBackend.open(args.path)
        problems = backend.verify(quarantine=args.quarantine)
        total = sum(len(keys) for kind, keys in backend.keys().items()
                    if kind in ("blob", "array"))
        if not problems:
            print(f"store OK: {total} blocks verified, 0 corrupt")
            return 0
        for problem in problems:
            print(
                f"CORRUPT {problem['kind']:5s} {problem['key']} "
                f"({problem['file']}): {problem['reason']}",
                file=sys.stderr,
            )
        if args.quarantine:
            print(
                f"{len(problems)} corrupt block(s) moved to quarantine/ and "
                "dropped from the manifest; the next load rebuilds them "
                "from the version graphs",
                file=sys.stderr,
            )
        else:
            print(
                f"{len(problems)} corrupt block(s) found "
                "(re-run with --quarantine to isolate them)",
                file=sys.stderr,
            )
        return 1
    else:  # ls
        for line in describe(DiskBackend.open(args.path)):
            print(line)
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import main as lint_main

    return lint_main(args.lint_args)


_COMMANDS = {
    "align": _command_align,
    "delta": _command_delta,
    "stats": _command_stats,
    "generate": _command_generate,
    "synth": _command_synth,
    "experiment": _command_experiment,
    "store": _command_store,
    "lint": _command_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # Forwarded before parsing: argparse.REMAINDER refuses to
        # capture a leading option (`rdf-align lint --json`), so the
        # lint flags never pass through _build_parser at all.
        from .analysis.cli import main as lint_main

        return lint_main(arguments[1:])
    parser = _build_parser()
    args = parser.parse_args(arguments)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # The POSIX convention code instead of a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
