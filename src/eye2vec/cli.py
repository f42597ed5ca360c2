"""Command-line pipeline: paths, convert, link, vectorize, compare, cluster,
predict, simulate.

Exit codes: 0 success, 1 input/format errors, 2 usage errors. Diagnostics go
to stderr; data goes to stdout or the file/directory given via ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from collections.abc import Iterable
from pathlib import Path

from . import analysis, gaze, linker, simulator
from .compressor import EyeVector, compress, read_eye_vector
from .embeddings import DEFAULT_DIM, DEFAULT_SEED, MAX_DIM, EmbeddingTable, load_table
from .errors import EmptyProfileError, Eye2vecError, FormatError, _read_input
from .minilang import parse
from .pathctx import DEFAULT_MAX_LENGTH, DEFAULT_MAX_WIDTH, _iter_path_contexts

# Every character str.splitlines() breaks at, escaped as repr() writes it: a
# message may quote input, such as a string literal holding "\u2028", and a
# diagnostic must stay on one line.
_ESCAPE_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}
)


def _int_at_least(minimum: int, maximum: int | None = None):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"expected an integer <= {maximum}, got {value}")
        return value

    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eye2vec", description="Eye-movement vectors over source code"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("paths", help="emit path contexts of a source file, one per line")
    p.set_defaults(run=_cmd_paths)
    p.add_argument("src")
    p.add_argument("--max-length", type=_int_at_least(0), default=DEFAULT_MAX_LENGTH,
                   help="max nodes on a path, 0 = unlimited")
    p.add_argument("--max-width", type=_int_at_least(0), default=DEFAULT_MAX_WIDTH,
                   help="max leaf-index distance, 0 = unlimited")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("convert", help="convert pixel fixations to line/column")
    p.set_defaults(run=_cmd_convert)
    # argparse reads "-1e3" or "-inf" as a flag unless this private pattern (by default
    # only "-5" and "-.5") matches it; tests/test_cli.py fails if it is renamed.
    p._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)
    p.add_argument("fixations")
    p.add_argument("--origin-x", type=float, required=True)
    p.add_argument("--origin-y", type=float, required=True)
    p.add_argument("--char-width", type=float, required=True)
    p.add_argument("--line-height", type=float, required=True)
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("link", help="build a transition profile from grid fixations")
    p.set_defaults(run=_cmd_link)
    _add_link_flags(p)
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("vectorize", help="build an eye vector from grid fixations")
    p.set_defaults(run=_cmd_vectorize)
    _add_link_flags(p)
    p.add_argument("--emb", help="embedding TSV; absent keys use the seeded fallback")
    p.add_argument("--dim", type=_int_at_least(1, MAX_DIM), default=None,
                   help=f"embedding dimension when no table is given (default {DEFAULT_DIM})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="fallback embedding seed")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("compare", help="cosine similarity of two eye vectors")
    p.set_defaults(run=_cmd_compare)
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("cluster", help="k-means over eye vectors")
    p.set_defaults(run=_cmd_cluster)
    p.add_argument("vectors", nargs="+")
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("predict", help="nearest-centroid label prediction")
    p.set_defaults(run=_cmd_predict)
    p.add_argument("--train", required=True,
                   help="directory with eye-vector JSON files and a labels.tsv")
    p.add_argument("--test", nargs="*", default=[])
    p.add_argument("--loo", action="store_true",
                   help="also print leave-one-out accuracy over the training set")

    p = sub.add_parser("simulate", help="generate synthetic fixation CSVs")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("src")
    p.add_argument("--strategy", choices=simulator.STRATEGY_NAMES, required=True)
    p.add_argument("--n", type=_int_at_least(2, simulator.MAX_FIXATIONS), required=True,
                   help=f"fixations per recording, at most {simulator.MAX_FIXATIONS}")
    p.add_argument("--count", type=_int_at_least(1, simulator.MAX_RECORDINGS), required=True,
                   help=f"number of recordings, at most {simulator.MAX_RECORDINGS}")
    p.add_argument("--seed", type=int, required=True,
                   help="seed of the first recording; recording i uses seed+i")
    p.add_argument("--jitter", type=_int_at_least(0), default=0, help="column jitter radius")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _add_link_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("src")
    p.add_argument("fixations")
    p.add_argument("--snap-tol", type=_int_at_least(0), default=linker.DEFAULT_SNAP_TOL_COLS)
    p.add_argument("--keep-self", action="store_true",
                   help="keep same-leaf transitions instead of dropping them")
    p.add_argument("--strict-chain", action="store_true",
                   help="dropped fixations break the transition chain")


def _emit(text: str, out: str | None) -> None:
    _emit_lines((text,), out)


def _emit_lines(lines: Iterable[str], out: str | None) -> None:
    """Write each string as the iterable makes it, so the whole text is never held."""
    if out:
        with open(out, "w", encoding="utf-8") as stream:
            stream.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _link_options(args: argparse.Namespace) -> linker.LinkOptions:
    return linker.LinkOptions(
        snap_tol_cols=args.snap_tol,
        self_transitions="keep" if args.keep_self else "drop",
        chain="strict" if args.strict_chain else "skip",
    )


def _build_profile(args: argparse.Namespace) -> linker.TransitionProfile:
    root = parse(_read_input(args.src))
    recording = gaze.read_fixations(args.fixations, mode="grid")
    profile = linker.build_profile(recording, root, _link_options(args))
    if profile.is_empty:
        raise EmptyProfileError("EmptyProfile: no transitions could be formed from the fixations")
    return profile


def _embedding_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> EmbeddingTable:
    if args.emb:
        table = load_table(args.emb)
        if args.dim is not None and args.dim != table.dim:
            parser.error(f"--dim {args.dim} conflicts with table dimension {table.dim}")
        return dataclasses.replace(table, fallback_seed=args.seed)
    return EmbeddingTable(dim=args.dim if args.dim is not None else DEFAULT_DIM,
                          fallback_seed=args.seed)


def _cmd_paths(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    root = parse(_read_input(args.src))
    # argparse has checked the caps; a context is written as soon as it is made
    contexts = _iter_path_contexts(root, args.max_length, args.max_width)
    _emit_lines((c.context_string + "\n" for c in contexts), args.out)
    return 0


def _cmd_convert(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    grid = gaze.FontGrid(args.origin_x, args.origin_y, args.char_width, args.line_height)
    recording = gaze.read_fixations(args.fixations, mode="pixel")
    _emit(gaze.format_fixations(gaze.convert_recording(recording, grid)), args.out)
    return 0


def _cmd_link(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    profile = _build_profile(args)
    _emit(profile.to_json() + "\n", args.out)
    return 0


def _cmd_vectorize(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    profile = _build_profile(args)
    table = _embedding_table(args, parser)
    vector = compress(profile, table, normalize=not args.no_normalize)
    _emit(vector.to_json() + "\n", args.out)
    return 0


def _cmd_compare(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    a = read_eye_vector(args.a)
    b = read_eye_vector(args.b)
    print(analysis.cosine_similarity(a, b))
    return 0


def _cmd_cluster(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    vectors = [read_eye_vector(p) for p in args.vectors]
    assignments = analysis.kmeans(vectors, k=args.k, seed=args.seed)
    for vector, cluster_index in zip(vectors, assignments):
        print(f"{vector.recording_id}\t{cluster_index}")
    return 0


def _load_train_dir(train_dir: str) -> analysis.LabeledSet:
    directory = Path(train_dir)
    labels_path = directory / "labels.tsv"
    if not labels_path.exists():
        raise FormatError(1, f"no labels.tsv in {train_dir!r}")
    labels = gaze.read_labels(labels_path)
    by_id: dict[str, tuple[Path, EyeVector]] = {}
    for path in sorted(directory.glob("*.json")):
        vector = read_eye_vector(path)
        if vector.recording_id in by_id:
            first = by_id[vector.recording_id][0]
            raise FormatError(
                1, f"{str(first)!r} and {str(path)!r} both have recording_id {vector.recording_id!r}"
            )
        by_id[vector.recording_id] = (path, vector)
    items = []
    for recording_id, label in labels.items():
        if recording_id not in by_id:
            raise FormatError(1, f"labels.tsv names {recording_id!r} but no vector JSON has it")
        items.append((by_id[recording_id][1], label))
    return analysis.LabeledSet(items)


def _cmd_predict(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not args.test and not args.loo:
        parser.error("predict needs --test files and/or --loo")
    train = _load_train_dir(args.train)
    if args.test:
        test_vectors = [read_eye_vector(p) for p in args.test]
        for vector, label in zip(test_vectors, analysis.nearest_centroid_predict(train, test_vectors)):
            print(f"{vector.recording_id}\t{label}")
    if args.loo:
        print(f"accuracy={analysis.leave_one_out(train)}")
    return 0


def _cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    source_path = Path(args.src)
    root = parse(_read_input(source_path))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        strategy = simulator.Strategy(args.strategy, jitter_cols=args.jitter, seed=args.seed + i)
        stem = f"{source_path.stem}_{args.strategy}_{i}"
        recording = simulator.simulate(root, strategy, args.n, recording_id=stem)
        gaze.write_fixations(recording, out_dir / f"{stem}.csv")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args, parser)
    except SystemExit as exc:  # parser.error() inside a handler
        return int(exc.code or 0)
    except (Eye2vecError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {str(exc).translate(_ESCAPE_LINE_BREAKS)}\n")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
