"""Command-line surface: datagen, preprocess, features, train, gridsearch,
evaluate, repeat-eval.

Every command exits 0 on success; failures print a single
`error: <Category>: <detail>` line on stderr and exit 1 (argparse usage
errors exit 2).
"""

from __future__ import annotations

import argparse
import os
import sys

from .data import load_dataset
from .errors import GlyphSvmError, InvalidConfigError
from .features import FeatureConfig, config_for_dimension, write_features_csv
from .fileio import write_atomic
from .model_io import load_model, save_model
from .modelsel import (
    Dataset,
    cross_validate,
    evaluate,
    grid_search,
    repeat_evaluate,
)
from .multiclass import STRATEGIES, train_multiclass
from .pgm import read_pgm, write_binary_pgm
from .preprocess import clean_page, segment_page
from .svm import KERNEL_PARAMS, KernelSpec
from .synth import SynthConfig, generate_synthetic_dataset


def _add_kernel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", choices=tuple(KERNEL_PARAMS), default="rbf")
    parser.add_argument("--c", type=float, default=64.0, help="soft-margin C")
    parser.add_argument("--gamma", type=float, default=None, help="rbf gamma")
    parser.add_argument("--degree", type=int, default=3, help="poly degree")
    parser.add_argument("--slope", type=float, default=None, help="sigmoid slope")
    parser.add_argument("--offset", type=float, default=None, help="sigmoid offset")


def _kernel_from_args(parser: argparse.ArgumentParser, args) -> KernelSpec:
    if args.kernel == "sigmoid" and (args.slope is None or args.offset is None):
        parser.error("--kernel sigmoid requires explicit --slope and --offset")
    param = {
        "linear": None,
        "poly": args.degree,
        "rbf": 0.125 if args.gamma is None else args.gamma,
        "sigmoid": (args.slope, args.offset),
    }[args.kernel]
    return KernelSpec.from_param(args.kernel, param)


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True,
                        help="image directory (<root>/<class>/*.pgm) or feature CSV")
    parser.add_argument("--grid-cell", type=int, choices=(16, 8, 4, 2), default=4,
                        help="zoning cell size in pixels")


def _load(args) -> Dataset:
    return load_dataset(args.data, config=FeatureConfig(cell_px=args.grid_cell))


def cmd_datagen(parser, args) -> int:
    config = SynthConfig(
        classes=args.classes,
        per_class=args.per_class,
        noise_rate=args.noise,
        seed=args.seed,
    )
    count = generate_synthetic_dataset(config, args.out_dir)
    print(f"wrote {count} samples across {config.classes} classes to {args.out_dir}")
    return 0


def cmd_preprocess(parser, args) -> int:
    threshold, binary, angle, page = clean_page(read_pgm(args.input))
    if args.dump_binarized:
        write_binary_pgm(binary, args.dump_binarized)
    if args.dump_deskewed:
        write_binary_pgm(page, args.dump_deskewed)
    if args.dump_binarized or args.dump_deskewed:
        print(f"otsu threshold {threshold}, skew {angle:+.1f} degrees")
    records = segment_page(page)
    os.makedirs(args.out_dir, exist_ok=True)
    for idx, rec in enumerate(records):
        source = {"crop": rec.crop, "normalized": rec.normalized,
                  "skeleton": rec.skeleton}[args.emit]
        write_binary_pgm(source, os.path.join(args.out_dir, f"char_{idx:04d}.pgm"))
    print(f"segmented {len(records)} characters into {args.out_dir}")
    return 0


def cmd_features(parser, args) -> int:
    config = FeatureConfig(cell_px=args.grid_cell)
    data = load_dataset(args.data, config=config)
    write_features_csv(args.output, data.labels, data.vectors, config)
    print(f"wrote {len(data)} feature rows ({data.dimension} columns) to {args.output}")
    return 0


def cmd_train(parser, args) -> int:
    kernel = _kernel_from_args(parser, args)
    data = _load(args)
    model = train_multiclass(data.vectors, data.labels, args.strategy, kernel, args.c)
    save_model(model, args.model)
    print(
        f"trained {args.strategy} model on {len(data)} samples, "
        f"{len(model.class_ids)} classes, kernel {kernel.describe()}, C={args.c:g}; "
        f"{len(model.support_vectors)} support-vector rows, "
        f"{int(model.iterations.sum())} SMO iterations; saved to {args.model}"
    )
    return 0


def _parse_grid(raw: str | None, cast):
    if raw is None:
        return None
    try:
        return [cast(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidConfigError(f"bad grid {raw!r}: {exc}") from None


def cmd_gridsearch(parser, args) -> int:
    if args.kernel == "sigmoid":
        parser.error("gridsearch does not support the sigmoid kernel")
    if args.gamma_grid is not None and args.kernel != "rbf":
        parser.error(f"--gamma-grid needs --kernel rbf, not {args.kernel}")
    if args.degree_grid is not None and args.kernel != "poly":
        parser.error(f"--degree-grid needs --kernel poly, not {args.kernel}")
    data = _load(args)
    param_grid = None
    if args.kernel == "rbf":
        param_grid = _parse_grid(args.gamma_grid, float)
    elif args.kernel == "poly":
        param_grid = _parse_grid(args.degree_grid, int)
    report = grid_search(
        data,
        args.kernel,
        c_grid=_parse_grid(args.c_grid, float),
        param_grid=param_grid,
        strategy=args.strategy,
        k=args.folds,
        seed=args.seed,
    )
    text = "\n".join(report.text_lines())
    if args.text_out:
        write_atomic(args.text_out, text + "\n")
    if args.csv_out:
        write_atomic(args.csv_out, "\n".join(report.csv_lines()) + "\n")
    print(text.splitlines()[-1])
    return 0


def cmd_evaluate(parser, args) -> int:
    model = load_model(args.model)
    config = config_for_dimension(model.scaling.dimension, args.model)
    data = load_dataset(args.data, config=config)
    report = evaluate(model, data)
    text = (
        report.iteration_table(args.label or "model")
        + "\n\n"
        + report.error_table()
    )
    if args.report:
        write_atomic(args.report, text + "\n")
    print(text)
    return 0


def cmd_repeat_eval(parser, args) -> int:
    kernel = _kernel_from_args(parser, args)
    data = _load(args)
    report = repeat_evaluate(
        data,
        kernel,
        args.c,
        strategy=args.strategy,
        train_fraction=args.train_frac,
        repetitions=args.repeats,
        seed=args.seed,
    )
    label = f"{args.kernel} C={args.c:g}"
    text = report.iteration_table(label) + "\n\n" + report.error_table()
    if args.report:
        write_atomic(args.report, text + "\n")
    print(text)
    return 0


def cmd_cv(parser, args) -> int:
    kernel = _kernel_from_args(parser, args)
    data = _load(args)
    mean = cross_validate(
        data, kernel, args.c, strategy=args.strategy, k=args.folds, seed=args.seed
    )
    print(f"{args.folds}-fold cross-validated accuracy: {mean:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glyphsvm",
        description="Handwritten character recognition with a from-scratch kernel SVM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic glyph dataset")
    p.set_defaults(run=cmd_datagen)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.01)

    p = sub.add_parser("preprocess", help="segment a page image into character PGMs")
    p.set_defaults(run=cmd_preprocess)
    p.add_argument("--input", required=True, help="page image (PGM P2/P5)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--emit", choices=("crop", "normalized", "skeleton"), default="crop")
    p.add_argument("--dump-binarized", default=None, help="debug dump path")
    p.add_argument("--dump-deskewed", default=None, help="debug dump path")

    p = sub.add_parser("features", help="extract features into a CSV")
    p.set_defaults(run=cmd_features)
    _add_data_args(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("train", help="train a multiclass model")
    p.set_defaults(run=cmd_train)
    _add_data_args(p)
    _add_kernel_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="ova")

    p = sub.add_parser("gridsearch", help="cross-validated hyperparameter sweep")
    p.set_defaults(run=cmd_gridsearch)
    _add_data_args(p)
    p.add_argument("--kernel", choices=tuple(KERNEL_PARAMS), default="rbf")
    p.add_argument("--c-grid", default=None, help="comma-separated C values")
    p.add_argument("--gamma-grid", default=None, help="comma-separated gammas (rbf)")
    p.add_argument("--degree-grid", default=None, help="comma-separated degrees (poly)")
    p.add_argument("--strategy", choices=STRATEGIES, default="ova")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--text-out", default=None)

    p = sub.add_parser("evaluate", help="score a saved model on a test set")
    p.set_defaults(run=cmd_evaluate)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", default=None, help="write the report here too")
    p.add_argument("--label", default=None, help="row label in the report")

    p = sub.add_parser("repeat-eval", help="repeated split/train/test protocol")
    p.set_defaults(run=cmd_repeat_eval)
    _add_data_args(p)
    _add_kernel_args(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="ova")
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)

    p = sub.add_parser("cv", help="k-fold cross-validation of one configuration")
    p.set_defaults(run=cmd_cv)
    _add_data_args(p)
    _add_kernel_args(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="ova")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _attach_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Write `--c -inf` as `--c=-inf` for every option of the subcommand that
    takes a value, since argparse takes a separate value that starts with '-'
    (other than a plain negative number) for an option; the option's own
    check then sees it. Flags and a following `--option` are left alone."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices.get(argv[0]) if argv else None
    if command is None:
        return argv
    takes_value = {opt for a in command._actions if a.nargs != 0 for opt in a.option_strings}
    out = []
    for tok in argv:
        if out and out[-1] in takes_value and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_values(parser, argv))
    try:
        return args.run(parser, args)
    except GlyphSvmError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IoFailure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
