"""Command line front door.

Subcommands: normalize, classify, stats, curriculum, score, augment,
verify. Option values resolve as CLI flag > SVGFORGE_* environment
variable > config file (flat key=value lines) > built-in default.
Exit codes: 0 success, 1 partial failure, 2 usage or I/O error,
3 geometric verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import pipeline
from .augment import AugmentSpec
from .errors import SchemaError, SvgForgeError, ValidationError
from .rewards import MatchSemantics, RewardParams

ENV_PREFIX = "SVGFORGE_"


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip().strip("\"'")
    return values


class Settings:
    """Layered option lookup: CLI > environment > config file > default."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config = _load_config(getattr(args, "config", None))

    def get(self, name: str, default, cast=str):
        cli_value = getattr(self.args, name, None)
        if cli_value is not None:
            return cli_value
        env_value = os.environ.get(ENV_PREFIX + name.upper())
        if env_value is not None:
            return cast(env_value)
        if name in self.config:
            return cast(self.config[name])
        return default


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="threads for verify only, whose numpy kernel releases the GIL; "
                             "the rest is pure Python (default 1; same bytes at any level)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed for seeded operations (default 0)")
    parser.add_argument("--config", default=None,
                        help="flat key=value config file")
    parser.add_argument("--quiet", action="store_true", default=None,
                        help="suppress informational logging")


def _parse_epochs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SchemaError(f"bad --epochs value {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svgforge",
        description="SVG icon normalization, classification and dataset tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="unify a directory of SVGs to M/L/C form")
    p.add_argument("input_dir")
    p.add_argument("output_dir")
    p.add_argument("--strict", action="store_true", help="abort on first failure")
    p.add_argument("--report", default=None, help="write aggregate report JSON here")
    _add_common(p)

    p = sub.add_parser("classify", help="emit dataset records JSONL")
    p.add_argument("input_dir")
    p.add_argument("--out", required=True, help="records JSONL output path")
    _add_common(p)

    p = sub.add_parser("stats", help="summarize a records file")
    p.add_argument("records")
    p.add_argument("--out", default=None, help="write JSON summary here (default stdout)")
    _add_common(p)

    p = sub.add_parser("curriculum", help="build the staged training manifest")
    p.add_argument("records")
    p.add_argument("--out", required=True, help="manifest JSON output path")
    p.add_argument("--epochs", default=None,
                   help="comma-separated epochs per stage (default 1,1,3,3)")
    p.add_argument("--extra-stage", default=None,
                   help="append an empty named stage after the four levels")
    _add_common(p)

    p = sub.add_parser("score", help="score generated/reference JSONL pairs")
    p.add_argument("pairs")
    p.add_argument("--out", required=True, help="scored JSONL output path")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--semantics", choices=["prose", "literal"], default=None,
                   help="match-reward semantics (default prose)")
    _add_common(p)

    p = sub.add_parser("augment", help="emit augmented variants of records")
    p.add_argument("records")
    p.add_argument("--out", required=True, help="augmented records JSONL output path")
    p.add_argument("--variants", type=int, default=None, help="variants per record (default 1)")
    p.add_argument("--palette", default=None,
                   help="comma-separated hex colors for recoloring")
    p.add_argument("--ops", default=None,
                   help="comma-separated ops from {recolor,swap} (default both)")
    p.add_argument("--allow-overlap-swap", action="store_true", default=None)
    _add_common(p)

    p = sub.add_parser("verify", help="geometry-check normalized outputs")
    p.add_argument("raw_dir")
    p.add_argument("normalized_dir")
    p.add_argument("--tolerance", type=float, default=None,
                   help="max allowed deviation in canvas units (default 0.5)")
    p.add_argument("--out", default=None, help="write per-file JSONL report here")
    _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = Settings(args)
    except (OSError, SchemaError) as exc:
        print(f"svgforge: {exc}", file=sys.stderr)
        return pipeline.EXIT_USAGE

    quiet = settings.get("quiet", False, cast=lambda v: v.lower() in ("1", "true", "yes"))
    logging.basicConfig(
        level=logging.WARNING if quiet else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    jobs = settings.get("jobs", 1, cast=int)
    seed = settings.get("seed", 0, cast=int)

    try:
        if args.command == "normalize":
            return pipeline.run_normalize(
                Path(args.input_dir), Path(args.output_dir),
                strict=args.strict,
                report_path=Path(args.report) if args.report else None,
                jobs=jobs,
            )
        if args.command == "classify":
            return pipeline.run_classify(Path(args.input_dir), Path(args.out), jobs=jobs)
        if args.command == "stats":
            code, summary = pipeline.run_stats(
                Path(args.records), Path(args.out) if args.out else None
            )
            if args.out is None:
                print(json.dumps(summary, indent=2))
            return code
        if args.command == "curriculum":
            epochs = settings.get("epochs", "1,1,3,3")
            return pipeline.run_curriculum(
                Path(args.records), Path(args.out),
                epochs=_parse_epochs(epochs),
                extra_stage=args.extra_stage,
            )
        if args.command == "score":
            params = RewardParams(
                alpha=settings.get("alpha", 1.0, cast=float),
                beta=settings.get("beta", 1.0, cast=float),
                gamma=settings.get("gamma", 1.0, cast=float),
                match_semantics=MatchSemantics(settings.get("semantics", "prose")),
            )
            return pipeline.run_score(Path(args.pairs), Path(args.out), params, jobs=jobs)
        if args.command == "augment":
            palette = settings.get("palette", None)
            spec = AugmentSpec(
                seed=seed,
                n_variants=settings.get("variants", 1, cast=int),
                palette=tuple(palette.split(",")) if palette else None,
                allow_overlap_swap=bool(
                    settings.get("allow_overlap_swap", False,
                                 cast=lambda v: v.lower() in ("1", "true", "yes"))
                ),
            )
            ops_text = settings.get("ops", ",".join(pipeline.AUGMENT_OPS))
            ops = tuple(op.strip() for op in ops_text.split(",") if op.strip())
            return pipeline.run_augment(Path(args.records), Path(args.out), spec, ops)
        if args.command == "verify":
            return pipeline.run_verify(
                Path(args.raw_dir), Path(args.normalized_dir),
                tolerance=settings.get("tolerance", 0.5, cast=float),
                out_path=Path(args.out) if args.out else None,
                jobs=jobs,
            )
    except (SchemaError, ValidationError, ValueError, OSError) as exc:
        print(f"svgforge: {exc}", file=sys.stderr)
        return pipeline.EXIT_USAGE
    except SvgForgeError as exc:
        print(f"svgforge: {exc}", file=sys.stderr)
        return pipeline.EXIT_PARTIAL
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
