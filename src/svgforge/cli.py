"""Command line front door.

Subcommands: normalize, classify, stats, curriculum, score, augment,
verify. Every option but ``--out`` and ``--config`` resolves as CLI flag >
``SVGFORGE_<NAME>`` environment variable > config file key ``<name>``
(flat key=value lines) > the library's default, where ``name`` is the
flag without its dashes and with ``_`` for ``-`` (``--extra-stage``:
``SVGFORGE_EXTRA_STAGE``, ``extra_stage``). An option's text takes the
same conversion from every layer; booleans accept 1/true/yes.
Exit codes: 0 success, 1 partial failure, 2 usage or I/O error (a value
that does not convert included), 3 geometric verification failure.
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
from .verifier import DEFAULT_TOLERANCE

ENV_PREFIX = "SVGFORGE_"


def _yes(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise ValueError(f"must be at least 1, got {jobs}")
    return jobs


#: Each layered option's one conversion from its text, whichever layer set it.
CONVERSIONS = {
    "jobs": _jobs, "seed": int, "quiet": _yes,
    "strict": _yes, "report": lambda text: Path(text) if text else None,
    "epochs": lambda text: tuple(int(x) for x in text.split(",")), "extra_stage": str,
    "alpha": float, "beta": float, "gamma": float, "semantics": MatchSemantics,
    "variants": int, "palette": lambda text: tuple(text.split(",")) if text else None,
    "ops": lambda text: tuple(op.strip() for op in text.split(",") if op.strip()),
    "allow_overlap_swap": _yes, "tolerance": float,
}


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
    """Layered option lookup: CLI > environment > config file."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config = _load_config(args.config)

    def get(self, name: str):
        """``name``'s converted value from the first layer that sets it, else None."""
        env = ENV_PREFIX + name.upper()
        for where, text in (("--" + name.replace("_", "-"), getattr(self.args, name, None)),
                            (env, os.environ.get(env)),
                            (f"{self.args.config}: {name}", self.config.get(name))):
            if text is not None:
                try:
                    return CONVERSIONS[name](text)
                except ValueError as exc:
                    raise SchemaError(f"{where}: {exc}") from None
        return None


def _set(**options) -> dict:
    """The keyword arguments in ``options`` that some layer set."""
    return {key: value for key, value in options.items() if value is not None}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs",
                        help="worker processes for normalize and verify, at least 1 "
                             "(default 1); capped at the file and CPU counts, and "
                             "the output is the same at any value")
    parser.add_argument("--seed",
                        help=f"master seed for seeded operations (default {AugmentSpec.seed})")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--quiet", action="store_const", const="yes",
                        help="suppress informational logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svgforge",
        description="SVG icon normalization, classification and dataset tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="unify a directory of SVGs to M/L/C form")
    p.add_argument("input_dir")
    p.add_argument("output_dir")
    p.add_argument("--strict", action="store_const", const="yes", help="abort on first failure")
    p.add_argument("--report", help="write aggregate report JSON here")
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
    p.add_argument("--epochs", help="comma-separated epochs per stage, each at least 1: "
                   "four, or five with --extra-stage (default "
                   + ",".join(map(str, pipeline.DEFAULT_EPOCHS)) + ")")
    p.add_argument("--extra-stage", help="append an empty named stage after the four levels")
    _add_common(p)

    p = sub.add_parser("score", help="score generated/reference JSONL pairs")
    p.add_argument("pairs")
    p.add_argument("--out", required=True, help="scored JSONL output path")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--gamma")
    p.add_argument("--semantics", help="match-reward semantics: "
                   + " or ".join(m.value for m in MatchSemantics)
                   + f" (default {RewardParams().match_semantics.value})")
    _add_common(p)

    p = sub.add_parser("augment", help="emit augmented variants of records")
    p.add_argument("records")
    p.add_argument("--out", required=True, help="augmented records JSONL output path")
    p.add_argument("--variants", help=f"variants per record (default {AugmentSpec.n_variants})")
    p.add_argument("--palette", help="comma-separated hex colors for recoloring")
    p.add_argument("--ops", help="comma-separated ops from {"
                   + ",".join(pipeline.AUGMENT_OPS) + "} (default all)")
    p.add_argument("--allow-overlap-swap", action="store_const", const="yes")
    _add_common(p)

    p = sub.add_parser("verify", help="geometry-check normalized outputs")
    p.add_argument("raw_dir")
    p.add_argument("normalized_dir")
    p.add_argument("--tolerance", help="max allowed deviation in canvas units, "
                   f"finite and > 0 (default {DEFAULT_TOLERANCE})")
    p.add_argument("--out", default=None, help="write per-file JSONL report here")
    _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        get = Settings(args).get
        logging.basicConfig(
            level=logging.WARNING if get("quiet") else logging.INFO,
            format="%(levelname)s %(message)s",
        )
        # every subcommand takes --jobs and --seed: a bad value is exit 2 whichever runs
        jobs, seed = _set(jobs=get("jobs")), get("seed")
        if args.command == "normalize":
            return pipeline.run_normalize(
                Path(args.input_dir), Path(args.output_dir),
                **_set(strict=get("strict"), report_path=get("report")), **jobs,
            )
        if args.command == "classify":
            return pipeline.run_classify(Path(args.input_dir), Path(args.out), **jobs)
        if args.command == "stats":
            out = Path(args.out) if args.out else None
            code, summary = pipeline.run_stats(Path(args.records), out)
            if out is None:
                print(json.dumps(summary, indent=2))
            return code
        if args.command == "curriculum":
            return pipeline.run_curriculum(
                Path(args.records), Path(args.out),
                **_set(epochs=get("epochs"), extra_stage=get("extra_stage")),
            )
        if args.command == "score":
            params = RewardParams(**_set(
                alpha=get("alpha"), beta=get("beta"), gamma=get("gamma"),
                match_semantics=get("semantics"),
            ))
            return pipeline.run_score(Path(args.pairs), Path(args.out), params, **jobs)
        if args.command == "augment":
            spec = AugmentSpec(**_set(
                seed=seed, n_variants=get("variants"), palette=get("palette"),
                allow_overlap_swap=get("allow_overlap_swap"),
            ))
            return pipeline.run_augment(
                Path(args.records), Path(args.out), spec, **_set(ops=get("ops"))
            )
        if args.command == "verify":
            return pipeline.run_verify(
                Path(args.raw_dir), Path(args.normalized_dir),
                out_path=Path(args.out) if args.out else None,
                **_set(tolerance=get("tolerance")), **jobs,
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
