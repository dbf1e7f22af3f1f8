"""Digest verify's results over fixed corpora, so two checkouts can be compared.

Each raw document is parsed and normalized, then verified twice: against
the normalized document as typed, and against it re-loaded from its
serialized text. Each verification gives ``passed`` and, per drawable,
``max_deviation`` and ``argmax_point`` as ``float.hex`` and
``samples_used``. A document that raises gives its error's type and
message instead.

    python tools/verify_digests.py [--dense] [--list FILE] [--check FILE]

prints one sha256 per corpus over its documents' lines, in order. The
corpora are ``verify_corpus(601)``, ``full_corpus()``,
``colored_icons(400, seed=5)``, 600 draws of
``random_raw_svg(random.Random(3))`` and ``build_corpus(601)`` without its
dense tier. The dense tier, 300 icons of 20-260 commands, takes about 45 s
to verify on one core and runs only with ``--dense``; without it, its line
says it was skipped. ``--list FILE``
writes one line per document. ``--check FILE`` compares those lines with
a listing that ``--list`` saved from another checkout, prints the first
line that differs, and exits 1 if any does.

The script imports svgforge from the ``src/`` of the checkout it is in, so
two commits are compared from two ``git worktree`` checkouts:

    git worktree add ../base BASE_COMMIT
    git worktree add ../change CHANGE_COMMIT
    python ../base/tools/verify_digests.py --list base.list
    python ../change/tools/verify_digests.py --check base.list
    git worktree remove ../base && git worktree remove ../change
"""

from __future__ import annotations

import argparse
import hashlib
import io
import random
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _sub in ("bench", "tests", "src"):
    sys.path.insert(0, str(ROOT / _sub))

from svgforge import normalize_document, parse_document, serialize_document  # noqa: E402
from svgforge.verifier import verify_normalization  # noqa: E402

DENSE = "build601-dense"


def _verified(raw, norm) -> str:
    try:
        result = verify_normalization(raw, norm)
    except Exception as exc:  # one document's failure is its line, not the run's
        return f"error {type(exc).__name__}: {exc}"
    reports = " ".join(
        f"{r.max_deviation.hex()},{r.argmax_point.x.hex()},{r.argmax_point.y.hex()},{r.samples_used}"
        for r in result.reports)
    return f"{'pass' if result.passed else 'fail'} {reports}".rstrip()


def document_line(name: str, svg: str) -> str:
    """``name``, then the verification against the typed and the re-loaded
    normalized document, tab-separated."""
    try:
        raw, _ = parse_document(svg)
        norm, _ = normalize_document(raw)
        reloaded, _ = normalize_document(parse_document(serialize_document(norm))[0])
    except Exception as exc:
        return f"{name}\terror {type(exc).__name__}: {exc}"
    return f"{name}\t{_verified(raw, norm)}\t{_verified(raw, reloaded)}"


def corpora(dense: bool) -> dict[str, dict[str, str] | None]:
    """Each corpus as name -> raw SVG, in a fixed order; ``None`` when skipped."""
    from corpus import colored_icons, full_corpus, random_raw_svg
    from inputs import build_corpus, verify_corpus

    rng = random.Random(3)
    build = build_corpus(601)
    return {
        "verify601": {i.name: i.svg for i in verify_corpus(601)},
        "full": full_corpus(),
        "colored400s5": colored_icons(400, seed=5),
        "random3": {f"r{i:04d}": random_raw_svg(rng) for i in range(600)},
        "build601": {i.name: i.svg for i in build if not i.name.startswith("dense_")},
        DENSE: {i.name: i.svg for i in build if i.name.startswith("dense_")} if dense else None,
    }


def write_digests(named: dict[str, dict[str, str] | None], out, listing=None) -> None:
    """Print one ``corpus documents sha256`` line per corpus to ``out``, and
    each document's line, prefixed with its corpus, to ``listing``."""
    for corpus, docs in named.items():
        if docs is None:
            print(f"{corpus}\tskipped (pass --dense)", file=out)
            continue
        lines = [document_line(name, svg) for name, svg in docs.items()]
        if listing is not None:
            listing.writelines(f"{corpus}\t{line}\n" for line in lines)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{corpus}\t{len(lines)}\t{digest}", file=out, flush=True)


def add_listing_options(parser: argparse.ArgumentParser, line: str) -> None:
    parser.add_argument("--list", type=Path, metavar="FILE",
                        help=f"write one line per {line} to FILE")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare the lines with a --list FILE saved from another checkout")


def save_and_check(args, listing: io.StringIO) -> int:
    """Write ``listing`` to the ``--list`` file, as asked, and compare it
    with the ``--check`` file: print the first line that differs and
    return 1, or return 0 when there is none or nothing to check."""
    if args.list is not None:
        args.list.write_text(listing.getvalue(), encoding="utf-8")
    if args.check is None:
        return 0
    ours = listing.getvalue().splitlines()
    theirs = args.check.read_text(encoding="utf-8").splitlines()
    for n, (here, there) in enumerate(zip_longest(ours, theirs), 1):
        if here != there:
            print(f"first difference from {args.check}, at line {n}:\n"
                  f"  saved: {there if there is not None else '(no line)'}\n"
                  f"  here:  {here if here is not None else '(no line)'}")
            return 1
    print(f"same {len(ours)} lines as {args.check}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dense", action="store_true",
                        help=f"also verify the {DENSE} tier (about 45 s)")
    add_listing_options(parser, "document")
    args = parser.parse_args(argv)
    listing = io.StringIO()
    write_digests(corpora(args.dense), sys.stdout, listing)
    return save_and_check(args, listing)


if __name__ == "__main__":
    sys.exit(main())
