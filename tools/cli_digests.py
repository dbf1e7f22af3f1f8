"""Digest every CLI subcommand's outputs over fixed corpora, at ``--jobs 1`` and ``--jobs 2``.

Each corpus of ``verify_digests.corpora(dense=False)`` (the dense tier,
which takes minutes to verify, is left out) is written out as one raw file
per document and taken through ``normalize`` (with ``--report``),
``classify``, ``stats``, ``curriculum``, ``augment`` (with the default
ops, then ``--ops recolor``, ``--ops swap --variants 2``, and a
``--palette`` with ``--allow-overlap-swap``) and ``verify`` (with
``--out``) by ``svgforge.cli.main``. ``score`` takes the rollouts of
``bench/inputs.score_pairs(601)`` as its pairs file. Each flow runs at
``--jobs 1`` and again at ``--jobs 2``, in a directory of its own but with
the same relative paths, so that a path an output names is the same in both.

    python tools/cli_digests.py [--list FILE] [--check FILE]

prints one line per corpus, subcommand and output: the exit code, the
output's name and its sha256. normalize's output directory is one line,
digesting every file in it. The lines are those of the ``--jobs 1`` run.
Where the ``--jobs 2`` run differs, each line that only one of the runs
gives is printed to stderr after its ``--jobs`` level, and the script then
exits 1. ``--list FILE`` writes one line per output file, each
normalized SVG included. ``--check FILE`` compares those lines with a
listing that ``--list`` saved from another checkout, prints the first line
that differs, and exits 1 if any does.

The script imports svgforge from the ``src/`` of the checkout it is in, so
two commits are compared from two ``git worktree`` checkouts:

    git worktree add ../base BASE_COMMIT
    git worktree add ../change CHANGE_COMMIT
    python ../base/tools/cli_digests.py --list base.list
    python ../change/tools/cli_digests.py --check base.list
    git worktree remove ../base && git worktree remove ../change
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _sub in ("tools", "bench", "tests", "src"):
    sys.path.insert(0, str(ROOT / _sub))

from svgforge.cli import main as cli_main  # noqa: E402
from verify_digests import add_listing_options, corpora, save_and_check  # noqa: E402

# (subcommand, argv without the common flags); each writes under a directory
# named after its subcommand, so a sidecar errors.jsonl is digested with it
BUILD_STEPS = (
    ("normalize", ["normalize", "../raw", "normalize/norm", "--report", "normalize/report.json"]),
    ("classify", ["classify", "normalize/norm", "--out", "classify/records.jsonl"]),
    ("stats", ["stats", "classify/records.jsonl", "--out", "stats/stats.json"]),
    ("curriculum", ["curriculum", "classify/records.jsonl", "--out", "curriculum/manifest.json"]),
    ("augment", ["augment", "classify/records.jsonl", "--out", "augment/aug.jsonl"]),
    ("augment-recolor", ["augment", "classify/records.jsonl", "--out", "augment-recolor/aug.jsonl",
                         "--ops", "recolor"]),
    ("augment-swap", ["augment", "classify/records.jsonl", "--out", "augment-swap/aug.jsonl",
                      "--ops", "swap", "--variants", "2"]),
    ("augment-palette", ["augment", "classify/records.jsonl", "--out", "augment-palette/aug.jsonl",
                         "--palette", "#111111,#222222,#333333,#444444", "--allow-overlap-swap"]),
    ("verify", ["verify", "../raw", "normalize/norm", "--out", "verify/report.jsonl"]),
)
SCORE_STEPS = (("score", ["score", "../pairs.jsonl", "--out", "score/scored.jsonl"]),)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(out: Path) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """``(name, sha256)`` of each entry of ``out``, a directory digesting
    its files, and ``(path, sha256)`` of each file under ``out``."""
    entries, files = [], []
    for entry in sorted(out.iterdir()) if out.is_dir() else []:
        inside = sorted(p for p in entry.rglob("*") if p.is_file()) if entry.is_dir() else [entry]
        digests = [(p.relative_to(out).as_posix(), _sha(p.read_bytes())) for p in inside]
        files += digests
        if entry.is_dir():
            tree = "".join(f"{p}\t{h}\n" for p, h in digests)
            entries.append((entry.name + "/", _sha(tree.encode())))
        else:
            entries.append(digests[0])
    return entries, files


def run_flow(work: Path, steps, jobs: int) -> tuple[list[str], list[str]]:
    """Run ``steps`` through the CLI with ``work`` as the working directory.

    Returns the ``subcommand  exit  output  sha256`` lines and the
    ``subcommand  file  sha256`` lines of the files each step wrote.
    """
    work.mkdir(parents=True)
    lines, listing = [], []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for sub, argv in steps:
            code = cli_main([*argv, "--quiet", "--jobs", str(jobs)])
            entries, files = _outputs(work / sub)
            lines += [f"{sub}\t{code}\t{name}\t{h}" for name, h in entries or [("-", "-")]]
            listing += [f"{sub}\t{path}\t{h}" for path, h in files]
    finally:
        os.chdir(cwd)
    return lines, listing


def run_case(inputs: dict[str, str], steps) -> list[tuple[list[str], list[str]]]:
    """Write ``inputs`` (relative path -> text) to a scratch directory and
    run ``steps`` beside them at ``--jobs 1`` and at ``--jobs 2``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in inputs.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text, encoding="utf-8")
        return [run_flow(root / f"j{jobs}", steps, jobs) for jobs in (1, 2)]


def score_inputs(seed: int = 601) -> dict[str, str]:
    """The pairs file of the rollouts of ``score_pairs(seed)``."""
    from inputs import score_pairs

    rows = (json.dumps({"id": r.id, "generated": r.generated, "reference": r.reference}) + "\n"
            for group in score_pairs(seed) for r in group)
    return {"pairs.jsonl": "".join(rows)}


def cases():
    """``(corpus, inputs, steps)`` for each corpus, then for the score pairs."""
    for corpus, docs in corpora(dense=False).items():
        if docs is not None:
            yield corpus, {f"raw/{name}.svg": svg for name, svg in docs.items()}, BUILD_STEPS
    yield "score601", score_inputs(), SCORE_STEPS


def write_digests(named, out, listing=None, err=None) -> int:
    """Print each case's ``--jobs 1`` lines, prefixed with its corpus, to
    ``out`` and its files to ``listing``. Where the runs differ, print each
    line that only one ``--jobs`` level gives to ``err`` (stderr by default).
    Returns the number of cases that differ."""
    differ = 0
    for corpus, inputs, steps in named:
        (lines, files), (lines2, _) = run_case(inputs, steps)
        print("".join(f"{corpus}\t{line}\n" for line in lines), end="", file=out, flush=True)
        if listing is not None:
            listing.writelines(f"{corpus}\t{line}\n" for line in files)
        if lines2 != lines:
            differ += 1
            for jobs, mine, other in ((1, lines, lines2), (2, lines2, lines)):
                only = [line for line in mine if line not in other]
                print("".join(f"--jobs {jobs}: {corpus}\t{line}\n" for line in only),
                      end="", file=err or sys.stderr)
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    add_listing_options(parser, "output file")
    args = parser.parse_args(argv)
    # the exit codes and error files say what the log would, for every document
    logging.getLogger().addHandler(logging.NullHandler())
    listing = io.StringIO()
    differ = write_digests(cases(), sys.stdout, listing)
    changed = save_and_check(args, listing)
    return 1 if differ or changed else 0


if __name__ == "__main__":
    sys.exit(main())
