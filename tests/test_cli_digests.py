"""A smoke test of ``tools/cli_digests.py`` on a few documents."""

import importlib.util
import io
import json
import random
from pathlib import Path

from corpus import full_corpus, random_raw_svg

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digests.py"
_spec = importlib.util.spec_from_file_location("cli_digests", _TOOL)
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)

_VALID = '<svg viewBox="0 0 24 24"><path d="M2 2L20 2L11 20Z" fill="#f00"/></svg>'


def _cases():
    docs = dict(list(full_corpus().items())[:3])
    docs["random"] = random_raw_svg(random.Random(3))
    docs["broken"] = "<svg"
    pairs = "".join(json.dumps({"id": f"p{i}", "generated": gen, "reference": _VALID}) + "\n"
                    for i, gen in enumerate([_VALID, "<svg"]))
    return [
        ("few", {f"raw/{name}.svg": svg for name, svg in docs.items()}, cli_digests.BUILD_STEPS),
        ("pairs", {"pairs.jsonl": pairs}, cli_digests.SCORE_STEPS),
    ]


def _fields(text):
    return [line.split("\t") for line in text.splitlines()]


def test_one_line_per_output_with_exit_codes_and_listing():
    out, listing, err = io.StringIO(), io.StringIO(), io.StringIO()
    assert cli_digests.write_digests(_cases(), out, listing, err) == 0
    assert err.getvalue() == ""
    rows = _fields(out.getvalue())
    assert [row[:4] for row in rows] == [
        ["few", "normalize", "1", "norm/"],
        ["few", "normalize", "1", "report.json"],
        ["few", "classify", "0", "records.jsonl"],
        ["few", "stats", "0", "stats.json"],
        ["few", "curriculum", "0", "manifest.json"],
        ["few", "augment", "0", "aug.jsonl"],
        ["few", "augment-recolor", "0", "aug.jsonl"],
        ["few", "augment-swap", "0", "aug.jsonl"],
        ["few", "augment-palette", "0", "aug.jsonl"],
        # the broken document has no normalized file to check
        ["few", "verify", "3", "report.jsonl"],
        ["pairs", "score", "0", "scored.jsonl"],
    ]
    assert all(len(row) == 5 and len(row[4]) == 64 for row in rows)
    files = [row[:3] for row in _fields(listing.getvalue())]
    assert [f for f in files if f[1] == "normalize"] == [
        ["few", "normalize", f"norm/{name}.svg"]
        for name in sorted(["minimal", "relative_mix", "absolute_hv", "random"])
    ] + [["few", "normalize", "report.json"]]
    again = io.StringIO()
    cli_digests.write_digests(_cases(), again, err=err)
    assert again.getvalue() == out.getvalue()


def test_an_output_that_changes_with_jobs_is_reported(monkeypatch):
    main = cli_digests.cli_main

    def jobs_leak(argv):
        code = main(argv)
        Path("score", "jobs.txt").write_text(argv[-1])
        return code

    monkeypatch.setattr(cli_digests, "cli_main", jobs_leak)
    out, err = io.StringIO(), io.StringIO()
    assert cli_digests.write_digests(_cases()[1:], out, err=err) == 1
    assert [row[:4] for row in _fields(out.getvalue())] == [
        ["pairs", "score", "0", "jobs.txt"], ["pairs", "score", "0", "scored.jsonl"]]
    # each level's jobs.txt differs; scored.jsonl does not
    assert [line.split("\t")[:4] for line in err.getvalue().splitlines()] == [
        ["--jobs 1: pairs", "score", "0", "jobs.txt"], ["--jobs 2: pairs", "score", "0", "jobs.txt"]]


def test_check_prints_the_first_output_that_differs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_digests, "cases", _cases)
    saved, again = tmp_path / "base.list", tmp_path / "again.list"
    assert cli_digests.main(["--list", str(saved)]) == 0
    lines = saved.read_text().splitlines()
    edited = tmp_path / "edited.list"
    wrong = lines[-1].rsplit("\t", 1)[0] + "\t" + "0" * 64
    edited.write_text("\n".join([*lines[:-1], wrong]) + "\n")
    # the run itself still lists the same files, and --check reports the one edited line
    assert cli_digests.main(["--check", str(edited), "--list", str(again)]) == 1
    assert again.read_text() == saved.read_text()
    assert capsys.readouterr().out.splitlines()[-3:] == [
        f"first difference from {edited}, at line {len(lines)}:",
        f"  saved: {wrong}",
        f"  here:  {lines[-1]}",
    ]
