"""A smoke test of ``tools/verify_digests.py`` on a few documents."""

import importlib.util
import io
import random
from pathlib import Path

from corpus import full_corpus, random_raw_svg
from svgforge import verifier

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "verify_digests.py"
_spec = importlib.util.spec_from_file_location("verify_digests", _TOOL)
verify_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify_digests)


def _few():
    docs = dict(list(full_corpus().items())[:3])
    docs["random"] = random_raw_svg(random.Random(3))
    docs["broken"] = "<svg"
    return docs


def test_one_line_per_document_typed_and_reloaded():
    for name, svg in _few().items():
        fields = verify_digests.document_line(name, svg).split("\t")
        assert fields[0] == name
        if name == "broken":
            assert len(fields) == 2 and fields[1].startswith("error MalformedXml: ")
            continue
        # the text rounds coordinates, so the two sides may differ in the last digits
        for side in fields[1:]:
            verdict, *reports = side.split(" ")
            assert verdict == "pass" and reports
            for report in reports:
                worst, x, y, samples = report.split(",")
                assert float.fromhex(worst) <= 0.5 and int(samples) > 0
                float.fromhex(x), float.fromhex(y)
        assert len(fields) == 3


def test_digests_and_listing():
    named = {"few": _few(), "skipped": None}
    out, listing = io.StringIO(), io.StringIO()
    verify_digests.write_digests(named, out, listing)
    few, skipped = out.getvalue().splitlines()
    assert few.split("\t")[:2] == ["few", "5"] and len(few.split("\t")[2]) == 64
    assert skipped == "skipped\tskipped (pass --dense)"
    assert [line.split("\t")[:2] for line in listing.getvalue().splitlines()] == [
        ["few", name] for name in named["few"]]
    again = io.StringIO()
    verify_digests.write_digests(named, again)
    assert again.getvalue() == out.getvalue()


def test_check_prints_the_first_document_that_differs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify_digests, "corpora", lambda dense: {"few": _few()})
    saved = tmp_path / "base.list"
    assert verify_digests.main(["--list", str(saved)]) == 0
    assert verify_digests.main(["--check", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"same 5 lines as {saved}"
    lines = saved.read_text().splitlines()
    third = lines[2].split("\t")[1]
    saved.write_text("\n".join(lines[:2] + ["few\t" + third + "\tpass", *lines[3:]]) + "\n")
    assert verify_digests.main(["--check", str(saved)]) == 1
    report = capsys.readouterr().out.splitlines()[-3:]
    assert report[0] == f"first difference from {saved}, at line 3:"
    assert report[1] == f"  saved: few\t{third}\tpass"
    assert report[2] == f"  here:  {lines[2]}"
    # a listing that ends early differs at its first missing line
    saved.write_text("\n".join(lines[:4]) + "\n")
    assert verify_digests.main(["--check", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "  saved: (no line)", f"  here:  {lines[4]}"]


def test_batch_lines_are_the_document_lines(monkeypatch):
    docs = _few()
    docs["marked"] = '<svg viewBox="0 0 1024 1024"><path d="M7.25 7.25L900 7.25L900 900Z"/></svg>'
    real = verifier.set_deviation

    def flaky(polys_a, polys_b):
        if polys_a and polys_a[0].points[0].tolist() == [7.25, 7.25]:
            raise MemoryError("dense distance matrix")
        return real(polys_a, polys_b)

    monkeypatch.setattr(verifier, "set_deviation", flaky)
    lines = [verify_digests.document_line(name, svg) for name, svg in docs.items()]
    assert lines[-1] == "marked" + "\terror MemoryError: dense distance matrix" * 2
    for size in (1, 2, 5, 64):
        assert verify_digests.batch_lines(docs, size) == lines
    named = {"few": docs, "skipped": None}
    one, chunked = io.StringIO(), io.StringIO()
    verify_digests.write_digests(named, one)
    verify_digests.write_digests(named, chunked, batch=3)
    assert chunked.getvalue() == one.getvalue()
