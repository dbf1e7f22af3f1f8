import concurrent.futures
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import colored_icons, write_corpus
from svgforge import normalizer, pipeline, rewards, verifier
from svgforge.augment import AugmentSpec
from svgforge.cli import main
from svgforge.errors import InvalidReference, SchemaError, ValidationError
from svgforge.pipeline import (
    DEFAULT_EPOCHS,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    build_curriculum,
    file_id,
    run_augment,
    run_classify,
    run_curriculum,
    run_normalize,
    run_score,
    run_stats,
    run_verify,
)
from svgforge.parser import parse_document, serialize_paths
from svgforge.rewards import RewardParams, total_reward

VALID = '<svg viewBox="0 0 1024 1024"><path d="M0 0L10 10" fill="#ff0000"/></svg>'


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


def read_strict_jsonl(path):
    """Rows of a JSONL file that must hold no Infinity or NaN token."""
    return [
        json.loads(line, parse_constant=_no_constant)
        for line in Path(path).read_text().splitlines()
        if line
    ]


def tree(root):
    """Every file under ``root`` as {relative posix path: bytes}."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*")) if p.is_file()
    }


def record(rid, level, color="Monochrome", count=10):
    return {
        "id": rid,
        "svg": VALID,
        "color_category": color,
        "difficulty_level": level,
        "command_count": count,
        "path_count": 1,
    }


class TestFileId:
    def test_flat(self):
        assert file_id("icon.svg") == "icon"

    def test_nested(self):
        assert file_id(Path("a/b/icon.svg")) == "a__b__icon"


class TestNormalize:
    def test_all_valid(self, tmp_path):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        for i in range(3):
            (src / f"f{i}.svg").write_text(VALID)
        assert run_normalize(src, dst) == EXIT_OK
        assert sorted(p.name for p in dst.glob("*.svg")) == ["f0.svg", "f1.svg", "f2.svg"]

    def test_partial_failure(self, tmp_path, caplog):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        (src / "good1.svg").write_text(VALID)
        (src / "good2.svg").write_text(VALID)
        (src / "broken.svg").write_text(VALID[:40])
        assert run_normalize(src, dst) == EXIT_PARTIAL
        assert len(list(dst.glob("*.svg"))) == 2
        assert any("MalformedXml" in r.message for r in caplog.records)

    def test_strict_aborts(self, tmp_path):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        (src / "broken.svg").write_text("<svg")
        assert run_normalize(src, dst, strict=True) == EXIT_USAGE

    def test_strict_stops_at_first_failure(self, tmp_path, monkeypatch):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        (src / "a.svg").write_text("<svg")
        (src / "b.svg").write_text(VALID)
        (src / "c.svg").write_text(VALID)
        real = normalizer.parse_document
        calls = []

        def counted(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(normalizer, "parse_document", counted)
        assert run_normalize(src, dst, strict=True) == EXIT_USAGE
        assert calls == ["<svg"]
        assert not dst.exists()

    def test_missing_input_dir(self, tmp_path):
        assert run_normalize(tmp_path / "nope", tmp_path / "out") == EXIT_USAGE

    def test_rerun_is_byte_identical(self, tmp_path, corpus):
        src = tmp_path / "in"
        write_corpus(src, corpus)
        first, second = tmp_path / "o1", tmp_path / "o2"
        assert run_normalize(src, first) == EXIT_OK
        assert run_normalize(first, second) == EXIT_OK
        for rel in sorted(p.relative_to(first) for p in first.rglob("*.svg")):
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel

    def test_report_written(self, tmp_path):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        (src / "a.svg").write_text(
            '<svg viewBox="0 0 10 10"><rect x="0" y="0" width="5" height="5"/></svg>'
        )
        report = tmp_path / "report.json"
        run_normalize(src, dst, report_path=report)
        data = json.loads(report.read_text())
        assert data["shapes_converted"] == {"rect": 1}
        assert data["files_total"] == 1 and data["files_failed"] == 0

    def test_preserves_subdirectories(self, tmp_path):
        src, dst = tmp_path / "in", tmp_path / "out"
        (src / "sub").mkdir(parents=True)
        (src / "sub" / "icon.svg").write_text(VALID)
        run_normalize(src, dst)
        assert (dst / "sub" / "icon.svg").exists()


class TestClassify:
    def test_square_rect_record(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        (src / "square.svg").write_text(
            '<svg viewBox="0 0 1024 1024"><rect x="0" y="0" width="10" height="10"/></svg>'
        )
        out = tmp_path / "records.jsonl"
        assert run_classify(src, out) == EXIT_OK
        rows = read_jsonl(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["id"] == "square"
        assert row["command_count"] == 5
        assert row["color_category"] == "Monochrome"
        assert row["difficulty_level"] == "Monocolor_easy"
        assert row["auto_normalized"] is True

    def test_two_color_120_commands(self, tmp_path):
        half = "".join(f"L{i} {i % 7}" for i in range(1, 60))
        svg = (
            f'<svg viewBox="0 0 1024 1024"><path d="M0 0{half}" fill="#ff0000"/>'
            f'<path d="M0 0{half}" fill="#00ff00"/></svg>'
        )
        src = tmp_path / "in"
        src.mkdir()
        (src / "two.svg").write_text(svg)
        out = tmp_path / "records.jsonl"
        run_classify(src, out)
        row = read_jsonl(out)[0]
        assert row["command_count"] == 120
        assert row["difficulty_level"] == "Multicolor_difficult"

    def test_canonical_files_are_not_serialized_again(self, tmp_path, corpus_dir, monkeypatch):
        # each record's svg is the canonical text that normalize_text returned
        normalized = tmp_path / "norm"
        run_normalize(corpus_dir, normalized)
        calls = []
        real = pipeline.serialize_paths
        monkeypatch.setattr(pipeline, "serialize_paths", lambda paths: calls.append(1) or real(paths))
        out = tmp_path / "records.jsonl"
        assert run_classify(normalized, out) == EXIT_OK
        rows = read_jsonl(out)
        assert len(rows) == len(list(normalized.glob("*.svg"))) and calls == []
        assert all("auto_normalized" not in r for r in rows)
        assert {r["svg"] for r in rows} == {p.read_text().strip() for p in normalized.glob("*.svg")}

    def test_empty_dir(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        out = tmp_path / "records.jsonl"
        assert run_classify(src, out) == EXIT_OK
        assert read_jsonl(out) == []

    def test_errors_sidecar_and_conservation(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        (src / "ok.svg").write_text(VALID)
        (src / "bad.svg").write_text("<svg")
        out = tmp_path / "records.jsonl"
        assert run_classify(src, out) == EXIT_PARTIAL
        rows = read_jsonl(out)
        errors = read_jsonl(tmp_path / "errors.jsonl")
        assert len(rows) + len(errors) == 2
        assert errors[0]["id"] == "bad"

    @pytest.mark.parametrize("escaped,char", [
        ("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
    ])
    def test_reference_id_is_escaped_and_classifies(self, tmp_path, escaped, char):
        raw, norm = tmp_path / "raw", tmp_path / "norm"
        raw.mkdir()
        (raw / "g.svg").write_text(
            f'<svg viewBox="0 0 24 24"><path d="M0 0L9 9L0 9Z" fill="url(#a{escaped}b)"/></svg>'
        )
        assert main(["normalize", str(raw), str(norm), "--quiet"]) == EXIT_OK
        text = (norm / "g.svg").read_text()
        assert f'fill="url(#a{escaped}b)"' in text
        out = tmp_path / "records.jsonl"
        assert main(["classify", str(norm), "--out", str(out), "--quiet"]) == EXIT_OK
        (row,) = read_strict_jsonl(out)
        assert row["svg"] == text and "auto_normalized" not in row
        doc, _ = parse_document(row["svg"])
        assert doc.paths[0].fill.ref_id == f"a{char}b"

    def test_clean_rerun_removes_stale_errors_sidecar(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        (src / "ok.svg").write_text(VALID)
        (src / "bad.svg").write_text("<svg")
        out = tmp_path / "d" / "records.jsonl"
        assert run_classify(src, out) == EXIT_PARTIAL
        assert (out.parent / "errors.jsonl").exists()
        (src / "bad.svg").unlink()
        assert run_classify(src, out) == EXIT_OK
        assert not (out.parent / "errors.jsonl").exists()

    def test_records_self_validate(self, tmp_path, corpus_dir):
        from svgforge.classifier import classify
        from svgforge.normalizer import normalize_document
        from svgforge.parser import parse_document

        out = tmp_path / "records.jsonl"
        run_classify(corpus_dir, out)
        rows = read_jsonl(out)
        assert rows == sorted(rows, key=lambda r: r["id"])
        for row in rows:
            doc, _ = parse_document(row["svg"])
            norm, _ = normalize_document(doc)
            c = classify(norm)
            assert c.command_count == row["command_count"]
            assert c.path_count == row["path_count"]
            assert c.color_category.value == row["color_category"]
            assert c.level_name == row["difficulty_level"]

    def test_jobs_do_not_change_output(self, tmp_path, corpus_dir):
        out1, out8 = tmp_path / "r1.jsonl", tmp_path / "r8.jsonl"
        run_classify(corpus_dir, out1, jobs=1)
        run_classify(corpus_dir, out8, jobs=8)
        assert out1.read_bytes() == out8.read_bytes()


class TestStats:
    def test_uniform_proportions(self, tmp_path):
        rows = [
            record("a", "Monocolor_easy"),
            record("b", "Monocolor_difficult", count=60),
            record("c", "Multicolor_easy", color="Multicolor"),
            record("d", "Multicolor_difficult", color="Multicolor", count=150),
        ]
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, summary = run_stats(path)
        assert code == EXIT_OK
        assert all(
            math.isclose(v, 0.25) for v in summary["level_proportions"].values()
        )

    def test_histogram_conservation(self, tmp_path):
        rows = [record(f"r{i}", "Monocolor_easy", count=i) for i in range(40)]
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        _, summary = run_stats(path)
        assert sum(summary["command_histogram"]["Monochrome"].values()) == 40
        assert summary["command_histogram"]["Monochrome"]["0-9"] == 10

    def test_schema_error(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "x"}\n')
        with pytest.raises(SchemaError):
            run_stats(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(SchemaError):
            run_stats(path)


class TestCurriculum:
    def test_one_record_per_level(self, tmp_path):
        rows = [
            record("m_easy", "Monocolor_easy"),
            record("m_hard", "Monocolor_difficult", count=60),
            record("x_easy", "Multicolor_easy", color="Multicolor"),
            record("x_hard", "Multicolor_difficult", color="Multicolor", count=150),
        ]
        manifest = build_curriculum(rows)
        names = [s["stage_name"] for s in manifest["stages"]]
        assert names == [
            "Monocolor_easy", "Monocolor_difficult", "Multicolor_easy", "Multicolor_difficult",
        ]
        assert [s["epochs"] for s in manifest["stages"]] == list(DEFAULT_EPOCHS)
        assert [s["record_ids"] for s in manifest["stages"]] == [
            ["m_easy"], ["m_hard"], ["x_easy"], ["x_hard"],
        ]

    def test_all_monochrome_leaves_empty_stages(self):
        rows = [record(f"r{i}", "Monocolor_easy") for i in range(5)]
        manifest = build_curriculum(rows)
        assert manifest["stages"][2]["record_ids"] == []
        assert manifest["stages"][3]["record_ids"] == []

    def test_id_conservation_and_out_of_range(self):
        rows = [record(f"r{i}", "Monocolor_easy") for i in range(6)]
        rows.append(record("big", "OutOfRange", count=500))
        manifest = build_curriculum(rows)
        staged = [rid for s in manifest["stages"] for rid in s["record_ids"]]
        assert sorted(staged + manifest["out_of_range"]) == sorted(r["id"] for r in rows)
        assert manifest["out_of_range"] == ["big"]

    def test_extra_stage_is_empty_extension_point(self):
        manifest = build_curriculum(
            [record("a", "Monocolor_easy")], epochs=(1, 1, 3, 3, 3), extra_stage="reasoning"
        )
        extra = manifest["stages"][4]
        assert extra["stage_name"] == "reasoning"
        assert extra["record_ids"] == [] and extra["epochs"] == 3

    @pytest.mark.parametrize(
        "epochs, extra_stage, message",
        [
            ((0, -2, 3, 3), None, "epochs must be at least 1, got 0,-2,3,3"),
            ((1, 1, 3, 3, 0), "reasoning", "epochs must be at least 1, got 1,1,3,3,0"),
            ((1, 1, 3, 3, 9), None, "a fifth epoch value needs extra_stage"),
            ((1, 1, 3), None, "expected 4 or 5 epoch values, got 3"),
        ],
    )
    def test_bad_epochs_are_schema_errors(self, epochs, extra_stage, message):
        with pytest.raises(SchemaError, match=message):
            build_curriculum([record("a", "Monocolor_easy")], epochs, extra_stage)

    def test_run_curriculum_writes_json(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record("a", "Monocolor_easy")) + "\n")
        out = tmp_path / "manifest.json"
        assert run_curriculum(path, out) == EXIT_OK
        manifest = json.loads(out.read_text())
        assert len(manifest["stages"]) == 4


class TestScore:
    def _pairs(self, tmp_path, rows):
        path = tmp_path / "pairs.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    def test_identical_pair_totals_two(self, tmp_path):
        pairs = self._pairs(tmp_path, [{"id": "p1", "generated": VALID, "reference": VALID}])
        out = tmp_path / "scored.jsonl"
        assert run_score(pairs, out) == EXIT_OK
        row = read_jsonl(out)[0]
        assert row["total"] == 2.0 and row["integrity"] == 1.0

    def test_truncated_generated(self, tmp_path):
        pairs = self._pairs(
            tmp_path, [{"id": "p1", "generated": "<svg", "reference": VALID}]
        )
        out = tmp_path / "scored.jsonl"
        run_score(pairs, out)
        row = read_jsonl(out)[0]
        assert row["integrity"] == 0.0 and row["total"] < 1.0

    def test_invalid_reference_routed(self, tmp_path):
        pairs = self._pairs(
            tmp_path,
            [
                {"id": "good", "generated": VALID, "reference": VALID},
                {"id": "bad", "generated": VALID, "reference": "<svg"},
            ],
        )
        out = tmp_path / "scored.jsonl"
        assert run_score(pairs, out) == EXIT_PARTIAL
        assert len(read_jsonl(out)) == 1
        errors = read_jsonl(tmp_path / "errors.jsonl")
        assert errors[0]["id"] == "bad"

    @staticmethod
    def _count_calls(monkeypatch) -> list:
        """The texts ``rewards.path_count`` is called with, from now on."""
        counted = []
        real = rewards.path_count

        def counting(text):
            counted.append(text)
            return real(text)

        monkeypatch.setattr(rewards, "path_count", counting)
        return counted

    @staticmethod
    def _per_row(rows):
        """The scored rows and error rows of per-row ``total_reward`` with no dict."""
        scored, errors = [], []
        for row in rows:
            try:
                r = total_reward(row["generated"], row["reference"])
            except InvalidReference as exc:
                errors.append({"id": row["id"], "error": f"InvalidReference: {exc}"})
                continue
            scored.append(dict(row, integrity=r.integrity, match=r.match, total=r.total,
                               n_generated=r.n_generated, n_reference=r.n_reference))
        return scored, errors

    def test_each_distinct_text_is_counted_once(self, tmp_path, monkeypatch):
        two = ('<svg viewBox="0 0 1024 1024"><path d="M0 0L10 10" fill="#ff0000"/>'
               '<path d="M5 5L9 1C1 2 3 4 5 6"/></svg>')
        truncated = VALID[:30]
        rows = [
            {"id": "a1", "generated": VALID, "reference": VALID},
            {"id": "a2", "generated": truncated, "reference": VALID},
            {"id": "a3", "generated": truncated, "reference": VALID},
            {"id": "a4", "generated": two, "reference": VALID},
            {"id": "b1", "generated": VALID, "reference": two},
            {"id": "c1", "generated": VALID, "reference": "<svg"},
            {"id": "c2", "generated": two, "reference": "<svg"},
            {"id": "a5", "generated": "<svg", "reference": VALID},
        ]
        expected_rows, expected_errors = self._per_row(rows)
        assert [e["id"] for e in expected_errors] == ["c1", "c2"]
        assert expected_errors[0]["error"] == expected_errors[1]["error"]
        assert expected_errors[0]["error"].startswith(
            "InvalidReference: reference failed integrity: ")

        counted = self._count_calls(monkeypatch)
        out = tmp_path / "scored.jsonl"
        assert run_score(self._pairs(tmp_path, rows), out) == EXIT_PARTIAL
        assert sorted(counted) == sorted({VALID, truncated, two, "<svg"})
        assert read_strict_jsonl(out) == expected_rows
        assert read_strict_jsonl(tmp_path / "errors.jsonl") == expected_errors

    def test_non_string_texts_score_as_per_row(self, tmp_path):
        # 1, True and 1.0 are equal dict keys, yet their integrity messages differ
        rows = [{"id": f"p{i}", "generated": value, "reference": ref}
                for i, (value, ref) in enumerate([(1, VALID), (True, VALID), (VALID, 1),
                                                  (VALID, True), (VALID, 1.0), (VALID, None)])]
        expected_rows, expected_errors = self._per_row(rows)
        assert len({e["error"] for e in expected_errors}) == 4
        out = tmp_path / "scored.jsonl"
        assert run_score(self._pairs(tmp_path, rows), out) == EXIT_PARTIAL
        assert read_strict_jsonl(out) == expected_rows
        assert read_strict_jsonl(tmp_path / "errors.jsonl") == expected_errors

    def test_total_reward_without_a_dict_counts_the_reference_every_call(self, monkeypatch):
        counted = self._count_calls(monkeypatch)
        for _ in range(3):
            total_reward(VALID, VALID)
        assert counted == [VALID] * 6


class TestAugment:
    def _records(self, tmp_path, texts):
        src = tmp_path / "src"
        write_corpus(src, texts)
        records = tmp_path / "records.jsonl"
        run_classify(src, records)
        return records

    def test_expansion_ratio(self, tmp_path):
        records = self._records(tmp_path, colored_icons(20))
        out = tmp_path / "aug.jsonl"
        assert run_augment(records, out, AugmentSpec(seed=4, n_variants=2)) == EXIT_OK
        rows = read_jsonl(out)
        assert len(rows) == 40
        for row in rows:
            assert row["augmented_from"]
            assert row["id"].startswith(row["augmented_from"])

    def test_variants_preserve_classification(self, tmp_path):
        records = self._records(tmp_path, colored_icons(15))
        out = tmp_path / "aug.jsonl"
        run_augment(records, out, AugmentSpec(seed=9, n_variants=2))
        sources = {r["id"]: r for r in read_jsonl(records)}
        for row in read_jsonl(out):
            src = sources[row["augmented_from"]]
            assert row["difficulty_level"] == src["difficulty_level"]
            assert row["color_category"] == src["color_category"]
            assert row["command_count"] == src["command_count"]
            assert row["path_count"] == src["path_count"]

    def test_seeded_determinism(self, tmp_path):
        records = self._records(tmp_path, colored_icons(10))
        out1, out2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        run_augment(records, out1, AugmentSpec(seed=123, n_variants=2))
        run_augment(records, out2, AugmentSpec(seed=123, n_variants=2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        records = self._records(tmp_path, colored_icons(10))
        out1, out2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        run_augment(records, out1, AugmentSpec(seed=1))
        run_augment(records, out2, AugmentSpec(seed=2))
        assert out1.read_bytes() != out2.read_bytes()

    def test_single_path_swap_only_skipped(self, tmp_path):
        records = self._records(tmp_path, {"single": VALID})
        out = tmp_path / "aug.jsonl"
        assert run_augment(records, out, AugmentSpec(seed=1), ops=("swap",)) == EXIT_OK
        assert read_jsonl(out) == []

    def test_unparseable_record_is_error_row(self, tmp_path):
        records = tmp_path / "records.jsonl"
        bad = dict(record("bad", "Monocolor_easy"), svg=VALID[:40])
        records.write_text(
            json.dumps(record("good", "Monocolor_easy")) + "\n" + json.dumps(bad) + "\n"
        )
        out = tmp_path / "aug.jsonl"
        assert run_augment(records, out, AugmentSpec(seed=1)) == EXIT_PARTIAL
        assert [r["augmented_from"] for r in read_strict_jsonl(out)] == ["good"]
        (error,) = read_strict_jsonl(tmp_path / "errors.jsonl")
        assert error["id"] == "bad" and error["error"].startswith("MalformedXml: ")


class TestVerifyRuns:
    def test_corpus_passes(self, tmp_path, corpus_dir):
        normalized = tmp_path / "norm"
        run_normalize(corpus_dir, normalized)
        report = tmp_path / "verify.jsonl"
        assert run_verify(corpus_dir, normalized, 0.5, report) == EXIT_OK
        rows = read_jsonl(report)
        assert all(r["pass"] for r in rows)
        assert len(rows) == len(list(corpus_dir.glob("*.svg")))

    def test_tiny_tolerance_fails(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "c.svg").write_text(
            '<svg viewBox="0 0 1024 1024"><circle cx="512" cy="512" r="400" fill="#000"/></svg>'
        )
        normalized = tmp_path / "norm"
        run_normalize(src, normalized)
        assert run_verify(src, normalized, 1e-6) == EXIT_VERIFY_FAILED

    def test_missing_dir(self, tmp_path):
        assert run_verify(tmp_path / "a", tmp_path / "b", 0.5) == EXIT_USAGE

    def test_undecodable_file_is_one_error_row(self, tmp_path):
        raw, normalized = tmp_path / "raw", tmp_path / "norm"
        raw.mkdir()
        (raw / "bad.svg").write_bytes(b"\xff\xfe")
        (raw / "good.svg").write_text(VALID, encoding="utf-8")
        run_normalize(raw, normalized)
        report = tmp_path / "verify.jsonl"
        code = main(["verify", str(raw), str(normalized), "--out", str(report), "--quiet"])
        assert code == EXIT_VERIFY_FAILED
        rows = read_jsonl(report)
        assert [r["id"] for r in rows] == ["bad", "good"]
        assert rows[0]["error"].startswith("UnicodeDecodeError")
        assert rows[1]["pass"] and "error" not in rows[1]

    def test_summary_keeps_error_rows_apart_from_worst_deviation(self, tmp_path, caplog):
        raw, normalized = tmp_path / "raw", tmp_path / "norm"
        raw.mkdir()
        square = '<svg viewBox="0 0 1024 1024"><path d="M{x} 0L{w} 0L{w} 100L{x} 100Z"/></svg>'
        (raw / "a.svg").write_text(square.format(x=0, w=100))
        run_normalize(raw, normalized)
        (raw / "a.svg").write_text(square.format(x=3, w=103))  # 3 units from its NORM file
        (raw / "b.svg").write_bytes(b"\xff\xfe")
        report = tmp_path / "verify.jsonl"
        with caplog.at_level("ERROR", logger="svgforge"):
            assert run_verify(raw, normalized, 0.5, report) == EXIT_VERIFY_FAILED
        assert [r.getMessage() for r in caplog.records] == [
            "verification failed for 2/2 files; worst offender a at 3; 1 could not be checked"
        ]
        a, b = read_strict_jsonl(report)
        assert a == {"id": "a", "pass": False, "worst_path_deviation": 3.0}
        assert b["pass"] is False and b["worst_path_deviation"] is None
        assert b["error"].startswith("UnicodeDecodeError")
        caplog.clear()
        (raw / "a.svg").unlink()
        with caplog.at_level("ERROR", logger="svgforge"):
            assert run_verify(raw, normalized, 0.5) == EXIT_VERIFY_FAILED
        assert [r.getMessage() for r in caplog.records] == [
            "verification failed for 1/1 files; 1 could not be checked"
        ]


    def test_subpath_below_the_output_resolution_verifies(self, tmp_path):
        # each tiny subpath becomes one point in the normalized text, e.g.
        # M213.33 213.33L213.33 213.33, and must still be checked, not dropped
        raw, normalized = tmp_path / "raw", tmp_path / "norm"
        raw.mkdir()
        for i, body in enumerate([
            '<path d="M5 5L5 5.000000001M10 10L20 20L10 20Z"/>',
            '<path d="M5 5L5 5.000000001"/>',
            '<path d="M10 10L20 20L10 20Z"/><path d="M0 0L1e-17 0"/>',
        ]):
            (raw / f"i{i}.svg").write_text(f'<svg viewBox="0 0 24 24">{body}</svg>')
        assert main(["normalize", str(raw), str(normalized), "--quiet"]) == EXIT_OK
        report = tmp_path / "verify.jsonl"
        assert main(["verify", str(raw), str(normalized), "--out", str(report), "--quiet"]) == EXIT_OK
        rows = read_strict_jsonl(report)
        assert [r["id"] for r in rows] == ["i0", "i1", "i2"]
        assert all(r["pass"] and r["worst_path_deviation"] < 0.01 for r in rows)

    def test_unnormalized_norm_file_is_an_error_row(self, tmp_path):
        raw, normalized = tmp_path / "raw", tmp_path / "norm"
        raw.mkdir()
        (raw / "icon.svg").write_text(
            '<svg viewBox="0 0 24 24"><g transform="rotate(30 12 12)">'
            '<circle cx="12" cy="12" r="5" fill="#f00"/>'
            '<path d="m3 3q4 0 4 4t4 4z" fill="#00f"/></g></svg>'
        )
        report = tmp_path / "verify.jsonl"
        code = main(["verify", str(raw), str(raw), "--out", str(report), "--quiet"])
        assert code == EXIT_VERIFY_FAILED
        (row,) = read_strict_jsonl(report)
        assert row["pass"] is False and row["worst_path_deviation"] is None
        assert row["error"] == "NotNormalized: icon.svg differs from its normalized form"
        assert run_normalize(raw, normalized) == EXIT_OK
        (normalized / "icon.svg").write_text((normalized / "icon.svg").read_text() + "\n")
        assert main(["verify", str(raw), str(normalized), "--out", str(report)]) == EXIT_OK
        assert read_strict_jsonl(report)[0]["pass"] is True


class TestCli:
    def test_normalize_roundtrip(self, tmp_path):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        (src / "a.svg").write_text(VALID)
        assert main(["normalize", str(src), str(dst)]) == 0
        assert (dst / "a.svg").read_text() == VALID.replace(
            "<svg ", '<svg xmlns="http://www.w3.org/2000/svg" '
        )

    def test_score_literal_semantics(self, tmp_path):
        gen = '<svg viewBox="0 0 8 8"><path d="M0 0L1 1" fill="#000"/></svg>'
        ref_body = "".join(
            f'<path d="M{i * 2} 0L{i * 2 + 1} 1" fill="#000"/>' for i in range(2)
        )
        ref = f'<svg viewBox="0 0 8 8">{ref_body}</svg>'
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "x", "generated": gen, "reference": ref}) + "\n")
        out = tmp_path / "scored.jsonl"
        assert main(["score", str(pairs), "--out", str(out), "--semantics", "literal"]) == 0
        row = read_jsonl(out)[0]
        assert math.isclose(row["match"], math.e, abs_tol=1e-12)

    def test_config_env_flag_precedence(self, tmp_path, monkeypatch):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "x", "generated": VALID, "reference": VALID}) + "\n")
        config = tmp_path / "cfg"
        config.write_text("alpha = 5\n")
        out = tmp_path / "scored.jsonl"

        # config alone
        main(["score", str(pairs), "--out", str(out), "--config", str(config)])
        assert read_jsonl(out)[0]["integrity"] == 5.0
        # env beats config
        monkeypatch.setenv("SVGFORGE_ALPHA", "7")
        main(["score", str(pairs), "--out", str(out), "--config", str(config)])
        assert read_jsonl(out)[0]["integrity"] == 7.0
        # flag beats env
        main(["score", str(pairs), "--out", str(out), "--config", str(config), "--alpha", "9"])
        assert read_jsonl(out)[0]["integrity"] == 9.0

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["normalize", str(tmp_path / "missing"), str(tmp_path / "out")]) == 2

    def test_curriculum_epochs_flag(self, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(record("a", "Monocolor_easy")) + "\n")
        out = tmp_path / "manifest.json"
        assert main(["curriculum", str(records), "--out", str(out), "--epochs", "2,2,4,4"]) == 0
        manifest = json.loads(out.read_text())
        assert [s["epochs"] for s in manifest["stages"]] == [2, 2, 4, 4]

    def test_augment_cli_palette(self, tmp_path):
        src = tmp_path / "src"
        write_corpus(src, colored_icons(3))
        records = tmp_path / "records.jsonl"
        main(["classify", str(src), "--out", str(records)])
        out = tmp_path / "aug.jsonl"
        code = main([
            "augment", str(records), "--out", str(out), "--seed", "5",
            "--variants", "1",
            "--palette", "#101010,#202020,#303030,#404040,#505050",
        ])
        assert code == 0
        rows = read_jsonl(out)
        assert len(rows) == 3
        allowed = {"101010", "202020", "303030", "404040", "505050"}
        for row in rows:
            fills = {m for m in _fills(row["svg"])}
            assert fills <= allowed

    def test_json_outputs_create_their_directory(self, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(record("a", "Monocolor_easy")) + "\n")
        stats, manifest = tmp_path / "s" / "stats.json", tmp_path / "m" / "manifest.json"
        assert main(["stats", str(records), "--out", str(stats), "--quiet"]) == 0
        assert main(["curriculum", str(records), "--out", str(manifest), "--quiet"]) == 0
        assert json.loads(stats.read_text())["records"] == 1
        assert json.loads(manifest.read_text())["stages"][0]["record_ids"] == ["a"]

    def test_verify_cli(self, tmp_path, corpus_dir):
        normalized = tmp_path / "norm"
        main(["normalize", str(corpus_dir), str(normalized), "--quiet"])
        assert main(["verify", str(corpus_dir), str(normalized), "--quiet"]) == 0


class TestFailureContract:
    """Whatever one input raises becomes its own error row; the run goes on."""

    def _two_files(self, tmp_path, second=VALID):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "a.svg").write_text(VALID)
        (raw / "b.svg").write_text(second)
        return raw

    def test_bad_rgb_channel_falls_back_to_inherited_fill(self, tmp_path):
        raw = self._two_files(
            tmp_path,
            '<svg viewBox="0 0 1024 1024"><path d="M0 0L9 9" fill="rgb(1e999,0,0)"/></svg>',
        )
        out = tmp_path / "out"
        assert run_normalize(raw, out) == EXIT_OK
        assert sorted(p.name for p in out.glob("*.svg")) == ["a.svg", "b.svg"]
        assert 'fill="#000000"' in (out / "b.svg").read_text()

    def test_memory_error_in_verify_is_one_row(self, tmp_path, monkeypatch):
        raw = self._two_files(tmp_path)
        normalized = tmp_path / "norm"
        run_normalize(raw, normalized)
        real = pipeline.prepare_columns
        calls = []

        def flaky(raw_doc, columns, tolerance):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("dense distance matrix")
            return real(raw_doc, columns, tolerance)

        monkeypatch.setattr(pipeline, "prepare_columns", flaky)
        report = tmp_path / "verify.jsonl"
        assert run_verify(raw, normalized, 0.5, report) == EXIT_VERIFY_FAILED
        rows = read_strict_jsonl(report)
        assert [r["id"] for r in rows] == ["a", "b"]
        assert rows[0]["pass"] and "error" not in rows[0]
        assert rows[1] == {
            "id": "b", "pass": False, "worst_path_deviation": None,
            "error": "MemoryError: dense distance matrix",
        }

    def test_runtime_error_in_classify_is_one_row(self, tmp_path, monkeypatch):
        raw = self._two_files(tmp_path)
        real = normalizer.normalize_slices
        calls = []

        def flaky(doc):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return real(doc)

        monkeypatch.setattr(normalizer, "normalize_slices", flaky)
        out = tmp_path / "records.jsonl"
        assert run_classify(raw, out) == EXIT_PARTIAL
        assert len(read_strict_jsonl(out)) == 1
        errors = read_strict_jsonl(tmp_path / "errors.jsonl")
        assert len(errors) == 1 and errors[0]["error"] == "RuntimeError: boom"

    def _colliding(self, tmp_path):
        raw = tmp_path / "raw"
        (raw / "a").mkdir(parents=True)
        (raw / "a" / "b.svg").write_text(VALID)
        (raw / "a__b.svg").write_text(VALID)
        return raw

    def test_duplicate_id_in_classify(self, tmp_path):
        raw = self._colliding(tmp_path)
        out = tmp_path / "records.jsonl"
        assert run_classify(raw, out) == EXIT_PARTIAL
        assert [r["id"] for r in read_strict_jsonl(out)] == ["a__b"]
        (error,) = read_strict_jsonl(tmp_path / "errors.jsonl")
        assert error["id"] == "a__b"
        assert "a/b.svg" in error["error"] and "a__b.svg" in error["error"]

    def test_duplicate_id_in_verify(self, tmp_path):
        raw = self._colliding(tmp_path)
        normalized = tmp_path / "norm"
        run_normalize(raw, normalized)
        report = tmp_path / "verify.jsonl"
        assert run_verify(raw, normalized, 0.5, report) == EXIT_VERIFY_FAILED
        first, second = read_strict_jsonl(report)
        assert first == {"id": "a__b", "pass": True, "worst_path_deviation": 0.0}
        assert second["id"] == "a__b" and second["worst_path_deviation"] is None
        assert "a/b.svg" in second["error"] and "a__b.svg" in second["error"]

    def test_infinite_alpha_is_usage_error(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "x", "generated": "<svg", "reference": VALID}) + "\n")
        out = tmp_path / "scored.jsonl"
        assert main(["score", str(pairs), "--out", str(out), "--alpha", "inf", "--quiet"]) == 2
        assert not out.exists()

    def test_overflowing_reward_is_one_row(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            json.dumps({"id": "big", "generated": VALID, "reference": VALID}) + "\n"
            + json.dumps({"id": "bad", "generated": VALID, "reference": "<svg"}) + "\n"
        )
        out = tmp_path / "scored.jsonl"
        params = RewardParams(alpha=1e308, beta=1e308)
        assert run_score(pairs, out, params) == EXIT_PARTIAL
        assert read_strict_jsonl(out) == []
        errors = read_strict_jsonl(tmp_path / "errors.jsonl")
        assert [e["id"] for e in errors] == ["big", "bad"]
        assert errors[0]["error"].startswith("ValidationError")
        assert errors[1]["error"].startswith("InvalidReference")


def _fills(svg_text):
    import re

    return re.findall(r'fill="#([0-9a-f]{6})"', svg_text)


class _ThreadStarted(Exception):
    pass


def _no_thread(self):
    raise _ThreadStarted(self.name)


class _Forked(Exception):
    pass


def _no_fork():
    raise _Forked("os.fork")


class TestOneThread:
    """At ``jobs=1`` all work runs in the calling thread: no subcommand starts
    a thread or a process. At ``jobs=2`` normalize and verify run on forked
    worker processes, the output is byte-identical, and every worker is
    joined before its ``run_*`` call returns."""

    def test_jobs_leaves_output_unchanged_and_starts_no_thread(self, tmp_path, corpus_dir, monkeypatch):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("".join(
            json.dumps({"id": f"p{i}", "generated": gen, "reference": VALID}) + "\n"
            for i, gen in enumerate([VALID, "<svg", VALID])
        ))
        real_fork, forks = os.fork, []
        trees = []
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}"
            runs = (
                lambda: run_normalize(corpus_dir, out / "norm", jobs=jobs),
                lambda: run_classify(corpus_dir, out / "classify" / "records.jsonl", jobs=jobs),
                lambda: run_score(pairs, out / "score" / "scored.jsonl", jobs=jobs),
                lambda: run_verify(corpus_dir, out / "norm", out_path=out / "verify.jsonl",
                                   jobs=jobs),
            )
            with monkeypatch.context() as m:
                if jobs == 1:
                    m.setattr(threading.Thread, "start", _no_thread)
                    m.setattr(os, "fork", _no_fork)
                else:
                    m.setattr(os, "fork", lambda: forks.append(1) or real_fork())
                for run in runs:
                    assert run() == EXIT_OK
                    assert multiprocessing.active_children() == []
            trees.append(tree(out))
        assert trees[0] == trees[1]
        assert {"verify.jsonl", "score/scored.jsonl", "classify/records.jsonl"} <= set(trees[0])
        # two workers each for normalize and verify, none for classify or score
        assert len(forks) == (4 if os.cpu_count() > 1 else 0)


class TestWorkerProcesses:
    def test_strict_writes_nothing_after_the_first_failure(self, tmp_path):
        """At ``jobs=2`` workers may read files after the first failure, but
        nothing after it is written."""
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        for i in range(12):
            (src / f"f{i:02d}.svg").write_text("<svg" if i in (5, 9) else VALID)
        assert run_normalize(src, dst, strict=True, jobs=2) == EXIT_USAGE
        assert sorted(p.name for p in dst.glob("*.svg")) == [f"f{i:02d}.svg" for i in range(5)]
        assert multiprocessing.active_children() == []

    def test_workers_are_capped_by_files_and_cpus(self, tmp_path, monkeypatch):
        asked = []

        class Recorder:
            """Records the worker count asked for and runs the work in process."""

            def __init__(self, max_workers, mp_context=None):
                asked.append(max_workers)

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "fork", _no_fork)
        src = tmp_path / "in"
        src.mkdir()
        for i in range(3):
            (src / f"f{i}.svg").write_text(VALID)
        assert main(["normalize", str(src), str(tmp_path / "out"), "--jobs", "1000000"]) == EXIT_OK
        assert main(["verify", str(src), str(tmp_path / "out"), "--jobs", "1000000"]) == EXIT_OK
        workers = min(3, os.cpu_count())
        assert asked == ([workers, workers] if workers > 1 else [])
        assert len(list((tmp_path / "out").glob("*.svg"))) == 3


_MARKED = ('<svg viewBox="0 0 1024 1024"><path d="M7.25 7.25L900 7.25L900 900Z" fill="#00f"/>'
           '<circle cx="500" cy="500" r="40"/></svg>')


class TestVerifyChunks:
    """Files are prepared one by one and verified a chunk at a time; each
    file still gets the row it gets alone."""

    @staticmethod
    def inputs(tmp_path):
        """16 files, the middle four of which fail: a path count mismatch, a
        NORM file that is not normalized, a NaN worst deviation and a
        ``MemoryError`` (the marked icon, under :meth:`fail_marked`)."""
        raw, norm = tmp_path / "raw", tmp_path / "norm"
        icons = [*_ICONS, *colored_icons(9, seed=3).values()]
        for i in range(16):
            (raw / f"f{i:02d}.svg").parent.mkdir(parents=True, exist_ok=True)
            text = {4: _ICONS[1], 7: _MARKED}.get(i, icons[i % len(icons)])
            (raw / f"f{i:02d}.svg").write_text(text)
        assert run_normalize(raw, norm) == EXIT_OK
        (norm / "f04.svg").write_text((norm / "f00.svg").read_text())  # one path for two
        (norm / "f05.svg").write_text(VALID)
        (raw / "f06.svg").write_text('<svg viewBox="0 0 1e-150 1e-150"><path d="M0 0L1e-150 0"/>'
                                     '<path d="M0 0L1e160 0L0 1e-150Z"/></svg>')
        (norm / "f06.svg").write_text(serialize_paths([("M0 0L1024 0", "#000000"),
                                                       ("M0 0L1 0L0 1024", "#000000")]))
        return raw, norm

    @staticmethod
    def fail_marked(monkeypatch):
        real = verifier.set_deviation

        def flaky(polys_a, polys_b):
            if polys_a and polys_a[0].points[0].tolist() == [7.25, 7.25]:
                raise MemoryError("dense distance matrix")
            return real(polys_a, polys_b)

        monkeypatch.setattr(verifier, "set_deviation", flaky)

    @staticmethod
    def verify(raw, norm, out, jobs=1):
        # the NaN deviation comes through overflows that numpy warns about
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return run_verify(raw, norm, 0.5, out, jobs=jobs)

    def test_each_failure_in_the_middle_of_a_chunk_is_its_own_row(self, tmp_path, monkeypatch):
        raw, norm = self.inputs(tmp_path)
        self.fail_marked(monkeypatch)
        chunks = []
        real = pipeline._chunk_size
        monkeypatch.setattr(pipeline, "_chunk_size", lambda n, workers: chunks.append(n) or 16)
        assert self.verify(raw, norm, tmp_path / "all.jsonl") == EXIT_VERIFY_FAILED
        assert chunks == [16] and real(16, 1) == 4
        rows = read_strict_jsonl(tmp_path / "all.jsonl")
        assert [row["id"] for row in rows] == [f"f{i:02d}" for i in range(16)]
        errors = {row["id"]: row.get("error") for row in rows}
        assert {i: e for i, e in errors.items() if e} == {
            "f04": "PathCountMismatch: 2 surviving drawables vs 1 paths",
            "f05": "NotNormalized: f05.svg differs from its normalized form",
            "f06": "FloatingPointError: worst path deviation is nan, not finite",
            "f07": "MemoryError: dense distance matrix",
        }
        assert all(row["pass"] for row in rows if not errors[row["id"]])
        monkeypatch.setattr(pipeline, "_chunk_size", lambda n, workers: 1)
        assert self.verify(raw, norm, tmp_path / "one.jsonl") == EXIT_VERIFY_FAILED
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "all.jsonl").read_bytes()

    @pytest.mark.parametrize("size", [2, 7, 64])
    def test_rows_are_the_same_at_any_chunk_size(self, tmp_path, monkeypatch, size):
        raw, norm = self.inputs(tmp_path)
        self.fail_marked(monkeypatch)
        monkeypatch.setattr(pipeline, "_chunk_size", lambda n, workers: 1)
        assert self.verify(raw, norm, tmp_path / "one.jsonl") == EXIT_VERIFY_FAILED
        monkeypatch.setattr(pipeline, "_chunk_size", lambda n, workers: size)
        assert self.verify(raw, norm, tmp_path / "chunked.jsonl") == EXIT_VERIFY_FAILED
        assert (tmp_path / "chunked.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()

    @pytest.mark.skipif(os.cpu_count() < 2, reason="one CPU runs every item in process")
    def test_rows_are_the_same_on_two_workers(self, tmp_path, monkeypatch):
        raw, norm = self.inputs(tmp_path)
        self.fail_marked(monkeypatch)
        assert self.verify(raw, norm, tmp_path / "one.jsonl") == EXIT_VERIFY_FAILED
        assert self.verify(raw, norm, tmp_path / "two.jsonl", jobs=2) == EXIT_VERIFY_FAILED
        assert (tmp_path / "two.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()

    def test_the_report_is_written_as_rows_arrive(self, tmp_path, monkeypatch):
        raw, norm = self.inputs(tmp_path)
        events = []
        real_prepare = pipeline.prepare_columns

        def prepare(raw_doc, columns, tolerance):
            events.append("prepare")
            return real_prepare(raw_doc, columns, tolerance)

        class Report:
            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)

            def write(self, text):
                events.append("row")
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(pipeline, "prepare_columns", prepare)
        monkeypatch.setattr(pipeline, "open", Report, raising=False)
        monkeypatch.setattr(pipeline, "_chunk_size", lambda n, workers: 4)
        self.verify(raw, norm, tmp_path / "report.jsonl")
        # f05, not normalized, fails before it reaches the verifier
        assert events == (["prepare"] * 4 + ["row"] * 4 + ["prepare"] * 3 + ["row"] * 4
                          + (["prepare"] * 4 + ["row"] * 4) * 2)
        assert len(read_strict_jsonl(tmp_path / "report.jsonl")) == 16

    def test_no_report_before_the_checks_pass(self, tmp_path):
        out = tmp_path / "sub" / "report.jsonl"
        with pytest.raises(ValidationError):
            run_verify(tmp_path, tmp_path, math.inf, out)
        assert run_verify(tmp_path / "missing", tmp_path, 0.5, out) == EXIT_USAGE
        assert not out.parent.exists()



# Runs in a fresh interpreter with a timeout, so a pool that hangs fails the
# test: a worker that reads the marked file kills itself, as an out-of-memory
# kill would, and the run must end with an error row for each item not yet
# returned and no process left.
_KILL_PROBE = """
import json, logging, multiprocessing, os, signal, sys
from pathlib import Path
from svgforge import normalizer, pipeline

raw, norm, out = map(Path, sys.argv[1:4])
parent, parse = os.getpid(), pipeline.parse_document

def parse_or_die(text):
    if "kill-me" in text and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return parse(text)

normalizer.parse_document = pipeline.parse_document = parse_or_die
failed = {}

class Failures(logging.Handler):
    def emit(self, record):
        if record.msg == "failed %s: %s":
            failed[str(record.args[0])] = record.args[1]

logging.getLogger("svgforge").addHandler(Failures())
codes = [pipeline.run_normalize(raw, out / "norm", jobs=2),
         pipeline.run_verify(raw, norm, out_path=out / "verify.jsonl", jobs=2)]
left = multiprocessing.active_children()
try:
    os.waitpid(-1, os.WNOHANG)
    waitable = True
except ChildProcessError:
    waitable = False
print(json.dumps({"codes": codes, "failed": failed, "left": len(left), "waitable": waitable}))
"""


@pytest.mark.skipif(os.cpu_count() < 2, reason="one CPU runs every item in process")
def test_a_dead_worker_becomes_error_rows(tmp_path):
    raw, norm, out = tmp_path / "raw", tmp_path / "norm", tmp_path / "out"
    raw.mkdir()
    names = [f"f{i:02d}.svg" for i in range(16)]
    for i, name in enumerate(names):
        marker = "<!-- kill-me -->" if i == 6 else ""
        (raw / name).write_text(_ICONS[i % 3].replace("</svg>", marker + "</svg>"))
    assert run_normalize(raw, norm) == EXIT_OK
    assert run_verify(raw, norm, out_path=tmp_path / "verify.jsonl") == EXIT_OK
    expected_rows = {row["id"]: row for row in read_strict_jsonl(tmp_path / "verify.jsonl")}
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_PROBE, str(raw), str(norm), str(out)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [EXIT_PARTIAL, EXIT_VERIFY_FAILED]
    assert got["left"] == 0 and got["waitable"] is False
    failed = got["failed"]
    assert "f06.svg" in failed
    assert all(error.startswith("BrokenProcessPool: ") for error in failed.values())
    for name in names:
        written = out / "norm" / name
        assert (name in failed) != written.exists(), name
        if written.exists():
            assert written.read_bytes() == (norm / name).read_bytes(), name
    rows = read_strict_jsonl(out / "verify.jsonl")
    assert [row["id"] for row in rows] == list(expected_rows)
    broken = [row for row in rows if row != expected_rows[row["id"]]]
    assert "f06" in {row["id"] for row in broken}
    for row in broken:
        assert row["pass"] is False and row["worst_path_deviation"] is None
        assert row["error"].startswith("BrokenProcessPool: ")


@pytest.mark.skipif(os.cpu_count() < 2, reason="one CPU runs every item in process")
@pytest.mark.parametrize("killers", [(0,), (6,), (15,), (4, 5, 11)])
def test_a_dead_worker_costs_only_the_file_it_ran(tmp_path, killers):
    """The items a dead worker's pool had not returned run again, so only a
    file that kills a worker each time it runs becomes an error row."""
    raw, norm, out = tmp_path / "raw", tmp_path / "norm", tmp_path / "out"
    raw.mkdir()
    names = [f"f{i:02d}.svg" for i in range(16)]
    for i, name in enumerate(names):
        marker = "<!-- kill-me -->" if i in killers else ""
        (raw / name).write_text(_ICONS[i % 3].replace("</svg>", marker + "</svg>"))
    assert run_normalize(raw, norm) == EXIT_OK
    assert run_verify(raw, norm, out_path=tmp_path / "verify.jsonl") == EXIT_OK
    expected_rows = read_strict_jsonl(tmp_path / "verify.jsonl")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_PROBE, str(raw), str(norm), str(out)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [EXIT_PARTIAL, EXIT_VERIFY_FAILED]
    assert got["left"] == 0 and got["waitable"] is False
    dead = [names[i] for i in killers]
    assert sorted(got["failed"]) == dead
    assert all(error.startswith("BrokenProcessPool: ") for error in got["failed"].values())
    for name in names:
        written = out / "norm" / name
        assert written.exists() == (name not in dead), name
        if name not in dead:
            assert written.read_bytes() == (norm / name).read_bytes(), name
    rows = read_strict_jsonl(out / "verify.jsonl")
    assert [row["id"] for row in rows] == [row["id"] for row in expected_rows]
    broken = [row for row, expected in zip(rows, expected_rows) if row != expected]
    assert [row["id"] for row in broken] == [name[:-len(".svg")] for name in dead]
    for row in broken:
        assert row["pass"] is False and row["error"].startswith("BrokenProcessPool: ")


_ICONS = (
    VALID,
    '<svg viewBox="0 0 24 24"><rect x="2" y="2" width="8" height="6" rx="1" fill="#00f"/>'
    '<circle cx="16" cy="16" r="4" fill="red"/></svg>',
    '<svg viewBox="0 0 24 24"><path d="m2 2h10v10a5 5 0 0 1-5 5z" fill="#0a0"/></svg>',
)
_BAD_RGB = '<svg viewBox="0 0 24 24"><path d="M0 0L9 9" fill="rgb(1e999,0,0)"/></svg>'
_FILE_KINDS = {
    "icon0": _ICONS[0].encode(),
    "icon1": _ICONS[1].encode(),
    "icon2": _ICONS[2].encode(),
    "truncated": VALID[:40].encode(),
    "undecodable": b"\xff\xfe",
    "bad_rgb": _BAD_RGB.encode(),
    "colliding": None,  # c<i>/x.svg and c<i>__x.svg, both valid
}
_GENERATED = (*_ICONS, VALID[:40], _BAD_RGB, "")
_REFERENCES = (*_ICONS, _BAD_RGB, "<svg", "<svg viewBox='0 0 8 8'/>")


def _write_inputs(raw, kinds):
    """Write one input per kind (two for ``colliding``); return their record ids."""
    ids = []
    for i, kind in enumerate(kinds):
        content = _FILE_KINDS[kind]
        rels = [f"c{i}/x.svg", f"c{i}__x.svg"] if content is None else [f"f{i}.svg"]
        for rel in rels:
            (raw / rel).parent.mkdir(parents=True, exist_ok=True)
            (raw / rel).write_bytes(content or _ICONS[1].encode())
            ids.append(file_id(rel))
    return sorted(ids)


def _ids(*paths):
    return sorted(row["id"] for p in paths if p.exists() for row in read_strict_jsonl(p))


class TestCliFailureContract:
    """Through ``cli.main``: one output or error row per input, no escaping
    exception, exit codes in {0, 1, 3}, and the same bytes at ``--jobs 1`` and 2."""

    @settings(max_examples=20, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(sorted(_FILE_KINDS)), min_size=1, max_size=5),
        pairs=st.lists(
            st.tuples(st.sampled_from(_GENERATED), st.sampled_from(_REFERENCES)),
            min_size=1, max_size=4,
        ),
    )
    def test_one_row_per_input_at_any_jobs(self, kinds, pairs):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            raw = root / "raw"
            ids = _write_inputs(raw, kinds)
            pairs_path = root / "pairs.jsonl"
            pairs_path.write_text("".join(
                json.dumps({"id": f"p{i}", "generated": g, "reference": r}) + "\n"
                for i, (g, r) in enumerate(pairs)
            ))
            trees = []
            for jobs in ("1", "2"):
                out = root / f"j{jobs}"
                (out / "norm").mkdir(parents=True)
                flags = ["--jobs", jobs, "--quiet"]
                codes = [
                    main(["normalize", str(raw), str(out / "norm"),
                          "--report", str(out / "report.json"), *flags]),
                    main(["classify", str(raw), "--out", str(out / "c" / "records.jsonl"),
                          *flags]),
                    main(["verify", str(raw), str(out / "norm"),
                          "--out", str(out / "verify.jsonl"), *flags]),
                    main(["score", str(pairs_path), "--out", str(out / "s" / "scored.jsonl"),
                          *flags]),
                ]
                assert set(codes) <= {0, 1, 3}, codes
                report = json.loads((out / "report.json").read_text())
                written = len(list((out / "norm").rglob("*.svg")))
                assert written + report["files_failed"] == report["files_total"] == len(ids)
                assert _ids(out / "c" / "records.jsonl", out / "c" / "errors.jsonl") == ids
                assert _ids(out / "verify.jsonl") == ids
                assert _ids(out / "s" / "scored.jsonl", out / "s" / "errors.jsonl") == sorted(
                    f"p{i}" for i in range(len(pairs))
                )
                trees.append(tree(out))
            assert trees[0] == trees[1]


_AUGMENT_ROWS = {
    "valid0": (True, lambda rid: dict(record(rid, "Monocolor_easy"), svg=_ICONS[0])),
    "valid1": (True, lambda rid: dict(record(rid, "Multicolor_easy"), svg=_ICONS[1])),
    "valid2": (True, lambda rid: dict(record(rid, "Monocolor_easy"), svg=_ICONS[2])),
    "missing": (False, lambda rid: {k: v for k, v in record(rid, "Monocolor_easy").items()
                                    if k != "color_category"}),
    "mistyped": (False, lambda rid: dict(record(rid, "Monocolor_easy"), command_count="10")),
    "no_id": (False, lambda rid: {k: v for k, v in record(rid, "Monocolor_easy").items()
                                  if k != "id"}),
    "bad_svg": (False, lambda rid: dict(record(rid, "Monocolor_easy"), svg=VALID[:40])),
    "bool_count": (False, lambda rid: dict(record(rid, "Monocolor_easy"), command_count=True)),
    "negative_count": (False, lambda rid: dict(record(rid, "Monocolor_easy"), path_count=-1)),
}


class TestAugmentFailureContract:
    """``augment`` through ``cli.main``: each failing record is exactly one error
    row, no exception escapes, exit 0 or 1, and the same bytes at ``--jobs 1`` and 2."""

    @settings(max_examples=20, deadline=None)
    @given(kinds=st.lists(st.sampled_from(sorted(_AUGMENT_ROWS)), min_size=1, max_size=6))
    def test_one_error_row_per_failing_record(self, kinds):
        rows = [_AUGMENT_ROWS[kind][1](f"r{i}") for i, kind in enumerate(kinds)]
        ok = [_AUGMENT_ROWS[kind][0] for kind in kinds]
        failing = [row.get("id") for good, row in zip(ok, rows) if not good]
        valid = {row["id"] for good, row in zip(ok, rows) if good}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            records = root / "records.jsonl"
            records.write_text("".join(json.dumps(row) + "\n" for row in rows))
            trees = []
            for jobs in ("1", "2"):
                out = root / f"j{jobs}"
                code = main(["augment", str(records), "--out", str(out / "aug.jsonl"),
                             "--variants", "2", "--seed", "4", "--jobs", jobs, "--quiet"])
                assert code == (EXIT_PARTIAL if failing else EXIT_OK)
                errors = out / "errors.jsonl"
                if failing:
                    assert [e["id"] for e in read_strict_jsonl(errors)] == failing
                else:
                    assert not errors.exists()
                sources = {row["augmented_from"] for row in read_strict_jsonl(out / "aug.jsonl")}
                assert sources <= valid
                trees.append(tree(out))
            assert trees[0] == trees[1]


class TestNormalizeOutputDir:
    def test_all_failed_still_creates_output_dir(self, tmp_path):
        raw, norm, report = tmp_path / "raw", tmp_path / "norm", tmp_path / "r.jsonl"
        raw.mkdir()
        (raw / "bad.svg").write_text("<svg")
        assert main(["normalize", str(raw), str(norm), "--quiet"]) == EXIT_PARTIAL
        assert norm.is_dir() and not any(norm.iterdir())
        code = main(["verify", str(raw), str(norm), "--out", str(report), "--quiet"])
        assert code == EXIT_VERIFY_FAILED
        (row,) = read_strict_jsonl(report)
        assert row["id"] == "bad" and row["pass"] is False
        assert row["error"].startswith("MalformedXml: ")


def _square(x, y, size, fill):
    return (f'<path d="M{x} {y}L{x + size} {y}L{x + size} {y + size}L{x} {y + size}Z" '
            f'fill="#{fill}"/>')


def _icon(*paths):
    return f'<svg viewBox="0 0 1024 1024">{"".join(paths)}</svg>'


AUGMENT_CASES = {
    "single": (_icon(_square(0, 0, 10, "ff0000")), None),
    "overlap": (_icon(_square(0, 0, 50, "ff0000"), _square(25, 25, 50, "00ff00")), None),
    "disjoint": (_icon(_square(0, 0, 10, "ff0000"), _square(100, 100, 10, "00ff00")), None),
    "small_palette": (
        _icon(_square(0, 0, 10, "ff0000"), _square(100, 100, 10, "00ff00"),
              _square(200, 200, 10, "0000ff")),
        "#111111,#222222",
    ),
}


class TestAugmentOps:
    """Which variants each op list yields, per kind of record."""

    def _records(self, tmp_path, svg):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(dict(record("x", "Monocolor_easy"), svg=svg)) + "\n")
        return records

    @pytest.mark.parametrize(
        "case,ops,expected",
        [
            ("single", "recolor", ["x__aug1", "x__aug2"]),
            ("single", "swap", []),
            ("single", "recolor,swap", ["x__aug1", "x__aug2"]),
            ("overlap", "recolor", ["x__aug1", "x__aug2"]),
            ("overlap", "swap", []),
            ("overlap", "recolor,swap", ["x__aug1", "x__aug2"]),
            ("disjoint", "recolor", ["x__aug1", "x__aug2"]),
            ("disjoint", "swap", ["x__aug1", "x__aug2"]),
            ("disjoint", "recolor,swap", ["x__aug1", "x__aug2"]),
            ("small_palette", "recolor", []),
            ("small_palette", "swap", ["x__aug1", "x__aug2"]),
            ("small_palette", "recolor,swap", []),
        ],
    )
    def test_variants_per_op_list(self, tmp_path, case, ops, expected):
        svg, palette = AUGMENT_CASES[case]
        out = tmp_path / "aug.jsonl"
        argv = ["augment", str(self._records(tmp_path, svg)), "--out", str(out),
                "--ops", ops, "--variants", "2", "--seed", "3", "--quiet"]
        if palette:
            argv += ["--palette", palette]
        assert main(argv) == EXIT_OK
        assert [r["id"] for r in read_strict_jsonl(out)] == expected
        assert not (tmp_path / "errors.jsonl").exists()

    @pytest.mark.parametrize("ops", [("bogus",), ("recolor", "bogus"), ()])
    def test_unknown_or_empty_ops_raise(self, tmp_path, ops):
        records = self._records(tmp_path, VALID)
        out = tmp_path / "aug.jsonl"
        with pytest.raises(ValidationError):
            run_augment(records, out, AugmentSpec(seed=1), ops=ops)
        assert not out.exists()

    def test_cli_unknown_op_is_usage_error(self, tmp_path, capsys):
        records = self._records(tmp_path, VALID)
        out = tmp_path / "aug.jsonl"
        code = main(["augment", str(records), "--out", str(out), "--ops", "swap,bogus"])
        assert code == EXIT_USAGE
        assert "unknown ops ['bogus']" in capsys.readouterr().err
        assert not out.exists()


class TestOneErrorRowPerRow:
    """A pair or record that fails its schema check is its own error row,
    and a variant equal to its source is not written."""

    def test_pair_without_reference(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            json.dumps({"id": "bad", "generated": VALID}) + "\n"
            + json.dumps({"id": "good", "generated": VALID, "reference": VALID}) + "\n"
        )
        out = tmp_path / "scored.jsonl"
        assert run_score(pairs, out) == EXIT_PARTIAL
        assert [r["id"] for r in read_strict_jsonl(out)] == ["good"]
        (error,) = read_strict_jsonl(tmp_path / "errors.jsonl")
        assert error["id"] == "bad" and error["error"].startswith("SchemaError: ")
        assert "'reference'" in error["error"]

    def test_record_without_svg(self, tmp_path):
        records = tmp_path / "records.jsonl"
        bad = record("bad", "Monocolor_easy")
        del bad["svg"]
        records.write_text(
            json.dumps(bad) + "\n" + json.dumps(record("good", "Monocolor_easy")) + "\n"
        )
        out = tmp_path / "aug.jsonl"
        assert run_augment(records, out, AugmentSpec(seed=1), ops=("recolor",)) == EXIT_PARTIAL
        assert [r["id"] for r in read_strict_jsonl(out)] == ["good__aug1"]
        (error,) = read_strict_jsonl(tmp_path / "errors.jsonl")
        assert error["id"] == "bad" and error["error"].startswith("SchemaError: ")
        assert "'svg'" in error["error"]

    def test_recolor_without_flat_fill_writes_nothing(self, tmp_path):
        records = tmp_path / "records.jsonl"
        svg = '<svg viewBox="0 0 24 24"><path d="M0 0L9 9L0 9Z" fill="url(#g)"/></svg>'
        records.write_text(json.dumps(dict(record("grad", "Monocolor_easy"), svg=svg)) + "\n")
        out = tmp_path / "aug.jsonl"
        argv = ["augment", str(records), "--out", str(out), "--ops", "recolor", "--quiet"]
        assert main(argv) == EXIT_OK
        assert read_strict_jsonl(out) == []
        assert not (tmp_path / "errors.jsonl").exists()
