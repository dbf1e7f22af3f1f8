"""Tests of the benchmark's own checkers.

    python3 -m pytest -q bench/tests

They run in seconds. Only the last two import svgforge, from ``src/``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from oracle import CheckFailed  # noqa: E402

CANON = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1024 1024">{}</svg>'


def doc(*paths: tuple[str, str]) -> str:
    return CANON.format("".join(f'<path d="{d}" fill="{f}"/>' for d, f in paths))


# --- reward oracle ---------------------------------------------------------------


@pytest.mark.parametrize("flag, n_gen, n_ref, params, want", [
    (1, 3, 3, (1.0, 1.0, 1.0), 2.0),                      # exact match saturates
    (1, 5, 3, (1.0, 1.0, 1.0), 2.0),                      # overshooting is not punished
    (1, 1, 3, (1.0, 1.0, 1.0), 1.0 + math.exp(-2.0)),     # deficit of 2
    (0, 0, 4, (1.0, 1.0, 1.0), math.exp(-4.0)),           # malformed: no integrity, count 0
    (1, 2, 3, (0.8, 1.25, 0.6), 0.8 + 1.25 * math.exp(-0.6)),
    (0, 0, 2, (0.8, 1.25, 0.6), 1.25 * math.exp(-1.2)),
])
def test_reward_matches_hand_computed_values(flag, n_gen, n_ref, params, want):
    assert oracle.reward(flag, n_gen, n_ref, *params) == pytest.approx(want, abs=1e-15)


def test_wrong_reward_is_caught():
    row = {"id": "r", "n_generated": 2, "n_reference": 3, "integrity": 1.0,
           "match": math.exp(-1.0), "total": 1.0 + math.exp(-1.0)}
    oracle.check_scored(row, 2, 3, 1, 1.0, 1.0, 1.0)
    for key, bad in (("total", row["total"] + 1e-9), ("match", 1.0), ("integrity", 0.0),
                     ("n_generated", 3)):
        with pytest.raises(CheckFailed):
            oracle.check_scored(dict(row, **{key: bad}), 2, 3, 1, 1.0, 1.0, 1.0)


# --- M/L/C token counter and canonical form ----------------------------------------


def test_token_counter():
    svg = doc(("M0 0L10 10C1 2 3 4 5.5 6.25", "#ff0000"), ("M1 1L2 2L3 3", "#00ff00"))
    assert oracle.count_mlc(svg) == 6
    assert [f for _, f in oracle.normalized_paths(svg)] == ["#ff0000", "#00ff00"]
    assert oracle.count_mlc(doc(("M-1.5 2L3 -4.01", "url(#g1)"))) == 2


@pytest.mark.parametrize("d", [
    "M0 0Q1 1 2 2",        # opcode outside M/L/C
    "M0 0L1.234 2",        # three decimals
    "M0 0l1 1",            # relative
    "M0 0L1,2",            # comma separator
    "M0 0C1 2 3 4 5",      # short cubic
])
def test_non_canonical_output_is_rejected(d):
    with pytest.raises(CheckFailed):
        oracle.count_mlc(doc((d, "#000000")))


# --- level table -------------------------------------------------------------------


@pytest.mark.parametrize("fills, n, want", [
    (1, 49, "Monocolor_easy"), (1, 50, "Monocolor_difficult"),
    (1, 99, "Monocolor_difficult"), (1, 100, "Monocolor_difficult"),
    (1, 200, "Monocolor_difficult"), (1, 201, "OutOfRange"),
    (2, 49, "Multicolor_easy"), (2, 50, "Multicolor_easy"),
    (3, 99, "Multicolor_easy"), (3, 100, "Multicolor_difficult"),
    (4, 200, "Multicolor_difficult"), (4, 201, "OutOfRange"),
])
def test_level_table_boundaries(fills, n, want):
    assert oracle.level_for(fills, n) == want


def test_record_with_wrong_level_is_caught():
    svg = doc(("M0 0" + "L1 1" * 49, "#123456"))  # 50 commands, one fill
    rec = {"id": "x", "svg": svg, "color_category": "Monochrome", "command_count": 50,
           "path_count": 1, "difficulty_level": "Monocolor_difficult"}
    oracle.check_record(rec, 1, 1, 50)
    with pytest.raises(CheckFailed):
        oracle.check_record(dict(rec, difficulty_level="Monocolor_easy"), 1, 1, 50)
    with pytest.raises(CheckFailed):
        oracle.check_record(dict(rec, command_count=49), 1, 1, 50)


def test_augmented_record_checks():
    src = {"id": "a", "svg": doc(("M0 0L1 1", "#111111"), ("M5 5L6 6", "#222222")),
           "command_count": 4, "path_count": 2, "difficulty_level": "Multicolor_easy",
           "color_category": "Multicolor"}
    swapped = dict(src, id="a__aug1", augmented_from="a",
                   svg=doc(("M5 5L6 6", "#333333"), ("M0 0L1 1", "#444444")))
    oracle.check_augmented(swapped, src)
    merged = dict(swapped, svg=doc(("M5 5L6 6", "#333333"), ("M0 0L1 1", "#333333")))
    with pytest.raises(CheckFailed):  # two fills mapped to one: not injective
        oracle.check_augmented(merged, src)


# --- inputs: counts known by construction ---------------------------------------------


def test_score_rollouts_are_built_as_described():
    groups = inputs.score_pairs(3)
    assert len(groups) == inputs.SCORE_GROUPS
    for group in groups:
        assert len({r.reference for r in group}) == 1
        for r, kind in zip(group, inputs.ROLLOUT_KINDS):
            assert r.flag == (kind != "truncated")
            if r.flag:
                assert r.generated.count("<path ") == r.n_generated
            assert r.reference.count("<path ") == r.n_reference


def test_inputs_repeat_for_a_seed():
    assert inputs.build_corpus(7) == inputs.build_corpus(7)
    assert inputs.build_corpus(7) != inputs.build_corpus(8)


# --- against the program ---------------------------------------------------------------


def test_displaced_pairs_fail_with_their_offset(tmp_path):
    from svgforge.cli import main

    pairs = inputs.displaced_pairs(5)
    for name, raw, norm, _ in pairs:
        (tmp_path / "raw").mkdir(exist_ok=True)
        (tmp_path / "norm").mkdir(exist_ok=True)
        (tmp_path / "raw" / f"{name}.svg").write_text(raw)
        (tmp_path / "norm" / f"{name}.svg").write_text(norm)
    report = tmp_path / "report.jsonl"
    assert main(["verify", str(tmp_path / "raw"), str(tmp_path / "norm"),
                 "--out", str(report), "--quiet"]) == 3
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    offsets = {name: off for name, _, _, off in pairs}
    oracle.check_displaced(rows, offsets)
    with pytest.raises(CheckFailed):  # the passing-pairs check rejects them
        oracle.check_verify_rows(rows, list(offsets), 0.5)
    with pytest.raises(CheckFailed):  # and a wrong displacement is noticed
        oracle.check_displaced(rows, {k: v + 0.01 for k, v in offsets.items()})


def test_dense_icons_have_the_generated_command_count():
    from svgforge import classify, normalize_document, parse_document

    icons = [ic for ic in inputs.build_corpus(2) if ic.commands is not None][::25]
    for ic in icons:
        normalized, _ = normalize_document(parse_document(ic.svg)[0])
        c = classify(normalized)
        assert (c.command_count, c.path_count) == (ic.commands, ic.paths)
