"""Checks made apart from the program.

Nothing here imports svgforge. Counts come from regular expressions over
the output text and from what the input generator knows by construction;
the level table and the reward formula are this module's own copies of the
paper's definitions. Every check raises :class:`CheckFailed` with the item
it failed on.
"""

from __future__ import annotations

import math
import re

LEVELS = ("Monocolor_easy", "Monocolor_difficult", "Multicolor_easy", "Multicolor_difficult")
OUT_OF_RANGE = "OutOfRange"
EPOCHS = (1, 1, 3, 3)

_NUM = r"-?\d+(?:\.\d{1,2})?"
_D = rf"(?:M{_NUM} {_NUM}|L{_NUM} {_NUM}|C{_NUM}(?: {_NUM}){{5}})+"
_FILL = r"#[0-9a-f]{6}|url\(#[^)\"]+\)"
_PATH_RE = re.compile(rf'<path d="({_D})" fill="({_FILL})"/>')
_DOC_RE = re.compile(
    rf'<svg xmlns="http://www\.w3\.org/2000/svg" viewBox="0 0 1024 1024">'
    rf'(?:<path d="{_D}" fill="(?:{_FILL})"/>)+</svg>'
)
_OPCODE_RE = re.compile(r"[MLC]")


class CheckFailed(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def normalized_paths(svg: str) -> list[tuple[str, str]]:
    """(d, fill) of every path of a canonical M/L/C document.

    Raises :class:`CheckFailed` unless the whole text is the canonical
    form: the fixed root, M/L/C only, numbers with at most 2 decimals.
    """
    require(_DOC_RE.fullmatch(svg) is not None, f"not canonical M/L/C svg: {svg[:120]!r}")
    return _PATH_RE.findall(svg)


def count_mlc(svg: str) -> int:
    """Number of M/L/C commands in a canonical document."""
    return sum(len(_OPCODE_RE.findall(d)) for d, _ in normalized_paths(svg))


def level_for(distinct_fills: int, commands: int) -> str:
    """The paper's difficulty table; shared bounds go to the harder class."""
    if commands > 200:
        return OUT_OF_RANGE
    if distinct_fills <= 1:
        return LEVELS[0] if commands < 50 else LEVELS[1]
    return LEVELS[2] if commands < 100 else LEVELS[3]


def reward(flag: int, n_gen: int, n_ref: int, alpha: float, beta: float, gamma: float) -> float:
    """alpha * flag + beta * exp(-gamma * max(0, n_ref - n_gen))."""
    return alpha * flag + beta * math.exp(-gamma * max(0, n_ref - n_gen))


# --- build ---------------------------------------------------------------------


def check_record(rec: dict, expected_paths: int, expected_fills: int,
                 expected_commands: int | None) -> None:
    """One classify record against the generator's counts and the level table."""
    rid = rec.get("id")
    paths = normalized_paths(rec["svg"])
    n = count_mlc(rec["svg"])
    fills = len({fill for _, fill in paths})
    require(len(paths) == expected_paths == rec["path_count"],
            f"{rid}: path_count {rec['path_count']}, {len(paths)} paths, expected {expected_paths}")
    require(fills == expected_fills, f"{rid}: {fills} distinct fills, expected {expected_fills}")
    require(rec["command_count"] == n, f"{rid}: command_count {rec['command_count']}, counted {n}")
    if expected_commands is not None:
        require(n == expected_commands, f"{rid}: {n} commands, generator made {expected_commands}")
    category = "Monochrome" if fills <= 1 else "Multicolor"
    require(rec["color_category"] == category, f"{rid}: category {rec['color_category']}")
    require(rec["difficulty_level"] == level_for(fills, n),
            f"{rid}: level {rec['difficulty_level']}, table says {level_for(fills, n)}")
    require("auto_normalized" not in rec, f"{rid}: normalized input was normalized again")


def check_stats(stats: dict, records: list[dict]) -> None:
    levels: dict[str, int] = {}
    hist: dict[str, dict[str, int]] = {}
    for r in records:
        levels[r["difficulty_level"]] = levels.get(r["difficulty_level"], 0) + 1
        lo = r["command_count"] // 10 * 10
        bins = hist.setdefault(r["color_category"], {})
        bins[f"{lo}-{lo + 9}"] = bins.get(f"{lo}-{lo + 9}", 0) + 1
    require(stats["records"] == len(records), "stats: record total")
    require(stats["level_counts"] == levels, f"stats: level counts {stats['level_counts']} != {levels}")
    require(stats["command_histogram"] == hist, "stats: command histogram")


def check_curriculum(manifest: dict, records: list[dict]) -> None:
    """Four stages easy->hard with epochs 1/1/3/3 that partition the in-range ids."""
    stages = manifest["stages"]
    require([s["difficulty_level"] for s in stages] == list(LEVELS), "curriculum: stage order")
    require(tuple(s["epochs"] for s in stages) == EPOCHS, "curriculum: epochs")
    for s in stages:
        want = sorted(r["id"] for r in records if r["difficulty_level"] == s["difficulty_level"])
        require(s["record_ids"] == want, f"curriculum: ids of stage {s['stage_name']}")
    oor = sorted(r["id"] for r in records if r["difficulty_level"] == OUT_OF_RANGE)
    require(manifest["out_of_range"] == oor, "curriculum: out_of_range ids")
    listed = [i for s in stages for i in s["record_ids"]] + manifest["out_of_range"]
    require(sorted(listed) == sorted(r["id"] for r in records), "curriculum: not a partition")


def check_augmented(aug: dict, source: dict) -> None:
    """Same counts and level; paths equal up to one adjacent swap; injective recolour."""
    aid = aug.get("id")
    require(aug.get("augmented_from") == source["id"], f"{aid}: augmented_from")
    for key in ("command_count", "path_count", "difficulty_level", "color_category"):
        require(aug[key] == source[key], f"{aid}: {key} {aug[key]} != source {source[key]}")
    src, out = normalized_paths(source["svg"]), normalized_paths(aug["svg"])
    require(len(src) == len(out), f"{aid}: path count changed")
    order = list(range(len(src)))
    diff = [i for i in order if src[i][0] != out[i][0]]
    if diff:
        i = diff[0]
        require(diff == [i, i + 1], f"{aid}: paths moved beyond one adjacent swap")
        order[i], order[i + 1] = i + 1, i
    mapping: dict[str, str] = {}
    for j, i in enumerate(order):
        require(out[j][0] == src[i][0], f"{aid}: path geometry changed")
        require(mapping.setdefault(src[i][1], out[j][1]) == out[j][1], f"{aid}: recolour is not a map")
    require(len(set(mapping.values())) == len(mapping), f"{aid}: recolour is not injective")


# --- verify ------------------------------------------------------------------


def check_verify_rows(rows: list[dict], ids: list[str], tolerance: float) -> None:
    require([r["id"] for r in rows] == sorted(ids), "verify: report ids")
    for r in rows:
        require(r["pass"] is True and "error" not in r, f"verify: {r['id']} failed: {r}")
        require(0.0 <= r["worst_path_deviation"] <= tolerance, f"verify: {r['id']} deviation")


def check_displaced(rows: list[dict], offsets: dict[str, float]) -> None:
    """Pairs moved by a known offset must fail with that worst deviation."""
    require(sorted(r["id"] for r in rows) == sorted(offsets), "displaced: report ids")
    for r in rows:
        want = offsets[r["id"]]
        require(r["pass"] is False, f"displaced: {r['id']} passed")
        require(abs(r["worst_path_deviation"] - want) <= 1e-6,
                f"displaced: {r['id']} deviation {r['worst_path_deviation']}, moved by {want}")


# --- score -----------------------------------------------------------------------


def check_scored(row: dict, n_gen: int, n_ref: int, flag: int,
                 alpha: float, beta: float, gamma: float) -> None:
    rid = row.get("id")
    require(row["n_generated"] == n_gen and row["n_reference"] == n_ref,
            f"{rid}: counts {row['n_generated']}/{row['n_reference']}, built as {n_gen}/{n_ref}")
    require(abs(row["integrity"] - alpha * flag) <= 1e-12, f"{rid}: integrity {row['integrity']}")
    match = beta * math.exp(-gamma * max(0, n_ref - n_gen))
    require(abs(row["match"] - match) <= 1e-12, f"{rid}: match {row['match']} != {match}")
    want = reward(flag, n_gen, n_ref, alpha, beta, gamma)
    require(abs(row["total"] - want) <= 1e-12, f"{rid}: total {row['total']} != {want}")
