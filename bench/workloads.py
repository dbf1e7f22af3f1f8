"""The three workloads: inputs on disk, CLI flows, library items and checks.

A workload splits its items into shards of the same make-up. One round runs
one shard through the workload's CLI subcommands (at ``--jobs 1`` and
``--jobs 2``) and through the library entry points a caller uses per item.
The first ``--jobs 1`` output of a shard is checked in depth with
:mod:`oracle`; every later output of that shard must equal it byte for byte.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import inputs
import oracle
from oracle import require


def read_tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def read_jsonl(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines() if line.strip()]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def deal(items: list, k: int) -> list[list]:
    """Split ``items`` into ``k`` shards, dealing back and forth so each shard
    gets an even share of every run of similar items."""
    shards: list[list] = [[] for _ in range(k)]
    for i, item in enumerate(items):
        block, pos = divmod(i, k)
        shards[pos if block % 2 == 0 else k - 1 - pos].append(item)
    return shards


class Workload:
    """Shared plumbing; subclasses define inputs, flows, items and checks."""

    name = ""
    shards: list[list]

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.inp = work / "in"
        self.references: dict[int, dict[str, bytes]] = {}

    def shard_items(self, k: int) -> int:
        return len(self.shards[k])

    def accept(self, k: int, out: Path) -> int:
        """Check a round's outputs; return the number of failed items.

        The first output of a shard gets the full check and becomes its
        reference; later ones must equal the reference byte for byte.
        """
        tree = read_tree(out)
        failed = self.failures(k, tree)
        if k not in self.references:
            self.check(k, tree)
            self.references[k] = tree
        else:
            require(tree == self.references[k], f"{self.name} shard {k}: output differs from first run")
        return failed

    def lib_items(self, k: int) -> list:
        """What one library call takes; by default one item of the shard."""
        return self.shards[k]

    @staticmethod
    def lib_ops(item) -> int:
        """Operations in one library item."""
        return 1

    # subclasses: prepare(), flow(k, out, jobs), failures(k, tree), check(k, tree),
    # lib_run(item), lib_check(k, item, result), probe_argv(dir)


# --- build ----------------------------------------------------------------------


class Build(Workload):
    """normalize -> classify -> stats -> curriculum -> augment over raw icons."""

    name = "build"
    n_shards = 16

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        icons = inputs.build_corpus(seed)  # tier by tier, dense icons by command count
        self.shards = deal(icons, self.n_shards)
        self.icons = {ic.name: ic for ic in icons}
        self._records: dict[int, dict[str, dict]] = {}

    def prepare(self) -> None:
        for k, shard in enumerate(self.shards):
            for ic in shard:
                _write(self.inp / f"s{k:02d}" / f"{ic.name}.svg", ic.svg)

    def flow(self, k: int, out: Path, jobs: int) -> list[list[str]]:
        j = ["--quiet", "--jobs", str(jobs)]
        rec = str(out / "records.jsonl")
        return [
            ["normalize", str(self.inp / f"s{k:02d}"), str(out / "norm"), *j],
            ["classify", str(out / "norm"), "--out", rec, *j],
            ["stats", rec, "--out", str(out / "stats.json"), *j],
            ["curriculum", rec, "--out", str(out / "manifest.json"), *j],
            ["augment", rec, "--out", str(out / "aug.jsonl"), "--seed", str(self.seed), *j],
        ]

    def failures(self, k: int, tree: dict[str, bytes]) -> int:
        ids = {r["id"] for r in read_jsonl(tree.get("records.jsonl", b""))}
        return sum(1 for ic in self.shards[k] if ic.name not in ids)

    def check(self, k: int, tree: dict[str, bytes]) -> None:
        names = sorted(ic.name for ic in self.shards[k])
        records = read_jsonl(tree.get("records.jsonl", b""))
        by_id = {r["id"]: r for r in records}
        require("errors.jsonl" not in tree, f"build shard {k}: classify reported errors")
        require([r["id"] for r in records] == [n for n in names if n in by_id], "build: record order")
        for n in names:
            norm = tree.get(f"norm/{n}.svg")
            if n not in by_id or norm is None:
                continue
            ic, rec = self.icons[n], by_id[n]
            oracle.check_record(rec, ic.paths, ic.fills, ic.commands)
            # classify re-normalized the normalized file; it must come back unchanged
            require(rec["svg"].encode("utf-8") == norm, f"{n}: re-normalizing changed the bytes")
        oracle.check_stats(json.loads(tree["stats.json"]), records)
        oracle.check_curriculum(json.loads(tree["manifest.json"]), records)
        augmented = read_jsonl(tree["aug.jsonl"])
        require([a["id"] for a in augmented] == [r["id"] + "__aug1" for r in records],
                "augment: one variant per record")
        for a, r in zip(augmented, records):
            oracle.check_augmented(a, r)
        self._records[k] = by_id

    def lib_run(self, ic):
        from svgforge import classify, normalize_document, parse_document, serialize_document

        doc, _ = parse_document(ic.svg)
        normalized, _ = normalize_document(doc)
        text = serialize_document(normalized)
        return text, classify(normalized)

    def lib_check(self, k: int, ic, result) -> None:
        text, c = result
        rec = self._records[k][ic.name]
        require(text == rec["svg"], f"{ic.name}: library output differs from the CLI's")
        require((c.command_count, c.path_count, c.level_name) ==
                (rec["command_count"], rec["path_count"], rec["difficulty_level"]),
                f"{ic.name}: library classification differs from the CLI's")

    def probe_argv(self, d: Path) -> list[str]:
        ic = self.shards[0][len(self.shards[0]) // 2]
        _write(d / "raw" / f"{ic.name}.svg", ic.svg)
        return ["normalize", str(d / "raw"), str(d / "out"), "--quiet"]


# --- verify ------------------------------------------------------------------------


class Verify(Workload):
    """verify RAW NORM over the small corpus plus single-path curves."""

    name = "verify"
    n_shards = 4
    tolerance = 0.5

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        icons = inputs.verify_corpus(seed)
        small = [ic for ic in icons if not ic.name.startswith("curve_")]
        large = [ic for ic in icons if ic.name.startswith("curve_")]
        self.shards = deal(small, self.n_shards)
        for k, ic in enumerate(large):
            self.shards[k % self.n_shards].append(ic)
        self.displaced = inputs.displaced_pairs(seed)
        self._norm: dict[str, str] = {}
        self._rows: dict[int, dict[str, dict]] = {}

    def prepare(self) -> None:
        from svgforge.cli import main

        for k, shard in enumerate(self.shards):
            for ic in shard:
                _write(self.inp / f"s{k}" / "raw" / f"{ic.name}.svg", ic.svg)
            code = main(["normalize", str(self.inp / f"s{k}" / "raw"), str(self.inp / f"s{k}" / "norm"), "--quiet"])
            require(code == 0, f"verify: normalizing shard {k} exited {code}")
            for ic in shard:
                self._norm[ic.name] = (self.inp / f"s{k}" / "norm" / f"{ic.name}.svg").read_text("utf-8")
        # pairs moved by a known offset must fail with that deviation
        d = self.work / "displaced"
        for name, raw, norm, _ in self.displaced:
            _write(d / "raw" / f"{name}.svg", raw)
            _write(d / "norm" / f"{name}.svg", norm)
        code = main(["verify", str(d / "raw"), str(d / "norm"), "--out", str(d / "report.jsonl"), "--quiet"])
        require(code == 3, f"verify: displaced pairs exited {code}, expected 3")
        oracle.check_displaced(read_jsonl((d / "report.jsonl").read_bytes()),
                               {name: off for name, _, _, off in self.displaced})

    def flow(self, k: int, out: Path, jobs: int) -> list[list[str]]:
        s = self.inp / f"s{k}"
        return [["verify", str(s / "raw"), str(s / "norm"), "--out", str(out / "report.jsonl"),
                 "--tolerance", str(self.tolerance), "--quiet", "--jobs", str(jobs)]]

    def failures(self, k: int, tree: dict[str, bytes]) -> int:
        passed = {r["id"] for r in read_jsonl(tree.get("report.jsonl", b"")) if r["pass"] is True}
        return sum(1 for ic in self.shards[k] if ic.name not in passed)

    def check(self, k: int, tree: dict[str, bytes]) -> None:
        rows = read_jsonl(tree.get("report.jsonl", b""))
        oracle.check_verify_rows(rows, [ic.name for ic in self.shards[k]], self.tolerance)
        self._rows[k] = {r["id"]: r for r in rows}

    def lib_run(self, ic):
        from svgforge import normalize_document, parse_document, verify_normalization

        raw, _ = parse_document(ic.svg)
        norm, _ = parse_document(self._norm[ic.name])
        norm, _ = normalize_document(norm)
        return verify_normalization(raw, norm, self.tolerance)

    def lib_check(self, k: int, ic, result) -> None:
        row = self._rows[k][ic.name]
        require(result.passed and result.worst == row["worst_path_deviation"],
                f"{ic.name}: library verification differs from the CLI's")

    def probe_argv(self, d: Path) -> list[str]:
        ic = self.shards[0][len(self.shards[0]) // 2]
        _write(d / "raw" / f"{ic.name}.svg", ic.svg)
        _write(d / "norm" / f"{ic.name}.svg", self._norm[ic.name])
        return ["verify", str(d / "raw"), str(d / "norm"), "--quiet"]


# --- score ----------------------------------------------------------------------------


class Score(Workload):
    """score pairs.jsonl over rollout groups that share a reference."""

    name = "score"
    n_shards = 10
    params = (0.8, 1.25, 0.6)  # alpha, beta, gamma: not the defaults, so their wiring is checked

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.groups = deal(inputs.score_pairs(seed), self.n_shards)
        self.shards = [[r for g in groups for r in g] for groups in self.groups]
        self.rollouts = {r.id: r for shard in self.shards for r in shard}

    def prepare(self) -> None:
        for k, shard in enumerate(self.shards):
            _write(self.inp / f"s{k}.jsonl", "".join(
                json.dumps({"id": r.id, "generated": r.generated, "reference": r.reference}) + "\n"
                for r in shard))

    def flow(self, k: int, out: Path, jobs: int) -> list[list[str]]:
        a, b, g = self.params
        return [["score", str(self.inp / f"s{k}.jsonl"), "--out", str(out / "scored.jsonl"),
                 "--alpha", repr(a), "--beta", repr(b), "--gamma", repr(g),
                 "--quiet", "--jobs", str(jobs)]]

    def failures(self, k: int, tree: dict[str, bytes]) -> int:
        scored = {r["id"] for r in read_jsonl(tree.get("scored.jsonl", b""))}
        return sum(1 for r in self.shards[k] if r.id not in scored)

    def check(self, k: int, tree: dict[str, bytes]) -> None:
        rows = read_jsonl(tree.get("scored.jsonl", b""))
        require("errors.jsonl" not in tree, f"score shard {k}: references rejected")
        require([r["id"] for r in rows] == [r.id for r in self.shards[k]], "score: row order")
        for row in rows:
            r = self.rollouts[row["id"]]
            require(row["generated"] == r.generated and row["reference"] == r.reference,
                    f"{r.id}: input fields changed")
            oracle.check_scored(row, r.n_generated, r.n_reference, r.flag, *self.params)

    def lib_items(self, k: int) -> list:
        return self.groups[k]

    @staticmethod
    def lib_ops(group) -> int:
        return len(group)

    def lib_run(self, group):
        from svgforge import RewardParams, total_reward

        a, b, g = self.params
        params = RewardParams(alpha=a, beta=b, gamma=g)
        return [total_reward(r.generated, r.reference, params) for r in group]

    def lib_check(self, k: int, group, result) -> None:
        for r, br in zip(group, result):
            oracle.check_scored({"id": r.id, "n_generated": br.n_generated, "n_reference": br.n_reference,
                                 "integrity": br.integrity, "match": br.match, "total": br.total},
                                r.n_generated, r.n_reference, r.flag, *self.params)

    def probe_argv(self, d: Path) -> list[str]:
        r = self.shards[0][0]
        _write(d / "pairs.jsonl", json.dumps({"id": r.id, "generated": r.generated,
                                              "reference": r.reference}) + "\n")
        return ["score", str(d / "pairs.jsonl"), "--out", str(d / "scored.jsonl"), "--quiet"]


WORKLOADS = {cls.name: cls for cls in (Build, Verify, Score)}


def reset(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
