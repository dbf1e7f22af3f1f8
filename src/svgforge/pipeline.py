"""Batch pipeline: directories of SVG in, JSONL datasets and reports out.

All subcommand bodies live here as plain functions so they are usable as
a library; the CLI module only does argument wiring. Each input goes
through :func:`_each`, which makes whatever it raises its error row.
``run_normalize`` and ``run_verify`` pass ``jobs`` on, so with ``jobs >
1`` their inputs run on forked worker processes; every other subcommand
runs its inputs one at a time in the calling thread, where a worker's
start-up costs more than it saves, and accepts ``jobs`` only for the
CLI's sake. Results keep input order at any ``jobs``, so outputs are
deterministic for fixed inputs, flags and seeds (README, "CLI"). Only the
verifier's distance kernel imports numpy, on its first use, and only
``jobs > 1`` imports :mod:`multiprocessing`.

SVG text reaches every subcommand through one function,
:func:`~svgforge.normalizer.normalize_text` (``normalize``, ``classify``,
``augment``, ``verify``'s NORM files and ``score``'s
:func:`~svgforge.rewards.path_count`): the ``(d, fill)`` slices that
``normalize`` writes, and whether the text already is their canonical
serialization. Canonical text gives its slices with no XML parse,
normalization or second serialization
(:func:`~svgforge.parser.canonical_paths`); other text is parsed and its
slices normalized, with no command object built
(:func:`~svgforge.normalizer.normalize_slices`). Each reader counts or
splices the slices, and verify reads their ``d`` as coordinate columns
(:func:`~svgforge.parser.slice_columns`); no subcommand types a command.
Only verify's RAW files are parsed as raw documents.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from contextlib import closing
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from .augment import NO_FLAT_FILL, AugmentSpec, recolor_slices, swap_slices
from .classifier import classify_counts
from .errors import NotNormalized, SchemaError, SvgForgeError, ValidationError
from .model import DifficultyLevel, Document
from .normalizer import NormalizeReport, normalize_text
from .parser import canonical_columns, document_slices, parse_document, serialize_paths
from .rewards import RewardParams, total_reward
from .verifier import DEFAULT_TOLERANCE, check_tolerance, verify_columns

# Not called here, but bench/spans.py traces them by these names in this module.
from .augment import replace_colors, swap_paths  # noqa: F401
from .classifier import classify  # noqa: F401
from .normalizer import normalize_document  # noqa: F401
from .parser import serialize_document  # noqa: F401
from .verifier import verify_normalization  # noqa: F401

log = logging.getLogger("svgforge")

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_VERIFY_FAILED = 3


#: The ops ``run_augment`` knows, in the order it applies them.
AUGMENT_OPS = ("recolor", "swap")

STAGE_ORDER = (
    DifficultyLevel.MONOCOLOR_EASY,
    DifficultyLevel.MONOCOLOR_DIFFICULT,
    DifficultyLevel.MULTICOLOR_EASY,
    DifficultyLevel.MULTICOLOR_DIFFICULT,
)
DEFAULT_EPOCHS = (1, 1, 3, 3)


@dataclass(frozen=True)
class DatasetRecord:
    """One training-ready JSONL row."""

    id: str
    svg: str
    color_category: str
    difficulty_level: str
    command_count: int
    path_count: int
    augmented_from: str | None = None

    def to_dict(self) -> dict:
        # str and int fields: dataclasses.asdict would deep-copy each for nothing
        return {k: v for k in self.__dataclass_fields__ if (v := getattr(self, k)) is not None}


def record_from_document(
    doc_id: str, doc: Document, augmented_from: str | None = None
) -> DatasetRecord:
    """Build a self-validating record from a normalized document."""
    return _slices_record(doc_id, document_slices(doc), augmented_from)


def _slices_record(
    doc_id: str, paths: list[tuple[str, str]], augmented_from: str | None = None
) -> DatasetRecord:
    """The record of the document whose ``(d, fill)`` slices are ``paths``,
    classified on the text as :func:`~svgforge.classifier.classify` does on
    the document: each of M, L and C is one command, and equal fill texts
    other than ``none`` are equal paints."""
    n_commands = sum(d.count("M") + d.count("L") + d.count("C") for d, _ in paths)
    c = classify_counts(len({fill for _, fill in paths} - {"none"}), n_commands, len(paths))
    return DatasetRecord(
        id=doc_id,
        svg=serialize_paths(paths),
        color_category=c.color_category.value,
        difficulty_level=c.level_name,
        command_count=c.command_count,
        path_count=c.path_count,
        augmented_from=augmented_from,
    )


def file_id(relpath: Path | str) -> str:
    """Stable record id: relative path, extension stripped, '/' -> '__'."""
    p = Path(relpath)
    return str(p.with_suffix("")).replace("\\", "/").replace("/", "__")


def iter_svg_files(root: Path) -> list[Path]:
    """Relative paths of all .svg files under ``root``, sorted."""
    return sorted(p.relative_to(root) for p in root.rglob("*.svg") if p.is_file())


def _claimed_files(root: Path):
    """The .svg files under ``root`` sorted by record id, and a check that
    raises, naming both paths, for a file whose id an earlier one has
    (``a/b.svg`` and ``a__b.svg`` are both ``a__b``)."""
    files = sorted(iter_svg_files(root), key=file_id)
    owners: dict[str, Path] = {}
    for rel in files:
        owners.setdefault(file_id(rel), rel)

    def claim(rel: Path) -> None:
        first = owners[file_id(rel)]
        if first != rel:
            raise SchemaError(f"{rel.as_posix()} has the record id of {first.as_posix()}")

    return files, claim


def _attempt(fn, item):
    """``(fn(item), None)``, or ``(None, "<Type>: <message>")`` for whatever
    ``fn`` raises, even ``MemoryError``, with the traceback in the debug log."""
    try:
        return fn(item), None
    except Exception as exc:
        log.debug("%.80s failed", item, exc_info=exc)
        return None, f"{type(exc).__name__}: {exc}"


#: Chunks per worker process: enough that a worker with slow items does not
#: hold up the rest for long, few enough to keep each chunk's round trip small.
_CHUNKS_PER_WORKER = 4
#: Items per chunk at most, so a large batch streams its results back in
#: small messages instead of holding a quarter of a worker's share at once.
_MAX_CHUNK = 64

#: ``(fn, items, state)`` of the one :func:`_each` whose worker processes are
#: running; forked workers inherit it, so none of it is pickled. ``state`` is
#: one byte of shared memory per item, where a worker marks the item
#: ``_STARTED`` before it runs it and ``_FINISHED`` after.
_forked_batch = None
_STARTED, _FINISHED = 1, 2


def _attempt_forked(chunk: range) -> list:
    fn, items, state = _forked_batch
    out = []
    for i in chunk:
        state[i] = _STARTED
        out.append(_attempt(fn, items[i]))
        state[i] = _FINISHED
    return out


def _chunks(indices, size: int) -> list[range]:
    """The increasing ``indices`` as runs of consecutive ones, at most ``size`` each."""
    out: list[range] = []
    for i in indices:
        if out and out[-1].stop == i and len(out[-1]) < size:
            out[-1] = range(out[-1].start, i + 1)
        else:
            out.append(range(i, i + 1))
    return out


def _pool_chunks(context, chunks: list[range], workers: int):
    """Run each range of item indices in ``chunks`` as one task on a fresh
    pool of ``workers`` processes started by ``context``, and yield each
    task's results in order until a worker dies; then yield the error text
    and stop. The pool is shut down when the generator ends or is closed."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        yield from pool.map(_attempt_forked, chunks)
    except BrokenProcessPool as exc:
        yield f"{type(exc).__name__}: {exc}"
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _forked_results(context, n: int, workers: int, state):
    """``(i, result)`` of each of ``n`` items run on ``workers`` forked
    processes, in no fixed order.

    When a worker dies, the pool breaks and the results of every task not
    yet returned are lost. The items that a worker had started and not
    finished when it broke (``state``) run again one at a time, in order, on
    one worker, so when it dies the item it was running is the one that
    killed it, and becomes the only error row. The other lost items run
    again on a fresh pool of ``workers``. A pool that breaks while no item
    is running has nothing to blame, and its lost items become error rows.
    """
    size = max(1, min(_MAX_CHUNK, n // (_CHUNKS_PER_WORKER * workers)))
    pending: list[int] = list(range(n))
    while pending:
        chunks = _chunks(pending, size)
        lost: list[int] = []
        with closing(_pool_chunks(context, chunks, workers)) as runs:
            for k, (chunk, results) in enumerate(zip(chunks, runs)):
                if isinstance(results, str):
                    lost, error = [i for c in chunks[k:] for i in c], results
                    break
                yield from zip(chunk, results)
        running = [i for i in lost if state[i] == _STARTED]
        pending = [i for i in lost if state[i] != _STARTED]
        if lost and not running:
            yield from ((i, (None, error)) for i in lost)
            return
        while running:  # one at a time, so the first lost item is the killer
            with closing(_pool_chunks(context, _chunks(running, 1), 1)) as runs:
                for k, results in enumerate(runs):
                    if isinstance(results, str):
                        yield running[k], (None, results)
                        running = running[k + 1:]
                        break
                    yield running[k], results[0]
                else:
                    running = []


def _each(fn, items, jobs: int = 1):
    """Yield :func:`_attempt` of each item of the list ``items``, in order.

    The one per-input failure boundary. With ``jobs`` of 1 or less, a single
    item, or no ``fork`` start method, items run lazily in the calling
    thread, so a caller that stops early stops the work. Otherwise they run
    on ``min(jobs, len(items), os.cpu_count())`` forked worker processes
    (README, "CLI"), which inherit ``fn`` and ``items``, so ``fn`` may be a
    closure; workers can run ahead of the caller, which still receives the
    results in input order. A worker that dies (a signal, an out-of-memory
    kill) costs the item it was running, whose result is ``(None,
    "BrokenProcessPool: ...")``; the other items are rerun
    (:func:`_forked_results`). Every worker is joined when the generator
    ends or is closed, so a caller that may stop early closes it. Not for
    concurrent use from several threads: forking a threaded process is
    unsafe, and the workers' batch is one module global.
    """
    global _forked_batch
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            import mmap

            context = multiprocessing.get_context("fork")
            state = mmap.mmap(-1, len(items))  # anonymous and shared with forked workers
            ready: dict[int, tuple] = {}  # results that came before an earlier item's
            done = 0
            _forked_batch = fn, items, state  # before the first pool forks its workers
            try:
                with closing(_forked_results(context, len(items), workers, state)) as results:
                    for i, result in results:
                        ready[i] = result
                        while done in ready:
                            yield ready.pop(done)
                            done += 1
            finally:
                _forked_batch = None
                state.close()
            return
    for item in items:
        yield _attempt(fn, item)


def _write_json(path: Path, obj: dict, sort_keys: bool = False) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, allow_nan=False) + "\n")


def _no_constant(name: str):
    # json.loads takes NaN and Infinity, which no strict JSON output can echo
    raise ValueError(f"{name} is not a JSON number")


def _read_jsonl(path: Path) -> list[tuple[str, dict]]:
    """Each non-blank row of ``path`` with its ``"<path>:<line>"`` location."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line, parse_constant=_no_constant)
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if not isinstance(row, dict):
                raise SchemaError(f"{path}:{lineno}: row is not an object")
            rows.append((f"{path}:{lineno}", row))
    return rows


def _write_rows(out_path: Path, ids, results) -> tuple[int, int]:
    """Write the rows of each :func:`_each` pair in ``results`` to ``out_path``,
    and an ``{id, error}`` row per failed input to errors.jsonl beside it;
    a run with no failed input removes an errors.jsonl left there by an
    earlier run. Returns the row and error counts. Raises
    :class:`ValidationError` before any step of ``results`` runs when
    ``out_path`` is itself named errors.jsonl, which the sidecar would
    overwrite or remove."""
    out_path = Path(out_path)
    if out_path.name == "errors.jsonl":
        raise ValidationError(f"output {out_path} has the name of the errors.jsonl sidecar")
    rows, errors = [], []
    for rid, (value, error) in zip(ids, results):
        if error is None:
            rows.extend(value)
        else:
            log.warning("failed %s: %s", rid, error)
            errors.append({"id": rid, "error": error})
    _write_jsonl(out_path, rows)
    errors_path = out_path.parent / "errors.jsonl"
    if errors:
        _write_jsonl(errors_path, errors)
    else:
        errors_path.unlink(missing_ok=True)
    return len(rows), len(errors)


# --- normalize ---------------------------------------------------------------


def run_normalize(
    input_dir: Path,
    output_dir: Path,
    strict: bool = False,
    report_path: Path | None = None,
    jobs: int = 1,
) -> int:
    """Normalize every .svg under ``input_dir`` into ``output_dir``.

    Output files keep their relative paths. Failures are logged and
    skipped (exit 1), or abort at the first failure under ``strict``
    (exit 2): no later file is written, and at ``jobs=1`` none is read,
    while worker processes at ``jobs > 1`` may have read and normalized
    later files already. ``output_dir`` is created even when every file
    fails, so ``verify`` can give each an error row.
    """
    input_dir, output_dir = Path(input_dir), Path(output_dir)
    if not input_dir.is_dir():
        log.error("input directory %s does not exist", input_dir)
        return EXIT_USAGE
    files = iter_svg_files(input_dir)

    def work(rel: Path):
        paths, report, _ = normalize_text((input_dir / rel).read_text(encoding="utf-8"))
        return serialize_paths(paths), report

    aggregate = NormalizeReport()
    failures = 0
    with closing(_each(work, files, jobs)) as results:
        for rel, (result, error) in zip(files, results):
            if error is not None:
                failures += 1
                log.warning("failed %s: %s", rel, error)
                if strict:
                    log.error("aborting on first failure (--strict)")
                    return EXIT_USAGE
                continue
            text, report = result
            out_file = output_dir / rel
            out_file.parent.mkdir(parents=True, exist_ok=True)
            out_file.write_text(text, encoding="utf-8", newline="\n")
            aggregate.merge(report)
    output_dir.mkdir(parents=True, exist_ok=True)

    if report_path is not None:
        summary = aggregate.as_dict()
        summary["files_total"] = len(files)
        summary["files_failed"] = failures
        _write_json(report_path, summary, sort_keys=True)
    log.info("normalized %d/%d files", len(files) - failures, len(files))
    return EXIT_PARTIAL if failures else EXIT_OK


# --- classify ----------------------------------------------------------------


def run_classify(input_dir: Path, out_path: Path, jobs: int = 1) -> int:
    """Emit one DatasetRecord per document, sorted by id.

    Each file is classified on its ``(d, fill)`` slices (module
    docstring). Inputs that are not yet normalized are normalized on the fly
    and the record notes it. Per-file errors land in a sidecar errors.jsonl.
    """
    input_dir, out_path = Path(input_dir), Path(out_path)
    if not input_dir.is_dir():
        log.error("input directory %s does not exist", input_dir)
        return EXIT_USAGE
    files, claim = _claimed_files(input_dir)

    def work(rel: Path) -> list[dict]:
        claim(rel)
        paths, _, canonical = normalize_text((input_dir / rel).read_text(encoding="utf-8"))
        row = _slices_record(file_id(rel), paths).to_dict()
        if not canonical:
            row["auto_normalized"] = True
        return [row]

    n_rows, n_errors = _write_rows(out_path, map(file_id, files), _each(work, files))
    log.info("classified %d records, %d errors", n_rows, n_errors)
    return EXIT_PARTIAL if n_errors else EXIT_OK


# --- stats -------------------------------------------------------------------

_RECORD_TYPES = get_type_hints(DatasetRecord)
_REQUIRED_RECORD_FIELDS = {
    f.name: _RECORD_TYPES[f.name] for f in fields(DatasetRecord) if f.default is MISSING
}
# a pair needs each field present; total_reward judges their values
_PAIR_FIELDS = dict.fromkeys(("id", "generated", "reference"), object)


def _check_record(row: dict, where: str, required: dict = _REQUIRED_RECORD_FIELDS) -> None:
    for name, kind in required.items():
        if name not in row:
            raise SchemaError(f"{where}: missing field {name!r}")
        value = row[name]
        # bool is an int subclass; the int fields are counts
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise SchemaError(f"{where}: field {name!r} is not {kind.__name__}")
        if kind is int and value < 0:
            raise SchemaError(f"{where}: field {name!r} is negative")


def _read_records(path: Path) -> list[dict]:
    """The rows of ``path``, each checked as a record; one bad row aborts."""
    rows = _read_jsonl(path)
    for where, row in rows:
        _check_record(row, where)
    return [row for _, row in rows]


def run_stats(records_path: Path, out_path: Path | None = None) -> tuple[int, dict]:
    """Histogram of command counts per color category plus level shares."""
    rows = _read_records(Path(records_path))
    histogram: dict[str, dict[str, int]] = {}
    levels: dict[str, int] = {}
    for row in rows:
        bucket = histogram.setdefault(row["color_category"], {})
        bin_start = (row["command_count"] // 10) * 10
        key = f"{bin_start}-{bin_start + 9}"
        bucket[key] = bucket.get(key, 0) + 1
        levels[row["difficulty_level"]] = levels.get(row["difficulty_level"], 0) + 1

    total = len(rows)
    summary = {
        "records": total,
        "command_histogram": {
            cat: dict(sorted(bins.items(), key=lambda kv: int(kv[0].split("-")[0])))
            for cat, bins in sorted(histogram.items())
        },
        "level_counts": dict(sorted(levels.items())),
        "level_proportions": {
            name: (count / total if total else 0.0)
            for name, count in sorted(levels.items())
        },
    }
    if out_path is not None:
        _write_json(out_path, summary)
    return EXIT_OK, summary


# --- curriculum ----------------------------------------------------------------


def build_curriculum(
    rows: list[dict],
    epochs: tuple[int, ...] = DEFAULT_EPOCHS,
    extra_stage: str | None = None,
) -> dict:
    """Partition records into the fixed easy-to-hard stage order.

    Out-of-range records are excluded and listed. ``extra_stage`` appends
    an empty named stage (an extension point for data this tool does not
    produce); ``epochs`` may carry a fifth value for it. Raises
    :class:`SchemaError` unless there are 4 epoch values (or 5 with
    ``extra_stage``), each at least 1.
    """
    if len(epochs) not in (4, 5):
        raise SchemaError(f"expected 4 or 5 epoch values, got {len(epochs)}")
    if len(epochs) == 5 and extra_stage is None:
        raise SchemaError("a fifth epoch value needs extra_stage")
    if min(epochs) < 1:
        raise SchemaError(f"epochs must be at least 1, got {','.join(map(str, epochs))}")
    by_level: dict[str, list[str]] = {level.value: [] for level in STAGE_ORDER}
    out_of_range: list[str] = []
    for i, row in enumerate(rows, 1):
        _check_record(row, f"record {i}")
        level = row["difficulty_level"]
        if level in by_level:
            by_level[level].append(row["id"])
        else:
            out_of_range.append(row["id"])
    stages = [
        {
            "stage_name": level.value,
            "difficulty_level": level.value,
            "epochs": epochs[i],
            "record_ids": sorted(by_level[level.value]),
        }
        for i, level in enumerate(STAGE_ORDER)
    ]
    if extra_stage is not None:
        stages.append(
            {
                "stage_name": extra_stage,
                "difficulty_level": None,
                "epochs": epochs[4] if len(epochs) == 5 else 3,
                "record_ids": [],
            }
        )
    return {"stages": stages, "out_of_range": sorted(out_of_range)}


def run_curriculum(
    records_path: Path,
    out_path: Path,
    epochs: tuple[int, ...] = DEFAULT_EPOCHS,
    extra_stage: str | None = None,
) -> int:
    manifest = build_curriculum(_read_records(Path(records_path)), epochs, extra_stage)
    _write_json(out_path, manifest)
    log.info(
        "curriculum over %d records (%d out of range)",
        sum(len(s["record_ids"]) for s in manifest["stages"]),
        len(manifest["out_of_range"]),
    )
    return EXIT_OK


# --- score ---------------------------------------------------------------------


def run_score(
    pairs_path: Path,
    out_path: Path,
    params: RewardParams = RewardParams(),
    jobs: int = 1,
) -> int:
    """Score {id, generated, reference} rows; appends the reward breakdown.

    A pair that lacks a field, whose reference fails integrity or whose
    reward is not finite becomes a row in the sidecar errors.jsonl (exit 1).
    Each distinct text, reference or rollout, is counted once per call
    (:func:`~svgforge.rewards.path_count`): ``counts`` keeps its path count
    for the rows after it.
    """
    rows = _read_jsonl(Path(pairs_path))
    counts: dict[str, int | str] = {}

    def work(line: tuple[str, dict]) -> list[dict]:
        where, row = line
        _check_record(row, where, _PAIR_FIELDS)
        r = total_reward(row["generated"], row["reference"], params, counts=counts)
        if not math.isfinite(r.total):
            raise ValidationError(f"reward total {r.total} is not finite")
        return [dict(
            row,
            integrity=r.integrity,
            match=r.match,
            total=r.total,
            n_generated=r.n_generated,
            n_reference=r.n_reference,
        )]

    n_rows, n_errors = _write_rows(out_path, [r.get("id") for _, r in rows], _each(work, rows))
    log.info("scored %d pairs, %d errors", n_rows, n_errors)
    return EXIT_PARTIAL if n_errors else EXIT_OK


# --- augment ---------------------------------------------------------------------


def _variant_seed(master_seed: int, record_id: str, k: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{record_id}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_augment(
    records_path: Path,
    out_path: Path,
    spec: AugmentSpec,
    ops: tuple[str, ...] = AUGMENT_OPS,
) -> int:
    """Emit up to ``n_variants`` augmented records per input record.

    Each variant recolors through a seeded injective map and, when a safe
    adjacent pair exists, swaps it. An op that cannot run is logged and ends
    the variant's ops; a recolor with no flat fill is logged and the variant
    goes on to swap; a variant equal to its source is not written. Each
    record's svg is augmented on its ``(d, fill)`` slices (module
    docstring), so the swap guard judges the boxes of the written numbers. A
    record with a missing or mistyped field, or an svg that fails to parse
    or normalize, becomes a row in the sidecar errors.jsonl (exit 1). Empty
    ``ops``, or a name outside :data:`AUGMENT_OPS`, raises
    :class:`ValidationError` before any file is read.
    """
    unknown = sorted(set(ops) - set(AUGMENT_OPS))
    if unknown or not ops:
        raise ValidationError(f"unknown ops {unknown}" if unknown else "no ops given")
    rows = _read_jsonl(Path(records_path))

    def work(line: tuple[str, dict]) -> list[dict]:
        where, row = line
        _check_record(row, where)
        rid = row["id"]
        source = normalize_text(row["svg"])[0]
        variants = []
        for k in range(spec.n_variants):
            variant_spec = replace(spec, seed=_variant_seed(spec.seed, rid, k))
            variant, notes = source, []
            try:
                if "recolor" in ops:
                    variant = recolor_slices(source, variant_spec)
                    if variant is source:  # returned itself: no flat fill
                        notes.append(NO_FLAT_FILL)
                if "swap" in ops:
                    variant, note = swap_slices(variant, variant_spec.seed + 1,
                                                spec.allow_overlap_swap)
                    if note is not None:
                        notes.append(note)
            except SvgForgeError as exc:
                notes.append(f"{type(exc).__name__}: {exc}")
            for note in notes:
                log.info("augment: %s variant %d: %s", rid, k, note)
            if variant != source:
                record = _slices_record(f"{rid}__aug{k + 1}", variant, augmented_from=rid)
                variants.append(record.to_dict())
        return variants

    n_rows, n_errors = _write_rows(out_path, [r.get("id") for _, r in rows], _each(work, rows))
    log.info("augmented %d records into %d variants, %d errors", len(rows), n_rows, n_errors)
    return EXIT_PARTIAL if n_errors else EXIT_OK


# --- verify ----------------------------------------------------------------------


def run_verify(
    raw_dir: Path,
    normalized_dir: Path,
    tolerance: float = DEFAULT_TOLERANCE,
    out_path: Path | None = None,
    jobs: int = 1,
) -> int:
    """Geometry-check normalized outputs against their raw sources.

    A NORM file must be in normalized form: one whose text is not the
    serialization of its own normalization
    (:func:`~svgforge.normalizer.normalize_text`, the test behind
    classify's ``auto_normalized``) fails as a
    :class:`NotNormalized` error row. The paths of a NORM file reach the
    verifier as the M/L/C columns of its ``d`` slices
    (:func:`~svgforge.verifier.verify_columns`); no command is typed. A
    file whose worst deviation is not finite is a ``FloatingPointError``
    row, as the report is strict JSON. A
    ``tolerance`` that is not finite and positive raises
    :class:`ValidationError` before any file is read.
    Files are checked on up to ``jobs`` worker processes (:func:`_each`);
    the rows keep file order.
    """
    check_tolerance(tolerance)
    raw_dir, normalized_dir = Path(raw_dir), Path(normalized_dir)
    if not raw_dir.is_dir() or not normalized_dir.is_dir():
        log.error("both directories must exist")
        return EXIT_USAGE
    files, claim = _claimed_files(raw_dir)

    def work(rel: Path):
        claim(rel)
        raw_doc, _ = parse_document((raw_dir / rel).read_text(encoding="utf-8"))
        paths, _, canonical = normalize_text((normalized_dir / rel).read_text(encoding="utf-8"))
        if not canonical:
            raise NotNormalized(f"{rel.as_posix()} differs from its normalized form")
        result = verify_columns(raw_doc, canonical_columns(paths), tolerance)
        if not math.isfinite(result.worst):  # a strict JSON report has no NaN or inf
            raise FloatingPointError(f"worst path deviation is {result.worst}, not finite")
        return result

    rows = []
    worst_id, worst_dev = None, -1.0
    failures = errors = 0
    with closing(_each(work, files, jobs)) as results:
        for rel, (result, error) in zip(files, results):
            rid = file_id(rel)
            if error:
                errors += 1
                rows.append({"id": rid, "pass": False, "worst_path_deviation": None,
                             "error": error})
                continue
            rows.append({"id": rid, "pass": result.passed, "worst_path_deviation": result.worst})
            if not result.passed:
                failures += 1
                if result.worst > worst_dev:
                    worst_id, worst_dev = rid, result.worst
    if out_path is not None:
        _write_jsonl(Path(out_path), rows)
    if failures or errors:
        why = [f"worst offender {worst_id} at {worst_dev:.6g}"] if failures else []
        if errors:
            why.append(f"{errors} could not be checked")
        log.error("verification failed for %d/%d files; %s",
                  failures + errors, len(rows), "; ".join(why))
        return EXIT_VERIFY_FAILED
    log.info("verified %d files within tolerance %g", len(rows), tolerance)
    return EXIT_OK
