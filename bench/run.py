"""Benchmark of svgforge's build, verify and score workloads.

    python3 bench/run.py --workload build|verify|score --seed N --seconds S --trace 0|1

Run from the root of a checkout. It measures the ``svgforge`` in that
checkout's ``src/`` and refuses to run (exit 2, no result) when that copy is
missing or another copy would be imported instead.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
reports per-layer metrics from a traced pass plus the tracing overhead.
Every timed sample is reported at a reference machine speed, gauged by
passes of ``yardstick.pace`` just before and after it (see ``yardstick.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy with more
detail goes to ``bench/.work/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from yardstick import Gauge  # the benchmark's own; imports nothing from svgforge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = WORK / "results"

SETUP_PROBES = 9
LIBRARY_PASSES = 2  # timed passes over a shard's library items per round
PACE_EVERY_S = 0.25  # a long library phase is paced within, not only around
IMPORT_PROBES = 5
CHILD_TIMEOUT = 120

PROBE = "import sys\nfrom svgforge.cli import main\nsys.exit(main(sys.argv[1:]))"
WHERE = "import svgforge\nprint(svgforge.__file__)"
IMPORT_PROBE = ("import time\nt = time.perf_counter()\nimport svgforge.cli\n"
                "print(time.perf_counter() - t)")


class Refused(Exception):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # only this checkout's copy, never an inherited path
    return env


def check_resolution() -> None:
    """Refuse unless ``svgforge`` resolves to this checkout's ``src/``."""
    want = (SRC / "svgforge" / "__init__.py").resolve()
    if not want.is_file():
        raise Refused(f"no svgforge source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import svgforge

    if Path(svgforge.__file__).resolve() != want:
        raise Refused(f"svgforge imports from {svgforge.__file__}, not {want}")
    out = subprocess.run([sys.executable, "-c", WHERE], env=child_env(), capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT)
    if out.returncode != 0 or Path(out.stdout.strip()).resolve() != want:
        raise Refused(f"a fresh interpreter imports svgforge from {out.stdout.strip() or out.stderr}")


def provenance() -> dict:
    """The commit measured (when the checkout is a git work tree) and a hash of src/."""
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "python": sys.version.split()[0]}


# --- child processes -------------------------------------------------------------


class Worker:
    """The ``--jobs 1`` child; see ``worker.py``."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        hello = self._read()
        want = (SRC / "svgforge" / "__init__.py").resolve()
        if Path(hello["svgforge"]).resolve() != want:
            raise Refused(f"worker imports svgforge from {hello['svgforge']}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark worker exited unexpectedly")
        return json.loads(line)

    def call(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> int:
        """Stop the child; return its peak RSS in KiB."""
        try:
            return self.call({"exit": True})["maxrss_kb"]
        finally:
            self.kill()

    def kill(self) -> None:
        """Close the pipes (the child exits at end of input) and wait for it."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def timed_probe(argv: list[str]) -> float:
    """Seconds from starting a fresh interpreter to the subcommand's exit."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=child_env(),
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                         timeout=CHILD_TIMEOUT)
    seconds = time.perf_counter() - start
    if out.returncode != 0:
        raise RuntimeError(f"setup probe {argv[0]} exited {out.returncode}: {out.stderr[-500:]}")
    return seconds


def import_probe() -> tuple[float, float]:
    """(ms to import svgforge.cli, ms of that spent importing numpy) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], env=child_env(),
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if out.returncode != 0:
        raise RuntimeError(f"import probe failed: {out.stderr[-500:]}")
    numpy_us = 0
    for line in out.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            numpy_us = int(fields[1])
    return 1000.0 * float(out.stdout.strip()), numpy_us / 1000.0


# --- measurement -------------------------------------------------------------------


def per_shard_rate(items: list[int], times: dict[int, list[float]]) -> float:
    """Items over the sum of each shard's median round time: one pass over all
    shards, each timed by its median so that a slow moment counts once."""
    return sum(items) / sum(statistics.median(times[k]) for k in range(len(items)))


def unit_of(layer_metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_ratio", "ratio"), ("_bytes", "B")):
        if layer_metric.endswith(suffix):
            return unit
    return "count"


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it (11th largest)."""
    return sorted(values)[len(values) - 11]


class Run:
    def __init__(self, wl, seconds: int) -> None:
        self.wl = wl
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def note(self, exc: Exception) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def accept(self, k: int, out: Path, codes: list[int]) -> None:
        """Count a CLI round's items and check its outputs."""
        from oracle import CheckFailed

        n = self.wl.shard_items(k)
        self.attempted += n
        if any(c != 0 for c in codes):
            self.note(RuntimeError(f"shard {k}: exit codes {codes}"))
        try:
            self.failed += self.wl.accept(k, out)
        except (CheckFailed, KeyError, ValueError) as exc:
            self.note(exc)

    def run_local(self, k: int, out: Path, jobs: int) -> tuple[float, list[int]]:
        """One CLI round in this process."""
        from svgforge.cli import main

        flow = self.wl.flow(k, out, jobs)
        start = time.perf_counter()
        codes = [main(argv) for argv in flow]
        return time.perf_counter() - start, codes

    def library(self, k: int, passes: int, gauge: Gauge) -> list[tuple[tuple[int, int], float, float]]:
        """Time each library item of shard ``k`` once per pass, pacing ``gauge``
        at least every ``PACE_EVERY_S``; return (item, when, seconds) triples."""
        from oracle import CheckFailed

        samples: list[tuple[tuple[int, int], float, float]] = []
        gauge.take()
        paced = time.perf_counter()
        for i, item in [(i, item) for _ in range(passes) for i, item in enumerate(self.wl.lib_items(k))]:
            ops = self.wl.lib_ops(item)
            self.attempted += ops
            start = time.perf_counter()
            try:
                result = self.wl.lib_run(item)
            except Exception as exc:  # a library failure is a failed item, not a crash
                self.failed += ops
                self.note(exc)
                continue
            end = time.perf_counter()
            samples.append(((k, i), (start + end) / 2, end - start))
            try:
                self.wl.lib_check(k, item, result)
            except (CheckFailed, KeyError) as exc:
                self.note(exc)
            if end - paced >= PACE_EVERY_S:
                gauge.take()
                paced = time.perf_counter()
        gauge.take()
        return samples

    def untraced(self) -> dict:
        from workloads import reset

        wl, work = self.wl, self.wl.work
        n = len(wl.shards)
        gauge = Gauge()
        # raw samples with the time they were taken around, and the thread count
        # of the paces that gauge them
        rounds: list[tuple[str, int, float, float, int]] = []  # kind, shard, when, seconds, threads
        lib: list[tuple[tuple[int, int], float, float]] = []  # item, when, seconds
        probes: list[tuple[float, float]] = []  # when, seconds
        probe_argv = wl.probe_argv(work / "probe")
        timed_probe(probe_argv)  # warm the file cache and any bytecode cache

        def probe() -> None:
            gauge.take()
            start = time.perf_counter()
            seconds = timed_probe(probe_argv)
            probes.append((start + seconds / 2, seconds))
            gauge.take()

        worker = Worker()

        def one_round(k: int, timed: bool) -> None:
            out = reset(work / "out" / "j1")
            sent = time.perf_counter()
            reply = worker.call({"flow": wl.flow(k, out, 1)})
            received = time.perf_counter()
            self.accept(k, out, reply["codes"])
            out = reset(work / "out" / "j2")
            gauge.take(2)  # two on each side: there are no other two-thread paces nearby
            gauge.take(2)
            seconds, codes = self.run_local(k, out, 2)
            ended = time.perf_counter()
            gauge.take(2)
            gauge.take(2)
            self.accept(k, out, codes)
            items = self.library(k, LIBRARY_PASSES if timed else 1, gauge)
            if timed:
                before, after = reply["paces"]
                gauge.add(sent, before)
                gauge.add(received, after)
                rounds.append(("j1", k, (sent + received) / 2, reply["seconds"], 1))
                rounds.append(("j2", k, ended - seconds / 2, seconds, 2))
                lib.extend(items)

        try:
            one_round(0, timed=False)  # later rounds do not pay one-time costs
            start = time.perf_counter()
            r = 0
            while r < n or time.perf_counter() < start + self.seconds:
                one_round(r % n, timed=True)
                # set-up probes are spread over the run, like the other samples
                due = start + len(probes) * self.seconds / SETUP_PROBES
                if len(probes) < SETUP_PROBES and time.perf_counter() >= due:
                    probe()
                r += 1
            while len(probes) < SETUP_PROBES:
                probe()
            maxrss_kb = worker.close()
        finally:
            worker.kill()

        items = [wl.shard_items(k) for k in range(n)]

        def summary(factor) -> dict[str, float]:
            """The metrics, with each sample multiplied by ``factor(when, threads)``."""
            times: dict[str, dict[int, list[float]]] = {"j1": {}, "j2": {}}
            for kind, k, when, seconds, threads in rounds:
                times[kind].setdefault(k, []).append(seconds * factor(when, threads))
            per_item: dict[tuple[int, int], list[float]] = {}
            for key, when, seconds in lib:
                per_item.setdefault(key, []).append(seconds * factor(when, 1))
            item_ms = [1000.0 * statistics.median(v) for v in per_item.values()]
            return {
                "setup_s": statistics.median(s * factor(when, 1) for when, s in probes),
                "items_per_s": per_shard_rate(items, times["j1"]),
                "items_per_s_j2": per_shard_rate(items, times["j2"]),
                "item_p50_ms": statistics.median(item_ms),
                "item_tail_ms": tail(item_ms),
            }

        library_items = len({key for key, _, _ in lib})
        self.detail = {"rounds": r, "library_items": library_items, "library_samples": len(lib),
                       "tail_percentile": round(100.0 * (library_items - 10) / library_items, 2),
                       "as_measured": summary(lambda when, threads: 1.0),
                       "pace_median_s": gauge.medians(), "paces_s": gauge.paces,
                       "rounds_s": rounds, "setup_samples_s": probes}
        units = {"setup_s": "s", "items_per_s": "items/s", "items_per_s_j2": "items/s",
                 "item_p50_ms": "ms", "item_tail_ms": "ms"}
        metrics = {name: (value, units[name]) for name, value in summary(gauge.factor).items()}
        metrics["peak_rss_mb"] = (maxrss_kb / 1024.0, "MB")
        return metrics

    def traced(self) -> dict:
        from spans import Tracer, layer_metrics
        from workloads import read_tree, reset

        wl, work = self.wl, self.wl.work
        n = len(wl.shards)
        imports = [import_probe() for _ in range(IMPORT_PROBES)]

        # one traced pass over every shard: counts repeat exactly for a seed
        tracer = Tracer()
        written = 0
        for k in range(n):
            out = reset(work / "out" / "traced")
            tracer.install()
            try:
                _, codes = self.run_local(k, out, 1)
            finally:
                tracer.uninstall()
            written += sum(len(b) for b in read_tree(out).values())
            self.accept(k, out, codes)
        metrics = {name: (value, unit_of(name)) for name, value in layer_metrics(tracer).items()}
        metrics["pipeline.bytes_written"] = (written, "B")
        metrics["cli.import_ms"] = (statistics.median(i for i, _ in imports), "ms")
        metrics["cli.numpy_import_ms"] = (statistics.median(m for _, m in imports), "ms")
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.dump(RESULTS / f"spans-{wl.name}-seed{wl.seed}.jsonl")
        spans = len(tracer.spans)

        # then traced and untraced rounds in alternating order give the overhead
        times: dict[bool, dict[int, list[float]]] = {True: {}, False: {}}
        deadline = time.perf_counter() + self.seconds
        r = 0
        while r < n or time.perf_counter() < deadline:
            k = r % n
            for on in ((True, False) if r % 2 == 0 else (False, True)):
                out = reset(work / "out" / "overhead")
                round_tracer = Tracer()
                if on:
                    round_tracer.install()
                try:
                    seconds, codes = self.run_local(k, out, 1)
                finally:
                    round_tracer.uninstall()
                times[on].setdefault(k, []).append(seconds)
                self.accept(k, out, codes)
            r += 1
        items = [wl.shard_items(k) for k in range(n)]
        traced_rate = per_shard_rate(items, times[True])
        plain_rate = per_shard_rate(items, times[False])
        metrics["trace.items_per_s_traced"] = (traced_rate, "items/s")
        metrics["trace.items_per_s_untraced"] = (plain_rate, "items/s")
        metrics["trace.overhead_pct"] = (100.0 * (plain_rate - traced_rate) / plain_rate, "%")
        self.detail = {"spans": spans, "overhead_rounds": r}
        return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        check_resolution()
    except (Refused, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: refusing to run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from oracle import CheckFailed
    from workloads import WORKLOADS, reset

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    source = provenance()
    print(f"bench: measuring svgforge from {SRC} (commit {source['commit'] or 'unknown'}, "
          f"src sha256 {source['src_sha256'][:16]})", file=sys.stderr)

    work = reset(WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, work)
    run = Run(wl, args.seconds)
    try:
        try:
            wl.prepare()
        except CheckFailed as exc:
            run.note(exc)
        metrics = run.traced() if args.trace else run.untraced()
    except Refused as exc:
        print(f"bench: refusing to run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, errors=run.errors, detail=run.detail, **source)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
    for err in run.errors:
        print(f"bench: check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
