"""Option resolution, bad option values and input-line locations, through ``cli.main``."""

import inspect
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import svgforge
from svgforge import pipeline
from svgforge.cli import main
from svgforge.normalizer import normalize_document
from svgforge.parser import parse_document, serialize_document
from svgforge.pipeline import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, EXIT_VERIFY_FAILED
from svgforge.rewards import MatchSemantics

VALID = '<svg viewBox="0 0 1024 1024"><path d="M0 0L10 10" fill="#ff0000"/></svg>'
RECORD = {
    "id": "a", "svg": VALID, "color_category": "Monochrome",
    "difficulty_level": "Monocolor_easy", "command_count": 2, "path_count": 1,
}

#: The library entry points, kept before any test replaces them.
RUNS = {name: getattr(pipeline, name) for name in (
    "run_normalize", "run_classify", "run_curriculum", "run_score", "run_augment", "run_verify",
)}

NORMALIZE = ["normalize", "in", "out"]
CURRICULUM = ["curriculum", "records.jsonl", "--out", "manifest.json"]
SCORE = ["score", "pairs.jsonl", "--out", "scored.jsonl"]
AUGMENT = ["augment", "records.jsonl", "--out", "aug.jsonl"]
VERIFY = ["verify", "raw", "norm"]
PROSE, LITERAL = MatchSemantics.PROSE_CONSISTENT, MatchSemantics.LITERAL_FORMULA


def _palette(seen):
    palette = seen["spec"].palette
    return palette and tuple(color.css for color in palette)


# (argv, flag, flag text or None for a switch, env text, config text,
#  what the library received, expected from flag / env / config / no layer)
LAYERED = [
    (NORMALIZE, "--strict", None, "no", "yes", lambda s: s["strict"], (True, False, True, False)),
    (NORMALIZE, "--report", "f.json", "e.json", "c.json", lambda s: s["report_path"],
     (Path("f.json"), Path("e.json"), Path("c.json"), None)),
    (NORMALIZE, "--jobs", "2", "3", "4", lambda s: s["jobs"], (2, 3, 4, 1)),
    (["classify", "in", "--out", "r.jsonl"], "--quiet", None, "0", "true", lambda s: s["quiet"],
     (True, False, True, False)),
    (CURRICULUM, "--epochs", "2,2,2,2", "3,3,3,3", "4,4,4,4,5", lambda s: s["epochs"],
     ((2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4, 5), (1, 1, 3, 3))),
    (CURRICULUM, "--extra-stage", "f", "e", "c", lambda s: s["extra_stage"],
     ("f", "e", "c", None)),
    (SCORE, "--alpha", "2", "3", "4", lambda s: s["params"].alpha, (2.0, 3.0, 4.0, 1.0)),
    (SCORE, "--beta", "2", "3", "4", lambda s: s["params"].beta, (2.0, 3.0, 4.0, 1.0)),
    (SCORE, "--gamma", "2", "3", "4", lambda s: s["params"].gamma, (2.0, 3.0, 4.0, 1.0)),
    (SCORE, "--semantics", "literal", "prose", "literal", lambda s: s["params"].match_semantics,
     (LITERAL, PROSE, LITERAL, PROSE)),
    (AUGMENT, "--seed", "5", "6", "7", lambda s: s["spec"].seed, (5, 6, 7, 0)),
    (AUGMENT, "--variants", "2", "3", "4", lambda s: s["spec"].n_variants, (2, 3, 4, 1)),
    (AUGMENT, "--palette", "#111111,#222222", "#333333,#444444", "#555555,#666666", _palette,
     (("#111111", "#222222"), ("#333333", "#444444"), ("#555555", "#666666"), None)),
    (AUGMENT, "--ops", "swap", "recolor", " swap , recolor", lambda s: s["ops"],
     (("swap",), ("recolor",), ("swap", "recolor"), ("recolor", "swap"))),
    (AUGMENT, "--allow-overlap-swap", None, "no", "1", lambda s: s["spec"].allow_overlap_swap,
     (True, False, True, False)),
    (VERIFY, "--tolerance", "0.25", "0.125", "2", lambda s: s["tolerance"],
     (0.25, 0.125, 2.0, 0.5)),
]


class TestLayeredOptions:
    """Each optional flag but --config and --out: flag > SVGFORGE_<NAME> >
    config key > library default, with the same conversion from every layer."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """What the library receives on each ``main`` call, defaults applied."""
        seen = {}

        def recorder(fn):
            def record(*args, **kwargs):
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                seen.update(bound.arguments)
                return EXIT_OK
            return record

        for name, fn in RUNS.items():
            monkeypatch.setattr(pipeline, name, recorder(fn))
        monkeypatch.setattr(
            logging, "basicConfig", lambda **kw: seen.update(quiet=kw["level"] == logging.WARNING)
        )
        return seen

    @pytest.mark.parametrize(
        "argv, flag, flag_text, env_text, config_text, read, expected", LAYERED,
        ids=[case[1] for case in LAYERED],
    )
    def test_flag_env_config_default(self, tmp_path, monkeypatch, seen, argv, flag, flag_text,
                                     env_text, config_text, read, expected):
        name = flag[2:].replace("-", "_")
        config = tmp_path / "cfg"
        config.write_text(f"{name} = {config_text}\n")
        with_config = argv + ["--config", str(config)]
        got = []

        def resolve(argv):
            seen.clear()
            assert main(argv) == EXIT_OK
            got.append(read(seen))

        monkeypatch.setenv("SVGFORGE_" + name.upper(), env_text)
        resolve(with_config + ([flag] if flag_text is None else [flag, flag_text]))
        resolve(with_config)
        monkeypatch.delenv("SVGFORGE_" + name.upper())
        resolve(with_config)
        resolve(argv)
        assert got == list(expected)

    @pytest.mark.parametrize("layer", ["flag", "env", "config"])
    def test_value_that_does_not_convert_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                        layer):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(RECORD) + "\n")
        argv = ["stats", str(records), "--out", str(tmp_path / "stats.json")]
        if layer == "flag":
            argv += ["--jobs", "x"]
        elif layer == "env":
            monkeypatch.setenv("SVGFORGE_JOBS", "x")
        else:
            (tmp_path / "cfg").write_text("jobs = x\n")
            argv += ["--config", str(tmp_path / "cfg")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("svgforge: ") and "jobs" in err.lower()
        assert "Traceback" not in err
        assert not (tmp_path / "stats.json").exists()

    @pytest.mark.parametrize("text", ["0", "-3"])
    @pytest.mark.parametrize("layer", ["flag", "env", "config"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, monkeypatch, capsys, layer, text):
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "a.svg").write_text(VALID)
        argv = ["normalize", str(tmp_path / "in"), str(tmp_path / "out")]
        if layer == "flag":
            argv += ["--jobs", text]
            where = "--jobs"
        elif layer == "env":
            monkeypatch.setenv("SVGFORGE_JOBS", text)
            where = "SVGFORGE_JOBS"
        else:
            (tmp_path / "cfg").write_text(f"jobs = {text}\n")
            argv += ["--config", str(tmp_path / "cfg")]
            where = f"{tmp_path / 'cfg'}: jobs"
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"svgforge: {where}: must be at least 1, got {text}\n"
        assert not (tmp_path / "out").exists()


class TestVerifyTolerance:
    @pytest.mark.parametrize("tolerance", ["nan", "0", "inf"])
    def test_not_finite_and_positive_is_usage_error(self, tmp_path, capsys, tolerance):
        raw, norm = tmp_path / "raw", tmp_path / "norm"
        raw.mkdir(), norm.mkdir()
        (raw / "a.svg").write_text(VALID)
        # the normalized copy is displaced 300 units: no tolerance that means anything passes it
        (norm / "a.svg").write_text(VALID.replace("M0 0L10 10", "M300 300L310 310"))
        report = tmp_path / "report.jsonl"
        argv = ["verify", str(raw), str(norm), "--tolerance", tolerance, "--out", str(report)]
        assert main(argv) == EXIT_USAGE
        assert "tolerance" in capsys.readouterr().err
        assert not report.exists()


@pytest.mark.parametrize("epochs", ["0,-2,3,3", "1,1,3,3,9"])
def test_bad_curriculum_epochs_are_usage_errors(tmp_path, capsys, epochs):
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(RECORD) + "\n")
    manifest = tmp_path / "manifest.json"
    argv = ["curriculum", str(records), "--out", str(manifest), "--epochs", epochs]
    assert main(argv) == EXIT_USAGE
    assert "epoch" in capsys.readouterr().err
    assert not manifest.exists()


class TestInputLines:
    """Schema errors name ``<file>:<line>``, counting blank lines."""

    def test_two_pairs_without_id_are_two_distinct_rows(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pair = json.dumps({"generated": VALID, "reference": VALID})
        good = json.dumps({"id": "good", "generated": VALID, "reference": VALID})
        pairs.write_text(f"{pair}\n\n{pair}\n{good}\n")
        out = tmp_path / "scored.jsonl"
        assert main(["score", str(pairs), "--out", str(out), "--quiet"]) == EXIT_PARTIAL
        assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["good"]
        errors = (tmp_path / "errors.jsonl").read_text().splitlines()
        assert [json.loads(e)["error"] for e in errors] == [
            f"SchemaError: {pairs}:{n}: missing field 'id'" for n in (1, 3)
        ]

    def test_stats_names_the_file_line(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        bad = dict(RECORD)
        del bad["command_count"]
        records.write_text("\n" + json.dumps(bad) + "\n")
        assert main(["stats", str(records), "--quiet"]) == EXIT_USAGE
        assert f"{records}:2: missing field 'command_count'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("command_count", -5, "field 'command_count' is negative"),
        ("path_count", -1, "field 'path_count' is negative"),
        ("command_count", True, "field 'command_count' is not int"),
    ], ids=["negative_command_count", "negative_path_count", "bool_command_count"])
    def test_stats_rejects_a_bad_count(self, tmp_path, capsys, field, value, message):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(RECORD) + "\n" + json.dumps(dict(RECORD, **{field: value})))
        assert main(["stats", str(records), "--quiet"]) == EXIT_USAGE
        assert f"svgforge: {records}:2: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_score_rejects_a_json_constant_before_writing(self, tmp_path, capsys, constant):
        pairs = tmp_path / "pairs.jsonl"
        rows = [json.dumps({"id": rid, "generated": VALID, "reference": VALID}) for rid in "abc"]
        rows[1] = rows[1][:-1] + f', "temp": {constant}}}'
        pairs.write_text("\n".join(rows) + "\n")
        out = tmp_path / "scored.jsonl"
        assert main(["score", str(pairs), "--out", str(out), "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"svgforge: {pairs}:2: not valid JSON: {constant}"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.jsonl"]


def test_stats_with_empty_out_prints_the_summary(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(RECORD) + "\n")
    assert main(["stats", str(records), "--out", "", "--quiet"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["records"] == 1


def test_a_non_finite_deviation_is_an_error_row(tmp_path):
    # the canvas scales by about 1e153, so the long path's samples overflow and
    # its deviation is NaN, after or before the drawable that verifies
    short, long = '<path d="M0 0L1e-150 0"/>', '<path d="M0 0L1e160 0L0 1e-150Z"/>'
    norm_short = '<path d="M0 0L1024 0" fill="#000000"/>'
    norm_long = '<path d="M0 0L1 0L0 1024" fill="#000000"/>'
    raw, norm = tmp_path / "raw", tmp_path / "norm"
    raw.mkdir()
    norm.mkdir()
    for name, raw_body, norm_body in (("a", short + long, norm_short + norm_long),
                                      ("b", long + short, norm_long + norm_short)):
        (raw / f"{name}.svg").write_text(f'<svg viewBox="0 0 1e-150 1e-150">{raw_body}</svg>')
        (norm / f"{name}.svg").write_text('<svg xmlns="http://www.w3.org/2000/svg" '
                                          f'viewBox="0 0 1024 1024">{norm_body}</svg>')
    (raw / "c.svg").write_text(VALID)
    (norm / "c.svg").write_text(serialize_document(normalize_document(parse_document(VALID)[0])[0]))
    out = tmp_path / "report.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["verify", str(raw), str(norm), "--out", str(out), "--quiet"])
    assert code == EXIT_VERIFY_FAILED
    rows = [json.loads(line, parse_constant=pytest.fail) for line in out.read_text().splitlines()]
    error = "FloatingPointError: worst path deviation is nan, not finite"
    assert rows[:2] == [
        {"id": "a", "pass": False, "worst_path_deviation": None, "error": error},
        {"id": "b", "pass": False, "worst_path_deviation": None, "error": error},
    ]
    assert len(rows) == 3 and rows[2]["id"] == "c" and rows[2]["pass"] is True


@pytest.mark.parametrize("command", ["classify", "score", "augment"])
def test_out_named_like_the_errors_sidecar_is_usage_error(tmp_path, capsys, monkeypatch, command):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.svg").write_text(VALID)
    pairs, records = tmp_path / "pairs.jsonl", tmp_path / "records.jsonl"
    pairs.write_text(json.dumps({"id": "p", "generated": VALID, "reference": VALID}) + "\n")
    records.write_text(json.dumps(RECORD) + "\n")
    ran = []
    each = pipeline._each
    monkeypatch.setattr(pipeline, "_each", lambda fn, items: each(
        lambda item: ran.append(item) or fn(item), items))
    out = tmp_path / "d" / "errors.jsonl"
    source = {"classify": raw, "score": pairs, "augment": records}[command]
    assert main([command, str(source), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"svgforge: output {out} has the name of the errors.jsonl sidecar" in err
    assert ran == [] and not out.parent.exists()


# Runs in a fresh interpreter: build and score must not load numpy, and the
# verifier names must still be served, loading it, once something verifies.
_NUMPY_PROBE = """
import json, sys
from pathlib import Path
import svgforge.cli
from svgforge.cli import main
d = Path(sys.argv[1])
codes = [
    main(["normalize", str(d / "raw"), str(d / "norm"), "--quiet"]),
    main(["classify", str(d / "norm"), "--out", str(d / "rec.jsonl"), "--quiet"]),
    main(["score", str(d / "pairs.jsonl"), "--out", str(d / "scored.jsonl"), "--quiet"]),
]
unverified = "numpy" in sys.modules
import svgforge
from svgforge import verify_normalization
served = [name for name in svgforge.__all__ if getattr(svgforge, name) is not None]
codes.append(main(["verify", str(d / "raw"), str(d / "norm"), "--quiet"]))
print(json.dumps({"codes": codes, "unverified": unverified, "served": served,
                  "verified": "numpy" in sys.modules}))
"""


def test_numpy_loads_only_to_verify(tmp_path):
    (tmp_path / "raw").mkdir()
    (tmp_path / "raw" / "a.svg").write_text(
        '<svg viewBox="0 0 24 24"><circle cx="12" cy="12" r="9" fill="#f00"/></svg>')
    (tmp_path / "pairs.jsonl").write_text(json.dumps(
        {"id": "p", "generated": "<svg", "reference": VALID}) + "\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(tmp_path)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [EXIT_OK] * 4, "unverified": False, "served": svgforge.__all__, "verified": True,
    }
