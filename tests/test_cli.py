"""End-to-end command line behavior, driven in-process through main()."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from probeforge.cli import SEED_ENV, main
from probeforge.runner import parse_results_file

SYNTH_SPEC = {
    "n_chips": 200, "dim": 8, "noise_sigma": 0.3,
    "weight_seed": 51, "data_seed": 52, "n_aois": 2,
    "fm_ids": ["tiny-s1"],
}

GRID = {
    "fms": ["tiny-s1"], "classes": ["tree-cover"], "samplers": ["random"],
    "target_aois": ["aoi-00"], "n_train_target": [40], "n_test_target": [20],
    "regimes": ["target-split"], "repetitions": 3, "base_seed": 5,
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_SPEC))
    (tmp_path / "grid.json").write_text(json.dumps(GRID))
    return tmp_path


def synth(workdir):
    code = main(["synth", "--spec", str(workdir / "synth.json"),
                 "--out-dir", str(workdir / "data")])
    assert code == 0


def run(workdir, *extra):
    return main(["run", "--grid", str(workdir / "grid.json"),
                 "--data-dir", str(workdir / "data"),
                 "--out", str(workdir / "results.csv"), *extra])


def test_synth_run_select_pipeline(workdir, capsys):
    synth(workdir)
    assert (workdir / "data" / "chips.jsonl").exists()
    assert (workdir / "data" / "embeddings" / "tiny-s1.emb").exists()

    assert run(workdir) == 0
    records = parse_results_file(workdir / "results.csv")
    assert len(records) == 1
    assert np.isfinite(records[0].r_mean)

    capsys.readouterr()
    code = main(["report-select", "--results", str(workdir / "results.csv"),
                 "--r-min", "0.1", "--std-max", "0.9", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("target_aoi")
    assert "tiny-s1" in out


def test_report_out_writes_file(workdir, capsys):
    synth(workdir)
    assert run(workdir) == 0
    dest = workdir / "select.csv"
    code = main(["report-select", "--results", str(workdir / "results.csv"),
                 "--out", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text().startswith("target_aoi,class,status")


def test_scatter_subcommand(workdir, capsys):
    synth(workdir)
    assert run(workdir) == 0
    code = main(["report-scatter", "--results", str(workdir / "results.csv"),
                 "--fm", "tiny-s1", "--class", "tree-cover"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("tiny-s1,tree-cover,target-split,aoi-00,random,40,20")


def test_run_missing_grid_file_exits_2(workdir, capsys):
    code = main(["run", "--grid", str(workdir / "nope.json"),
                 "--data-dir", str(workdir / "data"),
                 "--out", str(workdir / "r.csv")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_run_resume_is_a_noop_when_complete(workdir, caplog):
    synth(workdir)
    assert run(workdir) == 0
    before = (workdir / "results.csv").read_bytes()
    with caplog.at_level("INFO", logger="probeforge.runner"):
        assert run(workdir, "--resume") == 0
    assert "all specs present; nothing to run" in caplog.text
    assert (workdir / "results.csv").read_bytes() == before


def test_run_resume_recovers_torn_final_row(workdir, caplog):
    synth(workdir)
    assert run(workdir) == 0
    path = workdir / "results.csv"
    full = path.read_bytes()
    path.write_bytes(full[:-10])  # cut in the middle of the last row
    with caplog.at_level("WARNING", logger="probeforge.runner"):
        assert run(workdir, "--resume") == 0
    assert "torn final line" in caplog.text
    assert path.read_bytes() == full


@pytest.mark.parametrize("left", [b"", b"fm_id,class,regime,tr"],
                         ids=["empty", "torn-header"])
def test_run_resume_starts_over_on_empty_or_torn_header(workdir, left):
    synth(workdir)
    assert run(workdir) == 0
    path = workdir / "results.csv"
    fresh = path.read_bytes()
    path.write_bytes(left)  # a crash before the header line was complete
    assert run(workdir, "--resume") == 0
    assert path.read_bytes() == fresh


def _resume_after_keeping_two_rows(workdir, data_b_seed=None, edit_r_mean=None):
    """Run a 4-spec grid, keep the header and 2 rows, resume (optionally on other data)."""
    grid = {**GRID, "classes": ["tree-cover", "builtup"],
            "target_aois": ["aoi-00", "aoi-01"]}
    (workdir / "grid.json").write_text(json.dumps(grid))
    synth(workdir)
    assert run(workdir) == 0
    path = workdir / "results.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    kept = rows[:2]
    if edit_r_mean is not None:
        fields = kept[0].split(",")
        fields[9] = edit_r_mean
        kept[0] = ",".join(fields)
    path.write_text(header + "".join(kept))
    before = path.read_bytes()
    data = "data"
    if data_b_seed is not None:
        (workdir / "synth-b.json").write_text(
            json.dumps({**SYNTH_SPEC, "data_seed": data_b_seed}))
        assert main(["synth", "--spec", str(workdir / "synth-b.json"),
                     "--out-dir", str(workdir / "data-b")]) == 0
        data = "data-b"
    code = main(["run", "--grid", str(workdir / "grid.json"),
                 "--data-dir", str(workdir / data), "--out", str(path), "--resume"])
    return code, before, path.read_bytes()


@pytest.mark.parametrize("change", [{"data_b_seed": 53}, {"edit_r_mean": "0.5"}],
                         ids=["other-data", "edited-r-mean"])
def test_run_resume_refuses_rows_it_cannot_reproduce(workdir, capsys, change):
    code, before, after = _resume_after_keeping_two_rows(workdir, **change)
    assert code == 2
    err = capsys.readouterr().err
    assert "results.csv: line 2" in err and "without --resume" in err
    assert after == before  # the check streams no row


def test_run_resume_keeps_rows_it_reproduces(workdir):
    code, before, after = _resume_after_keeping_two_rows(workdir)
    assert code == 0
    assert after.startswith(before)


def test_run_zero_width_embeddings_exits_2(workdir):
    synth(workdir)
    emb = workdir / "data" / "embeddings" / "tiny-s1.emb"
    emb.write_bytes(b"EMB1" + struct.pack("<IQ", 0, SYNTH_SPEC["n_chips"]))
    assert run(workdir) == 2
    assert not (workdir / "results.csv").exists()


@pytest.mark.parametrize("grid", [
    {"regimes": ["external"], "external_aois": ["aoi-00"], "target_aois": ["aoi-01"],
     "n_train_external": [40]},
    {"target_aois": ["aoi-01"]},
], ids=["external", "target-split"])
def test_run_refuses_out_of_range_fractions(workdir, capsys, grid):
    synth(workdir)
    chips_path = workdir / "data" / "chips.jsonl"
    chips = [json.loads(line) for line in chips_path.read_text().splitlines()]
    for chip in chips:
        if chip["aoi"] == "aoi-01":
            chip["fractions"]["tree-cover"] = float("nan")
    chips_path.write_text("".join(json.dumps(c) + "\n" for c in chips))
    first_bad = next(c["chip_id"] for c in chips if c["aoi"] == "aoi-01")
    (workdir / "grid.json").write_text(json.dumps({**GRID, **grid}))
    assert run(workdir) == 2
    err = capsys.readouterr().err
    assert "chips.jsonl" in err and repr(first_bad) in err
    assert "fraction out of range" in err
    assert not (workdir / "results.csv").exists()


def _poison_row(emb_path, row):
    """Overwrite the first value of ``row`` in an .emb file with NaN."""
    blob = bytearray(emb_path.read_bytes())
    dim = struct.unpack("<I", blob[4:8])[0]
    blob[16 + 4 * dim * row:20 + 4 * dim * row] = struct.pack("<f", float("nan"))
    emb_path.write_bytes(bytes(blob))


@pytest.mark.parametrize("where, expect", [
    ("unread-aoi", ["tiny-s1.emb", "non-finite values, first offending row 1"]),
    ("unread-model", ["other-s2.emb", "non-finite values, first offending row 5"]),
    ("unread-model-truncated", ["other-s2.emb", "header implies"]),
], ids=["unread-aoi", "unread-model", "unread-model-truncated"])
def test_run_refuses_bad_embeddings_the_grid_does_not_read(workdir, capsys, where, expect):
    # The grid reads tiny-s1 on aoi-00 only; chip 1 lies in aoi-01.
    synth(workdir)
    emb_dir = workdir / "data" / "embeddings"
    if where == "unread-aoi":
        _poison_row(emb_dir / "tiny-s1.emb", 1)
    else:
        (emb_dir / "other-s2.idx").write_bytes((emb_dir / "tiny-s1.idx").read_bytes())
        blob = (emb_dir / "tiny-s1.emb").read_bytes()
        (emb_dir / "other-s2.emb").write_bytes(blob[:-4] if where.endswith("truncated") else blob)
        if where == "unread-model":
            _poison_row(emb_dir / "other-s2.emb", 5)
    assert run(workdir) == 2
    err = capsys.readouterr().err
    assert all(part in err for part in expect), err
    assert not (workdir / "results.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--r-min", "2"], "r_min must be finite in (-1, 1), got 2.0"),
    (["--r-min", "nan"], "r_min must be finite in (-1, 1), got nan"),
    (["--std-max", "0"], "std_max must be finite and positive, got 0.0"),
], ids=["r-min-2", "r-min-nan", "std-max-0"])
def test_report_select_bad_threshold_exits_1(workdir, capsys, flags, message):
    synth(workdir)
    assert run(workdir) == 0
    capsys.readouterr()
    code = main(["report-select", "--results", str(workdir / "results.csv"), *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_unknown_grid_aoi_exits_2(workdir, capsys):
    synth(workdir)
    (workdir / "grid.json").write_text(json.dumps({**GRID, "target_aois": ["aoi-9"]}))
    assert run(workdir) == 2
    assert "aoi-9" in capsys.readouterr().err
    assert not (workdir / "results.csv").exists()


def test_seed_env_overrides_base_seed(workdir, monkeypatch):
    synth(workdir)
    monkeypatch.setenv(SEED_ENV, "99")
    assert run(workdir) == 0
    records = parse_results_file(workdir / "results.csv")
    assert all(r.spec.base_seed == 99 for r in records)


def test_seed_env_rejects_garbage(workdir, monkeypatch, capsys):
    synth(workdir)
    monkeypatch.setenv(SEED_ENV, "banana")
    assert run(workdir) == 1
    assert SEED_ENV in capsys.readouterr().err
    monkeypatch.setenv(SEED_ENV, str(2**64))
    assert run(workdir) == 1
    assert "64 bits" in capsys.readouterr().err


def test_validate_clean_dataset(workdir, capsys):
    synth(workdir)
    code = main(["validate",
                 "--chips", str(workdir / "data" / "chips.jsonl"),
                 "--emb", str(workdir / "data" / "embeddings" / "tiny-s1.emb"),
                 "--index", str(workdir / "data" / "embeddings" / "tiny-s1.idx"),
                 "--fm-dim", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "checked 200 chips: OK" in out


def test_validate_reports_violations_and_exits_2(workdir, capsys):
    synth(workdir)
    chips_path = workdir / "data" / "chips.jsonl"
    lines = chips_path.read_text().splitlines()
    first = json.loads(lines[0])
    first["fractions"]["tree-cover"] = 0.9
    first["fractions"]["cropland"] = 0.9
    lines[0] = json.dumps(first)
    chips_path.write_text("\n".join(lines) + "\n")
    code = main(["validate",
                 "--chips", str(chips_path),
                 "--emb", str(workdir / "data" / "embeddings" / "tiny-s1.emb"),
                 "--index", str(workdir / "data" / "embeddings" / "tiny-s1.idx"),
                 "--fm-dim", "8"])
    assert code == 2
    out = capsys.readouterr().out
    assert "violation" in out
    assert "fraction sum exceeds 1" in out


def test_validate_wrong_dim_exits_2(workdir, capsys):
    synth(workdir)
    code = main(["validate",
                 "--chips", str(workdir / "data" / "chips.jsonl"),
                 "--emb", str(workdir / "data" / "embeddings" / "tiny-s1.emb"),
                 "--index", str(workdir / "data" / "embeddings" / "tiny-s1.idx"),
                 "--fm-dim", "512"])
    assert code == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_heatmap_needs_external_records(workdir, capsys):
    synth(workdir)
    assert run(workdir) == 0
    code = main(["report-heatmap", "--results", str(workdir / "results.csv"),
                 "--class", "tree-cover"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert "command is required" in capsys.readouterr().err
    assert main(["run", "--grid"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["report-heatmap", "--results", "r.csv", "--class", "lava"]) == 1


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_run_threads_below_one_exits_1(workdir, capsys, threads):
    synth(workdir)
    assert run(workdir, "--threads", threads) == 1
    assert "--threads" in capsys.readouterr().err
    assert not (workdir / "results.csv").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "probeforge" in capsys.readouterr().out
    assert main(["run", "--help"]) == 0
    assert "--resume" in capsys.readouterr().out


def test_bad_grid_json_exits_2(workdir, capsys):
    synth(workdir)
    (workdir / "grid.json").write_text("{\"fms\": [\"tiny-s1\"]")
    assert run(workdir) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_grid_key_exits_2(workdir, capsys):
    synth(workdir)
    (workdir / "grid.json").write_text(json.dumps({**GRID, "budget": 3}))
    assert run(workdir) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("grid, key", [
    ({"fms": ["tiny-s1"]}, "classes"),
    ({**GRID, "repetitions": "3"}, "repetitions"),
    ({**GRID, "fms": [["tiny-s1"]]}, "fms"),
    ({**GRID, "classes": "tree-cover"}, "classes"),
    ({**GRID, "n_test_target": [1]}, "n_test_target"),
    ({**GRID, "n_train_target": [1]}, "n_train_target"),
    ({**GRID, "base_seed": -1}, "base_seed"),
    ({**GRID, "base_seed": 2**64}, "base_seed"),
], ids=["missing-key", "string-repetitions", "nested-axis", "string-axis",
        "test-size-1", "train-size-1", "negative-seed", "seed-2-64"])
def test_malformed_grid_exits_2(workdir, capsys, grid, key):
    synth(workdir)
    (workdir / "grid.json").write_text(json.dumps(grid))
    assert run(workdir) == 2
    err = capsys.readouterr().err
    assert key in err and "unexpected" not in err
    assert not (workdir / "results.csv").exists()


@pytest.mark.parametrize("spec, key", [
    ({"n_chips": 40, "dim": 4, "fm_ids": "abc"}, "fm_ids"),
    ({"n_chips": 40, "dim": 4, "fm_ids": ["a-s1", 2]}, "fm_ids"),
    ({"n_chips": "100", "dim": 4}, "n_chips"),
    ({"n_chips": 100.5, "dim": 4}, "n_chips"),
    ({"n_chips": 40, "dim": True}, "dim"),
    ({"n_chips": 40, "dim": 4, "noise_sigma": "0.3"}, "noise_sigma"),
    ({"n_chips": 40, "dim": 4, "noise_sigma": float("nan")}, "noise_sigma"),
    ({"n_chips": 40, "dim": 4, "link": 1}, "link"),
    ({"n_chips": 40}, "dim"),
    ({"n_chips": 40, "dim": 4, "n_aoi": 2}, "n_aoi"),
], ids=["string-fm-ids", "number-fm-id", "string-int", "fractional-int", "bool-int",
        "string-float", "nan-float", "number-string", "missing-key", "unknown-key"])
def test_malformed_synth_spec_exits_2(workdir, capsys, spec, key):
    (workdir / "synth.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(workdir / "synth.json"),
                 "--out-dir", str(workdir / "data")]) == 2
    err = capsys.readouterr().err
    assert key in err and "unexpected" not in err
    assert not (workdir / "data").exists()


def test_synth_spec_takes_an_integer_for_a_float(workdir):
    (workdir / "synth.json").write_text(json.dumps({**SYNTH_SPEC, "noise_sigma": 1}))
    synth(workdir)
    planted = json.loads((workdir / "data" / "planted.json").read_text())
    assert planted["spec"]["noise_sigma"] == 1


# ---------------------------------------------------------------------------
# fresh interpreters


SRC = str(Path(__file__).resolve().parents[1] / "src")


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_module_entry_point_runs_the_cli():
    proc = python("-m", "probeforge.cli", "run")
    assert proc.returncode == 1
    assert "--grid" in proc.stderr


def test_package_import_loads_no_submodule_and_no_numpy():
    proc = python("-c", "import json, sys, probeforge; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [m for m in loaded if m == "numpy" or m.startswith(("numpy.", "probeforge."))] == []
