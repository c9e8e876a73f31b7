"""End-to-end command line behavior, driven in-process through main()."""

import json

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
