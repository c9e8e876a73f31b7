"""End-to-end command line behavior, driven in-process through main()."""

import csv
import errno
import json
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_record
from probeforge.cli import SEED_ENV, main
from probeforge.schema import parse_results_file, write_atomic, write_results_file

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


@pytest.mark.parametrize("left", [b"not,a,results,file\nlast line", b'{"fms": ["tiny-s1"]}'],
                         ids=["two-lines", "one-line"])
def test_run_resume_cuts_nothing_from_a_file_it_refuses(workdir, capsys, left):
    synth(workdir)
    path = workdir / "results.csv"
    path.write_bytes(left)  # no trailing newline, and no results header
    assert run(workdir, "--resume") == 2
    assert "unexpected results header" in capsys.readouterr().err
    assert path.read_bytes() == left


def _tree(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("resume", [[], ["--resume"]], ids=["fresh", "resume"])
@pytest.mark.parametrize("out", ["grid.json", "data/chips.jsonl", "data/chips.jsonl.cols",
                                 "data/embeddings/tiny-s1.emb", "data/embeddings/tiny-s1.idx",
                                 "link-to-chips"])
def test_run_refuses_an_out_that_is_one_of_its_inputs(workdir, capsys, out, resume):
    synth(workdir)
    assert run(workdir) == 0  # and writes the chip column cache
    os.link(workdir / "data" / "chips.jsonl", workdir / "link-to-chips")
    before = _tree(workdir)
    assert workdir / "data" / "chips.jsonl.cols" in before
    code = main(["run", "--grid", str(workdir / "grid.json"), "--data-dir", str(workdir / "data"),
                 "--out", str(workdir / out), *resume])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--out {workdir / out} is " in err
    named = "data/chips.jsonl" if out == "link-to-chips" else out
    assert f"is {workdir / named}, an input of this run" in err
    assert _tree(workdir) == before


@pytest.mark.parametrize("resume", [[], ["--resume"]], ids=["fresh", "resume"])
@pytest.mark.parametrize("out, kept", [("data/chips.jsonl.cols", "chip column cache"),
                                       ("data/embeddings/r.emb", "models"),
                                       ("data/embeddings/r.idx", "models"),
                                       ("data/embeddings/.emb", "models")])
def test_run_refuses_an_out_where_the_dataset_keeps_files_it_has_not_yet(workdir, capsys, out,
                                                                         kept, resume):
    # A results file there would be overwritten by the next run's chip cache,
    # or loaded as a model by every later run.
    synth(workdir)  # writes no chip column cache
    before = _tree(workdir)
    assert not (workdir / out).exists()
    code = main(["run", "--grid", str(workdir / "grid.json"), "--data-dir", str(workdir / "data"),
                 "--out", str(workdir / out), *resume])
    assert code == 2
    assert (f"--out {workdir / out} is where dataset {workdir / 'data'} keeps its {kept}"
            in capsys.readouterr().err)
    assert _tree(workdir) == before


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "hard-link"])
@pytest.mark.parametrize("command", [["report-select"], ["report-scatter"],
                                     ["report-heatmap", "--class", "tree-cover"]],
                         ids=lambda command: command[0])
def test_reports_refuse_an_out_that_is_their_results(workdir, capsys, command, link):
    synth(workdir)
    assert run(workdir) == 0
    results = workdir / "results.csv"
    out = results
    if link:
        out = workdir / "link-to-results"
        os.link(results, out)
    before = results.read_bytes()
    code = main([command[0], "--results", str(results), *command[1:], "--out", str(out)])
    assert code == 2
    assert f"--out {out} is {results}, an input of this run" in capsys.readouterr().err
    assert results.read_bytes() == before
    assert main(["report-select", "--results", str(results)]) == 0


@pytest.mark.parametrize("fault, message", [
    (lambda line: line[:3] + b"\xff" + line[3:],
     "not valid UTF-8 (byte 0xff: invalid start byte)"),
    (lambda line: b"x" * (csv.field_size_limit() + 1) + line,
     f"field larger than field limit ({csv.field_size_limit()})"),
], ids=["bad-utf8", "field-over-the-limit"])
@pytest.mark.parametrize("command", ["report-select", "run-resume"])
def test_a_bad_results_file_exits_2_naming_the_file_and_line(workdir, capsys, fault, message,
                                                             command):
    # The bad line sits past the reader's first block, which a text layer decodes ahead.
    synth(workdir)
    assert run(workdir) == 0
    path = workdir / "results.csv"
    header, row = path.read_bytes().splitlines(keepends=True)
    rows = [row] * 199
    rows[148] = fault(row)
    path.write_bytes(header + b"".join(rows))
    before = path.read_bytes()
    if command == "run-resume":
        assert run(workdir, "--resume") == 2
    else:
        assert main(["report-select", "--results", str(path)]) == 2
    assert f"{path}: line 150: {message}" in capsys.readouterr().err
    assert path.read_bytes() == before


def test_synth_into_a_hard_linked_copy_leaves_the_original_as_it_was(workdir):
    synth(workdir)
    original, copy = workdir / "data", workdir / "copy"
    shutil.copytree(original, copy, copy_function=os.link)
    before = _tree(original)
    assert len(before) == 4  # chips.jsonl, planted.json, the .emb and the .idx
    (workdir / "synth.json").write_text(json.dumps(dict(SYNTH_SPEC, n_chips=150, data_seed=9)))
    assert main(["synth", "--spec", str(workdir / "synth.json"), "--out-dir", str(copy)]) == 0
    assert _tree(original) == before
    rewritten = {path.relative_to(copy): data for path, data in _tree(copy).items()}
    assert all(rewritten[path.relative_to(original)] != data for path, data in before.items())


def test_outputs_with_names_of_250_bytes_or_more(workdir):
    # Each temporary name is no longer than its target's, so a name that fits is written.
    fm_id = "m-s1-" + "\u00e9" * 122  # "embeddings/<fm_id>.emb": a name of 253 bytes
    (workdir / "synth.json").write_text(json.dumps(dict(SYNTH_SPEC, fm_ids=[fm_id])))
    (workdir / "grid.json").write_text(json.dumps(dict(GRID, fms=[fm_id])))
    synth(workdir)
    assert len(os.fsencode(f"{fm_id}.emb")) == 253
    results = workdir / ("\u00e9" * 125 + ".csv")  # 254 bytes
    selection = workdir / ("s" * 250 + ".txt")
    args = ["run", "--grid", str(workdir / "grid.json"), "--data-dir", str(workdir / "data"),
            "--out", str(results)]
    assert main(args) == 0
    first = results.read_bytes()
    assert main(args + ["--resume"]) == 0
    assert results.read_bytes() == first
    assert main(["report-select", "--results", str(results), "--out", str(selection)]) == 0
    assert selection.read_text().startswith("target_aoi,class,status")
    assert not list(workdir.rglob("*.tmp"))


@pytest.mark.parametrize("name", ["r", "results.csv", "x" * 13, "y" * 255, "\u00e9" * 127,
                                  "\U0001f600" * 63], ids=lambda name: f"{len(name.encode())}B")
def test_a_temporary_name_is_no_longer_than_its_target_or_13_bytes(tmp_path, monkeypatch, name):
    renames = []
    monkeypatch.setattr(os, "replace", lambda src, dst: renames.append((src, dst)))
    write_atomic(tmp_path / name, b"")
    [(tmp, dst)] = renames
    assert dst == tmp_path / name and os.path.dirname(tmp) == str(tmp_path)
    tmp_name = os.path.basename(tmp)
    assert tmp_name.endswith(".tmp") and tmp_name != name
    assert len(os.fsencode(tmp_name)) <= max(len(os.fsencode(name)), 13)
    os.unlink(tmp)


@pytest.mark.parametrize("command", [["report-select"], ["report-scatter"],
                                     ["report-heatmap", "--class", "tree-cover"]],
                         ids=lambda command: command[0])
def test_a_failed_rename_of_a_report_out_keeps_the_old_file(workdir, capsys, monkeypatch,
                                                            command):
    synth(workdir)
    (workdir / "grid.json").write_text(json.dumps(dict(
        GRID, regimes=["external"], external_aois=["aoi-01"], n_train_external=[40])))
    assert run(workdir) == 0
    out = workdir / "report.csv"
    out.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError(errno.EIO, "rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    code = main([command[0], "--results", str(workdir / "results.csv"), *command[1:],
                 "--out", str(out)])
    assert code == 2
    assert "rename failed" in capsys.readouterr().err
    assert out.read_text() == "old\n"
    assert not list(workdir.rglob("*.tmp"))


def test_a_report_out_that_is_a_symlink_is_replaced_not_followed(workdir):
    synth(workdir)
    assert run(workdir) == 0
    elsewhere, out = workdir / "elsewhere.txt", workdir / "select.csv"
    elsewhere.write_text("kept\n")
    out.symlink_to(elsewhere)
    assert main(["report-select", "--results", str(workdir / "results.csv"),
                 "--out", str(out)]) == 0
    assert not out.is_symlink()
    assert out.read_text().startswith("target_aoi,class,status")
    assert elsewhere.read_text() == "kept\n"


def test_synth_refuses_a_directory_holding_a_model_it_does_not_write(workdir, capsys):
    spec = workdir / "synth.json"
    out_dir = workdir / "data"
    args = ["synth", "--spec", str(spec), "--out-dir", str(out_dir)]
    spec.write_text(json.dumps(dict(SYNTH_SPEC, fm_ids=["a-s2", "b-s2"])))
    assert main(args) == 0
    before = _tree(out_dir)
    assert main(args) == 0  # the same models again
    assert _tree(out_dir) == before
    spec.write_text(json.dumps(dict(SYNTH_SPEC, fm_ids=["c-s2"])))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{out_dir / 'embeddings' / 'a-s2.emb'}: a model this dataset does not write" in err
    assert _tree(out_dir) == before


def test_run_writes_results_beside_its_inputs_in_the_data_directory(workdir):
    synth(workdir)
    out = workdir / "data" / "results.csv"
    args = ["run", "--grid", str(workdir / "grid.json"), "--data-dir", str(workdir / "data"),
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0 and main(args + ["--resume"]) == 0
    assert out.read_bytes() == first


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


@pytest.mark.parametrize("line", [3, 6], ids=["feasible-after-infeasible", "first-external"])
def test_run_resume_checks_the_first_feasible_row_of_each_regime(workdir, capsys, line):
    # target-split rows first, and the first one infeasible (150 + 20 > 100 chips)
    grid = {**GRID, "regimes": ["target-split", "external"],
            "target_aois": ["aoi-00", "aoi-01"], "external_aois": ["aoi-00", "aoi-01"],
            "n_train_target": [150, 40], "n_train_external": [40]}
    (workdir / "grid.json").write_text(json.dumps(grid))
    synth(workdir)
    assert run(workdir) == 0
    path = workdir / "results.csv"
    lines = path.read_text().splitlines(keepends=True)
    assert [row.split(",")[2] for row in lines[1:]] == ["target-split"] * 4 + ["external"] * 2
    assert lines[1].split(",")[14] == "true" and lines[line - 1].split(",")[14] == "false"
    fields = lines[line - 1].split(",")
    fields[9] = "0.5"  # r_mean
    lines[line - 1] = ",".join(fields)
    path.write_text("".join(lines[:-1]))  # and the last row still to run
    before = path.read_bytes()
    capsys.readouterr()
    assert run(workdir, "--resume") == 2
    err = capsys.readouterr().err
    assert f"results.csv: line {line}: kept row is not reproduced" in err
    assert path.read_bytes() == before


def test_run_resume_names_the_file_line_of_a_kept_row_after_a_two_line_row(workdir, capsys):
    # The a\nb row spans lines 2 and 3, so the aoi-01 row is on line 4, not row 3.
    synth(workdir)
    chips_path = workdir / "data" / "chips.jsonl"
    chips = [json.loads(line) for line in chips_path.read_text().splitlines()]
    renamed = [c for c in chips if c["aoi"] == "aoi-00"][:10]
    for chip in renamed:
        chip["aoi"] = "a\nb"
    chips_path.write_text("".join(json.dumps(c) + "\n" for c in chips))
    grid = {**GRID, "target_aois": ["a\nb", "aoi-01"], "n_train_target": [20]}
    (workdir / "grid.json").write_text(json.dumps(grid))
    assert run(workdir) == 0
    path = workdir / "results.csv"
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 4 and lines[1].startswith('tiny-s1,tree-cover,target-split,,"a')
    assert lines[2].startswith('b",random,20,20,3,nan,') and ",true," in lines[2]  # 10 chips
    fields = lines[3].split(",")
    assert fields[4] == "aoi-01"
    fields[9] = "0.5"  # r_mean
    lines[3] = ",".join(fields)
    path.write_text("".join(lines))
    before = path.read_bytes()
    capsys.readouterr()
    assert run(workdir, "--resume") == 2
    assert "results.csv: line 4: kept row is not reproduced" in capsys.readouterr().err
    assert path.read_bytes() == before


def test_run_refuses_a_grid_name_holding_a_semicolon(workdir, capsys):
    # A spec key joins its fields with ";". Trained on a and tested on
    # "b;target=c", and trained on "a;target=b" and tested on c, two specs
    # had one key: the results file held one row twice and lost the other.
    (workdir / "synth.json").write_text(json.dumps(
        {"n_chips": 400, "dim": 8, "fm_ids": ["m-s2"], "link": "linear"}))
    synth(workdir)
    chips_path = workdir / "data" / "chips.jsonl"
    names = ["a", "c", "a;target=b", "b;target=c"]
    chips = [json.loads(line) for line in chips_path.read_text().splitlines()]
    chips_path.write_text("".join(json.dumps(dict(c, aoi=names[i % 4])) + "\n"
                                  for i, c in enumerate(chips)))
    (workdir / "grid.json").write_text(json.dumps({
        **GRID, "fms": ["m-s2"], "regimes": ["external"],
        "external_aois": ["a", "a;target=b"], "target_aois": ["c", "b;target=c"],
        "n_train_external": [20], "n_test_target": [20],
    }))
    assert run(workdir) == 2
    assert "axis external_aois holds 'a;target=b'" in capsys.readouterr().err
    assert not (workdir / "results.csv").exists()


def test_run_refuses_a_grid_aoi_name_that_is_not_utf8_before_writing(workdir, capsys, caplog):
    # A JSON "\ud800" escape is a lone surrogate, which no UTF-8 results row
    # can hold: such a run wrote its first unit's row, then every run and
    # --resume exited 2 naming only the codec, at the row of that AOI.
    (workdir / "synth.json").write_text(json.dumps(
        {"n_chips": 200, "dim": 8, "n_aois": 2, "fm_ids": ["m-s2"], "link": "linear"}))
    synth(workdir)
    chips_path = workdir / "data" / "chips.jsonl"
    chips = [json.loads(line) for line in chips_path.read_text().splitlines()]
    chips_path.write_text("".join(
        json.dumps(dict(c, aoi="\ud800x") if c["aoi"] == "aoi-01" else c) + "\n"
        for c in chips))
    (workdir / "grid.json").write_text(json.dumps({
        **GRID, "fms": ["m-s2"], "target_aois": ["aoi-00", "\ud800x"],
        "n_train_target": [20], "n_test_target": [10], "repetitions": 2,
    }))
    for extra in ((), ("--resume",)):
        with caplog.at_level("INFO", logger="probeforge.runner"):
            assert run(workdir, *extra) == 2
        err = capsys.readouterr().err
        assert "axis target_aois holds '\\ud800x': a name must be encodable as UTF-8" in err
        assert "running" not in caplog.text  # nor did any unit run
        assert not (workdir / "results.csv").exists()


@pytest.mark.parametrize("axis, grid", [
    ("external_aois", {"regimes": ["external"], "external_aois": [""],
                       "target_aois": ["aoi-01"], "n_train_external": [40]}),
    ("target_aois", {"target_aois": [""]}),
], ids=["external_aois", "target_aois"])
def test_run_refuses_an_empty_aoi_name(workdir, capsys, axis, grid):
    # A results row reads an empty AOI as none: such a run wrote rows that
    # neither --resume nor report-select could read back.
    synth(workdir)
    (workdir / "grid.json").write_text(json.dumps({**GRID, **grid}))
    assert run(workdir) == 2
    assert f"axis {axis} holds an empty name" in capsys.readouterr().err
    assert not (workdir / "results.csv").exists()


@pytest.mark.parametrize("axis, grid", [
    ("external_aois", {"regimes": ["external"], "target_aois": ["aoi-01"],
                       "n_train_external": [40]}),
    ("target_aois", {}),
], ids=["external_aois", "target_aois"])
def test_run_refuses_an_aoi_name_over_the_csv_field_limit(workdir, capsys, axis, grid):
    # Such a run wrote rows that neither --resume nor report-select could read back.
    synth(workdir)
    chips = workdir / "data" / "chips.jsonl"
    first, rest = chips.read_text().split("\n", 1)
    limit = csv.field_size_limit()

    def first_chip_and_grid_in(aoi):
        chips.write_text(json.dumps(dict(json.loads(first), aoi=aoi)) + "\n" + rest)
        (workdir / "grid.json").write_text(json.dumps({**GRID, **grid, axis: [aoi]}))

    first_chip_and_grid_in("a" * (limit + 1))
    assert run(workdir) == 2
    err = capsys.readouterr().err
    assert f"axis {axis} holds a name longer than {limit} characters" in err
    assert "a" * 100 not in err  # nor is the name printed
    assert not (workdir / "results.csv").exists()
    first_chip_and_grid_in("a" * limit)  # a name at the limit is written and read back
    assert run(workdir) == 0
    assert run(workdir, "--resume") == 0
    assert main(["report-select", "--results", str(workdir / "results.csv")]) == 0


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


@pytest.mark.parametrize("key, value, name", [
    ("lon", "0.5", "lon"), ("tree-cover", True, "fractions['tree-cover']"),
    ("elevation_m", "NaN", "elevation_m"),
], ids=["lon-str", "fraction-bool", "elev-str"])
def test_run_refuses_a_non_number_in_the_chip_table(workdir, capsys, key, value, name):
    synth(workdir)
    chips_path = workdir / "data" / "chips.jsonl"
    lines = chips_path.read_text().splitlines()
    chip = json.loads(lines[2])
    (chip["fractions"] if key == "tree-cover" else chip)[key] = value
    lines[2] = json.dumps(chip)
    chips_path.write_text("\n".join(lines) + "\n")
    assert run(workdir) == 2
    err = capsys.readouterr().err
    assert f"chips.jsonl: line 3: {name} must be a JSON number, got {value!r}" in err
    assert not (workdir / "results.csv").exists()
    assert not (workdir / "data" / "chips.jsonl.cols").exists()


def test_run_reads_chip_ids_holding_a_unicode_line_separator(workdir):
    synth(workdir)
    data = workdir / "data"
    for name in ("chips.jsonl", "embeddings/tiny-s1.idx"):
        text = (data / name).read_text(encoding="utf-8")
        (data / name).write_text(text.replace("chip-", "chip\u2028-"), encoding="utf-8")
    assert run(workdir) == 0
    assert len(parse_results_file(workdir / "results.csv")) == 1


def _validate(workdir):
    return main(["validate",
                 "--chips", str(workdir / "data" / "chips.jsonl"),
                 "--emb", str(workdir / "data" / "embeddings" / "tiny-s1.emb"),
                 "--index", str(workdir / "data" / "embeddings" / "tiny-s1.idx"),
                 "--fm-dim", "8"])


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("name, line", [("chips.jsonl", 150), ("embeddings/tiny-s1.idx", 170)],
                         ids=["chips", "index"])
def test_bad_utf8_exits_2_naming_the_file_and_line(workdir, capsys, command, name, line):
    synth(workdir)
    path = workdir / "data" / name
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
    path.write_bytes(b"\n".join(lines))
    assert (run(workdir) if command == "run" else _validate(workdir)) == 2
    err = capsys.readouterr().err
    assert f"{path}: line {line}: not valid UTF-8 (byte 0xff: invalid start byte)" in err
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
    # int() reads these as 10, 3 and 5; the value is ASCII decimal digits only
    for garbage in ("1_0", "\u0663", " 5 "):
        monkeypatch.setenv(SEED_ENV, garbage)
        assert run(workdir) == 1
        assert f"{SEED_ENV} must be a decimal integer, got {garbage!r}" in capsys.readouterr().err
    assert not (workdir / "results.csv").exists()


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
    ({"n_chips": 40, "dim": 4, "fm_ids": ["", "ok-s2"]}, "fm_ids"),
    ({"n_chips": 40, "dim": 4, "fm_ids": ["../escaped-s2"]}, "fm_ids"),
    ({"n_chips": 40, "dim": 4, "fm_ids": ["ok-s2", "a/b-s2"]}, "fm_ids"),
    ({"n_chips": 40, "dim": 4, "fm_ids": ["a-s2", "b-s2", "a-s2"]}, "fm_ids"),
    ({"n_chips": 40, "dim": 4, "fm_ids": ["ok-s2", "a\0b-s2"]}, "fm_ids"),
    ({"n_chips": 40, "dim": 4, "fm_ids": ["ok-s2", "a;b-s2"]}, "'a;b-s2'"),
    ({"n_chips": 40, "dim": 4, "fm_ids": ["ok-s2", "m" * 249 + "-s2"]},
     f"'{'m' * 249}-s2' is too long: its .emb file name would be 256 bytes"),
    ({"n_chips": 40, "dim": 4, "fm_ids": ["ok-s2", "\u00e9" * 126]},
     f"'{chr(0xe9) * 126}' is too long: its .emb file name would be 256 bytes"),
    ({"n_chips": 40, "dim": 4, "fm_ids": ["ok-s2", "\ud800-s2"]},
     "fm_ids holds '\\ud800-s2': a name must be encodable as UTF-8"),
], ids=["string-fm-ids", "number-fm-id", "string-int", "fractional-int", "bool-int",
        "string-float", "nan-float", "number-string", "missing-key", "unknown-key",
        "empty-fm-id", "fm-id-escapes", "fm-id-with-slash", "repeated-fm-id",
        "fm-id-with-nul", "fm-id-with-semicolon", "fm-id-over-255-bytes",
        "two-byte-fm-id-over-255-bytes", "fm-id-with-lone-surrogate"])
def test_malformed_synth_spec_exits_2(workdir, capsys, spec, key):
    (workdir / "synth.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(workdir / "synth.json"),
                 "--out-dir", str(workdir / "data")]) == 2
    err = capsys.readouterr().err
    assert key in err and "unexpected" not in err
    assert not (workdir / "data").exists()


def test_synth_fm_id_whose_file_name_is_255_bytes_loads_back(workdir):
    fm_id = "m" * 248 + "-s2"  # embeddings/<fm_id>.emb is 255 bytes, the most a name holds
    (workdir / "synth.json").write_text(json.dumps({"n_chips": 40, "dim": 4, "fm_ids": [fm_id]}))
    data = workdir / "data"
    assert main(["synth", "--spec", str(workdir / "synth.json"), "--out-dir", str(data)]) == 0
    from probeforge.ingest import load_dataset_dir

    assert list(load_dataset_dir(data)) == [fm_id]


def test_synth_fm_ids_with_dots_load_back(workdir):
    # Only an id that is empty, holds a separator or repeats is refused.
    fm_ids = [".", "..", ".hid-s2", "x.y-s2"]
    (workdir / "synth.json").write_text(json.dumps({"n_chips": 40, "dim": 4, "fm_ids": fm_ids}))
    data = workdir / "data"
    assert main(["synth", "--spec", str(workdir / "synth.json"), "--out-dir", str(data)]) == 0
    assert sorted(p.name for p in (data / "embeddings").iterdir()) == sorted(
        f"{fm}{ext}" for fm in fm_ids for ext in (".emb", ".idx"))
    from probeforge.ingest import load_dataset_dir

    assert sorted(load_dataset_dir(data)) == sorted(fm_ids)


#: JSON nested deeper than the parser's recursion limit
_NESTED = "[" * 100_000 + "]" * 100_000


def _break_one_input(workdir, case):
    """Break one input file of a command; return the command's argv and that file."""
    data, spec, grid = workdir / "data", workdir / "synth.json", workdir / "grid.json"
    if case in ("spec-json", "spec-key"):
        spec.write_text('{"n_chips": 5,\n' if case == "spec-json" else '{"n_chips": 5}')
        return ["synth", "--spec", str(spec), "--out-dir", str(data)], spec
    synth(workdir)
    run_argv = ["run", "--grid", str(grid), "--data-dir", str(data),
                "--out", str(workdir / "results.csv")]
    emb, idx = data / "embeddings" / "tiny-s1.emb", data / "embeddings" / "tiny-s1.idx"
    if case in ("grid-json", "grid-key", "grid-nested"):
        grid.write_text({"grid-json": '{"fms": ["tiny-s1"],\n', "grid-key": '{"fmz": []}',
                         "grid-nested": _NESTED}[case])
        return run_argv, grid
    if case == "validate-unaligned":
        from probeforge.core import EmbeddingSet
        from probeforge.ingest import save_embeddings

        save_embeddings(EmbeddingSet(fm_id="tiny-s1", chip_ids=("x0", "x1", "x2"),
                                     matrix=np.ones((3, 8), dtype=np.float32)), emb, idx)
        return ["validate", "--chips", str(data / "chips.jsonl"), "--emb", str(emb),
                "--index", str(idx), "--fm-dim", "8"], idx
    if case in ("chip-line", "chip-line-nested"):
        chips = data / "chips.jsonl"
        lines = chips.read_text().splitlines(keepends=True)
        bad = "{" if case == "chip-line" else _NESTED
        chips.write_text("".join([*lines[:3], f"{bad}\n", *lines[4:]]))
        return run_argv, chips
    if case == "emb-magic":
        emb.write_bytes(b"XXXX" + emb.read_bytes()[4:])
        return run_argv, emb
    assert case == "results-row" and main(run_argv) == 0
    results = workdir / "results.csv"
    results.write_text(results.read_text() + "tiny-s1,tree-cover\n")
    return ["report-select", "--results", str(results)], results


@pytest.mark.parametrize("case", ["grid-json", "grid-key", "grid-nested", "spec-json",
                                  "spec-key", "validate-unaligned", "chip-line",
                                  "chip-line-nested", "emb-magic", "results-row"])
def test_every_refusal_of_an_input_file_names_it(workdir, capsys, case):
    argv, path = _break_one_input(workdir, case)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"probeforge: error: {path}: ") and "unexpected" not in err, err


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


# Runs cli.main with runner.run_experiment rebound so that a pool worker
# kills itself with SIGKILL on the draw groups of target AOI argv[1]; forked
# workers inherit the rebinding.
KILLER = """
import os, signal, sys
from probeforge import cli, runner

parent, real = os.getpid(), runner.run_experiment


def run_experiment(spec, dataset, share=None):
    if os.getpid() != parent and spec.target_aoi == sys.argv[1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(spec, dataset, share)


runner.run_experiment = run_experiment
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="workers inherit the rebound run_experiment only under fork")
def test_a_dead_pool_worker_is_named_and_resume_finishes_the_run(workdir, capsys):
    grid = dict(GRID, target_aois=["aoi-00", "aoi-01"], n_train_target=[20, 30, 40])
    (workdir / "grid.json").write_text(json.dumps(grid))
    synth(workdir)
    assert run(workdir) == 0
    serial = (workdir / "results.csv").read_bytes()

    out = workdir / "pooled.csv"
    proc = python("-c", KILLER, "aoi-01", "run", "--grid", str(workdir / "grid.json"),
                  "--data-dir", str(workdir / "data"), "--out", str(out), "--threads", "2")
    assert proc.returncode == 3, proc.stderr
    kept = len(parse_results_file(out))
    # the first aoi-01 group starts once two of aoi-00's three have finished
    assert 2 <= kept <= 3
    assert proc.stderr.splitlines()[-1] == (
        "probeforge: unexpected failure: BrokenProcessPool('a worker process died;"
        f" {kept} finished rows are kept in {out}; rerun with --resume')")

    capsys.readouterr()
    assert main(["run", "--grid", str(workdir / "grid.json"), "--data-dir",
                 str(workdir / "data"), "--out", str(out), "--resume"]) == 0
    assert out.read_bytes() == serial


def test_module_entry_point_runs_the_cli():
    proc = python("-m", "probeforge.cli", "run")
    assert proc.returncode == 1
    assert "--grid" in proc.stderr


def test_package_import_loads_no_submodule_and_no_numpy():
    proc = python("-c", "import json, sys, probeforge; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [m for m in loaded if m == "numpy" or m.startswith(("numpy.", "probeforge."))] == []


# Runs cli.main as perfbench's measured.py does: both seams are read and
# rebound first. Each seam records the modules loaded when it is called. The
# last stdout line is the exit code, every loaded module and those records.
MEASURED = """
import json, sys
from probeforge import cli

seen = {}


def seam(name):
    real = getattr(cli, name)

    def called(*args, **kwargs):
        seen[name] = sorted(sys.modules)
        return real(*args, **kwargs)
    return called


cli.load_dataset_dir = seam("load_dataset_dir")
cli.run_grid = seam("run_grid")
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules), "seams": seen}))
"""


def fresh_main(*argv):
    proc = python("-c", MEASURED, *argv)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0, proc.stderr
    return out


@pytest.mark.parametrize("command, extra", [
    ("report-select", ["--format", "text"]),
    ("report-scatter", []),
    ("report-heatmap", ["--class", "tree-cover"]),
])
def test_report_commands_load_no_numpy(tmp_path, command, extra):
    results = tmp_path / "results.csv"
    write_results_file(results, [
        make_record(),
        make_record(regime="external", train_aoi="aoi-01", r_mean=0.75),
    ])
    out = fresh_main(command, "--results", str(results), "--out", str(tmp_path / "out"), *extra)
    assert [m for m in out["modules"] if m == "numpy" or m.startswith("numpy.")] == []
    assert (tmp_path / "out").read_text().count("\n") >= 2


def test_serial_run_loads_no_process_pool(workdir):
    synth(workdir)
    out = fresh_main("run", "--grid", str(workdir / "grid.json"), "--data-dir",
                   str(workdir / "data"), "--out", str(workdir / "results.csv"),
                   "--threads", "1")
    assert "concurrent.futures" not in out["modules"]
    assert len(parse_results_file(workdir / "results.csv")) == 1


def test_run_calls_both_seams_through_the_cli_module_after_loading_their_modules(workdir):
    # A module first loaded inside a seam would be timed as part of it.
    synth(workdir)
    out = fresh_main("run", "--grid", str(workdir / "grid.json"), "--data-dir",
                   str(workdir / "data"), "--out", str(workdir / "results.csv"))
    assert sorted(out["seams"]) == ["load_dataset_dir", "run_grid"]
    for loaded in out["seams"].values():
        assert {"numpy", "probeforge.ingest", "probeforge.runner"} <= set(loaded)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_never_loads_numpy_random(workdir, threads):
    # Every draw reads the package's own stream, so a results file depends on
    # numpy only through the probe's BLAS and LAPACK calls.
    synth(workdir)
    (workdir / "grid.json").write_text(json.dumps(dict(
        GRID, samplers=["random", "esawc", "fps", "srtm"], regimes=["external", "target-split"],
        external_aois=["aoi-00"], target_aois=["aoi-00", "aoi-01"], n_train_external=[20],
        n_train_target=[20], n_test_target=[20])))
    out = fresh_main("run", "--grid", str(workdir / "grid.json"), "--data-dir",
                     str(workdir / "data"), "--out", str(workdir / "results.csv"),
                     "--threads", threads)
    assert [m for m in out["modules"] if m.startswith("numpy.random")] == []
    assert len(parse_results_file(workdir / "results.csv")) == 12
