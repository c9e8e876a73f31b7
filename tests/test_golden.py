"""Golden hashes: the exact bytes every command writes for frozen inputs.

These hashes define "same behaviour" for the package. A refactor must keep
every one of them. A change that alters output on purpose updates the
affected hashes in the same commit and says why in CHANGES.md; a failing
case prints the new digest to copy into ``GOLDEN``.

The ``validate`` table carries one violation of each rule the command can
reach: the embedding loader refuses non-finite values, so the non-finite
embedding rule is covered by ``tests/test_core.py`` instead.
"""

import contextlib
import hashlib
import io
import json
import math
import struct

import pytest

from probeforge.cli import SEED_ENV, main

SYNTH_SPEC = {"n_chips": 400, "dim": 8, "n_aois": 3, "fm_ids": ["a-s2"],
              "link": "linear", "noise_sigma": 0.3}

GRID = {
    "fms": ["a-s2"],
    "classes": ["tree-cover", "builtup", "permanent-water"],
    "samplers": ["random", "esawc", "fps", "srtm"],
    "regimes": ["external", "target-split"],
    "external_aois": ["aoi-00", "aoi-01"],
    "target_aois": ["aoi-00", "aoi-01", "aoi-02"],
    "n_train_external": [10, 40], "n_train_target": [10, 40],
    "n_test_target": [20], "repetitions": 3, "base_seed": 7,
}

LABELS = ("tree-cover", "shrubland", "grassland", "cropland", "builtup",
          "bare-sparse-vegetation", "permanent-water")

GOLDEN = {
    "synth/chips.jsonl":
        "3ff5070a60f3bb26d35ada5313e77b85fef976ed4788a657d6461809c4cd5b28",
    "synth/embeddings/a-s2.emb":
        "5c545b79481126bb845407b023b6162adb198c8385ca6b4bfbf7be6f71ff0252",
    "synth/embeddings/a-s2.idx":
        "5c756cae15ca16a13f1ff5b4c446c12034dda97382423a5685387b856109da42",
    "synth/planted.json":
        "5a37085db34d10b7df6604bd43c22171a3fc17c292a143991b434a84a308ade9",
    "run/results.csv":
        "1bff553385cd600a87bea9db967abe93acf5a4d189a02b4c4759fb8528add180",
    "run-threads-2/results.csv":
        "1bff553385cd600a87bea9db967abe93acf5a4d189a02b4c4759fb8528add180",
    "report-heatmap":
        "4337e17090dec6b0331b7985e51d5fb751462a4ff62636c8bd797337feca509c",
    "report-scatter":
        "8b28d49748173c8786bbbc6a553cd3e06c813aea2d13fad4fbbb69270e65b187",
    "report-select/csv":
        "8fcb19fcfcf58144104ed147cd66a3f66cc9a41e575aebe92b1fc280b24aca5a",
    "report-select/text":
        "80422a37d5519f0294d19428b05eb50ffcbb21dda26799bc3b8c3c9b7c47f355",
    "report-select/best-corr-mean":
        "c28a7969c9a361fd73fe33bbe8fc2f1ebb972096328ca982cf38e465caae5b96",
    "validate/stdout":
        "1cc67877168e32455c906371f090303f1a8ac61fabbc8e20e4323253e3ebc7b9",
}


def _chip(chip_id, elevation=100.0, **fractions):
    fr = {label: 0.1 for label in LABELS}
    fr.update({k.replace("_", "-"): v for k, v in fractions.items()})
    return json.dumps({"chip_id": chip_id, "aoi": "A", "lon": 0.25, "lat": 0.75,
                       "fractions": fr, "elevation_m": elevation})


def _write_validate_inputs(root):
    """Joined chips: clean, one per rule, a NaN fraction, and every rule at once."""
    lines = [
        _chip("clean"),
        _chip("range", tree_cover=-0.5),
        _chip("sum", tree_cover=0.9, cropland=0.9),
        _chip("table-only"),
        _chip("elevation", elevation=math.nan),
        _chip("nan-fraction", grassland=math.nan),
        _chip("multi", elevation=math.inf, tree_cover=1.5, shrubland=1.25),
    ]
    (root / "chips.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    ids = ["multi", "nan-fraction", "emb-only", "elevation", "sum", "range", "clean"]
    values = [float(i) for i in range(2 * len(ids))]
    (root / "v.emb").write_bytes(b"EMB1" + struct.pack("<IQ", 2, len(ids))
                                 + struct.pack(f"<{len(values)}f", *values))
    (root / "v.idx").write_text("\n".join(ids) + "\n", encoding="utf-8")


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(SEED_ENV, raising=False)
        (root / "synth.json").write_text(json.dumps(SYNTH_SPEC))
        (root / "grid.json").write_text(json.dumps(GRID))
        data = root / "data"
        assert main(["synth", "--spec", str(root / "synth.json"),
                     "--out-dir", str(data)]) == 0

        out = {}
        for name in ("chips.jsonl", "embeddings/a-s2.emb",
                     "embeddings/a-s2.idx", "planted.json"):
            out[f"synth/{name}"] = _digest(data / name)

        results = root / "results.csv"
        for label, extra in (("run", []), ("run-threads-2", ["--threads", "2"])):
            path = root / f"{label}.csv"
            assert main(["run", "--grid", str(root / "grid.json"),
                         "--data-dir", str(data), "--out", str(path), *extra]) == 0
            out[f"{label}/results.csv"] = _digest(path)
        (root / "run.csv").replace(results)

        reports = {
            "report-heatmap": ["report-heatmap", "--class", "tree-cover",
                               "--n-train", "10", "--sampler", "random"],
            "report-scatter": ["report-scatter"],
            "report-select/csv": ["report-select"],
            "report-select/text": ["report-select", "--format", "text"],
            "report-select/best-corr-mean": [
                "report-select", "--criterion", "best-corr-mean",
                "--r-min", "0.965", "--std-max", "0.01"],
        }
        for name, argv in reports.items():
            dest = root / (name.replace("/", "-") + ".out")
            assert main([*argv, "--results", str(results), "--out", str(dest)]) == 0
            out[name] = _digest(dest)

        _write_validate_inputs(root)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["validate", "--chips", str(root / "chips.jsonl"),
                         "--emb", str(root / "v.emb"), "--index", str(root / "v.idx"),
                         "--fm-dim", "2"])
        assert code == 2
        out["validate/stdout"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(outputs, name):
    assert outputs[name] == GOLDEN[name], f"{name}: new digest {outputs[name]}"
