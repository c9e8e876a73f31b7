"""Golden hashes: the exact bytes every command writes for frozen inputs.

These hashes define "same behaviour" for the package. A refactor must keep
every one of them. A change that alters output on purpose updates the
affected hashes in the same commit and says why in CHANGES.md; a failing
case prints the new digest to copy into ``GOLDEN`` or ``PATHS_GOLDEN``.

The ``validate`` table carries one violation of each rule the command can
reach: the embedding loader refuses non-finite values, so the non-finite
embedding rule is covered by ``tests/test_core.py`` instead.
"""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import shutil
import struct

import numpy as np
import pytest

from probeforge import probe
from probeforge.cli import SEED_ENV, main
from probeforge.core import EmbeddingSet
from probeforge.ingest import load_dataset_dir, load_embeddings, save_embeddings
from probeforge.runner import GridSpec, run_grid
from probeforge.schema import parse_results_file

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
        "0047684c8f720dc27cb15227e2be3c5849c1e3f0a3022eba99903b26a8cdecfd",
    "run-threads-2/results.csv":
        "0047684c8f720dc27cb15227e2be3c5849c1e3f0a3022eba99903b26a8cdecfd",
    "run/results.csv/target-split":
        "0c436fa2f67fbab81dbabac105cf05d07ecc6e913df530f2ab7ac744fdfa2b43",
    "report-heatmap":
        "ebad6fd5280642c70663938a91f72e294bc5538e5456b07973f52b3a602189a6",
    "report-scatter":
        "a3060289907bf3a54b4c300437345d54ee1854527c1806b6b66e334e0a37bded",
    "report-select/csv":
        "ac9b8a0e2f865ba29251a72700276bd62417d876c4e89581d5f047ef2ca13ad0",
    "report-select/text":
        "e93d01cbee56240543af1cfefe1fb8f6c07156b9ad40dbe28fe89cc470be04d4",
    "report-select/best-corr-mean":
        "6bdaba8ca142a34dd8954a44696f413257483c78739aba3d04d294d5296672a4",
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


def _target_split_digest(path):
    """The digest of the header and the target-split rows alone: external
    draws may be re-keyed without touching these bytes."""
    header, *rows = path.read_bytes().splitlines(keepends=True)
    kept = [row for row in rows if row.split(b",")[2] == b"target-split"]
    assert kept
    return hashlib.sha256(header + b"".join(kept)).hexdigest()


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
        out["run/results.csv/target-split"] = _target_split_digest(results)

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


# The grid above factorizes only tall, well-conditioned training sets (d = 8).
# This one reaches every path of ``probe.factorize``, one model each:
#   wide-s2  d = 64 above every n_train: the wide Gram path;
#   ill-s2   E diag((j+1)^-2) Q, d = 48, kappa > 1e3 at n_train 60: the SVD;
#   dup-s2   d = 16, each row shared by two chips of an AOI: the tall Gram
#            path at n_train 60, and at 10 the SVD whenever a draw holds
#            both chips of a pair, where the DEFAULT_RCOND cut-off sets the rank.
PATHS_SYNTH_SPEC = {"n_chips": 300, "dim": 64, "n_aois": 3, "fm_ids": ["wide-s2"],
                    "link": "linear", "noise_sigma": 0.3}

PATHS_GRID = {
    "fms": ["dup-s2", "ill-s2", "wide-s2"],
    "classes": ["tree-cover", "builtup"],
    "samplers": ["random", "srtm"],
    "regimes": ["external", "target-split"],
    "external_aois": ["aoi-00", "aoi-01"],
    "target_aois": ["aoi-00", "aoi-01", "aoi-02"],
    "n_train_external": [10, 60], "n_train_target": [10, 60],
    "n_test_target": [20], "repetitions": 3, "base_seed": 17,
}

PATHS_GOLDEN = {
    "paths/results.csv":
        "5c327e15a162a51688f3520d61955fbd766205d8428097ce7451e5f072af6993",
    "paths-threads-2/results.csv":
        "5c327e15a162a51688f3520d61955fbd766205d8428097ce7451e5f072af6993",
    "paths/report-scatter":
        "48a879360c90c580cffceb5513a368bd3702369f21afecb83f05f1cf5a720693",
}


def _write_paths_data(root):
    """The synth dataset plus the ill-conditioned and duplicate-row models."""
    (root / "synth.json").write_text(json.dumps(PATHS_SYNTH_SPEC))
    data = root / "data"
    assert main(["synth", "--spec", str(root / "synth.json"), "--out-dir", str(data)]) == 0
    emb = data / "embeddings"
    wide = load_embeddings(emb / "wide-s2.emb", emb / "wide-s2.idx", "wide-s2")
    E = wide.matrix.astype(np.float64)
    d = 48
    Q = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))[0]
    ill = E[:, :d] @ np.diag(np.arange(1, d + 1, dtype=np.float64) ** -2.0) @ Q
    pairs = np.arange(len(E)) // 6 * 6  # chips 6k..6k+5: two in each of the 3 AOIs
    for fm_id, matrix in (("ill-s2", ill), ("dup-s2", E[pairs, :16])):
        save_embeddings(EmbeddingSet(fm_id=fm_id, chip_ids=wide.chip_ids,
                                     matrix=matrix.astype(np.float32)),
                        emb / f"{fm_id}.emb", emb / f"{fm_id}.idx")
    return data


@pytest.fixture(scope="module")
def paths_outputs(tmp_path_factory):
    """The digests of the paths grid's outputs, and the path each serial
    factorization took: ("tall" | "wide", n, d) for the Gram path, and
    ("svd", n, d, rank, full rank, kappa) for the SVD."""
    root = tmp_path_factory.mktemp("paths")
    taken = []
    real = probe._gram_factors

    def spy(Xc):
        got = real(Xc)
        n, d = Xc.shape
        if got is not None:
            taken.append(("wide" if n <= d else "tall", n, d))
        else:
            s = np.linalg.svd(Xc, compute_uv=False)
            rank = int((s > probe.DEFAULT_RCOND * s[0]).sum())
            taken.append(("svd", n, d, rank, min(n - 1, d), s[0] / s[rank - 1]))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(SEED_ENV, raising=False)
        data = _write_paths_data(root)
        (root / "grid.json").write_text(json.dumps(PATHS_GRID))
        out = {}
        for label, extra in (("paths", []), ("paths-threads-2", ["--threads", "2"])):
            path = root / f"{label}.csv"
            with mp.context() as spied:
                if not extra:
                    spied.setattr(probe, "_gram_factors", spy)
                assert main(["run", "--grid", str(root / "grid.json"),
                             "--data-dir", str(data), "--out", str(path), *extra]) == 0
            out[f"{label}/results.csv"] = _digest(path)
        dest = root / "report-scatter.out"
        assert main(["report-scatter", "--results", str(root / "paths.csv"),
                     "--out", str(dest)]) == 0
        out["paths/report-scatter"] = _digest(dest)
    return out, taken


@pytest.mark.parametrize("name", sorted(PATHS_GOLDEN))
def test_factorization_paths_golden_bytes(paths_outputs, name):
    digests, _ = paths_outputs
    assert digests[name] == PATHS_GOLDEN[name], f"{name}: new digest {digests[name]}"


def test_the_paths_grid_takes_every_factorization_path(paths_outputs):
    _, taken = paths_outputs
    assert len(taken) == 60 * 3  # 24 external and 36 target-split units, 3 repetitions
    assert any(t[0] == "tall" for t in taken)
    assert any(t[0] == "wide" for t in taken)
    svd = [t for t in taken if t[0] == "svd"]
    # the fallback for a full-rank training set too ill-conditioned for the Gram path
    assert any(rank == full and kappa > 1e3 for _, _, _, rank, full, kappa in svd)
    # and for a rank-deficient one, whose rank the cut-off decides
    assert any(rank < full for _, _, _, rank, full, _ in svd)


def test_results_are_golden_with_and_without_the_chip_table_cache(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_SPEC))
    (tmp_path / "grid.json").write_text(json.dumps(GRID))
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(tmp_path / "synth.json"),
                 "--out-dir", str(data)]) == 0
    cache = data / "chips.jsonl.cols"
    for present in (False, True, False):
        if not present:
            cache.unlink(missing_ok=True)
        assert cache.exists() == present
        out = tmp_path / f"results-{present}.csv"
        assert main(["run", "--grid", str(tmp_path / "grid.json"),
                     "--data-dir", str(data), "--out", str(out)]) == 0
        assert _digest(out) == GOLDEN["run/results.csv"]
        assert cache.exists()
    # a cache of the first format, valid for this chip file, is parsed over and rewritten
    current = cache.read_bytes()
    assert struct.unpack_from("<I", current, 4) == (2,)
    cache.write_bytes(_v1_cache(data / "chips.jsonl"))
    out = tmp_path / "results-v1.csv"
    assert main(["run", "--grid", str(tmp_path / "grid.json"),
                 "--data-dir", str(data), "--out", str(out)]) == 0
    assert _digest(out) == GOLDEN["run/results.csv"]
    assert cache.read_bytes() == current


def _v1_cache(chips_path):
    """The version 1 column cache of ``chips_path``: each string column as u32
    byte lengths followed by the UTF-8 bytes."""
    blob = chips_path.read_bytes()
    recs = [json.loads(line) for line in blob.decode().split("\n") if line.strip()]
    values = [v for r in recs for v in (r["lon"], r["lat"],
                                        *(r["fractions"][label] for label in LABELS),
                                        r["elevation_m"])]
    payload = struct.pack(f"<{len(values)}d", *values)
    for key in ("chip_id", "aoi"):
        raw = [r[key].encode() for r in recs]
        payload += struct.pack(f"<{len(raw)}I", *map(len, raw)) + b"".join(raw)
    sha = [hashlib.sha256(b).digest() for b in (blob, payload)]
    return struct.pack("<4sIQ32s32s", b"PFCT", 1, len(recs), *sha) + payload


def test_data_the_grid_does_not_read_leaves_the_results_unchanged(tmp_path, monkeypatch):
    """An extra AOI, interleaved with the chips, and an extra model change no byte."""
    monkeypatch.delenv(SEED_ENV, raising=False)
    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_SPEC))
    (tmp_path / "grid.json").write_text(json.dumps(GRID))
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(tmp_path / "synth.json"),
                 "--out-dir", str(data)]) == 0

    lines = (data / "chips.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    extra = [f"extra-{i:03d}" for i in range(0, len(lines), 7)]
    mixed = []
    for i, line in enumerate(lines):
        if i % 7 == 0:
            mixed.append(_chip(extra[i // 7]).replace('"aoi": "A"', '"aoi": "aoi-zz"') + "\n")
        mixed.append(line)
    (data / "chips.jsonl").write_text("".join(mixed), encoding="utf-8")

    emb, idx = data / "embeddings" / "a-s2.emb", data / "embeddings" / "a-s2.idx"
    blob = emb.read_bytes()
    dim, count = struct.unpack("<IQ", blob[4:16])
    rows = struct.pack(f"<{dim * len(extra)}f", *range(dim * len(extra)))
    emb.write_bytes(b"EMB1" + struct.pack("<IQ", dim, count + len(extra)) + blob[16:] + rows)
    idx.write_text(idx.read_text(encoding="utf-8") + "\n".join(extra) + "\n", encoding="utf-8")
    shutil.copy(emb, data / "embeddings" / "b-s2.emb")
    shutil.copy(idx, data / "embeddings" / "b-s2.idx")

    out = tmp_path / "results.csv"
    assert main(["run", "--grid", str(tmp_path / "grid.json"),
                 "--data-dir", str(data), "--out", str(out)]) == 0
    assert _digest(out) == GOLDEN["run/results.csv"]


def test_a_failed_rename_in_the_canonical_rewrite_keeps_the_streamed_file(tmp_path, monkeypatch):
    """The rename that ends the canonical rewrite fails: the streamed rows stay
    whole, no temporary file is left, and a resume writes the golden bytes."""
    monkeypatch.delenv(SEED_ENV, raising=False)
    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_SPEC))
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(tmp_path / "synth.json"),
                 "--out-dir", str(data)]) == 0
    grid, datasets = GridSpec.from_dict(GRID), load_dataset_dir(data)
    out = tmp_path / "results.csv"
    renames = []

    def failing_replace(src, dst):
        renames.append((os.fspath(src), os.fspath(dst)))
        raise OSError(errno.EIO, "rename failed")

    with monkeypatch.context() as mp:
        mp.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            run_grid(grid, datasets, out)
    [(src, dst)] = renames
    assert dst == str(out) and os.path.dirname(src) == str(tmp_path) and src.endswith(".tmp")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "results.csv", "synth.json"]
    assert not list(data.rglob("*.tmp"))
    assert out.read_bytes().endswith(b"\n")
    streamed = [r.spec.key() for r in parse_results_file(out)]
    want = run_grid(grid, datasets, tmp_path / "fresh.csv")
    # the rows as streamed, in run-unit order, not rewritten in enumeration order
    assert streamed != [r.spec.key() for r in want]
    assert sorted(streamed) == sorted(r.spec.key() for r in want)

    resumed = run_grid(grid, datasets, out, resume=True)
    assert [r.spec.key() for r in resumed] == [r.spec.key() for r in want]
    assert _digest(out) == GOLDEN["run/results.csv"]
    assert not list(tmp_path.glob("*.tmp"))
