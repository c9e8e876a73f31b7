"""File formats, raster fractions, composites, and the synthetic generator."""

import errno
import io
import itertools
import json
import os
import re
import stat
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import probeforge.ingest as ingest_mod
from probeforge.core import ClassId, validate_dataset
from probeforge.errors import AlignmentError, DataFormatError
from probeforge.ingest import (
    CODE_TO_CLASS,
    ImageStack,
    LabelGrid,
    NODATA_CODE,
    PRODUCT_CODES,
    SynthSpec,
    compute_class_fractions,
    load_chip_table,
    load_dataset_dir,
    load_embeddings,
    meteorological_season,
    noise_sigma_for_correlation,
    presquash_correlation,
    save_chip_table,
    save_embeddings,
    seasonal_median_composite,
    synthesize_dataset,
    write_dataset_dir,
)
from probeforge.metrics import pearson
from probeforge.probe import fit, predict

CHIP_LINE = json.dumps({
    "chip_id": "c1", "aoi": "colombia", "lon": -74.1, "lat": 4.6,
    "fractions": {
        "tree-cover": 0.6, "shrubland": 0.1, "grassland": 0.1, "cropland": 0.1,
        "builtup": 0.05, "bare-sparse-vegetation": 0.03, "permanent-water": 0.02,
    },
    "elevation_m": 2600.0,
})


# ---------------------------------------------------------------------------
# chip tables


def test_chip_table_two_lines(tmp_path):
    p = tmp_path / "chips.jsonl"
    second = CHIP_LINE.replace('"c1"', '"c2"')
    p.write_text(CHIP_LINE + "\n" + second + "\n")
    table = load_chip_table(p)
    assert len(table) == 2
    assert table.chip_ids == ("c1", "c2")
    assert table.aois.tolist() == ["colombia", "colombia"]
    assert table.fractions[0, ClassId.TREE_COVER] == 0.6
    assert table.lon[0] == -74.1 and table.lat[0] == 4.6
    assert table.elevations[0] == 2600.0


def test_chip_table_empty_file(tmp_path):
    p = tmp_path / "chips.jsonl"
    p.write_text("")
    assert len(load_chip_table(p)) == 0


def test_chip_table_duplicate_id_names_it(tmp_path):
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE + "\n" + CHIP_LINE + "\n")
    with pytest.raises(DataFormatError, match="c1"):
        load_chip_table(p)


def test_chip_table_malformed_line_carries_number(tmp_path):
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE + "\n{not json\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_chip_table(p)


def test_chip_table_missing_key_carries_number(tmp_path):
    rec = json.loads(CHIP_LINE)
    del rec["elevation_m"]
    p = tmp_path / "chips.jsonl"
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_chip_table(p)


@pytest.mark.parametrize("key, value", [
    ("chip_id", None), ("chip_id", 7), ("chip_id", 1.0), ("chip_id", True),
    ("aoi", 3), ("aoi", None), ("aoi", ["colombia"]),
], ids=["id-null", "id-int", "id-float", "id-bool", "aoi-int", "aoi-null", "aoi-list"])
def test_chip_table_non_string_id_or_aoi_names_the_line(tmp_path, key, value):
    # a converted id such as "1.0" would fail, without a word, to join the
    # .idx line "1"
    rec = json.loads(CHIP_LINE)
    rec[key] = value
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE.replace('"c1"', '"c0"') + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError,
                       match=rf"chips\.jsonl: line 2: {key} must be a JSON string"):
        load_chip_table(p)


def test_chip_table_unknown_keys_ignored(tmp_path):
    rec = json.loads(CHIP_LINE)
    rec["extra"] = {"nested": True}
    p = tmp_path / "chips.jsonl"
    p.write_text(json.dumps(rec) + "\n")
    assert len(load_chip_table(p)) == 1


def test_chip_table_unknown_class_label_rejected(tmp_path):
    rec = json.loads(CHIP_LINE)
    rec["fractions"]["snow"] = rec["fractions"].pop("builtup")
    p = tmp_path / "chips.jsonl"
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError, match="snow"):
        load_chip_table(p)


def test_chip_table_missing_class_named(tmp_path):
    rec = json.loads(CHIP_LINE)
    del rec["fractions"]["builtup"]
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE.replace('"c1"', '"c0"') + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError, match=r"line 2: .*missing: \['builtup'\]"):
        load_chip_table(p)


def test_chip_table_round_trip(tmp_path, small_synth):
    p = tmp_path / "chips.jsonl"
    save_chip_table(small_synth.table, p)
    again = load_chip_table(p)
    assert again == small_synth.table


@pytest.mark.parametrize("key, value", [
    ("lon", "8.5"), ("lat", True), ("elevation_m", "NaN"), ("elevation_m", False),
    ("tree-cover", True), ("permanent-water", "0.02"), ("lon", None), ("lat", [4.6]),
], ids=["lon-str", "lat-bool", "elev-nan-str", "elev-bool", "fraction-bool",
        "fraction-str", "lon-null", "lat-list"])
def test_chip_table_non_number_names_the_line_and_key(tmp_path, key, value):
    # float() takes true and "8.5", so a typo'd export once loaded as 1.0 and 8.5
    rec = json.loads(CHIP_LINE)
    if key in rec:
        rec[key] = value
        name = key
    else:
        rec["fractions"][key] = value
        name = f"fractions[{key!r}]"
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE.replace('"c1"', '"c0"') + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError) as info:
        load_chip_table(p)
    assert str(info.value) == f"{p}: line 2: {name} must be a JSON number, got {value!r}"
    assert sorted(tmp_path.iterdir()) == [p]


def test_chip_table_takes_integers_and_the_nan_and_infinity_literals(tmp_path):
    line = CHIP_LINE.replace("-74.1", "-74").replace("2600.0", "NaN").replace(
        "0.6", "Infinity").replace("0.05", "0").replace("4.6", "-Infinity")
    p = tmp_path / "chips.jsonl"
    p.write_text(line + "\n")
    table = load_chip_table(p)
    assert table.lon.tolist() == [-74.0] and table.lat.tolist() == [-np.inf]
    assert np.isnan(table.elevations[0])
    assert table.fractions[0, ClassId.TREE_COVER] == np.inf
    assert table.fractions[0, ClassId.BUILTUP] == 0.0


def test_chip_table_integer_too_large_for_a_float_names_the_line(tmp_path):
    # float() raises OverflowError, which is no ValueError, for such an integer
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE.replace("2600.0", "1" + "0" * 400) + "\n")
    with pytest.raises(DataFormatError, match="line 1: int too large"):
        load_chip_table(p)


# ---------------------------------------------------------------------------
# the chip-table column cache


def _cols(p):
    return p.with_name(p.name + ".cols")


def _no_parse(monkeypatch):
    def refuse(path, blob):
        raise AssertionError(f"{path} was parsed, not served from its cache")
    monkeypatch.setattr(ingest_mod, "_parse_chips", refuse)


def test_chip_table_cache_is_written_by_a_parse_and_serves_the_next_load(
        tmp_path, small_synth, monkeypatch):
    p = tmp_path / "chips.jsonl"
    save_chip_table(small_synth.table, p)
    first = load_chip_table(p)
    assert sorted(x.name for x in tmp_path.iterdir()) == ["chips.jsonl", "chips.jsonl.cols"]
    with monkeypatch.context() as m:
        _no_parse(m)
        served = load_chip_table(p)
    assert served == first == small_synth.table
    for name in ("lon", "lat", "fractions", "elevations"):
        assert getattr(served, name).tobytes() == getattr(first, name).tobytes()
        assert not getattr(served, name).flags.writeable
    assert served.aois.dtype == object and served.aois.tolist() == first.aois.tolist()


def test_chip_table_is_streamed_through_its_digest_only_when_a_cache_exists(
        tmp_path, small_synth, monkeypatch):
    p = tmp_path / "chips.jsonl"
    save_chip_table(small_synth.table, p)
    streamed = []
    digest = ingest_mod._digest
    monkeypatch.setattr(ingest_mod, "_digest", lambda fh: streamed.append(fh) or digest(fh))
    assert load_chip_table(p) == small_synth.table  # no cache: read and hashed once
    assert streamed == [] and _cols(p).exists()
    assert load_chip_table(p) == small_synth.table
    assert len(streamed) == 1


def test_chip_table_cache_of_an_empty_file(tmp_path, monkeypatch):
    p = tmp_path / "chips.jsonl"
    p.write_text("\n\n")
    assert len(load_chip_table(p)) == 0
    _no_parse(monkeypatch)
    assert len(load_chip_table(p)) == 0


def test_chip_table_cache_keeps_every_string_and_float_exactly(tmp_path, monkeypatch):
    fr = json.loads(CHIP_LINE)["fractions"]
    recs = [
        {"chip_id": "", "aoi": "", "lon": -0.0, "lat": 0.0, "elevation_m": float("nan")},
        {"chip_id": "a\nb\u0000c", "aoi": "z\u00fcrich \u2028", "lon": 1e-310,
         "lat": float("inf"), "elevation_m": -1},
        {"chip_id": "\ud800\U0001f600", "aoi": "\r", "lon": 5e-324, "lat": -0.0,
         "elevation_m": 1.7976931348623157e308},
    ]
    lines = [json.dumps({**r, "fractions": dict(reversed(fr.items()))}) for r in recs]
    # raw UTF-8 on the line; U+2028 ends a line for str.splitlines, not for a file
    lines[1] = lines[1].replace("\\u00fc", "\u00fc").replace("\\u2028", "\u2028")
    p = tmp_path / "chips.jsonl"
    p.write_bytes(("\r\n" + lines[0] + "\r\n  \n" + lines[1] + "\r" + lines[2]).encode())
    parsed = load_chip_table(p)
    assert parsed.chip_ids == ("", "a\nb\u0000c", "\ud800\U0001f600")
    assert parsed.aois.tolist() == ["", "z\u00fcrich \u2028", "\r"]
    _no_parse(monkeypatch)
    served = load_chip_table(p)
    assert served.chip_ids == parsed.chip_ids
    assert served.aois.tolist() == parsed.aois.tolist()
    for name in ("lon", "lat", "fractions", "elevations"):
        assert getattr(served, name).tobytes() == getattr(parsed, name).tobytes()


def test_chip_table_one_byte_edit_is_never_served_from_the_cache(tmp_path):
    p = tmp_path / "chips.jsonl"
    lines = [CHIP_LINE.replace('"c1"', f'"c{i}"') for i in range(3)]
    p.write_text("\n".join(lines) + "\n")
    blob = p.read_bytes()
    load_chip_table(p)
    for i, byte in enumerate(blob):
        if not chr(byte).isdigit():
            continue
        edited = blob[:i] + str((int(chr(byte)) + 1) % 10).encode() + blob[i + 1:]
        p.write_bytes(edited)
        try:
            want = ingest_mod._parse_chips(p, edited)
        except DataFormatError:  # such as an id edited into its neighbour's
            with pytest.raises(DataFormatError):
                load_chip_table(p)
        else:
            assert load_chip_table(p) == want
            assert load_chip_table(p) == want  # the cache now holds the edit
        p.write_bytes(blob)
    # the same length, so nothing but the digest tells the files apart
    p.write_bytes(blob.replace(b'"c1"', b'"d1"'))
    assert load_chip_table(p).chip_ids == ("c0", "d1", "c2")


def _flip(blob, at):
    return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]


@pytest.mark.parametrize("damage", [
    lambda b: b"",
    lambda b: b[:40],
    lambda b: b[:-1],
    lambda b: b + b"\0",
    lambda b: _flip(b, 2),                   # magic
    lambda b: b[:4] + struct.pack("<I", ingest_mod._COLS_VERSION + 1) + b[8:],
    lambda b: _flip(b, 9),                   # chip count
    lambda b: _flip(b, 20),                  # chip-file digest
    lambda b: _flip(b, 60),                  # payload digest
    lambda b: _flip(b, 90),                  # a value
    lambda b: _flip(b, len(b) - 3),          # an AOI label
], ids=["empty", "torn-header", "torn-payload", "trailing-byte", "magic", "version",
        "count", "chips-digest", "payload-digest", "value", "label"])
def test_chip_table_damaged_cache_gives_the_same_table_and_is_rewritten(
        tmp_path, small_synth, damage):
    p = tmp_path / "chips.jsonl"
    save_chip_table(small_synth.table, p)
    load_chip_table(p)
    good = _cols(p).read_bytes()
    _cols(p).write_bytes(damage(good))
    assert load_chip_table(p) == small_synth.table
    assert _cols(p).read_bytes() == good


def test_chip_table_cache_with_valid_digests_but_inconsistent_payload_is_refused(
        tmp_path, small_synth):
    # only a bug could write one, but the reader still checks what it slices
    p = tmp_path / "chips.jsonl"
    save_chip_table(small_synth.table, p)
    load_chip_table(p)
    good = _cols(p).read_bytes()
    head = ingest_mod._COLS_HEAD
    magic, version, n, chips_sha, _ = head.unpack_from(good)
    values = good[head.size:head.size + 80 * n]
    ids, aois = list(small_synth.table.chip_ids), small_synth.table.aois.tolist()
    for payload in (good[head.size:] + b"x", good[head.size:-1],
                    values + json.dumps([ids[:-1], aois]).encode(),   # an id short
                    values + json.dumps([ids, aois[1:]]).encode(),    # an AOI short
                    values + json.dumps([ids]).encode(),              # one list
                    values + json.dumps([ids, aois, aois]).encode(),  # three lists
                    values + json.dumps({"ids": ids, "aois": aois}).encode(),
                    values + json.dumps(7).encode(),
                    values + b"\xff\xfe not JSON"):
        digest = ingest_mod.hashlib.sha256(payload).digest()
        _cols(p).write_bytes(head.pack(magic, version, n, chips_sha, digest) + payload)
        assert load_chip_table(p) == small_synth.table
        assert _cols(p).read_bytes() == good


@pytest.mark.parametrize("damage", ["count-beyond-file", "payload-digest", "cut-in-tail"])
def test_chip_table_cache_is_checked_before_its_payload_is_used(tmp_path, small_synth, damage):
    p = tmp_path / "chips.jsonl"
    save_chip_table(small_synth.table, p)
    load_chip_table(p)
    good = _cols(p).read_bytes()
    head = ingest_mod._COLS_HEAD
    magic, version, n, chips_sha, payload_sha = head.unpack_from(good)
    values_end = head.size + 80 * n
    if damage == "count-beyond-file":  # rows that no file could hold
        bad = head.pack(magic, version, 1 << 56, chips_sha, payload_sha) + good[head.size:]
    elif damage == "payload-digest":
        bad = head.pack(magic, version, n, chips_sha, bytes(32)) + good[head.size:]
    else:
        bad = good[:(values_end + len(good)) // 2]
    _cols(p).write_bytes(bad)
    tracemalloc.start()
    try:
        assert ingest_mod._read_columns(_cols(p)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if damage == "count-beyond-file":
        assert peak < 80 * n  # not even the rows the file does hold
    assert load_chip_table(p) == small_synth.table
    assert _cols(p).read_bytes() == good


def test_chip_table_cache_hit_never_holds_the_chip_file_whole(tmp_path):
    p = tmp_path / "chips.jsonl"
    table = synthesize_dataset(SynthSpec(n_chips=5000, dim=4)).table
    save_chip_table(table, p)
    size = p.stat().st_size
    assert size > 2_000_000
    load_chip_table(p)  # writes the cache
    tracemalloc.start()
    try:
        served = load_chip_table(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert served == table
    assert peak < size


def _eio(fh):
    raise OSError(errno.EIO, "Input/output error")


#: Runs a test with the chip digest on a second lane, and inline; each test
#: sets ``_HASH_THREAD_BYTES`` so that its small file takes that path.
_HASH_PATHS = pytest.mark.parametrize("helper", [True, False], ids=["helper", "inline"])


@_HASH_PATHS
def test_chip_table_digest_error_is_raised_by_the_load_and_run_exits_2(
        tmp_path, small_synth, monkeypatch, capsys, helper):
    from probeforge.cli import main

    root = tmp_path / "data"
    write_dataset_dir(small_synth, root)
    load_chip_table(root / "chips.jsonl")  # writes the cache, so the next load hashes
    monkeypatch.setattr(ingest_mod, "_HASH_THREAD_BYTES", 0 if helper else 1 << 62)
    monkeypatch.setattr(ingest_mod, "_usable_cpus", lambda: 2)  # two lanes on any host
    monkeypatch.setattr(ingest_mod, "_digest", _eio)
    _no_parse(monkeypatch)  # an unread digest must not become a silent re-parse
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    with pytest.raises(OSError, match="Input/output error"):
        load_chip_table(root / "chips.jsonl")
    grid = {"fms": ["alpha-s1"], "classes": ["tree-cover"], "samplers": ["random"],
            "target_aois": ["aoi-00"], "n_train_target": [20], "n_test_target": [10],
            "regimes": ["target-split"], "repetitions": 2, "base_seed": 5}
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    capsys.readouterr()
    assert main(["run", "--grid", str(tmp_path / "grid.json"), "--data-dir", str(root),
                 "--out", str(tmp_path / "results.csv")]) == 2
    assert "Input/output error" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()
    assert unhandled == []


@_HASH_PATHS
def test_chip_table_load_leaves_no_thread_alive(tmp_path, small_synth, monkeypatch, helper):
    p = tmp_path / "chips.jsonl"
    save_chip_table(small_synth.table, p)
    monkeypatch.setattr(ingest_mod, "_HASH_THREAD_BYTES",
                        p.stat().st_size if helper else p.stat().st_size + 1)
    monkeypatch.setattr(ingest_mod, "_usable_cpus", lambda: 2)  # two lanes on any host
    before = threading.enumerate()
    hashed_on = []
    digest = ingest_mod._digest
    monkeypatch.setattr(ingest_mod, "_digest",
                        lambda fh: hashed_on.append(threading.current_thread()) or digest(fh))
    assert load_chip_table(p) == small_synth.table  # miss: no cache yet
    assert threading.enumerate() == before and hashed_on == []
    assert load_chip_table(p) == small_synth.table  # hit
    assert threading.enumerate() == before
    assert len(hashed_on) == 1
    assert (hashed_on[0] is threading.current_thread()) is not helper
    p.write_bytes(p.read_bytes() + b"\n")  # stale: other bytes, the same table
    assert load_chip_table(p) == small_synth.table
    assert threading.enumerate() == before and len(hashed_on) == 2
    monkeypatch.setattr(ingest_mod, "_digest", _eio)
    with pytest.raises(OSError):
        load_chip_table(p)
    assert threading.enumerate() == before


_BAD_CHIPS = {
    "malformed": CHIP_LINE + "\n{not json\n",
    "duplicate": CHIP_LINE + "\n" + CHIP_LINE + "\n",
    "missing-class": CHIP_LINE.replace('"builtup": 0.05, ', "") + "\n",
    "unknown-class": CHIP_LINE.replace("builtup", "snow") + "\n",
    "missing-key": CHIP_LINE.replace('"elevation_m"', '"elev"') + "\n",
    "id-number": CHIP_LINE.replace('"c1"', "7") + "\n",
    "fraction-bool": CHIP_LINE.replace("0.6", "true") + "\n",
    "not-an-object": "[1, 2]\n",
    "bad-utf8": b"\xff" + CHIP_LINE.encode(),
}


@pytest.mark.parametrize("case", sorted(_BAD_CHIPS))
def test_chip_table_refusal_leaves_no_cache_and_no_temporary_file(tmp_path, case):
    content = _BAD_CHIPS[case]
    p = tmp_path / "chips.jsonl"
    if isinstance(content, bytes):
        p.write_bytes(content)
    else:
        p.write_text(content)
    with pytest.raises(DataFormatError, match=re.escape(f"{p}: line ")):
        load_chip_table(p)
    assert sorted(tmp_path.iterdir()) == [p]


#: bytes no UTF-8 text holds: a bad start, a bad continuation, an encoded surrogate
_NOT_UTF8 = [b"\xff", b"\xe2\x82(", b"\xed\xa0\x80"]


@pytest.mark.parametrize("bad", _NOT_UTF8, ids=["start", "continuation", "surrogate"])
def test_chip_table_bad_utf8_names_its_line(tmp_path, bad):
    # well past the decoder's first chunk, with every line end and blank lines counted
    ends = ["\n", "\r\n", "\r", "\n\n", " \r\n"]
    lines = [CHIP_LINE.replace('"c1"', f'"c{i}"') + ends[i % 5] for i in range(60)]
    text = "".join(lines)
    lineno = 1 + sum(end.count("\n") + end.count("\r") - end.count("\r\n")
                     for end in ends * 8)
    at = len("".join(lines[:40])) + 10  # inside the 41st record
    p = tmp_path / "chips.jsonl"
    p.write_bytes(text[:at].encode() + bad + text[at:].encode())
    with pytest.raises(DataFormatError) as info:
        load_chip_table(p)
    assert str(info.value).startswith(f"{p}: line {lineno}: not valid UTF-8 (byte 0x")
    assert sorted(tmp_path.iterdir()) == [p]


def test_chip_table_fault_a_block_ahead_of_bad_utf8_is_reported_first(tmp_path):
    lines = [CHIP_LINE.replace('"c1"', f'"c{i}"') for i in range(100)]
    lines[1] = "{not json"
    blob = "\n".join(lines).encode()
    at = len("\n".join(lines[:90])) + 5  # line 91, well past the first decoded block
    p = tmp_path / "chips.jsonl"
    p.write_bytes(blob[:at] + b"\xff" + blob[at:])
    with pytest.raises(DataFormatError, match=r"chips\.jsonl: line 2: Expecting"):
        load_chip_table(p)


def test_chip_table_fault_in_the_block_of_bad_utf8_is_reported_first(tmp_path):
    lines = [CHIP_LINE.replace('"c1"', f'"c{i}"') for i in range(30)]
    lines[1] = "{not json"
    blob = "\n".join(lines).encode()
    at = len("\n".join(lines[:19])) + 5  # line 20, in the same decoded block as line 2
    assert at < ingest_mod._TEXT_BLOCK
    p = tmp_path / "chips.jsonl"
    p.write_bytes(blob[:at] + b"\xff" + blob[at:])
    with pytest.raises(DataFormatError, match=r"chips\.jsonl: line 2: Expecting"):
        load_chip_table(p)


def _file_lines(blob, errors="strict"):
    """The reference: a text file's lines, read one at a time, ends dropped."""
    text = io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8", errors=errors)
    return [line.rstrip("\n") for line in text]


@pytest.mark.parametrize("block", [0, 1, 3, ingest_mod._TEXT_BLOCK])
def test_text_lines_split_as_a_text_file_does(monkeypatch, block):
    monkeypatch.setattr(ingest_mod, "_TEXT_BLOCK", block)
    for n in range(6):
        for pieces in itertools.product(["a", "\u00e9", "\r", "\n", "\u2028"], repeat=n):
            blob = "".join(pieces).encode()
            assert list(ingest_mod._text_lines("f", blob)) == _file_lines(blob), blob


@pytest.mark.parametrize("block", [0, 1, 3, ingest_mod._TEXT_BLOCK])
def test_text_lines_name_the_line_of_a_bad_byte(monkeypatch, block):
    monkeypatch.setattr(ingest_mod, "_TEXT_BLOCK", block)
    for n in range(5):
        for pieces in itertools.product(["a", "\u00e9", "\r", "\n"], repeat=n):
            for cut in range(n + 1):
                blob = "".join(pieces[:cut]).encode() + b"\xff" + "".join(pieces[cut:]).encode()
                lines = _file_lines(blob, errors="surrogateescape")
                want = next(i for i, line in enumerate(lines, 1) if "\udcff" in line)
                with pytest.raises(DataFormatError) as info:
                    list(ingest_mod._text_lines("f", blob))
                assert str(info.value) == (
                    f"f: line {want}: not valid UTF-8 (byte 0xff: invalid start byte)")


@pytest.mark.parametrize("block", [0, 1, 3, ingest_mod._TEXT_BLOCK])
def test_text_lines_yield_every_line_ahead_of_a_bad_byte(monkeypatch, block):
    monkeypatch.setattr(ingest_mod, "_TEXT_BLOCK", block)
    for n in range(5):
        for pieces in itertools.product(["a", "\u00e9", "\r", "\n"], repeat=n):
            for cut in range(n + 1):
                blob = "".join(pieces[:cut]).encode() + b"\xff" + "".join(pieces[cut:]).encode()
                lines = _file_lines(blob, errors="surrogateescape")
                want = next(i for i, line in enumerate(lines, 1) if "\udcff" in line)
                got = []
                with pytest.raises(DataFormatError):
                    got.extend(ingest_mod._text_lines("f", blob))
                assert got == lines[:want - 1], blob


def test_chip_table_truncated_utf8_at_the_end_names_the_last_line(tmp_path):
    p = tmp_path / "chips.jsonl"
    p.write_bytes((CHIP_LINE + "\r\n\r\n" + CHIP_LINE[:-1]).encode() + b"\xe2\x82")
    with pytest.raises(DataFormatError, match=r"line 3: not valid UTF-8 \(byte 0xe2: "
                                              r"unexpected end of data\)"):
        load_chip_table(p)


def test_chip_table_refused_edit_of_a_cached_file_is_still_refused(tmp_path):
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE + "\n")
    load_chip_table(p)
    cached = _cols(p).read_bytes()
    p.write_text(CHIP_LINE + "\n" + CHIP_LINE + "\n")
    with pytest.raises(DataFormatError, match="line 2: duplicate chip_id"):
        load_chip_table(p)
    assert _cols(p).read_bytes() == cached
    assert sorted(x.name for x in tmp_path.iterdir()) == ["chips.jsonl", "chips.jsonl.cols"]


@pytest.mark.parametrize("fails", ["open", "write", "replace"])
def test_chip_table_loads_when_the_cache_cannot_be_written(
        tmp_path, small_synth, monkeypatch, caplog, fails):
    # as root, chmod does not stop a write, so the write itself is made to fail
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")
    p = tmp_path / "chips.jsonl"
    save_chip_table(small_synth.table, p)
    with monkeypatch.context() as m, caplog.at_level("DEBUG", logger="probeforge.ingest"):
        if fails == "write":
            m.setattr(ingest_mod.os, "fdopen", lambda fd, mode: _Full(fd))
        else:
            m.setattr(ingest_mod.os, fails, refuse)
        assert load_chip_table(p) == small_synth.table
    assert "chip column cache" in caplog.text and "not written" in caplog.text
    assert sorted(tmp_path.iterdir()) == [p]


class _Full:
    """A file whose every write fails as on a full disk."""

    def __init__(self, fd):
        self.fd = fd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        ingest_mod.os.close(self.fd)

    def write(self, data):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_chip_table_cache_permissions_follow_the_umask(tmp_path, umask):
    p = tmp_path / "chips.jsonl"
    p.write_text(CHIP_LINE + "\n")
    old = os.umask(umask)
    try:
        load_chip_table(p)
    finally:
        os.umask(old)
    assert stat.S_IMODE(_cols(p).stat().st_mode) == 0o666 & ~umask


def test_chip_table_concurrent_loads_always_get_the_right_table(tmp_path, small_synth):
    p = tmp_path / "chips.jsonl"
    save_chip_table(small_synth.table, p)
    errors, stop = [], threading.Event()

    def loader():
        try:
            while not stop.is_set():
                if load_chip_table(p) != small_synth.table:
                    errors.append("wrong table")
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(repr(exc))

    def dropper():
        while not stop.is_set():
            _cols(p).unlink(missing_ok=True)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=loader) for _ in range(4)]
        workers.append(threading.Thread(target=dropper))
        for w in workers:
            w.start()
        time.sleep(1.0)
        stop.set()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert {x.name for x in tmp_path.iterdir()} <= {"chips.jsonl", "chips.jsonl.cols"}


def test_synth_writes_no_cache(tmp_path, small_synth):
    write_dataset_dir(small_synth, tmp_path / "data")
    assert not _cols(tmp_path / "data" / "chips.jsonl").exists()


@pytest.mark.parametrize("value", ["-0.5", "1.5", "NaN"])
def test_out_of_range_fractions_load_but_get_no_cache(tmp_path, small_synth, value):
    # validate lists them, so the table loads; run refuses them, so no cache
    write_dataset_dir(small_synth, tmp_path / "data")
    p = tmp_path / "data" / "chips.jsonl"
    p.write_text(re.sub(r'"tree-cover": [^,]+', f'"tree-cover": {value}', p.read_text(), 1))
    assert len(load_chip_table(p)) == len(small_synth.table)
    for _ in range(2):
        with pytest.raises(DataFormatError, match="'chip-000000': fraction out of range"):
            load_dataset_dir(tmp_path / "data")
    assert not _cols(p).exists()


# ---------------------------------------------------------------------------
# embeddings


def make_emb(rng, n=5, d=4, fm_id="m-s2"):
    from probeforge.core import EmbeddingSet

    m = rng.standard_normal((n, d)).astype(np.float32)
    ids = tuple(f"c{i}" for i in range(n))
    return EmbeddingSet(fm_id=fm_id, chip_ids=ids, matrix=m)


def _load_keeping(tmp_path, chips):
    """``m.emb`` in ``tmp_path``, keeping the rows of ``chips`` (every row when
    None) through the join the directory loader makes."""
    idx = tmp_path / "m.idx"
    join = None if chips is None else ingest_mod._join_index(idx, idx.read_bytes(), chips)
    return load_embeddings(tmp_path / "m.emb", idx, "m-s2", join=join)


def test_embeddings_round_trip_bit_exact(tmp_path, rng):
    emb = make_emb(rng)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    again = load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")
    assert again.fm_id == "m-s2" and again.chip_ids == emb.chip_ids
    assert again.matrix.shape == emb.matrix.shape
    assert again.matrix.tobytes() == emb.matrix.tobytes()


def test_embeddings_index_count_mismatch(tmp_path, rng):
    emb = make_emb(rng, n=3)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    (tmp_path / "m.idx").write_text("c0\nc1\n")
    with pytest.raises(DataFormatError, match="index/header mismatch"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", emb.fm_id)


#: characters that str.splitlines ends a line at and a text file does not
_LINE_SEPARATORS = ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("sep", _LINE_SEPARATORS,
                         ids=[f"U+{ord(c):04X}" for c in _LINE_SEPARATORS])
def test_embeddings_index_ids_may_hold_unicode_line_separators(tmp_path, rng, sep):
    from probeforge.core import EmbeddingSet

    ids = ("a", f"b{sep}c", f"{sep}", f"d{sep}")
    emb = EmbeddingSet(fm_id="m-s2", chip_ids=ids,
                       matrix=rng.standard_normal((4, 3)).astype(np.float32))
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    again = load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")
    assert again.chip_ids == ids
    assert again.matrix.tobytes() == emb.matrix.tobytes()
    kept = _load_keeping(tmp_path, (ids[2], "b"))
    assert kept.chip_ids == (ids[2],)


@pytest.mark.parametrize("bad", ["a\rb", "a\nb", "\ud800"], ids=["cr", "lf", "lone-surrogate"])
def test_embeddings_id_the_index_cannot_hold_is_refused_before_any_write(tmp_path, rng, bad):
    from probeforge.core import EmbeddingSet

    emb = EmbeddingSet(fm_id="m-s2", chip_ids=("x", bad),
                       matrix=rng.standard_normal((2, 3)).astype(np.float32))
    with pytest.raises(DataFormatError, match=re.escape(repr(bad))):
        save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", _NOT_UTF8, ids=["start", "continuation", "surrogate"])
def test_embeddings_bad_utf8_index_names_its_line(tmp_path, rng, bad):
    emb = make_emb(rng, n=3000)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    idx = (tmp_path / "m.idx").read_bytes()
    at = idx.index(b"c2500\n") + 2  # past the decoder's first chunk
    (tmp_path / "m.idx").write_bytes(idx[:at] + bad + idx[at:])
    with pytest.raises(DataFormatError) as info:
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")
    assert str(info.value).startswith(
        f"{tmp_path / 'm.idx'}: line 2501: not valid UTF-8 (byte 0x")


def test_embeddings_bad_magic(tmp_path, rng):
    emb = make_emb(rng)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    blob = (tmp_path / "m.emb").read_bytes()
    (tmp_path / "m.emb").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DataFormatError, match="magic"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", emb.fm_id)


def test_embeddings_truncated_payload(tmp_path, rng):
    emb = make_emb(rng)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    blob = (tmp_path / "m.emb").read_bytes()
    (tmp_path / "m.emb").write_bytes(blob[:-4])
    with pytest.raises(DataFormatError, match="bytes"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", emb.fm_id)


def test_embeddings_non_finite_row_named(tmp_path, rng):
    from probeforge.core import EmbeddingSet

    m = rng.standard_normal((4, 3)).astype(np.float32)
    m[2, 1] = np.nan
    emb = EmbeddingSet(fm_id="m-s2", chip_ids=("a", "b", "c", "d"), matrix=m)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    with pytest.raises(DataFormatError, match="row 2"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")


def test_embeddings_duplicate_id_names_the_index_line(tmp_path, rng):
    emb = make_emb(rng, n=4)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    (tmp_path / "m.idx").write_text("c0\nc1\nc2\nc1\n")
    with pytest.raises(DataFormatError) as info:
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", emb.fm_id)
    assert str(info.value) == f"{tmp_path / 'm.idx'}: line 4: duplicate chip_id: 'c1'"


def test_embeddings_zero_dim_names_the_matrix_file(tmp_path):
    (tmp_path / "m.emb").write_bytes(b"EMB1" + struct.pack("<IQ", 0, 2))
    (tmp_path / "m.idx").write_text("c0\nc1\n")
    with pytest.raises(DataFormatError, match=r"m\.emb: embedding matrix has no columns"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")


def test_embeddings_zero_dim_is_reported_before_a_repeated_id(tmp_path):
    (tmp_path / "m.emb").write_bytes(b"EMB1" + struct.pack("<IQ", 0, 2))
    (tmp_path / "m.idx").write_text("c0\nc0\n")
    with pytest.raises(DataFormatError, match=r"m\.emb: embedding matrix has no columns"):
        load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")


def test_embeddings_keep_only_the_chips_asked_for_in_their_order(tmp_path, rng):
    emb = make_emb(rng, n=5)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    got = _load_keeping(tmp_path, ("c3", "zz", "c0", "c4"))
    assert got.chip_ids == ("c3", "c0", "c4")
    assert got.matrix.tobytes() == emb.matrix[[3, 0, 4]].tobytes()
    assert not got.matrix.flags.writeable
    none = _load_keeping(tmp_path, ())
    assert none.chip_ids == () and none.matrix.shape == (0, emb.matrix.shape[1])


@pytest.mark.parametrize("block_rows", [1, 2, 3, 64])
@pytest.mark.parametrize("chips", [None, ("c0",)], ids=["all", "one"])
def test_embeddings_check_every_row_in_every_block(tmp_path, rng, monkeypatch,
                                                   block_rows, chips):
    emb = make_emb(rng, n=7, d=3)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    monkeypatch.setattr(ingest_mod, "_BLOCK_BYTES", 4 * 3 * block_rows)
    again = load_embeddings(tmp_path / "m.emb", tmp_path / "m.idx", "m-s2")
    assert again.matrix.tobytes() == emb.matrix.tobytes()
    blob = bytearray((tmp_path / "m.emb").read_bytes())
    blob[16 + 4 * 3 * 5 + 8:16 + 4 * 3 * 5 + 12] = struct.pack("<f", float("inf"))
    (tmp_path / "m.emb").write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match=r"first offending row 5 \(chip 'c5'\)"):
        _load_keeping(tmp_path, chips)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("row, chips", [(7, None), (7, ("c0", "c7")), (4, ("c0", "c1"))],
                         ids=["last-block", "last-block-kept", "not-kept"])
def test_embeddings_non_finite_value_names_its_row_and_chip(tmp_path, rng, monkeypatch,
                                                            value, row, chips):
    # blocks of 3 rows over 8: rows 6 and 7 make the last, partial block
    emb = make_emb(rng, n=8, d=3)
    m = emb.matrix.copy()
    m[row, 2] = value
    save_embeddings(type(emb)(fm_id=emb.fm_id, chip_ids=emb.chip_ids, matrix=m),
                    tmp_path / "m.emb", tmp_path / "m.idx")
    monkeypatch.setattr(ingest_mod, "_BLOCK_BYTES", 4 * 3 * 3)
    with pytest.raises(DataFormatError) as info:
        _load_keeping(tmp_path, chips)
    assert str(info.value) == (f"{tmp_path / 'm.emb'}: non-finite values,"
                               f" first offending row {row} (chip 'c{row}')")


def test_embeddings_repeated_id_outside_the_kept_chips_is_refused(tmp_path, rng):
    emb = make_emb(rng, n=4)
    save_embeddings(emb, tmp_path / "m.emb", tmp_path / "m.idx")
    (tmp_path / "m.idx").write_text("c0\nc1\nc2\nc1\n")
    with pytest.raises(DataFormatError, match=r"m\.idx: line 4: duplicate chip_id: 'c1'"):
        _load_keeping(tmp_path, ("c0",))


# ---------------------------------------------------------------------------
# label grids


def test_label_grid_rejects_unknown_codes():
    with pytest.raises(ValueError, match="15"):
        LabelGrid(codes=np.array([[10, 15]], dtype=np.int32))


def test_fractions_single_class_grid():
    grid = LabelGrid(codes=np.full((512, 512), 10, dtype=np.int32))
    fr = compute_class_fractions(grid)
    assert fr[ClassId.TREE_COVER] == 1.0
    assert all(fr[c] == 0.0 for c in ClassId if c is not ClassId.TREE_COVER)


def test_fractions_exclude_nodata_from_denominator():
    grid = LabelGrid(codes=np.array([[40, 40], [50, NODATA_CODE]], dtype=np.int32))
    fr = compute_class_fractions(grid)
    assert np.isclose(fr[ClassId.CROPLAND], 2 / 3)
    assert np.isclose(fr[ClassId.BUILTUP], 1 / 3)


def test_fractions_all_nodata_is_an_error():
    grid = LabelGrid(codes=np.zeros((4, 4), dtype=np.int32))
    with pytest.raises(DataFormatError, match="no valid pixels"):
        compute_class_fractions(grid)


def test_fractions_match_pixel_count_oracle(rng):
    codes = np.array(PRODUCT_CODES + (NODATA_CODE,))
    for _ in range(30):
        grid = LabelGrid(codes=rng.choice(codes, size=(64, 64)).astype(np.int32))
        fr = compute_class_fractions(grid)
        valid = 0
        counts = {c: 0 for c in ClassId}
        for v in grid.codes.ravel():
            if v == NODATA_CODE:
                continue
            valid += 1
            if int(v) in CODE_TO_CLASS:
                counts[CODE_TO_CLASS[int(v)]] += 1
        for c in ClassId:
            assert fr[c] == counts[c] / valid


def test_fractions_sum_bound(rng):
    seven = np.array(sorted(CODE_TO_CLASS))
    grid = LabelGrid(codes=rng.choice(seven, size=(32, 32)).astype(np.int32))
    assert np.isclose(sum(compute_class_fractions(grid).values()), 1.0)
    grid = LabelGrid(codes=rng.choice(np.array(PRODUCT_CODES), size=(32, 32)).astype(np.int32))
    assert sum(compute_class_fractions(grid).values()) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# stacks and composites


def make_stack(rng, n_dates=8, bands=2, h=4, w=5, nan_rate=0.0):
    months = [1, 2, 4, 5, 7, 8, 10, 11, 3, 6, 9, 12]
    dates = tuple(f"2021-{months[i % 12]:02d}-{(i % 27) + 1:02d}" for i in range(n_dates))
    v = rng.standard_normal((n_dates, bands, h, w)).astype(np.float32)
    if nan_rate:
        mask = rng.random((n_dates, h, w)) < nan_rate
        v[np.broadcast_to(mask[:, None], v.shape)] = np.nan
    return ImageStack(dates=dates, values=v)


def test_season_mapping():
    assert meteorological_season("2021-01-15") == "winter"
    assert meteorological_season("2021-12-01") == "winter"
    assert meteorological_season("2021-04-10") == "spring"
    assert meteorological_season("2021-07-31") == "summer"
    assert meteorological_season("2021-10-02") == "fall"


def test_composite_one_date_per_season_is_identity(rng):
    stack = make_stack(rng, n_dates=4)
    cal = dict(zip(stack.dates, ("winter", "spring", "summer", "fall")))
    out = seasonal_median_composite(stack, cal)
    for i, season in enumerate(("winter", "spring", "summer", "fall")):
        assert np.allclose(out[season], stack.values[i].astype(np.float64))


def test_composite_odd_and_even_counts():
    dates = ("2021-01-01", "2021-01-02", "2021-01-03",
             "2021-04-01", "2021-04-02", "2021-07-01", "2021-10-01")
    v = np.zeros((7, 1, 1, 1), dtype=np.float32)
    v[:3, 0, 0, 0] = [9.0, 1.0, 5.0]
    v[3:5, 0, 0, 0] = [1.0, 3.0]
    stack = ImageStack(dates=dates, values=v)
    out = seasonal_median_composite(stack)
    assert out["winter"][0, 0, 0] == 5.0
    assert out["spring"][0, 0, 0] == 2.0  # midpoint of the two middle values


def test_composite_skips_nodata_and_marks_empty():
    dates = ("2021-01-01", "2021-01-02", "2021-04-01", "2021-07-01", "2021-10-01")
    v = np.full((5, 1, 1, 2), np.nan, dtype=np.float32)
    v[0, 0, 0, 0] = 7.0  # second winter observation stays no-data
    v[2:, 0, 0, :] = 1.0
    stack = ImageStack(dates=dates, values=v)
    out = seasonal_median_composite(stack)
    assert out["winter"][0, 0, 0] == 7.0
    assert np.isnan(out["winter"][0, 0, 1])


def test_composite_season_without_dates_is_named(rng):
    stack = make_stack(rng, n_dates=3)
    cal = {d: "winter" for d in stack.dates}
    with pytest.raises(ValueError, match="spring"):
        seasonal_median_composite(stack, cal)


def test_composite_unknown_season_rejected(rng):
    stack = make_stack(rng, n_dates=4)
    cal = {d: "monsoon" for d in stack.dates}
    with pytest.raises(ValueError, match="monsoon"):
        seasonal_median_composite(stack, cal)


def test_composite_permutation_invariant(rng):
    stack = make_stack(rng, n_dates=12, nan_rate=0.2)
    perm = rng.permutation(12)
    shuffled = ImageStack(
        dates=tuple(stack.dates[i] for i in perm), values=stack.values[perm]
    )
    a = seasonal_median_composite(stack)
    b = seasonal_median_composite(shuffled)
    for season in a:
        assert np.array_equal(a[season], b[season], equal_nan=True)


def sort_median_oracle(values):
    """Median of the non-NaN entries via explicit sort and indexing."""
    vals = sorted(float(v) for v in values if not np.isnan(v))
    if not vals:
        return float("nan")
    m = len(vals)
    if m % 2:
        return vals[m // 2]
    return (vals[m // 2 - 1] + vals[m // 2]) / 2.0


def test_composite_matches_sort_oracle(rng):
    for _ in range(10):
        stack = make_stack(rng, n_dates=int(rng.integers(8, 20)),
                           bands=2, h=3, w=3, nan_rate=0.3)
        cal = {d: meteorological_season(d) for d in stack.dates}
        out = seasonal_median_composite(stack, cal)
        by_season = {}
        for i, d in enumerate(stack.dates):
            by_season.setdefault(cal[d], []).append(i)
        _, bands, height, width = stack.values.shape
        for season, idx in by_season.items():
            for b in range(bands):
                for y in range(height):
                    for x in range(width):
                        want = sort_median_oracle(stack.values[idx, b, y, x])
                        got = out[season][b, y, x]
                        assert (np.isnan(want) and np.isnan(got)) or got == want


# ---------------------------------------------------------------------------
# synthetic datasets


def test_synth_is_deterministic():
    spec = SynthSpec(n_chips=50, dim=8, noise_sigma=0.2, weight_seed=1, data_seed=2)
    a = synthesize_dataset(spec)
    b = synthesize_dataset(spec)
    assert a.table == b.table
    assert a.embeddings["synth-s2"].matrix.tobytes() == b.embeddings["synth-s2"].matrix.tobytes()
    assert np.array_equal(a.planted, b.planted)


def test_synth_seeds_are_independent_axes():
    base = SynthSpec(n_chips=30, dim=8, weight_seed=1, data_seed=2)
    other_weights = SynthSpec(n_chips=30, dim=8, weight_seed=3, data_seed=2)
    a, b = synthesize_dataset(base), synthesize_dataset(other_weights)
    assert np.array_equal(
        a.embeddings["synth-s2"].matrix, b.embeddings["synth-s2"].matrix
    )
    assert not np.array_equal(a.planted, b.planted)


def test_synth_passes_validation(small_synth):
    for fm in small_synth.spec.fm_ids:
        assert validate_dataset(small_synth.dataset(fm)).valid


def test_synth_structure(small_synth):
    table = small_synth.table
    assert len(table) == 400
    assert table.aois[:5].tolist() == ["aoi-00", "aoi-01", "aoi-02", "aoi-03", "aoi-00"]
    assert set(table.aois.tolist()) == {"aoi-00", "aoi-01", "aoi-02", "aoi-03"}
    assert np.all((0.0 <= table.lon) & (table.lon <= 1.0))
    assert np.all((0.0 <= table.lat) & (table.lat <= 1.0))
    assert np.all((0.0 <= table.elevations) & (table.elevations <= 4000.0))
    assert np.all(table.fractions.sum(axis=1) <= 1.0 + 1e-9)
    assert small_synth.planted.shape == (7, 16)
    assert np.allclose(np.linalg.norm(small_synth.planted, axis=1), 1.0)


def test_synth_noiseless_presquash_recovery():
    # the linear link is an affine image of the pre-squash target, so Pearson
    # r against it is r against that target: exact linear model, r = 1 held out
    spec = SynthSpec(n_chips=400, dim=16, noise_sigma=0.0, weight_seed=3, data_seed=4,
                     link="linear")
    res = synthesize_dataset(spec)
    X = res.embeddings["synth-s2"].matrix.astype(np.float64)
    y = res.table.fractions[:, 0]
    p = fit(X[:300], y[:300])
    r = pearson(predict(p, X[300:]), y[300:])
    assert r >= 1.0 - 1e-9


def test_synth_noise_hits_closed_form_correlation():
    rho = 0.9
    spec = SynthSpec(n_chips=4000, dim=16,
                     noise_sigma=noise_sigma_for_correlation(rho),
                     weight_seed=5, data_seed=6, link="linear")
    res = synthesize_dataset(spec)
    X = res.embeddings["synth-s2"].matrix.astype(np.float64)
    y = res.table.fractions[:, 2]
    p = fit(X[:3000], y[:3000])
    r = pearson(predict(p, X[3000:]), y[3000:])
    assert abs(r - rho) <= 0.05


def test_presquash_correlation_round_trip():
    for rho in (0.3, 0.7, 0.9, 1.0):
        assert np.isclose(presquash_correlation(noise_sigma_for_correlation(rho)), rho)
    assert presquash_correlation(0.0) == 1.0
    with pytest.raises(ValueError):
        noise_sigma_for_correlation(0.0)


def test_synth_linear_link_is_exactly_recoverable():
    spec = SynthSpec(n_chips=300, dim=12, noise_sigma=0.0, link="linear",
                     weight_seed=8, data_seed=9)
    res = synthesize_dataset(spec)
    assert validate_dataset(res.dataset()).valid
    ds = res.dataset()
    p = fit(ds.matrix[:200], ds.fractions[:200, 0])
    r = pearson(predict(p, ds.matrix[200:]), ds.fractions[200:, 0])
    assert r >= 1.0 - 1e-9


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_chips=0, dim=4)
    with pytest.raises(ValueError):
        SynthSpec(n_chips=4, dim=4, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(n_chips=4, dim=4, link="cubic")
    with pytest.raises(ValueError):
        SynthSpec.from_dict({"n_chips": 4, "dim": 4, "bogus": 1})
    spec = SynthSpec.from_dict({"n_chips": 4, "dim": 4, "fm_ids": ["a-s1"]})
    assert spec.fm_ids == ("a-s1",)


# ---------------------------------------------------------------------------
# dataset directories


def test_dataset_dir_round_trip(tmp_path, small_synth):
    write_dataset_dir(small_synth, tmp_path / "data")
    datasets = load_dataset_dir(tmp_path / "data")
    assert sorted(datasets) == ["alpha-s1", "beta-s2"]
    direct = small_synth.dataset("alpha-s1")
    assert np.array_equal(datasets["alpha-s1"].matrix, direct.matrix)
    assert datasets["alpha-s1"].chip_ids == direct.chip_ids
    assert (tmp_path / "data" / "planted.json").exists()


def test_dataset_dir_missing_pieces(tmp_path, small_synth):
    with pytest.raises(DataFormatError, match="chips.jsonl"):
        load_dataset_dir(tmp_path)
    write_dataset_dir(small_synth, tmp_path / "data")
    (tmp_path / "data" / "embeddings" / "alpha-s1.idx").unlink()
    with pytest.raises(DataFormatError, match="alpha-s1"):
        load_dataset_dir(tmp_path / "data")


def test_dataset_dir_keeps_only_the_models_and_aois_asked_for(tmp_path, small_synth):
    write_dataset_dir(small_synth, tmp_path / "data")
    full = load_dataset_dir(tmp_path / "data")
    part = load_dataset_dir(tmp_path / "data", {"beta-s2", "ghost-s2"}, {"aoi-01", "aoi-03"})
    assert list(part) == ["beta-s2"]
    ds, was = part["beta-s2"], full["beta-s2"]
    assert list(ds.aoi_positions) == ["aoi-01", "aoi-03"]
    assert len(ds) == was.aoi_positions["aoi-01"].size + was.aoi_positions["aoi-03"].size
    for aoi, pos in ds.aoi_positions.items():
        assert np.array_equal(ds.matrix[pos], was.matrix[was.aoi_positions[aoi]])
        assert np.array_equal(ds.fractions[pos], was.fractions[was.aoi_positions[aoi]])


def test_dataset_dir_model_without_the_grid_aois_is_empty(tmp_path, small_synth):
    write_dataset_dir(small_synth, tmp_path / "data")
    ds = load_dataset_dir(tmp_path / "data", {"alpha-s1"}, {"aoi-9"})["alpha-s1"]
    assert len(ds) == 0 and ds.aoi_positions == {}
    assert ds.matrix.shape == (0, small_synth.spec.dim)


@pytest.mark.parametrize("fms", [{"alpha-s1", "beta-s2"}, {"alpha-s1"}],
                         ids=["read", "unread"])
def test_dataset_dir_index_sharing_no_chip_is_refused(tmp_path, small_synth, fms):
    write_dataset_dir(small_synth, tmp_path / "data")
    idx = tmp_path / "data" / "embeddings" / "beta-s2.idx"
    idx.write_text("".join(f"x{line}\n" for line in idx.read_text().splitlines()))
    with pytest.raises(AlignmentError, match="no aligned chips"):
        load_dataset_dir(tmp_path / "data", fms, {"aoi-00"})


@pytest.mark.parametrize("read", [True, False], ids=["read", "unread"])
def test_dataset_dir_index_sharing_no_chip_is_named(tmp_path, small_synth, capsys, read):
    from probeforge.cli import main

    root = tmp_path / "data"
    write_dataset_dir(small_synth, root)
    idx = root / "embeddings" / "beta-s2.idx"
    idx.write_text("".join(f"x{line}\n" for line in idx.read_text().splitlines()))
    with pytest.raises(AlignmentError) as info:
        load_dataset_dir(root, {"beta-s2"} if read else {"alpha-s1"})
    assert str(info.value) == f"{idx}: no aligned chips"
    grid = {"fms": ["beta-s2" if read else "alpha-s1"], "classes": ["tree-cover"],
            "samplers": ["random"], "target_aois": ["aoi-00"], "n_train_target": [20],
            "n_test_target": [10], "regimes": ["target-split"], "repetitions": 2,
            "base_seed": 5}
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    assert main(["run", "--grid", str(tmp_path / "grid.json"), "--data-dir", str(root),
                 "--out", str(tmp_path / "results.csv")]) == 2
    assert capsys.readouterr().err == f"probeforge: error: {idx}: no aligned chips\n"
    assert not (tmp_path / "results.csv").exists()


def test_dataset_dir_unread_index_is_split_only_at_file_line_ends(tmp_path, small_synth):
    # "x\u2028chip-..." is one id, which the table lacks; str.splitlines
    # would make it "x" and a chip of the table
    write_dataset_dir(small_synth, tmp_path / "data")
    idx = tmp_path / "data" / "embeddings" / "beta-s2.idx"
    idx.write_text("".join(f"x\u2028{line}\n" for line in idx.read_text().splitlines()))
    with pytest.raises(AlignmentError, match="no aligned chips"):
        load_dataset_dir(tmp_path / "data", {"alpha-s1"}, {"aoi-00"})


def _add_model(root, fm_id, chip_ids, rng):
    """Write model ``fm_id`` over ``chip_ids`` into dataset directory ``root``."""
    from probeforge.core import EmbeddingSet

    m = rng.standard_normal((len(chip_ids), 16)).astype(np.float32)
    save_embeddings(EmbeddingSet(fm_id=fm_id, chip_ids=tuple(chip_ids), matrix=m),
                    root / "embeddings" / f"{fm_id}.emb", root / "embeddings" / f"{fm_id}.idx")


@pytest.mark.parametrize("fms", [None, {"alpha-s1", "beta-s2"}, {"beta-s2", "gamma-s2"}],
                         ids=["all", "shared-pair", "one-shared"])
@pytest.mark.parametrize("aois", [None, {"aoi-01", "aoi-03"}], ids=["all-aois", "two-aois"])
def test_dataset_dir_shared_index_matches_each_model_loaded_alone(
        tmp_path, small_synth, rng, fms, aois):
    from probeforge.core import ChipTable, assemble_dataset

    root = tmp_path / "data"
    write_dataset_dir(small_synth, root)
    emb_dir = root / "embeddings"
    # alpha and beta list the same chips in the same bytes; gamma lists them
    # reversed, with one the table lacks
    assert (emb_dir / "alpha-s1.idx").read_bytes() == (emb_dir / "beta-s2.idx").read_bytes()
    _add_model(root, "gamma-s2", ("no-such-chip", *small_synth.table.chip_ids[::-1]), rng)
    datasets = load_dataset_dir(root, fms, aois)

    table = small_synth.table
    reads = table
    if aois is not None:
        rows = np.flatnonzero([a in aois for a in table.aois.tolist()])
        reads = ChipTable(chip_ids=tuple(table.chip_ids[i] for i in rows),
                          **{name: getattr(table, name)[rows]
                             for name in ("aois", "lon", "lat", "fractions", "elevations")})
    assert sorted(datasets) == sorted(fms or ["alpha-s1", "beta-s2", "gamma-s2"])
    for fm_id, ds in datasets.items():
        alone = assemble_dataset(reads, load_embeddings(
            emb_dir / f"{fm_id}.emb", emb_dir / f"{fm_id}.idx", fm_id))
        assert ds.fm_id == fm_id and ds.chip_ids == alone.chip_ids
        assert list(ds.aoi_positions) == list(alone.aoi_positions)
        for aoi, pos in ds.aoi_positions.items():
            assert np.array_equal(pos, alone.aoi_positions[aoi]) and not pos.flags.writeable
        for name in ("matrix", "fractions", "elevations"):
            got = getattr(ds, name)
            assert got.dtype == getattr(alone, name).dtype and not got.flags.writeable
            assert got.tobytes() == getattr(alone, name).tobytes()
    if fms is None or fms == {"alpha-s1", "beta-s2"}:
        # the two models of one join share their chip side, not their matrix
        a, b = datasets["alpha-s1"], datasets["beta-s2"]
        assert a.chip_ids is b.chip_ids and a.fractions is b.fractions
        assert a.elevations is b.elevations and a.matrix is not b.matrix
        assert all(a.aoi_positions[k] is b.aoi_positions[k] for k in a.aoi_positions)


def test_dataset_dir_logs_each_models_dropped_chips(tmp_path, small_synth, rng, caplog):
    root = tmp_path / "data"
    write_dataset_dir(small_synth, root)
    for fm_id in ("alpha-s1", "beta-s2"):  # one index, lacking the table's first 5 chips
        _add_model(root, fm_id, small_synth.table.chip_ids[5:], rng)
    with caplog.at_level("INFO", logger="probeforge.core"):
        load_dataset_dir(root)
    assert caplog.messages == [
        f"join for fm {fm} dropped 5 table-only and 0 embedding-only records"
        for fm in ("alpha-s1", "beta-s2")
    ]
    # an index lacking 3 table chips and listing 2 the table lacks, as
    # assemble_dataset counts them on the same files
    ids = ("ghost-1", *small_synth.table.chip_ids[3:], "ghost-2")
    for fm_id in ("alpha-s1", "beta-s2"):
        _add_model(root, fm_id, ids, rng)
    caplog.clear()
    with caplog.at_level("INFO", logger="probeforge.core"):
        load_dataset_dir(root)
    assert caplog.messages == [
        f"join for fm {fm} dropped 3 table-only and 2 embedding-only records"
        for fm in ("alpha-s1", "beta-s2")
    ]


def test_dataset_dir_non_finite_row_of_a_shared_index_names_its_own_file(
        tmp_path, small_synth):
    from probeforge.core import EmbeddingSet

    root = tmp_path / "data"
    write_dataset_dir(small_synth, root)
    beta = small_synth.embeddings["beta-s2"]
    m = beta.matrix.copy()
    m[123, 4] = np.nan
    save_embeddings(EmbeddingSet(fm_id="beta-s2", chip_ids=beta.chip_ids, matrix=m),
                    root / "embeddings" / "beta-s2.emb", root / "embeddings" / "beta-s2.idx")
    with pytest.raises(DataFormatError) as info:
        load_dataset_dir(root, None, {"aoi-00"})
    assert str(info.value) == (f"{root / 'embeddings' / 'beta-s2.emb'}: non-finite values,"
                               f" first offending row 123 (chip {beta.chip_ids[123]!r})")


def test_dataset_dir_header_disagreeing_with_a_shared_index_names_its_own_index(
        tmp_path, small_synth):
    root = tmp_path / "data"
    write_dataset_dir(small_synth, root)
    emb = root / "embeddings" / "beta-s2.emb"
    blob = emb.read_bytes()
    dim, count = struct.unpack("<IQ", blob[4:16])
    # one row fewer in both header and payload, so only the index disagrees
    emb.write_bytes(b"EMB1" + struct.pack("<IQ", dim, count - 1) + blob[16:-4 * dim])
    with pytest.raises(DataFormatError) as info:
        load_dataset_dir(root)
    assert str(info.value) == (f"{root / 'embeddings' / 'beta-s2.idx'}: index/header mismatch:"
                               f" header rows {count - 1}, index lines {count}")


def test_dataset_dir_bad_index_of_a_later_model_is_named_before_an_earlier_payload(
        tmp_path, small_synth):
    # Opening reads every index before any payload, so beta's undecodable
    # index is named ahead of alpha's non-finite row.
    from probeforge.core import EmbeddingSet

    root = tmp_path / "data"
    write_dataset_dir(small_synth, root)
    alpha = small_synth.embeddings["alpha-s1"]
    m = alpha.matrix.copy()
    m[7, 0] = np.inf
    save_embeddings(EmbeddingSet(fm_id="alpha-s1", chip_ids=alpha.chip_ids, matrix=m),
                    root / "embeddings" / "alpha-s1.emb", root / "embeddings" / "alpha-s1.idx")
    idx = root / "embeddings" / "beta-s2.idx"
    idx.write_bytes(b"\xff" + idx.read_bytes())
    with pytest.raises(DataFormatError) as info:
        load_dataset_dir(root)
    assert str(info.value) == (f"{idx}: line 1: not valid UTF-8"
                               " (byte 0xff: invalid start byte)")
    idx.write_bytes(idx.read_bytes()[1:])
    with pytest.raises(DataFormatError, match="alpha-s1.emb: non-finite values"):
        load_dataset_dir(root)


@pytest.mark.parametrize("fms", [None, {"beta-s2"}], ids=["all-read", "one-read"])
def test_dataset_dir_loads_the_chip_table_once_and_each_emb_once_through_ingest(
        tmp_path, small_synth, rng, monkeypatch, fms):
    # The benchmark's tracer times load_chip_table by rebinding it in ingest,
    # and reads the path from the leading positional argument. Each payload
    # is opened once, on the calling thread; its blocks are filled on lanes,
    # which call nothing the tracer rebinds, so load_embeddings is not called.
    root = tmp_path / "data"
    write_dataset_dir(small_synth, root)
    _add_model(root, "gamma-s2", small_synth.table.chip_ids[::-1], rng)
    calls = []
    load_table, open_payload = ingest_mod.load_chip_table, ingest_mod._open_payload
    monkeypatch.setattr(ingest_mod, "load_chip_table", lambda *args, **kwargs: (
        calls.append(("table", args, kwargs)) or load_table(*args, **kwargs)))
    monkeypatch.setattr(ingest_mod, "load_embeddings", lambda *args, **kwargs: (
        calls.append(("load_embeddings",))))
    monkeypatch.setattr(ingest_mod, "_open_payload", lambda fh, *args: (
        calls.append(("emb", args[:2], threading.current_thread()))
        or open_payload(fh, *args)))
    emb = root / "embeddings"
    for _ in range(2):
        calls.clear()
        load_dataset_dir(root, fms)
        assert calls == [("table", (root / "chips.jsonl",), {})] + [
            ("emb", (emb / f"{fm}.emb", emb / f"{fm}.idx"), threading.current_thread())
            for fm in ("alpha-s1", "beta-s2", "gamma-s2")
        ]


# gamma lists the table's chips reversed, so its index has a join of its own;
# a Dataset's chip fields are built only for an index that a loaded model uses.
@pytest.mark.parametrize("fms, built", [
    ({"alpha-s1", "beta-s2"}, 1),
    ({"gamma-s2"}, 1),
    (None, 2),
], ids=["gamma-unread", "only-gamma-read", "all-read"])
def test_dataset_dir_builds_chip_fields_only_for_an_index_a_loaded_model_uses(
        tmp_path, small_synth, rng, monkeypatch, fms, built):
    root = tmp_path / "data"
    write_dataset_dir(small_synth, root)
    _add_model(root, "gamma-s2", small_synth.table.chip_ids[::-1], rng)
    calls = []
    chip_side = ingest_mod.chip_side
    monkeypatch.setattr(ingest_mod, "chip_side",
                        lambda *args: calls.append(args) or chip_side(*args))
    datasets = load_dataset_dir(root, fms)
    assert len(calls) == built
    assert sorted(datasets) == sorted(fms or ["alpha-s1", "beta-s2", "gamma-s2"])


@pytest.mark.parametrize("aois", [None, {"aoi-01"}], ids=["all-aois", "one-aoi"])
def test_dataset_dir_frees_the_chip_table_before_reading_a_payload(
        tmp_path, small_synth, monkeypatch, aois):
    import weakref

    write_dataset_dir(small_synth, tmp_path / "data")
    tables, freed = [], []
    load_table, open_payload = ingest_mod.load_chip_table, ingest_mod._open_payload

    def spy_table(path):
        table = load_table(path)
        tables.append(weakref.ref(table))
        return table

    def spy_open(*args):
        freed.append(tables[0]() is None)
        return open_payload(*args)

    monkeypatch.setattr(ingest_mod, "load_chip_table", spy_table)
    monkeypatch.setattr(ingest_mod, "_open_payload", spy_open)
    load_dataset_dir(tmp_path / "data", {"alpha-s1"}, aois)
    assert freed == [True, True]


# An index that lists exactly the table's chips is neither decoded nor
# hashed; any other is decoded and hashed once, whoever reads it.
@pytest.mark.parametrize("fms, gamma, decodes", [
    (None, "same", []),
    ({"alpha-s1"}, "same", []),
    ({"alpha-s1"}, "reversed", ["gamma-s2"]),
], ids=["all-read", "two-unread", "unread-differs"])
def test_dataset_dir_reads_each_index_once_and_joins_identical_ones_once(
        tmp_path, small_synth, rng, monkeypatch, fms, gamma, decodes):
    import pathlib

    root = tmp_path / "data"
    write_dataset_dir(small_synth, root)
    ids = small_synth.table.chip_ids
    _add_model(root, "gamma-s2", ids if gamma == "same" else ids[::-1], rng)
    load_chip_table(root / "chips.jsonl")  # writes the column cache
    read, decoded, hashed = [], [], []
    read_bytes = pathlib.Path.read_bytes
    text_lines, id_positions = ingest_mod._text_lines, ingest_mod.id_positions
    monkeypatch.setattr(pathlib.Path, "read_bytes",
                        lambda path: read.append(path.stem) or read_bytes(path))
    monkeypatch.setattr(ingest_mod, "_text_lines",
                        lambda path, blob: decoded.append(path.stem) or text_lines(path, blob))
    monkeypatch.setattr(ingest_mod, "id_positions",
                        lambda ids: hashed.append(len(ids)) or id_positions(ids))
    datasets = load_dataset_dir(root, fms, {"aoi-02"})
    assert sorted(datasets) == sorted(fms or ["alpha-s1", "beta-s2", "gamma-s2"])
    assert read == ["alpha-s1", "beta-s2", "gamma-s2"]
    assert decoded == decodes
    assert hashed == [len(small_synth.table)] * len(decodes)


def _write_index_model(root, fm_id, index, rng):
    """Write model ``fm_id`` into ``root`` with index bytes ``index`` and one
    row per line that a text file reads from them."""
    from probeforge.core import EmbeddingSet

    n = len(_file_lines(index, errors="replace"))
    m = rng.standard_normal((n, 8)).astype(np.float32)
    emb, idx = root / "embeddings" / f"{fm_id}.emb", root / "embeddings" / f"{fm_id}.idx"
    save_embeddings(EmbeddingSet(fm_id=fm_id, chip_ids=tuple(f"p{i}" for i in range(n)),
                                 matrix=m), emb, idx)
    idx.write_bytes(index)
    return emb, idx


def _listing(ids, errors="strict"):
    return b"".join(cid.encode("utf-8", errors) + b"\n" for cid in ids)


# Each index nearly lists the table's chips, so only the full test tells it
# from the table's own listing.
_NOT_THE_TABLE = {
    "cr-in-an-id": ("a\rb", lambda ids: _listing(ids)),
    "lf-in-an-id": ("a\nb", lambda ids: _listing(ids)),
    "lone-surrogate": ("\ud800x", lambda ids: _listing(ids, "surrogatepass")),
    "no-final-newline": (None, lambda ids: _listing(ids)[:-1]),
    "permuted": (None, lambda ids: _listing(ids[1:] + ids[:1])),
}


@pytest.mark.parametrize("case", list(_NOT_THE_TABLE))
def test_dataset_dir_index_that_is_not_the_tables_listing_is_decoded_and_joined(
        tmp_path, small_synth, rng, monkeypatch, capsys, case):
    from probeforge.cli import main
    from probeforge.core import ChipTable, assemble_dataset

    special, index = _NOT_THE_TABLE[case]
    table = small_synth.table
    if special is not None:
        table = ChipTable(chip_ids=(table.chip_ids[0], special, *table.chip_ids[2:]),
                          **{name: getattr(table, name)
                             for name in ("aois", "lon", "lat", "fractions", "elevations")})
    root = tmp_path / "data"
    (root / "embeddings").mkdir(parents=True)
    save_chip_table(table, root / "chips.jsonl")
    assert load_chip_table(root / "chips.jsonl") == table  # and writes the cache
    emb, idx = _write_index_model(root, "alpha-s1", index(list(table.chip_ids)), rng)
    decoded = []
    text_lines = ingest_mod._text_lines
    monkeypatch.setattr(ingest_mod, "_text_lines",
                        lambda path, blob: decoded.append(path.name) or text_lines(path, blob))
    if case == "lone-surrogate":
        want = f"{idx}: line 2: not valid UTF-8 (byte 0xed: invalid continuation byte)"
        with pytest.raises(DataFormatError) as info:
            load_dataset_dir(root)
        assert str(info.value) == want
        assert decoded == ["alpha-s1.idx"]
        grid = {"fms": ["alpha-s1"], "classes": ["tree-cover"], "samplers": ["random"],
                "target_aois": ["aoi-00"], "n_train_target": [20], "n_test_target": [10],
                "regimes": ["target-split"], "repetitions": 2, "base_seed": 5}
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        assert main(["run", "--grid", str(tmp_path / "grid.json"), "--data-dir", str(root),
                     "--out", str(tmp_path / "results.csv")]) == 2
        assert want in capsys.readouterr().err
        return
    got = load_dataset_dir(root)["alpha-s1"]
    assert decoded == ["alpha-s1.idx"]
    alone = assemble_dataset(table, load_embeddings(emb, idx, "alpha-s1"))
    assert got.chip_ids == alone.chip_ids
    assert len(got) == len(table) - (special is not None)
    for name in ("matrix", "fractions", "elevations"):
        assert getattr(got, name).tobytes() == getattr(alone, name).tobytes()
    assert list(got.aoi_positions) == list(alone.aoi_positions)
    for aoi, pos in got.aoi_positions.items():
        assert np.array_equal(pos, alone.aoi_positions[aoi])


# ---------------------------------------------------------------------------
# lanes: every payload of a directory filled on threads, split by block


def _lanes(monkeypatch, on):
    """Fill payloads on three lanes whatever their size (``on``), or inline
    whatever their size, in blocks of 48 of small_synth's 16-d rows: 9 per
    400-row model, so that a lane's run spans models and parts of models."""
    monkeypatch.setattr(ingest_mod, "_HASH_THREAD_BYTES", 0 if on else 1 << 62)
    monkeypatch.setattr(ingest_mod, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(ingest_mod, "_BLOCK_BYTES", 4 * 16 * 48)


def _started_threads(monkeypatch):
    """The names of the threads started from now on."""
    names = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: names.append(thread.name) or start(thread))
    return names


def _lane_dir(root, small_synth, rng):
    """small_synth's directory plus gamma-s2, whose index lists the chips
    reversed and so has a join of its own."""
    write_dataset_dir(small_synth, root)
    _add_model(root, "gamma-s2", small_synth.table.chip_ids[::-1], rng)


def _rewrite(root, fm_id, suffix, edit):
    path = root / "embeddings" / f"{fm_id}{suffix}"
    path.write_bytes(edit(path.read_bytes()))


def _set_value(root, fm_id, row, value):
    def edit(blob):
        at = 16 + 4 * (struct.unpack("<I", blob[4:8])[0] * row + 3)
        return blob[:at] + struct.pack("<f", value) + blob[at + 4:]
    _rewrite(root, fm_id, ".emb", edit)


def _rewrite_index(root, fm_id, edit):
    _rewrite(root, fm_id, ".idx", lambda blob: "".join(
        f"{line}\n" for line in edit(blob.decode().splitlines())).encode())


#: Faults planted in one model's files, each refused at another step or block.
_PLANTED = {
    "bad-magic": lambda root, fm: _rewrite(root, fm, ".emb", lambda blob: b"XXXX" + blob[4:]),
    "wrong-size": lambda root, fm: _rewrite(root, fm, ".emb", lambda blob: blob[:-4]),
    "index-mismatch": lambda root, fm: _rewrite_index(root, fm, lambda ids: ids[:-1]),
    "nan-early-block": lambda root, fm: _set_value(root, fm, 5, float("nan")),
    "inf-late-block": lambda root, fm: _set_value(root, fm, 397, float("inf")),
    "early-and-late-block": lambda root, fm: (_set_value(root, fm, 397, float("nan")),
                                              _set_value(root, fm, 60, float("-inf"))),
    "repeated-id": lambda root, fm: _rewrite_index(root, fm, lambda ids: ids[:9] + ids[3:4]
                                                   + ids[10:]),
    "no-aligned-chips": lambda root, fm: _rewrite_index(root, fm,
                                                        lambda ids: [f"x{i}" for i in ids]),
}


def _one_model_after_another(root, table):
    """The error of loading each model alone, in sorted order, as
    ``load_embeddings`` and the join check do: the reference."""
    for emb in sorted((root / "embeddings").glob("*.emb")):
        idx = emb.with_suffix(".idx")
        try:
            join = ingest_mod._join_index(idx, idx.read_bytes(), table.chip_ids)
            load_embeddings(emb, idx, emb.stem, join)
            if not join.matched:
                raise AlignmentError(f"{idx}: no aligned chips")
        except (DataFormatError, AlignmentError) as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("first", sorted(_PLANTED))
def test_lanes_raise_what_a_serial_load_raises_for_two_faulty_models(
        tmp_path, small_synth, rng, monkeypatch, first):
    before = threading.enumerate()
    for second in sorted(_PLANTED):
        root = tmp_path / second / "data"
        _lane_dir(root, small_synth, rng)
        _PLANTED[first](root, "alpha-s1")
        _PLANTED[second](root, "gamma-s2")
        want = _one_model_after_another(root, small_synth.table)
        assert want is not None
        for fms, aois in ((None, None), ({"gamma-s2"}, {"aoi-01", "aoi-02"})):
            got = []
            for on in (True, False):
                _lanes(monkeypatch, on)
                with pytest.raises((DataFormatError, AlignmentError)) as info:
                    load_dataset_dir(root, fms, aois)
                got.append((info.type, str(info.value)))
                assert threading.enumerate() == before
            assert got == [want, want], (first, second, fms)


@pytest.mark.parametrize("fms", [None, {"alpha-s1", "gamma-s2"}, {"beta-s2"}],
                         ids=["all", "two", "one"])
@pytest.mark.parametrize("aois", [None, {"aoi-00", "aoi-03"}], ids=["all-aois", "two-aois"])
def test_lanes_and_a_serial_load_give_the_same_datasets_and_log(
        tmp_path, small_synth, rng, monkeypatch, caplog, fms, aois):
    root = tmp_path / "data"
    _lane_dir(root, small_synth, rng)
    # beta lacks 7 of the table's chips and lists one it lacks, so its join
    # is its own, and a load that reads it logs what the join dropped
    _add_model(root, "beta-s2", ["ghost", *small_synth.table.chip_ids[7:]], rng)
    before = threading.enumerate()
    loads, logs, started = [], [], _started_threads(monkeypatch)
    for on in (True, False):
        _lanes(monkeypatch, on)
        caplog.clear()
        started.clear()
        with caplog.at_level("INFO", logger="probeforge.core"):
            loads.append(load_dataset_dir(root, fms, aois))
        logs.append(caplog.messages)
        assert threading.enumerate() == before
        assert bool(started) is on
    lanes, serial = loads
    assert logs[0] == logs[1]
    assert (fms is None or "beta-s2" in fms) is any("beta-s2" in line for line in logs[0])
    assert sorted(lanes) == sorted(serial) == sorted(fms or ["alpha-s1", "beta-s2", "gamma-s2"])
    for fm_id in lanes:
        a, b = lanes[fm_id], serial[fm_id]
        assert a.chip_ids == b.chip_ids and list(a.aoi_positions) == list(b.aoi_positions)
        for name in ("matrix", "fractions", "elevations"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes() and not x.flags.writeable


def test_a_directory_below_the_lane_floor_starts_no_thread(tmp_path, small_synth, rng,
                                                           monkeypatch):
    root = tmp_path / "data"
    _lane_dir(root, small_synth, rng)
    load_chip_table(root / "chips.jsonl")  # writes the cache, so the next load hashes
    monkeypatch.setattr(ingest_mod, "_usable_cpus", lambda: 3)
    started = _started_threads(monkeypatch)
    assert load_dataset_dir(root, None, {"aoi-02"})
    assert started == []
    monkeypatch.setattr(ingest_mod, "_HASH_THREAD_BYTES", 0)
    assert load_dataset_dir(root, None, {"aoi-02"})
    # the chip digest beside the cache decode, then 27 blocks on three lanes
    assert started == ["probeforge-lane-1", "probeforge-lane-1", "probeforge-lane-2"]


@pytest.mark.parametrize("preadv", [True, False], ids=["preadv", "own-handle"])
@pytest.mark.parametrize("on", [True, False], ids=["lanes", "inline"])
def test_a_payload_cut_short_after_its_open_is_named(tmp_path, small_synth, rng, monkeypatch,
                                                     preadv, on):
    # Where os.preadv is missing, each block is read through a handle of its own.
    root = tmp_path / "data"
    _lane_dir(root, small_synth, rng)
    want = load_dataset_dir(root, None, {"aoi-01"})
    _lanes(monkeypatch, on)
    if not preadv:
        monkeypatch.delattr(os, "preadv")
    got = load_dataset_dir(root, None, {"aoi-01"})
    assert all(got[fm].matrix.tobytes() == want[fm].matrix.tobytes() for fm in want)
    beta = root / "embeddings" / "beta-s2.emb"
    open_payload = ingest_mod._open_payload

    def cut_beta(fh, data_path, *rest):
        opened = open_payload(fh, data_path, *rest)
        if data_path == beta:
            os.truncate(beta, 16 + 4 * 16 * 100)  # within its third block of 48 rows
        return opened

    monkeypatch.setattr(ingest_mod, "_open_payload", cut_beta)
    before = threading.enumerate()
    with pytest.raises(DataFormatError) as info:
        load_dataset_dir(root, None, {"aoi-01"})
    assert str(info.value) == f"{beta}: payload shrank while being read"
    assert threading.enumerate() == before


def test_lanes_under_a_short_switch_interval_fill_every_row(tmp_path, small_synth, rng,
                                                            monkeypatch):
    # More lanes than cores, blocks of 4 rows and a thread switch every
    # microsecond: a lost or misplaced block would change the bytes.
    root = tmp_path / "data"
    _lane_dir(root, small_synth, rng)
    want = load_dataset_dir(root, None, {"aoi-00", "aoi-03"})
    monkeypatch.setattr(ingest_mod, "_HASH_THREAD_BYTES", 0)
    monkeypatch.setattr(ingest_mod, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(ingest_mod, "_BLOCK_BYTES", 4 * 16 * 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5
        for _ in range(10):
            got = load_dataset_dir(root, None, {"aoi-00", "aoi-03"})
            assert all(got[fm].matrix.tobytes() == want[fm].matrix.tobytes() for fm in want)
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)
