"""Output identity: the outputs of tests/oracles/make_golden.py, rerun in
process, against the digests committed in tests/data/golden.json, whatever
the thread count and the tile and block sizes."""

import importlib.util
import json
import pathlib

import pytest

from tritherm import _kernels

ORACLE = pathlib.Path(__file__).parent / "oracles" / "make_golden.py"
_spec = importlib.util.spec_from_file_location("make_golden", ORACLE)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

GOLDEN = json.loads(make_golden.OUT.read_text())


@pytest.mark.parametrize("workers,tile,block", [(1, None, None), (2, None, None),
                                                (2, 300, 5000)])
def test_outputs_match_the_committed_digests(tmp_path, monkeypatch, workers, tile, block):
    # small tiles cut every map into several tiles with uneven edges, small
    # blocks cut every search stage into several blocks
    monkeypatch.setattr(_kernels, "_WORKERS", workers)
    if tile:
        monkeypatch.setattr(_kernels, "TILE_POINTS", tile)
        monkeypatch.setattr(_kernels, "BLOCK_POINTS", block)
    out = make_golden.outputs(tmp_path)
    assert sorted(out) == sorted(GOLDEN["digests"])
    stamp = make_golden.platform_stamp()
    if stamp == GOLDEN["platform"]:
        digests = {name: make_golden.digest(data) for name, data in out.items()}
        moved = sorted(name for name in out if digests[name] != GOLDEN["digests"][name])
        assert not moved, (f"outputs moved: {moved}; if on purpose, regenerate "
                           f"{make_golden.OUT.name} and say why")
    else:
        moved = sorted(name for name, d in make_golden.label_digests(out).items()
                       if d != GOLDEN["labels"][name])
        assert not moved, (
            f"label columns moved: {moved}.  Float digests were not compared: this "
            f"platform {stamp} is not the one the digests were made on "
            f"{GOLDEN['platform']}, and float bits depend on numpy's build and dispatch")
