"""I/O faults as a property: every command that writes a file, with the
k-th ``os.posix_fallocate``, output-file write, ``os.preadv`` or
``os.replace`` made to fail, or the k-th ``os.preadv`` made to come back
one byte short, for every k up to the number of such calls the command
makes.  Every command that reads stripes or input bytes reads them
through ``os.preadv``.

After each fault the command exits 1, leaves no temporary file, and every
earlier output is either byte-identical to before or refused: the
``decode`` or ``repair`` that reads it exits non-zero.  Blocks are a few
stripes long, so that faults land mid-stream.
"""

import errno
import os
from pathlib import Path

import numpy as np
import pytest

from staircodes import cli
from staircodes import container as cont

CFG_FLAGS = ["--n", "8", "--r", "4", "--m", "2", "--e", "1,1,2", "--symbol-size", "32"]
STRIPE_BYTES = 8 * 4 * 32
DATA_BYTES = (4 * (8 - 2) - 4) * 32      # per stripe
POINTS = ("fallocate", "write", "preadv", "short", "replace")
# 8 KiB stripes, larger than the blocks of three small stripes, so that
# decode reads a stripe a range at a time
LARGE_FLAGS = CFG_FLAGS[:-1] + ["256"]


class _Faults:
    """Counts the calls of each fault point and, at the k-th call of
    ``point``, raises ``OSError(code)``, or for "short" cuts the read's
    count by one; ``point`` None counts only.  "short" counts the calls of
    ``os.preadv``, as "preadv" does."""

    def __init__(self, point=None, k=0, code=0):
        self.calls = dict.fromkeys(POINTS, 0)
        self.point, self.k, self.code = point, k, code

    def hit(self, point: str) -> bool:
        """Count a call of ``point``; True when it is to come back short."""
        self.calls[point] += 1
        if point == self.point and self.calls[point] == self.k:
            if point == "short":
                return True
            raise OSError(self.code, os.strerror(self.code))
        return False

    def install(self, patch) -> None:
        real_open, real_fallocate, real_preadv, real_replace, faults = (
            open, os.posix_fallocate, os.preadv, os.replace, self)

        class File:
            """A file whose ``write`` passes through ``hit``."""

            def __init__(self, *args, **kwargs):
                self._f = real_open(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._f.__exit__(*exc)

            def write(self, data):
                faults.hit("write")
                return self._f.write(data)

        def fallocate(*args):
            faults.hit("fallocate")
            return real_fallocate(*args)

        def preadv(*args):
            faults.hit("preadv")
            got = real_preadv(*args)
            return got - faults.hit("short")

        def replace(*args):
            faults.hit("replace")
            return real_replace(*args)

        patch.setattr(cont, "open", File, raising=False)
        patch.setattr(cli, "open", File, raising=False)
        patch.setattr(os, "posix_fallocate", fallocate)
        patch.setattr(os, "preadv", preadv)
        patch.setattr(os, "replace", replace)


def _snapshot(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _restore(root: Path, snap: dict) -> None:
    """Put the files of ``root`` back as ``snap`` holds them."""
    for p in root.rglob("*"):
        if p.is_file() and p.relative_to(root) not in snap:
            p.unlink()
    for rel, data in snap.items():
        if not (root / rel).exists() or (root / rel).read_bytes() != data:
            (root / rel).write_bytes(data)


SCENARIO = "n = 8\nr = 16\nm = 1\ncodes = rs; stair:1,2; sd:2\np_bit = 1e-14, 1e-12\n"

# name: (set-up commands, the faulted command, its earlier outputs).  An
# output is (the paths it consists of, the command that must refuse it when
# it changed, or None when it must not change).
CASES = {
    "encode-file": ([["encode", "a.bin", "-o", "c.stc", *CFG_FLAGS]],
                    ["encode", "b.bin", "-o", "c.stc", *CFG_FLAGS],
                    [(["c.stc"], ["decode", "c.stc", "-o", "x.bin"])]),
    "encode-devices": ([["encode", "a.bin", "--devices", "dev", *CFG_FLAGS]],
                       ["encode", "b.bin", "--devices", "dev", *CFG_FLAGS],
                       [(["dev"], ["decode", "--devices", "dev", "-o", "x.bin"])]),
    "encode-both": ([["encode", "a.bin", "-o", "c.stc", "--devices", "dev", *CFG_FLAGS]],
                    ["encode", "b.bin", "-o", "c.stc", "--devices", "dev", *CFG_FLAGS],
                    [(["c.stc"], ["decode", "c.stc", "-o", "x.bin"]),
                     (["dev"], ["decode", "--devices", "dev", "-o", "x.bin"])]),
    "decode-file": ([["encode", "a.bin", "-o", "c.stc", *CFG_FLAGS]],
                    ["decode", "c.stc", "-o", "b.bin"],
                    [(["b.bin"], None)]),
    "decode-devices": ([["encode", "a.bin", "--devices", "dev", *CFG_FLAGS]],
                       ["decode", "--devices", "dev", "-o", "b.bin"],
                       [(["b.bin"], None)]),
    "decode-file-large": ([["encode", "a.bin", "-o", "c.stc", *LARGE_FLAGS]],
                          ["decode", "c.stc", "-o", "b.bin"],
                          [(["b.bin"], None)]),
    "decode-devices-large": ([["encode", "a.bin", "--devices", "dev", *LARGE_FLAGS]],
                             ["decode", "--devices", "dev", "-o", "b.bin"],
                             [(["b.bin"], None)]),
    "inject": ([["encode", "a.bin", "-o", "c.stc", *CFG_FLAGS],
                ["inject", "c.stc", "-o", "h.stc", "--spec", "chunks=6", "--manifest", "m.json"]],
               ["inject", "c.stc", "-o", "h.stc", "--spec", "chunks=0;sectors=3:1",
                "--seed", "5", "--manifest", "m.json"],
               [(["h.stc", "m.json"], ["repair", "h.stc", "--manifest", "m.json", "-o", "x.stc"])]),
    "repair": ([["encode", "b.bin", "-o", "r.stc", *CFG_FLAGS],
                ["encode", "a.bin", "-o", "c.stc", *CFG_FLAGS],
                ["inject", "c.stc", "-o", "h.stc", "--spec", "chunks=2,5;sectors=3:2",
                 "--manifest", "m.json"]],
               ["repair", "h.stc", "--manifest", "m.json", "-o", "r.stc"],
               [(["r.stc"], ["decode", "r.stc", "-o", "x.bin"])]),
    "cost": ([], ["cost", "--n", "8", "--r", "16", "--m", "2", "--sweep-s", "4", "-o", "old.txt"],
             [(["old.txt"], None)]),
    "reliability": ([], ["reliability", "s.txt", "--format", "json", "-o", "old.txt"],
                    [(["old.txt"], None)]),
    "bench": ([], ["bench", "--n", "8", "--r", "4", "--m", "1", "--e", "2", "--stripe-mib", "1",
                   "--reps", "1", "-o", "old.txt"],
              [(["old.txt"], None)]),
}


def _under(files: dict, paths) -> dict:
    """The entries of ``files`` that are, or lie in, one of ``paths``."""
    return {rel: data for rel, data in files.items()
            if any(rel.is_relative_to(p) for p in paths)}


@pytest.mark.parametrize("case", CASES)
def test_every_io_fault_fails_whole(tmp_path, monkeypatch, case):
    setup, argv, outputs = CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cont, "BLOCK_BYTES", 3 * STRIPE_BYTES)
    # 13 stripes, in five blocks, the last stripe part full
    (tmp_path / "a.bin").write_bytes(rng.bytes(13 * DATA_BYTES - 200))
    (tmp_path / "b.bin").write_bytes(rng.bytes(12 * DATA_BYTES + 11))
    (tmp_path / "s.txt").write_text(SCENARIO)
    (tmp_path / "old.txt").write_bytes(b"an earlier report\n")
    for command in setup:
        assert cli.main(command) == 0, command
    snap = _snapshot(tmp_path)

    counting = _Faults()
    with monkeypatch.context() as patch:
        counting.install(patch)
        assert cli.main(argv) == 0
    _restore(tmp_path, snap)
    assert all(counting.calls[point] for point in ("write", "fallocate", "replace")), \
        counting.calls
    if case.split("-")[0] in ("encode", "decode", "inject", "repair"):
        # else the read faults below would run no iteration
        assert counting.calls["preadv"], counting.calls

    for point in POINTS:
        for k in range(1, counting.calls[point] + 1):
            for code in (errno.ENOSPC, errno.EIO) if point != "short" else (0,):
                faults = _Faults(point, k, code)
                with monkeypatch.context() as patch:
                    faults.install(patch)
                    assert cli.main(argv) == 1, (point, k, code)
                assert not list(tmp_path.rglob("*.tmp")), (point, k)
                for paths, refusal in outputs:
                    if _under(_snapshot(tmp_path), paths) != _under(snap, paths):
                        assert refusal is not None, (point, k, paths)
                        assert cli.main(refusal) != 0, (point, k, paths)
                _restore(tmp_path, snap)
