"""I/O faults as a property: every command that writes a file, with the
k-th ``os.posix_fallocate``, output-file write, input ``readinto`` or
``os.replace`` made to fail, for every k up to the number of such calls
the command makes.

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
POINTS = ("fallocate", "write", "readinto", "replace")
# 8 KiB stripes, larger than the blocks of three small stripes, so that
# decode reads them a piece of a data run at a time
LARGE_FLAGS = CFG_FLAGS[:-1] + ["256"]


class _Faults:
    """Counts the calls of each fault point and raises ``OSError(code)`` at
    the k-th call of ``point``; ``point`` None counts only."""

    def __init__(self, point=None, k=0, code=0):
        self.calls = dict.fromkeys(POINTS, 0)
        self.point, self.k, self.code = point, k, code

    def hit(self, point: str) -> None:
        self.calls[point] += 1
        if point == self.point and self.calls[point] == self.k:
            raise OSError(self.code, os.strerror(self.code))

    def install(self, patch) -> None:
        real_open, real_fallocate, real_replace, faults = (open, os.posix_fallocate,
                                                           os.replace, self)

        class File:
            """A file whose ``write`` and ``readinto`` pass through ``hit``."""

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

            def readinto(self, buf):
                faults.hit("readinto")
                return self._f.readinto(buf)

        def fallocate(*args):
            faults.hit("fallocate")
            return real_fallocate(*args)

        def replace(*args):
            faults.hit("replace")
            return real_replace(*args)

        patch.setattr(cont, "open", File, raising=False)
        patch.setattr(cli, "open", File, raising=False)
        patch.setattr(os, "posix_fallocate", fallocate)
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

    for point in POINTS:
        for k in range(1, counting.calls[point] + 1):
            for code in (errno.ENOSPC, errno.EIO):
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
