"""Building and loading the native region kernel, in fresh interpreters."""

import json
import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

import staircodes
from staircodes import kernel

SRC = str(Path(staircodes.__file__).resolve().parent.parent)


def _python(code: str, *args) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", code, *map(str, args)],
                            env={**os.environ, "PYTHONPATH": SRC},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


ENCODE_ONCE = """
import json, sys
from staircodes import cli
rc = cli.main(["encode", sys.argv[1], "-o", sys.argv[2], "--n", "8", "--r", "4", "--m", "2",
               "--e", "1,1,2", "--symbol-size", "64"])
print(json.dumps([rc, sorted(m for m in ("cffi", "pycparser", "setuptools", "_cffi_backend")
                             if m in sys.modules)]))
"""


def test_encode_loads_the_kernel_without_build_tooling(tmp_path):
    kernel.load()                      # built before the child starts
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(5000))
    # the kernel's backend is loaded, the tools that built it are not
    assert _finish(_python(ENCODE_ONCE, src, tmp_path / "c.stairc")) == [0, ["_cffi_backend"]]


# Builds the kernel into the directory argv[1], then runs one identity map
# (low nibble table 0..15, high nibble table 0, 16, ..., 240) over 40 bytes.
BUILD_AND_RUN = """
import json, sys
from pathlib import Path
import numpy as np
from staircodes import kernel
ffi, lib = kernel.load(Path(sys.argv[1]))
tables = np.concatenate([np.arange(16), np.arange(0, 256, 16)]).astype(np.uint8)
src = np.arange(40, dtype=np.uint8) * 7
out = np.empty_like(src)
lib.gf_matmul(ffi.from_buffer("uint8_t[]", tables), ffi.from_buffer("uint8_t[]", src),
              ffi.from_buffer("uint8_t[]", out), 1, 1, len(src))
print(json.dumps(out.tolist() == src.tolist()))
"""


def test_two_processes_build_into_one_directory_at_once(tmp_path):
    build_dir = tmp_path / "build"
    procs = [_python(BUILD_AND_RUN, build_dir) for _ in range(2)]
    assert [_finish(p) for p in procs] == [True, True]
    # one finished module, and no temporary build directory left behind
    assert [p.name for p in build_dir.iterdir()] == [kernel.module_name() + EXTENSION_SUFFIXES[0]]


def test_failed_build_raises_import_error_with_the_compiler_message(tmp_path, monkeypatch):
    monkeypatch.setattr(kernel, "SOURCE", "#error no kernel here\n")
    with pytest.raises(ImportError, match="no kernel here"):
        kernel.load.__wrapped__(tmp_path)
    assert list(tmp_path.iterdir()) == []
