"""The native region kernel: its C source, its build and its loader.

One C function, ``gf_matmul``, applies an (O', K') matrix of byte-to-byte
GF(2)-linear maps to K' contiguous byte planes of one length and writes
O' output planes.  Each map is given by two 16-entry tables, one for the
low and one for the high nibble of a byte (the SPLIT(w,4) multiply of
Plank, Greenan and Miller, FAST 2013), so an output byte is the XOR of two
lookups per input plane.  On CPUs with AVX2 the lookups are ``vpshufb`` on
32-byte blocks, and output planes are accumulated in registers four at a
time, so each input block is read once per four outputs (the loop of Intel
ISA-L's ``ec_encode_data``).  A portable scalar loop in the same file
serves the tail bytes and CPUs without AVX2.

The module is built with cffi's API mode and the installed C compiler on
the first :func:`load`, in a child interpreter, so this process never
imports cffi, pycparser or setuptools.  The build goes to ``_build/`` next
to this file under a name that carries a hash of the source, so a stale
build is never loaded, and the finished file is moved into place with
``os.replace``, so processes that build at once never load half a file.
There is no pure-Python fallback: if the compiler fails, :func:`load`
raises ``ImportError`` with its message.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

BUILD_DIR = Path(__file__).resolve().parent / "_build"

CDEF = """
void gf_matmul(const uint8_t *tables, const uint8_t *in, uint8_t *out,
               size_t n_out, size_t n_in, size_t len);
"""

SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <immintrin.h>

/* Output plane p, bytes [start, len): the XOR over input planes q of
   map(p, q) applied to in[q], where the map's tables are the 32 bytes at
   tables + 32 * (p * n_in + q): 16 for the low nibble, 16 for the high. */
static void matmul_scalar(const uint8_t *tables, const uint8_t *in, uint8_t *out,
                          size_t n_out, size_t n_in, size_t len, size_t start)
{
    for (size_t p = 0; p < n_out; p++) {
        const uint8_t *row = tables + 32 * p * n_in;
        for (size_t b = start; b < len; b++) {
            uint8_t acc = 0;
            for (size_t q = 0; q < n_in; q++) {
                uint8_t x = in[q * len + b];
                acc ^= row[32 * q + (x & 15)] ^ row[32 * q + 16 + (x >> 4)];
            }
            out[p * len + b] = acc;
        }
    }
}

#define GROUP 4

/* Output planes [p0, p0 + g) over the whole 32-byte blocks of [0, end):
   each block of each input plane is loaded and split into nibbles once,
   and the g accumulators stay in registers. */
static inline __attribute__((always_inline, target("avx2")))
void group_avx2(const uint8_t *tables, const uint8_t *in, uint8_t *out,
                size_t p0, size_t g, size_t n_in, size_t len, size_t end)
{
    const __m256i mask = _mm256_set1_epi8(0x0f);
    for (size_t b = 0; b < end; b += 32) {
        __m256i acc[GROUP];
        for (size_t i = 0; i < g; i++)
            acc[i] = _mm256_setzero_si256();
        for (size_t q = 0; q < n_in; q++) {
            __m256i x = _mm256_loadu_si256((const __m256i *)(in + q * len + b));
            __m256i lo = _mm256_and_si256(x, mask);
            __m256i hi = _mm256_and_si256(_mm256_srli_epi64(x, 4), mask);
            for (size_t i = 0; i < g; i++) {
                const uint8_t *t = tables + 32 * ((p0 + i) * n_in + q);
                __m256i tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)t));
                __m256i thi = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)(t + 16)));
                acc[i] = _mm256_xor_si256(acc[i], _mm256_xor_si256(
                    _mm256_shuffle_epi8(tlo, lo), _mm256_shuffle_epi8(thi, hi)));
            }
        }
        for (size_t i = 0; i < g; i++)
            _mm256_storeu_si256((__m256i *)(out + (p0 + i) * len + b), acc[i]);
    }
}

/* Every output plane over the whole 32-byte blocks; returns the bytes done. */
__attribute__((target("avx2")))
static size_t matmul_avx2(const uint8_t *tables, const uint8_t *in, uint8_t *out,
                          size_t n_out, size_t n_in, size_t len)
{
    size_t end = len & ~(size_t)31;
    for (size_t p0 = 0; p0 < n_out; p0 += GROUP) {
        switch (n_out - p0 < GROUP ? n_out - p0 : GROUP) {   /* a constant g per copy */
        case 1: group_avx2(tables, in, out, p0, 1, n_in, len, end); break;
        case 2: group_avx2(tables, in, out, p0, 2, n_in, len, end); break;
        case 3: group_avx2(tables, in, out, p0, 3, n_in, len, end); break;
        default: group_avx2(tables, in, out, p0, GROUP, n_in, len, end); break;
        }
    }
    return end;
}

void gf_matmul(const uint8_t *tables, const uint8_t *in, uint8_t *out,
               size_t n_out, size_t n_in, size_t len)
{
    size_t done = __builtin_cpu_supports("avx2") ? matmul_avx2(tables, in, out, n_out, n_in, len) : 0;
    matmul_scalar(tables, in, out, n_out, n_in, len, done);
}
"""

# Run in a child interpreter: reads [module name, cdef, source, directory]
# as JSON on stdin, builds the module in the directory with the compiler
# flags this Python was built with, and prints the path of the built file.
_BUILD = """
import json, sys
from cffi import FFI
name, cdef, source, tmpdir = json.load(sys.stdin)
ffi = FFI()
ffi.cdef(cdef)
ffi.set_source(name, source)
print(ffi.compile(tmpdir=tmpdir))
"""


def module_name() -> str:
    """The built module's name: a hash of its declaration and source."""
    digest = hashlib.sha256((CDEF + SOURCE).encode()).hexdigest()
    return f"_gf_kernel_{digest[:16]}"


def _build(name: str, build_dir: Path, target: Path) -> None:
    import subprocess      # only a build needs it

    build_dir.mkdir(parents=True, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=build_dir)
    try:
        proc = subprocess.run([sys.executable, "-c", _BUILD], capture_output=True, text=True,
                              input=json.dumps([name, CDEF, SOURCE, tmpdir]))
        if proc.returncode != 0:
            raise ImportError(f"building the GF region kernel failed:\n{proc.stderr}")
        os.replace(proc.stdout.strip().splitlines()[-1], target)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


@cache
def load(build_dir: Path = BUILD_DIR):
    """(ffi, lib) of the kernel module in ``build_dir``, built first if
    it is not there."""
    name = module_name()
    target = Path(build_dir) / (name + EXTENSION_SUFFIXES[0])
    if not target.exists():
        _build(name, Path(build_dir), target)
    loader = ExtensionFileLoader(name, str(target))
    module = module_from_spec(spec_from_file_location(name, target, loader=loader))
    loader.exec_module(module)
    return module.ffi, module.lib
