"""Stair-layout erasure codec: configuration, encoders, decoder, cost model.

A stripe is an r x n grid of symbol regions, held as an (r, n, S) uint8
array of cells: n-m data chunks followed by m row-parity chunks, with s
extra global-parity cells embedded in a stair pattern at the bottom of
the m' rightmost data chunks (column n-m-m'+l holds e_l of them).
Conceptually the stripe is extended to a (r+e_max) x (n+m') grid: every
row of the extension is a codeword of the row code (an (n+m', n-m) MDS
code) and every column ends in column-code parities (an (r+e_max, r) MDS
code); the outside global cells of that grid are pinned to zero so they
never need storing.  Encoding and decoding are schedules of row/column
MDS operations on that grid.  A schedule depends only on which cells are
known, never on their bytes, so each is planned once, cached, and run by
the one executor ``_Codec.run``; ``encoding_steps`` and
``decoding_steps`` return the schedules that ``encode`` and ``decode``
run.  A step solves positions along a line, whichever row or column it
is, so each distinct one is built once (``_Codec.line_step``) and serves
every line; a plan is a tuple of line indices and a tuple of steps.
One rule, ``counts_within_coverage``, decides coverage for the planner,
the stripe-loss DP (``reliability``) and the Monte-Carlo predicates (``sim``).

Two reuse-based encoders are provided ("upstairs" recovers parities
bottom-up and generalises to arbitrary decoding, "downstairs" sweeps
top-down and right-to-left) plus a "standard" encoder that applies the
flattened data-to-parity coefficients directly.  All three produce
byte-identical parities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import UnrecoverableError
from .gf import Field, field_init
from .mds import GenMatrix

METHODS = ("downstairs", "upstairs", "standard")   # also the tie-break order


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StairConfig:
    """Code geometry: n devices, r sectors per chunk, m whole-chunk failures
    tolerated, e = per-chunk sector-failure tolerances (sorted ascending)."""

    n: int
    r: int
    m: int
    e: tuple[int, ...] = ()
    w: int = 8

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ValueError(f"n and r must be at least 1, got n={self.n} r={self.r}")
        if not 0 <= self.m < self.n:
            raise ValueError(f"m must satisfy 0 <= m < n, got m={self.m} n={self.n}")
        if self.w not in (8, 16, 32):
            raise ValueError(f"field width w must be 8, 16 or 32, got {self.w}")
        e = self.e
        if any(not isinstance(x, int) or x < 1 for x in e):
            raise ValueError(f"coverage entries must be positive integers, got e={e}")
        if list(e) != sorted(e):
            raise ValueError(f"coverage vector must be sorted ascending, got e={e}")
        if e and e[-1] > self.r:
            raise ValueError(f"largest coverage entry e_max={e[-1]} exceeds r={self.r}")
        if self.m + len(e) > self.n:
            raise ValueError(f"m + m' = {self.m + len(e)} exceeds n={self.n}")
        if self.m + len(e) < 1:
            raise ValueError("need at least one parity symbol: m + m' must be >= 1")
        if self.n + len(e) > 2 ** self.w:
            raise ValueError(f"n + m' = {self.n + len(e)} exceeds field size 2^{self.w}")
        if self.r + (e[-1] if e else 0) > 2 ** self.w:
            raise ValueError(f"r + e_max = {self.r + e[-1]} exceeds field size 2^{self.w}")

    @property
    def m_prime(self) -> int:
        return len(self.e)

    @property
    def s(self) -> int:
        return sum(self.e)

    @property
    def e_max(self) -> int:
        return self.e[-1] if self.e else 0

    @property
    def data_cell_count(self) -> int:
        return self.r * (self.n - self.m) - self.s

    @property
    def parity_cell_count(self) -> int:
        return self.m * self.r + self.s


def config_new(n: int, r: int, m: int, e=(), w: int = 8) -> StairConfig:
    """Validate parameters and build a config; e is canonicalised (sorted).

    Two degenerate corners are accepted as extensions: an empty e (m' = 0)
    collapses to a plain device-level MDS code, and m = 0 gives pure
    sector-failure coverage with no whole-device tolerance.
    """
    return StairConfig(int(n), int(r), int(m), tuple(sorted(int(x) for x in e)), int(w))


# ---------------------------------------------------------------------------
# cell layout
# ---------------------------------------------------------------------------

def stair_column_index(cfg: StairConfig, l: int) -> int:
    """Data column holding the l-th run of global-parity cells."""
    return cfg.n - cfg.m - cfg.m_prime + l


def global_parity_depth(cfg: StairConfig, j: int) -> int:
    """Number of global-parity cells at the bottom of data column j (0 if none)."""
    l = j - (cfg.n - cfg.m - cfg.m_prime)
    if 0 <= l < cfg.m_prime and j < cfg.n - cfg.m:
        return cfg.e[l]
    return 0


def cell_role(cfg: StairConfig, i: int, j: int) -> str:
    """Role of stripe cell (i, j): "data", "row_parity" or "global_parity"."""
    if not (0 <= i < cfg.r and 0 <= j < cfg.n):
        raise ValueError(f"cell ({i}, {j}) outside the {cfg.r} x {cfg.n} stripe")
    if j >= cfg.n - cfg.m:
        return "row_parity"
    if i >= cfg.r - global_parity_depth(cfg, j):
        return "global_parity"
    return "data"


def data_cells(cfg: StairConfig) -> list[tuple[int, int]]:
    """Data cells in chunk-major order (the container fill order)."""
    return [(i, j) for j in range(cfg.n - cfg.m) for i in range(cfg.r)
            if i < cfg.r - global_parity_depth(cfg, j)]


def parity_cells(cfg: StairConfig) -> list[tuple[int, int]]:
    """All stored parity cells: row parities chunk-major, then stair cells."""
    out = [(i, j) for j in range(cfg.n - cfg.m, cfg.n) for i in range(cfg.r)]
    for l in range(cfg.m_prime):
        j = stair_column_index(cfg, l)
        out.extend((i, j) for i in range(cfg.r - cfg.e[l], cfg.r))
    return out


def parity_mask(cfg: StairConfig) -> np.ndarray:
    mask = np.zeros((cfg.r, cfg.n), dtype=bool)
    for i, j in parity_cells(cfg):
        mask[i, j] = True
    return mask


# ---------------------------------------------------------------------------
# stripe cells and failure patterns
# ---------------------------------------------------------------------------

def check_symbol_size(symbol_size: int, w: int) -> None:
    """A symbol is a positive whole number of w-bit field words."""
    if symbol_size < 1 or symbol_size % (w // 8):
        raise ValueError(
            f"symbol size {symbol_size} is not a positive multiple of {w // 8} bytes")


def _check_cells(cfg: StairConfig, cells) -> None:
    """Stripe cells come from outside the codec: an (r, n, S) uint8 array."""
    if not isinstance(cells, np.ndarray) or cells.dtype != np.uint8 or cells.ndim != 3:
        raise ValueError("stripe cells must be a 3-D uint8 array of shape (r, n, symbol_size)")
    if cells.shape[:2] != (cfg.r, cfg.n):
        raise ValueError(
            f"stripe shape {cells.shape[:2]} does not match config {(cfg.r, cfg.n)}")
    check_symbol_size(cells.shape[2], cfg.w)


def random_stripe(cfg: StairConfig, symbol_size: int, rng: np.random.Generator) -> np.ndarray:
    """(r, n, symbol_size) cells: random data, zeroed (unencoded) parity."""
    check_symbol_size(symbol_size, cfg.w)
    cells = rng.integers(0, 256, (cfg.r, cfg.n, symbol_size), dtype=np.uint8)
    cells[parity_mask(cfg)] = 0
    return cells


@dataclass(frozen=True, eq=True)
class FailurePattern:
    """Whole-chunk failures plus per-chunk erased rows (disjoint from them).

    A hashable value: equal patterns compare and hash equal however they
    were given to :meth:`make`.
    """

    failed_chunks: frozenset
    sector_failures: tuple   # ((column, sorted erased rows), ...) by column, none empty

    @staticmethod
    def make(failed=(), sectors=None) -> "FailurePattern":
        rows_of = {int(j): sorted({int(i) for i in rows}) for j, rows in (sectors or {}).items()}
        return FailurePattern(frozenset(int(j) for j in failed),
                              tuple((j, tuple(rows)) for j, rows in sorted(rows_of.items()) if rows))

    def validate_for(self, cfg: StairConfig) -> None:
        for j in self.failed_chunks:
            if not 0 <= j < cfg.n:
                raise ValueError(f"failed chunk {j} outside 0..{cfg.n - 1}")
        for j, rows in self.sector_failures:
            if not 0 <= j < cfg.n:
                raise ValueError(f"sector-failure chunk {j} outside 0..{cfg.n - 1}")
            if j in self.failed_chunks:
                raise ValueError(f"chunk {j} listed both failed and with sector failures")
            for i in rows:
                if not 0 <= i < cfg.r:
                    raise ValueError(f"sector row {i} outside 0..{cfg.r - 1}")

    def lost_cells(self, cfg: StairConfig):
        for j in sorted(self.failed_chunks):
            for i in range(cfg.r):
                yield i, j
        for j, rows in self.sector_failures:
            for i in rows:
                yield i, j


def counts_within_coverage(cfg: StairConfig, counts):
    """The coverage rule, along the last axis: counts sorted descending lie
    under e sorted descending (zeros past m', cut to the width given).  A
    vector gives a bool, a (rows, chunks) array one bool per row."""
    counts = np.asarray(counts, dtype=np.int64)
    limit = np.zeros(counts.shape[-1], dtype=np.int64)
    limit[:cfg.m_prime] = cfg.e[::-1][:len(limit)]
    ok = (np.sort(counts, axis=-1)[..., ::-1] <= limit).all(axis=-1)
    return ok if ok.ndim else bool(ok)


def pattern_within_coverage(cfg: StairConfig, pattern: FailurePattern) -> bool:
    pattern.validate_for(cfg)
    return len(pattern.failed_chunks) <= cfg.m and counts_within_coverage(
        cfg, [len(rows) for _, rows in pattern.sector_failures])


def worst_case_pattern(cfg: StairConfig) -> FailurePattern:
    """m failed chunks plus the full stair of sector failures."""
    failed = range(cfg.n - cfg.m, cfg.n)
    sectors = {stair_column_index(cfg, l): range(cfg.r - e_l, cfg.r)
               for l, e_l in enumerate(cfg.e)}
    return FailurePattern.make(failed, sectors)


# ---------------------------------------------------------------------------
# schedule steps
# ---------------------------------------------------------------------------

def _line_index(positions: tuple[int, ...]):
    """Positions along a line as an index: a run of consecutive positions
    as a slice, so that indexing gives a view and assignment fills it in
    place; any other set as an intp array."""
    if positions and positions == tuple(range(positions[0], positions[-1] + 1)):
        return slice(positions[0], positions[-1] + 1)
    return np.array(positions, dtype=np.intp)


class Step:
    """One linear solve along a line of the augmented grid: a row or column
    MDS step, or (kind "standard") one parity cell from its data cells.

    ``inputs``/``outputs`` are positions along the line a plan pairs it with
    (for "standard", the flat grid, where cell (i, j) is i * cols + j);
    ``matrix`` maps the stacked input regions to the output regions."""

    __slots__ = ("kind", "inputs", "outputs", "matrix", "_in", "_out")

    def __init__(self, kind, inputs, outputs, matrix):
        self.kind = kind
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.matrix = matrix
        self._in = _line_index(self.inputs)
        self._out = _line_index(self.outputs)

    # One Field.matmul_regions(coef, regions) call per step per stripe:
    # stairbench's tracer counts a step's mult-XORs from that call's
    # arguments, and test_benchmark_tracer_contract pins the count.  Fusing
    # steps or batching stripes into fewer calls waits for the benchmark to
    # count work from the plan instead (ROADMAP item 1).
    def apply(self, fld: Field, line: np.ndarray) -> None:
        line[self._out] = fld.matmul_regions(self.matrix, line[self._in])

    def __repr__(self):  # pragma: no cover
        return f"Step({self.kind}: {len(self.inputs)}->{len(self.outputs)})"


Plan = tuple[tuple[int, ...], tuple[Step, ...]]


def signature(cfg: StairConfig, index: int, step: Step) -> tuple:
    """(kind, input cells, output cells) of a plan's step ``step`` on line
    ``index``, in (row, col) cells of the augmented grid."""
    cell = {"row": lambda p: (index, p), "col": lambda p: (p, index),
            "standard": lambda p: divmod(p, cfg.n + cfg.m_prime)}[step.kind]
    return step.kind, tuple(map(cell, step.inputs)), tuple(map(cell, step.outputs))


class _Solver:
    """Schedule planner: the known-cell mask of the augmented grid plus the
    steps emitted so far.  It decides from the mask alone, so a schedule
    depends on which cells are known and never on their bytes."""

    __slots__ = ("codec", "known", "indices", "steps")

    def __init__(self, codec, known):
        self.codec = codec
        self.known = known
        self.indices: list[int] = []
        self.steps: list[Step] = []

    def step(self, kind: str, index: int, outputs: tuple[int, ...]) -> None:
        """Restore the positions ``outputs`` of row or column ``index``
        ("row" or "col") from the first kappa known positions of that line."""
        codec = self.codec
        code, line = ((codec.row_code, self.known[index]) if kind == "row"
                      else (codec.col_code, self.known[:, index]))
        avail = line.nonzero()[0]
        if avail.size < code.kappa:
            raise UnrecoverableError(
                f"{'row' if kind == 'row' else 'column'} {index}: only {avail.size} "
                f"symbols available, need {code.kappa}")
        step = codec.line_step(kind, tuple(avail[:code.kappa].tolist()), outputs)
        line[step._out] = True
        self.indices.append(index)
        self.steps.append(step)


def _run_upstairs(solver: _Solver, deferred: dict, lossy: dict) -> None:
    """Bottom-up recovery: extend complete chunks, then alternate extension
    rows and damaged chunks in ascending loss order, then rebuild the
    deferred chunks row by row."""
    cfg = solver.codec.cfg
    r, n = cfg.r, cfg.n
    levels = max((len(v) for v in lossy.values()), default=0)
    order = sorted(lossy, key=lambda j: (len(lossy[j]), j))
    if levels:
        for j in range(n):
            if j not in deferred and j not in lossy:
                solver.step("col", j, tuple(range(r, r + levels)))
        level_done = [False] * levels
        for idx, j in enumerate(order):
            c = len(lossy[j])
            for h in range(c):
                if not level_done[h]:
                    solver.step("row", r + h, tuple(sorted(order[idx:])))
                    level_done[h] = True
            l_rem = max((len(lossy[jj]) for jj in order[idx + 1:]), default=0)
            solver.step("col", j, tuple(sorted(lossy[j])) + tuple(range(r + c, r + l_rem)))
    for i in range(r):
        outs = tuple(j for j in sorted(deferred) if i in deferred[j])
        if outs:
            solver.step("row", i, outs)


# ---------------------------------------------------------------------------
# codec (cached per config)
# ---------------------------------------------------------------------------

class _Codec:
    def __init__(self, cfg: StairConfig):
        self.cfg = cfg
        self.field = field_init(cfg.w)
        self.row_code = GenMatrix(self.field, cfg.n - cfg.m, cfg.n + cfg.m_prime)
        self.col_code = (GenMatrix(self.field, cfg.r, cfg.r + cfg.e_max)
                         if cfg.m_prime else None)
        self.data_cell_list = data_cells(cfg)
        self.data_index = {cell: k for k, cell in enumerate(self.data_cell_list)}

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.cfg.r + self.cfg.e_max, self.cfg.n + self.cfg.m_prime

    def base_known(self) -> np.ndarray:
        """Known mask with the stripe's cells and the pinned-to-zero outside
        global cells set."""
        rows, cols = self.grid_shape
        known = np.zeros((rows, cols), dtype=bool)
        known[:self.cfg.r, :self.cfg.n] = True
        for l, e_l in enumerate(self.cfg.e):
            known[self.cfg.r: self.cfg.r + e_l, self.cfg.n + l] = True
        return known

    def run(self, plan: Plan, cells: np.ndarray) -> np.ndarray:
        """Execute a schedule: copy the (r, n, S) stripe cells into a fresh
        augmented grid, apply every step in order to its line (one kernel
        call each, see ``Step.apply``), return the grid.

        The grid comes zeroed from ``np.zeros``: a fresh large allocation
        then leaves the pages of extension cells that the plan never writes
        untouched, which zeroing them by hand would not."""
        cfg = self.cfg
        rows, cols = self.grid_shape
        grid = np.zeros((rows, cols, cells.shape[2]), dtype=np.uint8)
        grid[:cfg.r, :cfg.n] = cells
        lines = {"row": grid, "col": grid.swapaxes(0, 1),
                 "standard": grid.reshape(1, rows * cols, -1)}
        for index, st in zip(*plan):
            st.apply(self.field, lines[st.kind][index])
        return grid

    # -- schedules ------------------------------------------------------------

    # Bounded and shared by every codec.  One step serves every line, so the
    # bulk-injection sweep (25 configs, 100k patterns) needs 13,435, not 50,295.
    @lru_cache(maxsize=4096)
    def line_step(self, kind: str, inputs: tuple[int, ...],
                  outputs: tuple[int, ...]) -> Step:
        """The row or column ("row" or "col") step computing positions
        ``outputs`` from ``inputs``; every plan and every line shares it."""
        code = self.row_code if kind == "row" else self.col_code
        return Step(kind, inputs, outputs, code.decode_matrix(inputs, outputs))

    def _plan_downstairs(self) -> Plan:
        cfg = self.cfg
        known = self.base_known()
        known[:cfg.r, :cfg.n] &= ~parity_mask(cfg)
        solver = _Solver(self, known)
        r, n, mp = cfg.r, cfg.n, cfg.m_prime
        col_done = [False] * mp
        for i in range(r):
            for l in range(mp - 1, -1, -1):
                if not col_done[l] and cfg.e[l] >= r - i:
                    solver.step("col", n + l, tuple(range(r - cfg.e[l], r)))
                    col_done[l] = True
            stair_ls = [l for l in range(mp) if cfg.e[l] >= r - i]
            out_cols = [j for j in range(n - cfg.m) if global_parity_depth(cfg, j) >= r - i]
            out_cols += list(range(n - cfg.m, n))
            out_cols += [n + l for l in range(mp) if l not in stair_ls]
            solver.step("row", i, tuple(sorted(out_cols)))
        return tuple(solver.indices), tuple(solver.steps)

    def _plan_standard(self) -> Plan:
        """One step per parity cell, on line 0 (the flat grid), over only the
        data cells it depends on: its mult-XORs are the nonzero coefficients."""
        coef, dcells, pcells, nonzero = self.coefficients
        cols = self.grid_shape[1]
        pos = [i * cols + j for i, j in dcells]
        return ((0,) * len(pcells),
                tuple(Step("standard", [pos[k] for k in nz], (i * cols + j,), coef[p:p + 1, nz])
                      for p, ((i, j), nz) in enumerate(zip(pcells, nonzero))))

    @cached_property
    def extension_plan(self) -> Plan:
        """Rows, then columns, of the augmented grid from the stored stripe."""
        cfg = self.cfg
        if not cfg.m_prime:
            return (), ()
        solver = _Solver(self, self.base_known())
        for i in range(cfg.r):
            solver.step("row", i, tuple(range(cfg.n, cfg.n + cfg.m_prime)))
        for c in range(cfg.n + cfg.m_prime):
            solver.step("col", c, tuple(range(cfg.r, cfg.r + cfg.e_max)))
        return tuple(solver.indices), tuple(solver.steps)

    # -- flattened data -> parity coefficients --------------------------------

    @cached_property
    def coefficients(self):
        """(P, D) coefficient matrix over the field, plus cell orderings.

        Row p gives the linear combination of data cells that forms parity
        cell ``parity_cells(cfg)[p]``; derived once by pushing unit vectors
        through the upstairs plan.
        """
        cfg = self.cfg
        dcells = self.data_cell_list
        pcells = parity_cells(cfg)
        wb = self.field.word_bytes
        unit = np.zeros((cfg.r, cfg.n, len(dcells) * wb), dtype=np.uint8)
        for k, (i, j) in enumerate(dcells):
            unit[i, j, k * wb] = 1          # unit field element, little-endian
        grid = self.run(encoding_steps(cfg, "upstairs"), unit)
        coef = np.zeros((len(pcells), len(dcells)), dtype=self.field.word_dtype)
        for p, (i, j) in enumerate(pcells):
            coef[p] = grid[i, j].view(self.field.word_dtype)
        nonzero = [np.flatnonzero(coef[p]) for p in range(len(pcells))]
        return coef, dcells, pcells, nonzero


@cache
def _codec(cfg: StairConfig) -> _Codec:
    return _Codec(cfg)


# ---------------------------------------------------------------------------
# the planner: every schedule is planned here, once, and cached
# ---------------------------------------------------------------------------

# Bounded: exhaustive sweeps decode hundreds of thousands of distinct
# patterns.  A plan's two tuples, line indices and interned steps, take 16 B
# a step plus about 120 B (241 B for sampled exemplar patterns), so 8,192
# such plans take 2 MiB.
@lru_cache(maxsize=8192)
def _decode_plan(cfg: StairConfig, pattern: FailurePattern, practical: bool) -> Plan:
    """Schedule restoring the cells that ``pattern`` lists as lost; raises
    :class:`UnrecoverableError` (never cached) if none does."""
    codec = _codec(cfg)
    known = codec.base_known()
    for j in pattern.failed_chunks:
        known[:cfg.r, j] = False
    for j, rows in pattern.sector_failures:
        known[list(rows), j] = False

    solver = _Solver(codec, known)
    lost = ~known[:cfg.r, :cfg.n]
    if practical:
        count = lost.sum(axis=1)
        local = (count > 0) & (count <= cfg.m)
        for i in np.flatnonzero(local).tolist():
            solver.step("row", i, tuple(np.flatnonzero(lost[i]).tolist()))
        lost[local] = False
    loss = {j: set(lost[:, j].nonzero()[0].tolist()) for j in range(cfg.n) if lost[:, j].any()}

    if loss:
        if practical:
            by_size = sorted(loss, key=lambda j: (len(loss[j]), j), reverse=True)
            defer_cols = by_size[:cfg.m]
        else:
            defer_cols = sorted(pattern.failed_chunks)
            if len(defer_cols) > cfg.m:
                raise UnrecoverableError(
                    f"{len(defer_cols)} whole-chunk failures exceed m={cfg.m}")
        deferred = {j: loss.pop(j) for j in defer_cols if j in loss}
        counts = sorted(len(v) for v in loss.values())
        if not counts_within_coverage(cfg, counts):
            raise UnrecoverableError(
                f"per-chunk sector losses {counts} exceed coverage e={cfg.e}")
        _run_upstairs(solver, deferred, loss)
    return tuple(solver.indices), tuple(solver.steps)


def decoding_steps(cfg: StairConfig, pattern: FailurePattern, *,
                   practical: bool = True) -> Plan:
    """The schedule that restores the cells listed in ``pattern``.

    With ``practical=True`` rows that lost at most m cells are repaired
    locally first, then the (at most m) chunks with the most remaining
    losses are set aside for final row-wise repair while the rest go
    through the bottom-up schedule.  ``practical=False`` runs the pure
    bottom-up schedule with exactly the pattern's failed chunks deferred.
    Planned from the pattern alone and cached; raises
    :class:`UnrecoverableError` when no schedule exists.
    """
    pattern.validate_for(cfg)
    return _decode_plan(cfg, pattern, practical)


@cache
def encoding_steps(cfg: StairConfig, method: str) -> Plan:
    """The step schedule of an encoding method, planned once per config."""
    if method == "upstairs":
        # encoding is decoding the layout's own erasures: the m parity
        # chunks and the stair of global-parity cells
        return decoding_steps(cfg, worst_case_pattern(cfg), practical=False)
    if method == "downstairs":
        return _codec(cfg)._plan_downstairs()
    if method == "standard":
        return _codec(cfg)._plan_standard()
    raise ValueError(f"unknown encoding method {method!r}")


# ---------------------------------------------------------------------------
# public encoders / decoder: (r, n, S) uint8 cell arrays in and out
# ---------------------------------------------------------------------------

def encode(cfg: StairConfig, cells: np.ndarray, method: str = "auto") -> np.ndarray:
    """Fill the parity cells of ``cells`` in place with ``method``'s
    schedule and return ``cells``."""
    _check_cells(cfg, cells)
    if method == "auto":
        method = choose_method(cfg)
    steps = encoding_steps(cfg, method)
    cells[:] = _codec(cfg).run(steps, cells)[:cfg.r, :cfg.n]
    return cells


def build_canonical(cfg: StairConfig, cells: np.ndarray) -> np.ndarray:
    """The (r+e_max, n+m', S) augmented grid of an encoded stripe: its cells
    plus the intermediate and virtual parities."""
    _check_cells(cfg, cells)
    codec = _codec(cfg)
    return codec.run(codec.extension_plan, cells)


def decode(cfg: StairConfig, cells: np.ndarray, pattern: FailurePattern, *,
           practical: bool = True) -> np.ndarray:
    """New cells with those listed in ``pattern`` restored by the schedule
    of :func:`decoding_steps`; erased bytes are never read.  Raises
    :class:`UnrecoverableError` instead of returning wrong data."""
    _check_cells(cfg, cells)
    steps = decoding_steps(cfg, pattern, practical=practical)
    return _codec(cfg).run(steps, cells)[:cfg.r, :cfg.n].copy()


# ---------------------------------------------------------------------------
# cost model and parity dependencies
# ---------------------------------------------------------------------------

def xor_count(cfg: StairConfig, method: str) -> int:
    """Region multiply-XOR operations per stripe for an encoding method."""
    nm = cfg.n - cfg.m
    if method == "upstairs":
        return nm * (cfg.m * cfg.r + cfg.s) + cfg.r * (nm * cfg.e_max)
    if method == "downstairs":
        return nm * ((cfg.m + cfg.m_prime) * cfg.r) + cfg.r * cfg.s
    if method == "standard":
        return int(sum(len(nz) for nz in _codec(cfg).coefficients[3]))
    raise ValueError(f"unknown encoding method {method!r}")


@lru_cache(maxsize=1024)
def choose_method(cfg: StairConfig) -> str:
    """Cheapest encoding method; ties go downstairs < upstairs < standard.
    Cached per config, since ``auto`` encoding asks once per stripe."""
    return min(METHODS, key=lambda meth: (xor_count(cfg, meth), METHODS.index(meth)))


def parity_dependents(cfg: StairConfig, cell: tuple[int, int]) -> frozenset:
    """Parity cells whose value changes when the given data cell changes."""
    i, j = cell
    if cell_role(cfg, i, j) != "data":
        raise ValueError(f"cell {cell} is not a data cell")
    codec = _codec(cfg)
    coef, _, pcells, _ = codec.coefficients
    k = codec.data_index[(i, j)]
    return frozenset(pcells[p] for p in np.flatnonzero(coef[:, k]))


def update_penalty(cfg: StairConfig) -> float:
    """Mean number of parity cells touched by a single data-cell update."""
    codec = _codec(cfg)
    coef, dcells, _, _ = codec.coefficients
    if not dcells:
        raise ValueError("config stores no data cells")
    return int(np.count_nonzero(coef)) / len(dcells)
