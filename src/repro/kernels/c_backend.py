"""Compiled backend: ``hop.c`` built with the system ``cc``, called via ctypes.

:func:`load` compiles ``hop.c`` (next to this file) on first use into a
content-addressed shared object in a per-user cache directory, loads it
with :class:`ctypes.CDLL` — so the GIL is released while a pass runs —
and checks the passes, its lane stream and its fused hop against numpy,
``LaneRng`` and the drivers bit for bit (:func:`_self_test`), the
out-of-core draw against its numpy lockstep (:func:`_self_test_ooc`), the
frame-pool passes against ``FramePool``'s numpy methods
(:func:`_self_test_pool`), the fused out-of-core step against the call
sequence of those two (:func:`_self_test_ooc_step`), the index build's
two loops — alias tables and prefix sums — against the numpy builders
(:func:`_self_test_build`), and a run's lane seeds against
``Generator.integers`` (:func:`_self_test_seeds`). Any failure raises
:class:`Unavailable` with the reason; the registry serves numpy.

Memory safety is split in two. Python proves, once per run, that every
array is C-contiguous int64/float64 (int32 for the alias cells) and that
lengths agree (:func:`_addr`; verified addresses are memoised in
``KernelScratch.bound``); the C loops check every index they derive from
array *contents* and return ``−1 − row``, raised here as
:class:`IndexError`. Arrays that do not fit (say a non-int64 ``nbr``)
run the numpy pass instead — chosen from the arrays, never from an
option.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.kernels import numpy_backend
from repro.kernels.base import KernelBackend, KernelScratch, WalkState
from repro.telemetry import events

#: ``-ffp-contract=off``: ``r = total − u·total`` must round twice;
#: ``-pthread``: ``ooc_step`` runs its per-lane passes on helper threads.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")
_SOURCE = Path(__file__).with_name("hop.c")
#: Argument lists of the entry points (q = int64, p = pointer, d = double).
_SIGNATURES = {"hop_select": "qpppqpqppppp", "hop_alias": "qpqpppppqpqpqpp",
               "hop_scatter": "qpppqpqpppqppppqqpp", "hop_lanes": "pqpqp",
               "hop_uniforms": "qppqp", "alias_build": "qqpppqpqppp",
               "prefix_sums": "qqpqpqp", "ooc_plan": "qpppqpqpppppp",
               "ooc_select": "qpppqpqpppqppqpqqpppppp",
               "ooc_alias": "qpqpqppqpppqqpp", "pool_read": "pqppqqqqpppp",
               "pool_admit": "pqppqqqppp", "ooc_step": "pqpqqp",
               "lane_seeds": "pfqp"}
#: f: a bit generator's ``next_uint64`` (its ``ctypes`` interface's type).
_KINDS = {"q": ctypes.c_int64, "p": ctypes.c_void_p, "d": ctypes.c_double,
          "f": ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)}
_I64, _I32, _F64, _U64, _BOOL = (np.dtype(t) for t in (
    np.int64, np.int32, np.float64, np.uint64, np.bool_))
#: Widest alias table ``alias_build`` writes: its cells are int32 offsets.
_MAX_ALIAS_WIDTH = 2**31
#: Lanes per thread of an ``ooc_step`` call: an iteration of n lanes runs
#: on at most ``1 + n // GRAIN`` threads, so short ones stay inline.
GRAIN = 4096
#: Buckets of a byte histogram ``ooc_step`` can tally (``struct Tally``:
#: count, sum, blocks, zeros, least, greatest, then a count per bucket).
_MAX_BUCKETS = 32
_TALLY = 7 + _MAX_BUCKETS


class _Lanes(ctypes.Structure):
    """``struct Lanes`` of ``hop.c``, member by member (all 8 bytes)."""
    _fields_ = [(f"m{i}", _KINDS[kind]) for i, kind in enumerate(
        "qpqp" "qpqpqpp" "qpqpppqppppqpp" "qpp" "dq" "qqp" "ddd")]


class _Pool(ctypes.Structure):
    """``struct Pool`` of ``hop.c``: a :class:`FramePool`'s columns."""
    _fields_ = [(f"m{i}", _KINDS[kind]) for i, kind in enumerate("qqqppppppp")]


class _Step(ctypes.Structure):
    """``struct Step`` of ``hop.c``, member by member (all 8 bytes)."""
    _fields_ = [(f"m{i}", _KINDS[kind]) for i, kind in enumerate(
        "qpppqp" "qpqpppqppppqpp" "qpp" "d" "p" "qp" "qpp" "qq" "pp" "qqpp" "q")]


#: ``spent`` of a step that has no rejection budget to spend.
_NO_LANES = np.zeros(0, np.int64)


class Unavailable(RuntimeError):
    """The compiled backend cannot serve; ``str()`` is the reason."""


def find_cc():
    return shutil.which("cc")


def _trusted(path: Path) -> bool:
    """Ours alone: owned by this uid, not group/world-writable."""
    st = path.stat()
    return st.st_uid == os.getuid() and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def _cache_dir() -> Path:
    """``${XDG_CACHE_HOME:-~/.cache}/repro-kernels`` (0700), or a private
    temporary directory when that cannot be made, written or trusted."""
    path = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache",
                "repro-kernels")
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        if _trusted(path) and os.access(path, os.W_OK | os.X_OK):
            return path
    except OSError:
        pass
    return Path(tempfile.mkdtemp(prefix="repro-kernels-"))


def _build() -> ctypes.CDLL:
    cc = find_cc()
    if cc is None:
        raise Unavailable("no C compiler: 'cc' is not on PATH")
    try:
        version = subprocess.run([cc, "--version"], capture_output=True,
                                 timeout=30).stdout
        abi = sysconfig.get_config_var("SOABI") or ""
        digest = hashlib.sha256(b"\0".join(
            (_SOURCE.read_bytes(), version, " ".join(CFLAGS).encode(),
             abi.encode()))).hexdigest()
        cache = _cache_dir()
        target = cache / f"hop-{digest[:32]}.so"
        if not target.exists():
            # Temp name + rename: processes racing a cold cache all win.
            fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
            os.close(fd)
            try:
                proc = subprocess.run([cc, *CFLAGS, "-o", tmp, str(_SOURCE)],
                                      capture_output=True, text=True, timeout=120)
                if proc.returncode != 0:
                    lines = proc.stderr.strip().splitlines() or ["no output"]
                    raise Unavailable(f"cc failed: {lines[0]}")
                os.replace(tmp, target)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        if not (_trusted(cache) and _trusted(target)):
            raise Unavailable(f"refusing {target}: not owned by this user "
                              f"alone, or writable by others")
        lib = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError) as exc:
        raise Unavailable(f"build/load error: {exc}") from exc
    for name, signature in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = ctypes.c_int64
        fn.argtypes = [_KINDS[kind] for kind in signature]
    return lib


def load() -> KernelBackend:
    """Build (or reuse), load, self-test; raises :class:`Unavailable`."""
    lib = _build()
    backend = _make_backend(lib)
    _self_test(lib, backend)
    _self_test_ooc(backend)
    _self_test_pool(backend)
    _self_test_ooc_step(backend)
    _self_test_build(backend)
    _self_test_seeds(backend)
    return backend


def _addr(a: np.ndarray, dtype, size=None) -> int:
    """Address of ``a``, proven a C-contiguous ``dtype`` array (of
    ``size`` elements); read-only mmaps and shared-memory views pass."""
    if a.dtype != dtype or not a.flags.c_contiguous or (
            size is not None and a.size != size):
        raise ValueError(f"kernel pass needs a C-contiguous {dtype} array"
                         + (f" of {size} elements" if size is not None else ""))
    try:  # 4x cheaper than ``a.ctypes.data``; what a 128-lane hop feels
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):  # read-only or empty buffer
        return a.ctypes.data


def _out(a: np.ndarray, dtype, size=None) -> int:
    """:func:`_addr` of an array the C code writes."""
    if not a.flags.writeable:
        raise ValueError("kernel output array is read-only")
    return _addr(a, dtype, size)


def _bound(scratch: KernelScratch, key: str, owner, describe):
    """``describe(owner)``'s C arguments, verified once per ``scratch``;
    ``None`` when the arrays do not fit the ABI (the numpy pass serves).
    The memo keeps the arrays alive while their addresses are held."""
    hit = scratch.bound.get(key)
    if hit is None or hit[0] is not owner:
        try:
            hit = (owner, *describe(owner))
        except ValueError:
            hit = (owner, None)
        scratch.bound[key] = hit
    return hit[1]


def _index_args(index):
    arrays = (index.indptr, index.c, index.lvl_base, index.lvl_ptr,
              index.prob, index.alias)
    indptr, c, lvl_base, lvl_ptr, prob, alias = arrays
    V = indptr.size - 1
    select = (V, _addr(indptr, _I64), c.size, _addr(c, _F64))
    draw = (V, _addr(lvl_base, _I64, V + 1), lvl_ptr.size, _addr(lvl_ptr, _I64),
            prob.size, _addr(prob, _F64), _addr(alias, _I32, prob.size))
    return (select, draw), arrays


def _walk_args(walk: WalkState):
    V, E, num = walk.indptr.size - 1, walk.nbr.size, walk.cur.size
    stride, hops = 0, (None, None)
    if walk.hop_vertex is not None:
        stride = walk.hop_vertex.shape[-1]
        hops = (_addr(walk.hop_vertex, _I64, num * stride),
                _addr(walk.hop_time, _F64, num * stride))
    state = (V, _addr(walk.indptr, _I64), E, _addr(walk.nbr, _I64),
             _addr(walk.etime, _F64, E), _addr(walk.candidate_sizes, _I64, E),
             num, _addr(walk.cur, _I64), _addr(walk.prev, _I64, num),
             _addr(walk.s, _I64, num), _addr(walk.steps_left, _I64, num), stride)
    return (state, hops), tuple(vars(walk).values())


def _ooc_args(index):
    arrays = (index.indptr, index.trunk_sizes, index.tr_indptr, index.tr_prefix)
    indptr, trunk_sizes, tr_indptr, tr_prefix = arrays
    V = indptr.size - 1
    return (V, _addr(indptr, _I64), _addr(trunk_sizes, _I64, V),
            _addr(tr_indptr, _I64, V + 1), tr_prefix.size,
            _addr(tr_prefix, _F64)), arrays


def _pool_args(pool):
    n = pool.frames
    arrays = (pool.slab, pool.key, pool.length, pool.stamp, pool.protected,
              pool._sorted_keys, pool._sorted_frames)
    slab, key, length, stamp, protected, index_keys, index_frames = arrays
    ctx = _Pool(n, pool.width, pool.protected_frames,
                _out(slab, _F64, n * pool.width), _out(key, _I64, n),
                _out(length, _I64, n), _out(stamp, _I64, n),
                _out(protected, _BOOL, n), _out(index_keys, _I64, n),
                _out(index_frames, _I64, n))
    return ctypes.addressof(ctx), (ctx, arrays)


def _checked(code: int, what: str) -> int:
    if code < 0:
        raise IndexError(f"kernel {what}: row {-1 - code} is out of bounds")
    return code


def _make_backend(lib: ctypes.CDLL) -> KernelBackend:
    def select(index, vs, ss, u, level, out, scratch, count):
        args = _bound(scratch, "index", index, _index_args)
        if args is None:
            return numpy_backend.select(index, vs, ss, u, level, out,
                                        scratch, count)
        n = vs.size
        deep = scratch.array("deep", n, np.int64)
        probes = ctypes.c_int64()
        found = _checked(lib.hop_select(
            n, _addr(vs, _I64), _addr(ss, _I64, n), _addr(u, _F64, n),
            *args[0], _addr(level, _I64, n), _addr(out, _I64, n),
            _addr(deep, _I64), ctypes.addressof(probes),
        ), "select (vertex, or candidate size outside 1..deg)")
        return deep[:found], probes.value

    def alias(index, vs, level, out, deep, u_cell, u_take, scratch):
        args = _bound(scratch, "index", index, _index_args)
        if args is None:
            return numpy_backend.alias(index, vs, level, out, deep,
                                       u_cell, u_take, scratch)
        n, k = vs.size, deep.size
        _checked(lib.hop_alias(
            k, _addr(deep, _I64), n, _addr(vs, _I64), _addr(level, _I64, n),
            _addr(out, _I64, n), _addr(u_cell, _F64, k), _addr(u_take, _F64, k),
            *args[1],
        ), "alias (cell outside the level's table)")

    def scatter(walk, lanes, vs, idx, iteration, scratch):
        args = _bound(scratch, "walk", walk, _walk_args)
        if args is None:
            return numpy_backend.scatter(walk, lanes, vs, idx, iteration, scratch)
        if lanes.dtype != _I64 or not (lanes.flags.c_contiguous
                                       and lanes.flags.writeable):
            lanes = np.array(lanes, dtype=np.int64)
        n = lanes.size
        alive = _checked(lib.hop_scatter(
            n, _addr(lanes, _I64), _addr(vs, _I64, n),
            _addr(np.ascontiguousarray(idx, dtype=np.int64), _I64, n),
            *args[0], int(iteration), *args[1],
        ), f"scatter (lane, edge index or hop column {iteration})")
        return lanes[:alive]

    def hop(index, walk, rng, stop, node2vec, scratch):
        index_args = _bound(scratch, "index", index, _index_args)
        walk_args = _bound(scratch, "walk", walk, _walk_args)
        if index_args is None or walk_args is None:
            return None
        keys, span, inv_p, inv_q, beta_max, rounds = node2vec or (
            np.zeros(0, np.int64), 0, 0.0, 0.0, 1.0, -1)
        # step's output: six counts, then the lanes that spent the budget
        out = np.empty(6 + (walk.cur.size if node2vec else 0), np.int64)
        try:
            ctx = _Lanes(
                *index_args[0], *index_args[1], *walk_args[0], *walk_args[1],
                rng._key.size, _addr(rng._key, _U64),
                _addr(rng._ctr, _U64, rng._key.size), stop, rounds,
                span, keys.size, _addr(keys, _I64), inv_p, inv_q, beta_max)
        except ValueError:
            return None
        fixed = ctypes.addressof(ctx), _addr(out, _I64)

        # ``_keep``: the step owns what ``ctx`` points into, not the scratch.
        def step(lanes, iteration, counters, _keep=(rng, ctx, keys)):
            if not lanes.flags.writeable:
                lanes = lanes.copy()
            alive = _checked(lib.hop_lanes(
                fixed[0], lanes.size, _addr(lanes, _I64), int(iteration), fixed[1],
            ), "hop (lane, vertex, size, cell, prev, static key or hop column)")
            steps, probes, deep, trials, rejected, spent = out[:6].tolist()
            counters.steps += steps
            counters.binary_search_probes += probes
            counters.alias_draws += deep
            counters.rejection_trials += trials
            counters.rejected += rejected
            counters.edges_evaluated += probes + deep + trials
            return lanes[:alive], out[6:6 + spent]

        return step

    def alias_build(width, src, dst, totals, weights, prob, alias):
        if width > _MAX_ALIAS_WIDTH:  # checked before the 2w stack exists
            raise ValueError(f"alias_build: width {width} > 2**31 "
                             f"(alias cells are int32 offsets)")
        nt = src.size
        stack = np.empty(2 * width, np.int64)
        _checked(lib.alias_build(
            nt, width, _addr(src, _I64), _addr(dst, _I64, nt),
            _addr(totals, _F64, nt), weights.size, _addr(weights, _F64),
            prob.size, _out(prob, _F64), _out(alias, _I32, prob.size),
            _addr(stack, _I64)), "alias_build (table outside the arrays)")

    def prefix_sums(indptr, weights, c, lo, hi):
        if not 0 <= lo <= hi < indptr.size:
            raise IndexError(f"prefix_sums: vertices {lo}..{hi} outside "
                             f"{indptr.size - 1}")
        _checked(lib.prefix_sums(
            lo, hi, _addr(indptr, _I64), weights.size, _addr(weights, _F64),
            c.size, _out(c, _F64)), "prefix_sums (segment outside the arrays)")

    def ooc_plan(index, vs, ss, scratch):
        args = _bound(scratch, "ooc", index, _ooc_args)
        if args is None:
            return None
        n = vs.size
        cols, counts = np.empty((3, n), np.int64), np.zeros(1, np.int64)
        _checked(lib.ooc_plan(
            *args, n, _addr(vs, _I64), _addr(ss, _I64, n),
            *(_addr(col, _I64) for col in cols), _addr(counts, _I64),
        ), "ooc plan (vertex, or candidate size outside 1..deg)")
        return tuple(cols[:, :int(counts[0])])

    def ooc_bound(index, scratch):
        args = _bound(scratch, "ooc", index, _ooc_args)
        if args is None:
            raise ValueError("ooc pass before ooc_plan bound the index")
        return args

    def ooc_select(index, vs, ss, rng, lanes, c_trunks, c_row, scratch):
        n, keys = vs.size, rng._key.size
        out, deep, pa_lo, pa_hi = np.empty((4, n), np.int64)
        counts = np.zeros(2, np.int64)
        _checked(lib.ooc_select(
            *ooc_bound(index, scratch), n, _addr(vs, _I64), _addr(ss, _I64, n),
            _addr(lanes, _I64, n), keys, _addr(rng._key, _U64),
            _out(rng._ctr, _U64, keys), c_row.size, _addr(c_row, _I64),
            *c_trunks.shape, _addr(c_trunks, _F64), _addr(out, _I64),
            _addr(deep, _I64), _addr(pa_lo, _I64), _addr(pa_hi, _I64),
            _addr(counts, _I64),
        ), "ooc select (lane, vertex, size or C-slice payload row)")
        n_deep, probes = counts.tolist()
        return out, deep[:n_deep], pa_lo[:n_deep], pa_hi[:n_deep], probes

    def ooc_alias(index, vs, lanes, rng, deep, tables, t_row, out, scratch):
        n, keys, k = vs.size, rng._key.size, deep.size
        V, _, trunk_sizes = ooc_bound(index, scratch)[:3]
        rows, _, width = tables.shape  # planes: prob, alias bits
        _checked(lib.ooc_alias(
            V, trunk_sizes, k, _addr(deep, _I64), n, _addr(vs, _I64),
            _addr(lanes, _I64, n), keys, _addr(rng._key, _U64),
            _out(rng._ctr, _U64, keys), _addr(t_row, _I64, k), rows, width,
            _addr(tables, _F64, rows * 2 * width), _out(out, _I64, n),
        ), "ooc alias (lane, payload row or alias cell)")

    def pool_call(fn, pool, scratch, n, *args):
        """``fn`` on ``pool``'s columns (bound once per slab): the
        ``used``/clock round trip and the statistics it returns."""
        ctx = _bound(scratch, "pool", pool.slab, lambda _: _pool_args(pool))
        if ctx is None:
            raise ValueError("the frame pool's columns do not bind")
        io = np.zeros(9, np.int64)
        io[:2] = pool.used, pool._clock
        _checked(fn(ctx, n, *args, _addr(io, _I64)),
                 f"{fn.__name__} (range outside the region or longer than "
                 f"2**20, or an index entry outside the pool)")
        pool.used, pool._clock = int(io[0]), int(io[1])
        return io[2:].tolist()

    def pool_read(pool, scratch, size, tag, files, los, lens, widest):
        n = los.size
        # inverse, then per row length/lo/frames (two), then miss rows/lo/len
        cols = np.empty((8, n), np.int64)
        payload = np.empty((n, files, widest))
        rows, m, *ledger = pool_call(
            lib.pool_read, pool, scratch, n, _addr(los, _I64), _addr(lens, _I64, n),
            size, files, tag, widest, _addr(payload, _F64),
            _addr(cols, _I64),
            _addr(scratch.array("pool", max(10 * n, 4 * pool.frames), np.int64),
                  _I64))
        _fold_read(pool, *ledger)
        inverse, lengths, _, _, _, miss, miss_lo, miss_len = cols
        return (payload[:rows], lengths[:rows], inverse, miss[:m], miss_lo[:m],
                miss_len[:m])

    def pool_admit(pool, scratch, tag, los, lens, staging):
        m, files, width = staging.shape
        _fold_admit(pool, *pool_call(
            lib.pool_admit, pool, scratch, m, _addr(los, _I64, m),
            _addr(lens, _I64, m), files, tag, width,
            _addr(staging, _F64, staging.size),
            _addr(scratch.array("pool", m * files + 4 * pool.frames, np.int64),
                  _I64))[:3])

    def ooc_step(index, walk, rng, stop, scratch, threads, grain=None):
        # A call over n lanes runs on min(threads, 1 + n // grain) threads;
        # ``grain`` (default GRAIN) is the load-time self-test's seam.
        from repro.core.outofcore import BLOCK_BYTES

        grain = GRAIN if grain is None else grain
        store, pool = index.store, index.store.cache
        maps = (store._c, store._prob, store._alias)
        bounds = [np.array(hist.bounds, np.float64)
                  for hist in (store.coalesced_hist, store.read_bytes_hist)]
        trunks = _bound(scratch, "ooc", index, _ooc_args)
        walk_args = _bound(scratch, "walk", walk, _walk_args)
        ctx = _bound(store._scratch, "pool", pool.slab, lambda _: _pool_args(pool))
        if (trunks is None or walk_args is None or ctx is None or not pool.width
                or any(a is None for a in maps)
                or max(b.size for b in bounds) > _MAX_BUCKETS):
            return None
        cap = walk.cur.size  # sized once per run: a rebind reuses them
        cols = scratch.array("ooc_cols", 17 * cap, np.int64)
        work = scratch.array("ooc_work", 11 * cap + 4 * pool.frames, np.int64)
        io = np.zeros(22 + 2 * _TALLY, np.int64)
        keys = rng._key.size
        try:
            step_ctx = _Step(
                *trunks, *walk_args[0], *walk_args[1], keys, _addr(rng._key, _U64),
                _out(rng._ctr, _U64, keys), stop, ctx,
                maps[0].size, _addr(maps[0], _F64), maps[1].size,
                _addr(maps[1], _F64), _addr(maps[2], _I64, maps[1].size),
                int(index.trunk_sizes.max(initial=0)) + 1, cap,
                _addr(cols, _I64), _addr(work, _I64), bounds[0].size,
                bounds[1].size, _addr(bounds[0], _F64), _addr(bounds[1], _F64),
                BLOCK_BYTES)
        except ValueError:
            return None
        fixed = ctypes.addressof(step_ctx), _addr(io, _I64)
        # step.threads, written through the attribute dict: a step that
        # named itself would be a reference cycle, and the run's columns
        # would outlive it until a collection.
        attrs = {"threads": 0}  # threads the last call ran on

        # ``_keep``: what ``step_ctx`` points into lives as long as the step.
        def step(lanes, iteration, counters,
                 _keep=(rng, step_ctx, cols, work, maps, bounds, index,
                        store._scratch.bound["pool"])):
            if not lanes.flags.writeable:
                lanes = lanes.copy()
            io[:2] = pool.used, pool._clock
            code = lib.ooc_step(fixed[0], lanes.size, _addr(lanes, _I64),
                                int(iteration),
                                min(threads, 1 + lanes.size // grain), fixed[1])
            out = io.tolist()
            pool.used, pool._clock, steps, probes, deep, attrs["threads"] = (
                out[:6])
            alive = _checked(code, "ooc step (lane, vertex, size, payload row, "
                             "alias cell or hop column)")
            counters.steps += steps
            counters.record_probe(probes)
            counters.alias_draws += deep
            counters.edges_evaluated += deep
            for ledger in (out[6:14], out[14:22]):
                _fold_read(pool, *ledger[:5])
                _fold_admit(pool, *ledger[5:])
            store.account_tallies(out[22:22 + _TALLY], out[22 + _TALLY:],
                                  counters)
            return lanes[:alive], _NO_LANES

        step.__dict__ = attrs
        return step

    def seeds(rng, n):
        # Under the bit generator's lock, as numpy's own integers fill.
        bits = rng.bit_generator
        face = bits.ctypes
        out = np.empty(n, np.int64)
        with bits.lock:
            lib.lane_seeds(face.state_address, face.next_uint64, out.size,
                           _addr(out, _I64))
        return out

    return KernelBackend(name="c", select=select, alias=alias, scatter=scatter,
                         hop=hop, alias_build=alias_build,
                         prefix_sums=prefix_sums, ooc_plan=ooc_plan,
                         ooc_select=ooc_select, ooc_alias=ooc_alias,
                         pool_read=pool_read, pool_admit=pool_admit,
                         ooc_step=ooc_step, seeds=seeds)


def _fold_read(pool, hits, misses, served, promoted, promoted_bytes) -> None:
    """A lookup's :class:`CacheStats` deltas and its promotion event."""
    stats = pool.stats
    stats.hits += hits
    stats.misses += misses
    stats.bytes_served += served
    if promoted:
        stats.promotions += promoted
        events.emit("cache.promoted", count=promoted, nbytes=promoted_bytes)


def _fold_admit(pool, bytes_in, gone, gone_bytes) -> None:
    """An admission's :class:`CacheStats` deltas and its eviction event."""
    stats = pool.stats
    stats.bytes_in += bytes_in
    if gone:
        stats.evictions += gone
        stats.bytes_evicted += gone_bytes
        events.emit("cache.evicted", count=gone, nbytes=gone_bytes)


def _self_test(lib: ctypes.CDLL, backend: KernelBackend) -> None:
    """A synthetic graph through both backends; any differing bit refuses
    the build. Vertices 0..95 are FMA tripwires: degree 3 with the first
    trunk boundary set to the twice-rounded ``r`` itself, so a contracted
    ``total − u·total`` lands on the other side of it. The fused hop adds
    its stream against :class:`~repro.rng.LaneRng` (extreme keys, wrapping
    counters) and a lane-keyed node2vec run with stop draws and forced
    re-draws: numpy passes under the drivers against the one compiled
    call. (The tables hold arbitrary numbers — parity, not distribution,
    is what is checked.) Arrays the compiled code cannot bind would fall
    back to the numpy passes and agree vacuously, so the compiled passes
    and every fused hop of the run must have bound the index's arrays."""
    from repro.core.builder import hpat_layout
    from repro.engines.batch import BatchTeaEngine
    from repro.rng import LaneRng
    from repro.sampling.counters import CostCounters
    from repro.walks.apps import temporal_node2vec

    rng = np.random.default_rng(2023)
    deg = np.array([3] * 96 + [1, 37, 64, 100])
    V, E = deg.size, int(deg.sum())
    indptr = np.concatenate([[0], np.cumsum(deg)])
    vs = np.concatenate([np.arange(96), rng.integers(96, V, size=36)])
    ss = np.concatenate([np.full(96, 3), 1 + rng.integers(0, 2**30, 36) % deg[vs[96:]]])
    n, width = vs.size, vs.size + 5
    u, u2 = rng.random(n), rng.random((2, n))
    c = rng.random(E + V) + 0.05
    trip = indptr[:96] + np.arange(96)
    c[trip + 2] = c[trip + 3] - u[:96] * c[trip + 3]
    lvl_base, lvl_ptr, cells = hpat_layout(deg)
    index = SimpleNamespace(
        indptr=indptr, c=c, lvl_base=lvl_base, lvl_ptr=lvl_ptr,
        prob=rng.random(cells),
        alias=rng.integers(0, 2, size=cells).astype(np.int32))
    nbr, etime, sizes = rng.integers(0, V, E), rng.random(E), rng.integers(0, 3, E)
    lanes, left = rng.permutation(width)[:n], rng.integers(1, 3, width)

    def one_hop(passes, scratch):
        level, out = np.empty(n, np.int64), np.empty(n, np.int64)
        deep, probes = passes.select(index, vs, ss, u.copy(), level, out,
                                     scratch, True)
        passes.alias(index, vs, level, out, deep, u2[0, :deep.size].copy(),
                     u2[1, :deep.size].copy(), scratch)
        walk = WalkState(
            indptr, nbr, etime, sizes, np.zeros(width, np.int64),
            np.full(width, -1), np.zeros(width, np.int64), left.copy(),
            np.zeros((width, 4), np.int64), np.zeros((width, 4)))
        alive = passes.scatter(walk, lanes.copy(), vs, out, 2, scratch)
        return [level, out, deep, np.int64(probes), alive,
                *list(vars(walk).values())[4:]]

    keys = rng.integers(0, 2**63, V, dtype=np.uint64)
    keys[:4] = 0, 1, 2**63 - 1, 2**64 - 1
    ctr0 = np.where(np.arange(V) % 3, 0, 2**64 - 2).astype(np.uint64)

    def stream(compiled):
        lane_rng, every, got = LaneRng(keys), np.arange(V), np.empty((3, V))
        lane_rng._ctr[:] = ctr0
        if compiled:
            lib.hop_uniforms(V, _addr(lane_rng._key, _U64),
                             _addr(lane_rng._ctr, _U64), 3, _addr(got, _F64))
        else:
            got[0], got[1:] = lane_rng.uniform(every), lane_rng.uniform_block(every, 2)
        return [got, lane_rng._ctr]

    static = np.flatnonzero(rng.random(V * V) < 0.08)
    graph = SimpleNamespace(indptr=indptr, nbr=nbr, etime=etime,
                            num_vertices=V, static_keys=lambda: static)
    live = rng.integers(0, 2**30, E) % (deg[nbr] + 1)

    def frontier(kernel):
        engine = BatchTeaEngine.from_prepared(
            graph, temporal_node2vec(p=1.0, q=0.5), index, live, kernel)
        lane_rng, counters = LaneRng(keys), CostCounters()
        lane_rng._ctr[:] = ctr0
        out = engine._run_frontier(np.arange(V), 3, 0.1, lane_rng, counters,
                                   True)
        if not counters.rejected:
            raise ValueError("the self-test run forced no re-draw")
        return [out.lengths, out.hop_vertex, out.hop_time, lane_rng._ctr,
                np.array([*counters.snapshot().values()])]

    scratch, hops = KernelScratch(), []  # what the compiled run bound

    def hop(*args):
        hops.append(backend.hop(*args))
        return hops[-1]

    try:
        same = all(map(np.array_equal,
                       one_hop(numpy_backend, KernelScratch()) + stream(False)
                       + frontier(numpy_backend.BACKEND),
                       one_hop(backend, scratch) + stream(True)
                       + frontier(KernelBackend(**{**vars(backend), "hop": hop}))))
    except Exception as exc:  # incl. a drifted engine signature: serve numpy
        raise Unavailable(f"self-test raised {exc!r}") from exc
    if (not hops or None in hops
            or any(hit[1] is None for hit in scratch.bound.values())):
        raise Unavailable("self-test: the compiled passes or the fused hop "
                          "did not bind the index (alias must be int32)")
    if not same:
        raise Unavailable("self-test mismatch against the numpy passes "
                          "(miscompiling or FMA-contracting toolchain?)")


def _self_test_ooc(backend: KernelBackend) -> None:
    """The compiled out-of-core draw against the numpy lockstep on a
    synthetic PAT over an in-memory store: draws, stream counters and
    costs, bit for bit. Vertices 0..95 are FMA tripwires: six edges in
    trunks of three, sampled whole, with the middle boundary set to the
    twice-rounded ``r`` of the lane's first uniform, so a contracted
    ``total − u·total`` bisects the other way.
    The rest mix trunk sizes 1–10 over degrees 1–100, ragged and aligned.
    A plan that did not bind would send both sides to numpy, so every
    ``ooc_plan`` call must have bound."""
    from repro.core.outofcore import OutOfCorePAT, TrunkStore
    from repro.engines.tea_outofcore.batch import ooc_sample_batch
    from repro.rng import LaneRng
    from repro.sampling.counters import CostCounters

    rng = np.random.default_rng(34)
    deg = np.concatenate([np.full(96, 6), [1, 2, 9, 10, 31, 57, 100]])
    ts = np.concatenate([np.full(96, 3), [1, 4, 4, 10, 1, 7, 10]])
    V, E = deg.size, int(deg.sum())
    indptr = np.concatenate([[0], np.cumsum(deg)])
    owner = np.repeat(np.arange(V), deg)
    store = TrunkStore(tempfile.gettempdir())  # never opened: arrays below
    store.kernel = numpy_backend.BACKEND  # the pool passes are tested apart
    store._c = np.cumsum(rng.random(E + V))
    store._prob = rng.random(E)
    store._alias = rng.integers(0, 2**30, E) % ts[owner]
    index = OutOfCorePAT(SimpleNamespace(indptr=indptr, trunk_sizes=ts,
                                         c=store._c), store)
    vs = np.concatenate([np.arange(96), rng.integers(96, V, 200)])
    ss = np.concatenate([np.full(96, 6), 1 + rng.integers(0, 2**30, 200)
                         % deg[vs[96:]]])
    n = vs.size
    lanes = rng.permutation(n + 7)[:n]
    keys = rng.integers(0, 2**63, n + 7, dtype=np.uint64)
    keys[:2] = 0, 2**64 - 1
    ctr0 = np.where(np.arange(n + 7) % 3, 0, 2**64 - 2).astype(np.uint64)

    def stream():
        lane_rng = LaneRng(keys)
        lane_rng._ctr[:] = ctr0
        return lane_rng

    tb = index.tr_indptr[:96]
    total = index.tr_prefix[tb + 2]
    index.tr_prefix[tb + 1] = total - stream().uniform(lanes[:96]) * total

    def draw(kernel, scratch):
        lane_rng, counters = stream(), CostCounters()
        out = ooc_sample_batch(index, vs, ss, None, counters, draw=lane_rng,
                               lanes=lanes, kernel=kernel, scratch=scratch)
        return [out, lane_rng._ctr, np.array([*counters.snapshot().values()])]

    plans = []

    def plan(*args):
        plans.append(backend.ooc_plan(*args))
        return plans[-1]

    try:
        same = all(map(np.array_equal,
                       draw(numpy_backend.BACKEND, KernelScratch()),
                       draw(KernelBackend(**{**vars(backend), "ooc_plan": plan}),
                            KernelScratch())))
    except Exception as exc:
        raise Unavailable(f"out-of-core self-test raised {exc!r}") from exc
    if not plans or None in plans:
        raise Unavailable("self-test: the out-of-core members did not bind "
                          "the index")
    if not same:
        raise Unavailable("out-of-core self-test mismatch against the numpy "
                          "lockstep (miscompiling or FMA-contracting "
                          "toolchain?)")


def _pool_state(pool) -> list:
    """What two pools fed the same batches must agree on: the resident
    frames' columns and payload cells, the key index, the clock and the
    statistics."""
    used = pool.used
    cells = np.arange(pool.width) < (pool.length[:used] // 8)[:, None]
    return [np.array([used, pool._clock]), pool.key[:used], pool.length[:used],
            pool.stamp[:used], pool.protected[:used], pool.slab[:used][cells],
            pool._sorted_keys[:used], pool._sorted_frames[:used],
            np.array([*pool.stats.snapshot().values()])]


def _self_test_pool(backend: KernelBackend) -> None:
    """The compiled pool passes against ``FramePool.touch`` /
    ``FramePool.admit`` under two in-memory stores fed one scripted batch
    sequence: duplicate ranges and a batch of one, promotions that
    overflow the protected segment by two, a batch with more distinct
    misses than evictable frames (two victims, two keys turned away), an
    alias region whose two files are one range (turned away whole), and
    ranges wider than a frame. Every returned payload and the pools' columns — so the order
    victims and demotions are taken in — index and statistics must agree
    (≈3–6 ms)."""
    from repro.core.outofcore import TrunkStore

    rng = np.random.default_rng(45)

    def store(kernel):
        out = TrunkStore(tempfile.gettempdir(), cache_bytes=6 * 4 * 8)
        out.kernel = kernel
        out._c, out._prob = rng.random(40), rng.random(40)
        out._alias = np.arange(40) % 4
        out.cache.set_width(4)  # six frames, four of them protected
        return out

    # Six misses; six promotions, two demoted; two victims, two turned
    # away; an alias range turned away whole, then admitted beside a hit;
    # a lone miss that evicts one file of an alias range.
    script = [("c", [0, 4, 8, 12, 16, 20, 0], 4), ("c", [0, 4, 8, 12, 16, 20], 4),
              ("c", [24, 28, 32, 36], 4), ("pa", [0, 2, 0], 3),
              ("pa", [0, 2], 3), ("c", [8], 4), ("c", [1, 0], 5)]
    sides = [store(numpy_backend.BACKEND), store(backend)]
    sides[1]._c, sides[1]._prob, sides[1]._alias = (
        sides[0]._c, sides[0]._prob, sides[0]._alias)
    got = [[], []]
    try:
        for region, los, width in script:
            los = np.array(los)
            for side, out in zip(sides, got):
                payload, lens, inverse = side.read_batch(region, los, los + width,
                                                         None)
                out += [payload[inverse][..., :width], lens, inverse]
        for side, out in zip(sides, got):
            out += _pool_state(side.cache)
        same = all(map(np.array_equal, *got))
    except (ValueError, IndexError) as exc:
        raise Unavailable(f"pool self-test raised {exc!r}") from exc
    if not same:
        raise Unavailable("pool self-test mismatch against FramePool's numpy "
                          "passes")


def ooc_step_script(kernel: KernelBackend) -> list:
    """A scripted out-of-core frontier through ``kernel``: 120 lanes, three
    to a start (duplicate ranges), trunk sizes 1–5 over degrees 1–23, most
    edges into three hubs, a 0.1 stop probability and six iterations, over
    an in-memory store whose twelve-frame pool cannot hold a step's misses
    (victims, alias ranges turned away whole, hits, and promotions past the
    nine protected frames). Returns the walks, every iteration's
    survivors in order (the fused step's, or the sequence's ``scatter``),
    stream counters, costs, ``read_ops``, both byte histograms and the
    pool's state (:func:`_pool_state`), then the store."""
    from repro.core.outofcore import OutOfCorePAT, TrunkStore
    from repro.engines.tea_outofcore.batch import BatchTeaOutOfCoreEngine
    from repro.rng import LaneRng
    from repro.sampling.counters import CostCounters
    from repro.walks.apps import exponential_walk

    survivors, scatter, bind = [], kernel.scatter, kernel.ooc_step

    def fused(*args):
        step = bind(*args)

        def recorded(*call):
            lanes, spent = step(*call)
            survivors.append(lanes.copy())
            return lanes, spent
        return None if step is None else recorded

    def scattered(*args):
        survivors.append(scatter(*args).copy())
        return survivors[-1]

    kernel = KernelBackend(**{**vars(kernel), "scatter": scattered,
                              "ooc_step": None if bind is None else fused})
    rng = np.random.default_rng(46)
    deg = np.concatenate([[1, 2, 3], rng.integers(1, 24, 37)])
    ts = np.concatenate([[1, 2, 5], rng.integers(1, 6, 37)])
    V, E = deg.size, int(deg.sum())
    indptr = np.concatenate([[0], np.cumsum(deg)])
    c = np.zeros(E + V)  # per-vertex prefix sums, each from a leading 0
    for v in range(V):
        c[indptr[v] + v + 1:indptr[v + 1] + v + 1] = np.cumsum(rng.random(deg[v]))
    nbr = np.where(rng.random(E) < 0.8, rng.integers(0, 3, E),
                   rng.integers(0, V, E))  # hubs 0-2: hits and promotions
    graph = SimpleNamespace(indptr=indptr, nbr=nbr, etime=rng.random(E),
                            num_vertices=V)
    live = 1 + rng.integers(0, 2**30, E) % deg[nbr]
    store = TrunkStore(tempfile.gettempdir(), cache_bytes=12 * 6 * 8)
    store._c, store._prob = c, rng.random(E)
    store._alias = rng.integers(0, 2**30, E) % ts[np.repeat(np.arange(V), deg)]
    store.cache.set_width(int(ts.max()) + 1)  # twelve frames, nine protected
    index = OutOfCorePAT(SimpleNamespace(indptr=indptr, trunk_sizes=ts, c=c),
                         store)
    engine = BatchTeaOutOfCoreEngine.from_prepared(
        graph, exponential_walk(), index, live, kernel)
    lane_rng = LaneRng(rng.integers(0, 2**63, 3 * V, dtype=np.uint64))
    counters = CostCounters()
    out = engine._run_frontier(np.repeat(np.arange(V), 3), 6, 0.1, lane_rng,
                               counters, True)
    hists = [np.array([h.count, h.total, h.zero_count, *h.counts])
             for h in (store.read_bytes_hist, store.coalesced_hist)]
    return [out.lengths, out.hop_vertex, out.hop_time,
            np.concatenate(survivors), lane_rng._ctr,
            np.array([*counters.snapshot().values(), store.read_ops]), *hists,
            *_pool_state(store.cache), store]


def _self_test_ooc_step(backend: KernelBackend) -> None:
    """``ooc_step`` against the call sequence it fuses — ``ooc_plan`` /
    ``ooc_select`` / ``ooc_alias`` around ``read_batch``'s pool passes,
    each held to numpy above — on :func:`ooc_step_script`, inline and on
    2 and 3 threads with a grain of one lane (every iteration splits):
    every array it returns, each iteration's survivors in order included,
    must be equal, and the fused side must have bound its step (≈9–13 ms)."""
    steps = []

    def on(threads):
        def bind(index, walk, rng, stop, scratch, cpus):
            steps.append(backend.ooc_step(index, walk, rng, stop, scratch,
                                          threads, 1))
            return steps[-1]
        return KernelBackend(**{**vars(backend), "ooc_step": bind})

    try:
        sequence = ooc_step_script(KernelBackend(**{**vars(backend),
                                                    "ooc_step": None}))[:-1]
        same = all(all(map(np.array_equal, ooc_step_script(on(threads))[:-1],
                           sequence)) for threads in (1, 2, 3))
    except Exception as exc:
        raise Unavailable(f"out-of-core step self-test raised {exc!r}") from exc
    if not steps or None in steps:
        raise Unavailable("self-test: the out-of-core step did not bind")
    if not same:
        raise Unavailable("out-of-core step self-test mismatch against the "
                          "call sequence")


def _self_test_build(backend: KernelBackend) -> None:
    """The compiled index build against the numpy builders, bit for bit:
    tables of widths 1–3 (lock-step) and 40 (``T < w``, the per-row
    builder) with dead rows, ``-0.0``, zeros and a subnormal row, written
    at shuffled offsets; and prefix sums over segments that start with
    ``-0.0`` or are empty. Compares against ``build_alias_arrays_batch``
    itself — the alias helper resolves the backend this is loading."""
    from repro.sampling.alias import build_alias_arrays_batch

    rng = np.random.default_rng(32)
    weights = rng.random(400) * (rng.random(400) < 0.8)
    weights[:8] = 0.0
    weights[8:12] = -0.0, 3.0, -0.0, 0.0
    weights[12:52] *= 2.0 ** -1060  # w / total overflows: rescaled row
    try:
        for width, src in ((1, [0, 5, 9]), (2, [0, 8, 10, 50, 51]),
                           (3, rng.integers(0, 398, 60)), (40, [0, 12, 300])):
            src = np.asarray(src, np.int64)
            dst = rng.permutation(src.size).astype(np.int64) * width
            got = np.empty(src.size * width), np.empty(src.size * width, np.int32)
            rows = np.lib.stride_tricks.sliding_window_view(weights, width)[src]
            totals = rows.sum(axis=1)
            backend.alias_build(width, src, dst, totals, weights, *got)
            rows[~(totals > 0.0)] = 1.0
            order = np.argsort(dst)
            want = [a[order].ravel() for a in build_alias_arrays_batch(rows)]
            if not (np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
                    and np.array_equal(got[1], want[1])):
                raise Unavailable(f"alias_build mismatch at width {width}")
        indptr = np.array([0, 0, 3, 8, 8, 10, 40, 400])
        got, want = np.zeros(407), np.zeros(407)
        backend.prefix_sums(indptr, weights, got, 0, 7)
        for v in range(7):
            lo, hi = indptr[v], indptr[v + 1]
            np.cumsum(weights[lo:hi], out=want[lo + v + 1:hi + v + 1])
        same = np.array_equal(got.view(np.int64), want.view(np.int64))
    except (ValueError, IndexError, TypeError) as exc:
        raise Unavailable(f"build self-test raised {exc!r}") from exc
    if not same:
        raise Unavailable("prefix_sums mismatch against np.cumsum")


#: PCG64's 128-bit LCG multiplier (numpy's ``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def pcg64_drawing_zero(seed: int) -> np.random.PCG64:
    """A ``PCG64(seed)`` moved to where its next raw output is 0: the state
    it steps to has equal high and low words, which PCG64's XSL-RR output
    folds to 0. ``0 · (2**63 − 1)`` has a low word below 2, so the first
    of ``lane_seeds``' draws from it is a redraw."""
    bits = np.random.PCG64(seed)
    state = bits.state
    inc, word = state["state"]["inc"], seed % 2**64
    state["state"]["state"] = ((word << 64 | word) - inc) * pow(
        _PCG64_MULTIPLIER, -1, 2**128) % 2**128
    bits.state = state
    return bits


def _self_test_seeds(backend: KernelBackend) -> None:
    """``seeds`` against :func:`repro.rng.spawn_seeds` —
    ``Generator.integers(0, 2**63 - 1, n, int64)`` — on numpy's five bit
    generators, 1, 0 and 300 seeds in turn: the seeds and the raw draws
    after them (the generators' end states) must be equal. A PCG64 whose
    next raw output is 0 (:func:`pcg64_drawing_zero`) forces the first
    seed's redraw, and a bit generator whose ``next_uint64`` notes
    whether its lock is held proves the call holds it, as numpy's own
    fill does (≈2 ms)."""
    from repro.rng import spawn_seeds

    held = []

    class Watched(np.random.PCG64):
        """Its lock is itself, counting how deep it is held; each raw
        draw through its ``ctypes`` interface notes whether it is."""
        depth = 0

        @property
        def lock(self):
            return self

        def __enter__(self):
            self.depth += 1

        def __exit__(self, *exc):
            self.depth -= 1

        @property
        def ctypes(self):
            face = super().ctypes

            def next_uint64(state):  # must not raise: C would read a 0
                held.append(self.depth > 0)
                return face.next_uint64(state)
            return face._replace(next_uint64=_KINDS["f"](next_uint64))

    kinds = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
             np.random.Philox, np.random.SFC64)
    pairs = [(kind(35), kind(35)) for kind in kinds] + [
        (pcg64_drawing_zero(36), pcg64_drawing_zero(36)),
        (Watched(37), np.random.PCG64(37))]
    try:
        same = all(
            np.array_equal(backend.seeds(np.random.Generator(mine), n),
                           spawn_seeds(np.random.Generator(theirs), n))
            and np.array_equal(mine.random_raw(2), theirs.random_raw(2))
            for n in (1, 0, 300) for mine, theirs in pairs)
    except Exception as exc:
        raise Unavailable(f"seed self-test raised {exc!r}") from exc
    if not same:
        raise Unavailable("lane_seeds mismatch against Generator.integers "
                          "(seeds or the generator's end state)")
    if not held or not all(held):
        raise Unavailable("lane_seeds: the call did not hold the bit "
                          "generator's lock")
