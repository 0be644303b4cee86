"""Runtime-compiled C routines: the lane kernel and the prep passes.

The batched backend replays one prepared program under many policy/L2
lanes.  Lane state is NumPy struct-of-arrays, but the per-access control
flow — min-clock dispatch, set probe, Section V victim selection — is
inherently sequential *within* a lane, and a NumPy formulation of the
lane-parallel step was measured at 2.5 µs of per-operator dispatch x ~20
operators per step on this class of host: it cannot break even against
a per-access Python kernel below ~48 lanes (see BENCH.md v1.9.0).  So
the inner loop is a small C routine instead, compiled once per host with
the system C compiler and loaded through :mod:`ctypes`.

``replay_lane`` computes what ``CMPEngine._run_reference`` plus the
reference cache's ``access``/``_fill``/``_choose_victim`` compute:

* dispatch scans threads in index order keeping a strictly smaller
  clock, so the lowest-index minimum-clock thread wins ties;
* it reads the program's stream arrays in place (section-major,
  thread-minor, the :class:`~repro.cpu.streams.CompiledProgram` layout)
  and forms ``addr >> off`` and ``d_cycles + l2_hit_cycles`` /
  ``d_cycles + miss_cycles`` per access — the same IEEE adds the
  reference makes;
* the hit probe scans the set's valid ways (the reference looks the
  tag up in a per-set dict); each (set, owner) pair keeps a
  doubly-linked recency list, so every victim rule compares at most
  ``n`` list tails instead of scanning the set's ways.  Stamps are
  unique within a lane, so the least recent line of a group is the one
  the reference's way-order first-strictly-minimal scan picks;
* all cycle quantities are IEEE-754 doubles accumulated in the
  reference's order (no ``-ffast-math``), instruction counts are
  ``int64`` — byte-identity is the contract, enforced by
  ``tests/test_cache_differential.py``.

The routine runs one lane until the aggregate instruction count crosses
the next interval tick (returns ``1``) or the program completes
(returns ``0``); Python fires the tick — statistics snapshot, runtime
policy consultation, target installation, reconfiguration overhead —
and re-enters.  Barriers and thread completion are handled in C.

Two routines serve program preparation (:mod:`repro.cpu.streams`):
``l1_filter`` is the private-L1 trace filter of :mod:`repro.cache.l1`,
the same MRU-list loop over a per-set tag array, run over a program's
concatenated traces with a cold L1 per (section, thread) segment; and
``compile_streams`` turns its hit mask into the program's L2 stream
arrays.  They live in the same source so one build (and one
:func:`kernel_available` probe) provides all three.

Compiled objects are cached on disk keyed by the SHA-256 of the source
and the compiler flags, so sibling worker processes share one build and
a flag change never loads an object built with the old flags.  When no
compiler is available (or the build or load fails) the ``load_*``
functions return ``None``: the batch backend falls back to the
reference cache and engine per lane (``batch.fallback_pure``), stream
compilation to its NumPy oracle and the L1 filter to its Python loop
(``l1.fallback_pure``).  The fallback is loud: one stderr warning per
process naming the cause, plus an ``engine_degraded`` event when a
tracer is enabled.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = [
    "KERNEL_SOURCE",
    "kernel_available",
    "load_kernel",
    "load_l1_filter",
    "load_stream_compiler",
]

KERNEL_SOURCE = r"""
#include <stdint.h>

#define TICK 1
#define DONE 0
#define NIL (-1)

/* ctrl slots: persistent scalar lane state across tick pauses. */
#define C_CLK       0   /* cache LRU clock (one tick per access)      */
#define C_TOT       1   /* aggregate instructions retired             */
#define C_NEXT_TICK 2   /* next interval boundary (aggregate instrs)  */
#define C_SEC       3   /* current section index                      */
#define C_ACTIVE    4   /* threads still running this section         */

/* ---- recency lists: one per (set, owner), most recent first -------
 * key = set * n + owner; mru[key]/lru[key] are its ends, prv/nxt link
 * slots.  A list holds exactly the count[key] lines that owner has in
 * the set, ordered by stamp. */

static inline void lru_unlink(
    int32_t j, int64_t key, int32_t *prv, int32_t *nxt, int32_t *mru,
    int32_t *lru)
{
    int32_t p = prv[j], q = nxt[j];
    if (p != NIL) nxt[p] = q; else mru[key] = q;
    if (q != NIL) prv[q] = p; else lru[key] = p;
}

static inline void lru_push(
    int32_t j, int64_t key, int32_t *prv, int32_t *nxt, int32_t *mru,
    int32_t *lru)
{
    int32_t h = mru[key];
    prv[j] = NIL;
    nxt[j] = h;
    if (h != NIL) prv[h] = j; else lru[key] = j;
    mru[key] = j;
}

/* Least recent of the per-owner LRU lines of set `cb / n`, over the
 * owners above their target (or over every owner); NIL when none. */
static inline int32_t oldest_tail(
    int64_t cb, int64_t n, const int32_t *lru, const int64_t *stamp,
    const int64_t *count, const int64_t *targets, int over_only)
{
    int32_t best = NIL;
    int64_t o, best_stamp = 0;
    for (o = 0; o < n; o++) {
        int32_t j = lru[cb + o];
        if (j == NIL || (over_only && count[cb + o] <= targets[o])) continue;
        if (best == NIL || stamp[j] < best_stamp) { best = j; best_stamp = stamp[j]; }
    }
    return best;
}

/* Section V victim choice on a full set.  Stamps are unique within a
 * lane, so the least recent line of a group is the tail of the group's
 * least recent list: the way-order minimum-stamp scans of the
 * reference pick the same line. */
static int32_t choose_victim(
    int64_t t, int64_t cb, int64_t n, const int32_t *lru,
    const int64_t *stamp, const int64_t *count, const int64_t *targets,
    int64_t enforce)
{
    int32_t j;
    if (!enforce) return oldest_tail(cb, n, lru, stamp, count, targets, 0);
    if (count[cb + t] < targets[t]) {
        /* Under target: evict the LRU line of an over-target thread.
         * Some such thread exists on a full set (counts and targets
         * both sum to `ways`); fall through to own-LRU defensively. */
        j = oldest_tail(cb, n, lru, stamp, count, targets, 1);
        if (j != NIL) return j;
    }
    /* At or over target (or no over-target victim): own LRU line. */
    j = lru[cb + t];
    if (j != NIL) return j;
    /* Thread owns nothing here (possible when its target is 0).
     * Eviction control still applies: prefer the LRU line of an
     * over-target thread so under-target threads keep their lines. */
    j = oldest_tail(cb, n, lru, stamp, count, targets, 1);
    if (j != NIL) return j;
    /* Nobody over target either: global LRU. */
    return oldest_tail(cb, n, lru, stamp, count, targets, 0);
}

int64_t replay_lane(
    /* the program's streams, read in place: section-major, thread-minor */
    const int64_t *addr,         /* L2 byte addresses                      */
    const double  *dcyc,         /* d_cycles                               */
    const double  *missc,        /* miss_cycles                            */
    const int64_t *dil,          /* d_instructions                         */
    const int64_t *seg,          /* [n_sections*n+1] (sec, t) start offsets */
    const double  *tail_c,       /* [n_sections*n] section tail cycles     */
    const int64_t *tail_i,       /* [n_sections*n] section tail instrs     */
    int64_t off, double l2_hit,  /* line offset bits, L2 hit latency       */
    /* per-lane cache state */
    int64_t *tags, int32_t *owner, int32_t *last, int64_t *stamp,
    int32_t *filled, int64_t *count, const int64_t *targets,
    int32_t *prv, int32_t *nxt, int32_t *mru, int32_t *lru,
    /* per-lane statistics counters */
    int64_t *miss, int64_t *evict, int64_t *ith, int64_t *ite, int64_t *inh,
    /* per-lane CPU state */
    double *clock, double *stall, int64_t *instr,
    int64_t *cursor, int32_t *done, double *arrivals,
    int64_t *ctrl,
    /* parameters */
    int64_t n, int64_t n_sections, int64_t ways,
    int64_t set_mask, int64_t enforce)
{
    int64_t clk       = ctrl[C_CLK];
    int64_t tot       = ctrl[C_TOT];
    int64_t next_tick = ctrl[C_NEXT_TICK];
    int64_t sec       = ctrl[C_SEC];
    int64_t active    = ctrl[C_ACTIVE];
    int64_t t, k, w;

    for (; sec < n_sections; ) {
        const int64_t *sec_end = seg + sec * n + 1;
        double *arr = arrivals + sec * n;
        while (active > 0) {
            /* Lowest-index minimum-clock runnable thread (strict <). */
            double best = 0.0;
            t = -1;
            for (k = 0; k < n; k++) {
                if (!done[k]) {
                    double c = clock[k];
                    if (t < 0 || c < best) { best = c; t = k; }
                }
            }
            {
                int64_t i = cursor[t];
                if (i >= sec_end[t]) {
                    /* Stream exhausted: charge the section tail, arrive. */
                    clock[t] += tail_c[sec * n + t];
                    instr[t] += tail_i[sec * n + t];
                    tot      += tail_i[sec * n + t];
                    arr[t] = clock[t];
                    done[t] = 1;
                    active--;
                    if (tot >= next_tick) goto pause;
                    continue;
                }
                {
                    int64_t lv = addr[i] >> off;
                    int64_t s = lv & set_mask;
                    int64_t base = s * ways;
                    int64_t cb = s * n;
                    int32_t j = NIL;
                    clk += 1;
                    /* Ways fill in order and are never invalidated: the
                     * valid ones are the first filled[s]. */
                    for (w = 0; w < filled[s]; w++) {
                        if (tags[base + w] == lv) { j = (int32_t)(base + w); break; }
                    }
                    if (j != NIL) {
                        int64_t key = cb + owner[j];
                        if (last[j] != (int32_t)t) { ith[t] += 1; last[j] = (int32_t)t; }
                        else                       { inh[t] += 1; }
                        stamp[j] = clk;
                        if (mru[key] != j) {
                            lru_unlink(j, key, prv, nxt, mru, lru);
                            lru_push(j, key, prv, nxt, mru, lru);
                        }
                        clock[t] += dcyc[i] + l2_hit;
                    } else {
                        miss[t] += 1;
                        if (filled[s] < ways) {
                            /* Cold fill: the first invalid way. */
                            j = (int32_t)(base + filled[s]);
                            filled[s] += 1;
                        } else {
                            int64_t key;
                            j = choose_victim(t, cb, n, lru, stamp, count,
                                              targets, enforce);
                            key = cb + owner[j];
                            evict[t] += 1;
                            if (last[j] != (int32_t)t) ite[t] += 1;
                            count[key] -= 1;
                            lru_unlink(j, key, prv, nxt, mru, lru);
                        }
                        tags[j] = lv;
                        owner[j] = (int32_t)t;
                        last[j] = (int32_t)t;
                        stamp[j] = clk;
                        count[cb + t] += 1;
                        lru_push(j, cb + t, prv, nxt, mru, lru);
                        clock[t] += dcyc[i] + missc[i];
                    }
                    instr[t] += dil[i];
                    tot      += dil[i];
                    cursor[t] = i + 1;
                    if (tot >= next_tick) goto pause;
                }
            }
        }
        /* Barrier: everyone resumes at the latest arrival; early
         * threads book the difference as stall (slack). */
        {
            double release = arr[0];
            for (k = 1; k < n; k++) if (arr[k] > release) release = arr[k];
            for (k = 0; k < n; k++) {
                stall[k] += release - arr[k];
                clock[k] = release;
            }
        }
        for (k = 0; k < n; k++) done[k] = 0;
        active = n;
        sec++;
        if (sec < n_sections)
            for (k = 0; k < n; k++) cursor[k] = seg[sec * n + k];
    }
    ctrl[C_CLK] = clk; ctrl[C_TOT] = tot; ctrl[C_NEXT_TICK] = next_tick;
    ctrl[C_SEC] = sec; ctrl[C_ACTIVE] = active;
    return DONE;

pause:
    ctrl[C_CLK] = clk; ctrl[C_TOT] = tot; ctrl[C_NEXT_TICK] = next_tick;
    ctrl[C_SEC] = sec; ctrl[C_ACTIVE] = active;
    return TICK;
}

/* Private-L1 trace filter: the MRU-list loop of
 * repro.cache.l1._l1_filter_python, over consecutive segments of
 * `addrs` (seg_lens[g] accesses each) that each start from a cold L1.
 * Row s of `mru` holds set s's tags most-recent first; fill[s] of them
 * are valid.  hits[i] becomes 1 when access i hits, else 0. */
void l1_filter(
    const int64_t *addrs, const int64_t *seg_lens, int64_t n_segs,
    int64_t offset_bits, int64_t index_mask, int64_t tag_shift, int64_t ways,
    int64_t *mru, int64_t *fill, uint8_t *hits)
{
    int64_t g, i = 0, k;
    for (g = 0; g < n_segs; g++) {
        int64_t end = i + seg_lens[g];
        for (k = 0; k <= index_mask; k++) fill[k] = 0;
        for (; i < end; i++) {
            int64_t addr = addrs[i];
            int64_t s = (addr >> offset_bits) & index_mask;
            int64_t tag = addr >> tag_shift;
            int64_t *row = mru + s * ways;
            int64_t f = fill[s];
            for (k = 0; k < f; k++) if (row[k] == tag) break;
            if (k < f) {
                hits[i] = 1;
            } else {
                hits[i] = 0;
                /* Miss: the LRU tag (if the set is full) falls off the end. */
                if (f < ways) fill[s] = ++f;
                k = f - 1;
            }
            for (; k > 0; k--) row[k] = row[k - 1];
            row[0] = tag;
        }
    }
}

/* Stream compile: the arithmetic of repro.cpu.streams.compile_thread_work
 * over every (section, thread) trace of a program, given the L1 hit mask
 * of their concatenation.  Trace g is read in place through addr_segs[g]
 * and gap_segs[g] (seg_lens[g] accesses).  Writes the L1 misses'
 * addresses and deltas back to back (the caller sizes them from the miss
 * count) and one row per trace of the scalar tables.  Sums run in trace
 * order with one rounding per operation, as NumPy's cumsum and diff do;
 * the build passes -ffp-contract=off so `gap * base_cpi + l1_hit_cycles`
 * is never fused into one rounding. */
void compile_streams(
    const int64_t *const *addr_segs, const int32_t *const *gap_segs,
    const uint8_t *hits, const int64_t *seg_lens, int64_t n_segs,
    double base_cpi, double l1_hit_cycles,
    int64_t stream_base, double stream_miss_cycles, double mem_cycles,
    int64_t *out_addr, int64_t *out_di, double *out_dc, double *out_mc,
    int64_t *lens, int64_t *tail_i, double *tail_c, int64_t *total_i,
    int64_t *l1_acc, int64_t *l1_hits)
{
    int64_t g, k, o = 0;
    for (g = 0; g < n_segs; g++) {
        const int64_t *addrs = addr_segs[g];
        const int32_t *gaps = gap_segs[g];
        int64_t first = o, n_hits = 0;
        int64_t ci = 0, ci_miss = 0;
        double cc = 0.0, cc_miss = 0.0;
        for (k = 0; k < seg_lens[g]; k++) {
            ci += (int64_t)gaps[k] + 1;
            cc += (double)gaps[k] * base_cpi + l1_hit_cycles;
            if (hits[k]) { n_hits++; continue; }
            out_addr[o] = addrs[k];
            out_di[o] = ci - ci_miss;
            out_dc[o] = cc - cc_miss;
            out_mc[o] = addrs[k] >= stream_base ? stream_miss_cycles : mem_cycles;
            ci_miss = ci;
            cc_miss = cc;
            o++;
        }
        hits += seg_lens[g];
        lens[g] = o - first;
        tail_i[g] = ci - ci_miss;
        tail_c[g] = cc - cc_miss;
        total_i[g] = ci;
        l1_acc[g] = seg_lens[g];
        l1_hits[g] = n_hits;
    }
}
"""

#: Result codes of ``replay_lane``.
RC_DONE = 0
RC_TICK = 1

#: The compiler flags, part of the built object's name.  No ``-ffast-math``; ``-ffp-contract=off`` keeps
#: ``a * b + c`` two roundings on targets with FMA (aarch64, for one),
#: as NumPy computes it.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_LOADED: list = [False, None]  # [attempted, ctypes CDLL | None]


def _source_digest() -> str:
    """Names the built object: the source and the flags that built it."""
    build = "\0".join((KERNEL_SOURCE, *_CFLAGS))
    return hashlib.sha256(build.encode("utf-8")).hexdigest()[:16]


def _library_path() -> Path:
    return _cache_dir() / f"batchkernel-{_source_digest()}.so"


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if root:
        return Path(root)
    return Path(tempfile.gettempdir()) / f"repro-batchkernel-{os.getuid()}"


def _compile(out_path: Path) -> str | None:
    """Build the shared object next to ``out_path`` and rename into place.

    Returns ``None`` on success, else why the build failed.  The rename
    is atomic on POSIX, so concurrent workers racing to build the same
    digest all end up loading one complete object.
    """
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return "no C compiler (cc or gcc) on PATH"
    src = out_path.with_suffix(f".{os.getpid()}.c")
    tmp = out_path.with_suffix(f".{os.getpid()}.so")
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        src.write_text(KERNEL_SOURCE)
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", str(tmp), str(src)],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return f"{cc} exited with status {proc.returncode}"
        os.replace(tmp, out_path)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"building with {cc} failed: {exc}"
    finally:
        for leftover in (src, tmp):
            try:
                leftover.unlink()
            except OSError:
                pass


def _bind(path: Path):
    lib = ctypes.CDLL(str(path))
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_i32 = ctypes.POINTER(ctypes.c_int32)
    p_f64 = ctypes.POINTER(ctypes.c_double)
    fn = lib.replay_lane
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        p_i64, p_f64, p_f64, p_i64, p_i64, p_f64, p_i64,  # streams
        ctypes.c_int64, ctypes.c_double,  # off, l2_hit
        p_i64, p_i32, p_i32, p_i64, p_i32, p_i64, p_i64,  # cache state
        p_i32, p_i32, p_i32, p_i32,  # recency lists
        p_i64, p_i64, p_i64, p_i64, p_i64,  # counters
        p_f64, p_f64, p_i64, p_i64, p_i32, p_f64, p_i64,  # cpu state
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # n, n_sections, ways
        ctypes.c_int64, ctypes.c_int64,  # set_mask, enforce
    ]
    # The two prep routines take raw addresses (ints) rather than typed
    # pointers: data_as() conversions cost more than a small input's loop.
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    fn = lib.l1_filter
    fn.restype = None
    fn.argtypes = [
        ptr, ptr, i64,  # addrs, seg_lens, n_segs
        i64, i64, i64, i64,  # geometry
        ptr, ptr, ptr,  # mru, fill, hits
    ]
    fn = lib.compile_streams
    fn.restype = None
    fn.argtypes = [
        ptr, ptr, ptr, ptr, i64,  # addr/gap tables, hits, seg_lens, n_segs
        f64, f64, i64, f64, f64,  # timing
        ptr, ptr, ptr, ptr,  # stream arrays
        ptr, ptr, ptr, ptr, ptr, ptr,  # per-segment tables
    ]
    return lib


def _warn_unavailable(reason: str) -> None:
    """The no-compiler degradation is loud: printed, and evented when a
    tracer is on (the fallback counters are bumped by the callers)."""
    from repro.obs.events import EngineDegradedEvent
    from repro.obs.tracer import get_tracer

    print(
        f"warning: compiled kernel unavailable ({reason}); the L1 filter, "
        "stream compilation and the batch backend fall back to their Python paths",
        file=sys.stderr,
    )
    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit(EngineDegradedEvent(engine="batch", reason=reason))


def _load_library():
    """The bound shared object, or ``None`` when unavailable.

    One build/load attempt per process; the outcome (including failure)
    is memoised so a compiler-less host pays the probe, and the warning,
    exactly once.
    """
    if _LOADED[0]:
        return _LOADED[1]
    _LOADED[0] = True
    so_path = _library_path()
    reason = None if so_path.exists() else _compile(so_path)
    if reason is None:
        try:
            _LOADED[1] = _bind(so_path)
        except OSError as exc:
            reason = f"cannot load {so_path.name}: {exc}"
    if reason is not None:
        _warn_unavailable(reason)
    return _LOADED[1]


def load_kernel():
    """The bound ``replay_lane`` routine, or ``None`` when unavailable."""
    lib = _load_library()
    return None if lib is None else lib.replay_lane


def load_l1_filter():
    """The bound ``l1_filter`` routine, or ``None`` when unavailable."""
    lib = _load_library()
    return None if lib is None else lib.l1_filter


def load_stream_compiler():
    """The bound ``compile_streams`` routine, or ``None`` when unavailable."""
    lib = _load_library()
    return None if lib is None else lib.compile_streams


def kernel_available() -> bool:
    """True when the compiled routines can be (or have been) loaded."""
    return _load_library() is not None
