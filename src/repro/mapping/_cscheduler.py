"""The native library: the compiled scheduling loop and its neighbours.

Plain C built at first use with the system compiler and loaded through
:mod:`cffi`'s ABI mode — no Python headers are required — and cached
as a shared library under the system temp directory, keyed by a hash
of the source, the flags, the compiler and numpy's version.

The list scheduler of :mod:`repro.mapping.kernel` is one C loop, the
slot scheduler ``schedule_slots``: processor free times are kept as a
sorted linked list of distinct values, one processor bitmask per
value, so the s-th smallest free time is a prefix-count walk and the
first-fit processor set is bit arithmetic.  Two entry points share
its per-call work-space setup:

* ``schedule_makespan_batch`` scores a whole ``(B, V)`` allocation
  matrix in one call, optionally fanning rows across OpenMP threads
  (``nthreads``; built with ``-fopenmp`` when that compiles, plain
  otherwise);
* ``schedule_build`` runs the same loop on one allocation and also
  writes each task's start and finish times and its processor indices
  in ascending order — the final schedule of a run.

Bit-identity with the reference mapper
(:func:`repro.mapping.list_scheduler._run`) is preserved by
construction:

* every floating-point operation (the bottom-level ``max`` chains, the
  ``t_start``/``t_finish`` additions, the ``<= t_start + 1e-12``
  candidate test) maps to the identical IEEE-754 double operation —
  there is no reassociation, fused arithmetic, or extended precision
  (x86-64 SSE2 doubles, no ``-ffast-math``, ``-ffp-contract=off``);
* the ready queue pops tasks in the exact (bottom level descending,
  index ascending) order — a strict total order, so any correct heap
  yields the same sequence as :mod:`heapq`;
* free-time slots are compared exactly, and the chosen processors are
  the same first-fit-by-index set the reference's epsilon scan commits.

A third entry point, ``cpa_allocate``, runs the whole CPA-family
allocation loop of :mod:`repro.allocation.cpa` (level sweeps,
critical-path mask, best-gain growth) in one call on per-call buffers;
it needs no kernel, only the PTG's CSR arrays and the time table.

A fourth, ``mutation_offspring``, makes one generation of Eq. 1
offspring for :mod:`repro.core.mutation`: parent picks, positions,
shrink flags and magnitudes, drawn from the caller's
``np.random.Generator`` through its ``bitgen_t`` with numpy's own
samplers (``random_bounded_uint64``, ``random_standard_uniform``,
``random_normal``) and mirroring both branches of
``Generator.choice``.  The samplers come from numpy's static archive
``numpy/random/lib/libnpyrandom.a``; they are declared in the C source,
which includes only ``numpy/random/bitgen.h`` from
``numpy.get_include()``, because numpy's ``distributions.h`` needs
``Python.h``.  The archive is linked, and the entry point compiled in,
only when it and the header exist; the archive's path and
``numpy.__version__`` are part of the cache digest.  Without them (or when they will not
link) the library is built without this entry point and the scheduling
kernel loads as before.

The property suite in ``tests/test_mapping_kernel.py`` pins both
scheduling entry points against the pure-Python reference with exact
``==`` comparisons; ``tests/test_allocation_cpa.py`` does the same for the
allocation loop and ``tests/test_core_mutation.py`` for the offspring.

If :mod:`cffi` or a C compiler is unavailable, or compilation fails
for any reason, :func:`load` returns ``(None, None)`` and every caller
runs its Python loop — for the kernel, the reference mapper (a warning
is logged so the degradation is visible, never fatal).  A corrupted or
truncated cached ``.so`` — e.g. from a machine crash mid-publish or a
cache shared across incompatible toolchains — is detected at
``dlopen``/symbol-check time, deleted, and rebuilt once before giving
up.  Set ``REPRO_NO_CKERNEL=1`` to force the fallback; set
``REPRO_CKERNEL_CACHE`` to relocate the build cache.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

from ..obs.log import get_logger

__all__ = ["load", "CDEF"]

_log = get_logger("mapping.ckernel")

CDEF = """
int schedule_makespan_batch(
    int B, int V, int P, int nthreads,
    const double *flat_times,
    const int32_t *rev_topo,
    const int32_t *indptr,
    const int32_t *indices,
    const int32_t *indeg,
    const int64_t *alloc_rows,
    double bound, double inner_bound,
    double *out);

double schedule_build(
    int V, int P,
    const double *flat_times,
    const int32_t *rev_topo,
    const int32_t *indptr,
    const int32_t *indices,
    const int32_t *indeg,
    const int64_t *alloc,
    const int64_t *proc_end,
    double *start, double *finish, int64_t *procs);

int64_t cpa_allocate(
    int64_t V, int64_t P,
    const double *table,
    const int64_t *topo,
    const int64_t *succ_indptr, const int64_t *succ_indices,
    const int64_t *pred_indptr, const int64_t *pred_indices,
    const int64_t *caps,
    const int64_t *level, int64_t num_levels,
    double area, int64_t divisor,
    int allow_negative_gain, int64_t max_steps,
    int64_t *alloc);

int mutation_offspring(
    void *bitgen,
    int64_t n_parents, int64_t V, int64_t P,
    const int64_t *parents,
    int64_t count, int64_t m,
    double shrink_probability, double sigma_shrink, double sigma_stretch,
    int64_t *parent_index, int64_t *children);
"""

_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

#define EPS 1e-12

/* Ready-queue ordering: bottom level descending, task index ascending
 * on ties — the exact total order of the reference mapper's
 * (-bl[v], v) heapq tuples. */
static inline int heap_before(const double *bl, int32_t a, int32_t b) {
    if (bl[a] != bl[b]) return bl[a] > bl[b];
    return a < b;
}

static void heap_push(int32_t *heap, int *n, const double *bl,
                      int32_t v) {
    int i = (*n)++;
    heap[i] = v;
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (!heap_before(bl, heap[i], heap[parent]))
            break;
        int32_t tmp = heap[parent];
        heap[parent] = heap[i];
        heap[i] = tmp;
        i = parent;
    }
}

static int32_t heap_pop(int32_t *heap, int *n, const double *bl) {
    int32_t top = heap[0];
    int32_t last = heap[--(*n)];
    int m = *n;
    int i = 0;
    heap[0] = last;
    for (;;) {
        int child = 2 * i + 1;
        if (child >= m)
            break;
        if (child + 1 < m && heap_before(bl, heap[child + 1], heap[child]))
            child++;
        if (!heap_before(bl, heap[child], heap[i]))
            break;
        int32_t tmp = heap[i];
        heap[i] = heap[child];
        heap[child] = tmp;
        i = child;
    }
    return top;
}

/* ------------------------------------------------------------------
 * The slot scheduler: the one compiled list-scheduling loop.
 *
 * The free times of the P processors are kept as a *multiset of
 * slots*: a value-sorted doubly-linked list with one node per distinct
 * free time, each node owning a bitmask of the processor indices that
 * become free at that time.  The s-th smallest free time is then a
 * prefix-count walk over a handful of nodes, and the first-fit-by-index
 * commitment is "the lowest s set bits of the union of the qualifying
 * nodes' masks" — pure integer bit tricks, no quickselect.
 *
 * Bit-identity with the reference mapper is preserved by construction:
 * the floating-point operations are the identical IEEE-754 doubles in
 * the identical order, slot values are compared exactly (equal finish
 * times simply coexist as distinct nodes), and the chosen
 * processor-index set is the same first-fit prefix the reference's
 * epsilon-window scan commits.
 */

static inline int popcount64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(x);
#else
    int c = 0;
    while (x) {
        x &= x - 1;
        c++;
    }
    return c;
#endif
}

/* count of leading zeros; x must be nonzero */
static inline int clz64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_clzll(x);
#else
    int c = 0;
    uint64_t top = (uint64_t)1 << 63;
    while (!(x & top)) {
        x <<= 1;
        c++;
    }
    return c;
#endif
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REPRO_HAVE_BMI2_DISPATCH 1
#include <immintrin.h>
static int have_bmi2 = 0;
/* detected once at load, so concurrent calls only ever read it */
__attribute__((constructor))
static void detect_bmi2(void) {
    __builtin_cpu_init();
    have_bmi2 = __builtin_cpu_supports("bmi2");
}
__attribute__((target("bmi2")))
static uint64_t lowest_bits_bmi2(uint64_t x, int k) {
    /* deposit a k-bit run into the positions of x's set bits: exactly
     * the lowest k set bits of x, in one instruction */
    return _pdep_u64(((uint64_t)1 << k) - 1, x);
}
#endif

/* the lowest k set bits of x, given pc = popcount(x); k >= 1 */
static inline uint64_t lowest_bits(uint64_t x, int k, int pc) {
    if (k >= pc)
        return x;
#if defined(REPRO_HAVE_BMI2_DISPATCH)
    if (have_bmi2)
        return lowest_bits_bmi2(x, k);
#endif
    if (k <= pc - k) {
        uint64_t y = x;
        for (int i = 0; i < k; i++)
            y &= y - 1;
        return x ^ y;
    }
    uint64_t y = x;
    for (int i = k; i < pc; i++)
        y &= ~(((uint64_t)1 << 63) >> clz64(y));
    return y;
}

/* Per-call work space of the slot scheduler: one block per element
 * type, so a kernel shared between threads shares no scratch. */
typedef struct {
    double *d;
    int32_t *i;
    uint64_t *m;
} slot_arena;

/* 1 on success; slot_arena_free is safe after a failure */
static int slot_arena_alloc(slot_arena *a, int V, int P) {
    size_t W = ((size_t)P + 63) / 64;
    a->d = (double *)malloc((3 * (size_t)V + (size_t)P + 2) * sizeof(double));
    a->i = (int32_t *)malloc(
        (2 * (size_t)V + 3 * ((size_t)P + 2) + 2 * (size_t)P)
        * sizeof(int32_t));
    a->m = (uint64_t *)malloc(((size_t)P + 1) * W * sizeof(uint64_t));
    return a->d != NULL && a->i != NULL && a->m != NULL;
}

static void slot_arena_free(slot_arena *a) {
    free(a->d);
    free(a->i);
    free(a->m);
}

/* Build mode: task v's start and finish, and its processors — the set
 * bits of the W-word mask — in ascending order at out. */
static void record_task(int32_t v, double t_start, double t_finish,
                        const uint64_t *mask, int W,
                        double *start, double *finish, int64_t *out) {
    start[v] = t_start;
    finish[v] = t_finish;
    for (int w = 0; w < W; w++)
        for (uint64_t x = mask[w]; x; x &= x - 1)
            *out++ = (int64_t)w * 64 + popcount64((x & (~x + 1)) - 1);
}

/* The makespan of one allocation row; INFINITY once start(v) + bl(v)
 * reaches `bound` for a task without successors (its finish time) or
 * `inner_bound` for any other (see kernel.abort_limits).  With `start`
 * non-NULL (build mode) it also writes each task's start and finish
 * times, and task v's processors in ascending order at
 * procs[proc_end[v] - alloc[v] .. proc_end[v]). */
static double schedule_slots(
    int V, int P,
    const double *flat_times,
    const int32_t *rev_topo,
    const int32_t *indptr,
    const int32_t *indices,
    const int32_t *indeg,
    const int64_t *alloc,
    double bound, double inner_bound,
    const slot_arena *a,
    double *start, double *finish,
    const int64_t *proc_end, int64_t *procs)
{
    const int W = (P + 63) / 64;
    const int32_t SHEAD_ID = P;      /* sentinel before all slots */
    const int32_t STAIL_ID = P + 1;  /* sentinel after all slots */
    double *t = a->d, *bl = t + V, *data_ready = bl + V;
    double *sval = data_ready + V;
    int32_t *n_waiting = a->i, *rheap = n_waiting + V;
    int32_t *scnt = rheap + V;
    int32_t *snext = scnt + (P + 2);
    int32_t *sprev = snext + (P + 2);
    int32_t *sfree = sprev + (P + 2);
    int32_t *qs = sfree + P;
    uint64_t *smask = a->m;
    uint64_t *chosen = smask + (size_t)P * W;

    for (int v = 0; v < V; v++)
        t[v] = flat_times[(size_t)v * P + (alloc[v] - 1)];

    /* bottom levels: reverse-topological sweep, exact max chains */
    for (int i = 0; i < V; i++) {
        int32_t v = rev_topo[i];
        int32_t s = indptr[v], e = indptr[v + 1];
        if (s == e) {
            bl[v] = t[v];
            continue;
        }
        double m = bl[indices[s]];
        for (int32_t j = s + 1; j < e; j++) {
            double x = bl[indices[j]];
            if (x > m)
                m = x;
        }
        bl[v] = t[v] + m;
    }

    int heap_n = 0;
    for (int v = 0; v < V; v++) {
        data_ready[v] = 0.0;
        n_waiting[v] = indeg[v];
        if (indeg[v] == 0)
            heap_push(rheap, &heap_n, bl, v);
    }

    /* all processors start free at 0.0: one slot holding bits 0..P-1 */
    sval[SHEAD_ID] = -HUGE_VAL;
    sval[STAIL_ID] = HUGE_VAL;
    snext[SHEAD_ID] = 0;
    sprev[STAIL_ID] = 0;
    sval[0] = 0.0;
    scnt[0] = P;
    snext[0] = STAIL_ID;
    sprev[0] = SHEAD_ID;
    for (int w = 0; w < W - 1; w++)
        smask[w] = ~(uint64_t)0;
    smask[W - 1] = (P % 64)
        ? (((uint64_t)1 << (P % 64)) - 1)
        : ~(uint64_t)0;
    int nfree = 0;
    for (int32_t id = 1; id < P; id++)
        sfree[nfree++] = id;

    double makespan = 0.0;
    while (heap_n > 0) {
        int32_t v = heap_pop(rheap, &heap_n, bl);
        int64_t s = alloc[v];
        double r = data_ready[v];
        double t_start;
        int at_peak = r >= makespan;
        int q = 0;
        if (at_peak) {
            /* every processor is free by r */
            t_start = r;
        } else {
            /* one walk finds both the s-th smallest free time and the
             * qualifying slots: every slot counted toward the s-th
             * smallest has sval <= kth <= t_start, so it qualifies */
            int32_t sl = snext[SHEAD_ID];
            int64_t cum = scnt[sl];
            qs[q++] = sl;
            while (cum < s) {
                sl = snext[sl];
                cum += scnt[sl];
                qs[q++] = sl;
            }
            double kth = sval[sl];
            t_start = r >= kth ? r : kth;
            double limit = t_start + EPS;
            for (sl = snext[sl]; sl != STAIL_ID && sval[sl] <= limit;
                 sl = snext[sl])
                qs[q++] = sl;
        }
        double t_finish = t_start + t[v];
        if (t_start + bl[v]
            >= (indptr[v] == indptr[v + 1] ? bound : inner_bound))
            return INFINITY;

        /* first-fit by index among processors free at t_start: the
         * lowest s bits of the union of the qualifying slots' masks */
        int top_w;  /* last word (inclusive) holding a chosen bit */
        if (at_peak) {
            /* every processor qualifies, so the first-fit choice is
             * simply processors 0..s-1: a prefix bitmask, no union
             * building needed.  Every slot is qualifying for the
             * subtraction pass below. */
            for (int32_t sl = snext[SHEAD_ID]; sl != STAIL_ID;
                 sl = snext[sl])
                qs[q++] = sl;
            int64_t full = s / 64;
            for (int w = 0; w < W; w++)
                chosen[w] = w < full ? ~(uint64_t)0 : 0;
            if (s % 64)
                chosen[full] = (((uint64_t)1 << (s % 64)) - 1);
            top_w = (int)((s - 1) / 64);
        } else if (q == 1) {
            /* single qualifying slot: it holds >= s processors, so the
             * choice is its lowest s bits and the subtraction below is
             * exact.  When the slot holds exactly s the whole slot
             * moves to t_finish — reuse it in place: no mask copy, no
             * subtraction, just a value update and a list re-link. */
            int32_t sl = qs[0];
            if (scnt[sl] == (int32_t)s) {
                if (start != NULL)
                    record_task(v, t_start, t_finish,
                                smask + (size_t)sl * W, W, start, finish,
                                procs + proc_end[v] - s);
                int32_t before = sprev[sl], after = snext[sl];
                snext[before] = after;
                sprev[after] = before;
                sval[sl] = t_finish;
                int32_t tail = sprev[STAIL_ID];
                while (sval[tail] > t_finish)
                    tail = sprev[tail];
                int32_t nxt = snext[tail];
                snext[tail] = sl;
                sprev[sl] = tail;
                snext[sl] = nxt;
                sprev[nxt] = sl;
                if (t_finish > makespan)
                    makespan = t_finish;
                for (int32_t j = indptr[v]; j < indptr[v + 1]; j++) {
                    int32_t w2 = indices[j];
                    if (t_finish > data_ready[w2])
                        data_ready[w2] = t_finish;
                    if (--n_waiting[w2] == 0)
                        heap_push(rheap, &heap_n, bl, w2);
                }
                continue;
            }
            const uint64_t *m = smask + (size_t)sl * W;
            int64_t left = s;
            int w = 0;
            for (;; w++) {
                uint64_t x = m[w];
                int pc = popcount64(x);
                if (pc < left) {
                    chosen[w] = x;
                    left -= pc;
                } else {
                    chosen[w] = lowest_bits(x, (int)left, pc);
                    break;
                }
            }
            top_w = w;
            for (int z = top_w + 1; z < W; z++)
                chosen[z] = 0;
        } else {
            /* build the union word by word, lowest first, stopping as
             * soon as s set bits have been found: the chosen bits are
             * the lowest s of the union, so higher words are never
             * needed */
            int64_t left = s;
            int w = 0;
            for (;; w++) {
                uint64_t x = 0;
                for (int i = 0; i < q; i++)
                    x |= smask[(size_t)qs[i] * W + w];
                int pc = popcount64(x);
                if (pc < left) {
                    chosen[w] = x;
                    left -= pc;
                } else {
                    chosen[w] = lowest_bits(x, (int)left, pc);
                    break;
                }
            }
            top_w = w;
            for (int z = top_w + 1; z < W; z++)
                chosen[z] = 0;
        }

        if (start != NULL)
            record_task(v, t_start, t_finish, chosen, W, start, finish,
                        procs + proc_end[v] - s);

        /* subtract the chosen processors from their slots */
        for (int i = 0; i < q; i++) {
            int32_t sl = qs[i];
            uint64_t *m = smask + (size_t)sl * W;
            int removed = 0;
            for (int w = 0; w <= top_w; w++) {
                uint64_t rm = m[w] & chosen[w];
                if (rm) {
                    m[w] ^= rm;
                    removed += popcount64(rm);
                }
            }
            if (removed) {
                scnt[sl] -= removed;
                if (scnt[sl] == 0) {
                    int32_t before = sprev[sl], after = snext[sl];
                    snext[before] = after;
                    sprev[after] = before;
                    sfree[nfree++] = sl;
                }
            }
        }

        /* new slot: the chosen processors finish at t_finish */
        int32_t id = sfree[--nfree];
        sval[id] = t_finish;
        scnt[id] = (int32_t)s;
        memcpy(smask + (size_t)id * W, chosen, (size_t)W * 8);
        int32_t after = sprev[STAIL_ID];
        while (sval[after] > t_finish)
            after = sprev[after];
        int32_t nxt = snext[after];
        snext[after] = id;
        sprev[id] = after;
        snext[id] = nxt;
        sprev[nxt] = id;

        if (at_peak)
            makespan = t_finish;
        else if (t_finish > makespan)
            makespan = t_finish;

        for (int32_t j = indptr[v]; j < indptr[v + 1]; j++) {
            int32_t w = indices[j];
            if (t_finish > data_ready[w])
                data_ready[w] = t_finish;
            if (--n_waiting[w] == 0)
                heap_push(rheap, &heap_n, bl, w);
        }
    }
    return makespan;
}

/* Makespans of B allocation rows, row b into out[b].  Rows are
 * independent, so they fan across `nthreads` OpenMP threads when the
 * library was built with -fopenmp; each thread owns its work space.
 * Returns the number of rows left unscored: NaN marks each row whose
 * work space could not be allocated, so the caller can re-run it on
 * its fallback loop. */
int schedule_makespan_batch(
    int B, int V, int P, int nthreads,
    const double *flat_times,
    const int32_t *rev_topo,
    const int32_t *indptr,
    const int32_t *indices,
    const int32_t *indeg,
    const int64_t *alloc_rows,
    double bound, double inner_bound,
    double *out)
{
#if !defined(_OPENMP)
    nthreads = 1;
#endif
    if (nthreads < 1)
        nthreads = 1;
    int unscored = 0;
#pragma omp parallel num_threads(nthreads) if (nthreads > 1 && B > 1) \
    reduction(+ : unscored)
    {
        slot_arena a;
        int ok = slot_arena_alloc(&a, V, P);
#pragma omp for schedule(static)
        for (int b = 0; b < B; b++) {
            out[b] = ok ? schedule_slots(
                              V, P, flat_times, rev_topo, indptr, indices,
                              indeg, alloc_rows + (size_t)b * V, bound,
                              inner_bound, &a, NULL, NULL, NULL, NULL)
                        : NAN;
            unscored += !ok;
        }
        slot_arena_free(&a);
    }
    return unscored;
}

/* One allocation's full schedule (see schedule_slots' build mode);
 * returns its makespan, or NaN when the work space cannot be
 * allocated. */
double schedule_build(
    int V, int P,
    const double *flat_times,
    const int32_t *rev_topo,
    const int32_t *indptr,
    const int32_t *indices,
    const int32_t *indeg,
    const int64_t *alloc,
    const int64_t *proc_end,
    double *start, double *finish, int64_t *procs)
{
    slot_arena a;
    double makespan = slot_arena_alloc(&a, V, P)
        ? schedule_slots(V, P, flat_times, rev_topo, indptr, indices,
                         indeg, alloc, INFINITY, INFINITY, &a,
                         start, finish, proc_end, procs)
        : NAN;
    slot_arena_free(&a);
    return makespan;
}

/* ------------------------------------------------------------------
 * The CPA-family allocation loop (repro.allocation.cpa).
 *
 * Starting from one processor per task, each step recomputes bottom
 * and top levels, stops once T_CP <= area / divisor, and otherwise
 * gives one more processor to the first critical-path task of largest
 * gain T(v, s) - T(v, s+1) among those below their cap (and, with a
 * level vector, whose precedence level still claims fewer than P
 * processors — MCPA's budget).  Every floating-point operation is the
 * one the Python loop performs, in the same order; the caller seeds
 * `area` with numpy's sum of T(v, 1).  All buffers are per call, so
 * concurrent calls are safe.  Returns the number of growth steps, or
 * -1 when the work buffers cannot be allocated.
 */
int64_t cpa_allocate(
    int64_t V, int64_t P,
    const double *table,
    const int64_t *topo,
    const int64_t *succ_indptr, const int64_t *succ_indices,
    const int64_t *pred_indptr, const int64_t *pred_indices,
    const int64_t *caps,
    const int64_t *level, int64_t num_levels,
    double area, int64_t divisor,
    int allow_negative_gain, int64_t max_steps,
    int64_t *alloc)
{
    double *t = (double *)malloc(3 * (size_t)V * sizeof(double));
    int64_t *level_sum = NULL;
    if (level != NULL)
        level_sum = (int64_t *)calloc((size_t)num_levels, sizeof(int64_t));
    if (t == NULL || (level != NULL && level_sum == NULL)) {
        free(t);
        free(level_sum);
        return -1;
    }
    double *bl = t + V, *tl = bl + V;
    for (int64_t v = 0; v < V; v++) {
        alloc[v] = 1;
        t[v] = table[(size_t)v * P];
        if (level != NULL)
            level_sum[level[v]]++;
    }
    const double k = (double)divisor;
    int64_t steps = 0;
    for (; steps < max_steps; steps++) {
        /* bottom levels: reverse topological, exact max chains */
        for (int64_t i = V - 1; i >= 0; i--) {
            int64_t v = topo[i];
            double m = 0.0;
            for (int64_t j = succ_indptr[v]; j < succ_indptr[v + 1]; j++) {
                double x = bl[succ_indices[j]];
                if (x > m)
                    m = x;
            }
            bl[v] = t[v] + m;
        }
        double t_cp = bl[0];
        for (int64_t v = 1; v < V; v++)
            if (bl[v] > t_cp)
                t_cp = bl[v];
        if (t_cp <= area / k)
            break;
        /* top levels: topological, 0 for sources */
        for (int64_t i = 0; i < V; i++) {
            int64_t v = topo[i];
            double m = 0.0;
            for (int64_t j = pred_indptr[v]; j < pred_indptr[v + 1]; j++) {
                int64_t u = pred_indices[j];
                double x = tl[u] + t[u];
                if (x > m)
                    m = x;
            }
            tl[v] = m;
        }
        /* first maximum gain among critical tasks that may grow */
        double threshold = t_cp * (1.0 - 1e-12) - EPS;
        int64_t best = -1;
        double best_gain = 0.0;
        for (int64_t v = 0; v < V; v++) {
            int64_t s = alloc[v];
            if (s >= caps[v] || !(tl[v] + bl[v] >= threshold))
                continue;
            if (level != NULL && level_sum[level[v]] >= P)
                continue;
            double gain = t[v] - table[(size_t)v * P + s];
            if (best < 0 || gain > best_gain) {
                best = v;
                best_gain = gain;
            }
        }
        if (best < 0 || (!allow_negative_gain && best_gain <= EPS))
            break;
        int64_t s = alloc[best];
        double t_new = table[(size_t)best * P + s];
        area += (double)(s + 1) * t_new - (double)s * t[best];
        alloc[best] = s + 1;
        t[best] = t_new;
        if (level != NULL)
            level_sum[level[best]]++;
    }
    free(t);
    free(level_sum);
    return steps;
}

#ifdef REPRO_NPYRANDOM
/* ------------------------------------------------------------------
 * One generation of Eq. 1 offspring (repro.core.mutation).
 *
 * The draws come from the caller's numpy Generator through its bitgen_t
 * and numpy's own samplers, linked from numpy/random/lib/libnpyrandom.a.
 * They are declared here rather than through numpy's distributions.h,
 * which includes Python.h.  Per child, in this order: the parent index
 * (Generator.integers(n_parents): no draw for one parent), the m
 * positions (Generator.choice(V, m, replace=False)), m uniforms for the
 * shrink flags, m shrink then m stretch normals — exactly the per-child
 * Python loop, so children and generator state match it bit for bit.
 */
#include <stdbool.h>
#include "numpy/random/bitgen.h"

uint64_t random_bounded_uint64(bitgen_t *bitgen_state, uint64_t off,
                               uint64_t rng, uint64_t mask,
                               bool use_masked);
double random_standard_uniform(bitgen_t *bitgen_state);
double random_normal(bitgen_t *bitgen_state, double loc, double scale);

/* Generator.choice's _shuffle_int: swaps data[i] with a uniform
 * data[j], j <= i, for i = n-1 down to first */
static void shuffle_int(bitgen_t *bg, int64_t n, int64_t first,
                        int64_t *data)
{
    for (int64_t i = n - 1; i >= first; i--) {
        int64_t j = (int64_t)random_bounded_uint64(bg, 0, (uint64_t)i,
                                                   0, false);
        int64_t tmp = data[j];
        data[j] = data[i];
        data[i] = tmp;
    }
}

/* Generator.choice(V, m, replace=False, shuffle=True) into out[0..m) */
static void choice_without_replacement(bitgen_t *bg, int64_t V, int64_t m,
                                       uint64_t mask, uint64_t *hash_set,
                                       int64_t *pool, int64_t *out)
{
    if (V > 10000 && m > V / 50) {
        /* tail shuffle of a fresh arange; the sample is its last m */
        for (int64_t i = 0; i < V; i++)
            pool[i] = i;
        shuffle_int(bg, V, V - m > 1 ? V - m : 1, pool);
        memcpy(out, pool + (V - m), (size_t)m * sizeof(int64_t));
        return;
    }
    /* Floyd's algorithm over an open-addressing set, then a shuffle */
    for (uint64_t k = 0; k <= mask; k++)
        hash_set[k] = UINT64_MAX;
    for (int64_t j = V - m; j < V; j++) {
        uint64_t val = random_bounded_uint64(bg, 0, (uint64_t)j, 0, false);
        uint64_t loc = val & mask;
        while (hash_set[loc] != UINT64_MAX && hash_set[loc] != val)
            loc = (loc + 1) & mask;
        if (hash_set[loc] == UINT64_MAX) {
            hash_set[loc] = val;
            out[j - V + m] = (int64_t)val;
        } else {
            loc = (uint64_t)j & mask;
            while (hash_set[loc] != UINT64_MAX)
                loc = (loc + 1) & mask;
            hash_set[loc] = (uint64_t)j;
            out[j - V + m] = j;
        }
    }
    shuffle_int(bg, m, 1, out);
}

/* Returns 0, or -1 when the buffers cannot be allocated — checked
 * before the first draw, so the generator is then untouched. */
int mutation_offspring(
    void *bitgen,
    int64_t n_parents, int64_t V, int64_t P,
    const int64_t *parents,
    int64_t count, int64_t m,
    double shrink_probability, double sigma_shrink, double sigma_stretch,
    int64_t *parent_index, int64_t *children)
{
    bitgen_t *bg = (bitgen_t *)bitgen;
    /* choice's set size: smallest all-ones mask >= (uint64)(1.2 m) */
    uint64_t mask = (uint64_t)(1.2 * (double)m);
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    /* one arena, 8-byte types first: hash set, arange pool (V),
     * positions, shrink magnitudes, shrink flags (m each; m <= V) */
    uint64_t *hash_set = (uint64_t *)malloc(
        ((size_t)mask + 1 + (size_t)V + 2 * (size_t)m) * 8 + (size_t)m);
    if (hash_set == NULL)
        return -1;
    int64_t *pool = (int64_t *)(hash_set + mask + 1);
    int64_t *pos = pool + V;
    double *mag_shrink = (double *)(pos + m);
    unsigned char *shrink = (unsigned char *)(mag_shrink + m);
    for (int64_t c = 0; c < count; c++) {
        int64_t p = (int64_t)random_bounded_uint64(
            bg, 0, (uint64_t)(n_parents - 1), 0, false);
        parent_index[c] = p;
        choice_without_replacement(bg, V, m, mask, hash_set, pool, pos);
        for (int64_t k = 0; k < m; k++)
            shrink[k] = random_standard_uniform(bg) < shrink_probability;
        for (int64_t k = 0; k < m; k++)
            mag_shrink[k] =
                floor(fabs(random_normal(bg, 0.0, sigma_shrink))) + 1.0;
        int64_t *child = children + (size_t)c * V;
        memcpy(child, parents + (size_t)p * V,
               (size_t)V * sizeof(int64_t));
        for (int64_t k = 0; k < m; k++) {
            double stretch =
                floor(fabs(random_normal(bg, 0.0, sigma_stretch))) + 1.0;
            int64_t adjust =
                (int64_t)(shrink[k] ? -mag_shrink[k] : stretch);
            /* wrapping add, as numpy's int64 arithmetic */
            child[pos[k]] =
                (int64_t)((uint64_t)child[pos[k]] + (uint64_t)adjust);
        }
        for (int64_t v = 0; v < V; v++)
            child[v] = child[v] < 1 ? 1 : (child[v] > P ? P : child[v]);
    }
    free(hash_set);
    return 0;
}
#endif
"""

_ffi = None
_lib = None
_tried = False
_load_lock = threading.Lock()


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CKERNEL_CACHE")
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return Path(tempfile.gettempdir()) / f"repro-ckernel-{uid}"


def _npyrandom_archive() -> Path:
    """numpy's static sampler library, ``numpy/random/lib/libnpyrandom.a``."""
    import numpy

    return Path(numpy.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def _npyrandom() -> tuple[Path, Path] | None:
    """numpy's include directory and sampler archive, when both exist.

    Only ``numpy/random/bitgen.h`` is included from that directory: the
    samplers' own header pulls in ``Python.h``, which an ABI-mode build
    does not need.
    """
    import numpy

    include = Path(numpy.get_include())
    archive = _npyrandom_archive()
    header = include / "numpy" / "random" / "bitgen.h"
    if header.is_file() and archive.is_file():
        return include, archive
    return None


def _flags(openmp: bool, npyrandom: bool = True) -> list[str]:
    """Compiler flags; ``npyrandom`` adds the offspring entry point when
    numpy's sampler archive is present."""
    # -ffp-contract=off: a toolchain targeting FMA hardware (clang with
    # -march=native, distro GCCs defaulting to x86-64-v3) may otherwise
    # fuse a multiply-add such as the CPA area update into one rounding
    # and diverge from the Python loops
    flags = ["-O2", "-shared", "-fPIC", "-ffp-contract=off"]
    if openmp:
        flags.append("-fopenmp")
    found = _npyrandom() if npyrandom else None
    if found is not None:
        flags += ["-DREPRO_NPYRANDOM", f"-I{found[0]}"]
    return flags


def _link_args(npyrandom: bool = True) -> list[str]:
    """What follows the source on the command line: numpy's archive."""
    found = _npyrandom() if npyrandom else None
    return [] if found is None else [str(found[1]), "-lm"]


def _compiler() -> str:
    """The C compiler command: ``CC``, else ``cc``."""
    return os.environ.get("CC", "cc")


def _lib_path(openmp: bool, npyrandom: bool = True) -> Path:
    """Cached artifact path for one build variant.

    The digest covers the source, the compiler, the flags, the archive
    path and the numpy version, whose samplers the archive holds.
    """
    import numpy

    key = "\0".join(
        [
            _C_SOURCE,
            _compiler(),
            " ".join(_flags(openmp, npyrandom)),
            " ".join(_link_args(npyrandom)),
            numpy.__version__,
        ]
    )
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
    return _cache_dir() / f"scheduler-{digest}.so"


@contextmanager
def _compile_cache_lock(cache: Path):
    """Exclusive inter-process lock over compile-cache mutation.

    Concurrent service workers (and parallel CI jobs sharing one cache
    directory) race the corrupt-``.so`` delete+rebuild path: without
    serialization one process can unlink a *good* library another
    process published (or is mid-``dlopen`` on).  An ``flock`` on a
    sidecar lock file makes "inspect, delete, rebuild, publish" atomic
    across processes.  Where :mod:`fcntl` is unavailable, or the lock
    file cannot be opened (read-only cache), this degrades to a no-op:
    the atomic ``os.replace`` publish still keeps races *benign* (never
    corrupting), just wasteful.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-posix platforms
        yield
        return
    try:
        cache.mkdir(parents=True, exist_ok=True)
        handle = open(cache / ".build.lock", "a+b")
    except OSError:  # pragma: no cover - unwritable cache directory
        yield
        return
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    finally:
        handle.close()


def _build(openmp: bool, npyrandom: bool = True) -> Path:
    """Compile the shared library (cached by source + flag hash).

    ``openmp=True`` adds ``-fopenmp`` so the batch entry point can fan
    genomes across threads (``REPRO_CKERNEL_THREADS``); the flag is
    part of the cache digest, so the two variants never collide.
    Without OpenMP the ``#pragma omp`` lines are inert and the batch
    path runs serially — same results either way.  ``npyrandom`` links
    numpy's sampler archive, when present, for ``mutation_offspring``.
    """
    flags = _flags(openmp, npyrandom)
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    lib_path = _lib_path(openmp, npyrandom)
    if lib_path.exists():
        return lib_path
    with _compile_cache_lock(cache):
        # double-checked under the lock: a concurrent worker may have
        # published the artifact while we waited for the flock
        if lib_path.exists():
            return lib_path
        src_path = lib_path.with_suffix(".c")
        src_path.write_text(_C_SOURCE, encoding="utf-8")
        tmp_path = cache / f"{lib_path.stem}.{os.getpid()}.tmp.so"
        try:
            subprocess.run(
                [
                    _compiler(),
                    *flags,
                    str(src_path),
                    "-o",
                    str(tmp_path),
                    *_link_args(npyrandom),
                ],
                check=True,
                capture_output=True,
                timeout=120,
            )
            # atomic publish: even an unlocked racer (no fcntl) only
            # replaces the file with identical content
            os.replace(tmp_path, lib_path)
        finally:
            tmp_path.unlink(missing_ok=True)
    return lib_path


def _describe_failure(exc: BaseException) -> str:
    """Human-readable cause, including the compiler's stderr if any."""
    if isinstance(exc, subprocess.CalledProcessError):
        stderr = exc.stderr or b""
        if isinstance(stderr, bytes):
            stderr = stderr.decode("utf-8", "replace")
        detail = " ".join(stderr.split())[:200]
        return f"compiler exited with status {exc.returncode}: {detail}"
    return f"{type(exc).__name__}: {exc}"


def _dlopen_checked(ffi, lib_path: Path, npyrandom: bool = False):
    """dlopen the cached build and verify it exports every entry point.

    A truncated or stale cached library fails here — at load time,
    where the caller can rebuild — rather than mid-optimization.
    """
    lib = ffi.dlopen(str(lib_path))
    symbols = ["schedule_makespan_batch", "schedule_build", "cpa_allocate"]
    if npyrandom:
        symbols.append("mutation_offspring")
    for symbol in symbols:
        getattr(lib, symbol)
    return lib


def load():
    """``(ffi, lib)`` for the native scheduler, or ``(None, None)``.

    The first call compiles (or dlopens the cached build); failures of
    any kind — no cffi, no compiler, sandboxed filesystem, corrupted
    cache — degrade to ``(None, None)`` with a logged warning so
    callers keep their pure-Python path.  A cached library that fails
    to load or lacks the expected symbols is deleted and rebuilt once.
    A thread that calls while another is loading waits for that load's
    result rather than reading ``(None, None)`` before it is done.
    """
    global _ffi, _lib, _tried
    if _tried:
        return _ffi, _lib
    with _load_lock:
        if not _tried:
            try:
                _ffi, _lib = _load()
            finally:
                _tried = True
    return _ffi, _lib


def _load():
    """The one attempt behind :func:`load`."""
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None, None
    try:
        from cffi import FFI
    except ImportError:
        _log.debug(
            "cffi is not installed; using the Python scheduling path"
        )
        return None, None
    ffi = FFI()
    ffi.cdef(CDEF)
    # Prefer the OpenMP build (threaded batch path); fall back to a
    # plain build when -fopenmp does not compile or its runtime
    # library fails to load on this machine.  When numpy's sampler
    # archive is present but will not link, the scheduling kernel is
    # still built without it.
    has_archive = _npyrandom() is not None
    variants = [(True, has_archive), (False, has_archive)]
    if has_archive:
        variants += [(True, False), (False, False)]
    lib = None
    failures: list[str] = []
    for openmp, npyrandom in variants:
        try:
            lib_path = _build(openmp, npyrandom)
        except Exception as exc:
            failures.append(_describe_failure(exc))
            continue
        try:
            lib = _dlopen_checked(ffi, lib_path, npyrandom)
            break
        except Exception as exc:
            _log.warning(
                "cached native scheduling kernel %s failed to load "
                "(%s); deleting it and rebuilding once",
                lib_path,
                _describe_failure(exc),
            )
            try:
                with _compile_cache_lock(_cache_dir()):
                    # under the lock: a concurrent worker may already
                    # have replaced the bad artifact while we waited —
                    # retry the load before deleting, so a *good*
                    # library is never unlinked from under a peer
                    try:
                        lib = _dlopen_checked(ffi, lib_path, npyrandom)
                    except Exception:
                        Path(lib_path).unlink(missing_ok=True)
                        lib = None
                if lib is None:
                    lib_path = _build(openmp, npyrandom)
                    lib = _dlopen_checked(ffi, lib_path, npyrandom)
                break
            except Exception as exc2:
                failures.append(_describe_failure(exc2))
                continue
    if lib is None:
        _log.warning(
            "could not build the native scheduling kernel (%s); "
            "falling back to the reference mapper (tens of times slower)",
            "; ".join(failures) or "no compiler attempt succeeded",
        )
        return None, None
    return ffi, lib
