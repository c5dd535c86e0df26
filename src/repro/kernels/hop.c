/* One frontier hop per lane (the `c` kernel backend), the index build's two
 * per-table loops (Vose alias tables and per-vertex prefix sums), the
 * per-lane loops of the out-of-core PAT draw, the out-of-core frame
 * pool's read and admit passes, and a run's lane seeds.
 *
 * Built on first use by repro/kernels/c_backend.py with the system compiler:
 *
 *     cc -O2 -ffp-contract=off -fPIC -shared -pthread -o hop-<sha256>.so hop.c
 *
 * and called through ctypes with the GIL released. -ffp-contract=off is
 * mandatory: `r = total - u * total` must round twice, as numpy does, or
 * trunk selection drifts by one ulp and walks stop being bit-identical to
 * the numpy passes (the post-load self-test refuses such a build).
 *
 * The per-lane steps — select, alias, scatter — exist once, as the static
 * helpers below. hop_select / hop_alias / hop_scatter run one of them over
 * pre-drawn uniforms (the three-pass ABI: the Python drivers own every
 * draw). hop_lanes runs all of them for a lane-keyed frontier, drawing each
 * lane's uniforms itself from the counter stream repro.rng.LaneRng defines,
 * in the order the drivers would: stop, then per beta round select, two
 * alias draws for a deep lane, accept.
 *
 * Nothing here owns memory. Every index derived from an input is checked
 * before it is dereferenced; a bad row returns -1 - row and the Python side
 * raises IndexError. Array dtype, contiguity and the lengths passed here
 * are the caller's contract, verified in Python before any pointer is taken.
 */
#include <math.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stddef.h>
#include <string.h>
#include <time.h>

typedef int64_t i64;
typedef int32_t i32;
typedef uint64_t u64;

#define BAD(row) return -1 - (row)

/* Operands of the passes; c_backend.py lays the same fields out in the
 * same order (every member is 8 bytes wide, so there is no padding —
 * alias cells are int32, but the member is a pointer to them). */
typedef struct {            /* select: candidate prefix sums */
    i64 V; const i64 *indptr; i64 c_len; const double *c;
} Totals;
typedef struct {            /* alias: per-level tables */
    i64 V; const i64 *lvl_base; i64 ptr_len; const i64 *lvl_ptr;
    i64 tab_len; const double *prob; const i32 *alias;
} Tables;
typedef struct {            /* scatter: graph CSR and the walk state */
    i64 V; const i64 *indptr; i64 E; const i64 *nbr; const double *etime;
    const i64 *cand_sizes;
    i64 num; i64 *cur, *prev, *s, *steps_left;
    i64 stride; i64 *hop_vertex; double *hop_time;
} Walk;
typedef struct {            /* hop_lanes: all of it, plus stream and beta */
    Totals t; Tables a; Walk w;
    i64 n_keys; const u64 *key; u64 *ctr;
    double stop;
    i64 rounds;             /* beta rejection budget; < 0: no beta */
    i64 span, n_static; const i64 *static_keys;
    double inv_p, inv_q, beta_max;
} Lanes;

/* Highest set bit of x > 0. */
static inline int top_bit(i64 x) { return 63 - __builtin_clzll((uint64_t)x); }

/* LaneRng: a lane's k-th uniform is splitmix64(key + k*gamma) >> 11, exact
 * in a double, times 2^-53. Advances the lane's counter. */
static inline double lane_uniform(u64 key, u64 *ctr)
{
    u64 z = key + ++*ctr * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return (double)((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
}

/* select: candidate total, r in (0, total], ITS over the binary
 * decomposition of s. Returns the winning trunk's level (its edge offset
 * in *off) or -1, and adds the cost model's probes,
 * ceil(log2(max(popcount s, 2))) + 1, in integers.
 */
static inline int select_lane(const Totals *t, i64 v, i64 s, double u,
                              i64 *off, i64 *probes)
{
    if (v < 0 || v >= t->V) return -1;
    i64 lo = t->indptr[v], hi = t->indptr[v + 1];
    if (lo < 0 || hi < lo || s < 1 || s > hi - lo) return -1;
    if (hi > t->c_len - 1 - v) return -1; /* base + s <= hi + v < c_len */
    const double *c = t->c + lo + v;
    double total = c[s];
    double scaled = u * total;
    double r = total - scaled;
    i64 rem = s, at = 0;
    while (rem) {
        int k = top_bit(rem);
        i64 block = (i64)1 << k;
        if (c[at + block] >= r) {
            int blocks = __builtin_popcountll((uint64_t)s);
            *probes += 1 + (blocks <= 2 ? 1 : top_bit(blocks - 1) + 1);
            *off = at;
            return k;
        }
        at += block;
        rem -= block;
    }
    return -1; /* no boundary covers r: NaN weights */
}

/* alias: one cell of the level-k table over trunk offset off, from two
 * uniforms. Returns off + in-trunk pick, or -1.
 */
static inline i64 alias_lane(const Tables *a, i64 v, i64 k, i64 off,
                             double u_cell, double u_take)
{
    if (v < 0 || v >= a->V || k < 1 || k > 62 || off < 0) return -1;
    i64 first = a->lvl_base[v];
    if (first < 0 || first > a->ptr_len - k || first + k > a->lvl_base[v + 1])
        return -1;
    i64 width = (i64)1 << k, table = a->lvl_ptr[first + k - 1];
    if (table < 0 || off > a->tab_len || table > a->tab_len - width - off)
        return -1;
    i64 start = table + off;
    i64 cell = (i64)(u_cell * (double)width);
    if (cell > width - 1) cell = width - 1;
    if (cell < 0) return -1;
    if (u_take >= a->prob[start + cell]) cell = a->alias[start + cell];
    return off + cell;
}

/* Position of v's local edge j in the CSR arrays, or -1. */
static inline i64 edge_pos(const Walk *w, i64 v, i64 j)
{
    if (v < 0 || v >= w->V) return -1;
    i64 lo = w->indptr[v], hi = w->indptr[v + 1];
    if (lo < 0 || hi < lo || hi > w->E || j < 0 || j >= hi - lo) return -1;
    return lo + j;
}

/* scatter: lane at v follows local edge j. Records the hop (when hop
 * columns are kept), advances prev/cur/s/steps_left. Returns 1 when the
 * lane walks on, 0 when it retires, -1 for a bad lane or edge.
 */
static inline int scatter_lane(const Walk *w, i64 lane, i64 v, i64 j,
                               i64 iteration)
{
    i64 pos = edge_pos(w, v, j);
    if (lane < 0 || lane >= w->num || pos < 0) return -1;
    i64 next = w->nbr[pos], s_next = w->cand_sizes[pos];
    if (w->hop_vertex != NULL) {
        w->hop_vertex[lane * w->stride + iteration] = next;
        w->hop_time[lane * w->stride + iteration] = w->etime[pos];
    }
    w->prev[lane] = v;
    w->cur[lane] = next;
    w->s[lane] = s_next;
    i64 left = --w->steps_left[lane];
    return s_next > 0 && left > 0;
}

static inline int bad_column(const Walk *w, i64 iteration)
{
    return w->hop_vertex != NULL && (iteration < 0 || iteration >= w->stride);
}

/* Is q a static-adjacency key? Lower bound over the sorted keys; a probed
 * key outside what its predecessors allow (unsorted, or outside
 * [0, span^2)) returns -1.
 */
static inline int static_member(const Lanes *x, i64 q)
{
    i64 lo = 0, hi = x->n_static, below = 0, above = x->span * x->span - 1;
    while (lo < hi) {
        i64 mid = lo + ((hi - lo) >> 1), k = x->static_keys[mid];
        if (k < below || k > above) return -1;
        if (k < q) { lo = mid + 1; below = k; } else { hi = mid; above = k; }
    }
    return lo < x->n_static && x->static_keys[lo] == q;
}

/* Pass 1 of the three-pass ABI: select over pre-drawn u[]. Compacts the
 * rows with level > 0 into deep[]; returns their number.
 */
i64 hop_select(i64 n, const i64 *vs, const i64 *ss, const double *u,
               i64 V, const i64 *indptr, i64 c_len, const double *c,
               i64 *level, i64 *out, i64 *deep, i64 *probes)
{
    const Totals t = {V, indptr, c_len, c};
    i64 n_deep = 0, n_probes = 0;
    for (i64 i = 0; i < n; i++) {
        int lvl = select_lane(&t, vs[i], ss[i], u[i], &out[i], &n_probes);
        if (lvl < 0) BAD(i);
        level[i] = lvl;
        if (lvl) deep[n_deep++] = i;
    }
    *probes = n_probes;
    return n_deep;
}

/* Pass 2: alias for the deep rows, out[row] += in-trunk pick. Returns 0. */
i64 hop_alias(i64 n_deep, const i64 *deep, i64 n, const i64 *vs,
              const i64 *level, i64 *out,
              const double *u_cell, const double *u_take,
              i64 V, const i64 *lvl_base, i64 ptr_len, const i64 *lvl_ptr,
              i64 tab_len, const double *prob, const i32 *alias)
{
    const Tables a = {V, lvl_base, ptr_len, lvl_ptr, tab_len, prob, alias};
    for (i64 j = 0; j < n_deep; j++) {
        i64 i = deep[j];
        if (i < 0 || i >= n) BAD(j);
        i64 pick = alias_lane(&a, vs[i], level[i], out[i], u_cell[j], u_take[j]);
        if (pick < 0) BAD(j);
        out[i] = pick;
    }
    return 0;
}

/* Pass 3: scatter, compacting the surviving lanes to the front of
 * lanes[]. Returns the survivor count.
 */
i64 hop_scatter(i64 n, i64 *lanes, const i64 *vs, const i64 *idx,
                i64 V, const i64 *indptr, i64 E, const i64 *nbr,
                const double *etime, const i64 *cand_sizes,
                i64 num, i64 *cur, i64 *prev, i64 *s, i64 *steps_left,
                i64 stride, i64 iteration, i64 *hop_vertex, double *hop_time)
{
    const Walk w = {V, indptr, E, nbr, etime, cand_sizes, num, cur, prev, s,
                    steps_left, stride, hop_vertex, hop_time};
    if (bad_column(&w, iteration)) BAD(0);
    i64 alive = 0;
    for (i64 i = 0; i < n; i++) {
        int on = scatter_lane(&w, lanes[i], vs[i], idx[i], iteration);
        if (on < 0) BAD(i);
        if (on) lanes[alive++] = lanes[i];
    }
    return alive;
}

/* A whole lane-keyed hop: per lane, optional stop draw, then draw an edge
 * (select, alias when deep) and — under node2vec — accept it with
 * probability beta/beta_max or draw again, at most x->rounds times; then
 * scatter. Survivors are compacted to the front of lanes[]; lanes that
 * spent the rejection budget are left untouched (counter advanced) for
 * the exact fallback, listed from out[6]; out[0..5] = steps, probes, alias
 * draws, rejection trials, rejected, lanes listed. Returns the survivor
 * count.
 */
i64 hop_lanes(const Lanes *x, i64 n, i64 *lanes, i64 iteration, i64 *out)
{
    const Walk *w = &x->w;
    const int beta = x->rounds >= 0;
    i64 *exhausted = out + 6;
    i64 alive = 0, steps = 0, probes = 0, deep = 0, trials = 0, rejected = 0,
        spent = 0;
    if (bad_column(w, iteration) || n > w->num) BAD(0); /* lanes are distinct */
    if (x->span > (i64)1 << 31) BAD(0); /* span^2 must fit an i64 */
    for (i64 i = 0; i < n; i++) {
        i64 lane = lanes[i];
        if (lane < 0 || lane >= w->num || lane >= x->n_keys) BAD(i);
        u64 key = x->key[lane], *ctr = &x->ctr[lane];
        if (x->stop != 0.0 && !(lane_uniform(key, ctr) >= x->stop)) continue;
        steps++;
        i64 v = w->cur[lane], s = w->s[lane], pv = w->prev[lane], j = -1;
        if (beta && (pv < -1 || pv >= x->span)) BAD(i);
        for (i64 round = 0; !beta || round < x->rounds; round++) {
            i64 off;
            int lvl = select_lane(&x->t, v, s, lane_uniform(key, ctr), &off,
                                  &probes);
            if (lvl < 0) BAD(i);
            if (lvl) {
                double u_cell = lane_uniform(key, ctr);
                double u_take = lane_uniform(key, ctr);
                if ((off = alias_lane(&x->a, v, lvl, off, u_cell, u_take)) < 0)
                    BAD(i);
                deep++;
            }
            double b = x->beta_max; /* no previous vertex: accept */
            if (beta && pv >= 0) {
                i64 pos = edge_pos(w, v, off);
                if (pos < 0) BAD(i);
                i64 cand = w->nbr[pos];
                if (cand < 0 || cand >= x->span) BAD(i);
                if (cand == pv) {
                    b = x->inv_p;
                } else {
                    int member = static_member(x, cand + pv * x->span);
                    if (member < 0) BAD(i);
                    b = member ? 1.0 : x->inv_q;
                }
            }
            trials += beta;
            if (!beta || lane_uniform(key, ctr) * x->beta_max <= b) {
                j = off;
                break;
            }
            rejected++;
        }
        if (j < 0) { exhausted[spent++] = lane; continue; }
        int on = scatter_lane(w, lane, v, j, iteration);
        if (on < 0) BAD(i);
        if (on) lanes[alive++] = lane;
    }
    out[0] = steps; out[1] = probes; out[2] = deep;
    out[3] = trials; out[4] = rejected; out[5] = spent;
    return alive;
}

/* ---- The out-of-core PAT draw (engines/tea_outofcore/batch.py) ----------
 * The index is the resident side of an OutOfCorePAT: CSR offsets, per-vertex
 * trunk sizes, and the trunk-boundary prefix sums tr_prefix (vertex v's
 * boundaries 0, C[ts], C[2ts], ..., C[d] at tr_indptr[v] ..). The payload
 * trunks come from the trunk store: from TrunkStore.read_batch between
 * ooc_plan, ooc_select and ooc_alias (Python owns every read), or from the
 * frame pool and the mapped files inside ooc_step. The per-lane steps —
 * plan, select, alias — exist once, as the static helpers here.
 */
typedef struct {
    i64 V; const i64 *indptr; const i64 *trunk_sizes; const i64 *tr_indptr;
    i64 tr_len; const double *tr_prefix;
} Trunks;

/* 0 <= v < V and 1 <= s <= deg(v) (OutOfCorePAT.check_lanes), with a
 * trunk size >= 1 and boundary `full` inside v's tr_prefix segment.
 * Sets ts, full = s / ts and tb = v's first boundary; 0, or -1.
 */
static inline int ooc_lane(const Trunks *x, i64 v, i64 s, i64 *ts, i64 *full,
                           i64 *tb)
{
    if (v < 0 || v >= x->V) return -1;
    i64 lo = x->indptr[v], hi = x->indptr[v + 1];
    if (hi < lo || s < 1 || s > hi - lo) return -1;
    *ts = x->trunk_sizes[v];
    if (*ts < 1) return -1;
    *full = s / *ts;
    *tb = x->tr_indptr[v];
    i64 end = x->tr_indptr[v + 1];
    if (*tb < 0 || end > x->tr_len || *tb + *full >= end) return -1;
    return 0;
}

/* plan: check the lane (ooc_lane, which sets *ts, *full and *tb); a ragged
 * lane (s not a multiple of ts) gets its C-slice trunk [*c_lo, *c_lo +
 * *c_len) (OutOfCorePAT.c_trunks). Returns 1 for a ragged lane, 0 for an
 * aligned one, -1 for a bad one.
 */
static inline int plan_lane(const Trunks *x, i64 v, i64 s, i64 *ts, i64 *full,
                            i64 *tb, i64 *c_lo, i64 *c_len)
{
    if (ooc_lane(x, v, s, ts, full, tb)) return -1;
    if (s == *full * *ts) return 0;
    i64 deg = x->indptr[v + 1] - x->indptr[v], start = *full * *ts;
    i64 end = start + *ts < deg ? start + *ts : deg;
    *c_lo = x->indptr[v] + v + start;
    *c_len = end - start + 1;
    return 1;
}

/* select: the candidate total is the resident boundary tr_prefix[full], or —
 * for a ragged lane — entry rem of its C-slice row (row[0 .. rem] in
 * bounds); u gives r = total - u*total. A lane with r <= tr_prefix[full]
 * bisects the boundaries in lockstep (one probe per halving: the numpy
 * lockstep's count) and is deep: *out = trunk * ts, its alias trunk starting
 * at *pa_lo. Any other lane compare-counts its row up to rem (*out final;
 * ceil(log2(max(rem, 2))) + 1 probes). Returns 1 (deep), 0, or -1 (r past
 * every boundary: NaN weights).
 */
static inline int select_ooc_lane(const Trunks *x, i64 v, i64 ts, i64 full,
                                  i64 tb, i64 rem, const double *row, double u,
                                  i64 *out, i64 *pa_lo, i64 *probes)
{
    double full_weight = x->tr_prefix[tb + full];
    double total = rem ? row[rem] : full_weight;
    double scaled = u * total;
    double r = total - scaled;
    if (full > 0 && r <= full_weight) {
        i64 lo = 0, hi = full;
        while (hi - lo > 1) {
            i64 mid = (lo + hi) / 2;
            ++*probes;
            if (x->tr_prefix[tb + mid] < r) lo = mid; else hi = mid;
        }
        *out = lo * ts;
        *pa_lo = x->indptr[v] + lo * ts;
        return 1;
    }
    if (!rem) return -1;
    i64 below = 0;
    for (i64 k = 0; k <= rem; k++) below += row[k] < r;
    *out = full * ts + below - 1;
    *probes += 1 + (rem <= 2 ? 1 : top_bit(rem - 1) + 1);
    return 0;
}

/* alias: two uniforms pick a cell of a width-w trunk whose prob row and
 * alias row (the alias offsets' int64 bits) hold `cells` entries. Returns
 * the in-trunk pick, or -1.
 */
static inline i64 alias_ooc_lane(i64 w, i64 cells, const double *prob,
                                 const double *alias, double u_cell,
                                 double u_take)
{
    i64 cell = (i64)(u_cell * (double)w);
    if (cell > w - 1) cell = w - 1;
    if (cell < 0 || cell >= cells) return -1;
    i64 pick = cell;
    if (!(u_take < prob[cell])) {
        memcpy(&pick, alias + cell, sizeof pick);
        if (pick < 0 || pick >= w) return -1;
    }
    return pick;
}

/* Lane checking and read planning: every lane is checked; the ragged ones
 * are listed in rows[] with their C-slice trunk [c_lo, c_hi). counts[0] =
 * ragged lanes. Returns 0.
 */
i64 ooc_plan(i64 V, const i64 *indptr, const i64 *trunk_sizes,
             const i64 *tr_indptr, i64 tr_len, const double *tr_prefix,
             i64 n, const i64 *vs, const i64 *ss,
             i64 *rows, i64 *c_lo, i64 *c_hi, i64 *counts)
{
    const Trunks x = {V, indptr, trunk_sizes, tr_indptr, tr_len, tr_prefix};
    i64 n_rows = 0, len, ts, full, tb;
    for (i64 i = 0; i < n; i++) {
        int ragged = plan_lane(&x, vs[i], ss[i], &ts, &full, &tb, &c_lo[n_rows],
                               &len);
        if (ragged < 0) BAD(i);
        if (ragged) {
            rows[n_rows] = i;
            c_hi[n_rows] = c_lo[n_rows] + len;
            n_rows++;
        }
    }
    counts[0] = n_rows;
    return 0;
}

/* Each lane's draw up to its alias trunk (select_ooc_lane on the lane's
 * next uniform); the j-th ragged lane's C-slice row is row c_row[j] of the
 * (c_rows, c_width) payload. Deep lanes are listed in deep[] with their
 * alias trunk [pa_lo, pa_hi). counts[0..1] = deep lanes, probes. Returns 0.
 */
i64 ooc_select(i64 V, const i64 *indptr, const i64 *trunk_sizes,
               const i64 *tr_indptr, i64 tr_len, const double *tr_prefix,
               i64 n, const i64 *vs, const i64 *ss, const i64 *lanes,
               i64 n_keys, const u64 *key, u64 *ctr,
               i64 n_ragged, const i64 *c_row, i64 c_rows, i64 c_width,
               const double *c, i64 *out, i64 *deep, i64 *pa_lo, i64 *pa_hi,
               i64 *counts)
{
    const Trunks x = {V, indptr, trunk_sizes, tr_indptr, tr_len, tr_prefix};
    i64 n_deep = 0, probes = 0, j = 0;
    for (i64 i = 0; i < n; i++) {
        i64 v = vs[i], s = ss[i], lane = lanes[i], ts, full, tb, at;
        if (ooc_lane(&x, v, s, &ts, &full, &tb)) BAD(i);
        if (lane < 0 || lane >= n_keys) BAD(i);
        i64 rem = s - full * ts;
        const double *row = NULL;
        if (rem) {
            if (j >= n_ragged) BAD(i);
            i64 r_at = c_row[j++];
            if (r_at < 0 || r_at >= c_rows || rem >= c_width) BAD(i);
            row = c + r_at * c_width;
        }
        int got = select_ooc_lane(&x, v, ts, full, tb, rem, row,
                                  lane_uniform(key[lane], &ctr[lane]), &out[i],
                                  &at, &probes);
        if (got < 0) BAD(i);
        if (got) {
            pa_lo[n_deep] = at;
            pa_hi[n_deep] = at + ts;
            deep[n_deep++] = i;
        }
    }
    counts[0] = n_deep; counts[1] = probes;
    return 0;
}

/* The in-trunk alias draw of deep row j (alias_ooc_lane on two uniforms
 * from its lane's stream) over trunk t_row[j] of the (t_rows, 2, t_width)
 * "pa" payload — plane 0 prob, plane 1 the alias offsets' int64 bits — and
 * out[deep[j]] += the pick. Returns 0.
 */
i64 ooc_alias(i64 V, const i64 *trunk_sizes, i64 n_deep, const i64 *deep,
              i64 n, const i64 *vs, const i64 *lanes,
              i64 n_keys, const u64 *key, u64 *ctr,
              const i64 *t_row, i64 t_rows, i64 t_width, const double *tables,
              i64 *out)
{
    for (i64 j = 0; j < n_deep; j++) {
        i64 i = deep[j];
        if (i < 0 || i >= n) BAD(j);
        i64 v = vs[i], lane = lanes[i], at = t_row[j];
        if (v < 0 || v >= V || lane < 0 || lane >= n_keys) BAD(j);
        if (at < 0 || at >= t_rows) BAD(j);
        double u_cell = lane_uniform(key[lane], &ctr[lane]);
        double u_take = lane_uniform(key[lane], &ctr[lane]);
        const double *prob = tables + at * 2 * t_width;
        i64 pick = alias_ooc_lane(trunk_sizes[v], t_width, prob, prob + t_width,
                                  u_cell, u_take);
        if (pick < 0) BAD(j);
        out[i] += pick;
    }
    return 0;
}

/* ---- The frame pool's read and admit passes (core/frame_pool.py) --------
 * FramePool's columns, written in place: the (frames, width) slab, per-frame
 * key, logical length in bytes, recency stamp and protected flag (numpy
 * bool, one byte), and the key index — the resident keys ascending, with
 * their frames — of which the first `used` entries are live. `used` and the
 * stamp clock travel in io[0..1] and come back updated. FramePool.touch and
 * FramePool.admit are the specification; TrunkStore.read_batch drives both
 * through pool_read / pool_admit, and ooc_step runs the same two helpers,
 * pool_lookup and pool_admission.
 * A key is (lo << 20 | len) << 2 | file tag (TrunkStore.frame_keys).
 */
typedef struct {
    i64 frames, width, protected_frames;
    double *slab; i64 *key, *length, *stamp; unsigned char *guard;
    i64 *index_keys, *index_frames;
} Pool;

/* What lookups and admissions did to CacheStats: hits, misses, bytes
 * served, promotions and their bytes; bytes in, evictions (victims and
 * turned-away frames) and their bytes. */
typedef struct {
    i64 hits, misses, served, promoted, promoted_bytes, bytes_in, evicted,
        evicted_bytes;
} Ledger;

#define KEY_LEN_BITS 20

static inline i64 frame_key(i64 lo, i64 len, i64 tag)
{
    return (lo << KEY_LEN_BITS | len) << 2 | tag;
}

/* Frame of key, -1 when absent, -2 for an index entry outside [0, used).
 * Keys are looked up in ascending order: *from is where the last one
 * landed, and the search gallops forward from it. */
static inline i64 pool_find(const Pool *p, i64 used, i64 key, i64 *from)
{
    const i64 *keys = p->index_keys;
    i64 lo = *from, hi = lo, step = 1;
    while (hi < used && keys[hi] < key) {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    if (hi > used) hi = used;
    while (lo < hi) {
        i64 mid = lo + ((hi - lo) >> 1);
        if (keys[mid] < key) lo = mid + 1; else hi = mid;
    }
    *from = lo;
    if (lo == used || keys[lo] != key) return -1;
    i64 frame = p->index_frames[lo];
    return frame >= 0 && frame < used ? frame : -2;
}

static inline void heap_down(const i64 *stamp, i64 *h, i64 n, i64 at)
{
    for (;;) {
        i64 big = at, l = 2 * at + 1, r = l + 1;
        if (l < n && stamp[h[l]] > stamp[h[big]]) big = l;
        if (r < n && stamp[h[r]] > stamp[h[big]]) big = r;
        if (big == at) return;
        i64 t = h[at]; h[at] = h[big]; h[big] = t;
        at = big;
    }
}

/* Stable LSD radix sort of n (key, row) pairs, keys in [0, max_key]: as
 * few passes of at most 11 bits as cover max_key, split evenly; a pass
 * whose digit is the same for every key is skipped. a and b hold 2n
 * entries each (keys, then rows); returns the one that holds the result.
 */
static i64 *radix_pairs(i64 n, i64 *a, i64 *b, i64 max_key)
{
    i64 count[2048];
    if (n < 2 || max_key < 1) return a;
    int bits = 64 - __builtin_clzll((u64)max_key), passes = (bits + 10) / 11;
    int digit = (bits + passes - 1) / passes;
    i64 mask = ((i64)1 << digit) - 1;
    for (int shift = 0; shift < bits; shift += digit) {
        memset(count, 0, (mask + 1) * sizeof *count);
        for (i64 i = 0; i < n; i++) count[(a[i] >> shift) & mask]++;
        if (count[(a[0] >> shift) & mask] == n) continue;
        for (i64 d = 0, at = 0; d <= mask; d++) {
            i64 c = count[d];
            count[d] = at;
            at += c;
        }
        for (i64 i = 0; i < n; i++) {
            i64 to = count[(a[i] >> shift) & mask]++;
            b[to] = a[i];
            b[n + to] = a[n + i];
        }
        i64 *t = a; a = b; b = t;
    }
    return a;
}

/* The distinct values of a[0..n), n >= 1, each >= 0, in first-seen order
 * into dist[]; ids[i] is a[i]'s index among them. Open addressing over the
 * 2^k >= 2n slots of table (2^(k+1) entries, cleared here): a step's
 * repeated ranges are folded before anything is sorted. Returns their
 * number.
 */
static i64 distinct(i64 n, const i64 *a, i64 *ids, i64 *dist, i64 *table)
{
    const int k = top_bit(2 * n - 1) + 1;
    const u64 mask = ((u64)1 << k) - 1;
    i64 d = 0;
    memset(table, -1, sizeof *table << (k + 1));
    for (i64 i = 0; i < n; i++) {
        u64 h = (u64)a[i] * 0x9E3779B97F4A7C15ULL >> (64 - k);
        while (table[2 * h] >= 0 && table[2 * h] != a[i]) h = (h + 1) & mask;
        if (table[2 * h] < 0) {
            table[2 * h] = a[i];
            table[2 * h + 1] = d;
            dist[d++] = a[i];
        }
        ids[i] = table[2 * h + 1];
    }
    return d;
}

/* The k least recently stamped frames of [0, used) whose protected flag
 * is `guarded`, ascending by stamp (stamps of resident frames are
 * distinct): *got of them — k, or every such frame when there are fewer —
 * at the returned pointer into scratch (4 * used entries). A few of many
 * are kept in a max-heap while scanning, then heap-sorted; more are
 * radix-sorted.
 */
static const i64 *pool_oldest(const Pool *p, i64 used, int guarded, i64 k,
                              i64 *scratch, i64 *got)
{
    const i64 *stamp = p->stamp;
    i64 m = 0, j = 0, newest = 0;
    for (i64 f = 0; f < used; f++) m += p->guard[f] == guarded;
    *got = k = k < m ? k : m;
    if (k <= 0) return scratch;
    if (k * 16 < m) {
        i64 *h = scratch;
        for (i64 f = 0; f < used; f++) {
            if (p->guard[f] != guarded) continue;
            if (j < k) {
                i64 at = j++;
                h[at] = f;
                while (at && stamp[h[(at - 1) / 2]] < stamp[h[at]]) {
                    i64 up = (at - 1) / 2, t = h[up];
                    h[up] = h[at]; h[at] = t; at = up;
                }
            } else if (stamp[f] < stamp[h[0]]) {
                h[0] = f;
                heap_down(stamp, h, k, 0);
            }
        }
        for (i64 end = k - 1; end > 0; end--) {
            i64 t = h[0]; h[0] = h[end]; h[end] = t;
            heap_down(stamp, h, end, 0);
        }
        return h;
    }
    i64 *a = scratch;
    for (i64 f = 0; f < used; f++) {
        if (p->guard[f] != guarded) continue;
        a[j] = stamp[f];
        a[m + j++] = f;
        if (stamp[f] > newest) newest = stamp[f];
    }
    return radix_pairs(m, a, a + 2 * m, newest) + m;
}

static inline int pool_bad(const Pool *p, const i64 *io)
{
    return p->frames < 0 || p->width < 0 || io[0] < 0 || io[0] > p->frames
        || io[1] < 0;
}

/* The distinct rows of one step's n >= 1 ranges [los[i], los[i] + lens[i])
 * of a region of `size` elements stored in `files` files (frame tags tag,
 * tag + 1, ...), the pool untouched: checks every range (0 <= lo, 1 <= len
 * <= widest < 2^20, lo + len <= size), dedupes them (distinct, then
 * radix-sorted: ascending, np.unique's order) and sets inverse[i] to range
 * i's row. *sorted gets the rows, each lo << *bits | len, in scratch (10n
 * entries). Returns the row count, or -1 - bad range.
 */
static i64 pool_rows(i64 n, const i64 *los, const i64 *lens, i64 size,
                     i64 files, i64 tag, i64 widest, i64 *inverse,
                     i64 *scratch, const i64 **sorted, int *bits)
{
    i64 max_key = 0;
    if (files < 1 || files > 2 || tag < 0 || tag > 1 || size < 0
        || size > (i64)1 << 40 || widest < 1
        || widest >= (i64)1 << KEY_LEN_BITS)
        BAD(0);
    /* sort on lo << bits | len: len <= widest < 2^bits, fewer digits */
    *bits = 64 - __builtin_clzll((u64)widest);
    for (i64 i = 0; i < n; i++) {
        i64 lo = los[i], len = lens[i];
        if (lo < 0 || len < 1 || len > widest || lo > size - len) BAD(i);
        inverse[i] = lo << *bits | len;
        if (inverse[i] > max_key) max_key = inverse[i];
    }
    i64 *ids = scratch, *dist = scratch + n, *table = scratch + 2 * n;
    i64 d = distinct(n, inverse, ids, dist, table);
    i64 *a = table, *b = table + 2 * d; /* the table is spent */
    for (i64 r = 0; r < d; r++) {
        a[r] = dist[r];
        a[d + r] = r;
    }
    *sorted = radix_pairs(d, a, b, max_key);
    i64 *rank = *sorted == a ? b : a;
    for (i64 r = 0; r < d; r++) rank[(*sorted)[d + r]] = r;
    for (i64 i = 0; i < n; i++) inverse[i] = rank[ids[i]];
    return d;
}

/* FramePool.touch over pool_rows' d rows of a step's n ranges: their frame
 * keys in row-major (row, file) order — a range wider than the frame width
 * is looked up as a miss. cols is (8, n): range i's row (pool_rows'
 * inverse), then per row its length, its lo, its files' frames (-1:
 * absent; two columns), then the rows not wholly resident (the misses,
 * ascending), their lo and their len. scratch holds 4 * frames entries,
 * written after the last read of sorted. Returns d (*n_miss of the rows
 * missed), or -1 - bad row.
 */
static i64 pool_touch(const Pool *p, i64 *io, i64 d, const i64 *sorted,
                      int bits, i64 n, i64 files, i64 tag, i64 *cols,
                      i64 *scratch, i64 *n_miss, Ledger *led)
{
    i64 used = io[0], clock = io[1];
    const i64 low = ((i64)1 << bits) - 1;
    i64 *row_len = cols + n, *row_lo = cols + 2 * n, *frames = cols + 3 * n,
        *miss = cols + 5 * n, *miss_lo = cols + 6 * n, *miss_len = cols + 7 * n;
    i64 m = 0, hits = 0, promoted = 0, from = 0;
    for (i64 r = 0; r < d; r++) {
        i64 lo = sorted[r] >> bits, len = sorted[r] & low;
        i64 key = frame_key(lo, len, tag);
        int whole = 1;
        row_lo[r] = lo;
        row_len[r] = len;
        for (i64 f = 0; f < files; f++) {
            i64 frame = len <= p->width ? pool_find(p, used, key + f, &from) : -1;
            if (frame < -1) BAD(r);
            frames[r * files + f] = frame;
            if (frame < 0) { whole = 0; continue; }
            hits++;
            led->served += p->length[frame];
            p->stamp[frame] = ++clock;
            if (!p->guard[frame]) {
                p->guard[frame] = 1;
                promoted++;
                led->promoted_bytes += p->length[frame];
            }
        }
        if (!whole) {
            miss[m] = r;
            miss_lo[m] = lo;
            miss_len[m++] = len;
        }
    }
    if (promoted) { /* protected overflow: demote its oldest, oldest first */
        i64 guarded = 0, k;
        for (i64 f = 0; f < used; f++) guarded += p->guard[f];
        const i64 *old = pool_oldest(p, used, 1, guarded - p->protected_frames,
                                     scratch, &k);
        for (i64 j = 0; j < k; j++) {
            p->guard[old[j]] = 0;
            p->stamp[old[j]] = ++clock;
        }
    }
    io[1] = clock;
    led->hits += hits;
    led->misses += d * files - hits;
    led->promoted += promoted;
    *n_miss = m;
    return d;
}

/* pool_rows, then pool_touch: one step's lookup. cols is (8, n), as
 * pool_touch fills it; scratch holds max(10n, 4 * frames). Returns the
 * distinct rows (*n_miss of them misses), or -1 - bad range.
 */
static i64 pool_lookup(const Pool *p, i64 *io, i64 n, const i64 *los,
                       const i64 *lens, i64 size, i64 files, i64 tag,
                       i64 widest, i64 *cols, i64 *scratch, i64 *n_miss,
                       Ledger *led)
{
    const i64 *sorted;
    int bits;
    i64 d = pool_rows(n, los, lens, size, files, tag, widest, cols, scratch,
                      &sorted, &bits);
    if (d < 0) return d;
    return pool_touch(p, io, d, sorted, bits, n, files, tag, cols, scratch,
                      n_miss, led);
}

/* FramePool.admit for m rows (ascending, distinct) of `files` files whose
 * file f holds lens[j] elements at src[f] + (off ? off[j] : j * stride):
 * every file's frame of a row no wider than the frame width, except keys
 * already resident. Victims are the oldest probation frames, taken oldest
 * first after the free frames; when they run out the earliest rows are
 * turned away, every file of a row together (accounted as admitted, then
 * evicted). The key index is updated by one merge from its end. scratch
 * holds m * files + 4 * frames. Returns 0, or -1 - bad row.
 */
static i64 pool_admission(const Pool *p, i64 *io, i64 m, const i64 *los,
                          const i64 *lens, i64 files, i64 tag,
                          const double *const *src, const i64 *off,
                          i64 stride, i64 *scratch, Ledger *led)
{
    i64 used = io[0], clock = io[1], prev = -1, n_new = 0, from = 0;
    if (!p->frames) return 0;
    i64 *fresh = scratch, *keys = p->index_keys, *frames = p->index_frames;
    for (i64 j = 0; j < m; j++) {
        i64 lo = los[j], len = lens[j];
        if (lo < 0 || lo >= (i64)1 << 40 || len < 1
            || len >= (i64)1 << KEY_LEN_BITS)
            BAD(j);
        i64 key = frame_key(lo, len, tag);
        if (key <= prev) BAD(j); /* ascending and distinct */
        prev = key;
        if (len > p->width) continue;
        for (i64 f = 0; f < files; f++) {
            i64 frame = pool_find(p, used, key + f, &from);
            if (frame < -1) BAD(j);
            if (frame < 0) fresh[n_new++] = j * files + f;
        }
    }
    i64 room = p->frames - used, probation = 0, turned = 0, v;
    for (i64 f = 0; f < used; f++) probation += !p->guard[f];
    while (n_new - turned > room + probation) { /* whole rows */
        i64 j = fresh[turned] / files;
        while (turned < n_new && fresh[turned] / files == j) turned++;
    }
    i64 take = n_new - turned, free = take < room ? take : room;
    const i64 *victims = pool_oldest(p, used, 0, take - free,
                                     scratch + m * files, &v);
    i64 gone_bytes = 0;
    for (i64 t = 0; t < n_new; t++) {
        i64 nbytes = lens[fresh[t] / files] * 8;
        led->bytes_in += nbytes;
        if (t < turned) gone_bytes += nbytes;
    }
    for (i64 t = 0; t < v; t++) gone_bytes += p->length[victims[t]];
    led->evicted += v + turned;
    led->evicted_bytes += gone_bytes;
    if (!take) return 0;
    i64 kept = used;
    if (v) { /* drop the victims' index entries: flag them, compact */
        for (i64 t = 0; t < v; t++) p->guard[victims[t]] = 2;
        kept = 0;
        for (i64 i = 0; i < used; i++) {
            if (frames[i] < 0 || frames[i] >= used) BAD(0);
            if (p->guard[frames[i]] == 2) continue;
            keys[kept] = keys[i];
            frames[kept++] = frames[i];
        }
        if (kept != used - v) BAD(0);
    }
    i64 i = kept - 1, out = kept + take - 1; /* merge the newcomers in */
    for (i64 t = take - 1; t >= 0; t--) {
        i64 e = fresh[turned + t], j = e / files;
        i64 key = frame_key(los[j], lens[j], tag + e % files);
        while (i >= 0 && keys[i] > key) {
            keys[out] = keys[i];
            frames[out--] = frames[i--];
        }
        keys[out] = key;
        frames[out--] = t < free ? used + t : victims[t - free];
    }
    for (i64 t = 0; t < take; t++) {
        i64 e = fresh[turned + t], j = e / files;
        i64 slot = t < free ? used + t : victims[t - free];
        memcpy(p->slab + slot * p->width,
               src[e % files] + (off ? off[j] : j * stride),
               lens[j] * sizeof(double));
        p->key[slot] = frame_key(los[j], lens[j], tag + e % files);
        p->length[slot] = lens[j] * 8;
        p->stamp[slot] = ++clock;
        p->guard[slot] = 0;
    }
    io[0] = used + free; io[1] = clock;
    return 0;
}

/* pool_lookup of n ranges, then the wholly resident rows' frames copied
 * into payload (n, files, widest). cols is (8, n), as pool_lookup fills it;
 * scratch holds max(10n, 4 * frames). io[2..8] = distinct rows, misses,
 * hits, missed lookups, bytes served, promotions, promoted bytes.
 * Returns 0.
 */
i64 pool_read(const Pool *p, i64 n, const i64 *los, const i64 *lens, i64 size,
              i64 files, i64 tag, i64 widest, double *payload, i64 *cols,
              i64 *scratch, i64 *io)
{
    Ledger led = {0};
    i64 m = 0;
    if (pool_bad(p, io) || n < 1) BAD(0);
    i64 d = pool_lookup(p, io, n, los, lens, size, files, tag, widest, cols,
                        scratch, &m, &led);
    if (d < 0) return d;
    const i64 *frames = cols + 3 * n, *miss = cols + 5 * n;
    i64 span = widest < p->width ? widest : p->width;
    for (i64 r = 0, j = 0; r < d; r++) {
        if (j < m && miss[j] == r) { j++; continue; }
        for (i64 f = 0; f < files; f++)
            memcpy(payload + (r * files + f) * widest,
                   p->slab + frames[r * files + f] * p->width,
                   span * sizeof(double));
    }
    io[2] = d; io[3] = m; io[4] = led.hits; io[5] = led.misses;
    io[6] = led.served; io[7] = led.promoted; io[8] = led.promoted_bytes;
    return 0;
}

/* pool_admission of the m miss rows pool_read returned, from their (m,
 * files, sw) staging rows. io[2..4] = bytes in, evictions, bytes evicted.
 * Returns 0.
 */
i64 pool_admit(const Pool *p, i64 m, const i64 *los, const i64 *lens,
               i64 files, i64 tag, i64 sw, const double *staging,
               i64 *scratch, i64 *io)
{
    Ledger led = {0};
    if (pool_bad(p, io) || files < 1 || files > 2 || tag < 0 || tag > 1)
        BAD(0);
    for (i64 j = 0; j < m; j++)
        if (lens[j] > sw) BAD(j);
    const double *src[2] = {staging, staging + sw};
    i64 code = pool_admission(p, io, m, los, lens, files, tag, src, NULL,
                              files * sw, scratch, &led);
    io[2] = led.bytes_in; io[3] = led.evicted; io[4] = led.evicted_bytes;
    return code;
}

/* ---- One out-of-core frontier iteration (engines/tea_outofcore) ---------
 * What the drivers, ooc_plan / ooc_select / ooc_alias and two
 * TrunkStore.read_batch calls do for one iteration of a lane-keyed run
 * without beta, over a store read without fault injection or checksum
 * verification, in one call: per lane the stop draw, then the plan (every
 * lane checked before any read); the "c" lookup; select, reading a hit's
 * C-slice row in its pool frame and a miss's straight from the mapped
 * c.bin; the "c" misses' backing runs (coalesce_runs) and their admission
 * from the map; the "pa" lookup; the alias draw from the frames or from
 * prob.bin / alias.bin; the "pa" runs and admission; scatter. The pool sees
 * the sequence path's lookups and admissions in its order, so its columns,
 * index and statistics come out the same; a hit's frame is read before the
 * admission that could reuse it.
 *
 * The four per-lane passes (stop draws and plan, select, alias, scatter)
 * run on up to `threads` threads: the calling thread and helpers created
 * for the call and joined before it returns. The lanes are cut into
 * RANGES_PER_THREAD ranges of consecutive lanes a thread, claimed one at a
 * time by whichever thread is free (≈2 % faster end to end than one range
 * a thread; a helper the system refused leaves its ranges to the others);
 * a range compacts its survivors, its ragged lanes' "c" ranges and its deep
 * lanes' "pa" ranges into its own segment, and the calling thread joins the
 * segments in range order, so the pool passes see the inline step's input.
 * The pool passes stay on the calling thread; the scatter pass runs beside
 * the "pa" admission, which touches nothing it reads. A bad lane reports
 * the inline step's row: the first pass that found one, its first range.
 * Helpers allocate nothing and touch no Python object.
 */
typedef struct {
    Trunks x; Walk w;
    i64 n_keys; const u64 *key; u64 *ctr;
    double stop;
    const Pool *p;
    i64 c_size; const double *c;          /* c.bin */
    i64 pa_size; const double *prob;      /* prob.bin */
    const double *alias;                  /* alias.bin, int64 offsets */
    i64 widest;                           /* longest range: max trunk + 1 */
    i64 cap;                              /* lanes the columns hold */
    i64 *cols;                            /* 17 * cap */
    i64 *scratch;                         /* 11 * cap + 4 * frames */
    i64 buckets[2]; const double *bounds[2]; /* the byte histograms */
    i64 block;                            /* bytes per I/O block */
} Step;

#define MAX_BUCKETS 32

/* Histogram.observe of a step's backing runs, or its trunk loads, in
 * bytes, folded (TrunkStore.account): how many, their sum and whole
 * blocks, how many are <= 0, the least and the greatest, and per bucket
 * (bisect_left over the bounds) how many. */
typedef struct {
    i64 count, total, blocks, zero, least, most, counts[MAX_BUCKETS + 1];
} Tally;

static void tally(Tally *t, const Step *z, int hist, i64 bytes)
{
    const double *bounds = z->bounds[hist];
    i64 k = 0;
    if (!t->count || bytes < t->least) t->least = bytes;
    if (!t->count || bytes > t->most) t->most = bytes;
    t->count++;
    t->total += bytes;
    t->blocks += (bytes + z->block - 1) / z->block;
    if (bytes <= 0) { t->zero++; return; }
    while (k < z->buckets[hist] && bounds[k] < (double)bytes) k++;
    t->counts[k]++;
}

#define MAX_THREADS 32
#define RANGES_PER_THREAD 4
#define SPIN_NS 100000
#if defined(__x86_64__) || defined(__i386__)
#define CPU_RELAX() __builtin_ia32_pause()
#else
#define CPU_RELAX() ((void)0)
#endif

enum { PASS_PLAN, PASS_SELECT, PASS_PRESORT, PASS_ALIAS, PASS_SCATTER,
       PASS_EXIT };

/* Consecutive input lanes [a, b). Each pass leaves its output in the
 * range's own segment, starting at column position a; the join moves it
 * after the earlier ranges' (its offset in the joined step: at, c_at,
 * deep_at). */
typedef struct {
    i64 a, b, m, at;          /* survivors of the stop draws, lanes[a ..) */
    i64 n_c, c_at;            /* ragged lanes: "c" ranges at c_lo[a ..) */
    i64 n_deep, deep_at;      /* deep lanes: "pa" ranges at pa_lo[a ..) */
    i64 probes, alive;        /* select's probes; scatter's survivors */
    i64 stop_bad, bad;        /* first bad input row; first bad survivor */
} Range;

typedef struct {
    const Step *z;
    i64 *lanes, iteration;
    i64 *out, *c_lo, *c_len, *deep, *pa_lo, *pa_len, *ts, *full, *tb, *look;
    i64 n_look;               /* ranges of the lookup whose columns are look */
    const i64 *pa_sorted;     /* the "pa" lookup's rows (pool_rows) */
    i64 pa_rows;
    int pa_bits;
    int pass, ranges, helpers;
    int gen, busy;            /* passes posted; helpers still in this one */
    int sleepers, waiting;    /* helpers asleep; the calling thread asleep */
    i64 next;                 /* the next range to claim */
    pthread_mutex_t mu;
    pthread_cond_t go, done;
    pthread_t tid[MAX_THREADS - 1];
    Range r[MAX_THREADS * RANGES_PER_THREAD];
} Team;

/* Stop draws, then plan: survivor k of the range sits at p = a + k, with
 * its ts / full / tb (ooc_lane) in those columns; its "c" range, when
 * ragged, in the range's segment of c_lo / c_len. */
static void plan_range(Team *t, Range *r)
{
    const Step *z = t->z;
    const Walk *w = &z->w;
    i64 *lanes = t->lanes, m = 0, n_c = 0;
    for (i64 i = r->a; i < r->b; i++) {
        i64 lane = lanes[i];
        if (lane < 0 || lane >= w->num || lane >= z->n_keys) {
            r->stop_bad = i;
            return;
        }
        if (z->stop != 0.0
            && !(lane_uniform(z->key[lane], &z->ctr[lane]) >= z->stop))
            continue;
        lanes[r->a + m++] = lane;
    }
    r->m = m;
    for (i64 k = 0; k < m; k++) {
        i64 p = r->a + k, lane = lanes[p], at = r->a + n_c;
        int ragged = plan_lane(&z->x, w->cur[lane], w->s[lane], &t->ts[p],
                               &t->full[p], &t->tb[p], &t->c_lo[at],
                               &t->c_len[at]);
        if (ragged < 0) { r->bad = k; break; }
        n_c += ragged;
    }
    r->n_c = n_c;
}

/* select over the "c" lookup's columns: the range's ragged lanes own
 * lookup ranges c_at ..; deep lanes go to the range's segment of deep /
 * pa_lo / pa_len. */
static void select_range(Team *t, Range *r)
{
    const Step *z = t->z;
    const Pool *p = z->p;
    const i64 *look = t->look, n_c = t->n_look, end = r->c_at + r->n_c;
    i64 j = r->c_at, nd = 0, probes = 0;
    for (i64 k = 0; k < r->m; k++) {
        i64 i = r->a + k, lane = t->lanes[i], ts = t->ts[i], at;
        i64 rem = z->w.s[lane] - t->full[i] * ts;
        const double *row = NULL;
        if (rem) {
            if (j >= end) { r->bad = k; break; }
            i64 q = look[j++], frame = look[3 * n_c + q];
            if (rem >= look[n_c + q]) { r->bad = k; break; }
            row = frame >= 0 ? p->slab + frame * p->width
                             : z->c + look[2 * n_c + q];
        }
        int got = select_ooc_lane(&z->x, z->w.cur[lane], ts, t->full[i],
                                  t->tb[i], rem, row,
                                  lane_uniform(z->key[lane], &z->ctr[lane]),
                                  &t->out[i], &at, &probes);
        if (got < 0) { r->bad = k; break; }
        if (got) {
            t->deep[r->a + nd] = i;
            t->pa_lo[r->a + nd] = at;
            t->pa_len[r->a + nd++] = ts;
        }
    }
    r->n_deep = nd;
    r->probes = probes;
}

/* The alias draws of the range's deep lanes, joined at deep_at, over the
 * "pa" lookup's columns. */
static void alias_range(Team *t, Range *r)
{
    const Step *z = t->z;
    const Pool *p = z->p;
    const i64 *look = t->look, n = t->n_look;
    for (i64 j = r->deep_at; j < r->deep_at + r->n_deep; j++) {
        i64 i = t->deep[j], lane = t->lanes[i], q = look[j];
        const i64 *frame = look + 3 * n + 2 * q;
        i64 lo = look[2 * n + q];
        const double *prob = z->prob + lo, *alias = z->alias + lo;
        if (frame[0] >= 0 && frame[1] >= 0) {
            prob = p->slab + frame[0] * p->width;
            alias = p->slab + frame[1] * p->width;
        }
        double u_cell = lane_uniform(z->key[lane], &z->ctr[lane]);
        double u_take = lane_uniform(z->key[lane], &z->ctr[lane]);
        i64 pick = alias_ooc_lane(t->ts[i], look[n + q], prob, alias, u_cell,
                                  u_take);
        if (pick < 0) { r->bad = i - r->a; break; }
        t->out[i] += pick;
    }
}

/* scatter; the survivors go to the range's segment of c_lo (spent since
 * the "c" lookup), the joined list to lanes. */
static void scatter_range(Team *t, Range *r)
{
    const Walk *w = &t->z->w;
    i64 alive = 0;
    for (i64 k = 0; k < r->m; k++) {
        i64 i = r->a + k, lane = t->lanes[i];
        int on = scatter_lane(w, lane, w->cur[lane], t->out[i], t->iteration);
        if (on < 0) { r->bad = k; break; }
        if (on) t->c_lo[r->a + alive++] = lane;
    }
    r->alive = alive;
}

/* The "pa" lookup's pool_rows over the n_look deep lanes' ranges, beside
 * the "c" admission: its inverse goes to c_len (spent), its rows to the
 * scratch past what the admission uses. */
static void presort(Team *t)
{
    const Step *z = t->z;
    t->pa_rows = pool_rows(t->n_look, t->pa_lo, t->pa_len, z->pa_size, 2, 1,
                           z->widest, t->c_len,
                           z->scratch + z->cap + 4 * z->p->frames,
                           &t->pa_sorted, &t->pa_bits);
}

/* Claim ranges and run the current pass over them until none is left (the
 * presort is one job: range 0's). */
static void run_ranges(Team *t)
{
    for (;;) {
        i64 k = __atomic_fetch_add(&t->next, 1, __ATOMIC_RELAXED);
        if (k >= t->ranges) return;
        Range *r = &t->r[k];
        switch (t->pass) {
        case PASS_PLAN: plan_range(t, r); break;
        case PASS_SELECT: select_range(t, r); break;
        case PASS_PRESORT: if (!k) presort(t); break;
        case PASS_ALIAS: alias_range(t, r); break;
        case PASS_SCATTER: scatter_range(t, r); break;
        }
    }
}

/* Spin while (*at == value) == equal, for at most SPIN_NS; returns 0 when
 * the time ran out first. A pool pass or a pass over a wide step is
 * longer: the waiter then sleeps on the team's condition variables. */
static int spin_while(const int *at, int value, int equal)
{
    struct timespec now;
    i64 until = 0;
    for (int k = 0; (__atomic_load_n(at, __ATOMIC_ACQUIRE) == value) == equal;
         k++) {
        if (!(k & 63)) {
            clock_gettime(CLOCK_MONOTONIC, &now);
            i64 ns = now.tv_sec * 1000000000LL + now.tv_nsec;
            if (!until) until = ns + SPIN_NS;
            else if (ns > until) return 0;
        }
        CPU_RELAX();
    }
    return 1;
}

static void *helper(void *arg)
{
    Team *t = arg;
    int seen = 0;
    for (;;) {
        if (!spin_while(&t->gen, seen, 1)) {
            pthread_mutex_lock(&t->mu);
            t->sleepers++;
            while (__atomic_load_n(&t->gen, __ATOMIC_ACQUIRE) == seen)
                pthread_cond_wait(&t->go, &t->mu);
            t->sleepers--;
            pthread_mutex_unlock(&t->mu);
        }
        seen = __atomic_load_n(&t->gen, __ATOMIC_ACQUIRE);
        if (t->pass == PASS_EXIT) return NULL;
        run_ranges(t);
        if (!__atomic_sub_fetch(&t->busy, 1, __ATOMIC_ACQ_REL)) {
            pthread_mutex_lock(&t->mu);
            if (t->waiting) pthread_cond_signal(&t->done);
            pthread_mutex_unlock(&t->mu);
        }
    }
}

/* Start a pass: the helpers wake and claim ranges. */
static void team_post(Team *t, int pass)
{
    t->pass = pass;
    __atomic_store_n(&t->next, 0, __ATOMIC_RELAXED);
    if (!t->helpers) return;
    __atomic_store_n(&t->busy, t->helpers, __ATOMIC_RELAXED);
    pthread_mutex_lock(&t->mu);
    __atomic_store_n(&t->gen, t->gen + 1, __ATOMIC_RELEASE);
    if (t->sleepers) pthread_cond_broadcast(&t->go);
    pthread_mutex_unlock(&t->mu);
}

/* Finish a pass: the calling thread claims what is left, then waits for
 * the helpers. */
static void team_join(Team *t)
{
    run_ranges(t);
    if (!t->helpers || spin_while(&t->busy, 0, 0)) return;
    pthread_mutex_lock(&t->mu);
    t->waiting = 1;
    while (__atomic_load_n(&t->busy, __ATOMIC_ACQUIRE))
        pthread_cond_wait(&t->done, &t->mu);
    t->waiting = 0;
    pthread_mutex_unlock(&t->mu);
}

static void team_run(Team *t, int pass)
{
    team_post(t, pass);
    team_join(t);
}

/* threads - 1 helpers (fewer if the system refuses one: the ranges do not
 * depend on who runs them), signals blocked: they stay with Python's
 * threads. */
static void team_open(Team *t, i64 threads)
{
    sigset_t all, old;
    pthread_attr_t attr;
    t->helpers = t->gen = t->sleepers = t->waiting = 0;
    if (threads < 2) return;
    pthread_mutex_init(&t->mu, NULL);
    pthread_cond_init(&t->go, NULL);
    pthread_cond_init(&t->done, NULL);
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &old);
    pthread_attr_init(&attr);
    pthread_attr_setstacksize(&attr, 256 << 10);
    while (t->helpers < threads - 1
           && !pthread_create(&t->tid[t->helpers], &attr, helper, t))
        t->helpers++;
    pthread_attr_destroy(&attr);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

static void team_close(Team *t, i64 threads)
{
    if (threads < 2) return;
    if (t->helpers) {
        team_post(t, PASS_EXIT);
        for (int h = 0; h < t->helpers; h++) pthread_join(t->tid[h], NULL);
    }
    pthread_cond_destroy(&t->done);
    pthread_cond_destroy(&t->go);
    pthread_mutex_destroy(&t->mu);
}

/* The backing runs of m miss ranges (ascending) — overlapping or adjacent
 * ranges coalesce (TrunkStore.coalesce_runs) — and the ranges themselves,
 * in bytes of `width` per element, tallied in tl[0] and tl[1].
 */
static void miss_runs(const Step *z, i64 m, const i64 *lo, const i64 *len,
                      i64 width, Tally *tl)
{
    i64 start = 0, reach = 0;
    for (i64 j = 0; j < m; j++) {
        if (j && lo[j] > reach) tally(&tl[0], z, 0, (reach - start) * width);
        if (!j || lo[j] > reach) start = lo[j];
        if (!j || lo[j] + len[j] > reach) reach = lo[j] + len[j];
        tally(&tl[1], z, 1, len[j] * width);
    }
    if (m) tally(&tl[0], z, 0, (reach - start) * width);
}

/* The misses of a lookup over n ranges (its columns at look): their
 * backing runs and trunk bytes tallied, then their admission from the
 * maps src[].
 */
static i64 step_misses(const Step *z, const i64 *look, i64 n, i64 miss,
                       i64 files, i64 tag, const double *const *src,
                       i64 *io, Tally *tl, Ledger *led)
{
    const i64 *lo = look + 6 * n, *len = look + 7 * n;
    miss_runs(z, miss, lo, len, 8 * files, tl);
    return pool_admission(z->p, io, miss, lo, len, files, tag, src, lo, 0,
                          z->scratch, led);
}

/* The passes and the pool work of ooc_step, on the team's threads. */
static i64 step_ranges(Team *t, i64 *io)
{
    const Step *z = t->z;
    const Pool *p = z->p;
    Range *r = t->r;
    const int R = t->ranges;
    i64 m = 0, n_c = 0, n_deep = 0, probes = 0, miss = 0, code = 0;
    Ledger led[2] = {{0}, {0}};
    Tally tl[2] = {{0}, {0}};
    team_run(t, PASS_PLAN);
    for (int k = 0; k < R; k++)
        if (r[k].stop_bad >= 0) BAD(r[k].stop_bad);
    for (int k = 0; k < R; k++) {
        r[k].at = m;
        r[k].c_at = n_c;
        if (r[k].bad >= 0) BAD(m + r[k].bad);
        memmove(t->c_lo + n_c, t->c_lo + r[k].a, r[k].n_c * sizeof(i64));
        memmove(t->c_len + n_c, t->c_len + r[k].a, r[k].n_c * sizeof(i64));
        m += r[k].m;
        n_c += r[k].n_c;
    }
    if (n_c && (code = pool_lookup(p, io, n_c, t->c_lo, t->c_len, z->c_size, 1,
                                   0, z->widest, t->look, z->scratch, &miss,
                                   &led[0])) < 0)
        return code;
    t->n_look = n_c;
    team_run(t, PASS_SELECT);
    for (int k = 0; k < R; k++) {
        if (r[k].bad >= 0) BAD(r[k].at + r[k].bad);
        i64 from = r[k].a, len = r[k].n_deep * sizeof(i64);
        memmove(t->deep + n_deep, t->deep + from, len);
        memmove(t->pa_lo + n_deep, t->pa_lo + from, len);
        memmove(t->pa_len + n_deep, t->pa_len + from, len);
        r[k].deep_at = n_deep;
        n_deep += r[k].n_deep;
        probes += r[k].probes;
    }
    const double *c_src[1] = {z->c}, *pa_src[2] = {z->prob, z->alias};
    t->n_look = n_deep;
    if (n_deep) team_post(t, PASS_PRESORT);
    if (n_c && miss)
        code = step_misses(z, t->look, n_c, miss, 1, 0, c_src, io, tl, &led[0]);
    if (n_deep) team_join(t);
    if (code < 0) return code;
    if (n_deep) { /* the "pa" lookup: its rows are sorted, now touch them */
        if (t->pa_rows < 0) return t->pa_rows;
        memcpy(t->look, t->c_len, n_deep * sizeof(i64));
        if ((code = pool_touch(p, io, t->pa_rows, t->pa_sorted, t->pa_bits,
                               n_deep, 2, 1, t->look, z->scratch, &miss,
                               &led[1])) < 0)
            return code;
    }
    team_run(t, PASS_ALIAS);
    for (int k = 0; k < R; k++)
        if (r[k].bad >= 0) BAD(r[k].at + r[k].bad);
    team_post(t, PASS_SCATTER);
    if (n_deep && miss)
        code = step_misses(z, t->look, n_deep, miss, 2, 1, pa_src, io, tl,
                           &led[1]);
    team_join(t);
    if (code < 0) return code;
    i64 alive = 0;
    for (int k = 0; k < R; k++) { /* join the survivors */
        if (r[k].bad >= 0) BAD(r[k].at + r[k].bad);
        memcpy(t->lanes + alive, t->c_lo + r[k].a, r[k].alive * sizeof(i64));
        alive += r[k].alive;
    }
    io[2] = m; io[3] = probes; io[4] = n_deep;
    memcpy(io + 6, led, sizeof led);
    memcpy(io + 22, tl, sizeof tl);
    return alive;
}

/* One iteration over lanes[0 .. n) on up to `threads` threads: survivors
 * compacted to the front, their count returned. io[0..1] = the pool's used
 * and clock (updated); io[2..5] = steps, probes, alias draws, the threads
 * that ran; io[6..13] and io[14..21] the "c" and "pa" Ledgers; io[22 ..]
 * the runs' and the loads' Tally.
 */
i64 ooc_step(const Step *z, i64 n, i64 *lanes, i64 iteration, i64 threads,
             i64 *io)
{
    Team t;
    const i64 cap = z->cap;
    if (pool_bad(z->p, io) || bad_column(&z->w, iteration) || n > z->w.num
        || n > cap || n < 0 || z->block < 1 || z->buckets[0] > MAX_BUCKETS
        || z->buckets[1] > MAX_BUCKETS)
        BAD(0);
    if (threads > MAX_THREADS) threads = MAX_THREADS;
    if (threads > n) threads = n;
    if (threads < 1) threads = 1;
    t.z = z;
    t.lanes = lanes;
    t.iteration = iteration;
    t.out = z->cols;
    t.c_lo = t.out + cap; t.c_len = t.c_lo + cap;
    t.deep = t.c_len + cap; t.pa_lo = t.deep + cap; t.pa_len = t.pa_lo + cap;
    t.ts = t.pa_len + cap; t.full = t.ts + cap; t.tb = t.full + cap;
    t.look = t.tb + cap;
    t.ranges = (int)(threads == 1 ? 1 : threads * RANGES_PER_THREAD);
    if (t.ranges > n) t.ranges = n ? (int)n : 1;
    for (int k = 0; k < t.ranges; k++)
        t.r[k] = (Range){.a = n * k / t.ranges, .b = n * (k + 1) / t.ranges,
                         .stop_bad = -1, .bad = -1};
    team_open(&t, threads);
    i64 code = step_ranges(&t, io);
    team_close(&t, threads);
    io[5] = 1 + t.helpers;
    return code;
}

/* k successive uniforms of each lane's stream, row-major (k, n) — what the
 * load-time self-test holds against LaneRng.uniform_block. Returns 0.
 */
i64 hop_uniforms(i64 n, const u64 *key, u64 *ctr, i64 k, double *out)
{
    for (i64 j = 0; j < k; j++)
        for (i64 i = 0; i < n; i++)
            out[j * n + i] = lane_uniform(key[i], &ctr[i]);
    return 0;
}

/* A run's n lane seeds: numpy's Generator.integers(0, 2**63 - 1, n,
 * dtype=int64) bit for bit, drawn through the bit generator's own
 * next_uint64 (state is its state address), so any bit generator works and
 * is left where integers leaves it. That is numpy's Lemire draw over the
 * 2^63 - 1 values: the high word of next * (2^63 - 1), redrawn while the
 * low word is below (2^64 - 1 - (2^63 - 2)) mod (2^63 - 1) = 2. The caller
 * holds the bit generator's lock. Returns 0.
 */
i64 lane_seeds(void *state, u64 (*next)(void *), i64 n, i64 *out)
{
    const u64 values = 0x7FFFFFFFFFFFFFFFULL;
    for (i64 i = 0; i < n; i++) {
        unsigned __int128 m = (unsigned __int128)next(state) * values;
        while ((u64)m < 2)
            m = (unsigned __int128)next(state) * values;
        out[i] = (i64)(m >> 64);
    }
    return 0;
}

/* nt Vose alias tables of width w, in place: table r reads
 * weights[src[r] .. + w) and writes prob/alias[dst[r] .. + w), alias
 * local to the table. totals[r] is the row's sum as numpy computes it
 * (pairwise) — a sequential sum here could differ in the last bit.
 * Bit for bit what repro.sampling.alias.build_alias_arrays_batch builds:
 * q = row * (w / total), smalls and larges seeded in ascending index
 * order and popped from the top, a large that drops below 1 pushed onto
 * the small stack. When w / total is not finite (a subnormal total) the
 * row and its total are first scaled by 2^1023 (alias.RESCALE): exact. A
 * row with total <= 0 gets the identity table. stack holds 2w entries.
 * Alias cells are int32: a width whose last offset does not fit returns
 * -1 before anything is read. Returns 0, or -1 - r for a table outside
 * the arrays.
 */
i64 alias_build(i64 nt, i64 w, const i64 *src, const i64 *dst,
                const double *totals, i64 n_weights, const double *weights,
                i64 n_cells, double *prob, i32 *alias, i64 *stack)
{
    i64 *small = stack, *large = stack + w;
    if (w < 1 || w - 1 > INT32_MAX) BAD(0);
    for (i64 r = 0; r < nt; r++) {
        i64 from = src[r], to = dst[r];
        if (from < 0 || from > n_weights - w || to < 0 || to > n_cells - w)
            BAD(r);
        const double *x = weights + from;
        double *q = prob + to, total = totals[r], scale = 1.0;
        i32 *a = alias + to;
        i64 ns = 0, nl = 0;
        for (i64 i = 0; i < w; i++) a[i] = (i32)i;
        if (!(total > 0.0)) {
            for (i64 i = 0; i < w; i++) q[i] = 1.0;
            continue;
        }
        double f = (double)w / total;
        if (!isfinite(f)) {
            scale = 0x1p1023;
            f = (double)w / (total * scale);
        }
        for (i64 i = 0; i < w; i++) {
            q[i] = x[i] * scale * f;
            if (q[i] < 1.0) small[ns++] = i; else large[nl++] = i;
        }
        while (ns && nl) {
            i64 s = small[--ns], l = large[nl - 1];
            a[s] = (i32)l; /* q[s] is final: it is prob[s] */
            q[l] = q[l] - (1.0 - q[s]);
            if (q[l] < 1.0) { nl--; small[ns++] = l; }
        }
        while (ns) q[small[--ns]] = 1.0;
        while (nl) q[large[--nl]] = 1.0;
    }
    return 0;
}

/* Per-vertex prefix sums of vertices lo .. hi-1: vertex v's segment of
 * d + 1 entries starts at indptr[v] + v, a leading +0, then sequential
 * adds in np.cumsum's order. The first entry is copied, not 0 + w[0], so
 * a leading -0.0 survives. Returns 0, or -1 - v for a bad segment.
 */
i64 prefix_sums(i64 lo, i64 hi, const i64 *indptr, i64 n_weights,
                const double *weights, i64 c_len, double *c)
{
    for (i64 v = lo; v < hi; v++) {
        i64 first = indptr[v], last = indptr[v + 1];
        if (first < 0 || last < first || last > n_weights
            || last > c_len - 1 - v)
            BAD(v);
        double *out = c + first + v, acc;
        out[0] = 0.0;
        if (last == first) continue;
        out[1] = acc = weights[first];
        for (i64 i = first + 1; i < last; i++)
            out[i - first + 1] = acc = acc + weights[i];
    }
    return 0;
}
