/* One frontier hop per lane (the `c` kernel backend), the index build's two
 * per-table loops (Vose alias tables and per-vertex prefix sums), and the
 * per-lane loops of the out-of-core PAT draw.
 *
 * Built on first use by repro/kernels/c_backend.py with the system compiler:
 *
 *     cc -O2 -ffp-contract=off -fPIC -shared -o hop-<sha256>.so hop.c
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
#include <stdint.h>
#include <stddef.h>
#include <string.h>

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
 * trunks come from TrunkStore.read_batch between the calls: Python owns
 * every read, these loops own the per-lane arithmetic and the draws.
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

/* Lane validation and read planning. Every lane is checked (ooc_lane);
 * a ragged lane (s not a multiple of ts) is listed in rows[] with its
 * C-slice trunk [c_lo, c_hi) (OutOfCorePAT.c_trunks). counts[0] = ragged
 * lanes. Returns 0.
 */
i64 ooc_plan(i64 V, const i64 *indptr, const i64 *trunk_sizes,
             const i64 *tr_indptr, i64 tr_len, const double *tr_prefix,
             i64 n, const i64 *vs, const i64 *ss,
             i64 *rows, i64 *c_lo, i64 *c_hi, i64 *counts)
{
    const Trunks x = {V, indptr, trunk_sizes, tr_indptr, tr_len, tr_prefix};
    i64 n_rows = 0;
    for (i64 i = 0; i < n; i++) {
        i64 v = vs[i], s = ss[i], ts, full, tb;
        if (ooc_lane(&x, v, s, &ts, &full, &tb)) BAD(i);
        i64 base = indptr[v] + v, deg = indptr[v + 1] - indptr[v];
        if (s - full * ts) {
            i64 start = full * ts, end = start + ts < deg ? start + ts : deg;
            rows[n_rows] = i;
            c_lo[n_rows] = base + start;
            c_hi[n_rows++] = base + end + 1;
        }
    }
    counts[0] = n_rows;
    return 0;
}

/* Each lane's draw up to its alias trunk. The candidate total is the
 * resident boundary tr_prefix[full], or — for the j-th ragged lane — entry
 * rem of row c_row[j] of the (c_rows, c_width) C-slice payload; the lane's
 * next uniform gives r = total - u*total. A lane with r <= tr_prefix[full]
 * bisects the boundaries in lockstep (one probe per halving: the numpy
 * lockstep's count) and is listed in deep[] with out = trunk * ts and its
 * alias trunk [pa_lo, pa_hi); any other lane compare-counts its C-slice
 * row up to rem (out final; ceil(log2(max(rem, 2))) + 1 probes).
 * counts[0..1] = deep lanes, probes. Returns 0.
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
        i64 v = vs[i], s = ss[i], lane = lanes[i], ts, full, tb;
        if (ooc_lane(&x, v, s, &ts, &full, &tb)) BAD(i);
        if (lane < 0 || lane >= n_keys) BAD(i);
        i64 rem = s - full * ts;
        double full_weight = tr_prefix[tb + full], total = full_weight;
        const double *row = NULL;
        if (rem) {
            if (j >= n_ragged) BAD(i);
            i64 r_at = c_row[j++];
            if (r_at < 0 || r_at >= c_rows || rem >= c_width) BAD(i);
            row = c + r_at * c_width;
            total = row[rem];
        }
        double scaled = lane_uniform(key[lane], &ctr[lane]) * total;
        double r = total - scaled;
        if (full > 0 && r <= full_weight) {
            i64 lo = 0, hi = full;
            while (hi - lo > 1) {
                i64 mid = (lo + hi) / 2;
                probes++;
                if (tr_prefix[tb + mid] < r) lo = mid; else hi = mid;
            }
            out[i] = lo * ts;
            pa_lo[n_deep] = indptr[v] + lo * ts;
            pa_hi[n_deep] = indptr[v] + (lo + 1) * ts;
            deep[n_deep++] = i;
        } else {
            if (row == NULL) BAD(i); /* r > total: NaN weights */
            i64 below = 0;
            for (i64 k = 0; k <= rem; k++) below += row[k] < r;
            out[i] = full * ts + below - 1;
            probes += 1 + (rem <= 2 ? 1 : top_bit(rem - 1) + 1);
        }
    }
    counts[0] = n_deep; counts[1] = probes;
    return 0;
}

/* The in-trunk alias draw of deep row j: two uniforms from its lane's
 * stream pick a cell of the width-ts trunk t_row[j] of the (t_rows, 2,
 * t_width) "pa" payload — plane 0 prob, plane 1 the alias offsets' int64
 * bits — and out[deep[j]] += the pick. Returns 0.
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
        i64 w = trunk_sizes[v];
        double u_cell = lane_uniform(key[lane], &ctr[lane]);
        double u_take = lane_uniform(key[lane], &ctr[lane]);
        i64 cell = (i64)(u_cell * (double)w);
        if (cell > w - 1) cell = w - 1;
        if (cell < 0 || cell >= t_width) BAD(j);
        const double *prob = tables + at * 2 * t_width;
        i64 pick = cell;
        if (!(u_take < prob[cell])) {
            memcpy(&pick, prob + t_width + cell, sizeof pick);
            if (pick < 0 || pick >= w) BAD(j);
        }
        out[i] += pick;
    }
    return 0;
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
