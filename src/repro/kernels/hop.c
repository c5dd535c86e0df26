/* The three per-lane passes of one frontier hop (the `c` kernel backend).
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
 * The passes own no randomness (every uniform arrives pre-drawn) and no
 * memory. Every index derived from an input is checked before it is
 * dereferenced; a bad row returns -1 - row and the Python side raises
 * IndexError. Array dtype, contiguity and the lengths passed here are the
 * caller's contract, verified in Python before any pointer is taken.
 */
#include <stdint.h>
#include <stddef.h>

typedef int64_t i64;

#define BAD(row) return -1 - (row)

/* Highest set bit of x > 0. */
static inline int top_bit(i64 x) { return 63 - __builtin_clzll((uint64_t)x); }

/* select: gather the candidate total, draw r in (0, total], run ITS over
 * the binary decomposition of ss[i]. Writes the winning trunk's level and
 * edge offset, compacts the rows with level > 0 into deep[], and counts the
 * cost model's probes, ceil(log2(max(popcount s, 2))) + 1 per lane, in
 * integers. Returns the number of deep rows.
 */
i64 hop_select(i64 n, const i64 *vs, const i64 *ss, const double *u,
               i64 V, const i64 *indptr, i64 c_len, const double *c,
               i64 *level, i64 *out, i64 *deep, i64 *probes)
{
    i64 n_deep = 0, n_probes = 0;
    for (i64 i = 0; i < n; i++) {
        i64 v = vs[i], s = ss[i];
        if (v < 0 || v >= V) BAD(i);
        i64 lo = indptr[v], hi = indptr[v + 1];
        if (lo < 0 || hi < lo || s < 1 || s > hi - lo) BAD(i);
        if (hi > c_len - 1 - v) BAD(i); /* base + s <= hi + v < c_len */
        i64 base = lo + v;
        double total = c[base + s];
        double scaled = u[i] * total;
        double r = total - scaled;
        i64 rem = s, off = 0, lvl = -1;
        while (rem) {
            int k = top_bit(rem);
            i64 block = (i64)1 << k;
            if (c[base + off + block] >= r) { lvl = k; break; }
            off += block;
            rem -= block;
        }
        if (lvl < 0) BAD(i); /* no boundary covers r: NaN weights */
        level[i] = lvl;
        out[i] = off;
        if (lvl) deep[n_deep++] = i;
        int blocks = __builtin_popcountll((uint64_t)s);
        n_probes += 1 + (blocks <= 2 ? 1 : top_bit(blocks - 1) + 1);
    }
    *probes = n_probes;
    return n_deep;
}

/* alias: one alias-table cell per deep row, from the two pre-drawn
 * uniforms; out[row] becomes trunk offset + in-trunk pick. Returns 0.
 */
i64 hop_alias(i64 n_deep, const i64 *deep, i64 n, const i64 *vs,
              const i64 *level, i64 *out,
              const double *u_cell, const double *u_take,
              i64 V, const i64 *lvl_base, i64 ptr_len, const i64 *lvl_ptr,
              i64 tab_len, const double *prob, const i64 *alias)
{
    for (i64 j = 0; j < n_deep; j++) {
        i64 i = deep[j];
        if (i < 0 || i >= n) BAD(j);
        i64 v = vs[i], k = level[i], off = out[i];
        if (v < 0 || v >= V || k < 1 || k > 62 || off < 0) BAD(j);
        i64 first = lvl_base[v];
        if (first < 0 || first > ptr_len - k || first + k > lvl_base[v + 1]) BAD(j);
        i64 width = (i64)1 << k, table = lvl_ptr[first + k - 1];
        if (table < 0 || off > tab_len || table > tab_len - width - off) BAD(j);
        i64 start = table + off;
        i64 cell = (i64)(u_cell[j] * (double)width);
        if (cell > width - 1) cell = width - 1;
        if (cell < 0) BAD(j);
        if (u_take[j] >= prob[start + cell]) cell = alias[start + cell];
        out[i] = off + cell;
    }
    return 0;
}

/* scatter: follow each lane's drawn edge. Records the hop (when hop
 * columns are kept), advances prev/cur/s/steps_left and compacts the
 * surviving lanes to the front of lanes[]. Returns the survivor count.
 */
i64 hop_scatter(i64 n, i64 *lanes, const i64 *vs, const i64 *idx,
                i64 V, const i64 *indptr, i64 E, const i64 *nbr,
                const double *etime, const i64 *cand_sizes,
                i64 num, i64 *cur, i64 *prev, i64 *s, i64 *steps_left,
                i64 stride, i64 iteration, i64 *hop_vertex, double *hop_time)
{
    if (hop_vertex != NULL && (iteration < 0 || iteration >= stride)) BAD(0);
    i64 alive = 0;
    for (i64 i = 0; i < n; i++) {
        i64 lane = lanes[i], v = vs[i], j = idx[i];
        if (lane < 0 || lane >= num || v < 0 || v >= V) BAD(i);
        i64 lo = indptr[v], hi = indptr[v + 1];
        if (lo < 0 || hi < lo || hi > E || j < 0 || j >= hi - lo) BAD(i);
        i64 pos = lo + j;
        i64 next = nbr[pos], s_next = cand_sizes[pos];
        if (hop_vertex != NULL) {
            hop_vertex[lane * stride + iteration] = next;
            hop_time[lane * stride + iteration] = etime[pos];
        }
        prev[lane] = v;
        cur[lane] = next;
        s[lane] = s_next;
        i64 left = --steps_left[lane];
        if (s_next > 0 && left > 0) lanes[alive++] = lane;
    }
    return alive;
}
