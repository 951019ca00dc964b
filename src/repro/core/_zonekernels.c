/*
 * Zone kernels of the exploration engine, compiled on first import.
 *
 * repro/core/kernels.py builds this file with the system C compiler into a
 * per-user cache and binds every function below through ctypes; when no
 * compiler is available it binds the numpy twins of the same kernels
 * instead.  Both backends produce bit-identical zones.
 *
 * A stack is `count` row-major `dim x dim` matrices of raw bounds stored one
 * after the other (a (count, dim, dim) int64 array); a single zone is a
 * stack of one.  The raw encoding is the one of repro/core/dbm.py:
 * raw = 2c + 1 encodes (c, <=), raw = 2c encodes (c, <), INFINITY_RAW
 * encodes no bound, and a smaller raw value is a tighter bound.  A layer
 * whose entry (0, 0) is below LE_ZERO is empty; the kernels leave such a
 * layer flagged and its other entries unspecified, like the numpy twins.
 *
 * Every kernel works at any dimension and keeps no buffers: the rank-1
 * updates run row by row in place, which is exact because the row and the
 * column they read are fixed points of the update.  The algorithms are the
 * textbook ones (Bengtsson & Yi, "Timed Automata: Semantics, Algorithms
 * and Tools").
 *
 * The layer kernels return the number of non-empty layers afterwards, or
 * -1 (before touching anything) when a clock index lies outside the matrix.
 * Counts, dimensions and indices are C ints; kernels.py declares every
 * signature to ctypes.
 */

#include <stdint.h>

#define INFINITY_RAW ((int64_t)1 << 40)
#define LE_ZERO ((int64_t)1)
#define EMPTY_RAW ((int64_t)-2)

/* The bound sentinel, so the loader can check both sides agree. */
int64_t zk_infinity_raw(void) { return INFINITY_RAW; }

/* Raw addition of two finite bounds: values add, strict unless both weak. */
static inline int64_t add_raw(int64_t a, int64_t b)
{
    return a + b - ((a | b) & 1);
}

static inline int is_empty(const int64_t *m) { return m[0] < LE_ZERO; }

static int live_layers(const int64_t *a, int count, long size)
{
    int live = 0;
    for (long layer = 0; layer < count; layer++)
        live += !is_empty(a + layer * size);
    return live;
}

/* Flag the layer empty when some diagonal entry is negative. */
static int flag_negative_diagonal(int64_t *m, long dim)
{
    for (long i = 0; i < dim; i++) {
        if (m[i * dim + i] < LE_ZERO) {
            m[0] = EMPTY_RAW;
            return 1;
        }
    }
    return 0;
}

/*
 * Floyd-Warshall closure of one layer, in place (after extrapolation).  The diagonal is checked
 * before every round: a round that starts without a negative cycle only
 * adds pairs of shortest simple-path lengths, so no sum can overflow, and
 * a layer is flagged empty as soon as a negative cycle appears.  With the
 * diagonal non-negative, row k and column k are fixed points of round k,
 * so the round may update the matrix in place.
 */
static void close_layer(int64_t *m, long dim)
{
    for (long k = 0; k < dim; k++) {
        if (flag_negative_diagonal(m, dim))
            return;
        const int64_t *row_k = m + k * dim;
        for (long i = 0; i < dim; i++) {
            int64_t *row_i = m + i * dim;
            int64_t d_ik = row_i[k];
            if (d_ik >= INFINITY_RAW)
                continue;
            for (long j = 0; j < dim; j++) {
                int64_t d_kj = row_k[j];
                if (d_kj >= INFINITY_RAW)
                    continue;
                int64_t candidate = add_raw(d_ik, d_kj);
                if (candidate < row_i[j])
                    row_i[j] = candidate;
            }
        }
    }
    flag_negative_diagonal(m, dim);
}

/*
 * Add x_i - x_j (raw) to one closed, non-empty layer: exact rank-1
 * re-closure new[x][y] = min(old[x][y], old[x][i] (+) raw (+) old[j][y]).
 * Column i and row j are fixed points of the update (raw (+) old[j][i] >=
 * LE_ZERO once the negative-cycle check has passed), so the rows update in
 * place.
 */
static void constrain_layer(int64_t *m, long dim, long i, long j, int64_t raw)
{
    if (raw >= m[i * dim + j])
        return;
    int64_t opposite = m[j * dim + i];
    if (opposite < INFINITY_RAW && add_raw(raw, opposite) < LE_ZERO) {
        m[0] = EMPTY_RAW;
        return;
    }
    m[i * dim + j] = raw;
    const int64_t *row_j = m + j * dim;
    for (long x = 0; x < dim; x++) {
        int64_t *row_x = m + x * dim;
        if (row_x[i] >= INFINITY_RAW)
            continue;
        int64_t via = add_raw(row_x[i], raw);
        for (long y = 0; y < dim; y++) {
            if (row_j[y] >= INFINITY_RAW)
                continue;
            int64_t candidate = add_raw(via, row_j[y]);
            if (candidate < row_x[y])
                row_x[y] = candidate;
        }
    }
}

/*
 * Add the constraints x_i - x_j (raw), given as `n` rows (i, j, raw), in
 * order to every closed layer; a layer stops at the constraint that
 * empties it.
 */
int zk_constrain(int64_t *a, int count, int dim, const int64_t *rows, int n)
{
    for (int r = 0; r < n; r++) {
        int64_t i = rows[3 * r], j = rows[3 * r + 1];
        if (i < 0 || i >= dim || j < 0 || j >= dim)
            return -1;
    }
    long size = (long)dim * dim;
    for (long layer = 0; layer < count; layer++) {
        int64_t *m = a + layer * size;
        for (int r = 0; r < n && !is_empty(m); r++)
            constrain_layer(m, dim, rows[3 * r], rows[3 * r + 1], rows[3 * r + 2]);
    }
    return live_layers(a, count, size);
}

/*
 * Tighten the upper bounds x_c <= raw_c of several clocks (c >= 1) at once
 * on every closed layer.  Every new edge ends in the reference clock, so
 * new[x][y] = min(old[x][y], min_c(old[x][c] (+) raw_c) (+) old[0][y]) is
 * the exact closure; a pair that closes a negative cycle with the stored
 * lower bound empties the layer.  Row 0 is a fixed point of the update.
 */
int zk_impose_upper_bounds(int64_t *a, int count, int dim,
                           const int64_t *clocks, const int64_t *raws, int pairs)
{
    for (int p = 0; p < pairs; p++) {
        if (clocks[p] < 1 || clocks[p] >= dim)
            return -1;
    }
    long size = (long)dim * dim;
    for (long layer = 0; layer < count; layer++) {
        int64_t *m = a + layer * size;
        if (is_empty(m))
            continue;
        int bad = 0;
        for (int p = 0; p < pairs && !bad; p++) {
            int64_t lower = m[clocks[p]];
            bad = lower < INFINITY_RAW && add_raw(lower, raws[p]) < LE_ZERO;
        }
        if (bad) {
            m[0] = EMPTY_RAW;
            continue;
        }
        const int64_t *row_0 = m;
        for (long x = 0; x < dim; x++) {
            int64_t *row_x = m + x * dim;
            int64_t via = INFINITY_RAW;
            for (int p = 0; p < pairs; p++) {
                int64_t d_xc = row_x[clocks[p]];
                if (d_xc < INFINITY_RAW) {
                    int64_t candidate = add_raw(d_xc, raws[p]);
                    if (candidate < via)
                        via = candidate;
                }
            }
            if (via >= INFINITY_RAW)
                continue;
            for (long y = 0; y < dim; y++) {
                if (row_0[y] >= INFINITY_RAW)
                    continue;
                int64_t candidate = add_raw(via, row_0[y]);
                if (candidate < row_x[y])
                    row_x[y] = candidate;
            }
        }
    }
    return live_layers(a, count, size);
}

/*
 * Reset clock := value (clock >= 1) on every closed layer.  The new row
 * reads row 0 and the new column reads column 0; writing the row first
 * leaves column 0 intact except at (clock, 0), whose column entry the
 * diagonal overwrites.
 */
int zk_reset(int64_t *a, int count, int dim, int clock, int64_t value)
{
    if (clock < 1 || clock >= dim)
        return -1;
    int64_t pos = 2 * value + 1, neg = -2 * value + 1;
    long size = (long)dim * dim;
    for (long layer = 0; layer < count; layer++) {
        int64_t *m = a + layer * size;
        int64_t *row_c = m + (long)clock * dim;
        for (long y = 0; y < dim; y++)
            row_c[y] = m[y] < INFINITY_RAW ? add_raw(pos, m[y]) : INFINITY_RAW;
        for (long x = 0; x < dim; x++) {
            int64_t d_x0 = m[x * dim];
            m[x * dim + clock] = d_x0 < INFINITY_RAW ? add_raw(d_x0, neg) : INFINITY_RAW;
        }
        row_c[clock] = LE_ZERO;
    }
    return live_layers(a, count, size);
}

/*
 * Extrapolate every layer against the raw threshold grids: an entry below
 * its lower-grid value is relaxed to it, otherwise a finite entry above its
 * upper-grid value becomes infinite.  Only the layers that changed are
 * closed again.
 */
int zk_extrapolate(int64_t *a, int count, int dim,
                   const int64_t *upper_grid, const int64_t *lower_grid)
{
    long size = (long)dim * dim;
    for (long layer = 0; layer < count; layer++) {
        int64_t *m = a + layer * size;
        int changed = 0;
        for (long e = 0; e < size; e++) {
            int64_t value = m[e];
            if (value < lower_grid[e]) {
                m[e] = lower_grid[e];
                changed = 1;
            } else if (value > upper_grid[e] && value < INFINITY_RAW) {
                m[e] = INFINITY_RAW;
                changed = 1;
            }
        }
        if (changed)
            close_layer(m, dim);
    }
    return live_layers(a, count, size);
}

/* Zone inclusion on raw rows of `width` entries: z <= w entrywise. */
static inline int included(const int64_t *z, const int64_t *w, long width)
{
    for (long e = 0; e < width; e++) {
        if (z[e] > w[e])
            return 0;
    }
    return 1;
}

/*
 * out[c] = candidate c is included in some member (out may be NULL).
 * Returns how many candidates are.
 */
int zk_covers(const int64_t *members, int n, const int64_t *candidates, int k,
              int width, uint8_t *out)
{
    int covered = 0;
    for (long c = 0; c < k; c++) {
        const int64_t *z = candidates + c * width;
        int hit = 0;
        for (long m = 0; m < n && !hit; m++)
            hit = included(z, members + m * width, width);
        covered += hit;
        if (out)
            out[c] = (uint8_t)hit;
    }
    return covered;
}

/*
 * out[r] = row r is included in some other row: an earlier one, or with
 * `later` set a later one.  Returns how many rows are.
 */
int zk_covered_by_other(const int64_t *rows, int k, int width, int later, uint8_t *out)
{
    int covered = 0;
    for (long r = 0; r < k; r++) {
        const int64_t *z = rows + r * width;
        long start = later ? r + 1 : 0, stop = later ? k : r;
        int hit = 0;
        for (long s = start; s < stop && !hit; s++)
            hit = included(z, rows + s * width, width);
        covered += hit;
        out[r] = (uint8_t)hit;
    }
    return covered;
}
