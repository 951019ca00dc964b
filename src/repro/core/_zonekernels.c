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
#include <string.h>

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

/* True when every (i, j) of the `n` rows of `stride` values lies in the matrix. */
static int valid_rows(const int64_t *rows, long n, long stride, long dim)
{
    for (long r = 0; r < n; r++) {
        int64_t i = rows[stride * r], j = rows[stride * r + 1];
        if (i < 0 || i >= dim || j < 0 || j >= dim)
            return 0;
    }
    return 1;
}

/* True when every clock of the `n` (clock, value) pairs is one of 1..dim-1. */
static int valid_clocks(const int64_t *pairs, long n, long dim)
{
    for (long p = 0; p < n; p++) {
        if (pairs[2 * p] < 1 || pairs[2 * p] >= dim)
            return 0;
    }
    return 1;
}

/*
 * Add the `n` constraint rows (i, j, raw) in order to one closed layer,
 * stopping at the one that empties it; returns whether it stays non-empty.
 */
static int constrain_rows_layer(int64_t *m, long dim, const int64_t *rows, long n)
{
    for (long r = 0; r < n && !is_empty(m); r++)
        constrain_layer(m, dim, rows[3 * r], rows[3 * r + 1], rows[3 * r + 2]);
    return !is_empty(m);
}

/*
 * Add the constraints x_i - x_j (raw), given as `n` rows (i, j, raw), in
 * order to every closed layer; a layer stops at the constraint that
 * empties it.
 */
int zk_constrain(int64_t *a, int count, int dim, const int64_t *rows, int n)
{
    if (!valid_rows(rows, n, 3, dim))
        return -1;
    long size = (long)dim * dim;
    for (long layer = 0; layer < count; layer++)
        constrain_rows_layer(a + layer * size, dim, rows, n);
    return live_layers(a, count, size);
}

/*
 * Tighten the upper bounds x_i <= raw among the `n` constraint rows
 * (i, j, raw) -- the rows with j == 0 and i >= 1; the others are skipped --
 * on one closed layer at once; returns whether it stays non-empty.  Every
 * new edge ends in the reference clock, so
 * new[x][y] = min(old[x][y], min_i(old[x][i] (+) raw_i) (+) old[0][y]) is
 * the exact closure; a bound that closes a negative cycle with the stored
 * lower bound empties the layer.  Row 0 is a fixed point of the update.
 */
static int impose_upper_bounds_layer(int64_t *m, long dim, const int64_t *rows, long n)
{
    for (long r = 0; r < n; r++) {
        if (rows[3 * r + 1] != 0)
            continue;
        int64_t lower = m[rows[3 * r]];
        if (lower < INFINITY_RAW && add_raw(lower, rows[3 * r + 2]) < LE_ZERO) {
            m[0] = EMPTY_RAW;
            return 0;
        }
    }
    const int64_t *row_0 = m;
    for (long x = 0; x < dim; x++) {
        int64_t *row_x = m + x * dim;
        int64_t via = INFINITY_RAW;
        for (long r = 0; r < n; r++) {
            if (rows[3 * r + 1] != 0)
                continue;
            int64_t d_xc = row_x[rows[3 * r]];
            if (d_xc < INFINITY_RAW) {
                int64_t candidate = add_raw(d_xc, rows[3 * r + 2]);
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
    return 1;
}

/*
 * Reset clock := value (clock >= 1) on one closed layer.  The new row
 * reads row 0 and the new column reads column 0; writing the row first
 * leaves column 0 intact except at (clock, 0), whose column entry the
 * diagonal overwrites.
 */
static void reset_layer(int64_t *m, long dim, long clock, int64_t value)
{
    int64_t pos = 2 * value + 1, neg = -2 * value + 1;
    int64_t *row_c = m + clock * dim;
    for (long y = 0; y < dim; y++)
        row_c[y] = m[y] < INFINITY_RAW ? add_raw(pos, m[y]) : INFINITY_RAW;
    for (long x = 0; x < dim; x++) {
        int64_t d_x0 = m[x * dim];
        m[x * dim + clock] = d_x0 < INFINITY_RAW ? add_raw(d_x0, neg) : INFINITY_RAW;
    }
    row_c[clock] = LE_ZERO;
}

/*
 * Extrapolate one layer against the raw threshold grids: an entry below
 * its lower-grid value is relaxed to it, otherwise a finite entry above its
 * upper-grid value becomes infinite.  The layer is closed again only when
 * it changed.
 */
static void extrapolate_layer(int64_t *m, long dim, const int64_t *upper_grid,
                              const int64_t *lower_grid)
{
    long size = dim * dim;
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

/* Extrapolate every layer of the stack (extrapolate_layer). */
int zk_extrapolate(int64_t *a, int count, int dim,
                   const int64_t *upper_grid, const int64_t *lower_grid)
{
    long size = (long)dim * dim;
    for (long layer = 0; layer < count; layer++)
        extrapolate_layer(a + layer * size, dim, upper_grid, lower_grid);
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
 * Firing programs
 * ---------------
 * A program lists the plans of one discrete key as int64 values: the plan
 * count, then per plan a header (flags, guards, resets, invariants)
 * followed by the guards (i, j, raw), the resets (clock, value) and the
 * target's invariants (i, j, raw).  A plan flagged FIRE_ERROR has a
 * deferred evaluation error: it reports the layers whose guards pass and
 * nothing else.  FIRE_DELAY lets time pass in the target: up, then the
 * invariants again, the upper bounds (j == 0) in one exact re-closure and
 * the others by rank-1 constrain (on which the re-imposed upper bounds are
 * no-ops).
 */
#define FIRE_ERROR 1
#define FIRE_DELAY 2
#define PLAN_HEADER 4

/*
 * The number of plans of a well-formed program whose clock indices all lie
 * in the matrix (and no invariant bounds x_0 - x_0), or -1.
 */
static long check_program(const int64_t *program, long length, long dim)
{
    if (length < 1 || program[0] < 0 || program[0] > length)
        return -1;
    long plans = (long)program[0], at = 1;
    for (long p = 0; p < plans; p++) {
        if (at + PLAN_HEADER > length)
            return -1;
        const int64_t *h = program + at;
        for (int k = 1; k < PLAN_HEADER; k++) {
            if (h[k] < 0 || h[k] > length)
                return -1;
        }
        long body = 3 * h[1] + 2 * h[2] + 3 * h[3];
        if (at + PLAN_HEADER + body > length)
            return -1;
        const int64_t *guards = h + PLAN_HEADER, *resets = guards + 3 * h[1];
        const int64_t *invariants = resets + 2 * h[2];
        if (!valid_rows(guards, h[1], 3, dim) || !valid_clocks(resets, h[2], dim)
            || !valid_rows(invariants, h[3], 3, dim))
            return -1;
        for (long r = 0; r < h[3]; r++) {
            if (invariants[3 * r] == 0 && invariants[3 * r + 1] == 0)
                return -1;
        }
        at += PLAN_HEADER + body;
    }
    return at == length ? plans : -1;
}

/*
 * Fire every plan of `program` against the `count` closed layers of
 * `source` (empty layers fire nothing).  Per plan, in order, each layer is
 * copied to the next free row of `out`, constrained by the guards, reset,
 * constrained by the target's invariants and, under FIRE_DELAY, delayed: up
 * drops every upper bound and the invariants come back.  A row that stays
 * non-empty is kept, with its source layer in `nodes`; an emptied one is
 * overwritten by the next attempt, so only live rows are written.
 * `counts[p]` is the number of rows plan p kept, and the rows are grouped
 * by plan in program order.  Returns the number of rows written, or -1
 * (before writing anything) for a malformed program, a clock index outside
 * the matrix, or fewer than count * plans rows of capacity.
 */
int zk_fire(const int64_t *source, int count, int dim, const int64_t *program, int length,
            int64_t *out, int capacity, int64_t *nodes, int64_t *counts)
{
    long plans = check_program(program, length, dim);
    if (plans < 0 || (long)count * plans > capacity)
        return -1;
    long size = (long)dim * dim, written = 0, at = 1;
    for (long p = 0; p < plans; p++) {
        const int64_t *h = program + at;
        const int64_t *guards = h + PLAN_HEADER, *resets = guards + 3 * h[1];
        const int64_t *invariants = resets + 2 * h[2];
        at += PLAN_HEADER + 3 * h[1] + 2 * h[2] + 3 * h[3];
        long first = written;
        for (long layer = 0; layer < count; layer++) {
            const int64_t *z = source + layer * size;
            if (is_empty(z))
                continue;
            int64_t *m = out + written * size;
            memcpy(m, z, size * sizeof(int64_t));
            if (!constrain_rows_layer(m, dim, guards, h[1]))
                continue;
            if (!(h[0] & FIRE_ERROR)) {
                for (long r = 0; r < h[2]; r++)
                    reset_layer(m, dim, resets[2 * r], resets[2 * r + 1]);
                if (!constrain_rows_layer(m, dim, invariants, h[3]))
                    continue;
                if (h[0] & FIRE_DELAY) {
                    for (long x = 1; x < dim; x++)
                        m[x * dim] = INFINITY_RAW;
                    if (!impose_upper_bounds_layer(m, dim, invariants, h[3])
                        || !constrain_rows_layer(m, dim, invariants, h[3]))
                        continue;
                }
            }
            nodes[written++] = layer;
        }
        counts[p] = written - first;
    }
    return (int)written;
}

/*
 * Clear keep[r] of every kept row r of [start, stop) that is included in
 * an earlier kept row: the scalar store-then-recheck discipline within one
 * key of one round.  A row included in a dropped row is also included in
 * whatever kept row dropped that one, so comparing against kept rows only
 * gives the same verdicts.
 */
static void screen(const int64_t *rows, long start, long stop, long width, uint8_t *keep)
{
    for (long r = start; r < stop; r++) {
        if (!keep[r])
            continue;
        const int64_t *z = rows + r * width;
        for (long s = start; s < r; s++) {
            if (keep[s] && included(z, rows + s * width, width)) {
                keep[r] = 0;
                break;
            }
        }
    }
}

/*
 * One decide round of the layered core.  `rows` holds the round's
 * candidates grouped by key, each key's run [bounds[2k], bounds[2k + 1]) in
 * tag order; `members[k]` points to the `member_counts[k]` rows of that
 * key's passed federation (NULL when there are none).  Per key: a
 * candidate included in some member is dropped (coverage), then one
 * included in an earlier surviving candidate (the raw screen); the
 * survivors are extrapolated in place unless `upper_grid` is NULL, and
 * screened again.  `stored` flags the candidates left.  The flush's masks
 * follow: `doomed_rows[r]` flags a stored row included in a later stored
 * row of its key, and `doomed_members[o_k + m]` member m of key k that some
 * stored row includes (o_k: the member counts of the keys before k).
 * Members are only read.  Returns the number of stored candidates, or -1
 * (before writing anything) when the runs are not ordered within the rows.
 */
int zk_decide(int64_t *rows, int total, int dim, const int64_t *bounds, int runs,
              const int64_t *const *members, const int64_t *member_counts,
              const int64_t *upper_grid, const int64_t *lower_grid,
              uint8_t *stored, uint8_t *doomed_rows, uint8_t *doomed_members)
{
    long previous = 0;
    for (long k = 0; k < runs; k++) {
        if (bounds[2 * k] < previous || bounds[2 * k + 1] < bounds[2 * k]
            || bounds[2 * k + 1] > total || member_counts[k] < 0
            || (member_counts[k] && !members[k]))
            return -1;
        previous = bounds[2 * k + 1];
    }
    long width = (long)dim * dim, kept = 0;
    uint8_t *doomed = doomed_members;
    for (long k = 0; k < runs; k++) {
        long start = bounds[2 * k], stop = bounds[2 * k + 1], n = member_counts[k];
        const int64_t *fed = members[k];
        for (long r = start; r < stop; r++) {
            const int64_t *z = rows + r * width;
            int hit = 0;
            for (long m = 0; m < n && !hit; m++)
                hit = included(z, fed + m * width, width);
            stored[r] = (uint8_t)!hit;
            doomed_rows[r] = 0;
        }
        screen(rows, start, stop, width, stored);
        if (upper_grid) {
            for (long r = start; r < stop; r++) {
                if (stored[r])
                    extrapolate_layer(rows + r * width, dim, upper_grid, lower_grid);
            }
            screen(rows, start, stop, width, stored);
        }
        for (long m = 0; m < n; m++) {
            const int64_t *w = fed + m * width;
            int hit = 0;
            for (long r = start; r < stop && !hit; r++)
                hit = stored[r] && included(w, rows + r * width, width);
            doomed[m] = (uint8_t)hit;
        }
        doomed += n;
        for (long r = start; r < stop; r++) {
            if (!stored[r])
                continue;
            kept++;
            const int64_t *z = rows + r * width;
            for (long s = r + 1; s < stop; s++) {
                if (stored[s] && included(z, rows + s * width, width)) {
                    doomed_rows[r] = 1;
                    break;
                }
            }
        }
    }
    return (int)kept;
}
