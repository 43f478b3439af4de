/* Window-scan kernel of the ``native`` backend (see native.py).
 *
 * repro_scan_windows scans many row windows of float64 columns in one
 * call.  Window w covers rows [starts[w], starts[w] + lens[w]) and is
 * tested against its own bounds lows[d * n_windows + w] and
 * highs[d * n_windows + w].  A side is checked only when its bound is
 * finite; a dimension with neither side checked is skipped, so its
 * values (NaN included) never matter.  A checked row passes when
 * ``x > low && x <= high`` in IEEE arithmetic: NaN fails every checked
 * dimension, -0.0 equals 0.0.  Build without -ffast-math, which would
 * drop these rules.
 *
 * Outputs, per window in window order:
 *   ids        rowids[p] for each passing row position p, positions
 *              ascending, packed one window after another (capacity:
 *              the sum of lens); a window's positions are mapped to
 *              rowids while they are still in cache;
 *   counts     how many ids the window wrote;
 *   scanned    the work charge of the reference kernel: the full window
 *              for the first checked dimension, then the rows that
 *              passed every earlier checked dimension.
 * Returns the total number of ids written, or -1 when n_dims is out of
 * range.
 *
 * Rows are evaluated branch-free: every checked dimension is compared
 * for every row, and a row's position is always stored but only kept
 * when it passed.  Windows checking one to four dimensions compare two
 * rows per step with GCC/Clang vector extensions (SSE2 on x86-64, NEON
 * on AArch64, scalar code elsewhere); more dimensions use the scalar
 * loop, which computes the same positions and charges.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define MAX_DIMS 64
#define LANES 2

typedef double f64v __attribute__((vector_size(8 * LANES)));
typedef int64_t i64v __attribute__((vector_size(8 * LANES)));

typedef struct {
    const double *values; /* column pointer, already offset to the window */
    double low;           /* -inf when the low side is not checked */
    double high;          /* +inf when the high side is not checked */
    int skip_low;         /* 1 when the low side is not checked */
} dim_test;

typedef int64_t (*scan_fn)(const dim_test *, int64_t, int64_t, int64_t *,
                           int64_t *);

static inline int passes(const dim_test *test, int64_t row)
{
    double x = test->values[row];
    return ((x > test->low) | test->skip_low) & (x <= test->high);
}

/* One window with NC checked dimensions, LANES rows per step.  A lane of
 * ``keep`` is -1 while its row passes, so subtracting it counts
 * survivors; ``alive[k]`` sums the rows still alive when dimension k is
 * compared, which is the charge for that dimension.  Leftover rows take
 * the scalar loop.  NC is a constant so the dimension loops unroll and
 * the bounds stay in registers. */
#define DEFINE_SCAN(NAME, NC)                                             \
    static int64_t NAME(const dim_test *tests, int64_t start,             \
                        int64_t len, int64_t *out, int64_t *charge)       \
    {                                                                     \
        f64v low[NC], high[NC];                                           \
        i64v skip_low[NC], alive[NC];                                     \
        for (int k = 0; k < NC; ++k) {                                    \
            for (int lane = 0; lane < LANES; ++lane) {                    \
                low[k][lane] = tests[k].low;                              \
                high[k][lane] = tests[k].high;                            \
                skip_low[k][lane] = -(int64_t)tests[k].skip_low;          \
                alive[k][lane] = 0;                                       \
            }                                                             \
        }                                                                 \
        const i64v none = {0}, all = none - 1;                            \
        int64_t kept = 0, i = 0, total = 0;                               \
        for (; i + LANES <= len; i += LANES) {                            \
            i64v keep = all;                                              \
            for (int k = 0; k < NC; ++k) {                                \
                f64v x;                                                   \
                memcpy(&x, tests[k].values + i, sizeof x);                \
                alive[k] += keep;                                         \
                keep &= ((x > low[k]) | skip_low[k]) & (x <= high[k]);    \
            }                                                             \
            for (int lane = 0; lane < LANES; ++lane) {                    \
                out[kept] = start + i + lane;                             \
                kept -= keep[lane];                                       \
            }                                                             \
        }                                                                 \
        for (int k = 0; k < NC; ++k)                                      \
            for (int lane = 0; lane < LANES; ++lane)                      \
                total -= alive[k][lane];                                  \
        for (; i < len; ++i) {                                            \
            int keep = 1;                                                 \
            for (int k = 0; k < NC; ++k) {                                \
                total += keep;                                            \
                keep &= passes(&tests[k], i);                             \
            }                                                             \
            out[kept] = start + i;                                        \
            kept += keep;                                                 \
        }                                                                 \
        *charge = total;                                                  \
        return kept;                                                      \
    }

DEFINE_SCAN(scan_1, 1)
DEFINE_SCAN(scan_2, 2)
DEFINE_SCAN(scan_3, 3)
DEFINE_SCAN(scan_4, 4)
static const scan_fn scans[] = {scan_1, scan_2, scan_3, scan_4};

static int64_t scan_any(const dim_test *tests, int n_checked, int64_t start,
                        int64_t len, int64_t *out, int64_t *charge)
{
    int64_t kept = 0, survivors[MAX_DIMS] = {0};
    for (int64_t i = 0; i < len; ++i) {
        int keep = 1;
        for (int k = 0; k < n_checked; ++k) {
            survivors[k] += keep;
            keep &= passes(&tests[k], i);
        }
        out[kept] = start + i;
        kept += keep;
    }
    int64_t total = 0;
    for (int k = 0; k < n_checked; ++k)
        total += survivors[k];
    *charge = total;
    return kept;
}

int64_t repro_scan_windows(const double *const *columns, int64_t n_dims,
                           const int64_t *starts, const int64_t *lens,
                           int64_t n_windows, const double *lows,
                           const double *highs, const int64_t *rowids,
                           int64_t *ids, int64_t *counts, int64_t *scanned)
{
    dim_test tests[MAX_DIMS];
    int64_t written = 0;
    if (n_dims < 0 || n_dims > MAX_DIMS)
        return -1;
    for (int64_t w = 0; w < n_windows; ++w) {
        int64_t start = starts[w], len = lens[w], kept, charge = 0;
        int64_t *out = ids + written;
        int n_checked = 0;
        for (int64_t d = 0; d < n_dims; ++d) {
            double low = lows[d * n_windows + w];
            double high = highs[d * n_windows + w];
            int check_low = isfinite(low), check_high = isfinite(high);
            if (!check_low && !check_high)
                continue;
            dim_test *test = &tests[n_checked++];
            test->values = columns[d] + start;
            test->low = check_low ? low : -INFINITY;
            test->high = check_high ? high : INFINITY;
            test->skip_low = !check_low;
        }
        if (n_checked == 0) {
            for (int64_t i = 0; i < len; ++i)
                out[i] = start + i;
            kept = len;
        } else if (n_checked <= 4) {
            kept = scans[n_checked - 1](tests, start, len, out, &charge);
        } else {
            kept = scan_any(tests, n_checked, start, len, out, &charge);
        }
        for (int64_t j = 0; j < kept; ++j)
            out[j] = rowids[out[j]];
        counts[w] = kept;
        scanned[w] = charge;
        written += kept;
    }
    return written;
}
