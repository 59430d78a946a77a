/*
 * Native collapsed-Gibbs sweep kernel for COLD (paper Eqs. 1-3).
 *
 * Built at first use by repro.core.fastgibbs (`cc -O3 -march=native`,
 * loaded with ctypes) and driven one sweep at a time: cold_sweep_posts
 * walks the post visitation order (community by Eq. 1, then topic by
 * Eq. 3), cold_sweep_links the link order (Eq. 2).  Both read the
 * CountState counters and the PostTable CSR columns in place, mutate
 * counters and assignments exactly like CountState.move_post /
 * remove_link+add_link, and patch the SweepCache factors a move
 * invalidates.
 *
 * Exactness rules (see the fastgibbs module docstring):
 *   - every log has an integer+constant argument and is read from a
 *     table that np.log built (log_beta[n] == np.log(n + beta), ...);
 *   - sums reproduce numpy's, whose order follows the array's layout:
 *     pairwise_sum (below) along a contiguous axis, strictly sequential
 *     across a strided one; running sums are sequential;
 *   - no expression is contracted into an FMA: the loader passes
 *     -ffp-contract=off and never -ffast-math, so a vectorised loop only
 *     runs the reference's operations side by side, one topic a lane;
 *   - exp is libm's, which may differ from np.exp by one ULP.
 *
 * Two exact shortcuts in the Eq. (3) topic draw skip work whose outcome
 * is already settled; neither changes a draw, a counter or the RNG.
 *   - Polya denominators: every topic's window sum at its live token
 *     total depends only on the post length L and the totals, so it is
 *     cached per L (den_rows) and stamped with den_epoch, which every
 *     topic-total change bumps; a bind or refresh starts fresh stamps.
 *     A post recomputes only its own topic's removed window.
 *   - Certain draws (topic_certificate): with a unique finite arg max t,
 *     w[t] = exp(0) = 1 exactly and every other floored weight is at
 *     most b = max(exp(runner-up - max) (1 + 2^-50), floor), which
 *     covers libm's < 1 ULP error (the subtraction and true exp are
 *     monotone).  Write eps = 2^-53 and d = K 2^-50 = 8 K eps.  The
 *     total is at least 1 (adding non-negative terms to 1 never rounds
 *     below 1), so key = fl(u total) >= u; the running sum before t adds
 *     t terms <= b in t roundings, at most t b (1 + eps)^t <= t b (1 + d)
 *     after the bound's own two roundings; so u >= t b (1 + d) reaches
 *     t.  The total is at most (1 + (K - 1) b)(1 + eps)^K; so
 *     u < 1 - 2 K b - d (three roundings of at most eps) keeps
 *     u total <= 1 - (K + 1) b - 8 K eps + 3 eps + 1.01 K eps < 1 - eps,
 *     which rounds below 1 <= the running sum at t: the scan stops at t.
 *     Such a draw takes t and skips the K exps, the floor, the total
 *     and the scan; every other u runs the full draw below.
 *
 * Uniforms come in pre-drawn (u, one per draw).  A degenerate draw
 * (non-finite or non-positive weight total) is never resolved here: the
 * kernel leaves the state as it was before that draw and returns the
 * draw's index, and the caller replays the RNG, draws the uniform
 * fallback with rng.integers and resumes with it as `forced`.
 */

#define _POSIX_C_SOURCE 199309L

#include <math.h>
#include <stdint.h>
#include <time.h>

typedef struct {
    int64_t C, K, T, V, D, E; /* D posts and E links in the corpus */
    int64_t timed;     /* nonzero: time split items into phase_s */
    int64_t pending_c; /* out: community drawn before a degenerate topic draw */
    int64_t den_epoch; /* bumped on every topic-total change */
    double rho, alpha, epsilon, lambda0, lambda1, K_alpha, T_eps, floor;
    /* PostTable columns and the (E, 2) link array (read only) */
    const int64_t *authors, *times, *lengths, *offsets, *words, *counts;
    const int64_t *links;
    /* CountState counters and assignments (mutated) */
    int64_t *n_user_comm, *n_comm_topic, *n_ctt, *n_topic_word;
    int64_t *n_topic_total, *n_link_comm;
    int64_t *post_comm, *post_topic, *link_src_comm, *link_dst_comm;
    /* SweepCache factors (mutated) and log tables (read only) */
    int64_t *n_comm_total, *word_topic;
    int64_t *den_stamp; /* per post length: den_epoch its row was built at */
    double *base, *link_factor;
    const double *log_beta, *log_alpha, *log_T_eps, *log_eps, *log_V_beta;
    /* Polya denominator rows, (max length + 1) x K */
    double *den_rows;
    /* scratch: 3 * max(C * C, K) + max unique words per post */
    double *scratch;
    /* split items' seconds: posts resample/draw/update, then links' */
    double phase_s[6];
} cold_sweep_ctx;

int64_t cold_sweep_ctx_size(void) { return (int64_t)sizeof(cold_sweep_ctx); }

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/*
 * Phase timing.  A timed call reads the clock only within every
 * SPLIT_STRIDE-th item (post or link, in visitation order), at its start
 * and at each of its phase boundaries; the caller scales these split
 * items' phase seconds up to the wall time it measured around the call.
 * A clock read at every phase boundary of every item would cost a
 * sizeable fraction of a ~3 us post.
 */
#define SPLIT_STRIDE 16

/* Charge the time since the previous lap to slot `slot`. */
static void lap(cold_sweep_ctx *x, double *last, int slot)
{
    const double t = now();
    x->phase_s[slot] += t - *last;
    *last = t;
}

/* numpy's pairwise_sum for float64: sequential below 8 elements, eight
 * accumulators up to a block of 128, halving (at multiples of 8) above. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* np.add.reduce of a 1-D float64 array (and of each row of a 2-D one):
 * the identity, plus the pairwise sum of every element. */
static double reduce_sum(const double *a, int64_t n)
{
    return 0. + pairwise_sum(a, n);
}

/* Every topic's sum of table[rows[words[j] * K + k] + q] over word j,
 * then q < counts[j] ascending, added strictly left to right to 0. */
static void word_sums(const double *table, const int64_t *rows,
                      const int64_t *words, const int64_t *counts, int64_t K,
                      int64_t W, double *restrict out)
{
    for (int64_t k = 0; k < K; k++)
        out[k] = 0.;
    for (int64_t j = 0; j < W; j++) {
        const int64_t *restrict row = rows + words[j] * K;
        for (int64_t q = 0; q < counts[j]; q++) {
            const double *restrict tab = table + q;
            for (int64_t k = 0; k < K; k++)
                out[k] += tab[row[k]];
        }
    }
}

/* np.maximum(x, floor) elementwise, NaN propagating. */
static void floor_weights(double *w, int64_t n, double floor)
{
    for (int64_t i = 0; i < n; i++)
        if (!(w[i] >= floor || isnan(w[i])))
            w[i] = floor;
}

/* gibbs.categorical_checked's draw for finite positive `total`:
 * searchsorted(cumsum(w), u * total, side="right"), clamped to n - 1.
 * Every weight is positive, so the running sum never decreases and the
 * first prefix above the key ends one left-to-right scan. */
static int64_t categorical(const double *w, int64_t n, double total, double u)
{
    const double key = u * total;
    double run = w[0];
    int64_t i = 0;
    while (run <= key && i < n - 1)
        run += w[++i];
    return i;
}

/* Every order entry in [start, n) indexes one of `size` items. */
static int in_range(const int64_t *order, int64_t start, int64_t n,
                    int64_t size)
{
    for (int64_t i = start; i < n; i++)
        if (order[i] < 0 || order[i] >= size)
            return 0;
    return 1;
}

static int degenerate(double total) { return !(isfinite(total) && total > 0.0); }

/* Refresh the Eq. (3) base row of cell (c, k) after n_ck or n_ckt moved. */
static void touch_cell(cold_sweep_ctx *x, int64_t c, int64_t k)
{
    const int64_t K = x->K, T = x->T, ck = c * K + k;
    const int64_t n_ck = x->n_comm_topic[ck];
    const double interest = x->log_alpha[n_ck];
    const double denom = x->log_T_eps[n_ck];
    const int64_t *n_ckt = x->n_ctt + ck * T;
    double *base = x->base + c * T * K + k;
    for (int64_t t = 0; t < T; t++)
        base[t * K] = interest + (x->log_eps[n_ckt[t]] - denom);
}

/* Eq. (2)'s cached occupation factor of community pair cell `cc`. */
static void touch_link_cell(cold_sweep_ctx *x, int64_t cc)
{
    const double n = (double)x->n_link_comm[cc];
    x->link_factor[cc] = (n + x->lambda1) / ((n + x->lambda0) + x->lambda1);
}

/* Polya denominator of every topic at its live token total for posts of
 * length L: log(n_k + o + V beta), o = 0 .. L - 1, a contiguous window of
 * the table, summed pairwise as the reference's row-major (K, L) matrix
 * is.  Rebuilt only when a topic total moved since it was stamped.  The
 * table reaches the tokens plus the longest post, so the window of the
 * topic that holds the post (never read from the row) stays inside it. */
static const double *polya_row(cold_sweep_ctx *x, int64_t L)
{
    const int64_t K = x->K;
    double *row = x->den_rows + L * K;
    if (x->den_stamp[L] != x->den_epoch) {
        for (int64_t k = 0; k < K; k++)
            row[k] = reduce_sum(x->log_V_beta + x->n_topic_total[k], L);
        x->den_stamp[L] = x->den_epoch;
    }
    return row;
}

/*
 * Eq. (3)'s unnormalised log weights over topics for post p in
 * community c, with the post removed: its own counts come out of old_k's
 * word-topic column for the numerator (and go back after), so every
 * topic's term is the same gather, and old_k's Polya window starts at
 * its removed total.  Uses the scratch rows after the first.
 */
static void topic_log_weights(cold_sweep_ctx *x, int64_t p, int64_t c,
                              double *lw)
{
    const int64_t C = x->C, K = x->K, T = x->T;
    const int64_t wide = C * C > K ? C * C : K;
    double *num = x->scratch + wide, *terms = num + wide;
    const int64_t old_c = x->post_comm[p], old_k = x->post_topic[p];
    const int64_t t = x->times[p];
    const double *base = x->base + (c * T + t) * K;
    const int64_t lo = x->offsets[p], W = x->offsets[p + 1] - lo;
    const int64_t L = x->lengths[p];
    const int64_t *words = x->words + lo, *counts = x->counts + lo;
    int distinct = 1;
    for (int64_t j = 0; j < W; j++) {
        x->word_topic[words[j] * K + old_k] -= counts[j];
        if (counts[j] != 1)
            distinct = 0;
    }
    if (distinct && K == 1) {
        /* Reference: log(n^v + beta) reduced over one contiguous row,
         * in pairwise order. */
        for (int64_t j = 0; j < W; j++)
            terms[j] = x->log_beta[x->word_topic[words[j]]];
        num[0] = reduce_sum(terms, W);
    } else {
        /* Reference: word j, then q ascending, added left to right to
         * zeros.  A distinct-word post's (K, W) matrix, gathered by
         * fancy indexing, is column-major, so its row sums run in this
         * order too. */
        word_sums(x->log_beta, x->word_topic, words, counts, K, W, num);
    }
    for (int64_t j = 0; j < W; j++)
        x->word_topic[words[j] * K + old_k] += counts[j];
    const double *den = polya_row(x, L);
    const double den_old =
        reduce_sum(x->log_V_beta + (x->n_topic_total[old_k] - L), L);
    for (int64_t k = 0; k < K; k++)
        lw[k] = (base[k] + num[k]) - den[k];
    /* The cached base row still counts the post in its own cell. */
    double base_old = base[old_k];
    if (c == old_c) {
        const int64_t ck = old_c * K + old_k;
        const int64_t n_ck = x->n_comm_topic[ck] - 1;
        const int64_t n_ckt = x->n_ctt[ck * T + t] - 1;
        base_old = x->log_alpha[n_ck] +
                   (x->log_eps[n_ckt] - x->log_T_eps[n_ck]);
    }
    lw[old_k] = (base_old + num[old_k]) - den_old;
}

/*
 * A certain topic draw: when the log weights lw have a unique finite arg
 * max t, bounds[0..1] get the uniforms [lo, hi) for which the full draw
 * below provably returns t (see the header for the margins), and t is
 * returned; otherwise -1.
 */
static int64_t topic_certificate(const double *lw, int64_t K, double floor,
                                 double *bounds)
{
    double first = lw[0], second = -INFINITY;
    int64_t t = 0;
    if (!isfinite(first))
        return -1;
    for (int64_t k = 1; k < K; k++) {
        const double v = lw[k];
        if (!isfinite(v))
            return -1;
        if (v > first) {
            second = first;
            first = v;
            t = k;
        } else if (v > second) {
            second = v;
        }
    }
    if (second == first)
        return -1;
    const double slack = (double)K * 0x1p-50;
    double b = exp(second - first) * (1.0 + 0x1p-50);
    if (!(b >= floor))
        b = floor;
    bounds[0] = (double)t * b * (1.0 + slack);
    bounds[1] = (1.0 - 2.0 * (double)K * b) - slack;
    return t;
}

/*
 * Eq. (3)'s topic draw with uniform u: the index categorical_checked
 * draws from max(exp(lw - max lw), floor), or -1 when their total is
 * degenerate.  A certain draw returns at once; otherwise lw is
 * overwritten with the weights.  A split item (x non-NULL) charges the
 * weights to resample and the rest to draw.
 */
static int64_t draw_topic(cold_sweep_ctx *x, int split, double *last,
                          double *lw, int64_t K, double u, double floor)
{
    double bounds[2];
    const int64_t sure = topic_certificate(lw, K, floor, bounds);
    if (sure >= 0 && u >= bounds[0] && u < bounds[1]) {
        if (split) {
            lap(x, last, 0);
            lap(x, last, 1);
        }
        return sure;
    }
    double top = lw[0];
    for (int64_t k = 1; k < K; k++)
        if (!(top >= lw[k] || isnan(top)))
            top = lw[k];
    for (int64_t k = 0; k < K; k++)
        lw[k] = exp(lw[k] - top);
    floor_weights(lw, K, floor);
    if (split)
        lap(x, last, 0);
    const double total = reduce_sum(lw, K);
    const int64_t k = degenerate(total) ? -1 : categorical(lw, K, total, u);
    if (split)
        lap(x, last, 1);
    return k;
}

/*
 * Resample posts order[draw / 2 .. n).  Draw 2i is post i's community,
 * draw 2i + 1 its topic.  `forced` (>= 0) is the value of draw `draw`
 * (a degenerate draw's uniform fallback); when `draw` is odd,
 * `pending_c` is the community post draw / 2 already drew.  Returns -1
 * when done, -2 (having changed nothing) when one of those entries is
 * not a post, else the index of a degenerate draw (nothing of that post has
 * been applied).
 */
int64_t cold_sweep_posts(cold_sweep_ctx *x, const int64_t *order, int64_t n,
                         int64_t draw, int64_t forced, int64_t pending_c,
                         const double *u)
{
    const int64_t C = x->C, K = x->K, T = x->T, V = x->V;
    double *w = x->scratch;
    if (!in_range(order, draw >> 1, n, x->D))
        return -2;
    double last = 0.;
    int64_t c_known = (draw & 1) ? pending_c : forced;
    int64_t k_known = (draw & 1) ? forced : -1;

    for (int64_t i = draw >> 1; i < n; i++) {
        const int64_t p = order[i];
        const int64_t old_c = x->post_comm[p], old_k = x->post_topic[p];
        const int64_t t = x->times[p], a = x->authors[p];
        const int64_t ck_old = old_c * K + old_k;
        /* Virtual removal: the post's own counts perturb only the
         * entries indexed by its current assignment. */
        const int64_t n_ck = x->n_comm_topic[ck_old] - 1;
        const int64_t n_ckt = x->n_ctt[ck_old * T + t] - 1;
        const int split = x->timed && i % SPLIT_STRIDE == 0;
        int64_t new_c, new_k;

        if (split)
            last = now();
        if (c_known >= 0) {
            new_c = c_known;
        } else {
            /* Eq. (1) over communities, live counters. */
            const int64_t *nuc = x->n_user_comm + a * C;
            for (int64_t c = 0; c < C; c++) {
                const int64_t ck = c * K + old_k;
                const double nc = (double)x->n_comm_topic[ck];
                double weight = (double)nuc[c] + x->rho;
                weight *= (nc + x->alpha) /
                          ((double)x->n_comm_total[c] + x->K_alpha);
                weight *= ((double)x->n_ctt[ck * T + t] + x->epsilon) /
                          (nc + x->T_eps);
                w[c] = weight;
            }
            w[old_c] = (((double)(nuc[old_c] - 1) + x->rho) *
                        (((double)n_ck + x->alpha) /
                         ((double)(x->n_comm_total[old_c] - 1) + x->K_alpha))) *
                       (((double)n_ckt + x->epsilon) /
                        ((double)n_ck + x->T_eps));
            floor_weights(w, C, x->floor);
            if (split)
                lap(x, &last, 0);
            const double total = reduce_sum(w, C);
            if (degenerate(total)) {
                if (split)
                    lap(x, &last, 1);
                return 2 * i;
            }
            new_c = categorical(w, C, total, *u++);
            if (split)
                lap(x, &last, 1);
        }

        if (k_known >= 0) {
            new_k = k_known;
        } else {
            /* Eq. (3) over topics with the post removed. */
            topic_log_weights(x, p, new_c, w);
            new_k = draw_topic(x, split, &last, w, K, *u, x->floor);
            if (new_k < 0) {
                x->pending_c = new_c;
                return 2 * i + 1;
            }
            u++;
        }
        c_known = k_known = -1;

        if (new_c != old_c || new_k != old_k) {
            /* CountState.move_post's net deltas, then the cache patches. */
            const int64_t ck_new = new_c * K + new_k;
            x->post_comm[p] = new_c;
            x->post_topic[p] = new_k;
            if (new_c != old_c) {
                x->n_user_comm[a * C + old_c] -= 1;
                x->n_user_comm[a * C + new_c] += 1;
                x->n_comm_total[old_c] -= 1;
                x->n_comm_total[new_c] += 1;
            }
            x->n_comm_topic[ck_old] -= 1;
            x->n_comm_topic[ck_new] += 1;
            x->n_ctt[ck_old * T + t] -= 1;
            x->n_ctt[ck_new * T + t] += 1;
            if (new_k != old_k) {
                const int64_t lo = x->offsets[p], hi = x->offsets[p + 1];
                for (int64_t j = lo; j < hi; j++) {
                    const int64_t v = x->words[j], m = x->counts[j];
                    x->n_topic_word[old_k * V + v] -= m;
                    x->n_topic_word[new_k * V + v] += m;
                    x->word_topic[v * K + old_k] -= m;
                    x->word_topic[v * K + new_k] += m;
                }
                x->n_topic_total[old_k] -= x->lengths[p];
                x->n_topic_total[new_k] += x->lengths[p];
                x->den_epoch++;
            }
            touch_cell(x, old_c, old_k);
            touch_cell(x, new_c, new_k);
        }
        if (split)
            lap(x, &last, 2);
    }
    return -1;
}

/*
 * Resample links order[draw .. n) by Eq. (2); `forced` (>= 0) is the
 * flat (c, c') index of link `draw`.  Returns -1 when done, -2 (having
 * changed nothing) when one of those entries is not a link, else the
 * index of a degenerate draw (that link's removal undone).
 */
int64_t cold_sweep_links(cold_sweep_ctx *x, const int64_t *order, int64_t n,
                         int64_t draw, int64_t forced, int64_t pending_c,
                         const double *u)
{
    const int64_t C = x->C, CC = C * C;
    const int64_t wide = CC > x->K ? CC : x->K;
    double *pair = x->scratch, *src_w = pair + wide, *dst_w = src_w + C;
    if (!in_range(order, draw, n, x->E))
        return -2;
    double last = 0.;
    (void)pending_c;

    for (int64_t i = draw; i < n; i++, forced = -1) {
        const int64_t e = order[i];
        const int64_t src = x->links[2 * e], dst = x->links[2 * e + 1];
        const int64_t old_c = x->link_src_comm[e], old_cp = x->link_dst_comm[e];
        const int split = x->timed && i % SPLIT_STRIDE == 0;
        int64_t flat;

        if (split)
            last = now();
        x->n_user_comm[src * C + old_c] -= 1;
        x->n_user_comm[dst * C + old_cp] -= 1;
        x->n_link_comm[old_c * C + old_cp] -= 1;
        touch_link_cell(x, old_c * C + old_cp);
        if (forced >= 0) {
            flat = forced;
        } else {
            for (int64_t c = 0; c < C; c++) {
                src_w[c] = (double)x->n_user_comm[src * C + c] + x->rho;
                dst_w[c] = (double)x->n_user_comm[dst * C + c] + x->rho;
            }
            for (int64_t c = 0; c < C; c++)
                for (int64_t cp = 0; cp < C; cp++)
                    pair[c * C + cp] =
                        (src_w[c] * dst_w[cp]) * x->link_factor[c * C + cp];
            floor_weights(pair, CC, x->floor);
            if (split)
                lap(x, &last, 3);
            const double total = reduce_sum(pair, CC);
            if (degenerate(total)) {
                x->n_user_comm[src * C + old_c] += 1;
                x->n_user_comm[dst * C + old_cp] += 1;
                x->n_link_comm[old_c * C + old_cp] += 1;
                touch_link_cell(x, old_c * C + old_cp);
                if (split)
                    lap(x, &last, 4);
                return i;
            }
            flat = categorical(pair, CC, total, *u++);
            if (split)
                lap(x, &last, 4);
        }
        const int64_t new_c = flat / C, new_cp = flat % C;
        x->n_user_comm[src * C + new_c] += 1;
        x->n_user_comm[dst * C + new_cp] += 1;
        x->n_link_comm[new_c * C + new_cp] += 1;
        touch_link_cell(x, new_c * C + new_cp);
        x->link_src_comm[e] = new_c;
        x->link_dst_comm[e] = new_cp;
        if (split)
            lap(x, &last, 5);
    }
    return -1;
}

/* Test entry points: the kernel's own sums, draw and Eq. (3) log
 * weights, so a wrong summation order or search fails a direct
 * comparison with numpy instead of showing as a rare flipped draw. */
double cold_reduce_sum(const double *a, int64_t n) { return reduce_sum(a, n); }

int64_t cold_categorical(const double *w, int64_t n, double total, double u)
{
    return categorical(w, n, total, u);
}

void cold_topic_log_weights(cold_sweep_ctx *x, int64_t p, int64_t c,
                            double *out)
{
    topic_log_weights(x, p, c, out);
}

/* The kernel's topic draw from log weights lw (overwritten): the topic,
 * or -1 for a degenerate total.  bounds gets the certificate's [lo, hi),
 * both NaN when there is none. */
int64_t cold_topic_draw(double *lw, int64_t K, double u, double floor,
                        double *bounds)
{
    if (topic_certificate(lw, K, floor, bounds) < 0)
        bounds[0] = bounds[1] = NAN;
    return draw_topic(NULL, 0, NULL, lw, K, u, floor);
}
