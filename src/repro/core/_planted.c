/*
 * Native draws of the planted COLD process (Algorithm 1, steps 3(b)-(c)).
 *
 * Built into the same library as _sweep.c by repro.core.fastgibbs and
 * called by repro.datasets.synthetic: cold_planted_posts and
 * cold_planted_links run the reference loop synthetic._planted_draws
 * over a range of users, drawing exactly what it draws, in the same
 * order, from the same PCG64 stream (_pcg64.h):
 *   - a uniform is numpy's random(); a categorical draw is the right
 *     searchsorted of one uniform over a row of the CDF tables that
 *     synthetic._choice_cdfs builds (the count of entries <= u);
 *   - a Poisson draw is numpy's random_poisson: multiplication of
 *     uniforms below lam = 10, Hoermann's PTRS (with numpy's
 *     random_loggam) from lam = 10, and no draw at lam = 0.
 *
 * Output is columnar, into caller-owned buffers.  A user whose draws
 * do not fit the remaining capacity is rewound (generator state and
 * columns alike) and the call returns early, so the caller can drain
 * the columns and continue from that user.  Only libm's exp, log,
 * sqrt and floor are used, as numpy's own C distributions use them.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#include "_pcg64.h"

/* The count of entries of the sorted row cdf[0..n) that are <= u. */
static int64_t search_right(const double *cdf, int64_t n, double u)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (cdf[mid] <= u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* numpy's random_loggam: log-gamma by Stirling's series. */
static double loggam(double x)
{
    static const double a[10] = {
        8.333333333333333e-02, -2.777777777777778e-03,
        7.936507936507937e-04, -5.952380952380952e-04,
        8.417508417508418e-04, -1.917526917526918e-03,
        6.410256410256410e-03, -2.955065359477124e-02,
        1.796443723688307e-01, -1.39243221690590e+00,
    };
    int64_t n = 0;
    if (x == 1.0 || x == 2.0)
        return 0.0;
    if (x < 7.0)
        n = (int64_t)(7 - x);
    double x0 = x + n;
    const double x2 = (1.0 / x0) * (1.0 / x0);
    const double lg2pi = 1.8378770664093453e+00;
    double gl0 = a[9];
    for (int k = 8; k >= 0; --k) {
        gl0 *= x2;
        gl0 += a[k];
    }
    double gl = gl0 / x0 + 0.5 * lg2pi + (x0 - 0.5) * log(x0) - x0;
    if (x < 7.0) {
        for (int64_t k = 1; k <= n; ++k) {
            gl -= log(x0 - 1.0);
            x0 -= 1.0;
        }
    }
    return gl;
}

/* numpy's random_poisson. */
static int64_t poisson(pcg64 *g, double lam)
{
    if (lam >= 10) {
        /* PTRS: W. Hoermann, Insurance: Math. and Econ. 12, 39-45 (1993). */
        const double slam = sqrt(lam);
        const double loglam = log(lam);
        const double b = 0.931 + 2.53 * slam;
        const double a = -0.059 + 0.02483 * b;
        const double invalpha = 1.1239 + 1.1328 / (b - 3.4);
        const double vr = 0.9277 - 3.6224 / (b - 2);
        for (;;) {
            const double U = pcg64_next_double(g) - 0.5;
            const double V = pcg64_next_double(g);
            const double us = 0.5 - fabs(U);
            const int64_t k = (int64_t)floor((2 * a / us + b) * U + lam + 0.43);
            if (us >= 0.07 && V <= vr)
                return k;
            if (k < 0 || (us < 0.013 && V > us))
                continue;
            if (log(V) + log(invalpha) - log(a / (us * us) + b)
                <= -lam + k * loglam - loggam(k + 1))
                return k;
        }
    }
    if (lam == 0)
        return 0;
    const double enlam = exp(-lam);
    int64_t x = 0;
    for (double prod = 1.0;; ++x) {
        prod *= pcg64_next_double(g);
        if (!(prod > enlam))
            return x;
    }
}

/*
 * The posts pass for users [user, user_end).  `pi` is (U, C), `theta`
 * (C, K), `phi` (K, V) and `psi` (K, C, T), all row CDFs.  Each user
 * draws max(1, Poisson(mean_posts)) posts' communities, then per post
 * a topic, max(1, Poisson(mean_words)) words and a time slice.  Posts
 * go to the columns authors..lengths (capacity post_cap) and their
 * words to `words` (capacity word_cap); `filled` holds the posts and
 * words written.  Returns the first user not drawn.
 */
int64_t cold_planted_posts(const double *pi, const double *theta,
                           const double *phi, const double *psi, int64_t C,
                           int64_t K, int64_t V, int64_t T, double mean_posts,
                           double mean_words, int64_t user, int64_t user_end,
                           uint64_t *rng, int64_t *authors, int64_t *times,
                           int64_t *comms, int64_t *topics, int64_t *lengths,
                           int64_t post_cap, int64_t *words, int64_t word_cap,
                           int64_t *filled)
{
    pcg64 g = pcg64_load(rng);
    int64_t posts = 0, tokens = 0;
    for (; user < user_end; ++user) {
        const pcg64 start = g;
        int64_t num_posts = poisson(&g, mean_posts);
        if (num_posts < 1)
            num_posts = 1;
        int fits = posts + num_posts <= post_cap;
        int64_t used = tokens;
        for (int64_t j = 0; fits && j < num_posts; ++j)
            comms[posts + j] = search_right(pi + user * C, C, pcg64_next_double(&g));
        for (int64_t j = 0; fits && j < num_posts; ++j) {
            const int64_t p = posts + j, c = comms[p];
            const int64_t k = search_right(theta + c * K, K, pcg64_next_double(&g));
            int64_t length = poisson(&g, mean_words);
            if (length < 1)
                length = 1;
            if (used + length > word_cap) {
                fits = 0;
                break;
            }
            for (int64_t i = 0; i < length; ++i)
                words[used + i] = search_right(phi + k * V, V, pcg64_next_double(&g));
            used += length;
            times[p] = search_right(psi + (k * C + c) * T, T, pcg64_next_double(&g));
            authors[p] = user;
            topics[p] = k;
            lengths[p] = length;
        }
        if (!fits) {
            g = start;
            break;
        }
        posts += num_posts;
        tokens = used;
    }
    pcg64_store(&g, rng);
    filled[0] = posts;
    filled[1] = tokens;
    return user;
}

static int compare_int64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/*
 * The links pass for users [user, user_end).  Each user draws
 * Poisson(mean_links) links: a source community from `pi` ((U, C)), a
 * destination community from `eta` ((C, C)), then a target from
 * `targets` ((C, U)), all row CDFs.  The user's sorted set of targets
 * other than itself goes to (srcs, dsts) (capacity link_cap); `filled`
 * holds the links written.  Returns the first user not drawn.
 */
int64_t cold_planted_links(const double *pi, const double *eta,
                           const double *targets, int64_t C, int64_t U,
                           double mean_links, int64_t user, int64_t user_end,
                           uint64_t *rng, int64_t *srcs, int64_t *dsts,
                           int64_t link_cap, int64_t *filled)
{
    pcg64 g = pcg64_load(rng);
    int64_t links = 0;
    for (; user < user_end; ++user) {
        const pcg64 start = g;
        const int64_t n = poisson(&g, mean_links);
        if (links + n > link_cap) {
            g = start;
            break;
        }
        int64_t *drawn = dsts + links;
        for (int64_t j = 0; j < n; ++j) {
            const int64_t s = search_right(pi + user * C, C, pcg64_next_double(&g));
            const int64_t c = search_right(eta + s * C, C, pcg64_next_double(&g));
            drawn[j] = search_right(targets + c * U, U, pcg64_next_double(&g));
        }
        qsort(drawn, (size_t)n, sizeof *drawn, compare_int64);
        int64_t kept = 0;
        for (int64_t j = 0; j < n; ++j)
            if (drawn[j] != user && (kept == 0 || drawn[kept - 1] != drawn[j]))
                drawn[kept++] = drawn[j];
        for (int64_t j = 0; j < kept; ++j)
            srcs[links + j] = user;
        links += kept;
    }
    pcg64_store(&g, rng);
    filled[0] = links;
    return user;
}
