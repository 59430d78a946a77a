/*
 * Native Independent Cascade kernel (paper Sec. 6.6, Fig. 16).
 *
 * Built into the same library as _sweep.c by repro.core.fastgibbs and
 * called by repro.core.influence: cold_ic_cascade runs every IC
 * realisation in the rows of an (R, n) activation matrix to completion,
 * drawing exactly the uniforms the numpy reference kernel
 * (_batched_cascade) draws, in the same order, from the same PCG64
 * stream:
 *   - per BFS level, rows ascending, each row's frontier nodes
 *     ascending, one uniform per target 0..n-1 (the reference's
 *     row-major draw blocks); edge u -> v fires when its uniform is
 *     below p[u, v];
 *   - the generator is numpy's PCG64 (128-bit LCG, XSL-RR output) and a
 *     uniform is (next64 >> 11) * 2^-53, numpy's random().
 *
 * The frontier lives in the activation matrix itself, so the kernel
 * allocates nothing: 0 inactive, 1 active and expanded, and FRONTIER or
 * FRONTIER ^ 1 for the nodes a level expands or the next level will.
 * A node fires at most once per level, from an inactive state, which is
 * the reference's OR of the level's fired edges masked by the
 * activations the level started with.  On return every entry is 0 or 1.
 */

#include <stdint.h>

#define FRONTIER 2

/* numpy's PCG64: the 128-bit multiplier and the state as two halves. */
static const uint64_t MULT_HI = 0x2360ed051fc65da4ULL;
static const uint64_t MULT_LO = 0x4385df649fccf645ULL;

typedef struct {
    uint64_t hi, lo, inc_hi, inc_lo;
} pcg64;

/* The high 64 bits of a * b. */
static uint64_t mulhi(uint64_t a, uint64_t b)
{
#ifdef __SIZEOF_INT128__
    return (uint64_t)(((unsigned __int128)a * b) >> 64);
#else
    const uint64_t a0 = a & 0xffffffffULL, a1 = a >> 32;
    const uint64_t b0 = b & 0xffffffffULL, b1 = b >> 32;
    const uint64_t mid = (a0 * b0 >> 32) + (a1 * b0 & 0xffffffffULL) + a0 * b1;
    return a1 * b1 + (a1 * b0 >> 32) + (mid >> 32);
#endif
}

/* numpy's random(): step the LCG, XSL-RR the new state, keep 53 bits. */
static double next_double(pcg64 *g)
{
    const uint64_t lo = g->lo * MULT_LO + g->inc_lo;
    g->hi = g->hi * MULT_LO + g->lo * MULT_HI + mulhi(g->lo, MULT_LO)
            + g->inc_hi + (lo < g->inc_lo);
    g->lo = lo;
    const uint64_t x = g->hi ^ g->lo;
    const unsigned rot = (unsigned)(g->hi >> 58);
    const uint64_t out = (x >> rot) | (x << ((64u - rot) & 63u));
    return (double)(out >> 11) * (1.0 / 9007199254740992.0);
}

/*
 * Run the R realisations in `active` ((R, n), 0/1, seeded) to
 * completion in place.  `p` is the (n, n) activation probability
 * matrix; `rng` holds the PCG64 state (hi, lo) and increment (hi, lo),
 * and the state is advanced in place.
 */
void cold_ic_cascade(const double *p, int64_t n, uint8_t *active, int64_t R,
                     uint64_t *rng)
{
    pcg64 g = {rng[0], rng[1], rng[2], rng[3]};
    uint8_t level = FRONTIER;
    for (int64_t i = 0; i < R * n; ++i)
        if (active[i])
            active[i] = level;
    for (int64_t fired = 1; fired; level ^= 1) {
        fired = 0;
        for (int64_t r = 0; r < R; ++r) {
            uint8_t *row = active + r * n;
            for (int64_t u = 0; u < n; ++u) {
                if (row[u] != level)
                    continue;
                const double *pu = p + u * n;
                /* Branch-free: whether an edge fires is a coin flip. */
                for (int64_t v = 0; v < n; ++v) {
                    const uint8_t hit = (next_double(&g) < pu[v]) & !row[v];
                    row[v] |= (uint8_t)(-hit & (level ^ 1));
                    fired += hit;
                }
                row[u] = 1;
            }
        }
    }
    rng[0] = g.hi;
    rng[1] = g.lo;
}
