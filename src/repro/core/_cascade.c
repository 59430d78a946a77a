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
 *   - the generator is numpy's PCG64 (_pcg64.h) and a uniform is
 *     numpy's random().
 *
 * The frontier lives in the activation matrix itself, so the kernel
 * allocates nothing: 0 inactive, 1 active and expanded, and FRONTIER or
 * FRONTIER ^ 1 for the nodes a level expands or the next level will.
 * A node fires at most once per level, from an inactive state, which is
 * the reference's OR of the level's fired edges masked by the
 * activations the level started with.  On return every entry is 0 or 1.
 */

#include <stdint.h>

#include "_pcg64.h"

#define FRONTIER 2

/*
 * Run the R realisations in `active` ((R, n), 0/1, seeded) to
 * completion in place.  `p` is the (n, n) activation probability
 * matrix; `rng` holds the PCG64 state (hi, lo) and increment (hi, lo),
 * and the state is advanced in place.
 */
void cold_ic_cascade(const double *p, int64_t n, uint8_t *active, int64_t R,
                     uint64_t *rng)
{
    pcg64 g = pcg64_load(rng);
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
                    const uint8_t hit = (pcg64_next_double(&g) < pu[v]) & !row[v];
                    row[v] |= (uint8_t)(-hit & (level ^ 1));
                    fired += hit;
                }
                row[u] = 1;
            }
        }
    }
    pcg64_store(&g, rng);
}
