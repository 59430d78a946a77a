/*
 * Native Independent Cascade kernels (paper Sec. 6.6, Fig. 16).
 *
 * Built into the same library as _sweep.c by repro.core.fastgibbs and
 * called by repro.core.influence.
 *
 * cold_ic_cascade runs every IC realisation in the rows of an (R, n)
 * activation matrix to completion, drawing exactly the uniforms the
 * numpy reference kernel (_batched_cascade) draws, in the same order,
 * from the same PCG64 stream:
 *   - per BFS level, rows ascending, each row's frontier nodes
 *     ascending, one uniform per target 0..n-1 (the reference's
 *     row-major draw blocks); edge u -> v fires when its uniform is
 *     below p[u, v];
 *   - the generator is numpy's PCG64 (_pcg64.h) and a uniform is
 *     numpy's random().
 * Given a `live` buffer it also records every expanded node's coin row:
 * bit v of node u's bitset in realisation r is set when edge u -> v
 * came up live, whether or not v was already active.  Every node
 * reachable from a subset of a row's seeds is expanded, so the record
 * is the part of that realisation's live-edge graph that any such
 * subset can reach.
 *
 * The frontier lives in the activation matrix itself, so the cascade
 * allocates nothing: 0 inactive, 1 active and expanded, and FRONTIER or
 * FRONTIER ^ 1 for the nodes a level expands or the next level will.
 * A node fires at most once per level, from an inactive state, which is
 * the reference's OR of the level's fired edges masked by the
 * activations the level started with.  On return every entry is 0 or 1.
 *
 * cold_ic_reach turns the recorded live-edge graphs into seed-set
 * spreads (IC spread from S is reachability from S in the live-edge
 * graph; Kempe, Kleinberg & Tardos 2003): a Warshall closure on the
 * bitsets, then a popcount of the OR of each set's rows.  Its numpy
 * reference is _batched_reach.
 */

#include <stdint.h>

#include "_pcg64.h"

#define FRONTIER 2

/* 64-bit words per bitset over n nodes. */
static int64_t bitset_words(int64_t n) { return (n + 63) / 64; }

/*
 * Run the R realisations in `active` ((R, n), 0/1, seeded) to
 * completion in place.  `p` is the (n, n) activation probability
 * matrix; `live` is NULL or a zeroed (R, n, ceil(n / 64)) bitset buffer
 * that receives the coin rows; `rng` holds the PCG64 state (hi, lo) and
 * increment (hi, lo), and the state is advanced in place.
 */
void cold_ic_cascade(const double *p, int64_t n, uint8_t *active, int64_t R,
                     uint64_t *live, uint64_t *rng)
{
    const int64_t W = bitset_words(n);
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
                uint64_t *coins = live ? live + (r * n + u) * W : 0;
                /* Branch-free: whether an edge fires is a coin flip. */
                for (int64_t v = 0; v < n; ++v) {
                    const uint8_t coin = pcg64_next_double(&g) < pu[v];
                    const uint8_t hit = coin & !row[v];
                    row[v] |= (uint8_t)(-hit & (level ^ 1));
                    fired += hit;
                    if (coins)
                        coins[v >> 6] |= (uint64_t)coin << (v & 63);
                }
                row[u] = 1;
            }
        }
    }
    pcg64_store(&g, rng);
}

/*
 * Add to counts[s] the reach of seed set s in each of the R live-edge
 * graphs of `live` ((R, n, ceil(n / 64)), as cold_ic_cascade records
 * them), which is overwritten by its reflexive-transitive closure.  Set
 * s holds the nodes set_nodes[set_ptr[s]] .. set_nodes[set_ptr[s+1]-1].
 */
void cold_ic_reach(uint64_t *live, int64_t n, int64_t R, const int64_t *set_ptr,
                   const int64_t *set_nodes, int64_t G, int64_t *counts)
{
    const int64_t W = bitset_words(n);
    for (int64_t r = 0; r < R; ++r) {
        uint64_t *graph = live + r * n * W;
        for (int64_t u = 0; u < n; ++u)
            graph[u * W + (u >> 6)] |= (uint64_t)1 << (u & 63);
        for (int64_t k = 0; k < n; ++k) {
            const uint64_t *via = graph + k * W;
            if (W == 1) {
                /* One word per row: row k is a value, so the rows update
                   independently (row k itself ORs in its own bits). */
                const uint64_t row_k = *via;
                for (int64_t i = 0; i < n; ++i)
                    graph[i] |= row_k & -((graph[i] >> k) & 1);
                continue;
            }
            for (int64_t i = 0; i < n; ++i) {
                uint64_t *from = graph + i * W;
                /* Branch-free: all ones when i reaches k, else zero. */
                const uint64_t mask = -((from[k >> 6] >> (k & 63)) & 1);
                for (int64_t w = 0; w < W; ++w)
                    from[w] |= via[w] & mask;
            }
        }
        for (int64_t s = 0; s < G; ++s)
            for (int64_t w = 0; w < W; ++w) {
                uint64_t reach = 0;
                for (int64_t j = set_ptr[s]; j < set_ptr[s + 1]; ++j)
                    reach |= graph[set_nodes[j] * W + w];
                counts[s] += __builtin_popcountll(reach);
            }
    }
}
