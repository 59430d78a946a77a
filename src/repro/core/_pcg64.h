/*
 * numpy's PCG64 bit generator, shared by the native kernels that draw
 * from a numpy Generator's stream (_cascade.c, _planted.c).
 *
 * The state is a 128-bit LCG held as two 64-bit halves; each step
 * multiplies by numpy's 128-bit multiplier, adds the increment, and
 * outputs the XSL-RR permutation of the new state.  A uniform is
 * (next64 >> 11) * 2^-53, numpy's random().  A 32-bit draw takes a
 * half-word from the generator's buffer (has_uint32, uinteger), as
 * numpy's next_uint32 does.  Callers load six words (state hi, lo, inc
 * hi, lo, has_uint32, uinteger) and write the state and the buffer back,
 * so the Generator's next draws continue the same stream.
 */

#ifndef REPRO_PCG64_H
#define REPRO_PCG64_H

#include <stdint.h>

/* numpy's PCG64: the 128-bit multiplier and the state as two halves. */
static const uint64_t PCG64_MULT_HI = 0x2360ed051fc65da4ULL;
static const uint64_t PCG64_MULT_LO = 0x4385df649fccf645ULL;

typedef struct {
    uint64_t hi, lo, inc_hi, inc_lo, has_uint32, uinteger;
} pcg64;

/* The high 64 bits of a * b. */
static inline uint64_t pcg64_mulhi(uint64_t a, uint64_t b)
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

/* Load a generator from its six words: state hi, lo, inc hi, lo,
 * has_uint32, uinteger. */
static inline pcg64 pcg64_load(const uint64_t *words)
{
    pcg64 g = {words[0], words[1], words[2], words[3], words[4], words[5]};
    return g;
}

/* Write the state and the buffer (not the increment, which never
 * changes) back. */
static inline void pcg64_store(const pcg64 *g, uint64_t *words)
{
    words[0] = g->hi;
    words[1] = g->lo;
    words[4] = g->has_uint32;
    words[5] = g->uinteger;
}

/* Step the LCG and XSL-RR the new state: numpy's next_uint64. */
static inline uint64_t pcg64_next64(pcg64 *g)
{
    const uint64_t lo = g->lo * PCG64_MULT_LO + g->inc_lo;
    g->hi = g->hi * PCG64_MULT_LO + g->lo * PCG64_MULT_HI
            + pcg64_mulhi(g->lo, PCG64_MULT_LO) + g->inc_hi + (lo < g->inc_lo);
    g->lo = lo;
    const uint64_t x = g->hi ^ g->lo;
    const unsigned rot = (unsigned)(g->hi >> 58);
    return (x >> rot) | (x << ((64u - rot) & 63u));
}

/* numpy's random(): 53 bits of the next output. */
static inline double pcg64_next_double(pcg64 *g)
{
    return (double)(pcg64_next64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's next_uint32: the buffered high half of the last 64-bit output
 * if there is one, else the low half of a new one, buffering its high
 * half. */
static inline uint32_t pcg64_next32(pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return (uint32_t)g->uinteger;
    }
    const uint64_t next = pcg64_next64(g);
    g->has_uint32 = 1;
    g->uinteger = next >> 32;
    return (uint32_t)next;
}

#endif
