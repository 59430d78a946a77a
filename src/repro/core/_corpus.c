/*
 * Native corpus columns: the per-post unique-word CSR.
 *
 * Built into the same library as _sweep.c by repro.core.fastgibbs and
 * called by repro.core.state.unique_word_csr: cold_unique_words emits
 * each post's distinct words in first-appearance order with their
 * multiplicities, the order of Post.word_counts() (and of the numpy
 * stable-sort body of unique_word_csr, its oracle).  One pass over the
 * tokens: stamp[w] holds the output slot of word w's latest entry, and
 * an entry belongs to the current post iff its slot is at or after the
 * post's first slot, so the stamps never need resetting between posts.
 */

#include <stdint.h>

/*
 * words[0..sum(lengths)) are the tokens of num_posts consecutive posts
 * of lengths[p] tokens each, every id in [0, vocab).  stamp is caller
 * scratch of vocab entries, all negative on entry.  Writes up to
 * sum(lengths) entries of out_words / out_counts and num_posts entries
 * of out_sizes (each post's number of distinct words); returns the
 * number of entries written.
 */
int64_t cold_unique_words(const int64_t *words, const int64_t *lengths,
                          int64_t num_posts, int64_t *stamp,
                          int64_t *out_words, int64_t *out_counts,
                          int64_t *out_sizes)
{
    int64_t filled = 0, token = 0;
    for (int64_t p = 0; p < num_posts; ++p) {
        const int64_t first = filled;
        for (const int64_t end = token + lengths[p]; token < end; ++token) {
            const int64_t w = words[token];
            const int64_t slot = stamp[w];
            if (slot >= first) {
                out_counts[slot] += 1;
            } else {
                stamp[w] = filled;
                out_words[filled] = w;
                out_counts[filled] = 1;
                filled += 1;
            }
        }
        out_sizes[p] = filled - first;
    }
    return filled;
}
