/*
 * Native two-stage diffusion prediction (paper Sec. 5.2, Eqs. 5-7).
 *
 * Built into the same library as _sweep.c by repro.core.fastgibbs and
 * called by repro.core.prediction.DiffusionPredictor: one call scores a
 * post of source user i against N candidate retweeters i',
 *   P(i, i', d) = sum_k P(k | d, i) sum_{b in TopComm(i')} pi_i'b fold_i[k, b]
 * with the Eq. (5) posterior P(k | d, i) from the log phi and log
 * topic-preference tables, and fold_i[k, c'] = sum_{a in TopComm(i)}
 * pi_ia zeta[k, a, c'] built in the same call on a fold-cache miss.
 *
 * Its numpy oracles are DiffusionPredictor's reference bodies.  The
 * posterior's log-likelihood adds the words in order, as numpy's
 * reduction over the gathered (K, L) table does, so it is the same bits;
 * the exp is libm's and the sums over S and K run in a fixed order, so
 * scores agree to a relative 1e-12, not bit for bit.
 *
 * The call checks every id before it reads a table and returns a status
 * word: the id bits (no score written when one is set), else the score
 * guard bits.  Its only scratch is on its own stack or heap, so handler
 * threads may run it concurrently.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Status bits; repro.core.prediction mirrors them. */
enum {
    BAD_SOURCE = 1,
    BAD_WORD = 2,
    BAD_CANDIDATE = 4,
    NONFINITE = 8,
    BELOW_ZERO = 16,
    ABOVE_ONE = 32,
    NO_MEMORY = 64,
};

/* The retweet guard's upper bound: one plus rounding slack. */
#define SCORE_UPPER (1.0 + 1e-9)

/* Topics whose posterior fits the call's stack buffer. */
#define STACK_TOPICS 256

/* The predictor's read-only tables (mirrored by prediction._Tables). */
typedef struct {
    int64_t U, K, C, S, V;
    const double *log_phi;     /* (K, V) log(phi + 1e-300) */
    const double *log_prior;   /* (U, K) log(topic preference + 1e-300) */
    const int64_t *top_comm;   /* (U, S) TopComm communities */
    const double *top_weight;  /* (U, S) their memberships */
    const double *zeta;        /* (K, C, C) */
} cold_predictor;

static int64_t out_of_range(const int64_t *ids, int64_t n, int64_t limit)
{
    int64_t bad = 0;
    for (int64_t j = 0; j < n; ++j)
        bad |= (uint64_t)ids[j] >= (uint64_t)limit;
    return bad;
}

/* fold[k, c'] = sum_a weight[a] zeta[k, comm[a], c'], a ascending. */
static void source_fold(const cold_predictor *P, int64_t source, double *fold)
{
    const int64_t K = P->K, C = P->C, S = P->S;
    const int64_t *comm = P->top_comm + source * S;
    const double *weight = P->top_weight + source * S;
    for (int64_t k = 0; k < K; ++k) {
        double *row = fold + k * C;
        for (int64_t d = 0; d < C; ++d)
            row[d] = 0.0;
        for (int64_t a = 0; a < S; ++a) {
            const double *z = P->zeta + (k * C + comm[a]) * C;
            for (int64_t d = 0; d < C; ++d)
                row[d] += weight[a] * z[d];
        }
    }
}

/* Eq. (5): post[k] = P(k | d, source), normalised. */
static void posterior(const cold_predictor *P, int64_t source,
                      const int64_t *words, int64_t L, double *post)
{
    const int64_t K = P->K, V = P->V;
    const double *prior = P->log_prior + source * K;
    double peak = -INFINITY, total = 0.0;
    for (int64_t k = 0; k < K; ++k) {
        const double *row = P->log_phi + k * V;
        double like = -0.0;
        for (int64_t l = 0; l < L; ++l)
            like += row[words[l]];
        post[k] = like + prior[k];
        /* A NaN entry is skipped here but makes every weight NaN below,
           as numpy's NaN max does. */
        if (post[k] > peak)
            peak = post[k];
    }
    for (int64_t k = 0; k < K; ++k) {
        post[k] = exp(post[k] - peak);
        total += post[k];
    }
    for (int64_t k = 0; k < K; ++k)
        post[k] /= total;
}

/*
 * Score `source`'s post of words[0..L) against candidates[0..N) into
 * scores[0..N).  `fold` is the source's (K, C) fold: built here when
 * `build` is nonzero and the source is in range, else read.  Returns
 * the status bits.
 */
int64_t cold_retweet_scores(const cold_predictor *P, int64_t source,
                            const int64_t *words, int64_t L,
                            const int64_t *candidates, int64_t N,
                            double *fold, int64_t build, double *scores)
{
    const int64_t K = P->K, C = P->C, S = P->S;
    int64_t status = 0;
    if ((uint64_t)source >= (uint64_t)P->U)
        status |= BAD_SOURCE;
    if (out_of_range(words, L, P->V))
        status |= BAD_WORD;
    if (out_of_range(candidates, N, P->U))
        status |= BAD_CANDIDATE;
    /* The fold depends only on the source, so a request with bad words
       or candidates still fills it, as the numpy path does. */
    if (build && !(status & BAD_SOURCE))
        source_fold(P, source, fold);
    if (status || !N)
        return status;

    double stack[STACK_TOPICS];
    double *post = K <= STACK_TOPICS ? stack : malloc((size_t)K * sizeof *post);
    if (!post)
        return NO_MEMORY;
    posterior(P, source, words, L, post);
    for (int64_t n = 0; n < N; ++n) {
        const int64_t *comm = P->top_comm + candidates[n] * S;
        const double *weight = P->top_weight + candidates[n] * S;
        double score = 0.0;
        for (int64_t k = 0; k < K; ++k) {
            const double *row = fold + k * C;
            double influence = 0.0;
            for (int64_t b = 0; b < S; ++b)
                influence += weight[b] * row[comm[b]];
            score += influence * post[k];
        }
        scores[n] = score;
        if (!isfinite(score))
            status |= NONFINITE;
        else if (score < 0.0)
            status |= BELOW_ZERO;
        else if (score > SCORE_UPPER)
            status |= ABOVE_ONE;
    }
    if (post != stack)
        free(post);
    return status;
}
