/* The package's native kernels, compiled into one library and loaded by
 * _native.py as sichash._native.lib:
 *
 *   sichash_blake2b128_batch  keyed BLAKE2b-128 over a batch of keys
 *   sichash_ribbon_solve      a retrieval store's banded elimination and
 *                             back-substitution
 *   sichash_rattle_place      a cuckoo bucket's rattle-kicking placement
 *                             under one seed
 *   sichash_query_key,        a function's value of one key or of a batch
 *   sichash_query_hashes      of master hashes, from its packed query plan
 *                             (set up by sichash_query_init)
 *
 * No kernel holds a derivation constant: the query kernel gets them from
 * hashing.py through the plan, and the others take derived values from
 * Python.  Each kernel has a pure-Python reference that runs when the
 * library is None and that the tests compare it against.
 *
 * Build: cc -O3 -shared -fPIC -o _native.so _native.c
 */
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------------
 * Keyed BLAKE2b-128 over a batch of keys, as specified in RFC 7693.
 *
 * Every key is hashed under the same 8-byte BLAKE2 key, the little-endian
 * global seed, into a 16-byte digest; its two little-endian 64-bit halves
 * are written to hi[i] and lo[i].  The digests equal those of Python's
 * hashlib.blake2b(digest_size=16, key=seed.to_bytes(8, "little")).
 *
 * The key block is compressed once per batch (once per plan for the query
 * kernel below), so a key of up to 128 bytes costs one compression.
 * Message words and digest halves are copied as they lie in memory: the
 * caller runs this on little-endian hosts only.
 */

static const uint64_t IV[8] = {
    0x6A09E667F3BCC908ULL, 0xBB67AE8584CAA73BULL,
    0x3C6EF372FE94F82BULL, 0xA54FF53A5F1D36F1ULL,
    0x510E527FADE682D1ULL, 0x9B05688C2B3E6C1FULL,
    0x1F83D9ABFB41BD6BULL, 0x5BE0CD19137E2179ULL,
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (64 - (n))))

/* the mixing function G of RFC 7693, section 3.1 */
#define G(a, b, c, d, x, y)                                                   \
    do {                                                                      \
        v[a] += v[b] + (x);                                                   \
        v[d] = ROTR(v[d] ^ v[a], 32);                                         \
        v[c] += v[d];                                                         \
        v[b] = ROTR(v[b] ^ v[c], 24);                                         \
        v[a] += v[b] + (y);                                                   \
        v[d] = ROTR(v[d] ^ v[a], 16);                                         \
        v[c] += v[d];                                                         \
        v[b] = ROTR(v[b] ^ v[c], 63);                                         \
    } while (0)

/* one round, given its row of the message schedule SIGMA as constants */
#define ROUND(s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13,   \
              s14, s15)                                                       \
    do {                                                                      \
        G(0, 4, 8, 12, m[s0], m[s1]);                                         \
        G(1, 5, 9, 13, m[s2], m[s3]);                                         \
        G(2, 6, 10, 14, m[s4], m[s5]);                                        \
        G(3, 7, 11, 15, m[s6], m[s7]);                                        \
        G(0, 5, 10, 15, m[s8], m[s9]);                                        \
        G(1, 6, 11, 12, m[s10], m[s11]);                                      \
        G(2, 7, 8, 13, m[s12], m[s13]);                                       \
        G(3, 4, 9, 14, m[s14], m[s15]);                                       \
    } while (0)

/* the compression function F of RFC 7693, section 3.2; the byte counter t
 * never reaches 2**64 here, so its high word is 0 */
static void compress(uint64_t h[8], const uint8_t *block, uint64_t t, int last)
{
    uint64_t m[16], v[16];
    memcpy(m, block, sizeof m);
    for (int i = 0; i < 8; i++) {
        v[i] = h[i];
        v[i + 8] = IV[i];
    }
    v[12] ^= t;
    if (last)
        v[14] = ~v[14];
    ROUND(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    ROUND(14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3);
    ROUND(11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4);
    ROUND(7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8);
    ROUND(9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13);
    ROUND(2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9);
    ROUND(12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11);
    ROUND(13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10);
    ROUND(6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5);
    ROUND(10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0);
    ROUND(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    ROUND(14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3);
    for (int i = 0; i < 8; i++)
        h[i] ^= v[i] ^ v[i + 8];
}

/* The state after the key block of a seed, and the state that is the
 * digest of the empty key, for which the key block is the last block. */
static void key_states(uint64_t seed, uint64_t keyed[8], uint64_t empty[8])
{
    uint8_t block[128] = {0};
    /* parameter block: digest length 16, key length 8, fanout and depth 1 */
    memcpy(keyed, IV, 8 * sizeof *keyed);
    keyed[0] ^= 0x01010000ULL ^ (8 << 8) ^ 16;
    memcpy(empty, keyed, 8 * sizeof *empty);
    memcpy(block, &seed, sizeof seed);
    compress(keyed, block, 128, 0);
    compress(empty, block, 128, 1);
}

/* the digest halves of the len bytes at p, given a seed's key_states */
static inline void hash_key(const uint64_t keyed[8], const uint64_t empty[8],
                            const uint8_t *p, uint64_t len, uint64_t *hi,
                            uint64_t *lo)
{
    if (len == 0) {
        *hi = empty[0];
        *lo = empty[1];
        return;
    }
    uint8_t block[128] = {0};
    uint64_t h[8], t = 128;
    memcpy(h, keyed, sizeof h);
    for (; len > 128; p += 128, len -= 128) {
        t += 128;
        compress(h, p, t, 0);
    }
    memcpy(block, p, len);
    compress(h, block, t + len, 1);
    *hi = h[0];
    *lo = h[1];
}

/* Key i is data[ends[i-1]:ends[i]] (from 0 for the first key); ends is
 * non-decreasing.  The output arrays hold n words each. */
void sichash_blake2b128_batch(const uint8_t *data, const int64_t *ends,
                              int64_t n, uint64_t seed, uint64_t *hi,
                              uint64_t *lo)
{
    uint64_t keyed[8], empty[8];
    key_states(seed, keyed, empty);
    int64_t start = 0;
    for (int64_t i = 0; i < n; i++) {
        hash_key(keyed, empty, data + start, (uint64_t)(ends[i] - start),
                 &hi[i], &lo[i]);
        start = ends[i];
    }
}

/* ------------------------------------------------------------------------
 * Ribbon retrieval solve over GF(2), the loop of retrieval._solve_python
 * for r = 1, 2 or 3 bit planes.
 *
 * Row i is the equation "the solution bits of slots starts[i] ..
 * starts[i] + 63, masked by coeffs[i], have parity values[i]"; bit 0 of
 * every coefficient is set and the rows come sorted by start.  Each row
 * is XORed into the stored row at its current pivot until it finds a free
 * pivot or becomes zero.  row_coeff and row_value (num_slots entries,
 * zeroed) receive the stored rows, anchored at their pivot.  Returns -1
 * when a row reduces to 0 = 1, the system being inconsistent.
 *
 * Back-substitution then walks the slots once from the last down, with
 * one 64-bit state per bit plane holding the solution bits of slots
 * p .. p+63 (bit 0 is slot p).  Plane k's bit of slot p is written to
 * bits[k * stride + p], which the caller zeroed.  Returns 0.
 */
int sichash_ribbon_solve(const uint64_t *starts, const uint64_t *coeffs,
                         const uint8_t *values, int64_t n, int64_t num_slots,
                         int r, uint64_t *row_coeff, uint8_t *row_value,
                         uint8_t *bits, int64_t stride)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t s = starts[i], c = coeffs[i];
        uint8_t v = values[i];
        /* a fresh row has bit 0 set, so it is already anchored at s */
        for (;;) {
            if (!row_coeff[s]) {
                row_coeff[s] = c;
                row_value[s] = v;
                break;
            }
            c ^= row_coeff[s];
            v ^= row_value[s];
            if (!c) {
                if (v)
                    return -1; /* identical equation, different value */
                break;         /* dependent but consistent: nothing to store */
            }
            int tz = __builtin_ctzll(c);
            s += tz;
            c >>= tz;
        }
    }

    uint64_t state[3] = {0, 0, 0};
    for (int64_t p = num_slots - 1; p >= 0; p--) {
        uint64_t c = row_coeff[p];
        for (int k = 0; k < r; k++) {
            state[k] <<= 1;
            if (c && (__builtin_parityll(state[k] & c) ^ (row_value[p] >> k)) & 1) {
                state[k] |= 1;
                bits[k * stride + p] = 1;
            }
        }
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * Rattle-kicking placement of one cuckoo bucket under one seed, the loop of
 * cuckoo.RattleTable.insert run over entries 0 .. n-1 in order.
 *
 * Entry i's candidate cells are flat[first[i] .. first[i] + mask[i]], each
 * in [0, m), and mask[i] is its degree minus one (1, 3 or 7), so the probe
 * of counter c is flat[first[i] + (c & mask[i])].  cells holds m entries
 * set to -1 (empty) and counters n zeros.  An occupant is evicted only
 * when its counter is below the prober's; an evicted entry re-probes with
 * its counter plus one, and on a tie the prober advances its own counter.
 * Each eviction or tie is one displacement, counted across the whole
 * bucket.  Returns the displacement total once every entry is placed, or
 * -1 as soon as it exceeds budget; counters then hold their values at that
 * point, as the Python loop leaves them.
 */
int64_t sichash_rattle_place(const int64_t *flat, const int64_t *first,
                             const uint8_t *mask, int64_t n, int64_t budget,
                             int64_t *cells, int64_t *counters)
{
    int64_t steps = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t cur = i, c = 0; /* entry i has not been probed yet */
        for (;;) {
            int64_t cell = flat[first[cur] + (c & mask[cur])];
            int64_t occ = cells[cell];
            if (occ < 0) {
                cells[cell] = cur;
                counters[cur] = c;
                break;
            }
            int64_t oc = counters[occ];
            if (oc < c) {
                cells[cell] = cur;
                counters[cur] = c;
                cur = occ;
                c = oc + 1;
            } else {
                c++;
            }
            if (++steps > budget) {
                counters[cur] = c;
                return -1;
            }
        }
    }
    return steps;
}

/* ------------------------------------------------------------------------
 * Scalar and batch query, the derivation of SicHashPhf.evaluate_hash: the
 * bucket by multiply-high, the class by the thresholds t1 and t2, the
 * class's retrieval row and r-plane window parity (retrieval.fetch), the
 * cell key and cell (hashing.cell_key, cell_at), the bucket's offset and
 * the minimal-mode remap.
 *
 * The plan is filled once by SicHashPhf's constructor, which keeps every
 * array it points to alive.  The kernel checks no bounds; the checks that
 * make each read valid run when the plan's parts are assembled:
 *   - the bucket b = mulhi(hi, num_buckets) is below num_buckets, the
 *     length of starts, sizes and seeds;
 *   - offsets start at 0 and are non-decreasing up to m_total
 *     (BucketMetaArray), so a cell below a bucket's size, plus its start,
 *     is below m_total; an empty bucket has size 0 and answers 0;
 *   - a store has num_slots >= 64 and r planes of num_slots // 64 + 2
 *     words (SicHashPhf's constructor), and its row start is below
 *     span = num_slots - 63, so window words w and w + 1 are in range;
 *   - a value at or above limit indexes remap at value - limit, below
 *     m_total - limit, which the constructor checks is len(remap).
 */

typedef struct {
    uint64_t keyed[8], empty[8]; /* set by sichash_query_init */
    uint64_t m1, m2, golden, fold, cell_salt; /* from hashing.py */
    uint64_t t1, t2, num_buckets, limit;
    const uint64_t *starts, *sizes, *seeds, *remap;
    uint64_t row_keys[3][2], spans[3]; /* store c's start and coefficient keys */
    const uint64_t *planes[3][3];      /* store c holds c + 1 planes */
} sichash_plan;

static inline uint64_t mulhi(uint64_t a, uint64_t b)
{
    return (uint64_t)(((unsigned __int128)a * b) >> 64);
}

/* hashing.mix64 */
static inline uint64_t mix(const sichash_plan *p, uint64_t x)
{
    x = (x ^ (x >> 30)) * p->m1;
    x = (x ^ (x >> 27)) * p->m2;
    return x ^ (x >> 31);
}

static inline uint64_t value_of(const sichash_plan *p, uint64_t hi, uint64_t lo)
{
    uint64_t b = mulhi(hi, p->num_buckets);
    int c = lo < p->t1 ? 0 : lo < p->t2 ? 1 : 2;
    uint64_t folded = lo ^ (hi * p->fold);
    uint64_t start = mulhi(mix(p, hi ^ p->row_keys[c][0]), p->spans[c]);
    uint64_t coeff = mix(p, folded ^ p->row_keys[c][1]) | 1;
    uint64_t w = start >> 6, off = start & 63, fn = 0;
    for (int k = 0; k <= c; k++) {
        const uint64_t *plane = p->planes[c][k];
        /* shifting by 63 - off, then 1, drops the next word at off = 0 */
        uint64_t window = (plane[w] >> off) | ((plane[w + 1] << (63 - off)) << 1);
        fn |= (uint64_t)__builtin_parityll(window & coeff) << k;
    }
    uint64_t key = p->seeds[b] * p->golden + fn * p->m1 + p->cell_salt;
    uint64_t value = p->starts[b] + mulhi(mix(p, folded ^ key), p->sizes[b]);
    return value >= p->limit ? p->remap[value - p->limit] : value;
}

void sichash_query_init(sichash_plan *p, uint64_t seed)
{
    key_states(seed, p->keyed, p->empty);
}

uint64_t sichash_query_key(const sichash_plan *p, const uint8_t *data, int64_t len)
{
    uint64_t hi, lo;
    hash_key(p->keyed, p->empty, data, (uint64_t)len, &hi, &lo);
    return value_of(p, hi, lo);
}

void sichash_query_hashes(const sichash_plan *p, const uint64_t *hi,
                          const uint64_t *lo, int64_t n, uint64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = value_of(p, hi[i], lo[i]);
}
