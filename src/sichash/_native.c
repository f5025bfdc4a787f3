/* The package's native kernels, built as one CPython extension module and
 * loaded by _native.py as sichash._native.lib:
 *
 *   master_hash_batch(keys, a, b, hi, lo)
 *       the master hash of each of a sequence of bytes-like keys
 *   ribbon_build(hi, lo, values, num_slots, r, ks, kc, planes)
 *       one seed attempt of a retrieval store of one-byte values: its rows
 *       derived, sorted by start, eliminated and back-substituted into
 *       plane words
 *   partition(hi, lo, t1, t2, hi_b, lo_b, deg_b, counts, hi_c, lo_c, class_pos)
 *       a build's master hashes counting-sorted by bucket, and by class
 *   rattle_place(hi, lo, mask, seed, budget, m, assignments)
 *       a cuckoo bucket's candidate cells under one seed and its
 *       rattle-kicking placement: each entry's hash-function index
 *   Plan(a, b, t1, t2, limit, starts, sizes, seeds, remap, stores),
 *   plan.query(key), plan.query_hashes(hi, lo, out),
 *   plan.query_keys(keys, out)
 *       a function's packed query plan, and its value of one key, of a
 *       batch of master hashes or of a batch of keys, each block of keys
 *       hashed and answered in one section without the GIL
 *   ef_decode(upper, lower, width, out)
 *       the values of an Elias-Fano coded sequence, decoded whole
 *   crc32_fold(data)
 *       the CRC-32 of a blob's 16-byte blocks, as zlib.crc32 gives it:
 *       64-byte blocks folded by carry-less multiplies on x86-64 CPUs that
 *       have PCLMULQDQ and SSE4.1, which __builtin_cpu_supports detects
 *       when the module is initialized; zlib.crc32 finishes the tail, and
 *       takes every input under 64 bytes and on every other CPU and host
 *
 * Array arguments are C-contiguous buffers, such as numpy arrays.  Each
 * entry point checks their item sizes and lengths, and every value it uses
 * as an index, before it reads them, and raises TypeError (item size) or
 * ValueError (length, value); so a wrong argument never reads or writes
 * out of bounds.  Every argument is positional, and a keyword argument
 * raises TypeError.  Integer arguments of 64 bits (seeds, thresholds and
 * keys) go through u64_arg, which raises OverflowError outside [0, 2**64)
 * where the K format would wrap them.  The batch kernels
 * release the GIL around their loops, once they hold their buffers and
 * keys; the scalar query keeps it.
 *
 * The master hash is hashing.master_hash: the key's little-endian 8-byte
 * words, its tail zero-padded, update two 64-bit lanes by one 64x64->128
 * multiply-fold per 16-byte block, the length is mixed in after the last
 * block, and mix64 finalizes both halves.  Its one inline copy, hash_key,
 * serves both master_hash_batch and plan.query, and both read a key with
 * read_key: an exact bytes object by pointer and length, any other key
 * through the buffer protocol.  master_hash_batch and plan.query_keys
 * share one block gather, gather_block.
 *
 * This file holds no derivation constant: _native.py compiles it with each
 * entry of hashing.QUERY_CONSTANTS as a macro, SICHASH_<NAME>, and every
 * kernel hashes keys, derives cells and derives retrieval rows with the one
 * inline hash, cell and row derivation below, which the plan shares with
 * the kernel that builds.  The hash's lanes come from the seed in Python
 * (hashing.seed_lanes), and so do a store's row keys (hashing.row_keys).
 * Each kernel has a pure-Python, numpy or zlib reference that runs when the
 * library is None and that the tests compare it against.
 *
 * Build: cc -O3 -shared -fPIC -DSICHASH_<NAME>=<value>ULL ... -I<Python
 * include dir> -o _native.so _native.c, as _native._command gives it (no
 * -march flag: only crc_fold is compiled for PCLMULQDQ, and it runs only
 * where the CPU has it)
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* Check that a buffer holds count items of itemsize bytes each. */
static int check_buffer(const Py_buffer *b, Py_ssize_t itemsize, Py_ssize_t count,
                        const char *name)
{
    if (b->itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError, "%s: need items of %zd bytes, got %zd", name,
                     itemsize, b->itemsize);
        return -1;
    }
    if (b->len != itemsize * count) {
        PyErr_Format(PyExc_ValueError, "%s: need %zd items, got %zd", name, count,
                     b->len / itemsize);
        return -1;
    }
    return 0;
}

/* O& converter: an integer in [0, 2**64) into a uint64_t, or OverflowError
 * (TypeError for an object without __index__) */
static int u64_arg(PyObject *obj, void *out)
{
    PyObject *index = PyNumber_Index(obj);
    if (!index)
        return 0;
    unsigned long long v = PyLong_AsUnsignedLongLong(index);
    Py_DECREF(index);
    if (v == (unsigned long long)-1 && PyErr_Occurred())
        return 0;
    *(uint64_t *)out = v;
    return 1;
}

/* ------------------------------------------------------------------------
 * The master hash and the cell derivation of hashing.py and the row
 * derivation of retrieval.py, shared by the batch hash, the store build,
 * the placement and the query.
 *
 * The multipliers and the salt are hashing.py's, defined by the compile
 * command, so that this file holds none of them.
 */

#if !defined(SICHASH_M1) || !defined(SICHASH_M2) || !defined(SICHASH_GOLDEN) || \
    !defined(SICHASH_FOLD) || !defined(SICHASH_CELL_SALT)
#error "compile with hashing.QUERY_CONSTANTS as -DSICHASH_<NAME>=<value>ULL, as _native.py does"
#endif

static inline uint64_t mulhi(uint64_t a, uint64_t b)
{
    return (uint64_t)(((unsigned __int128)a * b) >> 64);
}

/* hashing.mix64 */
static inline uint64_t mix(uint64_t x)
{
    x = (x ^ (x >> 30)) * SICHASH_M1;
    x = (x ^ (x >> 27)) * SICHASH_M2;
    return x ^ (x >> 31);
}

/* one 16-byte block of hashing._hash_bytes: the lanes xored with the
 * block's words are multiplied to 128 bits, and the product's halves are
 * folded back into them */
static inline void hash_block(uint64_t *a, uint64_t *b, const uint64_t w[2])
{
    uint64_t x = *a ^ w[0], y = *b ^ w[1];
    unsigned __int128 prod = (unsigned __int128)x * y;
    *a = (uint64_t)(prod >> 64) + x;
    *b = (uint64_t)prod ^ (y << 32 | y >> 32);
}

/* hashing._hash_bytes: the master hash halves of the len bytes at p, from
 * the seed's lanes a and b (hashing.seed_lanes).  Words are copied as they
 * lie in memory: the caller runs this on little-endian hosts only. */
static inline void hash_key(uint64_t a, uint64_t b, const uint8_t *p, uint64_t len,
                            uint64_t *hi, uint64_t *lo)
{
    uint64_t w[2], left = len;
    for (; left >= 16; p += 16, left -= 16) {
        memcpy(w, p, 16);
        hash_block(&a, &b, w);
    }
    if (left) { /* the tail, zero-padded */
        if (len >= 16) { /* the key's last 16 bytes, shifted past those hashed */
            unsigned __int128 v;
            memcpy(&v, p + left - 16, 16);
            v >>= 8 * (16 - left);
            w[0] = (uint64_t)v;
            w[1] = (uint64_t)(v >> 64);
        } else {
            w[0] = w[1] = 0;
            memcpy(w, p, left);
        }
        hash_block(&a, &b, w);
    }
    b = (b ^ len) + a;
    a ^= b << 32 | b >> 32;
    *hi = mix(a);
    *lo = mix(b);
}

/* hashing.fold_hash */
static inline uint64_t fold(uint64_t hi, uint64_t lo)
{
    return lo ^ (hi * SICHASH_FOLD);
}

/* hashing.cell_key */
static inline uint64_t cell_key(uint64_t seed, uint64_t fn)
{
    return seed * SICHASH_GOLDEN + fn * SICHASH_M1 + SICHASH_CELL_SALT;
}

/* hashing.cell_at: a cell in [0, m) */
static inline uint64_t cell_at(uint64_t folded, uint64_t key, uint64_t m)
{
    return mulhi(mix(folded ^ key), m);
}

/* retrieval._rows_many: a store row's start slot, below span =
 * num_slots - 63, and its coefficient, whose bit 0 is set, under the store
 * seed's start and coefficient keys ks and kc (hashing.row_keys) */
typedef struct {
    uint64_t start, coeff;
} row;

static inline row row_of(uint64_t ks, uint64_t kc, uint64_t span, uint64_t hi, uint64_t lo)
{
    row out = {mulhi(mix(hi ^ ks), span), mix(fold(hi, lo) ^ kc) | 1};
    return out;
}

/* How plan.query and gather_block read a key, as hashing._key_bytes reads
 * it: an exact bytes object in place, by pointer and length, and any other
 * key into *view, which must be a C-contiguous buffer of at most one
 * dimension (str, int and None raise TypeError, and any other buffer
 * BufferError).  Returns 1 for exact bytes, 0 when *view holds the key's
 * buffer (the caller releases it) and -1 with an exception set. */
static inline int read_key(PyObject *key, Py_buffer *view, const uint8_t **p, uint64_t *len)
{
    if (PyBytes_CheckExact(key)) {
        *p = (const uint8_t *)PyBytes_AS_STRING(key);
        *len = (uint64_t)PyBytes_GET_SIZE(key);
        return 1;
    }
    if (PyObject_GetBuffer(key, view, PyBUF_FULL_RO) < 0)
        return -1;
    if (view->ndim > 1 || !PyBuffer_IsContiguous(view, 'C')) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_BufferError,
                        "a key must be a C-contiguous buffer of at most one dimension");
        return -1;
    }
    *p = view->buf;
    *len = (uint64_t)view->len;
    return 0;
}

/* keys per block of master_hash_batch and plan.query_keys: a block's exact
 * bytes keys are held with the GIL, then hashed without it */
#define KEY_BLOCK 256

/* a key of a block: an exact bytes object and a strong reference to it,
 * which keeps its bytes alive while the block is hashed without the GIL;
 * obj is NULL for any other key, which is hashed at once */
typedef struct {
    const uint8_t *p;
    uint64_t len;
    PyObject *obj;
} block_key;

/* The gather of master_hash_batch and plan.query_keys, with the GIL: keys
 * seq[at .. at + m) of a sequence of n keys into block.  An exact bytes key
 * is held, to be hashed once the GIL is released; any other key is hashed
 * at once, under the lanes a and b, into hi[j] and lo[j].  Returns the
 * number of keys read, m unless a key raised or the sequence changed size
 * (a key's buffer protocol may run code that resizes a list); the caller
 * releases block[0 .. returned). */
static Py_ssize_t gather_block(PyObject *seq, Py_ssize_t n, Py_ssize_t at, Py_ssize_t m,
                               uint64_t a, uint64_t b, block_key *block, uint64_t *hi,
                               uint64_t *lo)
{
    Py_ssize_t held = 0;
    Py_buffer view;
    while (held < m && PySequence_Fast_GET_SIZE(seq) == n) {
        Py_ssize_t i = at + held;
        block_key *k = &block[held];
        int exact = read_key(PySequence_Fast_GET_ITEM(seq, i), &view, &k->p, &k->len);
        if (exact < 0)
            break;
        if (exact) {
            k->obj = PySequence_Fast_GET_ITEM(seq, i);
            Py_INCREF(k->obj);
        } else {
            hash_key(a, b, k->p, k->len, &hi[held], &lo[held]);
            PyBuffer_Release(&view);
            k->obj = NULL;
        }
        held++;
    }
    return held;
}

/* Releases the first held keys of a block, then checks that the sequence
 * kept its n keys; returns -1 with an exception set when a key raised or
 * it did not. */
static int release_block(PyObject *seq, Py_ssize_t n, block_key *block, Py_ssize_t held)
{
    while (held)
        Py_XDECREF(block[--held].obj);
    if (PyErr_Occurred())
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != n) {
        PyErr_SetString(PyExc_RuntimeError, "keys changed size while being hashed");
        return -1;
    }
    return 0;
}

/* master_hash_batch(keys, a, b, hi, lo): the master hash halves of key i
 * under the seed's lanes a and b into hi[i] and lo[i], two uint64 arrays of
 * len(keys) words.  keys is any iterable of bytes-like objects; it is read
 * once, into a list unless it is a list or tuple. */
static PyObject *master_hash_batch(PyObject *self, PyObject *args)
{
    PyObject *keys, *seq, *result = NULL;
    uint64_t a, b;
    Py_buffer hi, lo;
    block_key block[KEY_BLOCK];
    if (!PyArg_ParseTuple(args, "OO&O&w*w*:master_hash_batch", &keys, u64_arg, &a, u64_arg, &b,
                          &hi, &lo))
        return NULL;
    seq = PySequence_Fast(keys, "keys must be an iterable of bytes-like objects");
    if (!seq)
        goto done;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (check_buffer(&hi, 8, n, "hi") < 0 || check_buffer(&lo, 8, n, "lo") < 0)
        goto done;
    for (Py_ssize_t at = 0; at < n; at += KEY_BLOCK) {
        Py_ssize_t m = n - at < KEY_BLOCK ? n - at : KEY_BLOCK;
        uint64_t *h = (uint64_t *)hi.buf + at, *l = (uint64_t *)lo.buf + at;
        Py_ssize_t held = gather_block(seq, n, at, m, a, b, block, h, l);
        if (held == m) {
            Py_BEGIN_ALLOW_THREADS
            for (Py_ssize_t j = 0; j < m; j++)
                if (block[j].obj)
                    hash_key(a, b, block[j].p, block[j].len, &h[j], &l[j]);
            Py_END_ALLOW_THREADS
        }
        if (release_block(seq, n, block, held) < 0)
            goto done;
    }
    result = Py_None;
    Py_INCREF(result);
done:
    Py_XDECREF(seq);
    PyBuffer_Release(&hi);
    PyBuffer_Release(&lo);
    return result;
}

/* ------------------------------------------------------------------------
 * One seed attempt of a ribbon retrieval store over GF(2), for r = 1, 2 or
 * 3 bit planes: the work of retrieval._solve_python.
 *
 * Row i is the equation "the solution bits of slots start .. start + 63,
 * masked by coeff, have parity values[i]", with start and coeff from
 * row_of; every start is below span = num_slots - 63, so a row's 64 slots
 * all exist.
 */

/* A stable counting sort of the rows by start: start, coeff and value
 * receive the rows' starts, coefficients and one-byte values in start
 * order.
 * pos (span entries, zeroed) counts the rows of each start, then holds
 * the position of the next row to place there.  Rows and starts fit in 32
 * bits: the caller checks n < 2**32 and span <= 2**32. */
static void sort_rows(uint64_t ks, uint64_t kc, uint64_t span, const uint64_t *hi,
                      const uint64_t *lo, const uint8_t *values, int64_t n, uint32_t *pos,
                      uint32_t *start, uint64_t *coeff, uint8_t *value)
{
    for (int64_t i = 0; i < n; i++)
        pos[row_of(ks, kc, span, hi[i], lo[i]).start]++;
    uint32_t at = 0; /* each count becomes the position of its first row */
    for (uint64_t s = 0; s < span; s++) {
        uint32_t count = pos[s];
        pos[s] = at;
        at += count;
    }
    for (int64_t i = 0; i < n; i++) {
        row eq = row_of(ks, kc, span, hi[i], lo[i]);
        uint32_t j = pos[eq.start]++;
        start[j] = (uint32_t)eq.start;
        coeff[j] = eq.coeff;
        value[j] = values[i];
    }
}

/* On-the-fly elimination of the n sorted rows: each row is XORed into the
 * stored row at its current pivot until it finds a free pivot or becomes
 * zero.  row_coeff and row_value (num_slots entries, zeroed) receive the
 * stored rows, anchored at their pivot.  Returns the number of rows that
 * became 0 = 0 (dependent), or -1 as soon as one becomes 0 = 1, the
 * system being inconsistent. */
static int64_t eliminate(const uint32_t *start, const uint64_t *coeff, const uint8_t *value,
                         int64_t n, uint64_t *row_coeff, uint8_t *row_value)
{
    int64_t dependent = 0;
    for (int64_t j = 0; j < n; j++) {
        uint64_t s = start[j], c = coeff[j];
        uint8_t v = value[j];
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
                dependent++;   /* consistent: nothing to store */
                break;
            }
            int tz = __builtin_ctzll(c);
            s += tz;
            c >>= tz;
        }
    }
    return dependent;
}

/* Back-substitution in one walk from the last slot down, with one 64-bit
 * state per plane holding the solution bits of slots p .. p + 63 (bit 0 is
 * slot p).  A slot without a stored row has coefficient and value 0, so
 * its bit is 0 without a branch.  At p % 64 == 0 the state is plane word
 * p / 64, which is stored as it is; the words above the last slot are 0.
 * Plane k is planes[k * nwords .. (k + 1) * nwords - 1]. */
static void back_substitute(int r, int64_t num_slots, const uint64_t *row_coeff,
                            const uint8_t *row_value, uint64_t *planes, int64_t nwords)
{
    for (int k = 0; k < r; k++)
        for (int64_t w = (num_slots - 1) / 64 + 1; w < nwords; w++)
            planes[k * nwords + w] = 0;
    uint64_t state[3] = {0, 0, 0};
    for (int64_t p = num_slots - 1; p >= 0; p--) {
        uint64_t c = row_coeff[p];
        uint8_t v = row_value[p];
        for (int k = 0; k < r; k++) {
            uint64_t s = state[k] << 1;
            state[k] = s | ((__builtin_parityll(s & c) ^ (v >> k)) & 1);
        }
        if (!(p & 63))
            for (int k = 0; k < r; k++)
                planes[k * nwords + (p >> 6)] = state[k];
    }
}

/* ribbon_build(hi, lo, values, num_slots, r, ks, kc, planes): one seed
 * attempt of a store of the keys with master hash halves hi[i], lo[i]
 * (uint64) and value values[i] (uint8, below 2**r), all of one length,
 * under the seed's row keys ks and kc.  planes
 * (uint64, r planes of num_slots // 64 + 2 words, one after the other)
 * receives the solution.  Returns the number of dependent rows, or -1
 * when the system is inconsistent; planes then hold no solution. */
static PyObject *ribbon_build(PyObject *self, PyObject *args)
{
    Py_buffer hi, lo, values, planes;
    Py_ssize_t num_slots;
    int r;
    uint64_t ks, kc;
    if (!PyArg_ParseTuple(args, "y*y*y*niO&O&w*:ribbon_build", &hi, &lo, &values, &num_slots, &r,
                          u64_arg, &ks, u64_arg, &kc, &planes))
        return NULL;
    PyObject *result = NULL;
    uint32_t *pos = NULL, *start = NULL;
    uint64_t *coeff = NULL, *row_coeff = NULL;
    uint8_t *value = NULL, *row_value = NULL;
    Py_ssize_t n = hi.len / 8, nwords = num_slots / 64 + 2;
    uint64_t span = (uint64_t)num_slots - 63;
    if (r < 1 || r > 3 || num_slots < 64) {
        PyErr_SetString(PyExc_ValueError, "need 1 <= r <= 3 and num_slots >= 64");
        goto done;
    }
    if ((uint64_t)n > UINT32_MAX || span > (uint64_t)UINT32_MAX + 1) {
        PyErr_SetString(PyExc_ValueError, "need n < 2**32 and num_slots <= 2**32 + 63");
        goto done;
    }
    if (check_buffer(&hi, 8, n, "hi") < 0 || check_buffer(&lo, 8, n, "lo") < 0 ||
        check_buffer(&values, 1, n, "values") < 0 ||
        check_buffer(&planes, 8, r * nwords, "planes") < 0)
        goto done;
    pos = PyMem_Calloc(span, sizeof *pos);
    start = PyMem_Malloc(n * sizeof *start);
    coeff = PyMem_Malloc(n * sizeof *coeff);
    value = PyMem_Malloc(n);
    row_coeff = PyMem_Calloc(num_slots, sizeof *row_coeff);
    row_value = PyMem_Calloc(num_slots, sizeof *row_value);
    if (!pos || !start || !coeff || !value || !row_coeff || !row_value) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t dependent;
    Py_BEGIN_ALLOW_THREADS
    sort_rows(ks, kc, span, hi.buf, lo.buf, values.buf, n, pos, start, coeff, value);
    dependent = eliminate(start, coeff, value, n, row_coeff, row_value);
    if (dependent >= 0)
        back_substitute(r, num_slots, row_coeff, row_value, planes.buf, nwords);
    Py_END_ALLOW_THREADS
    result = PyLong_FromLongLong(dependent);
done:
    PyMem_Free(pos);
    PyMem_Free(start);
    PyMem_Free(coeff);
    PyMem_Free(value);
    PyMem_Free(row_coeff);
    PyMem_Free(row_value);
    PyBuffer_Release(&hi);
    PyBuffer_Release(&lo);
    PyBuffer_Release(&values);
    PyBuffer_Release(&planes);
    return result;
}

/* ------------------------------------------------------------------------
 * The build's partition of the master hashes by bucket and by class, the
 * work of phf._partition's numpy path.
 */

/* partition(hi, lo, t1, t2, hi_b, lo_b, deg_b, counts, hi_c, lo_c,
 * class_pos): the n master hashes (hi[i], lo[i]) in bucket order and in
 * class order.  Entry i's bucket is mulhi(hi[i], num_buckets), as
 * hashing.bucket_of_many derives it, with num_buckets = len(counts) >= 1;
 * its class index is (lo >= t1) + (lo >= t2) and its degree 2 << class, as
 * hashing.class_of_many derives them.
 *   - hi_b, lo_b (uint64) and deg_b (uint8) receive the entries in bucket
 *     order, stable: by bucket, then input order (a counting sort);
 *     counts (int64) receives each bucket's entry count.
 *   - hi_c and lo_c (uint64) receive them in class order, stable: by class,
 *     then bucket order; class_pos (uint32) receives the class-order
 *     position of each bucket-order entry, so n must be below 2**32.
 * Returns the three class counts as a tuple. */
static PyObject *partition(PyObject *self, PyObject *args)
{
    Py_buffer hi, lo, hi_b, lo_b, deg_b, counts, hi_c, lo_c, class_pos;
    uint64_t t1, t2;
    if (!PyArg_ParseTuple(args, "y*y*O&O&w*w*w*w*w*w*w*:partition", &hi, &lo, u64_arg, &t1,
                          u64_arg, &t2, &hi_b, &lo_b, &deg_b, &counts, &hi_c, &lo_c,
                          &class_pos))
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t n = hi.len / 8, nb = counts.len / 8;
    if (check_buffer(&hi, 8, n, "hi") < 0 || check_buffer(&lo, 8, n, "lo") < 0 ||
        check_buffer(&hi_b, 8, n, "hi_b") < 0 || check_buffer(&lo_b, 8, n, "lo_b") < 0 ||
        check_buffer(&deg_b, 1, n, "deg_b") < 0 || check_buffer(&counts, 8, nb, "counts") < 0 ||
        check_buffer(&hi_c, 8, n, "hi_c") < 0 || check_buffer(&lo_c, 8, n, "lo_c") < 0 ||
        check_buffer(&class_pos, 4, n, "class_pos") < 0)
        goto done;
    if ((uint64_t)n > UINT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "need n < 2**32");
        goto done;
    }
    if (nb < 1) {
        PyErr_SetString(PyExc_ValueError, "counts: need at least one bucket");
        goto done;
    }
    const uint64_t *h = hi.buf, *l = lo.buf;
    uint64_t *hb = hi_b.buf, *lb = lo_b.buf, *hc = hi_c.buf, *lc = lo_c.buf;
    uint8_t *db = deg_b.buf;
    int64_t *at = counts.buf, classes[3] = {0, 0, 0};
    uint32_t *cp = class_pos.buf;
    Py_BEGIN_ALLOW_THREADS
    memset(at, 0, counts.len);
    for (Py_ssize_t i = 0; i < n; i++) {
        at[mulhi(h[i], (uint64_t)nb)]++;
        classes[(l[i] >= t1) + (l[i] >= t2)]++;
    }
    /* each count becomes its bucket's first position, and is advanced past
     * each entry placed there, to its bucket's end */
    int64_t sum = 0;
    for (Py_ssize_t b = 0; b < nb; b++) {
        int64_t count = at[b];
        at[b] = sum;
        sum += count;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t j = at[mulhi(h[i], (uint64_t)nb)]++;
        hb[j] = h[i];
        lb[j] = l[i];
        db[j] = (uint8_t)(2 << ((l[i] >= t1) + (l[i] >= t2)));
    }
    for (Py_ssize_t b = nb - 1; b > 0; b--) /* the ends back into counts */
        at[b] -= at[b - 1];
    int64_t next[3] = {0, classes[0], classes[0] + classes[1]};
    for (Py_ssize_t j = 0; j < n; j++) {
        int64_t k = next[(lb[j] >= t1) + (lb[j] >= t2)]++;
        hc[k] = hb[j];
        lc[k] = lb[j];
        cp[j] = (uint32_t)k;
    }
    Py_END_ALLOW_THREADS
    result = Py_BuildValue("(LLL)", (long long)classes[0], (long long)classes[1],
                           (long long)classes[2]);
done:
    PyBuffer_Release(&hi);
    PyBuffer_Release(&lo);
    PyBuffer_Release(&hi_b);
    PyBuffer_Release(&lo_b);
    PyBuffer_Release(&deg_b);
    PyBuffer_Release(&counts);
    PyBuffer_Release(&hi_c);
    PyBuffer_Release(&lo_c);
    PyBuffer_Release(&class_pos);
    return result;
}

/* ------------------------------------------------------------------------
 * Rattle-kicking placement of one cuckoo bucket under one seed, the loop of
 * cuckoo.RattleTable.insert run over entries 0 .. n-1 in order.
 *
 * Entry i's candidate cells, each in [0, m), are the row rows[8i .. 8i+7]:
 * rows[8i + t] is the cell of hash function t & (degree - 1).  Every degree
 * (2, 4 or 8) divides 8, so the probe of counter c, the cell of c mod
 * degree, is rows[8i + (c & 7)].  An occupant is evicted only when its
 * counter is below the prober's; an evicted entry re-probes with its
 * counter plus one, and on a tie the prober advances its own counter.
 * Each eviction or tie is one displacement, counted across the whole
 * bucket.
 *
 * A probe is one load of its cell's slot.  The slot holds the occupant, its
 * counter (which changes only while an entry is out of the table) and the
 * cell it probes next once evicted, which is looked up in its row as it is
 * placed, while that row is still in cache.  So the loop's chain of
 * dependent loads is one slot per displacement.  Entries and cells are
 * below 2**32.  Returns -1 as soon as the displacements exceed budget.
 * Once every entry is placed, each one's hash-function index, its slot
 * counter & mask[i], is written to assignments[i], and the displacement
 * total is returned.
 */
typedef struct {
    uint32_t occ, next; /* the occupant, and the cell it probes once evicted */
    int64_t counter;    /* the occupant's counter, -1 when the cell is empty */
} slot;

static int64_t place(const uint32_t *rows, const uint8_t *mask, int64_t n, int64_t m,
                     int64_t budget, slot *slots, uint8_t *assignments)
{
    int64_t steps = 0;
    for (int64_t j = 0; j < m; j++)
        slots[j] = (slot){0, 0, -1};
    for (int64_t i = 0; i < n; i++) {
        uint32_t cur = (uint32_t)i; /* entry i has not been probed yet */
        int64_t c = 0;
        uint32_t cell = rows[8 * i];
        for (;;) {
            slot *s = &slots[cell];
            slot was = *s;
            if (was.counter < c) { /* an empty cell, or a lower counter */
                *s = (slot){cur, rows[8 * (int64_t)cur + ((c + 1) & 7)], c};
                if (was.counter < 0)
                    break;
                cur = was.occ;
                c = was.counter + 1;
                cell = was.next;
            } else {
                c++;
                cell = rows[8 * (int64_t)cur + (c & 7)];
            }
            if (++steps > budget)
                return -1;
        }
    }
    for (int64_t j = 0; j < m; j++)
        if (slots[j].counter >= 0)
            assignments[slots[j].occ] = (uint8_t)(slots[j].counter & mask[slots[j].occ]);
    return steps;
}

/* rattle_place(hi, lo, mask, seed, budget, m, assignments): place's result
 * for the entries with master hash halves hi[i], lo[i] (uint64) and degree
 * mask[i] + 1 (uint8) under a bucket seed, in a table of m cells; n and m
 * must be below 2**32, which is checked before anything is allocated.
 * Entry i's cell for hash function t is cell_at(fold(hi, lo),
 * cell_key(seed, t), m), as hashing.cell_of_many derives it; so every cell
 * is below m and fits a uint32 row.  Only its mask[i] + 1 distinct cells
 * are derived, then copied to fill its row (see place).  assignments
 * (uint8, n entries) is written only when every entry places. */
static PyObject *rattle_place(PyObject *self, PyObject *args)
{
    Py_buffer hi, lo, mask, assignments;
    uint64_t seed;
    long long budget;
    Py_ssize_t m;
    if (!PyArg_ParseTuple(args, "y*y*y*O&Lnw*:rattle_place", &hi, &lo, &mask, u64_arg, &seed,
                          &budget, &m, &assignments))
        return NULL;
    PyObject *result = NULL;
    uint32_t *rows = NULL;
    slot *slots = NULL;
    Py_ssize_t n = hi.len / 8;
    if (check_buffer(&hi, 8, n, "hi") < 0 || check_buffer(&lo, 8, n, "lo") < 0 ||
        check_buffer(&mask, 1, n, "mask") < 0 ||
        check_buffer(&assignments, 1, n, "assignments") < 0)
        goto done;
    const uint8_t *mk = mask.buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (mk[i] != 1 && mk[i] != 3 && mk[i] != 7) {
            PyErr_SetString(PyExc_ValueError, "mask: a degree mask other than 1, 3 or 7");
            goto done;
        }
    }
    if (m < 0 || (uint64_t)n > UINT32_MAX || (uint64_t)m > UINT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "need fewer than 2**32 entries and 0 <= m < 2**32");
        goto done;
    }
    if (n && !m) {
        PyErr_SetString(PyExc_ValueError, "m: no cell for the entries");
        goto done;
    }
    if (budget < 0) {
        PyErr_SetString(PyExc_ValueError, "budget must be >= 0");
        goto done;
    }
    /* one row of eight cells per entry; the size check keeps 8n rows from
     * wrapping the allocation size */
    if ((size_t)n > SIZE_MAX / (8 * sizeof *rows) ||
        !(rows = PyMem_Malloc((size_t)n * 8 * sizeof *rows)) ||
        !(slots = PyMem_Malloc((size_t)m * sizeof *slots))) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t steps;
    const uint64_t *h = hi.buf, *l = lo.buf;
    Py_BEGIN_ALLOW_THREADS
    uint64_t keys[8];
    for (int t = 0; t < 8; t++)
        keys[t] = cell_key(seed, t);
    for (Py_ssize_t i = 0; i < n; i++) {
        uint64_t folded = fold(h[i], l[i]);
        uint32_t *entry = rows + 8 * i;
        for (int t = 0; t < 8; t++)
            entry[t] = t <= mk[i] ? (uint32_t)cell_at(folded, keys[t], (uint64_t)m)
                                  : entry[t & mk[i]];
    }
    steps = place(rows, mk, n, m, budget, slots, assignments.buf);
    Py_END_ALLOW_THREADS
    result = PyLong_FromLongLong(steps);
done:
    PyMem_Free(rows);
    PyMem_Free(slots);
    PyBuffer_Release(&hi);
    PyBuffer_Release(&lo);
    PyBuffer_Release(&mask);
    PyBuffer_Release(&assignments);
    return result;
}

/* ------------------------------------------------------------------------
 * Scalar and batch query, the derivation of SicHashPhf.evaluate_hash: the
 * bucket by multiply-high, the class by the thresholds t1 and t2, the
 * class's retrieval row (row_of, as the store was built with) and r-plane
 * window parity (RetrievalStore.query), the cell key and cell
 * (hashing.cell_key, cell_at), the bucket's offset
 * and the minimal-mode remap.
 *
 * A Plan is built once, by SicHashPhf's constructor, and holds a buffer
 * on every array it reads, so it keeps them alive on its own.  value_of
 * checks no bounds; Plan() checks what makes each of its reads valid:
 *   - starts, sizes and seeds hold num_buckets >= 1 words each, and the
 *     bucket b = mulhi(hi, num_buckets) is below num_buckets;
 *   - every bucket has starts[b] + max(sizes[b], 1) <= limit + len(remap),
 *     so a value, start plus a cell below the size, is below that sum;
 *   - a store has num_slots >= 64 and c + 1 planes of num_slots // 64 + 2
 *     words, and its row start is below span = num_slots - 63, so window
 *     words w and w + 1 are in range;
 *   - a value at or above limit indexes remap at value - limit.
 */

typedef struct {
    uint64_t a, b; /* the master hash's lanes under the global seed */
    uint64_t t1, t2, num_buckets, limit;
    const uint64_t *starts, *sizes, *seeds, *remap;
    uint64_t row_keys[3][2], spans[3]; /* store c's start and coefficient keys */
    const uint64_t *planes[3][3];      /* store c holds c + 1 planes */
} sichash_plan;

static inline uint64_t value_of(const sichash_plan *p, uint64_t hi, uint64_t lo)
{
    uint64_t b = mulhi(hi, p->num_buckets);
    int c = lo < p->t1 ? 0 : lo < p->t2 ? 1 : 2;
    row eq = row_of(p->row_keys[c][0], p->row_keys[c][1], p->spans[c], hi, lo);
    uint64_t w = eq.start >> 6, off = eq.start & 63, fn = 0;
    for (int k = 0; k <= c; k++) {
        const uint64_t *plane = p->planes[c][k];
        /* shifting by 63 - off, then 1, drops the next word at off = 0 */
        uint64_t window = (plane[w] >> off) | ((plane[w + 1] << (63 - off)) << 1);
        fn |= (uint64_t)__builtin_parityll(window & eq.coeff) << k;
    }
    uint64_t value = p->starts[b] + cell_at(fold(hi, lo), cell_key(p->seeds[b], fn), p->sizes[b]);
    return value >= p->limit ? p->remap[value - p->limit] : value;
}

typedef struct {
    PyObject_HEAD
    sichash_plan p;
    /* starts, sizes, seeds and remap, then the stores' planes */
    Py_buffer views[10];
    int held;
} Plan;

static void plan_dealloc(Plan *self)
{
    while (self->held)
        PyBuffer_Release(&self->views[--self->held]);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *plan_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    /* store c is (start key, coefficient key, num_slots, *planes) */
    static const char *store_formats[3] = {"O&O&ny*", "O&O&ny*y*", "O&O&ny*y*y*"};
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "Plan() takes no keyword arguments");
        return NULL;
    }
    Plan *self = (Plan *)type->tp_alloc(type, 0);
    if (!self)
        return NULL;
    sichash_plan *p = &self->p;
    Py_buffer *v = self->views;
    PyObject *stores, *seq = NULL;
    if (!PyArg_ParseTuple(args, "O&O&O&O&O&y*y*y*y*O:Plan", u64_arg, &p->a, u64_arg, &p->b,
                          u64_arg, &p->t1, u64_arg, &p->t2, u64_arg, &p->limit, &v[0], &v[1],
                          &v[2], &v[3], &stores))
        goto fail;
    self->held = 4;
    Py_ssize_t nb = v[0].len / 8, nremap = v[3].len / 8;
    if (check_buffer(&v[0], 8, nb, "starts") < 0 || check_buffer(&v[1], 8, nb, "sizes") < 0 ||
        check_buffer(&v[2], 8, nb, "seeds") < 0 || check_buffer(&v[3], 8, nremap, "remap") < 0)
        goto fail;
    p->num_buckets = nb;
    p->starts = v[0].buf;
    p->sizes = v[1].buf;
    p->seeds = v[2].buf;
    p->remap = v[3].buf;
    uint64_t total = p->limit + nremap;
    if (nb < 1 || total < p->limit) {
        PyErr_SetString(PyExc_ValueError, "need at least one bucket and limit + len(remap) < 2**64");
        goto fail;
    }
    for (Py_ssize_t b = 0; b < nb; b++) {
        if (p->starts[b] >= total || p->sizes[b] > total - p->starts[b]) {
            PyErr_SetString(PyExc_ValueError, "a bucket's cells reach past limit + len(remap)");
            goto fail;
        }
    }
    seq = PySequence_Fast(stores, "stores must be a sequence");
    if (!seq)
        goto fail;
    if (PySequence_Fast_GET_SIZE(seq) != 3) {
        PyErr_SetString(PyExc_ValueError, "need three stores");
        goto fail;
    }
    for (int c = 0; c < 3; c++) {
        Py_buffer *planes = &v[self->held];
        Py_ssize_t num_slots;
        if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(seq, c), store_formats[c], u64_arg,
                              &p->row_keys[c][0], u64_arg, &p->row_keys[c][1], &num_slots,
                              &planes[0], &planes[1], &planes[2]))
            goto fail;
        self->held += c + 1;
        if (num_slots < 64) {
            PyErr_SetString(PyExc_ValueError, "a store needs num_slots >= 64");
            goto fail;
        }
        p->spans[c] = num_slots - 63;
        for (int k = 0; k <= c; k++) {
            if (check_buffer(&planes[k], 8, num_slots / 64 + 2, "plane") < 0)
                goto fail;
            p->planes[c][k] = planes[k].buf;
        }
    }
    Py_DECREF(seq);
    return (PyObject *)self;
fail:
    Py_XDECREF(seq);
    Py_DECREF(self);
    return NULL;
}

/* plan.query(key): the value of one bytes-like key */
static PyObject *plan_query(Plan *self, PyObject *key)
{
    const sichash_plan *p = &self->p;
    uint64_t hi, lo, len;
    const uint8_t *bytes;
    Py_buffer view;
    int exact = read_key(key, &view, &bytes, &len);
    if (exact < 0)
        return NULL;
    hash_key(p->a, p->b, bytes, len, &hi, &lo);
    if (!exact)
        PyBuffer_Release(&view);
    return PyLong_FromUnsignedLongLong(value_of(p, hi, lo));
}

/* plan.query_hashes(hi, lo, out): out[i] is the value of master hash
 * (hi[i], lo[i]); three uint64 arrays of one length */
static PyObject *plan_query_hashes(Plan *self, PyObject *args)
{
    Py_buffer hi, lo, out;
    if (!PyArg_ParseTuple(args, "y*y*w*:query_hashes", &hi, &lo, &out))
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t n = hi.len / 8;
    if (check_buffer(&hi, 8, n, "hi") == 0 && check_buffer(&lo, 8, n, "lo") == 0 &&
        check_buffer(&out, 8, n, "out") == 0) {
        const uint64_t *h = hi.buf, *l = lo.buf;
        uint64_t *o = out.buf;
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i = 0; i < n; i++)
            o[i] = value_of(&self->p, h[i], l[i]);
        Py_END_ALLOW_THREADS
        result = Py_None;
        Py_INCREF(result);
    }
    PyBuffer_Release(&hi);
    PyBuffer_Release(&lo);
    PyBuffer_Release(&out);
    return result;
}

/* plan.query_keys(keys, out): out[i] is the value of keys[i], for an
 * iterable of bytes-like keys, read once as master_hash_batch reads it, and
 * a uint64 array of one word per key.  Each
 * block of keys is gathered as master_hash_batch gathers it, then hashed
 * and answered in one section without the GIL, the whole block hashed
 * before any key of it is answered. */
static PyObject *plan_query_keys(Plan *self, PyObject *args)
{
    const sichash_plan *p = &self->p;
    PyObject *keys, *seq, *result = NULL;
    Py_buffer out;
    block_key block[KEY_BLOCK];
    uint64_t hi[KEY_BLOCK], lo[KEY_BLOCK];
    if (!PyArg_ParseTuple(args, "Ow*:query_keys", &keys, &out))
        return NULL;
    seq = PySequence_Fast(keys, "keys must be an iterable of bytes-like objects");
    if (!seq)
        goto done;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (check_buffer(&out, 8, n, "out") < 0)
        goto done;
    for (Py_ssize_t at = 0; at < n; at += KEY_BLOCK) {
        Py_ssize_t m = n - at < KEY_BLOCK ? n - at : KEY_BLOCK;
        Py_ssize_t held = gather_block(seq, n, at, m, p->a, p->b, block, hi, lo);
        if (held == m) {
            uint64_t *o = (uint64_t *)out.buf + at;
            Py_BEGIN_ALLOW_THREADS
            for (Py_ssize_t j = 0; j < m; j++)
                if (block[j].obj)
                    hash_key(p->a, p->b, block[j].p, block[j].len, &hi[j], &lo[j]);
            for (Py_ssize_t j = 0; j < m; j++)
                o[j] = value_of(p, hi[j], lo[j]);
            Py_END_ALLOW_THREADS
        }
        if (release_block(seq, n, block, held) < 0)
            goto done;
    }
    result = Py_None;
    Py_INCREF(result);
done:
    Py_XDECREF(seq);
    PyBuffer_Release(&out);
    return result;
}

static PyMethodDef plan_methods[] = {
    {"query", (PyCFunction)plan_query, METH_O, "query(key): the value of one bytes-like key"},
    {"query_hashes", (PyCFunction)plan_query_hashes, METH_VARARGS,
     "query_hashes(hi, lo, out): the values of master hashes, into out"},
    {"query_keys", (PyCFunction)plan_query_keys, METH_VARARGS,
     "query_keys(keys, out): the values of bytes-like keys, into out"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject PlanType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "sichash._native.lib.Plan",
    .tp_basicsize = sizeof(Plan),
    .tp_dealloc = (destructor)plan_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Plan(a, b, t1, t2, limit, starts, sizes, seeds, remap, stores): a function's "
              "packed query plan",
    .tp_methods = plan_methods,
    .tp_new = plan_new,
};

/* ------------------------------------------------------------------------
 * The whole decode of an Elias-Fano sequence, the work of
 * succinct.EliasFanoSeq.to_array's numpy path: the upper bit vector is
 * walked a word at a time, each 1-bit found with ctz.
 */

/* ef_decode(upper, lower, width, out): out[i] = ((p_i - i) << width) | low_i,
 * where p_i is the position of the i-th 1-bit of the upper words and low_i
 * the i-th width-bit field of the lower words (PackedIntArray's layout),
 * for the n = len(out) entries; three uint64 arrays.  width is in 0 .. 64;
 * at 64 the high part shifts out to 0, as numpy's << 64 does.  lower needs
 * n * width / 64 + 1 words, or none at width 0; a field is read from the
 * word after its first only when it reaches into it, so no read passes its
 * last bit.  The upper words must hold exactly n 1-bits, counting those past
 * the bit vector's length in its last word, as BitVector.all_positions
 * does; any other count raises ValueError, and out is never written past
 * its n entries. */
static PyObject *ef_decode(PyObject *self, PyObject *args)
{
    Py_buffer upper, lower, out;
    int width;
    if (!PyArg_ParseTuple(args, "y*y*iw*:ef_decode", &upper, &lower, &width, &out))
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t nu = upper.len / 8, nl = lower.len / 8, n = out.len / 8;
    if (check_buffer(&upper, 8, nu, "upper") < 0 || check_buffer(&lower, 8, nl, "lower") < 0 ||
        check_buffer(&out, 8, n, "out") < 0)
        goto done;
    if (width < 0 || width > 64) {
        PyErr_SetString(PyExc_ValueError, "width must be in [0, 64]");
        goto done;
    }
    /* n * width / 64 + 1 <= n + 1 words, and out holds n * 8 bytes */
    Py_ssize_t need = width ? (Py_ssize_t)((uint64_t)n * (uint64_t)width / 64) + 1 : 0;
    if (nl < need) {
        PyErr_Format(PyExc_ValueError, "lower: need %zd words, got %zd", need, nl);
        goto done;
    }
    const uint64_t *up = upper.buf, *lw = lower.buf;
    uint64_t *o = out.buf;
    uint64_t mask = width == 64 ? ~(uint64_t)0 : ((uint64_t)1 << width) - 1;
    uint64_t i = 0, bit = 0; /* entry i's field starts at lower bit i * width */
    int extra = 0;           /* a 1-bit found past the n-th */
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t k = 0; k < nu && !extra; k++) {
        for (uint64_t x = up[k]; x; x &= x - 1) {
            if (i == (uint64_t)n) {
                extra = 1;
                break;
            }
            uint64_t p = (uint64_t)k * 64 + (uint64_t)__builtin_ctzll(x);
            uint64_t low = 0;
            if (width) {
                uint64_t w = bit >> 6, off = bit & 63;
                low = lw[w] >> off;
                if (off + (uint64_t)width > 64) /* off > 0 here */
                    low |= lw[w + 1] << (64 - off);
                low &= mask;
                bit += (uint64_t)width;
            }
            o[i] = (width == 64 ? 0 : (p - i) << width) | low;
            i++;
        }
    }
    Py_END_ALLOW_THREADS
    if (extra || i != (uint64_t)n) {
        PyErr_Format(PyExc_ValueError, "upper: need exactly %zd 1-bits", n);
        goto done;
    }
    result = Py_None;
    Py_INCREF(result);
done:
    PyBuffer_Release(&upper);
    PyBuffer_Release(&lower);
    PyBuffer_Release(&out);
    return result;
}

/* ------------------------------------------------------------------------
 * The CRC-32 of a blob's trailer, equal to zlib.crc32: the reflected
 * polynomial 0xEDB88320, initial value and final xor 0xFFFFFFFF.
 *
 * On x86-64 CPUs with PCLMULQDQ, crc_fold folds 64-byte blocks with
 * carry-less multiplies, as in Gopal et al., "Fast CRC Computation for
 * Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), whose
 * bit-reflected constants it uses.  It is compiled for those instructions
 * alone, by a target attribute, and crc32_fold calls it only where
 * __builtin_cpu_supports finds them, so the module needs no -march flag.
 * zlib.crc32 takes what it leaves: inputs under 64 bytes, the tail past the
 * last 16-byte fold, and every input on other CPUs and hosts.
 */

#if defined(__x86_64__)
#include <immintrin.h>

/* whether the CPU has PCLMULQDQ and SSE4.1, set by the module's init */
static int crc_clmul;

/* the lane x carried forward by the distance that the constants k stand
 * for, xored into the lane next */
__attribute__((target("pclmul"))) static inline __m128i clmul_fold(__m128i x, __m128i k,
                                                                   __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/* the state c advanced over the n bytes at p, n >= 64 and a multiple of 16:
 * four lanes of 128 bits fold 64 bytes per step, then fold into one lane,
 * which takes the remaining 16-byte blocks; that lane is reduced to 64 bits
 * and, by Barrett reduction, to the 32-bit state */
__attribute__((target("pclmul,sse4.1"))) static uint32_t crc_fold(uint32_t c, const uint8_t *p,
                                                                    size_t n)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4); /* 512 bits on */
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0); /* 128 bits on */
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641); /* mu and P */
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i x[4];
    for (int i = 0; i < 4; i++)
        x[i] = _mm_loadu_si128((const __m128i *)(p + 16 * i));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128((int)c));
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64)
        for (int i = 0; i < 4; i++)
            x[i] = clmul_fold(x[i], k1k2, _mm_loadu_si128((const __m128i *)(p + 16 * i)));
    __m128i y = x[0];
    for (int i = 1; i < 4; i++)
        y = clmul_fold(y, k3k4, x[i]);
    for (; n >= 16; p += 16, n -= 16)
        y = clmul_fold(y, k3k4, _mm_loadu_si128((const __m128i *)p));
    /* 128 bits to 64 */
    y = _mm_xor_si128(_mm_srli_si128(y, 8), _mm_clmulepi64_si128(y, k3k4, 0x10));
    y = _mm_xor_si128(_mm_srli_si128(y, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(y, low32), k5, 0x00));
    /* Barrett reduction to 32 bits */
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(y, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return (uint32_t)_mm_extract_epi32(_mm_xor_si128(y, t), 1);
}
#endif

/* crc32_fold(data): (folded, crc), crc the CRC-32 of data[:folded] as
 * zlib.crc32 gives it, for zlib.crc32(data[folded:], crc) to finish.
 * folded is len(data) rounded down to 16 bytes where crc_fold runs: on a
 * CPU that has it and for 64 bytes or more.  Elsewhere it is 0 and crc 0,
 * and zlib takes the whole input. */
static PyObject *crc32_fold(PyObject *self, PyObject *arg)
{
    Py_buffer data;
    if (PyObject_GetBuffer(arg, &data, PyBUF_SIMPLE) < 0)
        return NULL;
    size_t folded = 0;
    uint32_t crc = 0;
#if defined(__x86_64__)
    if (data.len >= 64 && crc_clmul) {
        folded = (size_t)data.len & ~(size_t)15;
        Py_BEGIN_ALLOW_THREADS
        crc = crc_fold(0xFFFFFFFF, data.buf, folded) ^ 0xFFFFFFFF;
        Py_END_ALLOW_THREADS
    }
#endif
    PyBuffer_Release(&data);
    return Py_BuildValue("nk", (Py_ssize_t)folded, (unsigned long)crc);
}

/* ------------------------------------------------------------------------
 * The module.
 */

static PyMethodDef methods[] = {
    {"master_hash_batch", master_hash_batch, METH_VARARGS,
     "master_hash_batch(keys, a, b, hi, lo): the master hash of each key"},
    {"ribbon_build", ribbon_build, METH_VARARGS,
     "ribbon_build(hi, lo, values, num_slots, r, ks, kc, planes): one seed attempt of a "
     "retrieval store, into planes"},
    {"rattle_place", rattle_place, METH_VARARGS,
     "rattle_place(hi, lo, mask, seed, budget, m, assignments): derive a bucket's cells under "
     "one seed and place it"},
    {"partition", partition, METH_VARARGS,
     "partition(hi, lo, t1, t2, hi_b, lo_b, deg_b, counts, hi_c, lo_c, class_pos): the "
     "master hashes in bucket order and in class order; returns the class counts"},
    {"ef_decode", ef_decode, METH_VARARGS,
     "ef_decode(upper, lower, width, out): an Elias-Fano sequence's values, into out"},
    {"crc32_fold", crc32_fold, METH_O,
     "crc32_fold(data): (folded, crc), the CRC-32 of data[:folded] as zlib.crc32 gives it"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "sichash._native.lib", "The package's native kernels.", -1, methods,
};

PyMODINIT_FUNC PyInit_lib(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    crc_clmul = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif
    if (PyType_Ready(&PlanType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (!m)
        return NULL;
    Py_INCREF(&PlanType);
    if (PyModule_AddObject(m, "Plan", (PyObject *)&PlanType) < 0) {
        Py_DECREF(&PlanType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
