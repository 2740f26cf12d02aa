/* Native fetch/cache pre-pass: build_prepass of prepass.py in C.
 *
 * One function, t1000_prepass, walks a dynamic trace once through the
 * fetch stage (perfect prediction) and the memory hierarchy, and writes
 * every instruction's fetch cycle, every load's latency, the fetch
 * stall total and the five levels' final statistics. It computes
 * exactly what build_prepass computes, which is what a per-access walk
 * through MemoryHierarchy gives, so it models each level as Cache does:
 *
 *   - true LRU: each line carries a stamp from the level's own clock,
 *     which every access advances; a miss fills an empty way, else it
 *     evicts the smallest stamp in its set;
 *   - write-back, write-allocate: a store sets the line's dirty bit
 *     (a missing line is allocated dirty), and evicting a dirty line
 *     counts a writeback;
 *   - an L1 miss reaches ul2 with the access's write flag, and a ul2
 *     miss adds the memory latency;
 *   - a TLB is a cache with one line per page: a hit costs nothing, a
 *     miss its penalty.
 *
 * A way holds its whole line number, not the tag: within a set the two
 * are equivalent. Addresses are signed int64 and shift the way Python
 * ints do (floor division by the line size), so negative addresses map
 * to the same sets and lines as in Python.
 *
 * No global state: the caches are allocated and freed by the call.
 */

#include <stdint.h>
#include <stdlib.h>

#include "_kernel.h"

/* events[] values (prepass.py EV_*); any other non-zero value is a
 * store, as in build_prepass */
enum { EV_NONE, EV_LOAD, EV_STORE, EV_CTRL };

/* geom[] layout: per level in LEVELS order (il1, dl1, ul2, itlb, dtlb)
 * its sets, ways, line (page) size and latency (hit latency for a
 * cache, miss penalty for a TLB); then the memory latency, TEXT_BASE
 * and fetch_width */
enum { IL1, DL1, UL2, ITLB, DTLB, N_LEVELS };
enum { G_SETS, G_WAYS, G_LINE, G_LAT, G_PER_LEVEL };
enum { G_MEM = N_LEVELS * G_PER_LEVEL, G_TEXT_BASE, G_FETCH_WIDTH };

/* out[] layout: the fetch stall total, then per level (LEVELS order)
 * the CacheStats fields in order */
enum { S_ACCESSES, S_HITS, S_MISSES, S_EVICTIONS, S_WRITEBACKS, N_STATS };
#define N_OUT (1 + N_LEVELS * N_STATS)

/* lines per level the kernel allocates at most; a larger level is
 * refused (Python builds it) */
#define MAX_LINES (1 << 20)
/* every latency must lie in [0, MAX_LATENCY], so a load's total fits
 * the int32 mlat column; others are refused */
#define MAX_LATENCY (1 << 24)

typedef struct {
    int64_t *line;      /* per way: the line it holds */
    int64_t *stamp;     /* per way: LRU stamp, 0 while empty */
    uint8_t *dirty;
    int64_t *stats;     /* N_STATS counters in out[] */
    int64_t shift, mask, ways, clock;
    int64_t last;       /* the way of the last access (-1: none) */
} cache_t;

/* floor(a / 2**s), as Python's a >> s */
static inline int64_t shr(int64_t a, int64_t s)
{
    return a >= 0 ? a >> s : ~(~a >> s);
}

static int log2_exact(int64_t v)
{
    if (v < 1 || (v & (v - 1)))
        return -1;
    int s = 0;
    while ((int64_t)1 << s != v)
        s++;
    return s;
}

static int cache_init(cache_t *c, const int64_t *g, int64_t *stats)
{
    int64_t sets = g[G_SETS], ways = g[G_WAYS];
    int shift = log2_exact(g[G_LINE]);
    if (log2_exact(sets) < 0 || log2_exact(ways) < 0 || shift < 0
        || sets > MAX_LINES / ways)
        return R_BADINPUT;
    c->line = malloc((size_t)(sets * ways) * sizeof *c->line);
    c->stamp = calloc((size_t)(sets * ways), sizeof *c->stamp);
    c->dirty = calloc((size_t)(sets * ways), 1);
    if (!c->line || !c->stamp || !c->dirty)
        return R_NOMEM;
    c->stats = stats;
    c->shift = shift;
    c->mask = sets - 1;
    c->ways = ways;
    c->clock = 0;
    c->last = -1;
    return R_OK;
}

static void cache_free(cache_t *c)
{
    free(c->line);
    free(c->stamp);
    free(c->dirty);
}

/* Cache.access: look the line up, allocate it on a miss; 1 on a hit */
static int cache_access(cache_t *c, int64_t addr, int write)
{
    const int64_t line = shr(addr, c->shift);
    const int64_t stamp = ++c->clock;
    c->stats[S_ACCESSES]++;
    if (c->last >= 0 && c->line[c->last] == line) {
        /* the line the last access left: still resident */
        c->stats[S_HITS]++;
        c->stamp[c->last] = stamp;
        c->dirty[c->last] |= write;
        return 1;
    }
    const int64_t base = (line & c->mask) * c->ways;
    int64_t *ln = c->line + base, *st = c->stamp + base;
    uint8_t *dt = c->dirty + base;
    int64_t victim = 0;
    for (int64_t w = 0; w < c->ways; w++) {
        if (st[w] && ln[w] == line) {
            c->stats[S_HITS]++;
            st[w] = stamp;
            dt[w] |= write;
            c->last = base + w;
            return 1;
        }
        if (st[w] < st[victim])
            victim = w;     /* an empty way (stamp 0) wins */
    }
    c->stats[S_MISSES]++;
    if (st[victim]) {
        c->stats[S_EVICTIONS]++;
        c->stats[S_WRITEBACKS] += dt[victim];
    }
    ln[victim] = line;
    st[victim] = stamp;
    dt[victim] = (uint8_t)write;
    c->last = base + victim;
    return 0;
}

/* MemoryHierarchy._access: an L1 leg, through ul2 and memory */
static int64_t hier_access(cache_t *l1, int64_t l1_lat, cache_t *ul2,
                           int64_t ul2_lat, int64_t mem_lat, int64_t addr,
                           int write)
{
    if (cache_access(l1, addr, write))
        return l1_lat;
    if (cache_access(ul2, addr, write))
        return l1_lat + ul2_lat;
    return l1_lat + ul2_lat + mem_lat;
}

int t1000_prepass(
    int64_t n, const int32_t *indices, const int64_t *addrs, int64_t n_addrs,
    const uint8_t *events, int64_t n_static, const int64_t *geom,
    int64_t *fcyc, int32_t *mlat, int64_t *out)
{
    const int64_t fetch_width = geom[G_FETCH_WIDTH];
    const int64_t text_base = geom[G_TEXT_BASE], mem_lat = geom[G_MEM];
    if (!columns_ok(n, indices, n_addrs, n_static) || fetch_width < 1
        || fetch_width > INT32_MAX || text_base < 0
        || text_base > INT32_MAX || mem_lat < 0 || mem_lat > MAX_LATENCY)
        return R_BADINPUT;
    for (int l = 0; l < N_LEVELS; l++) {
        int64_t lat = geom[l * G_PER_LEVEL + G_LAT];
        if (lat < 0 || lat > MAX_LATENCY)
            return R_BADINPUT;
    }
    for (int64_t i = 0; i < N_OUT; i++)
        out[i] = 0;

    cache_t c[N_LEVELS] = {{0}};
    int rc = R_OK;
    for (int l = 0; l < N_LEVELS && rc == R_OK; l++)
        rc = cache_init(&c[l], geom + l * G_PER_LEVEL,
                        out + 1 + l * N_STATS);
    if (rc != R_OK)
        goto done;
    cache_t *il1 = &c[IL1], *dl1 = &c[DL1], *ul2 = &c[UL2];
    cache_t *itlb = &c[ITLB], *dtlb = &c[DTLB];
    const int64_t il1_lat = geom[IL1 * G_PER_LEVEL + G_LAT];
    const int64_t dl1_lat = geom[DL1 * G_PER_LEVEL + G_LAT];
    const int64_t ul2_lat = geom[UL2 * G_PER_LEVEL + G_LAT];
    const int64_t itlb_pen = geom[ITLB * G_PER_LEVEL + G_LAT];
    const int64_t dtlb_pen = geom[DTLB * G_PER_LEVEL + G_LAT];

    int64_t fc = 1;                 /* fetch cycle of the current group */
    int64_t full = fetch_width;     /* index at which that group is full */
    int64_t cur = 0, stall = 0;
    int have_cur = 0;               /* 0: the next line refetches */
    for (int64_t k = 0; k < n; k++) {
        const int64_t si = indices[k];
        if (k == full) {
            fc++;
            full = k + fetch_width;
        }
        const int64_t pc = text_base + 4 * si;
        const int64_t line = shr(pc, il1->shift);
        if (!have_cur || line != cur) {
            cur = line;
            have_cur = 1;
            int64_t extra = (cache_access(itlb, pc, 0) ? 0 : itlb_pen)
                + hier_access(il1, il1_lat, ul2, ul2_lat, mem_lat, pc, 0)
                - 1;
            if (extra > 0) {
                fc += extra;
                stall += extra;
                full = k + fetch_width;
            }
        }
        fcyc[k] = fc;
        mlat[k] = 0;
        const int ev = events[si];
        if (ev == EV_NONE)
            continue;
        if (ev == EV_CTRL) {
            if (k < n - 1 && indices[k + 1] != si + 1) {
                /* taken: the group ends here and the target refetches */
                fc++;
                full = k + 1 + fetch_width;
                have_cur = 0;
            }
            continue;
        }
        const int64_t a = addrs[k];
        const int write = ev != EV_LOAD;
        const int64_t lat = (cache_access(dtlb, a, 0) ? 0 : dtlb_pen)
            + hier_access(dl1, dl1_lat, ul2, ul2_lat, mem_lat, a, write);
        if (!write)
            mlat[k] = (int32_t)lat;
    }
    out[0] = stall;
done:
    for (int l = 0; l < N_LEVELS; l++)
        cache_free(&c[l]);
    return rc;
}
