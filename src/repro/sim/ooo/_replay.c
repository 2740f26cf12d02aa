/* Native OoO replay kernel: the fast replay loop of pipeline.py in C.
 *
 * One function, t1000_replay, replays a dynamic trace through the
 * dispatch/issue/commit model with the fetch schedule and load
 * latencies taken from the trace's pre-pass (prepass.py). It computes
 * exactly what the generated Python loop computes, for any machine:
 * the widths, RUU size and unit limits are run-time arguments, and
 * every unit ring is kept (the elision rule of _loop_shape read the
 * other way round: a kept ring whose limit is >= the issue limit never
 * binds). It also models the PFU bank (pfu.py), counts instruction
 * classes, accumulates the stall attribution and the issue-width
 * histogram a live recorder publishes, and records PFU
 * reconfigurations.
 *
 * The kernel has no global state: every buffer is the caller's or is
 * allocated and freed by the call, so it is reentrant and safe to call
 * after fork. Built into one library with _prepass.c (see native.py).
 */

#include <stdint.h>
#include <stdlib.h>

#include "_kernel.h"

/* instruction classes (pipeline.py _C_*) */
enum { C_ALU, C_MUL, C_DIV, C_LOAD, C_STORE, C_CTRL, C_NOP, C_EXT, N_CLS };

/* params[] slots */
enum {
    P_ISSUE, P_DECODE, P_COMMIT, P_RUU, P_IALU, P_IMULT, P_MEMPORTS,
    P_PFUS,             /* -1: unlimited */
    P_CONFS, P_HORIZON, N_PARAMS
};

/* out[] slots: cycles, PFU counters, class counts, stall cycles (in
 * the order of pipeline.py's stall reasons after fetch.icache), the
 * number of reconfigurations, then the issue-width histogram */
enum {
    O_CYCLES, O_HITS, O_MISSES, O_RECONFIG_CYCLES,
    O_CLASS,
    O_STALL = O_CLASS + N_CLS,
    O_RECONFIGS = O_STALL + 8,
    O_HIST
};
enum { S_RUU, S_DWIDTH, S_OPERANDS, S_STORE_DEP, S_PFU, S_DIV, S_STRUCT,
       S_CWIDTH };

/* per static instruction: class, sources ($zero dropped), destination,
 * latency, dense configuration index (-1 unless ext) */
typedef struct { int32_t cls, s1, s2, dst, lat, conf; } row_t;

/* store_ready: word address -> completion cycle, open addressing */
#define EMPTY INT64_MIN   /* never a word address: addr >> 2 > INT64_MIN */
typedef struct { int64_t *key, *val, mask, used; } smap_t;

static uint64_t slot_of(int64_t key, int64_t mask)
{
    return ((uint64_t)key * 0x9E3779B97F4A7C15ULL >> 17) & (uint64_t)mask;
}

static int smap_init(smap_t *m, int64_t cap)
{
    m->key = malloc(cap * sizeof *m->key);
    m->val = malloc(cap * sizeof *m->val);
    m->mask = cap - 1;
    m->used = 0;
    if (!m->key || !m->val)
        return -1;
    for (int64_t i = 0; i < cap; i++)
        m->key[i] = EMPTY;
    return 0;
}

static int64_t smap_get(const smap_t *m, int64_t key)
{
    for (uint64_t i = slot_of(key, m->mask);; i = (i + 1) & m->mask) {
        if (m->key[i] == key)
            return m->val[i];
        if (m->key[i] == EMPTY)
            return 0;
    }
}

static int smap_put(smap_t *m, int64_t key, int64_t val)
{
    uint64_t i = slot_of(key, m->mask);
    for (; m->key[i] != EMPTY; i = (i + 1) & m->mask) {
        if (m->key[i] == key) {
            m->val[i] = val;
            return 0;
        }
    }
    m->key[i] = key;
    m->val[i] = val;
    if (++m->used * 2 <= m->mask + 1)
        return 0;
    smap_t big;   /* over half full: double */
    if (smap_init(&big, 2 * (m->mask + 1))) {
        free(big.key);
        free(big.val);
        return -1;
    }
    for (int64_t j = 0; j <= m->mask; j++) {
        if (m->key[j] == EMPTY)
            continue;
        uint64_t s = slot_of(m->key[j], big.mask);
        while (big.key[s] != EMPTY)
            s = (s + 1) & big.mask;
        big.key[s] = m->key[j];
        big.val[s] = m->val[j];
    }
    big.used = m->used;
    free(m->key);
    free(m->val);
    *m = big;
    return 0;
}

/* stamped ring: slot `cycle & mask` counts ops issued in `cycle` iff
 * its stamp equals the cycle */
typedef struct { int64_t *s; int64_t *c; } ring_t;

/* The issue-width search with one unit ring (pipeline.py unit_search):
 * the first cycle >= t with a free issue slot and a free unit. A stale
 * issue slot's count goes to the width histogram before reuse. */
static int64_t unit_search(int64_t t, int64_t mask, ring_t iss, int64_t W,
                           ring_t unit, int64_t limit, int64_t *hist)
{
    for (;; t++) {
        int64_t i = t & mask;
        int live = iss.s[i] == t;
        if (live && iss.c[i] >= W)
            continue;
        if (unit.s[i] == t) {
            if (unit.c[i] >= limit)
                continue;
            unit.c[i]++;
        } else {
            unit.s[i] = t;
            unit.c[i] = 1;
        }
        if (live) {
            iss.c[i]++;
        } else {
            hist[iss.c[i]]++;
            iss.s[i] = t;
            iss.c[i] = 1;
        }
        return t;
    }
}

int t1000_replay(
    int64_t n, const int32_t *indices, const int64_t *addrs, int64_t n_addrs,
    const int64_t *fcyc, const int32_t *mlat,
    const row_t *tab, int64_t n_static,
    const int64_t *params, const int64_t *conf_lat,
    int64_t *out, int64_t n_out, int64_t *reconfigs, int64_t reconfig_cap)
{
    const int64_t decode_width = params[P_DECODE];
    const int64_t commit_width = params[P_COMMIT], R = params[P_RUU];
    /* at most min(issue width, R, n) ops issue in one cycle: those that
     * issue in a cycle are all in the RUU then, and no two are R apart.
     * Capping W there changes no answer and bounds every count. */
    int64_t W = params[P_ISSUE] < R ? params[P_ISSUE] : R;
    if (n < W)
        W = n;
    const int64_t n_ialu = params[P_IALU], n_imult = params[P_IMULT];
    const int64_t n_memports = params[P_MEMPORTS];
    const int64_t n_pfus = params[P_PFUS], n_confs = params[P_CONFS];
    const int64_t horizon = params[P_HORIZON], mask = horizon - 1;

    /* every index the loop takes is checked here, before it runs */
    if (!columns_ok(n, indices, n_addrs, n_static) || params[P_ISSUE] < 1
        || decode_width < 1 || commit_width < 1 || R < 1 || n_ialu < 1
        || n_imult < 1 || n_memports < 1 || n_pfus < -1 || n_pfus == 0
        || n_confs < 0 || horizon < 1 || (horizon & mask))
        return R_BADINPUT;
    for (int64_t si = 0; si < n_static; si++) {
        const row_t *r = &tab[si];
        if (r->cls < 0 || r->cls >= N_CLS || r->s1 < 0 || r->s1 > 31
            || r->s2 < 0 || r->s2 > 31 || r->dst < 0 || r->dst > 31
            || (r->cls == C_EXT && (r->conf < 0 || r->conf >= n_confs)))
            return R_BADINPUT;
    }

    if (n_out < O_HIST + W + 1)
        return R_BADINPUT;
    int64_t *hist = out + O_HIST;
    for (int64_t i = 0; i < n_out; i++)
        out[i] = 0;
    int64_t *counts = out + O_CLASS, *stall = out + O_STALL;
    int64_t hits = 0, misses = 0, reconfig_cycles = 0, n_reconfigs = 0;

    int rc = R_NOMEM;
    /* PFU bank: per slot tag (dense conf, -1 empty), ready cycle, last
     * issue and LRU stamp; per conf its slot (or, unlimited, ready) */
    int64_t nslots = n_pfus > 0 ? n_pfus : 0;
    int64_t *rings = calloc((size_t)(8 + nslots) * horizon, sizeof *rings);
    int64_t *commit_ring = calloc(R, sizeof *commit_ring);
    int64_t *bank = malloc((4 * nslots + n_confs + 1) * sizeof *bank);
    smap_t store = {0};
    if (!rings || !commit_ring || !bank || smap_init(&store, 1024))
        goto done;
    ring_t iss = {rings, rings + horizon};
    ring_t alu = {rings + 2 * horizon, rings + 3 * horizon};
    ring_t mul = {rings + 4 * horizon, rings + 5 * horizon};
    ring_t mem = {rings + 6 * horizon, rings + 7 * horizon};
    int64_t *pfu_rings = rings + 8 * horizon;   /* stamps only */
    int64_t *tag = bank, *ready = bank + nslots;
    int64_t *last_issue = bank + 2 * nslots, *lru = bank + 3 * nslots;
    int64_t *by_conf = bank + 4 * nslots, clock = 0;
    for (int64_t s = 0; s < nslots; s++) {
        tag[s] = -1;
        ready[s] = 0;
        last_issue[s] = -1;
        lru[s] = 0;
    }
    for (int64_t c = 0; c < n_confs; c++)
        by_conf[c] = -1;

    int64_t disp_cycle = 1, disp_n = 0, commit_cycle = 1, commit_n = 0;
    int64_t div_free = 0, kslot = 0;
    int64_t reg_ready[32] = {0};

    for (int64_t k = 0; k < n; k++, kslot = kslot + 1 == R ? 0 : kslot + 1) {
        const row_t *r = &tab[indices[k]];
        const int cls = r->cls;
        counts[cls]++;

        /* -- dispatch -- */
        int64_t d = fcyc[k] + 1;
        if (d < disp_cycle)
            d = disp_cycle;
        int64_t freed = commit_ring[kslot] + 1;
        if (freed > d) {
            stall[S_RUU] += freed - d;
            d = freed;
        }
        if (d > disp_cycle) {
            disp_cycle = d;
            disp_n = 1;
        } else if (disp_n >= decode_width) {
            stall[S_DWIDTH]++;
            d = ++disp_cycle;
            disp_n = 1;
        } else {
            disp_n++;
        }

        /* PFU tag check at dispatch (pfu.py PFUBank.acquire) */
        int64_t config_ready = 0, pslot = -1;
        if (cls == C_EXT) {
            const int64_t cf = r->conf, lat = conf_lat[cf];
            int64_t start = -1;
            if (n_pfus < 0) {
                if (by_conf[cf] < 0) {
                    start = d;
                    by_conf[cf] = d + lat;
                } else {
                    hits++;
                }
                config_ready = by_conf[cf];
            } else if (by_conf[cf] >= 0) {
                hits++;
                pslot = by_conf[cf];
                lru[pslot] = ++clock;
                config_ready = ready[pslot];
            } else {
                pslot = 0;          /* first empty slot, else the LRU */
                for (int64_t s = 0; s < nslots; s++) {
                    if (tag[s] < 0) {
                        pslot = s;
                        break;
                    }
                    if (lru[s] < lru[pslot])
                        pslot = s;
                }
                if (tag[pslot] >= 0)
                    by_conf[tag[pslot]] = -1;
                start = last_issue[pslot] + 1 > d ? last_issue[pslot] + 1 : d;
                tag[pslot] = cf;
                ready[pslot] = start + lat;
                by_conf[cf] = pslot;
                lru[pslot] = ++clock;
                config_ready = ready[pslot];
            }
            if (start >= 0) {
                misses++;
                reconfig_cycles += lat;
                if (n_reconfigs < reconfig_cap) {
                    int64_t *rec = reconfigs + 4 * n_reconfigs;
                    rec[0] = cf;
                    rec[1] = pslot;
                    rec[2] = start;
                    rec[3] = config_ready;
                }
                n_reconfigs++;
            }
        }

        /* -- issue: operand and dependence waits -- */
        int64_t t = d + 1;
        if (r->s1) {
            if (reg_ready[r->s1] > t)
                t = reg_ready[r->s1];
            if (r->s2 && reg_ready[r->s2] > t)
                t = reg_ready[r->s2];
        }
        if (t > d + 1)
            stall[S_OPERANDS] += t - (d + 1);
        if (cls == C_LOAD) {
            int64_t dep = smap_get(&store, addrs[k] >> 2);
            if (dep > t) {
                stall[S_STORE_DEP] += dep - t;
                t = dep;
            }
        } else if (cls == C_EXT) {
            if (config_ready > t) {
                stall[S_PFU] += config_ready - t;
                t = config_ready;
            }
        } else if (cls == C_DIV && div_free > t) {
            stall[S_DIV] += div_free - t;
            t = div_free;
        }

        /* -- issue: structural search -- */
        const int64_t t_pre = t;
        switch (cls) {
        case C_MUL:
            t = unit_search(t, mask, iss, W, mul, n_imult, hist);
            break;
        case C_DIV:
            t = unit_search(t, mask, iss, W, mul, n_imult, hist);
            div_free = t + r->lat;
            break;
        case C_LOAD:
        case C_STORE:
            t = unit_search(t, mask, iss, W, mem, n_memports, hist);
            break;
        case C_EXT: {
            int64_t *ps = pslot >= 0 ? pfu_rings + pslot * horizon : NULL;
            for (;; t++) {
                int64_t i = t & mask;
                int live = iss.s[i] == t;
                if (live && iss.c[i] >= W)
                    continue;
                if (ps) {
                    if (ps[i] == t)
                        continue;
                    ps[i] = t;
                }
                if (live) {
                    iss.c[i]++;
                } else {
                    hist[iss.c[i]]++;
                    iss.s[i] = t;
                    iss.c[i] = 1;
                }
                break;
            }
            if (pslot >= 0 && t > last_issue[pslot])
                last_issue[pslot] = t;
            break;
        }
        default:
            t = unit_search(t, mask, iss, W, alu, n_ialu, hist);
        }
        if (t - d >= horizon) {
            rc = R_HORIZON;
            goto done;
        }
        stall[S_STRUCT] += t - t_pre;

        /* -- execute/complete -- */
        int64_t complete;
        if (cls == C_LOAD) {
            complete = t + mlat[k];
        } else if (cls == C_STORE) {
            complete = t + 1;
            if (smap_put(&store, addrs[k] >> 2, complete))
                goto done;
        } else {
            complete = t + r->lat;
        }
        if (r->dst)
            reg_ready[r->dst] = complete;

        /* -- commit -- */
        int64_t c = complete + 1;
        if (c > commit_cycle) {
            commit_cycle = c;
            commit_n = 1;
        } else if (commit_n >= commit_width) {
            stall[S_CWIDTH]++;
            c = ++commit_cycle;
            commit_n = 1;
        } else {
            c = commit_cycle;
            commit_n++;
        }
        commit_ring[kslot] = c;
    }

    for (int64_t i = 0; i < horizon; i++)
        hist[iss.c[i]]++;
    hist[0] = 0;    /* counts of cycles without an issue are not widths */
    out[O_CYCLES] = commit_cycle;
    out[O_HITS] = hits;
    out[O_MISSES] = misses;
    out[O_RECONFIG_CYCLES] = reconfig_cycles;
    out[O_RECONFIGS] = n_reconfigs;
    rc = R_OK;
done:
    free(rings);
    free(commit_ring);
    free(bank);
    free(store.key);
    free(store.val);
    return rc;
}
