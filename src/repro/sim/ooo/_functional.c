/* Native functional simulator: FunctionalSimulator._run of
 * sim/functional.py in C.
 *
 * One function, t1000_functional, executes a program from a given
 * state until it halts, runs out of steps, faults, or needs something
 * only Python can provide. The caller owns every byte it touches:
 *
 *   - the 32-bit register file, pc and step counters live in state[];
 *   - memory is the Memory object's own 64 KiB page bytearrays, passed
 *     as a table of 65536 page pointers (NULL: never written). A store
 *     to a missing page returns F_NEEDPAGE before the instruction has
 *     any effect; Python allocates the page and calls again;
 *   - the trace columns (int32 indices, int64 addresses) have room for
 *     state[S_TCAP] entries; when they are full the kernel returns
 *     F_TRACEFULL before the next instruction, and Python grows them;
 *   - the profile is per-instruction exec counts and the max operand and
 *     result widths, as the reference loop keeps them.
 *
 * Every other outcome is a code Python turns into the exception the
 * reference loop raises: a pc outside the text, a jump to a bad text
 * address, a misaligned access, a strict-mode read of an unmapped page,
 * and an exhausted step budget. A faulting instruction changes nothing.
 *
 * ext instructions evaluate their configuration from a flattened node
 * table, with the same ALU semantics as isa/semantics.py.
 *
 * No global state and nothing allocated: every resume starts from
 * state[].
 */

#include <stdint.h>

#include "_kernel.h"

/* return codes past _kernel.h's */
enum {
    F_STEPS = 4,        /* the step budget ran out before halt */
    F_PC,               /* pc outside the text segment (state[S_PC]) */
    F_BADTEXT,          /* jr/jalr to a bad text address (aux) */
    F_MISALIGNED,       /* misaligned access at aux, size aux2 */
    F_UNMAPPED,         /* strict read of an unmapped address (aux) */
    F_NEEDPAGE,         /* a store needs page aux: allocate and resume */
    F_TRACEFULL,        /* the trace columns are full: grow and resume */
};

/* state[] layout; the registers follow the scalars */
enum {
    S_PC, S_STEPS, S_MAX_STEPS, S_STRICT, S_TEXT_BASE, S_TLEN, S_TCAP,
    S_AUX, S_AUX2, S_REGS, N_STATE = S_REGS + 32,
};

/* code[] holds C_WIDTH values per static instruction: the kind, then
 * its operands (functional.py _native_code) */
enum {
    K_ALU_REG,          /* alu, dst, a, b */
    K_ALU_IMM,          /* alu, dst, a, imm (u32) */
    K_LUI,              /* value, dst */
    K_LOAD,             /* size, signed, rt, rs, offset (u32) */
    K_STORE,            /* size, rt, rs, offset (u32) */
    K_BRANCH,           /* cond, rs, rt, target */
    K_J,                /* target */
    K_JAL,              /* target */
    K_JR,               /* rs */
    K_JALR,             /* rd, rs */
    K_NOP,
    K_HALT,
    K_EXT,              /* dense conf, dst, rs, rt */
    N_KINDS,
};
#define C_WIDTH 6

/* ALU operations: one per evaluation function of isa/semantics.py */
enum {
    A_ADD, A_SUB, A_AND, A_OR, A_XOR, A_NOR, A_SLT, A_SLTU, A_SLL,
    A_SRL, A_SRA, A_MUL, A_DIV, A_REM, A_LUI, N_ALU,
};

/* branch conditions (functional.py _COND) */
enum { B_EQ, B_NE, B_LEZ, B_GTZ, B_LTZ, B_GEZ, N_COND };

/* nodes[] holds N_WIDTH values per ext node: the ALU operation, then
 * (kind, value) for each operand; spans[] holds (first node, count)
 * per dense configuration */
enum { R_IN, R_NODE, R_CONST, N_REFS };
#define N_WIDTH 5
/* nodes one configuration may have (the kernel's value stack) */
#define MAX_NODES 256

#define PAGE_BITS 16
#define PAGE_MASK ((1u << PAGE_BITS) - 1)

static inline uint32_t alu(int64_t op, uint32_t a, uint32_t b)
{
    int64_t sa = (int32_t)a, sb = (int32_t)b;
    uint32_t s = b & 31;

    switch (op) {
    case A_ADD: return a + b;
    case A_SUB: return a - b;
    case A_AND: return a & b;
    case A_OR: return a | b;
    case A_XOR: return a ^ b;
    case A_NOR: return ~(a | b);
    case A_SLT: return sa < sb;
    case A_SLTU: return a < b;
    case A_SLL: return a << s;
    case A_SRL: return a >> s;
    case A_SRA:
        return (a & 0x80000000u) ? ~(~a >> s) : a >> s;
    case A_MUL: return (uint32_t)(uint64_t)(sa * sb);
    /* division truncates toward zero and x/0 is 0; int64 holds
     * INT_MIN / -1 */
    case A_DIV: return sb ? (uint32_t)(uint64_t)(sa / sb) : 0;
    case A_REM: return sb ? (uint32_t)(uint64_t)(sa % sb) : 0;
    default: /* A_LUI */ return (b & 0xFFFFu) << 16;
    }
}

/* repro.utils.bitops.effective_width of a value in [0, 2**32) */
static inline int32_t width(uint32_t v)
{
    if (v & 0x80000000u) {
        uint32_t w = v ^ 0xFFFFFFFFu;
        return w ? 33 - __builtin_clz(w) : 1;
    }
    return v ? 32 - __builtin_clz(v) : 1;
}

static uint32_t ext_eval(const int64_t *nodes, const int64_t *span,
                         uint32_t in0, uint32_t in1)
{
    uint32_t values[MAX_NODES];
    const int64_t *node = nodes + N_WIDTH * span[0];

    for (int64_t j = 0; j < span[1]; j++, node += N_WIDTH) {
        uint32_t operand[2];
        for (int side = 0; side < 2; side++) {
            int64_t kind = node[1 + 2 * side], value = node[2 + 2 * side];
            operand[side] = kind == R_IN ? (value ? in1 : in0)
                : kind == R_NODE ? values[value] : (uint32_t)value;
        }
        values[j] = alu(node[0], operand[0], operand[1]);
    }
    return values[span[1] - 1];
}

static int reg_ok(int64_t r) { return r >= 0 && r < 32; }

/* Every table entry in range, so the loop needs no checks but pc's. */
static int inputs_ok(const int64_t *code, int64_t n_code,
                     const int64_t *nodes, int64_t n_nodes,
                     const int64_t *spans, int64_t n_ext,
                     const int64_t *state, const int32_t *tidx,
                     const int64_t *taddr)
{
    for (int64_t e = 0; e < n_ext; e++) {
        int64_t first = spans[2 * e], count = spans[2 * e + 1];
        if (first < 0 || count < 1 || count > MAX_NODES
                || first > n_nodes - count)
            return 0;
        for (int64_t j = 0; j < count; j++) {
            const int64_t *node = nodes + N_WIDTH * (first + j);
            if (node[0] < 0 || node[0] >= N_ALU)
                return 0;
            for (int side = 0; side < 2; side++) {
                int64_t kind = node[1 + 2 * side], value = node[2 + 2 * side];
                if (kind == R_IN ? value != 0 && value != 1
                        : kind == R_NODE ? value < 0 || value >= j
                        : kind != R_CONST || value < 0
                          || value > 0xFFFFFFFFll)
                    return 0;
            }
        }
    }
    for (int64_t i = 0; i < n_code; i++) {
        const int64_t *d = code + C_WIDTH * i;
        int ok;
        switch (d[0]) {
        case K_ALU_REG:
            ok = d[1] >= 0 && d[1] < N_ALU && reg_ok(d[2]) && reg_ok(d[3])
                && reg_ok(d[4]);
            break;
        case K_ALU_IMM:
            ok = d[1] >= 0 && d[1] < N_ALU && reg_ok(d[2]) && reg_ok(d[3])
                && d[4] >= 0 && d[4] <= 0xFFFFFFFFll;
            break;
        case K_LUI:
            ok = d[1] >= 0 && d[1] <= 0xFFFFFFFFll && reg_ok(d[2]);
            break;
        case K_LOAD:
            ok = (d[1] == 1 || d[1] == 2 || d[1] == 4) && reg_ok(d[3])
                && reg_ok(d[4]) && d[5] >= 0 && d[5] <= 0xFFFFFFFFll;
            break;
        case K_STORE:
            ok = (d[1] == 1 || d[1] == 2 || d[1] == 4) && reg_ok(d[2])
                && reg_ok(d[3]) && d[4] >= 0 && d[4] <= 0xFFFFFFFFll;
            break;
        case K_BRANCH:
            ok = d[1] >= 0 && d[1] < N_COND && reg_ok(d[2]) && reg_ok(d[3]);
            break;
        case K_JR:
            ok = reg_ok(d[1]);
            break;
        case K_JALR:
            ok = reg_ok(d[1]) && reg_ok(d[2]);
            break;
        case K_EXT:
            ok = d[1] >= 0 && d[1] < n_ext && reg_ok(d[2]) && reg_ok(d[3])
                && reg_ok(d[4]);
            break;
        default:
            ok = d[0] >= 0 && d[0] < N_KINDS;   /* J, JAL, NOP, HALT */
        }
        if (!ok)
            return 0;
    }
    /* the link value TEXT_BASE + 4 * (index + 1) must be a u32 */
    if (state[S_TEXT_BASE] < 0
            || state[S_TEXT_BASE] + 4 * n_code > 0xFFFFFFFFll)
        return 0;
    for (int r = 0; r < 32; r++)
        if (state[S_REGS + r] < 0 || state[S_REGS + r] > 0xFFFFFFFFll)
            return 0;
    if ((tidx == 0) != (taddr == 0) || state[S_TLEN] < 0
            || state[S_TLEN] > state[S_TCAP] || state[S_STEPS] < 0)
        return 0;
    return 1;
}

int t1000_functional(const int64_t *code, int64_t n_code,
                     const int64_t *nodes, int64_t n_nodes,
                     const int64_t *spans, int64_t n_ext,
                     uint8_t *const *pages, int64_t *state,
                     int32_t *tidx, int64_t *taddr,
                     int64_t *counts, int32_t *mow, int32_t *mrw)
{
    if (!inputs_ok(code, n_code, nodes, n_nodes, spans, n_ext, state,
                   tidx, taddr))
        return R_BADINPUT;

    uint32_t r[32];
    for (int k = 0; k < 32; k++)
        r[k] = (uint32_t)state[S_REGS + k];
    int64_t pc = state[S_PC], steps = state[S_STEPS];
    const int64_t max_steps = state[S_MAX_STEPS];
    const int64_t tcap = state[S_TCAP];
    const uint32_t text_base = (uint32_t)state[S_TEXT_BASE];
    const int strict = state[S_STRICT] != 0;
    int64_t tlen = state[S_TLEN];
    int rc = F_STEPS;

    while (steps < max_steps) {
        if (pc < 0 || pc >= n_code) {
            rc = F_PC;
            break;
        }
        if (tidx && tlen >= tcap) {
            rc = F_TRACEFULL;
            break;
        }
        const int64_t *d = code + C_WIDTH * pc;
        int64_t next = pc + 1, addr = -1;
        uint32_t a, b, v;

        switch (d[0]) {
        case K_ALU_REG:
        case K_ALU_IMM:
            a = r[d[3]];
            b = d[0] == K_ALU_REG ? r[d[4]] : (uint32_t)d[4];
            v = alu(d[1], a, b);
            if (d[2])
                r[d[2]] = v;
            if (mow) {
                int32_t w = width(a), w2 = width(b), rw = width(v);
                if (w2 > w)
                    w = w2;
                if (w > mow[pc])
                    mow[pc] = w;
                if (rw > mrw[pc])
                    mrw[pc] = rw;
            }
            break;
        case K_LUI:
            if (d[2])
                r[d[2]] = (uint32_t)d[1];
            break;
        case K_LOAD: {
            uint32_t at = r[d[4]] + (uint32_t)d[5], size = (uint32_t)d[1];
            if (at & (size - 1)) {
                state[S_AUX] = at;
                state[S_AUX2] = size;
                rc = F_MISALIGNED;
                goto out;
            }
            const uint8_t *page = pages[at >> PAGE_BITS];
            if (!page && strict) {
                state[S_AUX] = at;
                rc = F_UNMAPPED;
                goto out;
            }
            v = 0;
            if (page) {
                const uint8_t *p = page + (at & PAGE_MASK);
                if (size == 4)
                    v = p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
                        | (uint32_t)p[3] << 24;
                else if (size == 2)
                    v = p[0] | (uint32_t)p[1] << 8;
                else
                    v = p[0];
            }
            if (d[2]) {
                if (size == 2 && v & 0x8000u)
                    v |= 0xFFFF0000u;
                else if (size == 1 && v & 0x80u)
                    v |= 0xFFFFFF00u;
            }
            if (d[3])
                r[d[3]] = v;
            addr = at;
            break;
        }
        case K_STORE: {
            uint32_t at = r[d[3]] + (uint32_t)d[4], size = (uint32_t)d[1];
            if (at & (size - 1)) {
                state[S_AUX] = at;
                state[S_AUX2] = size;
                rc = F_MISALIGNED;
                goto out;
            }
            uint8_t *page = pages[at >> PAGE_BITS];
            if (!page) {
                state[S_AUX] = at >> PAGE_BITS;
                rc = F_NEEDPAGE;
                goto out;
            }
            uint8_t *p = page + (at & PAGE_MASK);
            v = r[d[2]];
            p[0] = (uint8_t)v;
            if (size >= 2)
                p[1] = (uint8_t)(v >> 8);
            if (size == 4) {
                p[2] = (uint8_t)(v >> 16);
                p[3] = (uint8_t)(v >> 24);
            }
            addr = at;
            break;
        }
        case K_BRANCH: {
            int32_t s = (int32_t)r[d[2]];
            int taken;
            switch (d[1]) {
            case B_EQ: taken = r[d[2]] == r[d[3]]; break;
            case B_NE: taken = r[d[2]] != r[d[3]]; break;
            case B_LEZ: taken = s <= 0; break;
            case B_GTZ: taken = s > 0; break;
            case B_LTZ: taken = s < 0; break;
            default: taken = s >= 0;
            }
            if (taken)
                next = d[4];
            break;
        }
        case K_J:
            next = d[1];
            break;
        case K_JAL:
            r[31] = text_base + 4 * (uint32_t)next;
            next = d[1];
            break;
        case K_JR:
        case K_JALR: {
            uint32_t target = r[d[0] == K_JR ? d[1] : d[2]];
            if (target % 4 || target < text_base) {
                state[S_AUX] = target;
                rc = F_BADTEXT;
                goto out;
            }
            uint32_t link = text_base + 4 * (uint32_t)next;
            next = (target - text_base) / 4;
            if (d[0] == K_JALR && d[1])
                r[d[1]] = link;
            break;
        }
        case K_EXT:
            a = r[d[3]];
            b = r[d[4]];
            v = ext_eval(nodes, spans + 2 * d[1], a, b);
            if (d[2])
                r[d[2]] = v;
            if (mow) {
                int32_t w = width(a), w2 = width(b);
                if (w2 > w)
                    w = w2;
                if (w > mow[pc])
                    mow[pc] = w;
            }
            break;
        case K_HALT:
            next = -1;
            break;
        default: /* K_NOP */
            break;
        }

        if (tidx) {
            tidx[tlen] = (int32_t)pc;
            taddr[tlen] = addr;
            tlen++;
        }
        if (counts)
            counts[pc]++;
        steps++;
        if (next < 0) {
            rc = R_OK;
            break;
        }
        pc = next;
    }
out:
    for (int k = 0; k < 32; k++)
        state[S_REGS + k] = r[k];
    state[S_PC] = pc;
    state[S_STEPS] = steps;
    state[S_TLEN] = tlen;
    return rc;
}
