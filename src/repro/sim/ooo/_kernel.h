/* What the native kernels (_replay.c, _prepass.c) share: their return
 * codes and the check of the trace columns both read in place. Both are
 * built into one library (see native.py). */

#ifndef T1000_KERNEL_H
#define T1000_KERNEL_H

#include <stdint.h>

/* return codes */
#define R_OK 0
#define R_HORIZON 1     /* issue drifted >= horizon past dispatch */
#define R_NOMEM 2
#define R_BADINPUT 3    /* an argument failed its bounds check */

/* The trace columns, checked before any loop reads them: a non-empty
 * trace, an address per instruction and every static index inside the
 * program's text. Both kernels refuse exactly the same columns, so a
 * replay through the kernel always has a pre-pass built by it. */
static inline int columns_ok(int64_t n, const int32_t *indices,
                             int64_t n_addrs, int64_t n_static)
{
    if (n < 1 || n_addrs < n)
        return 0;
    for (int64_t k = 0; k < n; k++)
        if (indices[k] < 0 || indices[k] >= n_static)
            return 0;
    return 1;
}

#endif
