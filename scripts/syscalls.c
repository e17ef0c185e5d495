/*
 * LD_PRELOAD counter for the system calls a thread makes to sleep, wake and
 * yield: futex wakes (and how many of them woke a thread), futex waits and
 * sched_yield calls, per thread. Built and loaded by scripts/syscalls.sh.
 *
 * Rust's std issues every futex operation through libc's variadic
 * syscall(SYS_futex, ...) — its Mutex, Condvar, thread parking, and so the
 * parking_lot shim over them — so wrapping that symbol sees them all; glibc's
 * own locks call the kernel inline and are not counted. At exit the library
 * appends one line per thread name to the file named by SYSCALLS_OUT:
 *
 *     <pid> <threads> <wakes> <wakes that woke a thread> <waits> <yields> <name>
 *
 * A thread's name is read at its first counted call (Rust names a spawned
 * thread before running its closure). A process killed by a signal writes
 * nothing.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <linux/futex.h>
#include <sched.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

/* One slot per thread name: threads of one name share it. */
struct counts {
    char name[17];
    long threads, wakes, woke, waits, yields;
};

/* Names past the table are counted in its last slot. */
#define SLOTS 1024
static struct counts slots[SLOTS];
static int used;
static char taking;
static __thread struct counts *mine;

static struct counts *self(void)
{
    if (mine)
        return mine;
    char name[17] = {0};
    prctl(PR_GET_NAME, name, 0, 0, 0);
    while (__atomic_test_and_set(&taking, __ATOMIC_ACQUIRE))
        ;
    int i = 0;
    while (i < used && strcmp(slots[i].name, name) != 0)
        i++;
    if (i == SLOTS) {
        i--;
    } else if (i == used) {
        memcpy(slots[i].name, name, sizeof name);
        __atomic_store_n(&used, used + 1, __ATOMIC_RELEASE);
    }
    __atomic_clear(&taking, __ATOMIC_RELEASE);
    mine = &slots[i];
    __atomic_fetch_add(&mine->threads, 1, __ATOMIC_RELAXED);
    return mine;
}

static void bump(long *c)
{
    __atomic_fetch_add(c, 1, __ATOMIC_RELAXED);
}

long syscall(long nr, ...)
{
    static long (*real)(long, ...);
    if (!real)
        real = (long (*)(long, ...))dlsym(RTLD_NEXT, "syscall");
    va_list ap;
    va_start(ap, nr);
    long a[6];
    for (int i = 0; i < 6; i++)
        a[i] = va_arg(ap, long);
    va_end(ap);
    long ret = real(nr, a[0], a[1], a[2], a[3], a[4], a[5]);
    if (nr == SYS_futex) {
        int cmd = (int)a[1] & FUTEX_CMD_MASK;
        struct counts *c = self();
        if (cmd == FUTEX_WAKE || cmd == FUTEX_WAKE_BITSET) {
            bump(&c->wakes);
            if (ret > 0)
                bump(&c->woke);
        } else if (cmd == FUTEX_WAIT || cmd == FUTEX_WAIT_BITSET) {
            bump(&c->waits);
        }
    }
    return ret;
}

int sched_yield(void)
{
    static int (*real)(void);
    if (!real)
        real = (int (*)(void))dlsym(RTLD_NEXT, "sched_yield");
    bump(&self()->yields);
    return real();
}

__attribute__((destructor)) static void report(void)
{
    const char *path = getenv("SYSCALLS_OUT");
    if (!path)
        return;
    int fd = open(path, O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
        return;
    int n = __atomic_load_n(&used, __ATOMIC_ACQUIRE);
    for (int i = 0; i < n; i++) {
        struct counts *c = &slots[i];
        /* One write per line, so lines of concurrent exits do not mix. */
        char line[160];
        int len = snprintf(line, sizeof line, "%d %ld %ld %ld %ld %ld %s\n", (int)getpid(),
                           __atomic_load_n(&c->threads, __ATOMIC_RELAXED),
                           __atomic_load_n(&c->wakes, __ATOMIC_RELAXED),
                           __atomic_load_n(&c->woke, __ATOMIC_RELAXED),
                           __atomic_load_n(&c->waits, __ATOMIC_RELAXED),
                           __atomic_load_n(&c->yields, __ATOMIC_RELAXED),
                           c->name[0] ? c->name : "?");
        if (len > 0 && write(fd, line, (size_t)len) < 0)
            break;
    }
    close(fd);
}
