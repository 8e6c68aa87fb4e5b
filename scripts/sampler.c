/* A CPU-time stack sampler for one process, loaded with LD_PRELOAD.
 *
 * At load it arms setitimer(ITIMER_PROF): the kernel sends this process
 * (and nothing else) a SIGPROF per millisecond of CPU time it uses. The
 * handler walks the interrupted thread's frame-pointer chain, so the
 * program must be built with `-C force-frame-pointers=yes`, and appends
 * the return addresses to a fixed buffer. A leaf outside the program
 * (libc's malloc, free, memcpy) keeps no frame pointer, so for it the
 * handler also takes the first program address on the stack, within
 * SCAN_WORDS of the stack pointer and below the stack's top, as its
 * caller's return address, and resumes the frame-pointer walk at the
 * caller's frame record above it. The scan is wide (8 KiB) because
 * libc's deep paths (malloc's slow path) keep kilobytes of their own
 * frames above the program's. At exit it writes one line per
 * sample, and per distinct address the object it lies in, its offset in
 * that object and the nearest dynamic symbol, to
 * `$SAMPLER_OUT.<pid>`. scripts/profile.sh builds, loads and reads it.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c -ldl
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define MAX_SAMPLES 50000
#define INTERVAL_US 1000
#define SCAN_WORDS 1024

/* Sample i is depth[i] addresses from frames[i]; leaf first. */
static uintptr_t frames[MAX_SAMPLES][MAX_DEPTH];
static unsigned char depth[MAX_SAMPLES];
static volatile sig_atomic_t taken;
static uintptr_t stack_lo, stack_hi;
/* The program's own executable segment. */
static uintptr_t text_lo, text_hi;

static void on_prof(int sig, siginfo_t *si, void *uc_) {
    (void)sig;
    (void)si;
    int i = taken;
    if (i >= MAX_SAMPLES)
        return;
    taken = i + 1;
    ucontext_t *uc = uc_;
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    int n = 0;
    frames[i][n++] = pc;
    if ((pc < text_lo || pc >= text_hi) && sp >= stack_lo && (sp & 7) == 0) {
        const uintptr_t *w = (const uintptr_t *)sp;
        int words = (int)((stack_hi - sp) / 8);
        if (words > SCAN_WORDS)
            words = SCAN_WORDS;
        for (int k = 0; k < words; k++) {
            if (w[k] >= text_lo && w[k] < text_hi) {
                frames[i][n++] = w[k];
                /* The caller's own frame record (saved frame pointer,
                 * then a return address) is the first such pair above
                 * its return address: the walk resumes there, since
                 * the leaf's %rbp is libc's and says nothing. */
                for (int j = k + 1; j + 1 < words; j++) {
                    uintptr_t at = sp + 8 * (uintptr_t)j;
                    if (w[j] > at && w[j] < stack_hi && w[j + 1] >= text_lo && w[j + 1] < text_hi) {
                        fp = at;
                        break;
                    }
                }
                break;
            }
        }
    }
    /* Follow saved frame pointers while they stay inside the main
     * thread's stack and climb it; anything else ends the walk, so a
     * frame compiled without one cannot send the walk into the heap. */
    while (n < MAX_DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && (fp & 7) == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0];
        uintptr_t ret = ((uintptr_t *)fp)[1];
        if (ret == 0)
            break;
        frames[i][n++] = ret;
        if (next <= fp)
            break;
        fp = next;
    }
    depth[i] = (unsigned char)n;
}

/* The first object dl_iterate_phdr reports is the program itself. */
static int find_text(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    for (int k = 0; k < info->dlpi_phnum; k++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[k];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
            text_lo = info->dlpi_addr + ph->p_vaddr;
            text_hi = text_lo + ph->p_memsz;
        }
    }
    return 1;
}

__attribute__((constructor)) static void sampler_start(void) {
    if (!getenv("SAMPLER_OUT"))
        return;
    dl_iterate_phdr(find_text, NULL);
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        void *addr;
        size_t size;
        pthread_attr_getstack(&attr, &addr, &size);
        stack_lo = (uintptr_t)addr;
        stack_hi = stack_lo + size;
        pthread_attr_destroy(&attr);
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &it, NULL);
}

static int cmp_addr(const void *a, const void *b) {
    uintptr_t x = *(const uintptr_t *)a, y = *(const uintptr_t *)b;
    return (x > y) - (x < y);
}

__attribute__((destructor)) static void sampler_stop(void) {
    const char *out = getenv("SAMPLER_OUT");
    if (!out)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    int n = taken;
    if (n == 0)
        return;
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", out, (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    size_t total = 0;
    for (int i = 0; i < n; i++) {
        fputc('s', f);
        for (int d = 0; d < depth[i]; d++)
            fprintf(f, " %lx", (unsigned long)frames[i][d]);
        fputc('\n', f);
        total += depth[i];
    }
    /* One `a` line per distinct address: object, offset, symbol. */
    uintptr_t *all = malloc(total * sizeof *all);
    if (all) {
        size_t k = 0;
        for (int i = 0; i < n; i++)
            for (int d = 0; d < depth[i]; d++)
                all[k++] = frames[i][d];
        qsort(all, total, sizeof *all, cmp_addr);
        for (size_t j = 0; j < total; j++) {
            if (j > 0 && all[j] == all[j - 1])
                continue;
            Dl_info info;
            if (dladdr((void *)all[j], &info) && info.dli_fname) {
                fprintf(f, "a %lx %s %lx %s\n", (unsigned long)all[j], info.dli_fname,
                        (unsigned long)(all[j] - (uintptr_t)info.dli_fbase),
                        info.dli_sname ? info.dli_sname : "?");
            } else {
                fprintf(f, "a %lx ? 0 ?\n", (unsigned long)all[j]);
            }
        }
        free(all);
    }
    fclose(f);
}
