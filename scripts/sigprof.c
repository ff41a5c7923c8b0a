// SIGPROF sampling profiler, loaded into a program with LD_PRELOAD.
//
//   cc -O2 -shared -fPIC -o sigprof.so scripts/sigprof.c
//   SIGPROF_OUT=samples.txt LD_PRELOAD=$PWD/sigprof.so ./program ARGS
//   python3 scripts/sigprof_report.py ./program samples.txt [RUNS]
//
// Every millisecond of the process's CPU time (ITIMER_PROF counts all
// threads) the handler records the interrupted program counter. At exit
// the sampler writes the main executable's load base ("base 0x...") and
// then one sampled program counter per line, in hex, to the path in
// SIGPROF_OUT. Without SIGPROF_OUT it does nothing. It needs no
// perf_event_open, so it works on hosts without a PMU. Children inherit
// LD_PRELOAD and would overwrite the file: run the program itself, not a
// wrapper that starts it.

#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1ul << 22)  // 70 minutes of CPU time

static uintptr_t samples[MAX_SAMPLES];
static unsigned long num_samples;
static const char* out_path;

static void OnProf(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = context;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sigprof.c: unsupported architecture"
#endif
  const unsigned long i =
      __atomic_fetch_add(&num_samples, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) {
    samples[i] = pc;
  }
}

// dl_iterate_phdr visits the main program first.
static int MainProgramBase(struct dl_phdr_info* info, size_t size,
                           void* base) {
  (void)size;
  *(uintptr_t*)base = (uintptr_t)info->dlpi_addr;
  return 1;
}

__attribute__((constructor)) static void Start(void) {
  out_path = getenv("SIGPROF_OUT");
  if (out_path == NULL) {
    return;
  }
  struct sigaction action = {0};
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void Stop(void) {
  if (out_path == NULL) {
    return;
  }
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  uintptr_t base = 0;
  dl_iterate_phdr(MainProgramBase, &base);
  FILE* out = fopen(out_path, "w");
  if (out == NULL) {
    perror(out_path);
    return;
  }
  fprintf(out, "base %#lx\n", (unsigned long)base);
  const unsigned long n =
      num_samples < MAX_SAMPLES ? num_samples : MAX_SAMPLES;
  for (unsigned long i = 0; i < n; ++i) {
    fprintf(out, "%#lx\n", (unsigned long)samples[i]);
  }
  fclose(out);
}
