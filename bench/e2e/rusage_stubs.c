/* Process accounting and a monotonic clock for prtb_bench.

   wait4(2) is the only portable way to get the peak resident set size
   of one particular child, which the OCaml Unix library does not
   expose.  The wait releases the runtime lock so that client threads
   keep running while prtb_bench reaps a child. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* prtb_bench_wait4 pid = (exited, code, maxrss_kb): [exited] is true
   when the child exited normally and [code] is its exit status;
   otherwise [code] is the number of the signal that ended it. */
CAMLprim value prtb_bench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  pid_t pid = (pid_t)Int_val(vpid);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4 failed");
  res = caml_alloc_tuple(3);
  if (WIFEXITED(status)) {
    Store_field(res, 0, Val_true);
    Store_field(res, 1, Val_int(WEXITSTATUS(status)));
  } else {
    Store_field(res, 0, Val_false);
    Store_field(res, 1, Val_int(WIFSIGNALED(status) ? WTERMSIG(status) : -1));
  }
  /* Linux reports ru_maxrss in KiB. */
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* Nanoseconds on CLOCK_MONOTONIC: immune to wall-clock steps, unlike
   Unix.gettimeofday. */
CAMLprim value prtb_bench_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
