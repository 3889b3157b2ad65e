/* wait4(2) for the benchmark harness: reap one child and return its exit
   code and peak resident set.  ru_maxrss from wait4 is the peak of that
   child alone, so every instance gets an honest peak no matter what ran
   before it in the harness process. */

#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* pid -> (exit code, or 128 + signal; ru_maxrss in kB) */
CAMLprim value dfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, err = 0;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  for (;;) {
    caml_enter_blocking_section();
    r = wait4((pid_t)Long_val(vpid), &status, 0, &ru);
    err = errno;
    caml_leave_blocking_section();
    if (r >= 0 || err != EINTR) break;
    /* let a SIGTERM handler run (it stops the children and exits) */
    caml_process_pending_actions();
  }
  if (r < 0) caml_failwith(strerror(err));
  int code = WIFEXITED(status) ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
             : 255;
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
