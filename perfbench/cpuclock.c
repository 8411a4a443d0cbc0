/* CPU time consumed by this process, in nanoseconds.  A shared or
   virtual host deschedules and steals from the benchmark at random;
   process CPU time does not count those gaps, wall-clock time does. */

#include <time.h>
#include <caml/mlvalues.h>

intnat catbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value catbench_cpu_ns_byte(value unit)
{
  return Val_long(catbench_cpu_ns(unit));
}
