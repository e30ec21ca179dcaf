/* A write stride of 10^11 elements: eight iterations touch eight
   cache lines spread over 5.6 TB of address space.  Every path must
   answer in time proportional to the lines touched, not to the span
   between them, so the closed form's line walk skips the untouched
   lines in one step. */

double a[8];

void far(void) {
  int i;
  #pragma omp parallel for schedule(static, 1)
  for (i = 0; i < 8; i++) {
    a[i * 100000000000] = 1.0;
  }
}
