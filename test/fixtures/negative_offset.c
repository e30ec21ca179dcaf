/* A subscript that reaches below the first global: a[i - 8] touches
   the 64 bytes before a for i < 8, i.e. cache line -1.  Every path must
   map that address to line -1 (floor division), the engines as much as
   the closed form, so they agree on the FS count. */

double a[64];
double b[64];

void shift(void) {
  int i;
  #pragma omp parallel for schedule(static, 1)
  for (i = 0; i < 64; i++) {
    a[i - 8] = b[i] + 1.0;
  }
}
