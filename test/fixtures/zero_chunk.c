/* A schedule chunk below 1 is rejected by the parser at the pragma's
   line (exit 1), not read later as an unbound identifier. */
double a[64];

void f() {
  int i;
  #pragma omp parallel for schedule(static, 0)
  for (i = 0; i < 64; i += 1) {
    a[i] = a[i] + 1.0;
  }
}
