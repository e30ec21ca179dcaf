/* A loop bound read from memory has no compile-time value: lint reports
   analysis/unknown, and the subcommands that need the trip count
   report an analysis error (exit 1) instead of an internal one. */
double a[64];
int lim[1];

void f() {
  int i;
  #pragma omp parallel for
  for (i = 0; i < lim[0]; i++) {
    a[i] = a[i] + 1.0;
  }
}
