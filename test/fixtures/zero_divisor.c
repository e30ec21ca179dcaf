/* A loop bound that divides by a parameter: with -p k=0 the bound does
   not evaluate, and every subcommand that needs the trip count reports
   an analysis error (exit 1) instead of an internal one. */
double a[64];
int k;

void f() {
  #pragma omp parallel for
  for (int i = 0; i < 64 / k; i++) {
    a[i] = 1.0;
  }
}
