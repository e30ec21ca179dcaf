/* Schedules decided at run time: lint replays a schedule(dynamic) and a
   schedule(guided, 2) pragma over its seed set instead of the static
   deal.  The dispatch granule is the pragma's chunk (1 when it has
   none), or --chunk when given. */

double hits[256];
double grid[32][64];

void tally() {
  int i;
  #pragma omp parallel for schedule(dynamic)
  for (i = 0; i < 256; i += 1) {
    hits[i] = hits[i] + 1.0;
  }
}

void sweep() {
  int i;
  int j;
  #pragma omp parallel for private(i,j) schedule(guided, 2)
  for (i = 0; i < 64; i += 1) {
    for (j = 0; j < 32; j += 1) {
      grid[j][i] = grid[j][i] * 0.5;
    }
  }
}
