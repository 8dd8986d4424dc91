/* xsbench (HeCBench) -- key computational kernel of the Monte-Carlo
 * neutron transport algorithm.
 *
 * One lookup kernel gathers macroscopic cross sections from the
 * unionized energy grid; the driver re-runs the kernel for a number of
 * batches.  Read-only sampling parameters travel as scalars.
 * Unoptimized variant: implicit mappings only.
 */
#define NGRID 512
#define LOOKUPS 256
#define BATCHES 12

double egrid[NGRID];
double xs_total[NGRID];
double xs_abs[NGRID];
double results[LOOKUPS];

int main() {
  int seed_a = 1103;
  int seed_c = 12345;
  double norm = 0.001953125;
  for (int g = 0; g < NGRID; g++) {
    egrid[g] = g * 0.002;
    xs_total[g] = 1.0 + (g % 13) * 0.05;
    xs_abs[g] = 0.25 + (g % 7) * 0.03;
  }
  for (int l = 0; l < LOOKUPS; l++) {
    results[l] = 0.0;
  }
  #pragma omp target data map(to: egrid, norm, seed_a, seed_c, xs_abs, xs_total) map(tofrom: results)
  {
    for (int b = 0; b < BATCHES; b++) {
      #pragma omp target teams distribute parallel for
      for (int l = 0; l < LOOKUPS; l++) {
        int idx = (l * seed_a + seed_c) % NGRID;
        double f = egrid[idx] * norm;
        results[l] += (xs_total[idx] - xs_abs[idx]) * (1.0 + f);
      }
    }
  }
  double checksum = 0.0;
  for (int l = 0; l < LOOKUPS; l++) {
    checksum += results[l];
  }
  printf("xsbench %.6f\n", checksum);
  return 0;
}
