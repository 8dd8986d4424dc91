/* ace (HeCBench) -- phase-field simulation of dendritic solidification.
 *
 * Six kernels per time step advance the phase field phi and the thermal
 * field u through explicit Euler updates.  All intermediates stay on
 * the device between kernels; the host only reads the fields after the
 * final step.  Unoptimized variant: implicit mappings only.
 */
#define N 96
#define STEPS 80

double phi[N];
double u[N];

int main() {
  double lap_phi[N];
  double lap_u[N];
  double phi_new[N];
  double u_new[N];
  for (int i = 0; i < N; i++) {
    phi[i] = (i < N / 2) ? 1.0 : 0.0;
    u[i] = 0.0;
  }
  #pragma omp target data map(tofrom: phi, u) map(alloc: lap_phi, lap_u, phi_new, u_new)
  {
    for (int t = 0; t < STEPS; t++) {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < N; i++) {
        int im = (i == 0) ? 0 : (i - 1);
        int ip = (i == N - 1) ? (N - 1) : (i + 1);
        lap_phi[i] = phi[im] - 2.0 * phi[i] + phi[ip];
      }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < N; i++) {
        double drive = phi[i] * (1.0 - phi[i]) * (phi[i] - 0.5 + 0.25 * u[i]);
        phi_new[i] = phi[i] + 0.1 * lap_phi[i] + 0.2 * drive;
      }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < N; i++) {
        int im = (i == 0) ? 0 : (i - 1);
        int ip = (i == N - 1) ? (N - 1) : (i + 1);
        lap_u[i] = u[im] - 2.0 * u[i] + u[ip];
      }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < N; i++) {
        u_new[i] = u[i] + 0.05 * lap_u[i] - 0.5 * (phi_new[i] - phi[i]);
      }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < N; i++) {
        phi[i] = phi_new[i];
      }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < N; i++) {
        u[i] = u_new[i];
      }
    }
  }
  double sum_phi = 0.0;
  double sum_u = 0.0;
  for (int i = 0; i < N; i++) {
    sum_phi += phi[i];
    sum_u += u[i];
  }
  printf("ace phi %.6f u %.6f\n", sum_phi, sum_u);
  return 0;
}
