/* clenergy (HeCBench) -- electrostatic potentials on a 3-D lattice by
 * direct Coulomb summation.
 *
 * Two kernels per refinement sweep: accumulate per-atom contributions
 * on the lattice, then apply the lattice-geometry damping.  Both read
 * the small grid-dimensions struct the expert mapping overlooked.
 * Unoptimized variant: implicit mappings only.
 */
struct dims {
  int nx;
  int ny;
  int nz;
};

#define NATOMS 64
#define GRIDSZ 256
#define NSWEEPS 8

double atom_x[NATOMS];
double atom_y[NATOMS];
double atom_z[NATOMS];
double atom_q[NATOMS];
double energygrid[GRIDSZ];
struct dims dim;

int main() {
  dim.nx = 16;
  dim.ny = 4;
  dim.nz = 4;
  for (int a = 0; a < NATOMS; a++) {
    atom_x[a] = (a % 8) * 0.5;
    atom_y[a] = ((a / 8) % 4) * 0.5;
    atom_z[a] = (a / 32) * 0.5;
    atom_q[a] = ((a % 3) - 1) * 1.5;
  }
  for (int g = 0; g < GRIDSZ; g++) {
    energygrid[g] = 0.0;
  }
  #pragma omp target data map(to: atom_q, atom_x, atom_y, atom_z) map(tofrom: energygrid)
  {
    for (int s = 0; s < NSWEEPS; s++) {
      #pragma omp target teams distribute parallel for
      for (int g = 0; g < GRIDSZ; g++) {
        double gx = (g % dim.nx) * 0.25;
        double gy = ((g / dim.nx) % dim.ny) * 0.25;
        double gz = (g / (dim.nx * dim.ny)) * 0.25;
        double acc = 0.0;
        for (int a = 0; a < NATOMS; a++) {
          double dx = gx - atom_x[a];
          double dy = gy - atom_y[a];
          double dz = gz - atom_z[a];
          acc += atom_q[a] / (1.0 + dx * dx + dy * dy + dz * dz);
        }
        energygrid[g] += acc;
      }
      #pragma omp target teams distribute parallel for
      for (int g = 0; g < GRIDSZ; g++) {
        energygrid[g] = energygrid[g] * (1.0 - 0.5 / (dim.nx * dim.ny * dim.nz));
      }
    }
  }
  double total = 0.0;
  for (int g = 0; g < GRIDSZ; g++) {
    total += energygrid[g];
  }
  printf("clenergy %.6f\n", total);
  return 0;
}
