/* hotspot (Rodinia) -- thermal simulation estimating processor
 * temperature from an architectural floor plan and simulated power
 * measurements.
 *
 * One stencil kernel evolves the temperature row for a fixed number of
 * steps using read-only physical coefficients.  Unoptimized variant:
 * implicit mappings only.
 */
#define GRID 256
#define STEPS 24
#define AMB 80.0

double temp[GRID];
double power[GRID];

int main() {
  double cap = 0.5;
  double rx = 0.1;
  double ry = 0.2;
  double rz = 0.0625;
  for (int i = 0; i < GRID; i++) {
    temp[i] = AMB + (i % 16) * 0.5;
    power[i] = ((i * 5) % 9) * 0.125;
  }
  #pragma omp target data map(to: cap, power, rx, ry, rz) map(tofrom: temp)
  {
    for (int t = 0; t < STEPS; t++) {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < GRID; i++) {
        int left = (i == 0) ? 0 : (i - 1);
        int right = (i == GRID - 1) ? (GRID - 1) : (i + 1);
        double flux = (temp[left] + temp[right] - 2.0 * temp[i]) * rx;
        double delta = cap * (power[i] + flux + (AMB - temp[i]) * rz) * ry;
        temp[i] = temp[i] + delta;
      }
    }
  }
  double peak = 0.0;
  for (int i = 0; i < GRID; i++) {
    if (temp[i] > peak) {
      peak = temp[i];
    }
  }
  printf("hotspot peak %.6f\n", peak);
  return 0;
}
