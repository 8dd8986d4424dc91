/* backprop (Rodinia) -- trains the weights of connecting nodes on a
 * neural network layer.
 *
 * Kernel 1 computes blocked partial sums of the forward pass; the host
 * reduces the blocks in a nested loop (the paper's Listing 6 shape),
 * computes the deltas, and kernel 2 adjusts the weights.  Unoptimized
 * variant: implicit mappings only.
 */
#define IN 64
#define HID 16
#define NB 16
#define BLOCK (IN / NB)
#define ETA 0.3
#define TARGETVAL 0.75

double input_units[IN];
double input_weights[IN * HID];
double partial_sum[NB * HID];
double hidden_units[HID + 1];
double hidden_delta[HID + 1];

int main() {
  for (int i = 0; i < IN; i++) {
    input_units[i] = ((i * 7) % 11) * 0.1;
  }
  for (int i = 0; i < IN * HID; i++) {
    input_weights[i] = ((i * 13) % 17) * 0.01;
  }
  #pragma omp target teams distribute parallel for
  for (int b = 0; b < NB; b++) {
    for (int h = 0; h < HID; h++) {
      double sum = 0.0;
      for (int i = 0; i < BLOCK; i++) {
        int idx = b * BLOCK + i;
        sum += input_units[idx] * input_weights[idx * HID + h];
      }
      partial_sum[b * HID + h] = sum;
    }
  }
  for (int j = 1; j <= HID; j++) {
    double sum = 0.0;
    for (int k = 0; k < NB; k++) {
      sum += partial_sum[k * HID + (j - 1)];
    }
    hidden_units[j] = 1.0 / (1.0 + sum * sum);
  }
  for (int j = 1; j <= HID; j++) {
    hidden_delta[j] = TARGETVAL - hidden_units[j];
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < IN; i++) {
    for (int h = 0; h < HID; h++) {
      input_weights[i * HID + h] += ETA * hidden_delta[h + 1] * input_units[i];
    }
  }
  double checksum = 0.0;
  for (int i = 0; i < IN * HID; i++) {
    checksum += input_weights[i];
  }
  printf("backprop %.6f\n", checksum);
  return 0;
}
