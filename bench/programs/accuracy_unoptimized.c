/* accuracy (HeCBench) -- classification accuracy of a neural network.
 *
 * One offload kernel scores every sample with a linear layer; the host
 * thresholds the scores against the labels and reports the accuracy.
 * Unoptimized variant: no data-management directives, every kernel
 * launch relies on implicit tofrom mappings.
 */
#define NSAMPLES 512
#define NFEATURES 16

double inputs[NSAMPLES * NFEATURES];
double weights[NFEATURES];
double scores[NSAMPLES];
int labels[NSAMPLES];

int main() {
  double bias = 0.25;
  for (int i = 0; i < NSAMPLES; i++) {
    labels[i] = i % 2;
    for (int f = 0; f < NFEATURES; f++) {
      inputs[i * NFEATURES + f] = ((i + f) % 7) * 0.125;
    }
  }
  for (int f = 0; f < NFEATURES; f++) {
    weights[f] = (f % 3) * 0.5 - 0.25;
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < NSAMPLES; i++) {
    double acc = bias;
    for (int f = 0; f < NFEATURES; f++) {
      acc += inputs[i * NFEATURES + f] * weights[f];
    }
    scores[i] = acc;
  }
  int correct = 0;
  for (int i = 0; i < NSAMPLES; i++) {
    int pred = scores[i] > 2.0;
    if (pred == labels[i]) {
      correct++;
    }
  }
  printf("accuracy %d / %d\n", correct, NSAMPLES);
  return 0;
}
