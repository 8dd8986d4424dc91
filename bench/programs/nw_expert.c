/* nw (Rodinia) -- Needleman-Wunsch global optimization for DNA
 * sequence alignments.
 *
 * Two kernels fill the dynamic-programming matrix: the first sweeps
 * the upper-left anti-diagonals, the second the lower-right ones.
 * Read-only alignment parameters travel as scalars.  Unoptimized
 * variant: implicit mappings only.
 */
#define DIM 48

int reference[DIM * DIM];
int input_itemsets[DIM * DIM];

int main() {
  int penalty = 10;
  int shift = 2;
  for (int i = 0; i < DIM * DIM; i++) {
    reference[i] = (i * 7) % 10 - 4;
    input_itemsets[i] = 0;
  }
  for (int i = 1; i < DIM; i++) {
    input_itemsets[i * DIM] = -i * penalty;
    input_itemsets[i] = -i * penalty;
  }
  #pragma omp target data map(to: penalty, reference, shift) map(tofrom: input_itemsets)
  {
    #pragma omp target
    for (int t = 2; t < DIM; t++) {
      for (int i = 1; i < t; i++) {
        int j = t - i;
        int v = input_itemsets[(i - 1) * DIM + (j - 1)] + reference[i * DIM + j];
        int v2 = input_itemsets[i * DIM + (j - 1)] - penalty;
        int v3 = input_itemsets[(i - 1) * DIM + j] - penalty;
        if (v2 > v) {
          v = v2;
        }
        if (v3 > v) {
          v = v3;
        }
        input_itemsets[i * DIM + j] = v;
      }
    }
    #pragma omp target
    for (int t = DIM; t <= 2 * DIM - 2; t++) {
      for (int i = t - DIM + 1; i < DIM; i++) {
        int j = t - i;
        int v = input_itemsets[(i - 1) * DIM + (j - 1)] + reference[i * DIM + j] - shift;
        int v2 = input_itemsets[i * DIM + (j - 1)] - penalty;
        int v3 = input_itemsets[(i - 1) * DIM + j] - penalty;
        if (v2 > v) {
          v = v2;
        }
        if (v3 > v) {
          v = v3;
        }
        input_itemsets[i * DIM + j] = v;
      }
    }
  }
  int score = input_itemsets[(DIM - 1) * DIM + (DIM - 1)];
  int trace = 0;
  for (int i = 0; i < DIM; i++) {
    trace += input_itemsets[i * DIM + i];
  }
  printf("nw score %d trace %d\n", score, trace);
  return 0;
}
