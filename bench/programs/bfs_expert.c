/* bfs (Rodinia) -- traverses all the connected components in a graph.
 *
 * Level-synchronous breadth-first search over a complete binary tree.
 * The host raises the stop flag before every level; the expansion
 * kernel marks discovered nodes and the commit kernel clears the flag
 * while work remains.  Unoptimized variant: implicit mappings only.
 */
#define NNODES 127
#define MAXIT 16

int starts[NNODES + 1];
int edges[NNODES - 1];
int frontier[NNODES];
int newfrontier[NNODES];
int visited[NNODES];
int cost[NNODES];
int stop;

int main() {
  for (int i = 0; i < NNODES; i++) {
    frontier[i] = 0;
    newfrontier[i] = 0;
    visited[i] = 0;
    cost[i] = 0;
  }
  int e = 0;
  for (int i = 0; i < NNODES; i++) {
    starts[i] = e;
    if (2 * i + 1 < NNODES) {
      edges[e] = 2 * i + 1;
      e++;
    }
    if (2 * i + 2 < NNODES) {
      edges[e] = 2 * i + 2;
      e++;
    }
  }
  starts[NNODES] = e;
  frontier[0] = 1;
  visited[0] = 1;
  #pragma omp target data map(to: edges, starts) map(tofrom: cost, frontier, newfrontier, visited)
  {
    for (int it = 0; it < MAXIT; it++) {
      stop = 1;
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < NNODES; i++) {
        if (frontier[i]) {
          frontier[i] = 0;
          for (int t = starts[i]; t < starts[i + 1]; t++) {
            int nb = edges[t];
            if (!visited[nb]) {
              cost[nb] = cost[i] + 1;
              newfrontier[nb] = 1;
            }
          }
        }
      }
      #pragma omp target teams distribute parallel for map(tofrom: stop)
      for (int i = 0; i < NNODES; i++) {
        if (newfrontier[i]) {
          frontier[i] = 1;
          visited[i] = 1;
          newfrontier[i] = 0;
          stop = 0;
        }
      }
      if (stop) {
        break;
      }
    }
  }
  int total = 0;
  for (int i = 0; i < NNODES; i++) {
    total += cost[i];
  }
  printf("bfs cost %d\n", total);
  return 0;
}
