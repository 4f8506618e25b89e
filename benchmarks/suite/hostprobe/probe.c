/* Host probes for the traced run: STREAM triad bandwidth and OpenMP
 * barrier latency, measured in the workload's own process so the
 * roofline fraction is taken against this host, this run. */
#include <omp.h>
#include <stdlib.h>

static double triad_best(double *a, const double *b, const double *c,
                         long n, int reps, int threads)
{
    double best = -1.0;
    for (int r = 0; r < reps; r++) {
        double t0 = omp_get_wtime();
#pragma omp parallel for num_threads(threads) schedule(static)
        for (long i = 0; i < n; i++)
            a[i] = b[i] + 3.0 * c[i];
        double dt = omp_get_wtime() - t0;
        if (best < 0.0 || dt < best)
            best = dt;
    }
    return best;
}

/* Best seconds per pass of a[i] = b[i] + s*c[i] over n doubles with
 * `threads` threads (returned) and with one thread (*single), or
 * negative values when the arrays cannot be allocated.  Arrays are
 * first-touched by the team that streams them. */
double pmg_probe_triad(long n, int reps, int threads, double *single)
{
    double *a = malloc(sizeof(double) * n);
    double *b = malloc(sizeof(double) * n);
    double *c = malloc(sizeof(double) * n);
    double best = -1.0;
    if (a && b && c) {
#pragma omp parallel for num_threads(threads) schedule(static)
        for (long i = 0; i < n; i++) {
            a[i] = 0.0;
            b[i] = 1.0;
            c[i] = 2.0;
        }
        best = triad_best(a, b, c, n, reps, threads);
        *single = triad_best(a, b, c, n, reps, 1);
    } else {
        *single = -1.0;
    }
    free(a);
    free(b);
    free(c);
    return best;
}

/* Seconds per barrier inside one persistent parallel region. */
double pmg_probe_barrier(int reps, int threads)
{
    double elapsed = 0.0;
#pragma omp parallel num_threads(threads)
    {
#pragma omp barrier
        double t0 = omp_get_wtime();
        for (int r = 0; r < reps; r++) {
#pragma omp barrier
        }
#pragma omp master
        elapsed = omp_get_wtime() - t0;
    }
    return elapsed / reps;
}
