"""Benchmark harness for supersigma: workloads, outside-in tracing, runner."""

# Thread-count variables of the BLAS/OpenMP runtimes numpy may load.  Kept
# free of imports so the entry point can set them before numpy loads.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
