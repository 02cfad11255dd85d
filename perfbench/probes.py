"""Set-up probe, machine record and per-call microbenchmarks.

Run as a script, this module is the set-up probe: a fresh interpreter that
imports olfc from the given source tree and prepares the first pipeline of
a workload, printing the seconds that took as one JSON line.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

# Fixtures of the per-fixture table, beside the baseline table in ROADMAP.md.
FIXTURES = (("three_bus", "three_bus_smooth"), ("nine_bus", "nine_bus_steps"),
            ("sixty_eight_bus", "sixty_eight_bus_steps"))


def prepare(scenario_path: Path) -> None:
    """What a CLI invocation pays before it integrates: parse, build, LP warm-up."""
    import numpy as np

    import olfc
    from olfc.oracle import check_feasibility

    scenario = olfc.load_scenario(scenario_path)
    model = scenario.load_model()
    olfc.ClosedLoop(model, scenario.config)
    p_m = np.zeros(model.n)
    for ev in scenario.events:
        p_m[ev.bus] += ev.delta_p_m
    check_feasibility(model, p_m)


def _probe_main(src: str, scenario: str) -> None:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import olfc  # noqa: F401  (the import is what is timed)

    prepare(Path(scenario))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


# -- machine record ---------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np
    import scipy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({"level": _read(f"{index}/level"), "type": _read(f"{index}/type"), "size": _read(f"{index}/size")})
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


# -- microbenchmarks --------------------------------------------------------


def per_call_us(fn, min_batch_s: float = 0.02, batches: int = 5) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        n *= 2
    means = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        means.append((time.perf_counter() - t0) / n)
    means.sort()
    return means[len(means) // 2] * 1e6


def _operands(loop) -> list:
    """2-D arrays (dense or scipy.sparse) held by a closed loop and its cost batch."""
    found = []
    for obj in (loop, getattr(loop, "batch", None)):
        for value in vars(obj).values() if obj is not None else ():
            if getattr(value, "ndim", 0) == 2:
                found.append(value)
    return found


def _nbytes(a) -> int:
    if hasattr(a, "nnz"):  # scipy.sparse
        return sum(getattr(a, k).nbytes for k in ("data", "indices", "indptr") if hasattr(a, k))
    return int(a.nbytes)


def operator_counts(loop) -> dict:
    """Computed sizes of the closed-loop operator (not measured traffic)."""
    import numpy as np

    K = getattr(loop, "K", None)
    if K is None:
        nnz, size = 0, 0
    elif hasattr(K, "nnz"):
        nnz, size = int(K.nnz), K.shape[0] * K.shape[1]
    else:
        nnz, size = int(np.count_nonzero(K)), int(K.size)
    return {
        "K_nnz": nnz,
        "K_density": nnz / size if size else 0.0,
        "rhs_bytes_computed": sum(_nbytes(a) for a in _operands(loop)),
    }


def state_microbench(loop, y, p_m, dt: float) -> dict:
    """Per-call cost of the hot simulator and cost functions at one state."""
    import numpy as np

    aff = loop.feedthrough(p_m)
    p_l = np.clip(y[loop.sl_d], loop.box_lower, loop.box_upper)
    rule = loop.config.selection
    return {
        "rhs_us": per_call_us(lambda: loop.rhs(y, p_m, aff)),
        "rk4_us": per_call_us(lambda: loop.rk4(y, p_m, dt, aff)),
        "observe_us": per_call_us(lambda: loop.observe(y, p_m)),
        "select_us": per_call_us(lambda: loop.batch.select(p_l, rule)),
        "value_us": per_call_us(lambda: loop.batch.value(p_l)),
    }


def fixture_table(data_dir: Path) -> dict:
    """rhs/rk4 cost per bundled fixture at its zero state under its own events."""
    import numpy as np

    import olfc

    table = {}
    for label, name in FIXTURES:
        scenario = olfc.load_scenario(data_dir / "scenarios" / f"{name}.json")
        model = scenario.load_model()
        loop = olfc.ClosedLoop(model, scenario.config)
        p_m = np.zeros(model.n)
        for ev in scenario.events:
            p_m[ev.bus] += ev.delta_p_m
        y = loop.zero_state()
        aff = loop.feedthrough(p_m)
        table[label] = {
            "dim": int(loop.dim),
            "rhs_us": per_call_us(lambda: loop.rhs(y, p_m, aff)),
            "rk4_us": per_call_us(lambda: loop.rk4(y, p_m, scenario.dt, aff)),
        }
    return table


if __name__ == "__main__":
    _probe_main(sys.argv[1], sys.argv[2])
