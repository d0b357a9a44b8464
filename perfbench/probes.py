"""Measurements taken from outside the program: VM CPU time and steal
from ``/proc/stat``, the object store's peak use, and the run's
environment record."""

from __future__ import annotations

import os
import platform

# /proc/stat "cpu" line: user nice system idle iowait irq softirq steal ...
_BUSY = (0, 1, 2, 5, 6)
_STEAL = 7


def cpu_ticks() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


class CpuWindow:
    """CPU-seconds the VM spent busy between ``start()`` and ``stop()``
    (user + nice + system + irq + softirq, all processes: Ray workers
    run niced), and the share of ticks stolen by the hypervisor."""

    HZ = os.sysconf("SC_CLK_TCK")

    def start(self) -> None:
        self._t0 = cpu_ticks()

    def stop(self) -> None:
        d = [b - a for a, b in zip(self._t0, cpu_ticks())]
        self.busy_s = sum(d[i] for i in _BUSY) / self.HZ
        self.steal_frac = d[_STEAL] / max(1, sum(d))


class StorePeak:
    """Highest object-store use seen while a job runs, polled from the
    ``object_store_memory`` resource, which the raylet lowers by the
    bytes the store holds and reports every 100 ms."""

    PERIOD_S = 0.05

    def start(self) -> None:
        import threading

        import ray

        self._total = ray.cluster_resources()["object_store_memory"]
        self._stop = threading.Event()
        self.peak_mib = 0.0
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self) -> None:
        import ray

        while not self._stop.is_set():
            free = ray.available_resources().get("object_store_memory", 0.0)
            self.peak_mib = max(self.peak_mib, (self._total - free) / 2**20)
            self._stop.wait(self.PERIOD_S)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_mib


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0))


def environment(num_cpus: int, object_store_mib: int) -> dict:
    import pyarrow
    import ray

    return {
        "affinity_cpus": affinity_cpus(),
        "ray_num_cpus": num_cpus,
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "python": platform.python_version(),
        "object_store_mib": object_store_mib,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "arrow_io_threads": os.environ.get("ARROW_IO_THREADS"),
    }
