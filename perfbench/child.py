"""One measurement in a fresh interpreter, so module-level caches start cold.

    python3 perfbench/child.py setup WORKLOAD DATUM_SEED
    python3 perfbench/child.py run WORKLOAD DATUM_SEED
    python3 perfbench/child.py trace WORKLOAD DATUM_SEED [EXTRA_ARGV_JSON]

`setup` times importing `wavereg.cli` and building the workload's inputs.
`run` times `wavereg.cli.main(argv)`; `trace` does the same with the
per-module spans of tracer.py installed; EXTRA_ARGV_JSON, a JSON list,
is appended to the workload's argv (later flags win), which the smoke run
uses to shrink the workloads.  Each mode also times the calibration loop
next to its measurement (`calibration_s`).  The working directory is the
run's output directory.  The last stdout line is a JSON object.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _bytes_written(directory: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def calibration():
    """A function that times a fixed loop of small FFTs and array updates.

    A shared host's speed can drift by 2x within minutes, so every measured
    time is reported relative to this loop, run next to it.  numpy's FFTs
    are bound here, before tracing wraps them."""
    import numpy as np

    fft, ifft = np.fft.fft, np.fft.ifft
    start_x = np.random.default_rng(0).standard_normal(130) + 0j

    def loop(count: int) -> float:
        x = start_x
        start = time.perf_counter()
        for _ in range(count):
            y = ifft(x)
            x = x + 1e-6 * fft(y * np.conj(y))
        return time.perf_counter() - start

    def calibrate() -> float:
        loop(50)  # FFT plan and allocator warm-up
        return loop(4000)

    return calibrate


def main(mode: str, name: str, datum_seed: int, extra: list) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if mode == "setup":
        import wavereg.cli  # noqa: F401

        workload.setup(datum_seed)
        setup_s = time.perf_counter() - _STARTED
        return {"setup_s": setup_s, "calibration_s": calibration()()}

    calibrate = calibration()
    before = calibrate()
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        cli = tracing.install(tracer)
    else:
        import wavereg.cli as cli
    argv = workload.argv(datum_seed) + extra
    start = time.perf_counter()
    exit_code = cli.main(argv)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    result = {
        "exit": exit_code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, _bytes_written("."))
        result["self_by_module"] = dict(tracer.self_s)
        result["root_s"] = tracer.root_s
    result["calibration_s"] = (before + calibrate()) / 2
    return result


if __name__ == "__main__":
    extra = json.loads(sys.argv[4]) if len(sys.argv) > 4 else []
    print(json.dumps(main(sys.argv[1], sys.argv[2], int(sys.argv[3]), extra)))
