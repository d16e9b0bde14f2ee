"""Small jobs the benchmark runner needs done inside a sensordiag interpreter.

    python3 perfbench/probe.py setup-model MODEL
        import sensordiag and load MODEL (timed from outside as setup_s)
    python3 perfbench/probe.py setup-config CONFIG
        import sensordiag and load the CLI config CONFIG (timed as setup_s)
    python3 perfbench/probe.py check-model MODEL
        reload MODEL; exit 1 unless both control limits are finite and positive
    python3 perfbench/probe.py make-series MODEL OUT SEED ROWS
        write a ROWS-row series with a step fault on sensor 0 to OUT
    python3 perfbench/probe.py versions
        print the numpy, BLAS and sensordiag versions as JSON

Each job runs in a fresh interpreter so the runner itself needs only the
standard library.
"""

from __future__ import annotations

import json
import math
import sys

# The faulted sensor is fixed (the sweep's default target), so seeds vary only
# the noise; its step amplitude is in units of its residual standard deviation.
FAULT_SENSOR = 0
FAULT_RESIDUAL_STDS = 4.0


def setup_model(path: str) -> int:
    import sensordiag

    sensordiag.load_model(path)
    return 0


def setup_config(path: str) -> int:
    from sensordiag.cli import load_config

    load_config(path)
    return 0


def check_model(path: str) -> int:
    import sensordiag

    model = sensordiag.load_model(path)
    limits = {"spe_limit": model.spe_limit, "t2_limit": model.t2_limit}
    print(json.dumps(limits))
    ok = all(math.isfinite(v) and v > 0 for v in limits.values())
    return 0 if ok else 1


def make_series(model_path: str, out: str, seed: str, rows: str) -> int:
    from sensordiag import (
        FaultSpec,
        default_sim_config,
        inject_fault,
        load_model,
        simulate,
        write_raw_csv,
    )

    model = load_model(model_path)
    seed, rows = int(seed), int(rows)
    clean = simulate(default_sim_config(n_sensors=model.n, m_samples=rows, seed=seed))
    fault = FaultSpec(
        sensor=FAULT_SENSOR,
        amplitude=FAULT_RESIDUAL_STDS * model.residual_std(FAULT_SENSOR),
        onset_k=rows // 2,
    )
    write_raw_csv(inject_fault(clean, fault), out)
    print(json.dumps({"sensor": fault.sensor, "amplitude": fault.amplitude, "onset_k": fault.onset_k}))
    return 0


def versions() -> int:
    import numpy

    import sensordiag

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(
        json.dumps(
            {
                "numpy": numpy.__version__,
                "blas": {k: blas.get(k) for k in ("name", "version")},
                "sensordiag": sensordiag.__version__,
            }
        )
    )
    return 0


JOBS = {
    "setup-model": setup_model,
    "setup-config": setup_config,
    "check-model": check_model,
    "make-series": make_series,
    "versions": versions,
}


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in JOBS:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(JOBS[sys.argv[1]](*sys.argv[2:]))
