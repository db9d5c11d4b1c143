"""The heap policy `import scdkit` sets on glibc: arrays freed by one step or
scoring call stay mapped for the next, unless the environment sets glibc's
allocator itself. Each test measures in a fresh interpreter, so no earlier
test's allocations shape the heap it measures."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the heap policy applies to glibc only"
)

# six rounds, each allocating, touching and freeing twelve 1 MiB arrays;
# prints the minor page faults of each round
ROUNDS = """
import json, resource
import numpy as np
import scdkit

faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(12)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def faults_per_round(**allocator_env) -> list[int]:
    """Each round's minor faults in a child whose allocator settings are
    exactly `allocator_env`."""
    env = {
        name: value
        for name, value in os.environ.items()
        if name != "GLIBC_TUNABLES" and not (name.startswith("MALLOC_") and name.endswith("_"))
    }
    env.update(allocator_env, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", ROUNDS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_freed_arrays_are_reused_without_faulting():
    faults = faults_per_round()
    assert all(f < 100 for f in faults[1:]), faults


def test_a_glibc_setting_in_the_environment_wins():
    # a 128 KiB trim threshold gives each round's freed arrays back to the kernel
    faults = faults_per_round(MALLOC_TRIM_THRESHOLD_="131072")
    assert all(f > 1000 for f in faults[1:]), faults
