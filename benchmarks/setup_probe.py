"""Child process of the benchmark: time the imports a CLI call pays.

Usage: python3 setup_probe.py <src dir> [module ...]

Imports each named module in turn, then photonfilter.cli, and prints the
import times (one per named module, the CLI last) on one line as soon as the
CLI is loaded; the parent stops its set-up clock on that line.  A second line
gives the peak resident set size right after import, in kB, and a third the
modules of HEAVY that are loaded by then.

Run with no module named, the probe imports the CLI alone, as a CLI call
does.  Run again with the modules the first probe found loaded, it splits
the import time between them and photonfilter.
"""

import sys
import time

HEAVY = ("numpy", "scipy.integrate")

times = []
for name in sys.argv[2:]:
    start = time.perf_counter()
    __import__(name)
    times.append(time.perf_counter() - start)
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import photonfilter.cli  # noqa: E402,F401

times.append(time.perf_counter() - start)
print(*times, flush=True)

# Peak resident set of this process image (VmHWM).  ru_maxrss would also
# count the parent's peak, which Linux carries over through fork and exec.
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), flush=True)
print(*(name for name in HEAVY if name in sys.modules), flush=True)
