"""A fixed task that measures how fast the host runs right now.

The benchmark runs this script as a child process between its timed
operations and scales their wall times by how long it took (see
``run.py``).  It uses no ruleboost code, so a change to the package never
moves it; it does the kinds of work the package's commands do: start an
interpreter and import numpy, run pure-Python loops, parse text into
floats, sort columns and solve batches of small linear systems.
"""

import numpy as np

rng = np.random.default_rng(0)
table = rng.normal(size=(20000, 8))
systems = rng.normal(size=(500, 6, 6)) + 6.0 * np.eye(6)
rhs = rng.normal(size=(500, 6, 1))

total = 0
for i in range(100000):
    total += i % 7
for _ in range(10):
    np.argsort(table, axis=0, kind="stable")
    np.linalg.solve(systems, rhs)
    np.cumsum(table, axis=0)
lines = [",".join(f"{x:.4f}" for x in row) for row in table[:5000]]
parsed = np.array([[float(x) for x in line.split(",")] for line in lines])
if total != 299995 or parsed.shape != (5000, 8):
    raise SystemExit("reference task computed a wrong result")
