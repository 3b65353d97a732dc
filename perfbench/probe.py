"""Fixed speed probe of the benchmark: a fresh interpreter does a set amount
of the kinds of work the program does (numpy import, recurrent-cell matrix
steps, sort-and-scan passes, a pure-Python dict loop). It imports nothing
from the program, so a program change cannot move its time; only the host's
speed does. ``run.py`` times it before and after each timed process.
"""

import numpy as np

rng = np.random.default_rng(0)
w = rng.standard_normal((96, 256)) * 0.1
x = rng.standard_normal((32, 32))
h = np.zeros((32, 64))
for _ in range(250):
    s = 1.0 / (1.0 + np.exp(-(np.concatenate([x, h], axis=1) @ w)))
    h = np.tanh(s[:, :64] * s[:, 64:128] + s[:, 128:192])
v = rng.standard_normal(400)
for _ in range(250):
    c = np.cumsum(v[np.argsort(v, kind="stable")])
    v[int(np.argmax(c))] += 1e-3
counts: dict[int, int] = {}
for i in range(100000):
    counts[i & 255] = counts.get(i & 255, 0) + i
