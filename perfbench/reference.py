"""A fixed numpy loop whose time measures how fast the host runs right now.

Usage: python3 perfbench/reference.py   (prints the loop's seconds)

The loop does what the stepper does most: small rfft/irfft pairs and
elementwise arithmetic on 128-point arrays, driven from Python. It never
imports kgbreather, so no change to the program can change its time. The
benchmark runs it in its own interpreter before and after every round and
scales the round's times by it (see run.py).
"""

import time

import numpy as np

ITERATIONS = 25000


def reference_seconds():
    n = 128
    x = np.sin(np.linspace(0.0, 6.0, n, endpoint=False))
    k = 1.0 / (1.0 + np.arange(n // 2 + 1))
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        c = np.fft.rfft(x * x * x)
        x = 0.5 * x + np.fft.irfft(c * k, n=n)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(reference_seconds()))
