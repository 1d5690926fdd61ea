"""Machine-speed calibration: a fixed kernel timed beside the workload.

On the shared two-core boxes this benchmark runs on, the same statement
gets 10-20% slower and faster from one minute to the next (README, "Why
times are speed-normalised"). Raw times therefore cannot tell a 10%
regression from the weather.

:class:`Calibrator` times a small fixed kernel — nothing from the engine
— and reports how much slower than the reference the machine is *right
now*: the geometric mean over the kernel's two halves, because the box
does not always slow both alike and the engine is a mix of both:

* interpreter — a tight bytecode loop plus a broad sweep through
  pure-Python standard-library code (tokenize, deepcopy, pformat, json),
  the kind of work parse/lower/plan is;
* NumPy — mask, gather, bincount and unique over 64K-element arrays,
  the kind of work scan, decode and aggregate is.

(Weighting the halves by workload was tried and measured no steadier
than the plain mean, so there is one scale for everything.)

The load generator takes one sample between every two slices of the
timed window and divides each slice's times by the mean of the samples
on either side of it, so reported times are "at reference speed". A
change to the engine cannot move the kernel, so it cannot move the
scale.
"""

import copy
import io
import json
import math
import pprint
import time
import tokenize

import numpy as np

#: Seconds each part of the kernel took at the speed the benchmark's
#: first baseline was recorded at; they only fix the scale.
REFERENCE = {"loop": 0.0052, "stdlib": 0.0045, "numpy": 0.0080}

_SOURCE = '''
def quantiles(data, *, n=4, method='exclusive'):
    """Divide *data* into *n* continuous intervals with equal probability."""
    if n < 1:
        raise ValueError('n must be at least 1')
    data = sorted(data)
    ld = len(data)
    if ld < 2:
        raise ValueError('must have at least two data points')
    if method == 'inclusive':
        m = ld - 1
        result = []
        for i in range(1, n):
            j, delta = divmod(i * m, n)
            interpolated = (data[j] * (n - delta) + data[j + 1] * delta) / n
            result.append(interpolated)
        return result
    if method == 'exclusive':
        m = ld + 1
        result = []
        for i in range(1, n):
            j = i * m // n
            j = 1 if j < 1 else ld - 1 if j > ld - 1 else j
            delta = i * m - j * n
            interpolated = (data[j - 1] * (n - delta) + data[j] * delta) / n
            result.append(interpolated)
        return result
    raise ValueError(f'Unknown method: {method!r}')
''' * 4

_NESTED = {
    "k%d" % i: [{"a": i, "b": [i, i + 1, (i, str(i))], "c": {"x": float(i)}}
                for i in range(6)]
    for i in range(12)
}


def _loop_kernel():
    table = {}
    acc = 0
    for i in range(50_000):
        table[i & 1023] = acc
        acc += i * 3 % 7
    return acc + len([(i, str(i)) for i in range(5_000)])


def _stdlib_kernel():
    tokens = sum(1 for __ in tokenize.generate_tokens(
        io.StringIO(_SOURCE).readline))
    nested = copy.deepcopy(_NESTED)
    return tokens + len(pprint.pformat(nested)) + len(json.dumps(nested))


class Calibrator:
    """Samples the machine's current slowness (1.0 = reference speed)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1000, 65_536)
        self._values = rng.random(65_536)

    def _numpy_kernel(self):
        keys, values = self._keys, self._values
        total = 0.0
        for __ in range(12):
            ids = np.flatnonzero((keys >= 200) & (keys < 700))
            total += np.bincount(keys[ids] % 50, weights=values[ids]).sum()
            total += len(np.unique(keys[:8192]))
        return total

    def sample(self):
        """One reading, about 20 ms of work: the geometric mean of the
        interpreter half's and the NumPy half's slowness."""
        clock = time.perf_counter
        t0 = clock()
        _loop_kernel()
        t1 = clock()
        _stdlib_kernel()
        t2 = clock()
        self._numpy_kernel()
        t3 = clock()
        interpreter = math.sqrt((t1 - t0) / REFERENCE["loop"]
                                * (t2 - t1) / REFERENCE["stdlib"])
        return math.sqrt(interpreter * (t3 - t2) / REFERENCE["numpy"])

    def mean(self, n):
        """The mean of ``n`` consecutive readings."""
        return sum(self.sample() for __ in range(n)) / n
