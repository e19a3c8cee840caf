"""Suppression fixture: the ALL wildcard silences every rule.

It sits on a simulated-time path so that RL001 applies as well.
"""

# repro-lint: disable-file=ALL

import time

import numpy as np


def draw():
    return time.time(), np.random.default_rng()
