"""Suppression fixture: the ALL wildcard silences every rule."""

# repro-lint: disable-file=ALL

from concurrent.futures import ProcessPoolExecutor

import numpy as np


def draw(items):
    with ProcessPoolExecutor(max_workers=2) as pool:
        return np.random.default_rng(), pool.submit(lambda x: x, items)
