"""Seeded-violation fixture: every line marked below must be flagged.

This file is never imported; it exists so the test suite can prove the
linter actually fires (and the CLI exits non-zero) on the bug shapes the
rules were built for.  The directory is named ``sim`` so package-scoped
rules apply.
"""

import random
import time


def draw():
    return random.random()  # DET001: process-global RNG


def timestamp():
    return time.time()  # DET001: wall-clock read


def hit_rate(hits, accesses):
    return hits / accesses  # NUM001: unguarded model denominator


def walk(tags):
    return [t for t in {"a", "b"}]  # DET002: set iteration order


def matches(x):
    return x == 0.3  # NUM002: exact float equality
