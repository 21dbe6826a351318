"""Seeded input generation, independent of ``repro.graph.generators``.

Everything the benchmark feeds the program is made here from the run's
``--seed``: RMAT edge lists, integer and float bias columns, mixed
insert/delete update streams that only delete live edges and only insert
absent ones, and Zipf-skewed walk start vertices.  The same seed always
yields the same inputs.
"""

from __future__ import annotations

import numpy as np

from reference import ReferenceGraph

#: RMAT quadrant probabilities (a, b, c; d = 1 - a - b - c), the Graph500 skew.
RMAT_ABC = (0.57, 0.19, 0.19)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, purpose), so inputs do not shift
    when another stream draws more or fewer numbers."""
    tag = int.from_bytes(stream.encode(), "little") % (1 << 63)
    return np.random.default_rng([int(seed), tag])


def rmat_pairs(rng: np.random.Generator, scale: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` raw RMAT draws (duplicates and self-loops included)."""
    a, b, c = RMAT_ABC
    src = np.zeros(count, dtype=np.int64)
    dst = np.zeros(count, dtype=np.int64)
    for level in range(scale):
        r = rng.random(count)
        src_bit = r >= a + b
        dst_bit = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        src |= src_bit.astype(np.int64) << level
        dst |= dst_bit.astype(np.int64) << level
    return src, dst


def rmat_edges(rng: np.random.Generator, scale: int, arcs: int) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``arcs`` distinct directed RMAT arcs without self-loops,
    in first-draw order."""
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    seen = np.empty(0, dtype=np.int64)
    while len(seen) < arcs:
        src, dst = rmat_pairs(rng, scale, int(arcs * 1.3) + 1024)
        keep = src != dst
        src_parts.append(src[keep])
        dst_parts.append(dst[keep])
        all_src = np.concatenate(src_parts)
        all_dst = np.concatenate(dst_parts)
        keys = (all_src << scale) | all_dst
        _, first = np.unique(keys, return_index=True)
        seen = np.sort(first)
    chosen = seen[:arcs]
    return all_src[chosen], all_dst[chosen]


def integer_biases(rng: np.random.Generator, count: int) -> np.ndarray:
    """Heavy-tailed integer biases: log-uniform over 1 .. 2^20, so one
    vertex's edges spread over many radix groups."""
    return np.floor(2.0 ** rng.uniform(0.0, 20.0, count)).astype(np.float64)


def float_biases(rng: np.random.Generator, count: int) -> np.ndarray:
    """Log-uniform float biases over 1/8 .. 1024: the fractional parts keep
    the engine's λ-amortization above 1 and its decimal group non-empty."""
    return 2.0 ** rng.uniform(-3.0, 10.0, count)


def make_graph(seed: int, scale: int, arcs: int, *, floats: bool):
    """The seeded initial graph as ``(num_vertices, src, dst, bias)``."""
    rng = rng_for(seed, "graph")
    src, dst = rmat_edges(rng, scale, arcs)
    draw = float_biases if floats else integer_biases
    return 1 << scale, src, dst, draw(rng, len(src))


class UpdateStream:
    """A seeded mixed insert/delete stream against a reference graph.

    Each update is valid at the point of the stream where it sits: a
    deletion names a live edge, an insertion an absent one.  The caller
    applies each update to the reference (``ReferenceGraph.apply``) as it
    consumes it, so the stream always draws against the current state.
    """

    def __init__(self, seed: int, stream: str, reference: ReferenceGraph, scale: int, *, floats: bool) -> None:
        self.rng = rng_for(seed, stream)
        self.reference = reference
        self.scale = scale
        self.floats = floats
        self._pool_src = np.empty(0, dtype=np.int64)
        self._pool_dst = np.empty(0, dtype=np.int64)
        self._pool_at = 0

    def _candidate(self) -> tuple[int, int]:
        if self._pool_at >= len(self._pool_src):
            self._pool_src, self._pool_dst = rmat_pairs(self.rng, self.scale, 4096)
            self._pool_at = 0
        at = self._pool_at
        self._pool_at += 1
        return int(self._pool_src[at]), int(self._pool_dst[at])

    def _bias(self) -> float:
        draw = float_biases if self.floats else integer_biases
        return float(draw(self.rng, 1)[0])

    def next(self) -> tuple[bool, int, int, float]:
        """The next update as ``(is_insert, src, dst, bias)``, already applied
        to the reference graph."""
        ref = self.reference
        if self.rng.random() < 0.5 and ref.num_arcs > 0:
            src, dst = ref.arc_at(int(self.rng.integers(ref.num_arcs)))
            ref.apply(False, src, dst, 0.0)
            return False, src, dst, 0.0
        while True:
            src, dst = self._candidate()
            if src != dst and not ref.has_edge(src, dst):
                break
        bias = self._bias()
        ref.apply(True, src, dst, bias)
        return True, src, dst, bias

    def batch(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``size`` consecutive updates as ``(src, dst, bias, insert_mask)`` columns."""
        rows = [self.next() for _ in range(size)]
        insert = np.fromiter((row[0] for row in rows), dtype=bool, count=size)
        src = np.fromiter((row[1] for row in rows), dtype=np.int64, count=size)
        dst = np.fromiter((row[2] for row in rows), dtype=np.int64, count=size)
        bias = np.fromiter((row[3] for row in rows), dtype=np.float64, count=size)
        return src, dst, bias, insert


class ZipfStarts:
    """Zipf-skewed start vertices over the vertices that have out-edges.

    Popularity follows out-degree: rank r (1 = highest degree, ties broken
    by a seeded shuffle) is drawn with weight 1 / r^s.  Tying rank to degree
    keeps the query mix alike across seeds, where a random ranking would
    let one seed's most popular start be a hub and another's a near-sink.
    """

    def __init__(self, rng: np.random.Generator, out_degree: np.ndarray, exponent: float = 1.0) -> None:
        self.rng = rng
        out_degree = np.asarray(out_degree)
        shuffled = rng.permutation(np.nonzero(out_degree > 0)[0])
        self.order = shuffled[np.argsort(-out_degree[shuffled], kind="stable")]
        weights = 1.0 / np.arange(1, len(self.order) + 1, dtype=np.float64) ** exponent
        self.cdf = np.cumsum(weights) / weights.sum()

    def draw(self, count: int) -> np.ndarray:
        ranks = np.searchsorted(self.cdf, self.rng.random(count), side="right")
        return self.order[np.minimum(ranks, len(self.order) - 1)]
