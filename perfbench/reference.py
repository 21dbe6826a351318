"""The benchmark's independent reference model and output checkers.

``ReferenceGraph`` is a plain-Python adjacency that replays every update
the program is given; ``EpochHistory`` remembers, per arc, the epochs in
which it was live, which is one snapshot per published epoch without a copy
per epoch.  The checkers below judge the program's outputs against these
and against the laws of the walk methods; none of them compares with a
stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

#: One-sided normal quantile used by every statistical check: a false
#: alarm rate of about 3e-7 per test.
Z_CRITICAL = 5.0


class CheckFailed(AssertionError):
    """An output of the program contradicts the reference."""


class ReferenceGraph:
    """Directed weighted adjacency with O(1) insert, delete and random arc."""

    def __init__(self, num_vertices: int, src, dst, bias) -> None:
        self.num_vertices = int(num_vertices)
        self.adj: list[dict[int, float]] = [{} for _ in range(self.num_vertices)]
        self._arcs: list[tuple[int, int]] = []
        self._slot: dict[tuple[int, int], int] = {}
        for u, v, b in zip(np.asarray(src).tolist(), np.asarray(dst).tolist(), np.asarray(bias).tolist()):
            self.apply(True, u, v, b)

    @property
    def num_arcs(self) -> int:
        return len(self._arcs)

    def arc_at(self, index: int) -> tuple[int, int]:
        return self._arcs[index]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.num_vertices and v in self.adj[u]

    def apply(self, is_insert: bool, u: int, v: int, bias: float) -> None:
        if is_insert:
            if v in self.adj[u]:
                raise CheckFailed(f"stream inserts live arc {u}->{v}")
            self.adj[u][v] = float(bias)
            self._slot[(u, v)] = len(self._arcs)
            self._arcs.append((u, v))
            return
        if v not in self.adj[u]:
            raise CheckFailed(f"stream deletes absent arc {u}->{v}")
        del self.adj[u][v]
        slot = self._slot.pop((u, v))
        last = self._arcs.pop()
        if last != (u, v):
            self._arcs[slot] = last
            self._slot[last] = slot

    def out_degrees(self) -> np.ndarray:
        return np.fromiter((len(a) for a in self.adj), dtype=np.int64, count=self.num_vertices)

    def sorted_keys(self) -> np.ndarray:
        """Every arc as ``u * V + v``, sorted (for vectorized membership)."""
        n = self.num_vertices
        keys = np.fromiter((u * n + v for u, v in self._arcs), dtype=np.int64, count=len(self._arcs))
        keys.sort()
        return keys


class EpochHistory:
    """Per-arc live intervals ``[first epoch, end epoch)`` across publications.

    Epoch 0 is the initial graph; the k-th ingested batch is published as
    epoch k.  ``record`` must be called for each batch, in order, before
    any response carrying its epoch can arrive.
    """

    def __init__(self, src, dst) -> None:
        self.intervals: dict[tuple[int, int], list[list[float]]] = {
            (u, v): [[0, math.inf]] for u, v in zip(np.asarray(src).tolist(), np.asarray(dst).tolist())
        }
        self.latest = 0

    def record(self, epoch: int, rows) -> None:
        """Publish one batch of ``(is_insert, u, v, bias)`` rows as ``epoch``.

        Only the batch's net effect is visible: an arc inserted and deleted
        inside one batch was never live in any epoch."""
        if epoch != self.latest + 1:
            raise CheckFailed(f"epoch {epoch} recorded after {self.latest}")
        self.latest = epoch
        final: dict[tuple[int, int], bool] = {}
        for is_insert, u, v, _ in rows:
            final[(u, v)] = bool(is_insert)
        for key, live_after in final.items():
            spans = self.intervals.setdefault(key, [])
            live_before = bool(spans) and spans[-1][1] == math.inf
            if live_before and not live_after:
                spans[-1][1] = epoch
            elif live_after and not live_before:
                spans.append([epoch, math.inf])

    def live(self, u: int, v: int, epoch: int) -> bool:
        for first, end in self.intervals.get((u, v), ()):
            if first <= epoch < end:
                return True
        return False


def check_walk_matrix(matrix: np.ndarray, starts, is_arc) -> int:
    """Rows start at ``starts``, are ``-1``-padded after they end, and every
    consecutive pair is an arc (``is_arc(u_array, v_array) -> bool array``).
    Returns the number of steps checked."""
    matrix = np.asarray(matrix)
    starts = np.asarray(starts, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != len(starts):
        raise CheckFailed(f"walk matrix shape {matrix.shape} for {len(starts)} starts")
    if not np.array_equal(matrix[:, 0], starts):
        raise CheckFailed("walks do not start at the requested vertices")
    if matrix.shape[1] < 2:
        return 0
    here = matrix[:, :-1]
    there = matrix[:, 1:]
    if np.any((here < 0) & (there >= 0)):
        raise CheckFailed("a walk continues after its padding")
    stepped = there >= 0
    u = here[stepped]
    v = there[stepped]
    ok = is_arc(u, v)
    if not np.all(ok):
        bad = int(np.argmin(ok))
        raise CheckFailed(f"walk step {int(u[bad])}->{int(v[bad])} is not an arc")
    return int(stepped.sum())


def sorted_key_membership(keys: np.ndarray, num_vertices: int):
    """``is_arc`` over a static arc set given as sorted ``u * V + v`` keys."""

    def is_arc(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        query = u.astype(np.int64) * num_vertices + v.astype(np.int64)
        at = np.searchsorted(keys, query)
        at = np.minimum(at, len(keys) - 1)
        return keys[at] == query

    return is_arc


def reference_membership(ref: ReferenceGraph):
    def is_arc(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.fromiter((ref.has_edge(a, b) for a, b in zip(u.tolist(), v.tolist())), dtype=bool, count=len(u))

    return is_arc


def epoch_membership(history: EpochHistory, epoch: int):
    def is_arc(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (history.live(a, b, epoch) for a, b in zip(u.tolist(), v.tolist())), dtype=bool, count=len(u)
        )

    return is_arc


def chi_square_z(observed: np.ndarray, expected_weights: np.ndarray) -> float:
    """Wilson-Hilferty z-score of Pearson's chi-square statistic.

    Categories are merged in order of increasing expected count until each
    bin expects at least 5 draws, so heavy-tailed weights stay testable.
    """
    observed = np.asarray(observed, dtype=np.float64)
    weights = np.asarray(expected_weights, dtype=np.float64)
    expected = weights / weights.sum() * observed.sum()
    order = np.argsort(expected, kind="stable")
    bins_obs: list[float] = []
    bins_exp: list[float] = []
    acc_obs = acc_exp = 0.0
    for index in order:
        acc_obs += observed[index]
        acc_exp += expected[index]
        if acc_exp >= 5.0:
            bins_obs.append(acc_obs)
            bins_exp.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if acc_exp > 0.0:
        if bins_exp:
            bins_obs[-1] += acc_obs
            bins_exp[-1] += acc_exp
        else:
            bins_obs.append(acc_obs)
            bins_exp.append(acc_exp)
    df = len(bins_exp) - 1
    if df < 1:
        return 0.0
    obs = np.asarray(bins_obs)
    exp = np.asarray(bins_exp)
    stat = float(((obs - exp) ** 2 / exp).sum())
    scale = 2.0 / (9.0 * df)
    return ((stat / df) ** (1.0 / 3.0) - (1.0 - scale)) / math.sqrt(scale)


def check_first_steps(vertex: int, draws: np.ndarray, neighbours: dict[int, float]) -> float:
    """Draws of ``vertex``'s first step follow bias / total bias."""
    ids = np.fromiter(neighbours.keys(), dtype=np.int64, count=len(neighbours))
    weights = np.fromiter(neighbours.values(), dtype=np.float64, count=len(neighbours))
    order = np.argsort(ids)
    ids, weights = ids[order], weights[order]
    at = np.minimum(np.searchsorted(ids, draws), len(ids) - 1)
    if not np.all(ids[at] == draws):
        raise CheckFailed(f"vertex {vertex} drew a non-neighbour")
    observed = np.bincount(at, minlength=len(ids))
    z = chi_square_z(observed, weights)
    if z > Z_CRITICAL:
        raise CheckFailed(f"vertex {vertex}: first-step frequencies differ from bias/total (z={z:.1f})")
    return z


def check_ppr_lengths(matrix: np.ndarray, out_degree: np.ndarray, termination: float, max_steps: int) -> float:
    """PPR walks stop by a coin of probability ``termination`` before each step.

    Every step taken is a coin that survived; a walk that ended below
    ``max_steps`` on a vertex with out-edges ended on a coin that stopped
    it.  A walk ending on a sink hides its last coin, which is left out —
    that choice depends on the vertex, not on the coin, so the kept coins
    stay independent Bernoulli(termination) draws.
    """
    lengths = (np.asarray(matrix) >= 0).sum(axis=1) - 1
    rows = np.arange(len(lengths))
    last = np.asarray(matrix)[rows, lengths]
    stopped = (lengths < max_steps) & (out_degree[last] > 0)
    trials = float(lengths.sum() + stopped.sum())
    stops = float(stopped.sum())
    if trials == 0:
        return 0.0
    mean = trials * termination
    z = (stops - mean) / math.sqrt(trials * termination * (1.0 - termination))
    if abs(z) > Z_CRITICAL:
        raise CheckFailed(f"PPR termination rate {stops / trials:.4f} differs from {termination} (z={z:.1f})")
    return z
