"""Self-tests of the benchmark: its checkers must reject corrupted outputs,
and its input generator must be deterministic per seed.

Run as ``python3 perfbench/run.py --selftest``; exits 0 when every test
passes.
"""

from __future__ import annotations

import sys
import traceback

import numpy as np

import inputs
from reference import (
    CheckFailed,
    EpochHistory,
    ReferenceGraph,
    check_first_steps,
    check_ppr_lengths,
    check_walk_matrix,
    epoch_membership,
    reference_membership,
)


def rejects(function, *args) -> None:
    try:
        function(*args)
    except CheckFailed:
        return
    raise AssertionError(f"{function.__name__} accepted a corrupted output")


def tiny_reference() -> ReferenceGraph:
    # 0->1, 1->2, 2->0, 0->2
    return ReferenceGraph(4, [0, 1, 2, 0], [1, 2, 0, 2], [1.0, 2.0, 3.0, 4.0])


def test_walk_with_non_edge_step_is_rejected() -> None:
    ref = tiny_reference()
    is_arc = reference_membership(ref)
    good = np.array([[0, 1, 2, 0], [1, 2, -1, -1]])
    assert check_walk_matrix(good, [0, 1], is_arc) == 4
    rejects(check_walk_matrix, np.array([[0, 1, 0, -1]]), [0], is_arc)  # 1->0 is no arc
    rejects(check_walk_matrix, np.array([[0, 1, 2]]), [1], is_arc)  # wrong start
    rejects(check_walk_matrix, np.array([[0, -1, 2]]), [0], is_arc)  # steps after padding


def test_step_valid_only_in_another_epoch_is_rejected() -> None:
    history = EpochHistory([0, 1], [1, 2])
    history.record(1, [(True, 2, 3, 1.0), (False, 0, 1, 0.0)])
    history.record(2, [(True, 3, 0, 1.0), (False, 3, 0, 0.0)])  # never visible
    walk_old = np.array([[0, 1, 2]])  # valid at epoch 0 only
    walk_new = np.array([[1, 2, 3]])  # valid from epoch 1 on
    check_walk_matrix(walk_old, [0], epoch_membership(history, 0))
    check_walk_matrix(walk_new, [1], epoch_membership(history, 2))
    rejects(check_walk_matrix, walk_old, [0], epoch_membership(history, 1))
    rejects(check_walk_matrix, walk_new, [1], epoch_membership(history, 0))
    rejects(check_walk_matrix, np.array([[3, 0]]), [3], epoch_membership(history, 2))


def test_skewed_first_steps_are_rejected() -> None:
    rng = np.random.default_rng(7)
    ids = np.arange(100, 400)
    weights = np.floor(2.0 ** rng.uniform(0, 20, len(ids)))
    neighbours = dict(zip(ids.tolist(), weights.tolist()))
    fair = rng.choice(ids, size=20_000, p=weights / weights.sum())
    check_first_steps(0, fair, neighbours)
    heavy = weights.copy()
    heavy[np.argmax(weights)] *= 1.5  # the heaviest neighbour drawn 50% too often
    top_bit = 2.0 ** np.floor(np.log2(weights))  # a radix sampler that ignores the lower bits
    for skewed_weights in (heavy, top_bit):
        skewed = rng.choice(ids, size=20_000, p=skewed_weights / skewed_weights.sum())
        rejects(check_first_steps, 0, skewed, neighbours)
    rejects(check_first_steps, 0, np.append(fair[:-1], 5), neighbours)  # a non-neighbour


def test_wrong_ppr_termination_is_rejected() -> None:
    rng = np.random.default_rng(3)
    degree = np.ones(10, dtype=np.int64)
    degree[9] = 0  # vertex 9 is a sink

    def walks(termination: float, count: int = 20_000, max_steps: int = 40) -> np.ndarray:
        matrix = np.full((count, max_steps + 1), -1, dtype=np.int64)
        matrix[:, 0] = 0
        for row in range(count):
            at = 0
            for step in range(1, max_steps + 1):
                if degree[at] == 0 or rng.random() < termination:
                    break
                at = int(rng.integers(10))
                matrix[row, step] = at
        return matrix

    check_ppr_lengths(walks(0.15), degree, 0.15, 40)
    rejects(check_ppr_lengths, walks(0.17), degree, 0.15, 40)


def test_inputs_are_deterministic_per_seed() -> None:
    first = inputs.make_graph(5, 10, 4_000, floats=True)
    again = inputs.make_graph(5, 10, 4_000, floats=True)
    other = inputs.make_graph(6, 10, 4_000, floats=True)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[1], other[1])
    n, src, dst, _ = first
    assert len(src) == 4_000 and np.all(src != dst)
    assert len(np.unique(src * n + dst)) == len(src)

    def stream_of(seed: int):
        ref = ReferenceGraph(n, src, dst, first[3])
        stream = inputs.UpdateStream(seed, "updates", ref, 10, floats=True)
        batch = stream.batch(500)  # ReferenceGraph.apply raises on a bad update
        zipf = inputs.ZipfStarts(inputs.rng_for(seed, "starts"), ref.out_degrees())
        return (*batch, zipf.draw(64))

    for a, b in zip(stream_of(5), stream_of(5)):
        assert np.array_equal(a, b)
    assert not np.array_equal(stream_of(5)[0], stream_of(6)[0])
    inserts = stream_of(5)[3]
    assert 0 < inserts.sum() < len(inserts)


def test_adjacency_mismatch_is_rejected() -> None:
    from inprocess import check_adjacency
    from repro.engines import BingoEngine
    from repro.graph import DynamicGraph

    ref = tiny_reference()
    graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (0, 2, 4.0)], num_vertices=4)
    engine = BingoEngine(rng=1)
    engine.build(graph)
    check_adjacency(engine, ref, range(4))
    ref.adj[0][1] = 9.0
    rejects(check_adjacency, engine, ref, range(4))


TESTS = [value for name, value in sorted(globals().items()) if name.startswith("test_")]


def main() -> int:
    failures = 0
    for test in TESTS:
        try:
            test()
        except Exception:
            failures += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(TESTS) - failures}/{len(TESTS)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
