"""CPU executor and chunking tests."""

import numpy as np
import pytest

from repro.cpusim.executor import CpuExecutor
from repro.cpusim.threads import block_partition, descending, uniform_chunks
from repro.ir import ArrayStorage
from repro.runtime.costmodel import CostModel
from repro.runtime.platform import paper_platform

from ..conftest import SEIDEL_SRC, VEC_SRC, lowered


@pytest.fixture
def cpu():
    platform = paper_platform()
    return CpuExecutor(platform.cpu, CostModel(platform))


class TestExecutor:
    def test_parallel_doall(self, cpu):
        _, fn = lowered(VEC_SRC)
        n = 128
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        storage = ArrayStorage({"a": a, "b": b, "c": np.zeros(n)})
        run = cpu.run_parallel(fn, storage, {"n": n}, range(n))
        assert np.array_equal(storage.arrays["c"], a * 2 + b)
        assert run.threads == 16

    def test_serial_respects_order(self, cpu):
        _, fn = lowered(SEIDEL_SRC)
        n = 32
        x = np.ones(n)
        storage = ArrayStorage({"x": x.copy(), "b": np.zeros(n)})
        run = cpu.run_serial(fn, storage, {"n": n}, range(1, n - 1))
        expected = x.copy()
        for i in range(1, n - 1):
            expected[i] = 0.5 * (expected[i - 1] + expected[i + 1])
        assert np.array_equal(storage.arrays["x"], expected)
        assert run.threads == 1

    def test_parallel_uses_vector_path_when_allowed(self, cpu):
        _, fn = lowered(VEC_SRC)
        n = 64
        storage = ArrayStorage(
            {"a": np.ones(n), "b": np.ones(n), "c": np.zeros(n)}
        )
        fast = cpu.run_parallel(fn, storage, {"n": n}, range(n))
        storage2 = ArrayStorage(
            {"a": np.ones(n), "b": np.ones(n), "c": np.zeros(n)}
        )
        slow = cpu.run_parallel(
            fn, storage2, {"n": n}, range(n), ordered=True
        )
        # identical results and counts either way
        assert np.array_equal(storage.arrays["c"], storage2.arrays["c"])
        assert fast.counts == slow.counts

    def test_more_threads_not_slower(self, cpu):
        _, fn = lowered(VEC_SRC)
        n = 4096
        storage = ArrayStorage(
            {"a": np.ones(n), "b": np.ones(n), "c": np.zeros(n)}
        )
        t4 = cpu.run_parallel(fn, storage, {"n": n}, range(n), threads=4)
        t12 = cpu.run_parallel(fn, storage, {"n": n}, range(n), threads=12)
        assert t12.sim_time_s <= t4.sim_time_s


class TestChunking:
    def test_block_partition_even(self):
        assert block_partition(list(range(6)), 3) == [[0, 1], [2, 3], [4, 5]]

    def test_block_partition_remainder_goes_first(self):
        parts = block_partition(list(range(7)), 3)
        assert [len(p) for p in parts] == [3, 2, 2]
        assert sum(parts, []) == list(range(7))

    def test_block_partition_more_parts_than_items(self):
        parts = block_partition([1, 2], 4)
        assert parts == [[1], [2], [], []]

    def test_block_partition_invalid(self):
        with pytest.raises(ValueError):
            block_partition([1], 0)

    def test_uniform_chunks(self):
        assert uniform_chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        with pytest.raises(ValueError):
            uniform_chunks([1], 0)

    def test_descending(self):
        assert descending([1, 2, 3]) == [3, 2, 1]
