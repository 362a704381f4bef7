"""The fork module: the pool (procs.fork_map), the read-ahead
(procs.ReadAhead) and their children's ways out.

The read-ahead child's ways out of fusion training are in
tests/test_fusion.py (TestReadAheadChild).
"""

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import running
from memdenoise import procs
from memdenoise.cli import CliError
from memdenoise.nets.common import TrainingDivergence
from memdenoise.procs import WorkerError

FORK = multiprocessing.get_context("fork")


class TestForkMap:
    @pytest.mark.parametrize("cpus", [2, 4])
    def test_results_keep_input_order(self, monkeypatch, cpus):
        monkeypatch.setattr(procs, "cpus", lambda: cpus)
        assert procs.fork_map(lambda i: i * i, list(range(9)), str) == [
            i * i for i in range(9)]

    def test_first_item_runs_here_and_last_in_a_worker(self, monkeypatch):
        # Item 0 cannot end before item 2 has started and item 2 cannot
        # end before item 0 has started, so with one worker (which takes
        # item 2 first) each must run where the pool's rule puts it.
        front, back = FORK.Event(), FORK.Event()

        def fn(i):
            if i == 0:
                front.set()
                assert back.wait(10)
            if i == 2:
                assert front.wait(10)
                back.set()
            return i, os.getpid()

        monkeypatch.setattr(procs, "cpus", lambda: 2)
        got = procs.fork_map(fn, [0, 1, 2], str)
        assert [i for i, _ in got] == [0, 1, 2]
        assert got[0][1] == os.getpid() != got[2][1]

    def test_failure_here_wins_over_a_later_one_in_a_worker(self,
                                                            monkeypatch):
        # Item 2 fails in the worker before item 0 fails here.
        front, back = FORK.Event(), FORK.Event()

        def fn(i):
            if i == 0:
                front.set()
                assert back.wait(10)
                time.sleep(0.1)
                raise ValueError("item 0 failed")
            if i == 2:
                assert front.wait(10)
                back.set()
                raise CliError("item 2 failed")
            return i

        monkeypatch.setattr(procs, "cpus", lambda: 2)
        with pytest.raises(ValueError) as info:
            procs.fork_map(fn, [0, 1, 2], str)
        assert type(info.value) is ValueError
        assert str(info.value) == "item 0 failed"

    @pytest.mark.parametrize("cpus, items", [(1, [1, 2, 3]), (4, [7])])
    def test_one_worker_runs_in_this_process(self, monkeypatch, cpus, items):
        monkeypatch.setattr(procs, "cpus", lambda: cpus)
        assert procs.fork_map(lambda i: (i, os.getpid()), items, str) == [
            (i, os.getpid()) for i in items]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failure_in_input_order_raises(self, monkeypatch, cpus):
        def fn(i):
            if i == 1:
                time.sleep(0.2)  # later items fail first
                raise ValueError("item 1 failed")
            if i > 1:
                raise CliError(f"item {i} failed")
            return i

        monkeypatch.setattr(procs, "cpus", lambda: cpus)
        with pytest.raises(ValueError) as info:
            procs.fork_map(fn, [0, 1, 2, 3], str)
        assert type(info.value) is ValueError
        assert str(info.value) == "item 1 failed"

    def test_a_map_inside_an_open_pool_runs_serially(self, monkeypatch):
        # The open pool already runs a process per CPU, so a task's own
        # fork_map, here (item 0) or in a worker (item 3, the first a
        # worker takes), forks nothing.
        front, back = FORK.Event(), FORK.Event()

        def fn(i):
            if i == 0:
                front.set()
                assert back.wait(10)
            if i == 3:
                assert front.wait(10)
                back.set()
            return procs.fork_map(lambda j: (j, os.getpid()), [0, 1, 2], str)

        monkeypatch.setattr(procs, "cpus", lambda: 3)
        got = procs.fork_map(fn, [0, 1, 2, 3], str)
        pids = [{pid for _, pid in per_item} for per_item in got]
        assert [[j for j, _ in per_item] for per_item in got] == [[0, 1, 2]] * 4
        assert all(len(p) == 1 for p in pids)
        assert pids[0] == {os.getpid()} != pids[3]
        assert not procs._held


class TwoArgs(Exception):
    """Pickles as its class and args, but cannot be built from them."""

    def __init__(self, a, b):
        super().__init__(a + b)


def raises(error):
    def fail(i):
        raise error
    return fail


# Every way out of a 2-CPU fork_map of items 0-3: (fault in this
# process's item 0, fault in each worker item, what fork_map raises and
# its message).
WAYS_OUT = {
    "success": (None, None, None, None),
    "error-here": (raises(ValueError("boom")), None, ValueError, "^boom$"),
    "error-in-worker": (None, raises(CliError("boom")), CliError, "^boom$"),
    "divergence-in-worker": (
        None, raises(TrainingDivergence(2, 9.0, 1.0, [1.0, 9.0])),
        TrainingDivergence, "^diverged at epoch 2: rmse 9, initial 1"),
    "interrupt-here": (raises(KeyboardInterrupt()), None, KeyboardInterrupt,
                       None),
    "worker-exits": (None, lambda i: os._exit(1), WorkerError,
                     "^item 3: a worker process died$"),
    "unpicklable-error-in-worker": (
        None, raises(ValueError(lambda: 0)), WorkerError,
        "^item 3: a worker process cannot pickle its outcome: "),
    "unreadable-error-in-worker": (
        None, raises(TwoArgs(1, 2)), WorkerError,
        "^item 3: a worker process cannot pickle its outcome: TypeError: "
        ".*missing 1 required positional argument"),
}


class TestWorkers:
    @pytest.mark.parametrize("way", sorted(WAYS_OUT))
    def test_no_worker_is_left_running(self, monkeypatch, way):
        # Item 0 waits here until the worker has started its first item
        # (3), so every way out meets a worker that has worked. A worker
        # fault strikes item 3 alone: the worker may also take items 2
        # and 1 before this process reaches them, and a fault there
        # would be named first.
        here, there, error, match = WAYS_OUT[way]
        started, pids, parent = FORK.Event(), FORK.SimpleQueue(), os.getpid()

        def fn(i):
            pids.put(os.getpid())
            if os.getpid() != parent:
                started.set()
                fault = there if i == 3 else None
            else:
                fault = here if i == 0 else None
                assert started.wait(10)
            if fault is not None:
                fault(i)
            return i

        monkeypatch.setattr(procs, "cpus", lambda: 2)
        with (pytest.raises(error, match=match) if error
              else contextlib.nullcontext()):
            assert procs.fork_map(fn, [0, 1, 2, 3],
                                  lambda i: f"item {i}") == [0, 1, 2, 3]
        workers = set()
        while not pids.empty():
            workers.add(pids.get())
        pids.close()
        workers.discard(parent)
        assert workers
        # Each worker was waited for: it is neither running nor a zombie.
        for pid in workers:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert multiprocessing.active_children() == []
        assert not procs._held

    def test_worker_ends_when_its_parent_is_killed(self):
        # The parent sleeps in its item 0 while its worker works items
        # from 99 down, printing its pid as it starts the first. Killed
        # with SIGKILL, the parent runs no cleanup; the worker must take
        # no item after the one it is in and end by itself.
        src = os.path.dirname(os.path.dirname(procs.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        parent = subprocess.Popen([sys.executable, "-c", KILLED_MAP],
                                  env=env, stdout=subprocess.PIPE, text=True)
        try:
            worker = int(parent.stdout.readline())
            assert running(worker)
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        deadline = time.monotonic() + 30
        while running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = running(worker)
        if left:
            os.kill(worker, signal.SIGKILL)
        assert not left

    def test_a_result_a_worker_cannot_pickle_names_its_item(self,
                                                            monkeypatch):
        # Every result is a lambda, which the worker cannot send; the first
        # item the worker took is named, with the pickling error.
        pids, parent = FORK.SimpleQueue(), os.getpid()

        def fn(i):
            pids.put(os.getpid())
            time.sleep(0.05)
            return lambda: i

        monkeypatch.setattr(procs, "cpus", lambda: 2)
        with pytest.raises(WorkerError, match=(
                r"^item \d: a worker process cannot pickle its outcome: "
                r".*lambda")):
            procs.fork_map(fn, list(range(6)), lambda i: f"item {i}")
        workers = set()
        while not pids.empty():
            workers.add(pids.get())
        pids.close()
        workers.discard(parent)
        assert workers
        for pid in workers:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert not procs._held

    def test_a_worker_never_waits_on_this_process(self, monkeypatch):
        # Item 0 ends here only once the worker has reached its last item
        # (1), and the worker's results, 1 MB each, are more than a pipe
        # holds: a worker that sent each result as it finished would wait
        # for this process to read it, and this process for the worker.
        last = FORK.Event()

        def fn(i):
            if i == 0:
                assert last.wait(30)
            if i == 1:
                last.set()
            return bytes([i]) * 2**20

        monkeypatch.setattr(procs, "cpus", lambda: 2)
        assert procs.fork_map(fn, [0, 1, 2, 3], str) == [
            bytes([i]) * 2**20 for i in range(4)]


def arrays(count, fault=None, at=0):
    """count 1 MB arrays, each filled with its index: more than a pipe
    holds, so a child writes each while its reader holds the one before.
    fault(at), if given, is called once array at is taken."""
    for i in range(count):
        yield np.full(2**17, float(i))
        if fault is not None and i == at:
            fault(i)


class TestReadAhead:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_blocks_arrive_in_order_and_stay_intact(self, monkeypatch, cpus):
        monkeypatch.setattr(procs, "cpus", lambda: cpus)
        reader = procs.ReadAhead()
        try:
            got = list(reader.start(arrays(4)))
        finally:
            reader.close()
        assert len(got) == 4
        for i, block in enumerate(got):
            np.testing.assert_array_equal(block, np.full(2**17, float(i)))
            assert block.flags.writeable

    # A generator that raises after two blocks: inline its own exception
    # comes out, forked a WorkerError with its text.
    @pytest.mark.parametrize("cpus, error, match", [
        (1, ValueError, "^boom$"),
        (2, WorkerError, "^the read-ahead process raised ValueError: boom$")])
    def test_an_exception_follows_the_blocks_before_it(self, monkeypatch,
                                                       cpus, error, match):
        monkeypatch.setattr(procs, "cpus", lambda: cpus)
        reader, got = procs.ReadAhead(), []
        try:
            with pytest.raises(error, match=match):
                for block in reader.start(arrays(4, raises(ValueError("boom")), 1)):
                    got.append(block[0])
        finally:
            reader.close()
        assert got == [0.0, 1.0]
        assert not procs._held

    def test_a_dead_child_follows_the_blocks_before_it(self, monkeypatch):
        # Forked only: inline the exit would end this process.
        monkeypatch.setattr(procs, "cpus", lambda: 2)
        reader, got = procs.ReadAhead(), []
        try:
            with pytest.raises(WorkerError, match="^a worker process died$"):
                for block in reader.start(arrays(4, lambda i: os._exit(3))):
                    got.append(block[0])
        finally:
            reader.close()
        assert got == [0.0]

    def test_a_block_the_child_cannot_pickle_is_named(self, monkeypatch):
        # Forked only: inline nothing is pickled.
        monkeypatch.setattr(procs, "cpus", lambda: 2)

        def blocks():
            yield from arrays(2)
            yield lambda: 0
            yield np.zeros(1)

        reader, got = procs.ReadAhead(), []
        try:
            with pytest.raises(WorkerError, match=(
                    "^the read-ahead process cannot pickle block 2: .*lambda")):
                for block in reader.start(blocks()):
                    got.append(block[0])
            child = reader._child
        finally:
            reader.close()
        assert got == [0.0, 1.0]
        with pytest.raises(ChildProcessError):
            os.waitpid(child.pid, os.WNOHANG)
        assert not procs._held

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_second_start_reaps_the_first_child(self, monkeypatch, cpus):
        # The first child waits writing its second block, never read.
        monkeypatch.setattr(procs, "cpus", lambda: cpus)
        reader = procs.ReadAhead()
        try:
            assert next(reader.start(arrays(4)))[0] == 0.0
            first = reader._child
            assert [block[0] for block in reader.start(arrays(2))] == [
                0.0, 1.0]
            assert (first is None) == (cpus == 1)
            if first is not None:
                assert reader._child.pid != first.pid
                with pytest.raises(ChildProcessError):
                    os.waitpid(first.pid, os.WNOHANG)
        finally:
            reader.close()
        assert multiprocessing.active_children() == []
        assert not procs._held


# Maps 100 items over two processes. This process sleeps in item 0; the
# worker takes a second over each item and prints its pid as it starts
# its first (99).
KILLED_MAP = """
import os
import time
from memdenoise import procs

def fn(i):
    if i == 0:
        time.sleep(600)
    if i == 99:
        print(os.getpid(), flush=True)
    time.sleep(1)
    return i

procs.cpus = lambda: 2
procs.fork_map(fn, list(range(100)), str)
"""
