"""Forked child processes: a pool over a list of items, and arrays made
ahead of their reader.

fork_map is a list map worked by this process from the front and by
forked workers from the back. ReadAhead.start forks a child that pipes
the arrays of a generator to its reader, at most about one array ahead.
With one CPU (see cpus) both run inline, on the same code and so with
the same bits. A child pickles what it sends with protocol 5: an array
is written from its own memory and read into a fresh one. It ignores
SIGINT (an interrupt goes to its parent, which ends it) and holds no
pipe but the write end of its own, so once its parent is gone, even by
SIGKILL, its next write fails and it ends.
"""

import multiprocessing as mp
import os
import pickle
import signal

# The pipe ends this process holds: its children's read ends and, in a
# child, the write end of its own pipe. A new child closes them all.
_held = set()


def cpus():
    """CPUs this process may run on; 1 off Linux, where no fork-safe
    process start is available."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class WorkerError(RuntimeError):
    """A child raised (the message names its exception) or died."""


class _Nowhere:
    """A file that keeps nothing written to it."""

    def write(self, data):
        pass


def _unpicklable(obj):
    """The "Type: message" text of the error pickling obj raises, or None.

    A child tries each object here first: a pickle that fails part-way
    through its write would cut the pipe's stream of pickles. An
    exception, pickled as its class and args alone, is read back too.
    """
    try:
        pickle.dump(obj, _Nowhere(), protocol=5)
        if isinstance(obj, BaseException):
            pickle.loads(pickle.dumps(obj, protocol=5))
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    return None


class _Child:
    """A forked child piping each object of work() here; iterating over
    it yields them until the pipe (or a pickle cut off by death) ends."""

    def __init__(self, work):
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            try:
                for fd in _held | {read_fd}:
                    os.close(fd)
                _held.clear()
                _held.add(write_fd)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                with open(write_fd, "wb") as out:
                    for sent in work():
                        pickle.dump(sent, out, protocol=5)
                        out.flush()
            except BrokenPipeError:
                pass  # the reader is gone
            finally:
                os._exit(0)
        os.close(write_fd)
        _held.add(read_fd)
        self.pipe = open(read_fd, "rb")

    def __iter__(self):
        try:
            while True:
                yield pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            return

    def close(self):
        """Close the pipe and wait for the child, which ends at its next
        write if it has not ended already."""
        _held.discard(self.pipe.fileno())
        self.pipe.close()
        os.waitpid(self.pid, 0)


def _claim(claimed, index):
    """True for the one process that takes items[index]."""
    with claimed.get_lock():
        first = not claimed[index]
        claimed[index] = 1
    return first


def fork_map(fn, items, name):
    """[fn(item) for item in items], this process and up to one forked
    worker per other CPU working through them.

    The workers take the items from the back and this process from the
    front, each item claimed by the first to reach it, so the front
    items' work (and anything a profiler records of it) stays here. fn
    and what it closes over reach the workers unpickled, so callers
    start no threads first; the results come back pickled. fn may start
    child processes of its own (fusion training's read-ahead does), but
    a fork_map in a worker, or in a process whose map or read-ahead is
    open, runs its items in that process. With one CPU or one item all
    run here. The first item to fail, in input order, raises its own
    exception, and an item lost with a dead worker, or whose result or
    exception a worker cannot pickle, a WorkerError naming name(item);
    items nobody has started are then dropped, and items already running
    finish.
    """
    workers = min(len(items), cpus()) - 1
    if workers < 1 or _held:
        return [fn(item) for item in items]
    # Item 0 is claimed here before any worker exists, so it runs here
    # however the workers are scheduled.
    claimed = mp.get_context("fork").Array("b", [1] + [0] * (len(items) - 1))
    parent, children, results = os.getpid(), [], []

    def work():
        # A worker takes items while its parent lives, and sends their
        # results (1-tuples) and exceptions, which the parent raises, once
        # none is left: it never waits on its parent while it has items.
        done = {}
        for i in reversed(range(len(items))):
            if os.getppid() != parent:
                return
            if _claim(claimed, i):
                try:
                    done[i] = (fn(items[i]),)
                except BaseException as e:
                    done[i] = e
                why = _unpicklable(done[i])
                if why is not None:
                    done[i] = WorkerError(f"{name(items[i])}: a worker process "
                                          f"cannot pickle its outcome: {why}")
        yield done

    try:
        for _ in range(workers):
            children.append(_Child(work))
        results.append(fn(items[0]))
        while len(results) < len(items) and _claim(claimed, len(results)):
            results.append(fn(items[len(results)]))
        sent = {i: got for child in children for done in child
                for i, got in done.items()}
        for i in range(len(results), len(items)):
            got = sent.get(i) or WorkerError(
                f"{name(items[i])}: a worker process died")
            if isinstance(got, BaseException):
                raise got
            results += got
        return results
    finally:
        claimed[:] = [1] * len(items)  # workers skip what nobody started
        for child in children:
            child.close()


def _received(child):
    for sent in child:
        if sent is None:
            return
        if isinstance(sent, WorkerError):
            raise sent
        yield sent
    raise WorkerError("a worker process died")


class ReadAhead:
    """One child at a time, making the arrays of the last start call.

    close() ends the child and waits for it. Call it on every way out
    (try/finally): a reader that stops early leaves the child waiting
    on the pipe.
    """

    _child = None

    def start(self, blocks):
        """An iterator over the arrays of the generator blocks; closes
        the child of an earlier start.

        An exception in the child is raised here as a WorkerError with
        its message, and so are a block the child cannot pickle (named
        by its index) and the child's death.
        """
        self.close()
        if cpus() < 2:
            return blocks

        def produce():
            # The child's work: the arrays of blocks and then None, or a
            # WorkerError for the exception that ends them or the first
            # block that cannot be pickled.
            try:
                for k, block in enumerate(blocks):
                    why = _unpicklable(block)
                    if why is not None:
                        yield WorkerError("the read-ahead process cannot "
                                          f"pickle block {k}: {why}")
                        return
                    yield block
                yield None
            except Exception as e:
                yield WorkerError("the read-ahead process raised "
                                  f"{type(e).__name__}: {e}")

        self._child = _Child(produce)
        return _received(self._child)

    def close(self):
        """End the child, if any, and wait for it."""
        if self._child is not None:
            self._child.close()
            self._child = None
