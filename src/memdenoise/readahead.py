"""Arrays made ahead of their reader by a forked child process.

ReadAhead.start(blocks, shapes) forks a child that runs the generator
blocks and writes each float64 array it yields into a pipe; the caller
reads them back in order into one reused buffer. A pipe holds little,
so the child works at most about one array ahead of the reader and the
memory held does not grow with the number of arrays. With one CPU (see
cpus) the generator runs inline instead. Either way the arrays have the
same bits: the child runs the same code on the state it inherits.
"""

import math
import multiprocessing as mp
import os
import signal
import struct

import numpy as np

# Ahead of each array the child writes 0; on an exception, the length
# of its message and then the message.
_HEAD = struct.Struct("<Q")


def cpus():
    """CPUs this process may run on; 1 off Linux, where no fork-safe
    process start is available."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class WorkerError(RuntimeError):
    """The child raised (the message names its exception) or died."""


def _produce(blocks, read_fd, write_fd):
    # The child's loop. It first closes its copy of the read end: once
    # the reader's is closed too (by close(), or by its process dying),
    # the child's next write fails and it ends instead of waiting on a
    # full pipe. An interrupt goes to the reader, which ends the child.
    os.close(read_fd)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        with open(write_fd, "wb") as out:
            try:
                for block in blocks:
                    block = np.ascontiguousarray(block, np.float64)
                    out.write(_HEAD.pack(0))
                    out.write(block)
                    out.flush()
            except Exception as e:
                message = f"{type(e).__name__}: {e}".encode()
                out.write(_HEAD.pack(len(message)) + message)
    except BrokenPipeError:
        pass  # the reader is gone


class ReadAhead:
    """One child at a time, making the arrays of the last start call.

    close() terminates and joins the child. Call it on every way out
    (try/finally): a reader that stops early leaves the child waiting
    on the pipe.
    """

    def __init__(self):
        self._child = self._pipe = None

    def start(self, blocks, shapes):
        """An iterator over the arrays of the generator blocks, of the
        given shapes in turn; closes the child of an earlier start.

        The forked path reuses one buffer, so each array is valid until
        the next is taken. An exception in the child is raised here as a
        WorkerError with its message, and so is the child's death.
        """
        self.close()
        if cpus() < 2:
            return blocks
        read_fd, write_fd = os.pipe()
        self._pipe = open(read_fd, "rb")
        self._child = mp.get_context("fork").Process(
            target=_produce, args=(blocks, read_fd, write_fd),
            daemon=True)
        try:
            self._child.start()
        finally:
            os.close(write_fd)  # the child holds the only writer
        return self._received(shapes)

    def _received(self, shapes):
        buffer = np.empty(max(map(math.prod, shapes), default=0))
        for shape in shapes:
            head = self._pipe.read(_HEAD.size)
            failed = len(head) == _HEAD.size and _HEAD.unpack(head)[0]
            if failed:
                message = self._pipe.read(failed).decode(errors="replace")
                raise WorkerError(f"the read-ahead process raised {message}")
            block = buffer[:math.prod(shape)].reshape(shape)
            if (len(head) < _HEAD.size or self._pipe.readinto(
                    block.reshape(-1).view(np.uint8)) < block.nbytes):
                raise WorkerError("a worker process died")
            yield block

    def close(self):
        """Terminate the child, if any, and wait for it to end."""
        if self._child is not None:
            if self._child.pid is not None:  # it was started
                self._child.terminate()
                self._child.join()
            self._pipe.close()
            self._child = self._pipe = None
