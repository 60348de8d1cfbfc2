"""Streams of two chunks or more, shared between this process and one forked child.

`p3dk.cipher._write_in_order` imports this module only for such a stream, so
`import p3dk` and one-chunk calls never load it.  `run` forks one child,
which keeps the key schedule it inherited, so nothing is pickled.  The
calling process reads the chunks in order and writes every chunk in stream
order from a reorder buffer: at most AHEAD chunks have been read and not yet
written, the ones at the child included.  It sends chunk i to the child when
the child has fewer than QUEUE jobs unanswered and i is neither the stream's
last chunk nor the last AHEAD allows, and computes every other chunk itself.
After each chunk it collects the child's replies without waiting for them;
it waits only when AHEAD chunks are out and the oldest is at the child.
Which process computes a chunk thus varies with load, but the output does not,
nor do the errors: an error from this process's own work, from a chunk the
child failed on (sent back and computed again here) or from a read is raised
only at its chunk's turn to be written, as on one process.  Both processes
read their pipe through `p3dk.cipher._read_up_to`, the package's one
short-read loop.
"""

import os
import select

from .cipher import _read_up_to

QUEUE = 2  # chunks sent to the child and not yet answered
# Chunks read and not yet written, the ones at the child included.  Five let
# this process take four chunks for every two of a slow child, and hold at
# most five chunks of output, under 120 KB.
AHEAD = 5

# A job is a chunk index and the chunk's input; a reply is a status byte and
# the output, or the input back if the child failed on it.  Each is at most
# 23,808 bytes (a chunk of container bytes) plus its framing, so QUEUE of each
# fit a pipe this large and neither process ever waits for room in one, which
# could leave each waiting for the other.  A test checks these sums.
_PIPE_BYTES = 65536
# What either process raises when the other ends mid-stream: an OSError, so
# the CLI reports it as an I/O failure.
_ENDED = "the worker process ended before a whole message"


def _may_fork() -> bool:
    """Fork, two CPUs and no other thread (a fork can copy a held lock)."""
    if not hasattr(os, "fork"):
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):  # CPUs or threads cannot be counted here
        return False


def _send(fd: int, head: bytes, data: bytes) -> None:
    """Write `head`, the length of `data` and `data` to a pipe; BrokenPipeError if its reader has gone."""
    try:
        for part in (head + len(data).to_bytes(4, "big"), data):
            view = memoryview(part)
            while view:
                view = view[os.write(fd, view) :]
    except BrokenPipeError:
        raise BrokenPipeError(_ENDED) from None


def _receive(src, head_bytes: int) -> tuple[bytearray, bytearray]:
    """The head and the data of the next message _send wrote; BrokenPipeError if the pipe closes first.

    `src` is unbuffered, so no byte of a later message waits where poll cannot see it.
    """
    head = _read_up_to(src, head_bytes + 4)
    size = int.from_bytes(head[head_bytes:], "big")
    data = _read_up_to(src, size)
    if len(head) < head_bytes + 4 or len(data) < size:
        raise BrokenPipeError(_ENDED)
    return head[:head_bytes], data


def run(nchunks: int, read, work, write) -> bool:
    """write(work(i, read(i))) for i in range(nchunks), nchunks >= 2, in order, on two processes.

    Returns False, having called none of the three, when no child can be made
    here (see _may_fork) or the pipes are smaller than _PIPE_BYTES; the caller
    then runs every chunk itself.  Closing the pipes ends the child within one
    chunk, and it is reaped before this returns or raises.
    """
    fds, pid = (), None
    try:
        if _may_fork():
            import fcntl

            fds = os.pipe()
            fds += os.pipe()
            if min(fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) for fd in fds) >= _PIPE_BYTES:
                pid = os.fork()
    except OSError:
        pass
    if pid is None:
        for fd in fds:
            os.close(fd)
        return False
    jobs_r, jobs_w, results_r, results_w = fds
    os.close(jobs_w if pid == 0 else jobs_r)
    os.close(results_r if pid == 0 else results_w)
    if pid == 0:
        # The child ends in os._exit, when the parent closes the jobs pipe and
        # _receive raises: unwinding into the caller's frames could flush or
        # remove the caller's files.  Frozen, its collector finalizes none of
        # the parent's objects.
        try:
            import gc

            gc.freeze()
            jobs = open(jobs_r, "rb", buffering=0, closefd=False)
            while True:
                head, data = _receive(jobs, 8)
                i = int.from_bytes(head, "big")
                try:
                    status, out = b"=", work(i, data)
                except Exception:  # sent back, for the parent to compute again and raise
                    status, out = b"!", data
                _send(results_w, status, out)
        finally:
            os._exit(0)
    try:
        results = open(results_r, "rb", buffering=0, closefd=False)
        _dispatch(nchunks, read, work, write, jobs_w, results)
    finally:
        os.close(jobs_w)
        os.close(results_r)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # the caller ignores SIGCHLD or reaps in its handler
            pass
    return True


def _dispatch(nchunks: int, read, work, write, jobs: int, results) -> None:
    """The parent's side of run: read, hand out, compute and write in stream order."""
    ready = {}  # the reorder buffer: chunk index -> its output, or the error to raise at its turn
    sent = []  # the index of each chunk at the child, oldest first
    nwritten = 0

    def compute(i: int, data: bytes) -> None:
        try:
            ready[i] = work(i, data)
        except Exception as exc:
            ready[i] = exc

    replies = select.poll()  # poll, not select: a descriptor number may exceed FD_SETSIZE
    replies.register(results, select.POLLIN)

    def collect(timeout) -> None:
        """Take every finished reply, waiting up to `timeout` ms (None: no limit) for the first.

        Then write every chunk whose turn has come, or raise its error.
        """
        nonlocal nwritten
        while sent and replies.poll(timeout):
            status, out = _receive(results, 1)
            i = sent.pop(0)
            if status == b"=":
                ready[i] = out
            else:  # `out` is the input the child failed on
                compute(i, out)
            timeout = 0
        while nwritten in ready:  # popped into write, so no name holds a written chunk
            if isinstance(ready[nwritten], Exception):
                raise ready.pop(nwritten)
            write(ready.pop(nwritten))
            nwritten += 1

    for i in range(nchunks):
        while i - nwritten >= AHEAD:  # the child holds chunk nwritten
            collect(None)
        try:
            data = read(i)
        except Exception as exc:  # raised at its turn, after the chunks before it
            ready[i] = exc
            break
        if len(sent) < QUEUE and i < nchunks - 1 and i - nwritten < AHEAD - 1:
            _send(jobs, i.to_bytes(8, "big"), data)
            sent.append(i)
        else:
            compute(i, data)
        del data  # so no name holds the input of a chunk the child has
        collect(0)
    while nwritten < nchunks:
        collect(None)
