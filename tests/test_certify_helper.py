"""The certificate helper process: a certificate fanned out to it has the
bytes of one computed in a single process, whatever happens to the helper."""

from __future__ import annotations

import hashlib
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import rsvp.signature
from conftest import atlas
from rsvp.generators import complete, cycle, graph_from_spec
from rsvp.graphs import Graph, Permutation, permute
from rsvp.oracle import _orbits
from rsvp.signature import certificate
from test_signature import CERTIFICATE_SHA256

SRC = str(Path(__file__).resolve().parent.parent / "src")


def serial(g: Graph):
    """The certificate as one process computes it, with no helper."""
    saved = rsvp.signature._HELPER_WORK
    rsvp.signature._HELPER_WORK = float("inf")
    try:
        return certificate(g)
    finally:
        rsvp.signature._HELPER_WORK = saved


@pytest.fixture
def fan_out(monkeypatch):
    """Every certificate with two or more orbit roots uses the helper, on a
    host with any number of CPUs; returns the roots of each share the helper
    answered, and the roots this process computed lines for, one list per
    call."""
    answered: list[list[int]] = []
    computed: list[list[int]] = []
    receive, lines = rsvp.signature._receive, rsvp.signature._lines

    def receiving(roots):
        got = receive(roots)
        if got is not None:
            answered.append(roots)
        return got

    def computing(g, roots, *memos):
        computed.append(list(roots))
        return lines(g, roots, *memos)

    monkeypatch.setattr(rsvp.signature, "_HELPER_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(rsvp.signature, "_receive", receiving)
    monkeypatch.setattr(rsvp.signature, "_lines", computing)
    return answered, computed


def helper_pid() -> int:
    assert rsvp.signature._helper is not None
    return rsvp.signature._helper[0]


def reaped(pid: int) -> bool:
    """True once ``pid``, a child of this process, has been waited for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextmanager
def deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"no certificate within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_the_halves_are_disjoint_and_the_bytes_serial_on_the_atlas(fan_out):
    answered, computed = fan_out
    shared = 0
    for n in range(8):
        for g in atlas(n):
            expected = serial(g).lines
            answered.clear()
            computed.clear()
            assert certificate(g).lines == expected
            roots = [v for v, root in enumerate(_orbits(g)) if root == v]
            if len(roots) < 2:
                assert answered == []
                continue
            [share] = answered
            mine = computed[0]
            assert computed == [mine]  # the helper's share is not computed again
            assert share and not set(share) & set(mine)
            assert sorted(share + mine) == roots
            shared += 1
    assert shared > 1000


@pytest.mark.parametrize("spec, digest", CERTIFICATE_SHA256)
def test_fanned_out_certificates_keep_their_pinned_bytes(fan_out, spec, digest):
    answered, _ = fan_out
    g = graph_from_spec(spec)
    twin = permute(g, Permutation.random(g.n, random.Random(5)))
    for graph in (g, twin):
        text = certificate(graph).serialize()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    roots = sum(1 for v, root in enumerate(_orbits(twin)) if root == v)
    if roots > 1:
        assert answered and all(answered)


@pytest.mark.parametrize("g", [Graph(0), Graph(1), cycle(9), complete(5)],
                         ids=["n=0", "n=1", "cycle:9", "complete:5"])
def test_no_fork_without_a_second_root(fan_out, monkeypatch, g):
    def refuse():
        raise AssertionError("forked a helper")

    monkeypatch.setattr(os, "fork", refuse)
    assert certificate(g) == serial(g)
    assert rsvp.signature._helper is None


def test_no_fork_on_one_cpu(fan_out, monkeypatch):
    g = graph_from_spec("random_gnm:30:90:1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert certificate(g) == serial(g)
    assert rsvp.signature._helper is None
    # where the affinity call is missing, the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert certificate(g) == serial(g)
    assert rsvp.signature._helper is None
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert certificate(g) == serial(g)
    assert rsvp.signature._helper is not None


def test_no_fork_while_a_second_thread_runs(fan_out):
    g = graph_from_spec("random_gnm:30:90:1")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert certificate(g) == serial(g)
        assert rsvp.signature._helper is None
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert certificate(g) == serial(g)
    assert rsvp.signature._helper is not None


def test_a_killed_helper_is_replaced(fan_out):
    answered, _ = fan_out
    g = graph_from_spec("random_gnm:40:120:1")
    expected = serial(g)
    assert certificate(g) == expected
    pid = helper_pid()
    os.kill(pid, signal.SIGKILL)
    with deadline(20):
        assert certificate(g) == expected
    assert reaped(pid)
    answered.clear()
    assert certificate(g) == expected
    assert answered and helper_pid() != pid


def test_an_interrupted_certificate_leaves_no_reply_behind(fan_out, monkeypatch):
    g = graph_from_spec("random_gnm:40:120:1")
    h = graph_from_spec("random_gnm:40:120:2")
    expected = serial(h)
    assert certificate(h) == expected
    pid = helper_pid()
    lines = rsvp.signature._lines

    def interrupted(*args):
        raise KeyboardInterrupt

    # between the request and its reply, this process computes its own half
    monkeypatch.setattr(rsvp.signature, "_lines", interrupted)
    with pytest.raises(KeyboardInterrupt):
        certificate(g)
    assert rsvp.signature._helper is None and reaped(pid)
    monkeypatch.setattr(rsvp.signature, "_lines", lines)
    assert certificate(h) == expected


def test_a_reply_to_other_roots_is_not_read_as_the_answer(fan_out):
    answered, _ = fan_out
    g = graph_from_spec("random_gnm:40:120:1")
    other = graph_from_spec("random_gnm:40:120:2")
    expected = serial(g)
    assert certificate(g) == expected
    pid = helper_pid()
    # a request whose reply nobody read, queued ahead of the next one
    assert rsvp.signature._send(other.bits, list(range(1, 40, 3)))
    answered.clear()
    assert certificate(g) == expected
    assert answered == [] and reaped(pid)


_RUN_CERTIFY = """
import atexit, os, runpy, sys
import rsvp.signature as signature

hooks, spec = sys.argv[1:]
os.sched_getaffinity = lambda pid: {0, 1}  # a helper even where one CPU is allowed
# every process that runs this process's exit hooks writes its pid
atexit.register(lambda: open(hooks, "a").write(f"{os.getpid()}\\n"))
fork = signature._fork_helper

def recording():
    fork()
    print(f"helper {signature._helper[0]} of {os.getpid()}", file=sys.stderr, flush=True)

signature._fork_helper = recording
sys.stdout.write("before\\n")  # in this process's stdout buffer at the fork
if spec == "abandon":
    signature._HELPER_WORK = 0
    signature.certificate(signature.Graph(4, [(0, 1), (1, 2), (2, 3)]))
    sys.stdout.flush()
    os._exit(0)  # runs no exit hooks: the helper reads end-of-file and must leave
sys.argv = ["rsvp", "certify", spec]
runpy.run_module("rsvp", run_name="__main__", alter_sys=True)
"""


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=120, check=True)


def forked(done: subprocess.CompletedProcess) -> tuple[int, int]:
    """(helper pid, its parent's pid), as the script printed them."""
    [(pid, parent)] = [(int(line.split()[1]), int(line.split()[3]))
                       for line in done.stderr.decode().splitlines() if line.startswith("helper ")]
    return pid, parent


def gone(pid: int) -> bool:
    """True once ``pid`` has exited: no such process, or a zombie."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return True
    return "\nState:\tZ" in status


needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc")


@needs_proc
def test_cli_certify_output_is_serial_and_leaves_no_process(tmp_path):
    spec = "gen:random_gnm:40:120:1"
    g = graph_from_spec(spec[4:])
    roots = sum(1 for v, root in enumerate(_orbits(g)) if root == v)
    assert roots * (g.n + 2 * g.m) >= rsvp.signature._HELPER_WORK
    expected = serial(g).serialize().encode("utf-8")
    assert run_python("-m", "rsvp", "certify", spec).stdout == expected
    hooks = tmp_path / "exit-hooks"
    done = run_python("-c", _RUN_CERTIFY, str(hooks), spec)
    assert done.stdout == b"before\n" + expected
    pid, parent = forked(done)
    assert gone(pid)
    # the exit hooks ran once, in the process that ran certify
    assert hooks.read_text().split() == [str(parent)]


@needs_proc
def test_an_abandoned_helper_leaves_without_running_exit_hooks(tmp_path):
    hooks = tmp_path / "exit-hooks"
    done = run_python("-c", _RUN_CERTIFY, str(hooks), "abandon")
    assert done.stdout == b"before\n"
    pid, _ = forked(done)
    stop = time.monotonic() + 20
    while not gone(pid) and time.monotonic() < stop:
        time.sleep(0.05)
    assert gone(pid)
    assert not hooks.exists()
