"""Focused tests for Kernel.first_of and related coordination helpers."""

import inspect
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import CancelledError
from repro.sim import Kernel


class TestFirstOf:
    def test_returns_winner_index(self):
        kernel = Kernel()

        async def fast():
            await kernel.sleep(1.0)
            return "fast"

        async def slow():
            await kernel.sleep(5.0)
            return "slow"

        async def main():
            return await kernel.first_of(slow(), fast())

        assert kernel.run_until_complete(main()) == 1

    def test_losers_cancelled_on_win(self):
        kernel = Kernel()
        cancelled = []

        async def loser():
            try:
                await kernel.sleep(100.0)
            except CancelledError:
                cancelled.append(True)
                raise

        async def winner():
            await kernel.sleep(1.0)

        async def main():
            await kernel.first_of(loser(), winner())
            await kernel.sleep(1.0)

        kernel.run_until_complete(main())
        assert cancelled == [True]

    def test_timeout_returns_minus_one(self):
        kernel = Kernel()

        async def never():
            await kernel.create_future()

        async def main():
            return await kernel.first_of(never(), timeout=2.0)

        assert kernel.run_until_complete(main()) == -1
        assert kernel.now == 2.0

    def test_timeout_cancels_by_default(self):
        kernel = Kernel()
        task_holder = []

        async def pending():
            await kernel.sleep(100.0)

        async def main():
            task = kernel.create_task(pending())
            task_holder.append(task)
            await kernel.first_of(task, timeout=1.0)
            await kernel.sleep(0.5)
            return task.cancelled()

        assert kernel.run_until_complete(main())

    def test_cancel_on_timeout_false_preserves_task(self):
        kernel = Kernel()

        async def pending():
            await kernel.sleep(5.0)
            return "survived"

        async def main():
            task = kernel.create_task(pending())
            result = await kernel.first_of(
                task, timeout=1.0, cancel_on_timeout=False
            )
            assert result == -1
            assert not task.done()
            return await task

        assert kernel.run_until_complete(main()) == "survived"

    def test_polling_loop_pattern(self):
        """The bounded-variant _abortable pattern: poll a long task."""
        kernel = Kernel()

        async def long_task():
            await kernel.sleep(10.0)
            return 42

        async def main():
            task = kernel.create_task(long_task())
            polls = 0
            while not task.done():
                await kernel.first_of(
                    task, timeout=3.0, cancel_on_timeout=False
                )
                polls += 1
            return task.result(), polls

        result, polls = kernel.run_until_complete(main())
        assert result == 42
        assert polls == 4  # 3, 6, 9, then completion at 10

    def test_caller_cancel_cancels_children(self):
        """A caller cancelled mid-wait leaves no child waiting on."""
        kernel = Kernel()
        event = kernel.create_event()
        cancelled = []

        async def child():
            try:
                await event.wait()
            except CancelledError:
                cancelled.append(True)
                raise

        async def caller():
            await kernel.first_of(child(), kernel.sleep(100.0), timeout=50.0)

        async def main():
            task = kernel.create_task(caller())
            await kernel.sleep(1.0)
            task.cancel()
            await kernel.sleep(1.0)
            return task.cancelled()

        assert kernel.run_until_complete(main())
        assert cancelled == [True]

    def test_winner_exception_propagates(self):
        kernel = Kernel()

        async def boom():
            await kernel.sleep(0.5)
            raise ValueError("exploded")

        async def main():
            await kernel.first_of(boom(), kernel.sleep(100.0))

        with pytest.raises(ValueError, match="exploded"):
            kernel.run_until_complete(main())

    def test_immediate_winner(self):
        kernel = Kernel()
        future = kernel.create_future()
        future.set_result("done")

        async def main():
            return await kernel.first_of(future, kernel.sleep(100.0))

        assert kernel.run_until_complete(main()) == 0


@pytest.mark.parametrize("helper", ["wait_for", "first_of"])
def test_closing_the_awaiter_closes_an_unstarted_inner_coroutine(helper):
    """A run that ends with a task in ``wait_for``/``first_of`` leaks nothing.

    The helper wraps a coroutine argument in a task whose first step is
    queued; if the run ends there, the coroutine never starts, and the
    garbage collector would report it "never awaited".  Closing the
    awaiting coroutine (what dropping its task does) closes it too.
    """
    kernel = Kernel()

    async def inner_body():
        await kernel.sleep(1.0)

    inner = inner_body()

    async def outer():
        if helper == "wait_for":
            await kernel.wait_for(inner, timeout=10.0)
        else:
            await kernel.first_of(inner, timeout=10.0)

    awaiter = outer()
    kernel.create_task(awaiter)
    kernel.run(max_events=1)  # the awaiter's first step queues inner's
    assert inspect.getcoroutinestate(inner) == inspect.CORO_CREATED
    awaiter.close()
    assert inspect.getcoroutinestate(inner) == inspect.CORO_CLOSED


@pytest.mark.parametrize("seed", [179, 181])
def test_sharded_ss_always_fuzz_leaves_no_coroutine_unawaited(seed):
    """Both seeds once ended with a ``broadcast_until`` in ``wait_for``."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "repro", "fuzz", "--shards", "2",
         "--algorithm", "ss-always", "--seed-start", str(seed),
         "--seeds", "1", "--budget", "60", "--no-shrink"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert "was never awaited" not in result.stderr, result.stderr
