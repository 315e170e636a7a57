"""Unit tests for the asyncio kernel adapter."""

import asyncio

import pytest

from repro.runtime.asyncio_kernel import AsyncioEvent, AsyncioGate, AsyncioKernel


def run(coro):
    return asyncio.run(coro)


class TestAsyncioKernelPrimitives:
    def test_sleep_scales_time(self):
        async def main():
            kernel = AsyncioKernel(time_scale=0.001)
            loop = asyncio.get_event_loop()
            start = loop.time()
            await kernel.sleep(10.0)  # 10 units * 1ms = 10ms
            return loop.time() - start

        elapsed = run(main())
        assert 0.005 <= elapsed <= 0.5

    def test_now_in_simulated_units(self):
        async def main():
            kernel = AsyncioKernel(time_scale=0.001)
            before = kernel.now
            await kernel.sleep(5.0)
            return kernel.now - before

        delta = run(main())
        assert delta >= 4.0

    def test_call_later_and_soon(self):
        async def main():
            kernel = AsyncioKernel(time_scale=0.001)
            order = []
            kernel.call_later(5.0, order.append, "later")
            kernel.call_soon(order.append, "soon")
            await kernel.sleep(10.0)
            return order

        assert run(main()) == ["soon", "later"]

    def test_call_at(self):
        async def main():
            kernel = AsyncioKernel(time_scale=0.001)
            fired = []
            kernel.call_at(kernel.now + 3.0, fired.append, True)
            await kernel.sleep(6.0)
            return fired

        assert run(main()) == [True]

    def test_future_and_task(self):
        async def main():
            kernel = AsyncioKernel()
            future = kernel.create_future()
            future.set_result(5)

            async def job():
                return await future

            task = kernel.create_task(job(), name="job")
            return await task

        assert run(main()) == 5

    def test_gather(self):
        async def main():
            kernel = AsyncioKernel(time_scale=0.001)

            async def value(v):
                await kernel.sleep(1.0)
                return v

            return await kernel.gather([value(1), value(2)])

        assert run(main()) == [1, 2]

    def test_wait_for_timeout(self):
        async def main():
            kernel = AsyncioKernel(time_scale=0.001)
            with pytest.raises(TimeoutError):
                await kernel.wait_for(kernel.sleep(100.0), timeout=2.0)

        run(main())

    def test_first_of_winner(self):
        async def main():
            kernel = AsyncioKernel(time_scale=0.001)

            async def fast():
                await kernel.sleep(1.0)

            async def slow():
                await kernel.sleep(50.0)

            return await kernel.first_of(slow(), fast())

        assert run(main()) == 1

    def test_first_of_timeout_preserves_task(self):
        async def main():
            kernel = AsyncioKernel(time_scale=0.001)

            async def slow():
                await kernel.sleep(5.0)
                return "alive"

            task = kernel.create_task(slow())
            index = await kernel.first_of(
                task, timeout=1.0, cancel_on_timeout=False
            )
            assert index == -1
            assert not task.done()
            return await task

        assert run(main()) == "alive"

    def test_first_of_timeout_cancels_by_default(self):
        async def main():
            kernel = AsyncioKernel(time_scale=0.001)

            async def slow():
                await kernel.sleep(50.0)

            task = kernel.create_task(slow())
            index = await kernel.first_of(task, timeout=1.0)
            assert index == -1
            await asyncio.sleep(0.01)
            return task.cancelled()

        assert run(main())

    def test_first_of_caller_cancel_cancels_children(self):
        async def main():
            kernel = AsyncioKernel(time_scale=0.001)
            event = kernel.create_event()
            cancelled = []

            async def child():
                try:
                    await event.wait()
                except asyncio.CancelledError:
                    cancelled.append(True)
                    raise

            caller = kernel.create_task(
                kernel.first_of(child(), kernel.sleep(100.0), timeout=50.0)
            )
            await asyncio.sleep(0.01)
            caller.cancel()
            with pytest.raises(asyncio.CancelledError):
                await caller
            await asyncio.sleep(0.01)
            return list(cancelled)  # asyncio.run cancels leftovers later

        assert run(main()) == [True]


class TestAsyncioEventAndGate:
    def test_event_set_wait_clear(self):
        async def main():
            event = AsyncioEvent()
            assert not event.is_set()
            event.set()
            await event.wait()
            assert event.is_set()
            event.clear()
            assert not event.is_set()

        run(main())

    def test_gate_blocks_and_opens(self):
        async def main():
            gate = AsyncioGate()
            gate.close()
            assert not gate.is_open
            passed = []

            async def walker():
                await gate.passthrough()
                passed.append(True)

            task = asyncio.get_event_loop().create_task(walker())
            await asyncio.sleep(0.01)
            assert passed == []
            gate.open()
            await task
            return passed

        assert run(main()) == [True]

    def test_gate_initially_closed(self):
        gate = AsyncioGate(open_=False)
        assert not gate.is_open
