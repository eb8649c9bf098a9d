import pytest

from rumourlab import lattice


class InlinePool:
    """Stand-in for lattice's ProcessPoolExecutor: runs each task as it is
    submitted and records max_workers and the task count; no process starts."""

    def __init__(self, built, max_workers, mp_context=None):
        self.max_workers = max_workers
        self.tasks = 0
        built.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.tasks += 1
        return InlineFuture(fn(*args))


class InlineFuture:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


@pytest.fixture
def inline_pools(monkeypatch):
    """The InlinePools the trial engine builds, in order, while lattice's pool is faked."""
    built = []
    monkeypatch.setattr(lattice, "ProcessPoolExecutor",
                        lambda *args, **kwargs: InlinePool(built, *args, **kwargs))
    return built
