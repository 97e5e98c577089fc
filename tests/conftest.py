import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` for one test and
    returns the list of the first arguments of its calls, in order.  A module
    calls the wrapper wherever it looks the name up in its own globals."""

    def count(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return count
