import pytest

from tiltbench.matrices import PreparedSolver


@pytest.fixture
def solvers_built(monkeypatch):
    """solvers_built(call, *args): the PreparedSolvers that call builds."""
    built = []
    real_init = PreparedSolver.__init__

    def counting_init(self, a):
        built.append(a)
        real_init(self, a)

    monkeypatch.setattr(PreparedSolver, "__init__", counting_init)

    def count(call, *args):
        built.clear()
        result = call(*args)
        assert result is not None
        return len(built)

    return count
