import pytest

from tiltbench import matrices, modules
from tiltbench.matrices import PreparedSolver
from tiltbench.modules import FpModule, FpMorphism


def constructions(monkeypatch, cls):
    """count(call, *args): the instances of cls that call constructs."""
    built = []
    real_init = cls.__init__

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(cls, "__init__", counting_init)

    def count(call, *args):
        built.clear()
        result = call(*args)
        assert result is not None
        return len(built)

    return count


@pytest.fixture
def solvers_built(monkeypatch):
    """solvers_built(call, *args): the PreparedSolvers that call builds."""
    return constructions(monkeypatch, PreparedSolver)


@pytest.fixture
def morphisms_built(monkeypatch):
    """morphisms_built(call, *args): the FpMorphisms that call constructs,
    each with its witness check."""
    return constructions(monkeypatch, FpMorphism)


@pytest.fixture
def modules_built(monkeypatch):
    """modules_built(call, *args): the FpModules that call constructs."""
    return constructions(monkeypatch, FpModule)


@pytest.fixture
def snf_runs(monkeypatch):
    """snf_runs(call, *args): the diagonalisations that call runs, one per
    ``_SNFWorker``, which is built to run once."""
    return constructions(monkeypatch, matrices._SNFWorker)


@pytest.fixture
def module_constructions(monkeypatch):
    """module_constructions(call, *args): the names, in call order, of the
    modules.factor, kernel, cokernel and span_quotient calls that call
    makes; a kernel is one span_quotient besides."""
    names = []
    for name in ("factor", "kernel", "cokernel", "span_quotient"):
        def counting(*args, _name=name, _real=getattr(modules, name)):
            names.append(_name)
            return _real(*args)

        monkeypatch.setattr(modules, name, counting)

    def called(call, *args):
        names.clear()
        call(*args)
        return list(names)

    return called
