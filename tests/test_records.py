"""The package's record types, what importing the package loads and what
it exports."""

import ast
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fockweyl
from fockweyl.reports import CaseResult
from fockweyl.verify import RunConfig
from fockweyl.weights import Weight


def test_import_loads_no_dataclasses_or_inspect():
    # -S: no site hooks, so only the package's own imports count
    src = str(Path(fockweyl.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import fockweyl, fockweyl.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout == "[]\n"


def _read_names(path, strings=False):
    """The names a file reads: each Name, Attribute and import alias, or
    (strings=True) each dotted part of a string constant that is not a
    docstring."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if strings:
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                names.update(node.value.split("."))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unread_exports(root):
    """The names `fockweyl/__init__.py` under root imports that no module
    of the package, no script and no benchmark string reads."""
    package = root / "src" / "fockweyl"
    init = package / "__init__.py"
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for path in [*package.glob("*.py"), *(root / "scripts").glob("*.py")]:
        if path != init:
            read |= _read_names(path)
    for path in (root / "fwlbench").glob("*.py"):
        read |= _read_names(path, strings=True)
    return exported - read


def test_every_export_is_read_outside_the_tests():
    # a public name that only the tests call is surface to keep for nothing
    assert unread_exports(Path(__file__).resolve().parents[1]) == set()


class TestWeight:
    def test_equality_and_hash(self):
        w = Weight((1, -1))
        assert w == Weight([1, -1]) == Weight(coords=(True, -1))
        assert type(Weight([1, -1]).coords) is tuple
        assert w != Weight((1, 0)) and w != Weight((1, -1, 0))
        assert w != (1, -1)
        assert hash(w) == hash(((1, -1),))
        assert len({w, Weight((1, -1)), Weight((0, 0))}) == 2

    def test_assignment_refused(self):
        w = Weight((1, 0))
        with pytest.raises(AttributeError):
            w.coords = (0, 1)
        with pytest.raises(AttributeError):
            w.other = 1
        with pytest.raises(AttributeError):
            del w.coords
        assert w.coords == (1, 0)

    def test_repr(self):
        assert repr(Weight((2, 0, -2))) == "Weight(coords=(2, 0, -2))"
        assert repr(Weight(())) == "Weight(coords=())"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        w = Weight((3, -1, -2))
        back = pickle.loads(pickle.dumps(w, protocol))
        assert type(back) is Weight and back == w
        assert hash(back) == hash(w)

    def test_copy_round_trip(self):
        w = Weight((0, 2, -2))
        for back in (copy.copy(w), copy.deepcopy(w)):
            assert type(back) is Weight and back == w


class TestRunConfig:
    def test_defaults_and_positions(self):
        cfg = RunConfig()
        assert (cfg.ell, cfg.n_rank, cfg.max_size, cfg.tolerance, cfg.jobs) \
            == (2, None, 4, "signed", 1)
        cfg = RunConfig(3, 4, 5, "unit", 2)
        assert (cfg.ell, cfg.n_rank, cfg.max_size, cfg.tolerance, cfg.jobs) \
            == (3, 4, 5, "unit", 2)

    @pytest.mark.parametrize("kwargs, message", [
        ({"ell": 1}, "ell must be >= 2"),
        ({"n_rank": 1}, "rank must be >= 2"),
        ({"max_size": -1}, "max_size must be >= 0"),
        ({"tolerance": "loose"}, "unknown tolerance mode 'loose'"),
        ({"jobs": 0}, "jobs must be >= 1"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            RunConfig(**kwargs)
        assert str(exc.value) == message

    def test_equality(self):
        assert RunConfig() == RunConfig(2, None, 4, "signed", 1)
        assert RunConfig(ell=3, jobs=2) == RunConfig(jobs=2, ell=3)
        for other in (RunConfig(ell=3), RunConfig(n_rank=2),
                      RunConfig(max_size=5), RunConfig(tolerance="unit"),
                      RunConfig(jobs=2)):
            assert RunConfig() != other
        assert RunConfig() != (2, None, 4, "signed", 1)


class TestCaseResult:
    def test_default_detail_not_shared(self):
        a, b = CaseResult("a", True), CaseResult("b", False)
        assert a.detail == {} and a.detail is not b.detail
        a.detail["x"] = 1
        assert b.detail == {} and CaseResult("c", True).detail == {}

    def test_fields(self):
        c = CaseResult("f/1", False, {"why": "x"})
        assert (c.case_id, c.passed, c.detail) == ("f/1", False, {"why": "x"})
        assert c.to_json() == {"case": "f/1", "passed": False,
                               "detail": {"why": "x"}}
