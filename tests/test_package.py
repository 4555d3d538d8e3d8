import ast
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import blochlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(blochlab.__path__))
TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", ["blochlab"] + [f"blochlab.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _noqa_imports(path, module):
    """(module, name) for each name an import marked ``# noqa: F401`` binds."""
    source = path.read_text()
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            yield from ((module, alias.asname or alias.name) for alias in node.names)


def test_every_unused_import_is_one_the_benchmark_tracer_patches():
    spec = importlib.util.spec_from_file_location("_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patched = {(module, attr) for module, attr, _ in tracing.PATCHES}
    pinned = set()
    for path in sorted(pathlib.Path(blochlab.__file__).parent.glob("*.py")):
        module = "blochlab" if path.stem == "__init__" else f"blochlab.{path.stem}"
        pinned.update(_noqa_imports(path, module))
    assert pinned, "no tracer-pinned import found"
    assert sorted(pinned - patched) == []


def test_only_the_two_monte_carlo_draws_seed_a_generator():
    # every norm, fit and certificate is deterministic without a seed; a
    # default_rng anywhere else would be a sampler growing back
    owners = set()
    for path in sorted(pathlib.Path(blochlab.__file__).parent.glob("*.py")):
        source = path.read_text()
        defs = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)]
        for lineno, line in enumerate(source.splitlines(), 1):
            if "default_rng" in line:
                names = [n.name for n in defs if n.lineno <= lineno <= n.end_lineno]
                owners.add(f"{path.stem}.{names[-1] if names else '<module>'}")
    assert owners == {"numerics.sample_torus", "cli._cmd_inner_quotient"}


def _calls_isinstance_with(tree, name):
    """Whether any isinstance call in ``tree`` names ``name`` in its second argument."""
    return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
               and any(getattr(n, "id", None) == name for n in ast.walk(node.args[1]))
               for node in ast.walk(tree))


def test_one_polynomial_class_serves_every_number_of_variables():
    from blochlab import expressions
    tree = ast.parse(pathlib.Path(expressions.__file__).read_text())
    classes = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
    assert [c for c in classes if c.startswith("Polynomial")] == ["PolynomialND"]
    assert expressions.Polynomial1D is expressions.PolynomialND
    for path in sorted(pathlib.Path(blochlab.__file__).parent.glob("*.py")):
        assert not _calls_isinstance_with(ast.parse(path.read_text()), "Polynomial1D"), path.name
