"""Package-wide guards: the library imports only the standard library, so
``dependencies = []`` stays true, each module imports alone, so no import
cycle hides behind an import order, the package binds no name of its own,
so each module is reached by its own name, importing the CLI stays cheap,
and src/ defines no name that src/ never reads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subsetspace"
# the names that subsetspace/__init__.py once re-exported from its modules
OLD_EXPORTS = """SimplicialSet SimplicialError apply_face compose_degeneracy
enumerate_level load_simplicial_set validate WedgeSpec sphere
subdivided_circle wedge ExpkSpace ResourceCapError build_expk ChainComplex
ChainComplexError HomologyResult SmithResult homology normalized_chains
smith_normal_form space_homology __version__""".split()
# defined in src/ but read only outside it: (module, name) -> its reader
READ_OUTSIDE_SRC = {
    ("simplicial", "SparseIntMatrix.nnz"): "perfbench/tracer.py",
    ("spaces", "sphere"): "the README's s<m> spaces and the tests",
}


def test_src_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert "cli.py" in {p.name for p in paths}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name} imports {module}"


def test_each_module_imports_alone_in_a_fresh_interpreter():
    """Imported first, each module loads the ones it needs without meeting
    one half-initialised: the chain types live in simplicial, and expk and
    homology import them from there, so neither of those two imports the
    other back."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    modules = [f"subsetspace.{p.stem}" for p in sorted(SRC.glob("*.py"))
               if p.stem != "__init__"]
    assert "subsetspace.expk" in modules
    for module in modules:
        proc = subprocess.run([sys.executable, "-S", "-c", f"import {module}"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, (module, proc.stderr)


def test_the_package_binds_no_name_so_subsetspace_homology_is_the_module():
    """``import subsetspace`` loads no submodule and binds none of the
    names the package once re-exported.  So after ``import
    subsetspace.homology``, that attribute is the module, not the function
    ``homology`` it defines."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import subsetspace, sys, types; "
            "print(' '.join(m for m in sys.modules "
            "if m.startswith('subsetspace.'))); "
            f"print(' '.join(n for n in {OLD_EXPORTS!r} "
            "if hasattr(subsetspace, n))); "
            "import subsetspace.homology; "
            "print(isinstance(subsetspace.homology, types.ModuleType))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "", "True"]


def test_cli_import_skips_dataclasses_and_verify():
    """Start-up is most of a short CLI call.  Importing the CLI loads
    neither dataclasses nor the modules it pulls in, nor subsetspace.verify,
    which only verify calls import, nor random, which only verify lemma1
    uses; importing subsetspace.verify loads no random either.  Neither
    import freezes the importer's heap."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "random",
             "subsetspace.verify"}
    for module, allowed in (("subsetspace.cli", set()),
                            ("subsetspace.verify", {"subsetspace.verify"})):
        code = (f"import {module}, gc, sys; print(gc.get_freeze_count()); "
                "print(' '.join(sys.modules))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        frozen, modules = proc.stdout.splitlines()
        assert frozen == "0"  # only cli.run, the process entry, freezes
        loaded = set(modules.split())
        assert module in loaded
        unexpected = (heavy - allowed) & loaded
        assert not unexpected, sorted(unexpected)


def unread_definitions(src: Path) -> list[tuple[str, str]]:
    """(module, name) of each module-level def, class or assigned name, and
    of each non-dunder method, that no module of src reads.  A module-level
    name is read through a Name, an Attribute or an import; a class member
    only through an Attribute."""
    defined, members, names, attrs = [], [], set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, ast.Assign):
                defined += [(path.stem, t.id) for t in node.targets
                            if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                members += [(path.stem, node.name, m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return ([(mod, name) for mod, name in defined
             if name not in names | attrs and not name.startswith("__")]
            + [(mod, f"{cls}.{name}") for mod, cls, name in members
               if name not in attrs])


def test_src_defines_only_what_src_reads():
    """A definition that only tests or tools read is a second route that no
    command takes; the few that outside readers need are listed with the
    reader, and each listed one must still be unread in src/."""
    assert sorted(unread_definitions(SRC)) == sorted(READ_OUTSIDE_SRC)
