"""Import boundaries and language level of the package.

It is stdlib-only: it declares no runtime dependency, so every module it
imports, other than its own, must ship with Python. A sentence is
canonicalized once, where it is read: the parsers hold prompts, gold
translations and candidates in canonical form, so the methods decode and
compare canonical strings, the scorer compares them, and neither calls
``normalize`` or ``textproc.sentence_tokens``. Every source
file, tests included, parses as Python 3.10, the oldest version README
supports. No module binds a name at top level that it never reads, and
test-only API stays under tests/: every public function, class, method and
property of the package is read by the package or traced by the benchmark.
No function changes module-level state, apart from two memos of pure
functions, so no result depends on what ran before it in the process. Builtin
``sum`` totals ints only, so no float total depends on the Python version."""

from __future__ import annotations

import ast
import sys
import textwrap
from pathlib import Path

import pytest

import stapleforge
from test_benchmark_fit import tracer_module

PACKAGE_DIR = Path(stapleforge.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one source file."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = list(PACKAGE_DIR.glob("*.py"))
    assert sources
    imported = {name: path.name for path in sources for name in absolute_imports(path)}
    assert imported
    outside = {name: where for name, where in imported.items()
               if name not in sys.stdlib_module_names}
    assert outside == {}


def names_used(path: Path) -> set[str]:
    """Every name a source file imports, reads or reaches as an attribute."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", ["methods.py", "metrics.py"])
def test_methods_and_metrics_never_normalize(module):
    """Neither calls ``normalize``, by itself or through
    ``textproc.sentence_tokens``."""
    assert names_used(PACKAGE_DIR / module) & {"normalize", "sentence_tokens"} == set()


@pytest.mark.parametrize(
    "path",
    [*sorted(PACKAGE_DIR.glob("*.py")), *sorted(TESTS_DIR.glob("*.py"))],
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_source_parses_as_python_3_10(path):
    """This checks syntax only (``ast.parse`` with ``feature_version``): a
    stdlib function or module added after 3.10 still passes."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def unread_top_level_names(path: Path) -> set[str]:
    """The names a module imports, or assigns as lower-case names, at top
    level and never loads; dunders, ``__future__`` features and UPPER_CASE
    constants are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name) and name.id.islower())
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name for name in bound - loaded
            if not (name.startswith("__") and name.endswith("__")) and not name.isupper()}


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.name)
def test_every_top_level_name_is_read(path):
    """An import or a module-level variable left behind by a deletion, such
    as a logger no function logs to, fails here."""
    assert unread_top_level_names(path) == set()


def public_definitions(path: Path) -> set[str]:
    """The public functions and classes a module defines at top level, and
    the public methods and properties of its classes, as ``Class.method``."""
    names: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return names


def test_every_public_definition_is_read_by_the_package():
    """A name only tests read, such as a convenience property or
    constructor, belongs in tests/; one the tracer wraps is kept."""
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    read = set().union(*(names_used(path) for path in sources))
    traced = {*tracer_module.SPANS, *tracer_module.LEAVES}
    unread = {f"{path.stem}.{name}" for path in sources for name in public_definitions(path)
              if name.split(".")[-1] not in read and f"{path.stem}.{name}" not in traced}
    assert unread == set()


def calls_by_owner(path: Path, names: set[str]) -> set[tuple[str, str]]:
    """``(callee, owner)`` for each call in one source file of a name in
    ``names``, by itself or as an attribute; the owner is the top-level
    function or ``Class.method`` holding the call, or the module itself."""
    found: set[tuple[str, str]] = set()
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(top, ast.ClassDef):
            owners = [(f"{top.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                       else top.name, item) for item in top.body]
        else:
            owners = [(top.name if isinstance(top, ast.FunctionDef) else None, top)]
        for owner, node in owners:
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee in names:
                    found.add((callee, ".".join(filter(None, (path.stem, owner)))))
    return found


def test_one_path_from_a_model_argument_to_decode_nbest():
    """A model is opened by ``cli.Run.model`` (a library caller uses
    ``load_series``), and every decode request goes through
    ``methods.Decoder.sentences``, which alone builds a ``DecodeParams``;
    a second loading or decoding wrapper fails here."""
    names = {"decode_nbest", "DecodeParams", "read_index"}
    calls = set().union(*(calls_by_owner(path, names) for path in PACKAGE_DIR.glob("*.py")))
    assert calls == {
        ("decode_nbest", "methods.Decoder.sentences"),
        ("DecodeParams", "methods.Decoder.sentences"),
        ("read_index", "cli.Run.model"),
        ("read_index", "translator.load_series"),
    }


MUTATORS = {"update", "pop", "clear", "setdefault", "add", "append"}
# two memos of pure functions of their keys, so what is in them never changes
# a result: a word's model-word check and its interned string, and a code
# point's punctuation test
MODULE_MEMOS = {"translator._WORDS", "corpus._DROP_PUNCT"}


def mutated_object(node: ast.AST) -> ast.expr | None:
    """What ``node`` changes, if it assigns or deletes an item of an object
    or calls a mutating method (``MUTATORS``) of it."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in MUTATORS:
        return node.func.value
    return None


def changes_itself(cls: ast.ClassDef) -> bool:
    """Whether a method of ``cls`` changes its own instance, as a ``dict``
    subclass whose ``__missing__`` stores the value it computes does."""
    return any(
        isinstance(target, ast.Name) and target.id == method.args.args[0].arg
        for method in cls.body if isinstance(method, ast.FunctionDef) and method.args.args
        for target in map(mutated_object, ast.walk(method))
    )


def module_state_mutated(path: Path) -> set[str]:
    """The module-level names that a function of the module assigns or
    deletes an item of, or calls a mutating method of (``MUTATORS``), where
    the function does not bind the name itself, and those bound to an
    instance of a class of the module whose methods change their instance."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assigns = [(node.targets if isinstance(node, ast.Assign) else [node.target], node.value)
               for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))]
    top = {name.id for targets, _ in assigns for target in targets
           for name in ast.walk(target) if isinstance(name, ast.Name)}
    changing = {cls.name for cls in tree.body
                if isinstance(cls, ast.ClassDef) and changes_itself(cls)}
    mutated = {f"{path.stem}.{name.id}" for targets, value in assigns
               if isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
               and value.func.id in changing
               for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes = list(ast.walk(function))
        local = {arg.arg for node in nodes if isinstance(node, ast.arguments)
                 for arg in (*node.posonlyargs, *node.args, *node.kwonlyargs,
                             *filter(None, (node.vararg, node.kwarg)))}
        local |= {node.id for node in nodes
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        local -= {name for node in nodes if isinstance(node, ast.Global) for name in node.names}
        for target in map(mutated_object, nodes):
            if isinstance(target, ast.Name) and target.id in top - local:
                mutated.add(f"{path.stem}.{target.id}")
    return mutated


def test_no_function_changes_module_state():
    """A process-wide cache, such as the LM memo that once made a command's
    reads depend on the commands before it, fails here: what a call shares
    with later calls belongs to an object its caller holds."""
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert set().union(*(module_state_mutated(path) for path in sources)) == MODULE_MEMOS


def test_module_state_changed_through_self_is_found(tmp_path):
    """An instance at module level that grows through its own methods, as
    ``corpus._DROP_PUNCT`` does, is module state, which no function's own
    code shows; an instance whose methods only read it is not."""
    planted = tmp_path / "planted.py"
    planted.write_text(textwrap.dedent("""
        class _Memo(dict):
            def __missing__(self, key):
                self[key] = key
                return key

        class _Log(list):
            def note(me, item):
                me.append(item)

        class _Reader(dict):
            def twice(self, key, other):
                other[key] = self.get(key)
                return other

        _MEMO: _Memo = _Memo()
        _LOG = _Log()
        _READER = _Reader()
    """), encoding="utf-8")
    assert module_state_mutated(planted) == {"planted._MEMO", "planted._LOG"}


def test_builtin_sum_totals_only_ints():
    """Builtin ``sum`` of floats compensates its rounding since Python 3.12,
    so its float totals change with the version; the package totals floats
    with ``corpus.ordered_sum``, and the one ``sum`` left counts LM events."""
    callers = {f"{path.stem}.{func.name}"
               for path in PACKAGE_DIR.glob("*.py")
               for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "sum"}
    assert callers == {"translator.build_bigram_lm"}
