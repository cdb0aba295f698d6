"""Dead-surface guard: ``src/fairdiv`` defines only what the program uses.

Every top-level function and class, and every method, defined in
``src/fairdiv`` must be referenced from code the program runs: any code in
``perfbench/`` (its tests aside), module-level code in ``src/fairdiv``, or
the body of another definition there that is itself in use.
``__init__.py`` re-exports do not count, nor does a definition's reference
to itself.  A reference is a name, an attribute or a string constant equal
to the definition's name, so any other use of that identifier (a method of
another class, a local variable) keeps it alive: the guard can miss dead
code but never reports code that is used.

A second check forbids ``global`` statements in ``src/fairdiv``: many
``cli.main`` calls can share one interpreter, and module-level state would
leak from one call into the next.  A third keeps ``OnlineAllocator.observe``
the only per-good path in ``algorithms.py``, and its ``_validate`` the one
column check, a fourth keeps the integer
form of the rows (``lcm``) inside ``core.py``, a fifth keeps ``str()``
off the numbers ``cli.py`` writes, a sixth lets only ``core._reading``
and ``cli._write`` open a file, a seventh fails on a CLI flag that no
command reads, an eighth keeps every ``Instance(`` call inside
``core.py``, a ninth keeps every read of an instance's pair rows
(``._rows``) there too, and a tenth lets only ``OnlineAllocator.observe``
call ``_place``, so no rule hands a good to a second rule with a second
state.  An eleventh keeps ``algorithms.run`` out of ``adversaries.py``, so
every construction streams its schedule through ``run_adaptive``, and a
twelfth keeps ``format_rational`` out of ``cli.py``, so the text of a
rational is decided in ``core``, and a thirteenth keeps the texts of the
one cell check, ``core._pair``, in ``core.py``, so no module copies it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Names kept without a caller, each with the reason.
ALLOWED = {
    "error": "argparse calls the parser's error override",
}


def _references(node):
    """Every identifier that ``node`` mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _units(tree):
    """(name, defining node, qualified name) for each checked definition, and
    the module-level statements; a class's own body (fields, decorators,
    dunders) goes with the class."""
    defs, roots = [], []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((stmt.name, stmt, stmt.name))
        elif isinstance(stmt, ast.ClassDef):
            body = []
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    defs.append((item.name, item, f"{stmt.name}.{item.name}"))
                else:
                    body.append(item)
            own = ast.Module(body=stmt.decorator_list + stmt.bases + body, type_ignores=[])
            defs.append((stmt.name, own, stmt.name))
        else:
            roots.append(stmt)
    return defs, roots


def unused_definitions():
    defs, live_refs = [], set()
    for path in sorted((ROOT / "src" / "fairdiv").glob("*.py")):
        if path.name == "__init__.py":
            continue
        file_defs, roots = _units(ast.parse(path.read_text(encoding="utf-8")))
        defs += [(name, node, f"{path.stem}.{qualname}") for name, node, qualname in file_defs]
        live_refs.update(ref for stmt in roots for ref in _references(stmt))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        live_refs.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    live_refs.update(ALLOWED)
    dead = defs
    # a definition is live once live code refers to it
    while live := [d for d in dead if d[0] in live_refs]:
        dead = [d for d in dead if d[0] not in live_refs]
        for name, node, _ in live:
            live_refs.update(ref for ref in _references(node) if ref != name)
    return sorted(label for _, _, label in dead)


def test_every_definition_in_src_is_used():
    unused = unused_definitions()
    assert not unused, "defined in src/fairdiv but never used: " + ", ".join(unused)


def test_src_rebinds_no_module_level_state():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "fairdiv").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert not found, "global statement in src/fairdiv: " + ", ".join(found)


def test_only_the_base_allocator_defines_observe():
    """``OnlineAllocator.observe`` (validate, then ``_place``) is the one
    per-good path, and ``OnlineAllocator._validate`` the one column check,
    whose per-agent caps are a rule's data; a subclass may bind one of the
    three in its body (for per-class tracing) but not write its own."""
    tree = ast.parse((ROOT / "src" / "fairdiv" / "algorithms.py").read_text(encoding="utf-8"))
    found = [
        f"{cls.name}.{item.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name != "OnlineAllocator"
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name in ("observe", "_place", "_validate")
    ]
    assert not found, "observe, _place or _validate defined outside OnlineAllocator: " + ", ".join(found)


def test_only_observe_places_a_good():
    """A good is placed once, by the rule that took it: ``OnlineAllocator.observe``
    is the one caller of ``_place`` in ``src/fairdiv``, so no rule delegates
    to a second rule that keeps a second state over the same goods."""
    found = [
        f"{path.name}:{node.lineno} in {top.name}.{fn.name}"
        for path in sorted((ROOT / "src" / "fairdiv").glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for fn in ast.walk(top)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_place"
        and (path.name, getattr(top, "name", None), fn.name) != ("algorithms.py", "OnlineAllocator", "observe")
    ]
    assert not found, "._place( called outside OnlineAllocator.observe: " + ", ".join(found)


def test_only_core_takes_an_lcm():
    """Rows are scaled to integers once, by ``Instance.scaled``; every other
    module reads that form instead of taking an lcm of its own."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "fairdiv").glob("*.py"))
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "lcm" in (getattr(node, "id", None), getattr(node, "attr", None))
        or isinstance(node, ast.alias) and node.name == "lcm"
    ]
    assert not found, "lcm outside core.py: " + ", ".join(found)


def test_only_the_two_io_functions_open_files():
    """Every input is read by ``core._reading`` and every output written by
    ``cli._write``, so each decides encoding, newlines and error text once."""
    allowed = {("core.py", "_reading"), ("cli.py", "_write")}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "fairdiv").glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if (path.name, getattr(top, "name", None)) not in allowed
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, "open() outside core._reading and cli._write: " + ", ".join(found)


def test_cli_writes_numbers_through_format_rational():
    """``str()`` of a rational past Python's int-to-str digit limit raises a
    bare ``ValueError``; ``core._dumps`` writes it through ``format_rational``
    instead.  So ``cli.py`` calls ``str()`` only on a caught exception."""
    tree = ast.parse((ROOT / "src" / "fairdiv" / "cli.py").read_text(encoding="utf-8"))
    caught = {node.name for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)}
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "str"
        and not (len(node.args) == 1 and isinstance(node.args[0], ast.Name)
                 and node.args[0].id in caught)
    ]
    assert not found, "str() on a value in cli.py: " + ", ".join(found)


def test_every_cli_flag_is_read():
    """Each ``add_argument`` in ``cli.py`` has its dest read as ``args.<dest>``,
    so an option that no command uses cannot stay in the parser."""
    tree = ast.parse((ROOT / "src" / "fairdiv" / "cli.py").read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    flags = [
        (next((k.value.value for k in node.keywords if k.arg == "dest"), None)
         or node.args[0].value.lstrip("-").replace("-", "_"), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
    ]
    assert flags, "no add_argument call found in cli.py"
    unread = [f"cli.py:{line} ({dest})" for dest, line in flags if dest not in read]
    assert not unread, "flags never read as args.<dest>: " + ", ".join(unread)


def test_only_core_calls_instance():
    """``Instance(rows)`` checks only the shape: a cell is checked where
    it enters, by ``instance_from_rows`` or ``load_instance``.  So nothing in
    ``src/``, ``tests/`` or ``perfbench/`` outside ``core.py`` calls it."""
    core = ROOT / "src" / "fairdiv" / "core.py"
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != core
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and any("Instance" in (getattr(sub, "id", None), getattr(sub, "attr", None))
                for sub in ast.walk(node.func))
    ]
    assert not found, "Instance( called outside core.py: " + ", ".join(found)


def test_only_core_reads_the_pair_rows():
    """``Instance._rows`` holds each cell as its reduced pair (p, q); outside
    ``core.py`` the program reads ``values`` or ``scaled`` instead, so the
    form can change in one file.  ``tests/test_core.py`` may read it, to pin
    that form."""
    allowed = {ROOT / "src" / "fairdiv" / "core.py", ROOT / "tests" / "test_core.py"}
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path not in allowed
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_rows"
    ]
    assert not found, "._rows read outside core.py: " + ", ".join(found)


def test_every_construction_goes_through_run_adaptive():
    """A construction is a schedule that ``run_adaptive`` streams into its
    rule: ``adversaries.py`` neither imports a ``run`` nor calls one, so no
    construction keeps a second, fixed-instance path."""
    tree = ast.parse((ROOT / "src" / "fairdiv" / "adversaries.py").read_text(encoding="utf-8"))
    found = [
        f"adversaries.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.alias) and node.name == "run"
        or isinstance(node, ast.Call) and "run" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, "algorithms.run used in adversaries.py: " + ", ".join(found)


def test_cli_leaves_the_text_of_a_rational_to_the_writer():
    """``cli.py`` hands Fractions, Decimals and infinity to ``core._dumps`` as
    they are: it neither imports nor calls ``format_rational``, so the text of
    a rational is decided in ``core`` alone."""
    tree = ast.parse((ROOT / "src" / "fairdiv" / "cli.py").read_text(encoding="utf-8"))
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.alias) and node.name == "format_rational"
        or "format_rational" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
    assert not found, "format_rational in cli.py: " + ", ".join(found)


def test_only_core_checks_a_cell():
    """``core._pair`` is the one cell check, for ``instance_from_rows`` and
    ``OnlineAllocator._validate`` alike: its two refusal texts appear in
    ``src/fairdiv`` once each, both in ``core.py``."""
    found = {
        text: [path.name for path in sorted((ROOT / "src" / "fairdiv").glob("*.py"))
               for _ in range(path.read_text(encoding="utf-8").count(text))]
        for text in ("non-exact valuation", "negative valuation")
    }
    assert found == {"non-exact valuation": ["core.py"], "negative valuation": ["core.py"]}, found
