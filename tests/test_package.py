import ast
from pathlib import Path

import focklab

SOURCES = Path(focklab.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def used_names(node):
    """Names the code under ``node`` reads, attributes it takes and names
    it imports."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def test_every_public_definition_is_reached():
    # a definition is reached from the CLI's entry point, from a module's
    # top-level statements other than imports, from the acceptance battery
    # and from every definition reached; a public function or class reached
    # from none of these serves only the unit tests
    definitions, reached = {}, {"main"}
    reached |= used_names(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(
                    (path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= used_names(node)
    frontier = reached & definitions.keys()
    while frontier:
        found = set()
        for name in frontier:
            for _, node in definitions[name]:
                found |= used_names(node)
        frontier = (found & definitions.keys()) - reached
        reached |= found
    unreached = [f"{module}.{name}" for name, nodes in definitions.items()
                 for module, _ in nodes
                 if not name.startswith("_") and name not in reached]
    assert not unreached, f"reached only from unit tests: {unreached}"
