"""Every top-level definition under `src/algforge/` is reached by a caller.

The package's callers are the CLI verbs (`cli.main`), the scripts under
`scripts/` and the benchmark under `bench/`.  From them the walk follows
names, not calls:
- the roots are `cli.main`, every name a script imports from `algforge`,
  every `af.<module>.<attr>` a benchmark file reads (also through a local
  bound to `af.<module>`), every `(module, attr)` of `bench/tracer.py`'s
  `TARGETS`, which `Tracer.install` looks up with `getattr`, and every
  name a module-level statement of the package uses (`verify._CHECKS`);
- a reached function or class reaches every top-level name of its module
  that its body mentions, every name it imports from a package module
  (at the top or inside a function) and every `<module>.<attr>` of a
  package module it imports.

A name that a local variable shadows counts as mentioned, so the walk can
only over-approximate.  What stays unreached must be on `PLANNED`, with
the roadmap item whose verb will reach it; anything else is dead code, and
belongs in `tests/oracles.py` if a test still needs it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "algforge"

# The block-diagonal constructions of the paper's second result, and what
# only they use: ROADMAP item 10's `algebra-nonneg` verb will reach them.
PLANNED = {name: "item 10" for name in (
    "algebra.algebra_direct_sum",
    "algebra.centralizer",
    "algebra.generates",
    "certificates.prop_central",
    "certificates.prop_conjugate_of",
    "certificates.prop_covers",
    "certificates.prop_covers_conjugated",
    "certificates.prop_generate_equal",
    "certificates.prop_in_algebra_conjugated",
    "certificates.prop_is_centralizer",
    "constructions._allones_regular_block",
    "constructions._check_summands",
    "constructions.blockwise_rank1_nonneg_covering",
    "constructions.central_eigenvalue_split",
    "constructions.centralizer_covering",
    "constructions.direct_sum_min_nonneg_generators",
    "constructions.direct_sum_nonneg_covering",
    "constructions.positive_single_generator",
    "constructions.predict_padded_conjugation",
    "constructions.scalar_extension_positive_generators",
    "constructions.uniformize_rank1_idempotent",
    "matrices.permutation_matrix",
    "matrices.poly_at",
    "matrices.regular_triangular",
    "spectral.JordanSpec",
)}


def _package_import(node):
    """The package module an import statement reads from ("" for the
    package itself), or None when it imports from elsewhere."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return node.module or ""
        if node.level == 0 and node.module and (
                node.module == "algforge"
                or node.module.startswith("algforge.")):
            return node.module[len("algforge."):]
    return None


class Module:
    """One package module: its top-level definitions, its other top-level
    statements, and what each local name it imports stands for: a
    (module, attr) pair, or a module."""

    def __init__(self, path: Path):
        tree = ast.parse(path.read_text())
        self.defs = {node.name: node for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        self.statements = [node for node in tree.body
                           if not isinstance(node, (ast.FunctionDef,
                                                    ast.AsyncFunctionDef,
                                                    ast.ClassDef))]
        self.names: dict[str, tuple[str, str]] = {}
        self.modules: dict[str, str] = {}
        for node in ast.walk(tree):
            source = _package_import(node)
            if source is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source:
                    self.names[local] = (source, alias.name)
                else:
                    self.modules[local] = alias.name

    def mentions(self, nodes) -> set[tuple[str, str]]:
        """The (module, attr) pairs the given statements name."""
        found = set()
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Name):
                    if node.id in self.names:
                        found.add(self.names[node.id])
                    elif node.id in self.defs:
                        found.add((None, node.id))
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in self.modules):
                    found.add((self.modules[node.value.id], node.attr))
        return found


def package() -> dict[str, Module]:
    return {path.stem: Module(path) for path in sorted(SRC.glob("*.py"))}


def _defining(modules, module: str, name: str):
    """(module, name) of the definition behind a name, following
    re-exports such as `algforge.Mat`; None if there is none."""
    seen = set()
    while module in modules and (module, name) not in seen:
        seen.add((module, name))
        mod = modules[module]
        if name in mod.defs:
            return module, name
        if name not in mod.names:
            return None
        module, name = mod.names[name]
    return None


def _is_af(node) -> bool:
    """`af` or `<anything>.af`: the benchmark's namespace of modules."""
    return ((isinstance(node, ast.Name) and node.id == "af")
            or (isinstance(node, ast.Attribute) and node.attr == "af"))


def bench_reads(modules) -> set[tuple[str, str]]:
    """Every `af.<module>.<attr>` the benchmark files read, also through a
    local bound to `af.<module>`."""
    found = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Attribute)
                    and _is_af(node.value.value)
                    and node.value.attr in modules):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound[target.id] = node.value.attr
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            inner = node.value
            if (isinstance(inner, ast.Attribute) and _is_af(inner.value)
                    and inner.attr in modules):
                found.add((inner.attr, node.attr))
            elif isinstance(inner, ast.Name) and inner.id in bound:
                found.add((bound[inner.id], node.attr))
    return found


def tracer_targets() -> set[tuple[str, str]]:
    """The (module, function or class) pairs of `bench/tracer.py`'s
    `TARGETS`."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    value = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                         for t in node.targets))
    return {(module, cls or attr)
            for module, attr, cls, _ in ast.literal_eval(value)}


def script_imports() -> set[tuple[str, str]]:
    """Every (module, name) a script imports from the package."""
    found = set()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            source = _package_import(node)
            if source:
                found |= {(source, alias.name) for alias in node.names}
    return found


def roots(modules) -> set[tuple[str, str]]:
    found = {("cli", "main")}
    found |= script_imports() | bench_reads(modules) | tracer_targets()
    for name, mod in modules.items():
        if name != "__init__":
            found |= {(m or name, attr)
                      for m, attr in mod.mentions(mod.statements)}
    return found


def reached(modules) -> set[tuple[str, str]]:
    todo = [d for d in (_defining(modules, *r) for r in roots(modules)) if d]
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        mod = modules[module]
        for m, attr in mod.mentions([mod.defs[name]]):
            found = _defining(modules, m or module, attr)
            if found:
                todo.append(found)
    return seen


def test_every_definition_is_reached_or_planned():
    modules = package()
    every = {f"{m}.{name}" for m, mod in modules.items() for name in mod.defs}
    got = {f"{m}.{name}" for m, name in reached(modules)}
    unreached = every - got
    assert unreached - set(PLANNED) == set(), \
        "nothing reaches these: call them from a verb, or move them out"
    assert set(PLANNED) - unreached == set(), \
        "these are reached now: take them off PLANNED"


def test_every_export_is_reached_or_planned():
    modules = package()
    done = reached(modules)
    exports = modules["__init__"].names
    assert exports
    missing = set()
    for name in exports:
        found = _defining(modules, "__init__", name)
        assert found is not None, name
        if found not in done and f"{found[0]}.{found[1]}" not in PLANNED:
            missing.add(name)
    assert missing == set()


def test_the_walk_sees_each_kind_of_root():
    modules = package()
    assert ("constructions", "solve_all_dimensions") in script_imports()
    assert ("spectral", "char_poly") in bench_reads(modules)
    assert ("constructions", "single_generator_nonneg") in bench_reads(
        modules)
    assert ("linear", "solve") in tracer_targets()
    assert ("verify", "_check_nonneg") in reached(modules)
