"""Each derivation constant, the bit packer and the range map live in
one place.

``hashing.py`` owns every multiplier and salt of the hash derivations,
``succinct._pack_bits`` is the only code that packs bits into words and
``hashing.umulhi`` the only code that maps a hash onto a range.  A
second copy elsewhere in ``src/sichash`` could drift from the first and
make scalar and batch paths disagree.  ``_native.c`` holds no
derivation constant: the loader compiles ``hashing.QUERY_CONSTANTS`` into
it as ``SICHASH_<NAME>`` macros, and the macros it reads are exactly the
ones the loader defines.  And every module reads each name it imports.
"""

import ast
import re
from pathlib import Path

from sichash import _native

SRC = Path(__file__).resolve().parent.parent / "src" / "sichash"


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def _derivation_constants() -> dict[int, str]:
    """Module-level private int constants of hashing.py that are wider than
    32 bits: the splitmix multipliers, the seed spreaders and the salts."""
    out = {}
    for node in _tree("hashing.py").body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith("_")
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
            and node.value.value > 0xFFFFFFFF
        ):
            out[node.value.value] = node.targets[0].id
    return out


def _enclosing_functions(tree: ast.Module) -> dict[ast.AST, str]:
    """Each node's innermost enclosing function name ("" at module level)."""
    owner: dict[ast.AST, str] = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else name
            owner[child] = inner
            visit(child, inner)

    visit(tree, "")
    return owner


def test_derivation_constants_found():
    names = set(_derivation_constants().values())
    assert {"_M1", "_M2", "_GOLDEN", "_FOLD", "_CELL_SALT", "_ROW_MULT",
            "_START_SALT", "_COEFF_SALT"} <= names


def test_derivation_constants_only_in_hashing():
    constants = _derivation_constants()
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "hashing.py":
            continue
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.Constant) and type(node.value) is int:
                if node.value in constants:
                    found.append(f"{path.name}:{node.lineno} {constants[node.value]}")
    assert found == []


def _hex_literals(c_source: str) -> set[int]:
    """Values of the hex integer literals in C source, any case, with or
    without a ``ULL`` suffix."""
    return {int(h, 16) for h in re.findall(r"\b0x([0-9a-f]+)(?:ull)?\b", c_source, re.I)}


def test_hex_literal_scan():
    assert _hex_literals("x = 0xBF58476D1CE4E5B9ULL; y = 0x94d049bb133111eb;") == {
        0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
    }


def test_derivation_constants_not_in_native_source():
    constants = _derivation_constants()
    literals = _hex_literals((SRC / "_native.c").read_text())
    # the master hash's constants are among those the scan looks for
    assert {"_LANE_A", "_LANE_B"} <= set(constants.values())
    assert sorted(constants[v] for v in literals & constants.keys()) == []


def _threshold_compares(c_source: str) -> list[str]:
    """The top-level functions of C source, one entry per line, in which a
    value is compared with ``t1`` or ``t2`` (a plain name or a member),
    comments left out.  A function starts at a line ``static ... name(``
    and ends at a line that starts with ``}``."""
    code = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group().count("\n"), c_source, flags=re.S)
    found, name = [], ""
    for line in code.splitlines():
        head = re.match(r"static\b[^(=]*?\b(\w+)\(", line)
        if head:
            name = head.group(1)
        elif line.startswith("}"):
            name = ""
        if re.search(r"(?<!-)[<>]=?\s*(?:\w+->)?t[12]\b|\bt[12]\s*[<>]", line):
            found.append(name)
    return found


def test_threshold_compare_scan():
    # a member access, p->t1, is not a comparison
    source = (
        "/* lo < t1, in a comment */\nstatic int f(uint64_t x)\n{\n"
        "    return x < p->t2 ? p->t1 : 0;\n}\nint y = t1 >= 3;\n"
        "static void h(plan *p)\n{\n    parse(&p->t1, &p->t2);\n}\n"
        "static inline int g(uint64_t y)\n{\n    return (y >= t1) + (y >= t2);\n}\n"
    )
    assert _threshold_compares(source) == ["f", "", "g"]


def test_class_derivation_once_in_native_source():
    # a low half's class is hashing.class_of, which _native.c writes once,
    # in its own class_of, for the partition and the query plan alike
    assert _threshold_compares((SRC / "_native.c").read_text()) == ["class_of"]


def test_native_macros_are_the_loaders():
    used = set(re.findall(r"\bSICHASH_[A-Z0-9_]+", (SRC / "_native.c").read_text()))
    defined = {flag[2:].split("=")[0] for flag in _native._command(Path("lib.so"))
               if flag.startswith("-DSICHASH_")}
    assert used and used == defined


def test_one_bit_packer():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name, inner = node.attr, getattr(node.value, "attr", None)
            elif isinstance(node, ast.Name):
                name, inner = node.id, None
            else:
                continue
            is_or_at = (inner, name) == ("bitwise_or", "at")
            is_packbits = name == "packbits"
            if is_or_at or (
                is_packbits and (path.name, owner[node]) != ("succinct.py", "_pack_bits")
            ):
                found.append(f"{path.name}:{node.lineno} in {owner[node] or 'module'}")
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    """Names that a module's top-level imports bind and its code never
    reads; ``__future__`` imports bind none."""
    tree = _tree(path.name)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_import_is_used():
    # a name kept only for a tool outside the package (say, one that patches
    # it) is dead code to every reader of the module; __init__.py re-exports
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            found += _unused_imports(path)
    assert found == []


ROOT = SRC.parent.parent


def _names_read(paths) -> set[str]:
    """Every ``Name``, ``Attribute`` and string constant in the files: how a
    definition is called, patched by name or exported in ``__all__``."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_definition_is_named():
    # a function, method, property or class that nothing in the package,
    # its scripts or the benchmark names is a branch nothing calls; tests
    # do not count, since a test of dead code keeps it alive by itself
    users = [*SRC.glob("*.py"), *(ROOT / "scripts").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.py")]
    named = _names_read(p for p in users if not p.name.startswith("test_"))
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in named:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


def _range_maps(tree: ast.Module) -> list[ast.BinOp]:
    """Every ``(a * b) >> 64``: a multiply's high word, written inline."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.RShift)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Mult)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 64
    ]


def test_range_map_scan():
    tree = ast.parse("a = (x * m) >> 64\nb = (x * m) >> 32\nc = x >> 64\n")
    assert [node.lineno for node in _range_maps(tree)] == [1]


def test_one_range_map():
    # the hash-to-range map is hashing.umulhi, for ints and arrays alike
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        owner = _enclosing_functions(tree)
        for node in _range_maps(tree):
            if (path.name, owner[node]) != ("hashing.py", "umulhi"):
                found.append(f"{path.name}:{node.lineno} in {owner[node] or 'module'}")
    assert found == []
