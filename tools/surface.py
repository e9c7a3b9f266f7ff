"""Count the package's lines, CLI options, defaulted parameters and dataclass fields.

    python3 tools/surface.py --src src

Reads the `sortdist` package under the `--src` directory, so two source
trees can be compared, and prints one JSON object with five counts:

- `src_lines`: the lines of each `sortdist/*.py` file and their total;
- `cli_options`: the arguments of each subcommand of `build_parser()`,
  positionals included and `-h` not, and their total;
- `defaulted_params`: the parameters with a default value of every function
  or method whose name has no leading underscore, by qualified name, and
  their total;
- `dataclass_fields`: the annotated fields of every `@dataclass` whose name
  has no leading underscore (its init fields, since the package declares no
  `ClassVar` or `init=False` field), by qualified name, and their total.
  Each field is a value that a caller sets, like a parameter;
- `public_names`: the length of the `__all__` of each module and of the
  package (`__init__.py`), and the number of distinct names over all of
  them, so a public name removed from a module and from the package counts
  once in the total.

Equal surfaces are one `diff` of the two printed objects.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path


def src_lines(pkg: Path) -> dict:
    files = {f.name: len(f.read_text().splitlines()) for f in sorted(pkg.glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def cli_options(src: Path) -> dict:
    sys.path.insert(0, str(src.resolve()))
    from sortdist.cli import build_parser

    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    counts = {
        name: sum(not isinstance(a, argparse._HelpAction) for a in parser._actions)
        for name, parser in sub.choices.items()
    }
    return {"subcommands": counts, "total": sum(counts.values())}


def defaulted_params(pkg: Path) -> dict:
    counts: dict[str, int] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and not child.name.startswith("_"):
                    args = child.args
                    n = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                    if n:
                        counts[name] = n
                visit(child, name)
            else:
                visit(child, prefix)

    for f in sorted(pkg.glob("*.py")):
        visit(ast.parse(f.read_text()), f.stem)
    return {"functions": counts, "total": sum(counts.values())}


def dataclass_fields(pkg: Path) -> dict:
    counts: dict[str, int] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
                is_dataclass = any(ast.unparse(d).startswith("dataclass") for d in child.decorator_list)
                if is_dataclass and not child.name.startswith("_"):
                    counts[name] = sum(
                        isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        for stmt in child.body
                    )
                visit(child, name)

    for f in sorted(pkg.glob("*.py")):
        visit(ast.parse(f.read_text()), f.stem)
    return {"classes": counts, "total": sum(counts.values())}


def public_names(pkg: Path) -> dict:
    names: dict[str, list[str]] = {}
    for f in sorted(pkg.glob("*.py")):
        for stmt in ast.parse(f.read_text()).body:
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
                names[f.stem] = ast.literal_eval(stmt.value)
    package = names.pop("__init__", [])
    return {
        "modules": {name: len(v) for name, v in names.items()},
        "package": len(package),
        "total": len(set(package).union(*names.values())),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="directory that holds sortdist/")
    args = parser.parse_args(argv)
    pkg = args.src / "sortdist"
    report = {
        "src_lines": src_lines(pkg),
        "cli_options": cli_options(args.src),
        "defaulted_params": defaulted_params(pkg),
        "dataclass_fields": dataclass_fields(pkg),
        "public_names": public_names(pkg),
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
