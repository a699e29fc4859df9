#!/usr/bin/env python3
"""Best-effort doc-coverage check for the public headers and the file map.

Flags public declarations (types, functions, enum values, members,
constants) in src/ headers that lack a Doxygen comment (`///` above or
`///<` trailing). This is a cheap local approximation of the CI `docs`
target (Doxygen with WARN_IF_UNDOCUMENTED + warnings-as-errors), usable
in containers without a doxygen binary.

Without arguments it also checks DESIGN.md's §2 file map against src/:
every file a §2 bullet names must exist, and every src/**/*.{hpp,cpp}
must be named by one.

Usage: tools/check_docs.py [header...]   (defaults to all src/*/*.hpp
plus the file map)
Exit 1 when any undocumented declaration or file-map mismatch is found.
"""

import re
import sys
from pathlib import Path

ACCESS = re.compile(r"^\s*(public|private|protected)\s*:")
TYPE_DECL = re.compile(
    r"^\s*(?:template\s*<[^;{]*>\s*)?(class|struct|enum class|enum)\s+"
    r"(?:\[\[[^\]]*\]\]\s*)?([A-Za-z_]\w*)")
FUNC_DECL = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|constexpr\s+|"
    r"explicit\s+|virtual\s+|inline\s+|friend\s+)*"
    r"[A-Za-z_~][\w:<>,\s*&]*[\s*&]\s*[~A-Za-z_][\w]*\s*\(")
NS_CONSTANT = re.compile(r"^\s*(?:inline\s+|constexpr\s+|\[\[nodiscard\]\]\s*)+")
TEMPLATE_HEADER = re.compile(r"^\s*template\s*<")
# Statement keywords: a line starting with one of these is a function-body
# statement, never a declaration worth documenting.
STATEMENT = re.compile(
    r"^\s*(return|if|else|for|while|do|switch|case|break|continue|throw|"
    r"assert|co_return|co_await|delete|goto)\b")


def check(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    problems = []
    # Track access level per brace depth: structs start public, classes
    # private. Heuristic: a stack of [depth, is_public].
    stack = []
    depth = 0
    pending_kind = None  # 'class' | 'struct' awaiting its '{'
    fn_bodies = []  # brace depths at which a function body was opened
    documented = False
    for idx, raw in enumerate(lines):
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped:
            documented = False
            continue
        if stripped.startswith("///"):
            documented = True
            continue
        if stripped.startswith("//") or stripped.startswith("#"):
            continue
        # A bare `template <...>` header line: the doc comment above it
        # belongs to the declaration on the next line.
        if TEMPLATE_HEADER.match(stripped) and "(" not in stripped \
                and "{" not in stripped:
            continue
        m = ACCESS.match(line)
        if m:
            if stack:
                stack[-1][1] = m.group(1) == "public"
            continue

        in_function = bool(fn_bodies)
        in_public = all(s[1] for s in stack)
        dm = TYPE_DECL.match(line)
        # A forward declaration (`class X;`) needs no doc; the defining
        # declaration does.
        if dm and stripped.endswith(";") and "{" not in stripped:
            dm = None
        is_decl = False
        if in_function or STATEMENT.match(stripped):
            pass  # statements inside a function body are never declarations
        elif dm:
            is_decl = True
        elif in_public and stack and FUNC_DECL.match(line):
            is_decl = True
        elif in_public and not stack and NS_CONSTANT.match(line):
            is_decl = True

        if is_decl and in_public and not documented and "///<" not in line:
            what = dm.group(2) if dm else stripped[:60]
            problems.append(f"{path}:{idx + 1}: undocumented: {what}")

        # Maintain scope stack; braces not opened by a class/struct/enum/
        # namespace are function (or initializer) bodies whose contents we
        # skip.
        is_namespace = stripped.startswith("namespace") or \
            stripped.startswith("extern \"C\"")
        for ch in stripped:
            if ch == "{":
                depth += 1
                if dm and dm.group(1) in ("class", "struct") or pending_kind:
                    k = dm.group(1) if dm else pending_kind
                    stack.append([depth, k != "class"])
                    pending_kind = None
                    dm = None
                elif not dm and not is_namespace:
                    fn_bodies.append(depth)
            elif ch == "}":
                if fn_bodies and fn_bodies[-1] == depth:
                    fn_bodies.pop()
                if stack and stack[-1][0] == depth:
                    stack.pop()
                depth -= 1
        if dm and dm.group(1) in ("class", "struct") and "{" not in stripped \
                and not stripped.endswith(";"):
            pending_kind = dm.group(1)
        documented = False
    return problems


MAP_DIR = re.compile(r"^### `src/([\w/]+)`")
MAP_NAME = re.compile(r"`([^`]+)`")


def file_map_problems(design: str, src: Path) -> list[str]:
    """Mismatches between DESIGN.md's §2 file map and the files in `src`.

    §2 lists files per `### `src/<dir>`` heading, one bullet per module:
    the backticked names before the bullet's " — " are file names in that
    directory, and `name.{hpp,cpp}` stands for both files.
    """
    problems = []
    listed = set()
    in_map = False
    directory = None
    for line in design.splitlines():
        if line.startswith("## "):
            in_map = line.startswith("## 2.")
            continue
        m = MAP_DIR.match(line)
        if in_map and m:
            directory = m.group(1)
            continue
        if not in_map or directory is None or not line.startswith("- "):
            continue
        for name in MAP_NAME.findall(line[2:].split(" — ", 1)[0]):
            stem, _, ext = name.partition(".")
            exts = ext[1:-1].split(",") if ext.startswith("{") else [ext]
            for e in exts:
                rel = f"{directory}/{stem}.{e}"
                listed.add(rel)
                if not (src / rel).is_file():
                    problems.append(
                        f"DESIGN.md §2 names src/{rel}, which does not exist")
    for path in sorted(src.rglob("*.[hc]pp")):
        rel = path.relative_to(src).as_posix()
        if rel not in listed:
            problems.append(f"src/{rel} is missing from DESIGN.md §2")
    return problems


def main() -> int:
    args = sys.argv[1:]
    root = Path(__file__).resolve().parent.parent
    paths = ([Path(a) for a in args] if args
             else sorted((root / "src").glob("*/*.hpp")))
    total = 0
    for p in paths:
        for msg in check(p):
            print(msg)
            total += 1
    print(f"check_docs: {total} undocumented declaration(s) "
          f"in {len(paths)} header(s)")
    if args:
        return 1 if total else 0
    map_problems = file_map_problems((root / "DESIGN.md").read_text(),
                                     root / "src")
    for msg in map_problems:
        print(msg)
    print(f"check_docs: {len(map_problems)} file-map mismatch(es) "
          f"in DESIGN.md §2")
    return 1 if total or map_problems else 0


if __name__ == "__main__":
    sys.exit(main())
