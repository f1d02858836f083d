#!/usr/bin/env python3
"""Check that every library function is reached by a CLI or kept on purpose.

Usage: check_reach.py BUILD_DIR ALLOWLIST

BUILD_DIR must hold libbitfusion.a, bitfusion_sweep and bitfusion_serve
from a build that keeps one section per function and lets the linker
drop the unreferenced ones, at -O0 so that nothing is inlined away:

  cmake -B build-reach -S . -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-reach --target bitfusion_sweep bitfusion_serve

The check takes the strong text symbols (nm type T) of the library in
namespace bitfusion, mangled ^_ZN[KVRO]*9bitfusion, and drops those
that either CLI still defines after --gc-sections. What is left is
library code that no CLI path runs. Each such symbol must be covered
by an ALLOWLIST line

  PREFIX | CATEGORY | JUSTIFICATION

where PREFIX is matched against the start of the demangled name, with
every "bitfusion::" removed, "[abi:cxx11]" removed and std::string
written as such. CATEGORY is one of oracle, isa, seam and bench.
Lines starting with '#' are comments.

Fails (exit 1) on an unreached symbol that no line covers, and on a
line that covers no unreached symbol, so that a stale line cannot hide
a later deletion. Exits 2 on bad arguments or a build made without
the flags above, whose result would mean nothing: without
--gc-sections every function reads as reached, and an optimized build
inlines functions the CLIs do call.

Virtual functions escape the check: a vtable keeps each override
reachable whoever calls it. Stdlib only, plus binutils' nm and c++filt.
"""

import re
import subprocess
import sys
from pathlib import Path

CATEGORIES = {"oracle", "isa", "seam", "bench"}
CLIS = ("bitfusion_sweep", "bitfusion_serve")
LIBRARY = "libbitfusion.a"
OURS = re.compile(r"^_ZN[KVRO]*9bitfusion")
REQUIRED_FLAGS = {
    "CMAKE_CXX_FLAGS": ("-O0", "-ffunction-sections"),
    "CMAKE_EXE_LINKER_FLAGS": ("--gc-sections",),
}
STRING = ("std::__cxx11::basic_string<char, std::char_traits<char>, "
          "std::allocator<char> >")


def fail_usage(message: str) -> None:
    print(f"check_reach: {message}", file=sys.stderr)
    sys.exit(2)


def check_flags(build: Path) -> None:
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        fail_usage(f"{cache} not found; configure BUILD_DIR with cmake")
    values = {}
    for line in cache.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key.split(":")[0]] = value
    for key, flags in REQUIRED_FLAGS.items():
        missing = [f for f in flags if f not in values.get(key, "")]
        if missing:
            fail_usage(f"{key} lacks {' '.join(missing)}; configure as "
                       "this script's docstring shows")


def defined_symbols(path: Path, types: str) -> set:
    out = subprocess.run(["nm", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    symbols = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in types:
            symbols.add(parts[2])
    return symbols


def readable(mangled: list) -> list:
    out = subprocess.run(["c++filt"], input="\n".join(mangled) + "\n",
                         check=True, capture_output=True, text=True).stdout
    names = []
    for name in out.splitlines():
        name = name.replace(STRING, "std::string")
        name = name.replace("[abi:cxx11]", "")
        names.append(name.replace("bitfusion::", ""))
    return names


def load_allowlist(path: Path) -> list:
    entries = []
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 3 or not all(fields):
            fail_usage(f"{path}:{lineno}: want PREFIX | CATEGORY | "
                       "JUSTIFICATION")
        if fields[1] not in CATEGORIES:
            fail_usage(f"{path}:{lineno}: category '{fields[1]}' is not "
                       f"one of {', '.join(sorted(CATEGORIES))}")
        entries.append((lineno, fields[0], fields[1]))
    return entries


def main(argv: list) -> int:
    if len(argv) != 3:
        fail_usage("usage: check_reach.py BUILD_DIR ALLOWLIST")
    build, allowlist = Path(argv[1]), Path(argv[2])
    check_flags(build)
    entries = load_allowlist(allowlist)

    library = {s for s in defined_symbols(build / LIBRARY, "T")
               if OURS.match(s)}
    reached = set()
    for cli in CLIS:
        reached |= defined_symbols(build / cli, "TtWw")
    unreached = sorted(library - reached)
    names = sorted(set(readable(unreached)))

    errors = []
    used = set()
    for name in names:
        covering = [e for e in entries if name.startswith(e[1])]
        if not covering:
            errors.append(f"unreached and not allowlisted: {name}")
        used.update(e[0] for e in covering)
    for lineno, prefix, _ in entries:
        if lineno not in used:
            errors.append(f"{allowlist}:{lineno}: stale entry '{prefix}' "
                          "covers no unreached symbol")

    print(f"check_reach: {len(library)} library symbols, "
          f"{len(unreached)} reached by neither CLI, "
          f"{len(entries)} allowlist entries")
    for error in errors:
        print(f"check_reach: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
