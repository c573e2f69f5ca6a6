#!/usr/bin/env python3
"""Apply every ``repro bench`` gate to a directory of bench JSON.

Usage::

    python scripts/check_bench.py OUT [REPEAT]

``OUT`` must hold one ``BENCH_<name>.json`` per bench registered in
``repro.cli.BENCHES`` plus a ``PROFILE_hotpath.json``; every payload
must pass its ``check``.  ``REPEAT`` holds a second same-seed run of
the deterministic benches (those with a ``stable`` domain): each must
pass its ``check`` too and reproduce ``OUT``'s stable domain byte for
byte — the whole file for the tick-only benches, ``decision_domain``
or ``open_loop.tick_domain`` for the ones that also carry wall clocks.

The CI ``bench-smoke`` job runs the benches on tiny inputs and then
this script; running the same commands followed by this script
reproduces the gate on any machine.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.bench.profile import check_hotpath_profile  # noqa: E402
from repro.cli import BENCHES  # noqa: E402


def _load(path: pathlib.Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _same_domain(first: pathlib.Path, second: pathlib.Path,
                 key: str) -> None:
    if not key:
        assert first.read_bytes() == second.read_bytes(), \
            f"{first.name} differs across same-seed runs"
        return
    domains = []
    for path in (first, second):
        value = _load(path)
        for part in key.split("."):
            value = value[part]
        domains.append(json.dumps(value, sort_keys=True))
    assert domains[0] == domains[1], \
        f"{first.name} {key} diverged across runs"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print("usage: python scripts/check_bench.py OUT [REPEAT]",
              file=sys.stderr)
        return 2
    if not __debug__:
        print("check_bench.py: the gates are assert statements; run "
              "without -O", file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    repeat = pathlib.Path(argv[1]) if len(argv) == 2 else None
    failures = 0

    def gate(label, check, *args) -> None:
        nonlocal failures
        try:
            check(*args)
        except (AssertionError, KeyError, OSError) as error:
            failures += 1
            print(f"FAIL {label}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {label}")

    def check_file(path, check) -> None:
        gate(str(path), lambda: check(_load(path)))

    for name, bench in BENCHES.items():
        path = out / f"BENCH_{name}.json"
        check_file(path, bench.check)
        if repeat is None or bench.stable is None:
            continue
        again = repeat / f"BENCH_{name}.json"
        check_file(again, bench.check)
        gate(f"{name} {bench.stable or 'file'} identical across runs",
             _same_domain, path, again, bench.stable)
    check_file(out / "PROFILE_hotpath.json", check_hotpath_profile)
    print(f"bench check {'FAILED' if failures else 'OK'} "
          f"({failures} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
