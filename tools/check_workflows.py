#!/usr/bin/env python3
"""Checks that every GitHub Actions workflow file parses as YAML.

A workflow that fails to parse is not run at all, and GitHub reports it
only on the Actions page, so a stray unquoted ": " in a step name can
silently switch off CI. This loads each .github/workflows/*.yml with
yaml.safe_load and checks it has a `jobs` mapping.

Exits 0 when every file parses, 1 when any fails, and 77 (the
ctest SKIP_RETURN_CODE) when PyYAML is not installed.

Usage: python3 tools/check_workflows.py [repo_root]
"""

import glob
import os
import sys

SKIP = 77


def main(argv):
    try:
        import yaml
    except ImportError:
        print("SKIP: PyYAML is not installed")
        return SKIP
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    paths = sorted(glob.glob(os.path.join(root, ".github", "workflows",
                                          "*.yml")))
    if not paths:
        print("FAIL: no workflow files under", root)
        return 1
    failures = 0
    for path in paths:
        name = os.path.relpath(path, root)
        try:
            with open(path, encoding="utf-8") as f:
                doc = yaml.safe_load(f)
        except yaml.YAMLError as err:
            print(f"FAIL: {name}: {err}")
            failures += 1
            continue
        if not isinstance(doc, dict) or not isinstance(doc.get("jobs"), dict):
            print(f"FAIL: {name}: no `jobs` mapping")
            failures += 1
            continue
        print(f"ok: {name} ({len(doc['jobs'])} jobs)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
