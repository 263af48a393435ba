"""Hash every registered experiment's numerical outputs.

Used to verify that refactors of the numerical spine leave the fig3-fig13
experiment outputs bit-identical: run once on the old code, once on the new,
and diff the printed digests.  Each line is ``name arrays-digest
table-digest``: the first covers the printed table and every numerical
field, the second the printed table (``format_table()``) alone, so a change
that moves the arrays in their last bits but leaves the printed figures
unchanged shows as a changed first digest with an unchanged second.

    PYTHONPATH=src python scripts/check_bitident.py > hashes.txt
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from repro.registry import EXPERIMENTS_REGISTRY


def _digest_value(hasher: "hashlib._Hash", value) -> None:
    if isinstance(value, np.ndarray):
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _digest_value(hasher, item)
    elif isinstance(value, dict):
        for key in sorted(value):
            hasher.update(str(key).encode())
            _digest_value(hasher, value[key])
    elif isinstance(value, (int, float, str, bool)) or value is None:
        hasher.update(repr(value).encode())


def digest_result(result) -> str:
    hasher = hashlib.sha256()
    hasher.update(result.format_table().encode())
    state = getattr(result, "__dict__", None)
    if state is None and hasattr(result, "__dataclass_fields__"):
        state = {name: getattr(result, name) for name in result.__dataclass_fields__}
    if state:
        for key in sorted(state):
            value = state[key]
            if isinstance(value, (np.ndarray, list, tuple, dict, int, float, str, bool)):
                hasher.update(key.encode())
                _digest_value(hasher, value)
    return hasher.hexdigest()


def digest_table(result) -> str:
    return hashlib.sha256(result.format_table().encode()).hexdigest()


def main() -> int:
    for name in EXPERIMENTS_REGISTRY.names():
        result = EXPERIMENTS_REGISTRY.get(name)()
        print(f"{name} {digest_result(result)} {digest_table(result)}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
