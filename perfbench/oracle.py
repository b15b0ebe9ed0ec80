"""Independent verdict oracle: factors each benchmark input over Z with sympy.

Reads a JSON list of coefficient lists (ascending powers of x, integers as
hex strings) on stdin and writes, for each, the sorted list of the degrees
of its irreducible factors over Z, repeated by multiplicity.  It never
imports phinewton.

Answers are cached under the directory given as the only argument, one file
per input keyed by the sha256 of the coefficients.  This process is the only
writer of that cache, and every entry it writes comes from sympy.

    python3 perfbench/oracle.py CACHE_DIR < inputs.json > answers.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path


def input_key(hex_coeffs: list[str]) -> str:
    return hashlib.sha256(",".join(hex_coeffs).encode()).hexdigest()


def factor_degrees(coeffs: list[int]) -> list[int]:
    from sympy import Poly, ZZ, Symbol

    _, factors = Poly(list(reversed(coeffs)), Symbol("x"), domain=ZZ).factor_list()
    return sorted(g.degree() for g, mult in factors for _ in range(mult))


def answer(hex_coeffs: list[str], cache: Path) -> list[int]:
    key = input_key(hex_coeffs)
    path = cache / key[:2] / f"{key}.json"
    try:
        entry = json.loads(path.read_text())
        if entry.get("key") == key:
            return entry["degrees"]
    except (OSError, ValueError):
        pass
    degrees = factor_degrees([int(c, 16) for c in hex_coeffs])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"key": key, "degrees": degrees}))
    os.replace(tmp, path)
    return degrees


def main() -> int:
    cache = Path(sys.argv[1])
    inputs = json.load(sys.stdin)
    json.dump([answer(h, cache) for h in inputs], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
