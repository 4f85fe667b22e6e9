"""Build the Lie-Yamaguti algebra of the reductive pair so(5) > Cartan.

g = so(5) is taken in its split form, the 5x5 matrices X with
X^T J + J X = 0 for the antidiagonal J; over Q its Cartan subalgebra h is
diagonal, diag(a, b, 0, -b, -a). The eight root vectors
E[6-i, j] - E[6-j, i] (i < j, (i, j) not (1, 5) or (2, 4)) span m, and
[h, m] is inside m, so g = h + m is reductive and m carries the
Lie-Yamaguti structure

    [x, y] = [x, y]_m,    <x, y, z> = [[x, y]_h, z].

The script writes the structure constants in the package's algebra JSON
format ("direct" construction, 1-based sparse entries):

    python3 bench/so5_cartan.py    # writes bench/so5_cartan.json
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

N = 5
ROOT_PAIRS = tuple(
    (i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1) if (i, j) not in ((1, 5), (2, 4))
)


def _matrix(entries: dict[tuple[int, int], int]) -> list[list[int]]:
    m = [[0] * N for _ in range(N)]
    for (p, q), x in entries.items():
        m[p - 1][q - 1] += x
    return m


def root_vector(i: int, j: int) -> list[list[int]]:
    return _matrix({(N + 1 - i, j): 1, (N + 1 - j, i): -1})


def commutator(x, y):
    xy = [[sum(x[r][k] * y[k][c] for k in range(N)) for c in range(N)] for r in range(N)]
    yx = [[sum(y[r][k] * x[k][c] for k in range(N)) for c in range(N)] for r in range(N)]
    return [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(xy, yx)]


def split(x) -> tuple[list[list[int]], list[int]]:
    """(h-part as a diagonal matrix, m-coordinates in the ROOT_PAIRS basis)."""
    h = _matrix({(k, k): x[k - 1][k - 1] for k in range(1, N + 1)})
    coords = [x[N - i][j - 1] for i, j in ROOT_PAIRS]
    rebuilt = [[h[r][c] for c in range(N)] for r in range(N)]
    for (i, j), c in zip(ROOT_PAIRS, coords):
        for r, row in enumerate(root_vector(i, j)):
            for col, v in enumerate(row):
                rebuilt[r][col] += c * v
    if rebuilt != x:
        raise ValueError("matrix is not in so(5) for the antidiagonal form")
    return h, coords


def structure_constants() -> dict:
    basis = [root_vector(i, j) for i, j in ROOT_PAIRS]
    bilinear, trilinear = [], []
    for a, x in enumerate(basis, 1):
        for b, y in enumerate(basis, 1):
            h, coords = split(commutator(x, y))
            bilinear += [[a, b, k, str(Fraction(c))] for k, c in enumerate(coords, 1) if c]
            for c_idx, z in enumerate(basis, 1):
                _, tcoords = split(commutator(h, z))
                trilinear += [[a, b, c_idx, k, str(Fraction(c))] for k, c in enumerate(tcoords, 1) if c]
    return {
        "name": "so5_cartan",
        "dimension": len(basis),
        "construction": "direct",
        "bilinear": bilinear,
        "trilinear": trilinear,
    }


def algebra_text(doc: dict) -> str:
    """JSON laid out like the bundled algebra files: one entry per line."""
    lines = ["{"]
    for key, value in doc.items():
        if isinstance(value, list):
            entries = ",\n".join("    " + json.dumps(e) for e in value)
            lines.append(f'  "{key}": [\n{entries}\n  ],')
        else:
            lines.append(f"  {json.dumps(key)}: {json.dumps(value)},")
    lines[-1] = lines[-1].rstrip(",")
    return "\n".join(lines) + "\n}\n"


def main() -> None:
    out = Path(__file__).with_name("so5_cartan.json")
    doc = structure_constants()
    out.write_text(algebra_text(doc), encoding="utf-8")
    print(f"wrote {out.name}: dimension {doc['dimension']}, "
          f"{len(doc['bilinear'])} bilinear and {len(doc['trilinear'])} trilinear entries")


if __name__ == "__main__":
    main()
