"""Remake the stored lineages of the filtered degree-6 and degree-7 sets.

    python3 bench/remake_lineages.py

Runs liftgen.filter_redundant over the full generation sets (252 and 2016
identities), compares the kept lineages with bench/lineages.json and
rewrites the file when they changed (git shows the difference). The
degree-7 filter takes about 450 s and peaks near 950 MB. Exit code 0 means
unchanged, 1 changed.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from lyident import liftgen  # noqa: E402
from workloads import HERE, lineages_text, load_lineages  # noqa: E402


def main() -> int:
    stored = load_lineages()
    fresh = {}
    for n in sorted(stored):
        t0 = perf_counter()
        kept = liftgen.filter_redundant(liftgen.generate(n))
        fresh[n] = [ident.lineage for ident in kept.identities]
        same = fresh[n] == stored[n]
        print(f"degree {n}: kept {len(fresh[n])} (stored {len(stored[n])}), "
              f"{'unchanged' if same else 'CHANGED'}, {perf_counter() - t0:.1f} s", flush=True)
    changed = fresh != stored
    if changed:
        (HERE / "lineages.json").write_text(lineages_text(fresh), encoding="utf-8")
        print("rewrote bench/lineages.json")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
