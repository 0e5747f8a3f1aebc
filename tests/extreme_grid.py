"""The extreme grid of H's build, by hand (pytest does not collect this file).

Builds H = C [A^2 y^2 + B^2 z^2] for every input of the grid
    L, R, A, B in {0, +-1e-160, +-1e-100, +-1e-5, +-1, +-3, +-1e100, +-1e154, +-1e155},
    w in {1e-320, 1e-300, 1e-150, 1e-3, 1, 4, 1e150, 1e300, 1e308},  N in {2, 3, 200}
(inputs with 1 + L R = 0 in float64 left out) through HamiltonianSpec.bands, and records the
outcome: "built", or the rejection's message up to its first " (" or " for ".

    python tests/extreme_grid.py                      # outcome counts of this checkout
    python tests/extreme_grid.py --base OTHER/src     # transitions from OTHER's nhosc to this one
    python tests/extreme_grid.py --base OTHER/src --mp-sample 100

With --base, each tree runs in its own interpreter (both at once), and the script prints, per N,
the count of each (base outcome -> this outcome) transition and, for inputs built on both sides,
how many have H[0,0], H[0,2] or H[2,0] differ in any bit, and by how much.  --mp-sample K checks up to K seeded
inputs of each transition (and of the built inputs whose bits moved) against 1400-digit
tests/oracles.py (the grid's terms cancel over more than 900 digits, as at L = 1e154,
R = 1e-160, A = 1, B = 1e154, w = 1e-300): for a built H it prints the largest error of H[0,0],
H[0,2] and H[2,0] in eps of the largest of them; for a rejected one, how many of the sampled
inputs have an exact H that is not past float64 (overflows), not below the smallest normal
(underflows) or not rounded to 0 in float64 (is zero), as their rejection claims.
It takes a few minutes on two cores.
"""

import argparse
import itertools
import json
import math
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
VALUES = [0.0] + [s * m for m in (1e-160, 1e-100, 1e-5, 1.0, 3.0, 1e100, 1e154, 1e155) for s in (1.0, -1.0)]
FREQS = (1e-320, 1e-300, 1e-150, 1e-3, 1.0, 4.0, 1e150, 1e300, 1e308)
SIZES = (2, 3, 200)
EPS = sys.float_info.epsilon


def grid():
    """(L, R, A, B, w) in a fixed order."""
    for l_coef, r_coef, a_coef, b_coef in itertools.product(VALUES, repeat=4):
        if 1.0 + l_coef * r_coef != 0.0:
            for w in FREQS:
                yield l_coef, r_coef, a_coef, b_coef, w


def dump(src, n_dim, out):
    """Run the grid at one N with the nhosc under src; save outcome codes and H[0,0], H[0,2], H[2,0]."""
    sys.path.insert(0, src)
    from nhosc import BasisSpec, HamiltonianSpec, TransformParams

    kinds, codes, entries = {}, [], []
    for l_coef, r_coef, a_coef, b_coef, w in grid():
        try:
            bands = HamiltonianSpec(TransformParams(l_coef, r_coef, a_coef, b_coef), BasisSpec(n_dim, w)).bands
        except ValueError as exc:
            kind, values = str(exc).split(" (")[0].split(" for ")[0], (math.nan,) * 3
        else:
            kind = "built"
            values = (bands.diag[0], bands.upper[0], bands.lower[0]) if n_dim > 2 else (bands.diag[0], 0.0, 0.0)
        codes.append(kinds.setdefault(kind, len(kinds)))
        entries.append(values)
    np.savez(out, codes=np.array(codes, dtype=np.uint8), entries=np.array(entries, dtype=np.float64),
             kinds=json.dumps(sorted(kinds, key=kinds.get)))


def run_trees(srcs, n_dim, tmp):
    """Dump each tree at n_dim in its own interpreter, all at once; load (outcomes, entries) per tree."""
    outs = [Path(tmp) / f"tree{i}-n{n_dim}.npz" for i in range(len(srcs))]
    procs = [subprocess.Popen([sys.executable, __file__, "--dump", str(out), "--src", src, "--n", str(n_dim)])
             for src, out in zip(srcs, outs)]
    for proc in procs:
        if proc.wait() != 0:
            raise SystemExit(f"dump failed: {proc.args}")
    loaded = []
    for out in outs:
        data = np.load(out)
        names = json.loads(str(data["kinds"]))
        loaded.append((np.array(names, dtype=object)[data["codes"]], data["entries"]))
    return loaded


def mp_error(inputs, n_dim, got):
    """Largest |got - 1400-digit entries| of H[0,0], H[0,2], H[2,0] over their largest, in eps."""
    sys.path.insert(0, str(HERE))
    import oracles

    places = [(0, 0), (0, 2), (2, 0)] if n_dim > 2 else [(0, 0)]
    worst = 0.0
    for (l_coef, r_coef, a_coef, b_coef, w), values in zip(inputs, got):
        true = oracles.mp_entries(l_coef, r_coef, a_coef, b_coef, w, n_dim, places, dps=1400)
        scale = max(map(abs, true))
        worst = max(worst, max(abs(g - t) for g, t in zip(values, true)) / scale / EPS if scale else 0.0)
    return worst


def mp_false_rejections(inputs, n_dim, kind):
    """How many of the inputs, rejected as kind, have a 1400-digit H that float64 could hold."""
    sys.path.insert(0, str(HERE))
    import oracles

    false = 0
    for l_coef, r_coef, a_coef, b_coef, w in inputs:
        _, norm, largest = oracles.mp_bands(l_coef, r_coef, a_coef, b_coef, w, n_dim, dps=1400)
        if kind == "H overflows float64":
            false += norm < (1.0 - 8 * EPS) * sys.float_info.max
        elif kind == "H underflows float64":
            false += not 0 < largest < sys.float_info.min
        else:  # exactly zero, as far as 1400 digits resolve: float64 rounds it to 0
            false += float(largest) != 0.0
    return false


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="src directory of the nhosc to compare against")
    parser.add_argument("--mp-sample", type=int, default=0)
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        return dump(args.src, args.n, args.dump)
    inputs = list(grid()) if args.mp_sample else None
    srcs = [str(HERE.parent / "src")] + ([args.base] if args.base else [])
    total = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for n_dim in map(int, args.sizes.split(",")):
            (here, here_entries), *base = run_trees(srcs, n_dim, tmp)
            print(f"N = {n_dim}: {len(here)} inputs")
            for kind, count in sorted(Counter(here).items()):
                print(f"  {kind}: {count}")
            if not base:
                continue
            (was, was_entries), = base
            moved = Counter(zip(was, here))
            total.update(moved)
            for (old, new), count in sorted(moved.items()):
                if old != new:
                    print(f"  {old} -> {new}: {count}")
            both = (was == "built") & (here == "built")
            differ = both & np.any(was_entries.view(np.int64) != here_entries.view(np.int64), axis=1)
            print(f"  built on both: {both.sum()}, bits differ in {differ.sum()}")
            if differ.any():
                scale = np.abs(was_entries[differ]).max(axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):  # a 0.0 that became -0.0: nan
                    ratio = np.abs(was_entries[differ] - here_entries[differ]).max(axis=1) / scale
                print(f"    max |change| / max|entry| {np.nanmax(ratio):.3g}, median {np.nanmedian(ratio):.3g}")
            if args.mp_sample:
                rng = random.Random(n_dim)
                for (old, new), count in sorted(moved.items()):
                    if old == new != "built":
                        continue
                    picks = np.flatnonzero((was == old) & (here == new) & (~both | differ))
                    if not picks.size:
                        continue
                    picks = sorted(rng.sample(list(picks), min(args.mp_sample, picks.size)))
                    sample = [inputs[i] for i in picks]
                    if new == "built":
                        err = mp_error(sample, n_dim, here_entries[picks])
                        print(f"    {old} -> built: {len(picks)} sampled, max error {err:.3g} eps of mpmath")
                    else:
                        false = mp_false_rejections(sample, n_dim, new)
                        print(f"    {old} -> {new}: {len(picks)} sampled, {false} that mpmath finds in range")
    if args.base:
        changed = sum(count for (old, new), count in total.items() if old != new)
        print(f"all N: {sum(total.values())} inputs, {changed} changed outcome")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
