"""Enumerate and certify exceptional trace functions on a planar surface.

Usage: python3 scripts/exceptional_scan.py [--n N] [--certify-all]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sl2trace.planar import certify_exceptional, exceptional_enumerate
from sl2trace.qfield import TowerContext


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=5, help="boundary components (5..6)")
    ap.add_argument("--certify-all", action="store_true")
    args = ap.parse_args()
    if not 5 <= args.n <= 6:
        ap.error("n must be 5 or 6: the exhaustive search does not finish at n = 7")
    t0 = time.time()
    fams = exceptional_enumerate(args.n)
    elapsed = time.time() - t0
    print(f"n = {args.n}: {len(fams)} exceptional trace functions ({elapsed:.1f}s)")
    to_check = fams if args.certify_all else fams[: min(4, len(fams))]
    ok = 0
    for tf in to_check:
        cert = certify_exceptional(tf, TowerContext())
        ok += bool(cert["exceptional"])
    print(f"certified {ok}/{len(to_check)} sampled functions")
    sample = fams[0] if fams else None
    if sample:
        print("first member:", json.dumps({
            "boundary": list(sample.boundary),
            "table": [[list(k), v] for k, v in sample.table][:6],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
