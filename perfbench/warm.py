"""Warm-up shared by the set-up probe and the measuring process.

The warm-up is the first geometric product in each signature a workload
uses (versorlab builds a signature's product tables on first use), plus,
where the workload induces 4D systems, the first ``induce_4d`` (it fills the
4D catalog fingerprints).  Imports nothing beyond versorlab, so that a probe
times ``import versorlab`` alone.
"""

import time

import versorlab as vl

SIGNATURES = {
    "cli": ((2, 0), (3, 0), (3, 1), (4, 0), (6, 0), (7, 0), (8, 0)),
    "closure": ((3, 0), (4, 0), (6, 0), (7, 0), (8, 0)),
    "induction": ((3, 0), (4, 0), (6, 0), (7, 0), (8, 0)),
    "words": ((3, 0), (3, 1), (4, 0), (8, 0)),
}
INDUCES = {"cli": True, "closure": False, "induction": True, "words": False}


def warm_up(workload: str) -> dict:
    """Run the workload's warm-up; returns the time of its notable steps."""
    out = {}
    for p, q in SIGNATURES[workload]:
        e = vl.basis(vl.Signature(p, q))[0]
        t0 = time.perf_counter()
        vl.geometric_product(e, e)
        if (p, q) == (8, 0):
            out["kernel_build_cl8_s"] = time.perf_counter() - t0
    if INDUCES[workload]:
        spin = vl.generate_spin(vl.catalog("A1^3"))
        t0 = time.perf_counter()
        vl.induce_4d(spin)
        out["first_induce_s"] = time.perf_counter() - t0
    return out
