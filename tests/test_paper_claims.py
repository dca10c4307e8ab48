"""The source paper's claims that the model computes: one test per claim,
each printing a `CLAIM <id> [PASS|FAIL]` line like the acceptance suite.

The README's "Paper claims" table lists all four and says which the
model computes and which `holeburn` takes in by fiat; only C3 is
computed.  Each bound is the paper's own number, run through the same
command a user runs.
"""

import numpy as np

from holeburn.cli import main


def verdict(cid, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nCLAIM {cid} [{status}] {description} {detail}")
    assert ok, f"claim {cid}: {description} {detail}"


def simulated_fall(tmp_path, power, t_end):
    """1 - S(t_end) / S(0) of a default `simulate` job at `power` [W]."""
    out = tmp_path / f"sim_{power:g}.csv"
    assert main(["simulate", "--power-w", f"{power:g}", "--out",
                 str(out)]) == 0
    t, s, _ = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
    return 1 - s[t == t_end][0] / s[0]


def test_c3_permanent_fall_under_constant_drive(tmp_path):
    """"> 50% after a couple of minutes": at the default gamma_trap
    (7e4 /s), S falls by more than half by 120 s at 20 uW, and not at
    2 uW, so the claim holds only at the burn powers."""
    burn = simulated_fall(tmp_path, 20e-6, 120.0)
    weak = simulated_fall(tmp_path, 2e-6, 120.0)
    verdict("C3", "S falls > 50% by 120 s at 20 uW and < 50% at 2 uW",
            burn > 0.5 > weak, f"(20 uW: {burn:.1%}, 2 uW: {weak:.1%})")
