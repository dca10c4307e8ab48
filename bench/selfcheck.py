"""Self-tests of the benchmark's reference and fixtures.

Run from the root of a checkout:

    python3 bench/selfcheck.py

* Fixtures are byte-identical for one seed and differ between seeds.
* (a) On the package's default finite midpoint box, the reference
  reproduces ``holeburn.integrator.detected_signal`` to 1e-9 relative, so
  both compute the same physics.
* (b) Doubling the reference's node counts changes S(t) by at most 1e-6
  relative, so the reference is converged.

The file name keeps pytest from collecting it with the package's tests.
"""

from __future__ import annotations

import shutil
import sys
import unittest
from pathlib import Path

import numpy as np

import fixtures
import reference

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "selfcheck"
POWERS = sorted(set(fixtures.SIMULATE_POWERS) | set(fixtures.TRAP_POWERS))


def _write_all(out: Path, seed: int) -> dict:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    phys = reference.Physics()
    fixtures.write_config(out / "run.ini", phys)
    t = fixtures.times()
    clean = {p: phys.scale_a * reference.reference_signal(phys, p, t, fixtures.GAMMA_TRAP)
             + phys.background_b * p for p in fixtures.TRAP_POWERS}
    fixtures.write_trap_batches(out, seed, phys, clean, 2)
    fixtures.write_sessions(out, seed, 2)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class FixtureTests(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        first = _write_all(WORK / "a", 7)
        second = _write_all(WORK / "b", 7)
        self.assertEqual(first.keys(), second.keys())
        for name in first:
            self.assertEqual(first[name], second[name], name)

    def test_other_seed_other_data(self):
        first = _write_all(WORK / "a", 7)
        other = _write_all(WORK / "c", 8)
        changed = [n for n in first if n != "run.ini" and first[n] != other[n]]
        self.assertEqual(len(changed), len(first) - 1)
        orders = {tuple(fixtures.simulate_order(seed)) for seed in range(10)}
        self.assertGreater(len(orders), 1)


class ReferenceTests(unittest.TestCase):
    def test_a_matches_package_on_finite_box(self):
        sys.path.insert(0, str(ROOT / "src"))
        import holeburn as hb
        from holeburn.config import load_config

        phys = reference.Physics()
        WORK.mkdir(parents=True, exist_ok=True)
        cfg = load_config(fixtures.write_config(WORK / "run.ini", phys))
        t = fixtures.times()
        for power in fixtures.SIMULATE_POWERS:
            geom = hb.BeamGeometry.for_material(cfg.material, power=power,
                                                focus_fwhm=cfg.focus_fwhm)
            pkg = hb.detected_signal(t, cfg.material, geom, fixtures.GAMMA_TRAP,
                                     cfg.domain).values
            box = reference.midpoint_rule(phys, power, cfg.domain)
            ref = reference.signal(box, t, fixtures.GAMMA_TRAP)
            err = float(np.max(np.abs(ref - pkg) / pkg))
            print(f"(a) {power * 1e6:g} uW: max rel. difference {err:.2e}")
            self.assertLessEqual(err, 1e-9)

    def test_b_doubling_nodes_changes_little(self):
        phys = reference.Physics()
        t = fixtures.times()
        doubled = tuple(2 * n for n in reference.NODES)
        for power in POWERS:
            base = reference.reference_signal(phys, power, t, fixtures.GAMMA_TRAP)
            fine = reference.reference_signal(phys, power, t, fixtures.GAMMA_TRAP,
                                              doubled)
            err = float(np.max(np.abs(fine - base) / fine))
            print(f"(b) {power * 1e6:g} uW: max rel. change {err:.2e}")
            self.assertLessEqual(err, 1e-6)


if __name__ == "__main__":
    unittest.main(verbosity=2)
