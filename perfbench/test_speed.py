"""Reference seconds from speed-probe samples.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import unittest

from speed import CAL_REF_S, SpeedProbe


def probe_with(samples: list[tuple[float, float]]) -> SpeedProbe:
    probe = SpeedProbe()
    for start, loop in samples:
        probe.starts.append(start)
        probe.loops.append(loop)
    return probe


class MeasureTests(unittest.TestCase):
    def test_no_sample_inside_uses_the_latest_before(self):
        probe = probe_with([(0.0, 2 * CAL_REF_S)])
        self.assertEqual(probe.measure(1.0, 3.0), (2.0, 1.0))

    def test_sample_time_is_left_out_and_each_stretch_scaled(self):
        # full speed up to the sample at 1.0, half speed after it
        probe = probe_with([(0.0, CAL_REF_S), (1.0, 2 * CAL_REF_S)])
        wall, ref = probe.measure(0.5, 2.0)
        self.assertAlmostEqual(wall, 1.5 - 2 * CAL_REF_S)
        # the stretch before the sample takes the speed that sample shows
        self.assertAlmostEqual(ref, 0.5 / 2 + (1.0 - 2 * CAL_REF_S) / 2)


if __name__ == "__main__":
    unittest.main()
