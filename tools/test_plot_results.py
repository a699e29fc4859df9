"""Unit tests for the CSV parsing in plot_results.py (no matplotlib needed).

Run: python3 -m unittest discover -s tools -p 'test_*.py'
"""
import os
import tempfile
import unittest

import plot_results


class AttributionMeansTest(unittest.TestCase):
    def write(self, text):
        fd, path = tempfile.mkstemp(suffix=".csv")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        self.addCleanup(os.remove, path)
        return path

    def test_wide_rows_average_per_component_in_column_order(self):
        path = self.write(
            plot_results.ATTRIBUTION_HEADER + "\n"
            "0,4294967297,1250.5,3,0,1,0,1000,2000,5000,3000,0,4000000,"
            "1000,4012000\n"
            "1,4294967298,1300,4,1,0,500000,0,0,0,2000,1000000,2000000,"
            "1500,3503500\n"
        )
        means = plot_results.attribution_means(path)
        self.assertEqual(list(means), plot_results.ATTRIBUTION_COMPONENTS)
        self.assertEqual(
            plot_results.ATTRIBUTION_COMPONENTS,
            ["dup_wait", "wire_cli_rs", "accel_queue", "accel_serv",
             "wire_rs_srv", "srv_queue", "srv_serv", "wire_return"],
        )
        self.assertAlmostEqual(means["dup_wait"], 0.25)
        self.assertAlmostEqual(means["wire_cli_rs"], 0.0005)
        self.assertAlmostEqual(means["accel_queue"], 0.001)
        self.assertAlmostEqual(means["accel_serv"], 0.0025)
        self.assertAlmostEqual(means["wire_rs_srv"], 0.0025)
        self.assertAlmostEqual(means["srv_queue"], 0.5)
        self.assertAlmostEqual(means["srv_serv"], 3.0)
        self.assertAlmostEqual(means["wire_return"], 0.00125)

    def test_header_only_file_has_zero_means(self):
        path = self.write(plot_results.ATTRIBUTION_HEADER + "\n")
        means = plot_results.attribution_means(path)
        self.assertEqual(set(means.values()), {0.0})

    def test_long_format_header_is_rejected_by_name(self):
        path = self.write(
            "repeat,req,complete_us,server,dup,via_rs,component,ns\n"
            "0,1,1250.5,3,0,1,dup_wait,0\n"
        )
        with self.assertRaisesRegex(ValueError, "long-format"):
            plot_results.attribution_means(path)

    def test_other_csv_is_rejected(self):
        path = self.write(plot_results.DECISION_HEADER + "\n")
        with self.assertRaisesRegex(ValueError, "not an attribution CSV"):
            plot_results.attribution_means(path)


if __name__ == "__main__":
    unittest.main()
