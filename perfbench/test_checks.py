"""Self-tests of the output checks: each check passes a real dynrx output and
rejects a copy of it with one entry changed.

    python3 perfbench/test_checks.py

The outputs come from the cheap invocations of the workloads themselves
(about 2 s of dynrx in all), so the tests see today's schema.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from fractions import Fraction

import checks
import run
import workloads


def dynrx(args) -> dict:
    proc = subprocess.run([sys.executable, "-m", "dynrx.cli", *args], env=run.child_env(),
                          cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def outputs_of(workload, labels) -> dict:
    by_label = {inv.label: inv.args for inv in workload.invocations}
    return {label: dynrx(by_label[label]) for label in labels}


def bump(s: str) -> str:
    return str(Fraction(s) + 1)


class ChecksRejectCorruptedOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.sl2 = workloads.sl2_dynrep(7)
        cls.sl2_out = outputs_of(cls.sl2, ["fusion-verma", "fusion-abrr"])
        cls.sixj = workloads.sixj_symbolic(7)
        cls.sixj_out = outputs_of(cls.sixj, ["gl2-exchange"])
        cls.gl4 = workloads.gl4_vector(7)
        cls.gl4_out = outputs_of(cls.gl4, ["fusion-abrr", "exchange-abrr"])
        cls.verify_out = dynrx(["verify", "--suites", "hecke", "closed-form", "--algebra",
                                "gl2", "--q", "4", "--samples", "1"])

    def rejected(self, workload, outs, label, mutate):
        bad = copy.deepcopy(outs)
        mutate(bad[label])
        return workload.check(bad)

    def test_real_outputs_pass(self):
        self.assertEqual(self.sl2.check(self.sl2_out), [])
        self.assertEqual(self.sixj.check(self.sixj_out), [])
        self.assertEqual(self.gl4.check(self.gl4_out), [])
        self.assertEqual(checks.check_verify(self.verify_out, ["hecke", "closed-form"]), [])

    def test_fusion_every_entry_change_rejected(self):
        # unipotence and weight-zero catch changes off the nonzero pattern;
        # Verma vs ABRR agreement catches changes to the entries they share
        J = self.sl2_out["fusion-abrr"]["results"][0]["matrix"]["entries"]
        for r in range(len(J)):
            for c in range(len(J)):
                def mutate(out, r=r, c=c):
                    row = out["results"][0]["matrix"]["entries"][r]
                    row[c] = bump(row[c])
                self.assertTrue(self.rejected(self.sl2, self.sl2_out, "fusion-abrr", mutate),
                                f"entry ({r},{c})")

    def test_fusion_unipotent_rejects(self):
        # sl2 V_1/2 (x) V_1: (0,1) -> index 1 and (1,0) -> index 3 share weight 1
        J = checks.scalar_matrix(self.sl2_out["fusion-verma"]["results"][0]["matrix"])
        wW, wV = checks.sl2_weights("1/2"), checks.sl2_weights("1")
        self.assertEqual(checks.check_fusion(J, wW, wV), [])
        above = copy.deepcopy(J)
        above[1][3] += 1
        self.assertIn("first-slot", " ".join(checks.check_fusion(above, wW, wV)))
        diag = copy.deepcopy(J)
        diag[0][0] += 1
        self.assertIn("first-slot", " ".join(checks.check_fusion(diag, wW, wV)))
        # the same corruption in both routes passes the agreement check only
        both = copy.deepcopy(self.sl2_out)
        for out in both.values():
            row = out["results"][0]["matrix"]["entries"][1]
            row[3] = bump(row[3])
        self.assertIn("first-slot", " ".join(self.sl2.check(both)))

    def test_fusion_weight_zero_rejects(self):
        # index 3 = (1,0) has weight 1, index 0 = (0,0) weight 3; (3,0) is below
        J = checks.scalar_matrix(self.sl2_out["fusion-verma"]["results"][0]["matrix"])
        J[3][0] += 1
        problems = checks.check_fusion(J, checks.sl2_weights("1/2"), checks.sl2_weights("1"))
        self.assertTrue(problems)
        self.assertIn("weights", " ".join(problems))
        gl4 = checks.scalar_matrix(self.gl4_out["fusion-abrr"]["results"][0]["matrix"])
        gl4[5][6] += 1  # (1,1) and (1,2) differ in weight
        self.assertTrue(checks.check_fusion(gl4, checks.gln_weights(4), checks.gln_weights(4)))

    def test_lambda_rejects(self):
        point = self.sl2_out["fusion-verma"]["results"][1]["lambda"]
        self.assertEqual(checks.check_lambda(point, Fraction(4)), [])
        for key, value in (("z", [bump(point["z"][0])]), ("s", "3"), ("s", "None")):
            bad = dict(point, **{key: value})
            self.assertTrue(checks.check_lambda(bad, Fraction(4)), f"{key} = {value}")

        def other_point(out):  # a valid point, but not the one the other route used
            lam = out["results"][2]["lambda"]
            c = Fraction(lam["coords"][0]) + 1
            lam["coords"][0], lam["z"][0] = str(c), str(c * c)
        self.assertTrue(self.rejected(self.sl2, self.sl2_out, "fusion-verma", other_point))

    def test_hecke_every_entry_change_rejected(self):
        R = checks.scalar_matrix(self.gl4_out["exchange-abrr"]["results"][0]["matrix"])
        self.assertEqual(checks.check_hecke(R, 4, Fraction(4)), [])
        for r in range(16):
            for c in range(16):
                bad = copy.deepcopy(R)
                bad[r][c] += 1
                self.assertTrue(checks.check_hecke(bad, 4, Fraction(4)), f"entry ({r},{c})")

    def test_symbolic_hecke_every_entry_change_rejected(self):
        entries = self.sixj_out["gl2-exchange"]["results"][0]["matrix"]["entries"]
        for r in range(4):
            for c in range(4):
                def mutate(out, r=r, c=c):
                    num = out["results"][0]["matrix"]["entries"][r][c]["num"]
                    if num:
                        num[0] = bump(num[0])
                    else:
                        num.append("1")
                self.assertTrue(entries[r][c]["den"])
                self.assertTrue(self.rejected(self.sixj, self.sixj_out, "gl2-exchange", mutate),
                                f"entry ({r},{c})")
        # too few evaluation points off the poles proves nothing
        mat = self.sixj_out["gl2-exchange"]["results"][0]["matrix"]
        q = Fraction(self.sixj_out["gl2-exchange"]["config"]["q"])
        poles = [x for x in (sign * q ** k for sign in (1, -1) for k in range(-3, 4))
                 if checks.eval_symbolic_matrix(mat, x) is None]
        self.assertTrue(poles)
        self.assertTrue(checks.check_symbolic_hecke(mat, 2, q, poles + [Fraction(3)]))

    def test_verify_rejects(self):
        def report_fails(out):
            out["reports"][0]["pass"] = False

        def top_fails(out):
            out["pass"] = False

        def has_failure(out):
            out["reports"][-1]["failures"].append({"sample": 0})

        def suite_missing(out):
            out["reports"] = [r for r in out["reports"] if r["suite"] != "hecke"]
        for mutate in (report_fails, top_fails, has_failure, suite_missing):
            bad = copy.deepcopy(self.verify_out)
            mutate(bad)
            self.assertTrue(checks.check_verify(bad, ["hecke", "closed-form"]), mutate.__name__)

    def test_config_rejects(self):
        def other_seed(out):
            out["config"]["seed"] += 1
        self.assertTrue(self.rejected(self.gl4, self.gl4_out, "exchange-abrr", other_seed))


if __name__ == "__main__":
    unittest.main()
