"""Expected results the benchmark checks kyano's outputs against.

They are written out here rather than read from kyano, so a change to
kyano's own expectation tables cannot make a wrong answer pass.
"""

# Verdict of each multipole identity at 1000 uniform points of [-1, 1]^6.
MULTIPOLE_VERDICTS = {
    "I01": "holds",
    "I02": "holds",
    "I03": "holds",
    "I04": "fails",
    "I05": "holds-after-documented-correction",
    "I06": "holds",
    "I07": "holds",
    "I08": "holds",
    "I09": "holds",
    "I10a": "fails",
    "I10b": "holds-after-documented-correction",
    "I11a": "fails",
    "I11b": "fails",
    "I11c": "holds-after-documented-correction",
    "I12": "holds",
    "I13a": "fails",
    "I13b": "fails",
    "I14": "fails",
}

# Every section of `kyano report` passes.
REPORT_SECTIONS = (
    "flat-ky",
    "taub-nut",
    "const-curvature",
    "printed-constcurv-ky",
    "multipole",
)

# The Taub-NUT triplet validates under fiber scale 2 (c = 2m), not 4.
TAUBNUT_FIBER_SCALE = 2.0

# The Taub-NUT triplet is KY, covariantly constant and non-degenerate.
TRIPLET_KY_TOL = 1e-10
TRIPLET_CC_TOL = 1e-8
TRIPLET_MIN_ABS_DET = 1e-12

# Taub-NUT is Ricci-flat; measured |Ric| <= 6e-15.
TAUBNUT_RICCI_TOL = 1e-10

# Scalar curvature of the constant-curvature 3-space is 6K; measured
# deviation <= 3e-14 at K = -4 and <= 4e-15 in the report's K = -1, 0.5, 1.
SCALAR_CURVATURE_TOL = 1e-10

# Negative control: the flat position field is not KY on K = -4.  Its
# KY residual is about 48 there, far above any rounding error.
NEGATIVE_CONTROL_MIN_RESIDUAL = 1.0

# Largest relative drift of a conserved quantity along one trajectory,
# valid for RK4 at dt = 0.01 over 1000 steps from the workload's starts
# (|p| <= 1, see workloads.AXIS_GAP).  Over 400 draws each, the kept
# starts drifted H by at most 1.5e-8 on Taub-NUT and 8.2e-7 on K = 1,
# and L3 by at most 1.1e-7.
DRIFT_TOL = 1e-5

# Checks that fail at the parent commit because of a known defect in
# kyano.  They count as failed checks; they do not make the run incorrect.
KNOWN_DEFECTS = {
    "taub-nut K drift": (
        "dynamics.KillingQuadratic contracts the lower-index K_ij with"
        " covariant momenta; the conserved form is K^ij p_i p_j"
    ),
}
