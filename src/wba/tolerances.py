"""Every numeric threshold of the package, named once with its reason; a
leaf module.  Size and count limits stay beside the code they bound."""

COEFF_EPS = 1e-14       # a formal coefficient this small is rounding noise and is dropped
COEFF_MATCH = 1e-12     # approx_eq: formal coefficients this close are equal
ATOL = 1e-10            # matrix-identity residual (M = M^H included): times max(1, |M|)
ORACLE_TOL = 1e-10      # closed form vs oracle deviation below this passes (verify-props, ew-maps)
STATE_SLACK = 1e-10     # slack of the Werner valid-state inequalities
PPT_SLACK = 1e-12       # slack of the six analytic partial-transpose inequalities
EIG_TOL = 1e-9          # least eigenvalue >= -EIG_TOL is PSD
GRAM_CUT = 1e-9         # trace-form eigenvalue below this times the largest: a null direction
PRODUCT_BAND = 1e-7     # product minimum >= -PRODUCT_BAND is block-positive
SEESAW_STOP = 1e-12     # a see-saw start stops when a sweep lowers its value by less than this
PPT_EIGENCHECK = 1e-8   # werner-ppt: least eigenvalue of rho^{T_1} >= -PPT_EIGENCHECK is PPT
RANGE_FUZZ = 1e-12      # a range keeps stop when overshot by at most this (by 1e-3 step if less)
