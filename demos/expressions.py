"""
Scalar expressions: parsing, exact derivatives, precise failure
===============================================================
"""

import numpy as np

from kyano import ExprSyntaxError, SingularEvaluation, eval2, parse_expression, unparse

# parse once; evaluate with first and second derivatives from forward-mode jets
e = parse_expression("x1^2 * sin(x2) + exp(-x3)", 3)
out = eval2(e, [2.0, np.pi / 2, 0.0])
print("value   ", out.value)
print("gradient", out.gradient)
print("hessian diag", np.diag(out.hessian))

# power binds tighter than unary minus and associates to the right
print("-2^2    =", eval2(parse_expression("-2^2", 1), [0.0]).value)
print("2^3^2   =", eval2(parse_expression("2^3^2", 1), [0.0]).value)

# integer exponents stay differentiable left of zero
out = eval2(parse_expression("x1^3", 1), [-2.0])
print("x1^3 at -2:", out.value, "d/dx1:", out.gradient[0])

# syntax errors carry the byte offset of the offending token
try:
    parse_expression("x1 + (x2", 2)
except ExprSyntaxError as err:
    print("syntax error:", err)

# so do singular evaluations
try:
    eval2(parse_expression("1/(1+x1)", 1), [-1.0])
except SingularEvaluation as err:
    print("singular:", err)

# round trip: unparse produces a string that parses back to the same tree
print("unparsed:", unparse(e))
