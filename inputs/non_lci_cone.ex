# the base point of non_lci.ex on a degenerate input: f1*f3 = f2^2, so the
# image is the cone T1*T3 - T2^2, covered twice; D = F^2 * T4
degree: 2 2
f1: s^2*v^2
f2: s*u*t*v
f3: u^2*t^2
f4: s^2*t*v + s*u*t^2 + s^2*t^2
