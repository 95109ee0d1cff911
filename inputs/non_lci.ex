# one base point at s = t = 0 whose local ideal is (s,t)^2, which is not a
# complete intersection: D = F * L with F of degree 4 and L linear
degree: 2 2
f1: (-3)*s^2*t^0 + (1)*s^1*t^1 + (5)*s^0*t^2 + (-5)*s^2*t^1 + (-4)*s^1*t^2 + (3)*s^2*t^2
f2: (-4)*s^2*t^0 + (4)*s^1*t^1 + (-5)*s^0*t^2 + (3)*s^2*t^1 + (-2)*s^1*t^2 + (-5)*s^2*t^2
f3: (-4)*s^2*t^0 + (1)*s^1*t^1 + (1)*s^0*t^2 + (-4)*s^2*t^1 + (-2)*s^1*t^2 + (-4)*s^2*t^2
f4: (3)*s^2*t^0 + (1)*s^1*t^1 + (-5)*s^0*t^2 + (4)*s^2*t^1 + (-4)*s^1*t^2 + (-2)*s^2*t^2
