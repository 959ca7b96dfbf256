# The split-extension structure of a signature class
# ----------------------------------------------------
# Maximal-pair removal projects a class onto a smaller class; prepending
# spread-sized blocks is a section of the projection, and each fiber is
# order-isomorphic to a small Young's lattice whose coordinates count
# raising steps level by level.

from unimodal_chains import (
    fiber_coordinates,
    fiber_element,
    remove_maximal_pairs,
    section,
    signature_class,
    verify_split_extension,
)

cls = signature_class(5, (0, 1, 1))
print(f"class of signature (0,1,1) for n=5: {len(cls)} elements")
print(f"base class downstairs: {signature_class(1, (1,))}")
print()

b = (1, 0)
print(f"fiber over {b}, as coordinate pairs in the 2-by-4 lattice:")
fiber = sorted(a for a in cls if remove_maximal_pairs(a) == b)
for a in fiber:
    print(f"  {a}  ->  {fiber_coordinates(a, b)}")
print()

print(f"section image of {b}: {section(b, 2, 2)}")
print(f"coordinates of the section image: "
      f"{fiber_coordinates(section(b, 2, 2), b)}")
print(f"rebuilding an element from coordinates (1,3): {fiber_element((1, 3), b, 2)}")
print()

report = verify_split_extension(5, (0, 1, 1))
print(f"exhaustive checks for the class (r={report.r}, ell={report.ell}, "
      f"{report.fiber_count} fibers):")
for name, check in report.checks.items():
    print(f"  {'ok  ' if check.passed else 'FAIL'} {name}")
print()
print("the two failing checks record a genuine boundary of the theory: the")
print("projection is not order-preserving across fibers.  A witness cover:")
for ce in report.checks["projection_order_preserving"].counterexamples[:1]:
    low, up = ce["lower"], ce["upper"]
    print(f"  {low} < {up}, but projections "
          f"{remove_maximal_pairs(low)} > {remove_maximal_pairs(up)}")
