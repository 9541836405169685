"""The symbolic catalog in action.

Expands a few bracket expressions, evaluates them on named cubics, and shows
the classical sanity checks: the Hessian is a determinant of second partials,
and the degree-4 invariant detects cubics that are sums of <= 3 cube powers.
"""

from ternary_cubics import brackets, loci


def main():
    print("== the catalog ==")
    for name in sorted(brackets.CATALOG):
        conc = brackets.catalog_concomitant(name)
        print(f"  {name:18s} type {conc.ctype.as_tuple()}  "
              f"{len(conc.poly.terms):5d} terms   {brackets.CATALOG[name]}")

    print("\n== the Hessian is proportional to det(second partials) ==")
    hess = brackets.catalog_concomitant("Phi330")
    a = loci.NAMED_CUBICS["cuspidal"]
    lhs = brackets.evaluate_at_cubic(hess, a)
    rhs = brackets.hessian_oracle(a)
    print(f"  cuspidal cubic: bracket route = {lhs.to_text() or 0}")
    print(f"  partials route = {rhs.to_text() or 0}  (ratio 1/2)")

    print("\n== the degree-4 invariant ==")
    inv = brackets.catalog_concomitant("Phi400")
    for name, a in loci.NAMED_CUBICS.items():
        v = brackets.evaluate_at_cubic(inv, a)
        print(f"  Phi400({name}) = {v.to_text() if v else 0}")
    print("  (zero exactly on sums of at most three cubes of linear forms)")

    print("\n== vanishing on a locus ==")
    p = 1000003
    conc = brackets.catalog_concomitant("Phi222")
    pt = loci.sample("equiv", seed=1, p=p)
    print(f"  Phi222 vanishes at a random cube sample mod {p}: "
          f"{brackets.vanishes_at_cubics(conc, [pt], p)[0]}")


if __name__ == "__main__":
    main()
