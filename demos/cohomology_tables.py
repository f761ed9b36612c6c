"""Line-bundle cohomology on P^n x P^n x P^m x P^m, degree by degree.

The single-factor dimensions follow the closed form (binomials at the ends,
nothing in between); the four-fold tables are their convolution.  The script
prints a few tables, checks the duality symmetry on the fly, and shows how
exterior powers of a sum of line bundles decompose.

Run:  python3 demos/cohomology_tables.py
"""

from monadforge import (
    MultiDegree,
    SpaceParams,
    exterior_power_sum,
    line_bundle,
    middle_bundle,
    sum_cohomology,
)


def show_table(params: SpaceParams, deg: MultiDegree) -> None:
    top = params.dim_x
    dims = list(sum_cohomology(line_bundle(params, deg)).dims)
    print(f"O{deg.as_tuple()} on P^{params.n} x P^{params.n} x P^{params.m} x P^{params.m}:")
    print("  h^t, t = 0..{}: {}".format(top, dims))
    dual = MultiDegree(
        -deg.a - params.n - 1,
        -deg.b - params.n - 1,
        -deg.c - params.m - 1,
        -deg.d - params.m - 1,
    )
    dual_h0 = sum_cohomology(line_bundle(params, dual)).dims[0]
    assert dims[top] == dual_h0, "duality symmetry violated"
    print(f"  (h^{top} above equals h^0 of the dual degree {dual.as_tuple()})")
    print()


def main() -> None:
    params = SpaceParams(n=1, m=2, k=3)

    show_table(params, MultiDegree(1, 1, 1, 1))
    show_table(params, MultiDegree(-2, -2, -3, -3))
    show_table(params, MultiDegree(0, -1, 2, -4))

    # the monad's middle term has no cohomology at all in any degree
    middle = middle_bundle(params)
    table = sum_cohomology(middle)
    print(f"middle bundle (rank {middle.rank}): h^* = {list(table.dims)}")
    print()

    # exterior powers of a sum of line bundles split into line bundles again
    square = exterior_power_sum(line_bundle(params, MultiDegree(0, -1, 0, 0), 2), 2)
    print("Lambda^2 of O(0,-1,0,0)^2:", dict((d.as_tuple(), m) for d, m in square.summands))
    wedge3 = exterior_power_sum(middle, 3)
    print(
        f"Lambda^3 of the middle bundle: rank {wedge3.rank} "
        f"spread over {len(wedge3.summands)} degree classes"
    )


if __name__ == "__main__":
    main()
