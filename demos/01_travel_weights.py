"""Travel weights of a killed random walk in a random potential.

The walk starts at the origin, pays exp(-omega(z)) at every site it leaves,
and is absorbed when it first hits the target x (success) or exits the box
(failure). The travel weight e_V(0, x) is the expected accumulated payment
over successful walks; its -log is the travel cost a_V(0, x).

This script solves the weights exactly on a small box, shows how the cost
grows with distance, and demonstrates that enlarging the box can only lower
the cost (more paths become available).
"""

from rwpot import (BoxRegion, DistributionSpec, sample_field, travel_weight)


def main():
    spec = DistributionSpec.two_point(0.2, 1.0, 0.5)
    box = BoxRegion.centered(8, 2)
    field = sample_field(spec, box, seed=42)

    print("potential law:", spec)
    print("box:", box.lo, "to", box.hi, f"({box.site_count} sites)\n")

    print("cost a_V(0, n*e1) grows roughly linearly in n:")
    for n in range(1, 8):
        res = travel_weight(field, box, (0, 0), (n, 0))
        cost = res.cost_at((0, 0))
        print(f"  n={n}:  e = {res.e_at((0, 0)):.3e}   a = {cost:.4f}   "
              f"a/n = {cost / n:.4f}")

    print("\nlarger boxes only help (cost is non-increasing in the box):")
    for radius in (4, 6, 8):
        sub = BoxRegion.centered(radius, 2)
        cost = travel_weight(field, sub, (0, 0), (3, 2)).cost_at((0, 0))
        print(f"  radius {radius}:  a_V(0, (3,2)) = {cost:.6f}")

    print("\nforbidding a bottleneck site raises the cost:")
    free = travel_weight(field, box, (0, 0), (3, 0)).cost_at((0, 0))
    blocked = travel_weight(field, box, (0, 0), (3, 0),
                            taboo=[(1, 0)]).cost_at((0, 0))
    print(f"  free    : {free:.6f}")
    print(f"  taboo (1,0): {blocked:.6f}")

    res = travel_weight(field, box, (0, 0), (3, 0))
    e = res.e_values
    print(f"\nall {len(e)} weights lie in [0, 1]: "
          f"min={e.min():.3e}, max={e.max():.3f} (target itself has e=1)")


if __name__ == "__main__":
    main()
