"""What the synthetic pre-promotion world looks like.

Generates one world, prints its base rates, the causal effect of the cart
action, and the confounding gap that a naive contrast would report.

Run: python3 demos/02_synthetic_world.py
"""

import numpy as np

from prepromo.synth import generate_dataset, sample_world, true_ate


def main():
    world = sample_world(seed=7)
    print("delayed-head bias:", round(world.b_del, 3),
          "| cart effect tau:", world.tau,
          "| discount effect gamma:", world.gamma)

    daily = generate_dataset(world, 100_000, "daily", seed=1)
    prepromo = generate_dataset(world, 100_000, "prepromo", seed=2)

    print(f"\ndaily direct-conversion rate:      {daily.y_all.mean():.4f}")
    print(f"pre-promo direct-conversion rate:  "
          f"{(prepromo.y_all - prepromo.y_delay).mean():.4f}")
    print(f"pre-promo delayed-conversion rate: {prepromo.y_delay.mean():.4f}")
    print("(the direct rate collapses before the promotion: users postpone)")

    a = prepromo.A
    y = prepromo.y_delay.astype(float)
    ate = true_ate(prepromo)
    naive = y[a == 1].mean() - y[a == 0].mean()
    print(f"\ntrue effect of the cart action on delayed conversion: {ate:.4f}")
    print(f"naive treated-minus-control contrast:                 {naive:.4f}")
    print(f"confounding inflates the naive estimate by            {naive - ate:+.4f}")

    lengths = prepromo.atc_len
    print(f"\ncart-history length: mean {lengths.mean():.1f}, "
          f"max {lengths.max()}, empty {np.mean(lengths == 0):.1%}")


if __name__ == "__main__":
    main()
