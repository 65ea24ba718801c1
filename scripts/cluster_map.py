"""Project three well-separated 10-D Gaussian clusters to the plane and
score how pure the 2-D neighborhoods come out."""

import numpy as np

from topicvec.neighbors import knn
from topicvec.tsne import TsneConfig, run

POINTS_PER_CLUSTER = 50
DIM = 10
SEED = 6
OUT = "cluster_layout.csv"


def main():
    rng = np.random.default_rng(41)
    centers = rng.normal(0, 20.0, size=(3, DIM))
    X = np.vstack([c + rng.normal(0, 0.5, size=(POINTS_PER_CLUSTER, DIM))
                   for c in centers])
    labels = np.repeat(np.arange(3), POINTS_PER_CLUSTER)

    layout = run(X, TsneConfig(seed=SEED))
    print(f"final KL divergence: {layout.kl:.4f}")

    # entry 0 is the point itself, entry 1 its nearest other point
    nearest = [knn(layout.Y, i, k=1, metric="euclidean").entries[1][0]
               for i in range(len(labels))]
    purity = float(np.mean(labels[nearest] == labels))
    print(f"1-NN cluster purity in 2-D: {purity:.1%}")

    with open(OUT, "w", encoding="utf-8") as f:
        for row in layout.Y:
            f.write(f"{row[0]!r},{row[1]!r}\n")
    print(f"layout written to {OUT}")


if __name__ == "__main__":
    main()
