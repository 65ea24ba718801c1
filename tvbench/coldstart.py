"""A recommender's cold set-up, run as its own process.

Usage: python3 coldstart.py SRC OUT_DIR TITLES

A fresh interpreter imports topicvec from SRC, loads both model archives
and both feature files from OUT_DIR and the titles, and prints one JSON line
with the CLOCK_MONOTONIC time at which it was ready for a first query, the
CPU speed that probes measured right after, and the number of titles and
feature rows it loaded.
"""

import json
import os
import sys
import time

PROBES = 5


def main(src: str, out: str, titles_path: str) -> None:
    sys.path.insert(0, src)
    from topicvec import corpus, pipeline

    pipeline.load_model(os.path.join(out, "lda_model.npz"), kind="lda")
    pipeline.load_model(os.path.join(out, "doc2vec_model.npz"), kind="doc2vec")
    theta = pipeline.load_matrix_csv(os.path.join(out, "lda_theta.csv"))
    vectors = pipeline.load_matrix_csv(os.path.join(out, "doc2vec_vectors.csv"))
    titles = corpus.load_lines(titles_path)
    ready = time.monotonic()

    import speed  # after `ready`: not part of the set-up
    probe = speed.SpeedProbe()
    for _ in range(PROBES):
        probe.sample()
    print(json.dumps({"ready": ready, "speed": probe.speed(),
                      "rows": [len(titles), len(theta), len(vectors)]}))


if __name__ == "__main__":
    main(*sys.argv[1:4])
