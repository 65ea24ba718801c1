"""How reliably does the sampler recover planted topics?

Generates corpora from two topics over disjoint 10-word blocks, trains
with the documented defaults (alpha 0.02, beta 0.1), and reports the
best-permutation cosine between learned and true topic rows per seed.
"""

import numpy as np

from topicvec.lda import GeneratorConfig, LdaConfig, generate_corpus, train

RUNS = 10
NUM_DOCS = 100
MEAN_DOC_LEN = 50
SWEEPS = 60


def cosine(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def main():
    beta = np.zeros((2, 20))
    beta[0, :10] = 1.0
    beta[1, 10:] = 1.0
    wins = 0
    for seed in range(RUNS):
        gcfg = GeneratorConfig(num_topics=2, vocab_size=20, num_docs=NUM_DOCS,
                               alpha=0.5, beta=beta, mean_doc_len=MEAN_DOC_LEN,
                               seed=100 + seed)
        corpus, true_phi, _ = generate_corpus(gcfg)
        cols = [int(t[1:]) for t in corpus.vocab.id_to_term]
        truth = true_phi[:, cols]
        model = train(corpus, LdaConfig(num_topics=2, alpha=0.02, beta=0.1,
                                        sweeps=SWEEPS, burn_in=SWEEPS // 2,
                                        seed=seed))
        best = max(
            min(cosine(model.phi[0], truth[p[0]]),
                cosine(model.phi[1], truth[p[1]]))
            for p in ([0, 1], [1, 0]))
        wins += best > 0.9
        print(f"seed {seed}: best-permutation cosine {best:.4f}")
    print(f"\nrecovered in {wins}/{RUNS} runs (threshold 0.9)")


if __name__ == "__main__":
    main()
