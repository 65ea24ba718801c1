"""Document representations from topic mixtures and paragraph vectors,
compared by brute-force cosine KNN and mapped to 2-D with exact t-SNE."""

__version__ = "0.1.0"

from .corpus import (BagOfWords, Corpus, PreprocessConfig, TokenizedDocument,
                     Vocabulary, build_corpus, cosine_similarity,
                     filter_vocabulary, preprocess_document)
from .lda import (GeneratorConfig, LdaConfig, LdaModel, LdaState,
                  generate_corpus, infer_theta, top_words)
from .lda import train as train_lda
from .autoencoder import (FeedforwardNet, NetTrainConfig, encode,
                          train_autoencoder, word_feature_matrix)
from .doc2vec import Doc2VecConfig, EmbeddingModel, infer_vector
from .doc2vec import train as train_doc2vec
from .neighbors import NeighborList, knn
from .tsne import TsneConfig, TsneLayout
from .tsne import run as run_tsne
from .pipeline import (PipelineConfig, load_config, load_model, save_model,
                       title_lookup)
