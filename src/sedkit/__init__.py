"""sedkit: sentence embedding training and evaluation at desk scale.

Training objectives (ensemble distillation, contrastive tension, siamese
NLI, similarity regression), an invertible calibration flow, an STS
correlation harness and an experiment orchestrator, all on a small
self-contained reverse-mode autodiff core.
"""

from .diffcore import (Adam, LinearDecay, RMSProp, Tensor,
                       WarmupThenConstant, no_grad)
from .encoder import (EncoderArch, EncoderModel, PoolingSpec, Vocabulary,
                      encode_batch, init_encoder, pretrain_base, tokenize)
from .errors import (CheckpointError, CheckpointVersionError, ConfigError,
                     ConstantInputError, DataError, DetachedParameterError,
                     DivergenceError, ShapeMismatchError)
from .evalsts import (CorrelationReport, ScoredPair, StsTask, cosine,
                      evaluate_suite, evaluate_task, load_sts_tsv, pearson,
                      report_files, spearman)
from .flow import CouplingFlow, fit_flow, flow_forward, flow_nll
from .objectives import (CtPair, EnsembleSpec, LabeledNliPair, NliHead,
                         RegressionTargetMap, ct_loss,
                         ensemble_mean_embeddings, nli_siamese_loss,
                         sample_ct_batches, sed_loss, sts_regression_loss)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config, parse_config, render_config
from .experiments import (DataBundle, GridSearchResult, PipelineResult,
                          StabilityReport, derive_seed,
                          full_ensemble_predict, grid_search_lower_bound,
                          pooling_ablation, run_pipeline, select_bound,
                          stability_study, train_ct, train_nli, train_sed,
                          train_supervised_with_early_stopping)
from .synthetic import (SyntheticWorld, SyntheticWorldSpec,
                        build_synthetic_world, gen_synthetic_world)

__version__ = "0.1.0"
