"""Speaker verification with an attentive multi-scale convolutional
recurrent network: LMS front end, from-scratch differentiable network,
toy-scale training, CSM/PLDA scoring, and complexity profiling."""

from .audio import SAMPLE_RATE, read_wav, write_wav
from .dsp import featurize
from .augment import augment
from .model import (AmcrnConfig, AmcrnModel, aam_logits, load_checkpoint,
                    save_checkpoint, tiny_config)
from .profiling import count_macs, count_params, emit_cost_report
from .scoring import (EvalReport, PldaModel, Trial, compute_eer, compute_mindcf,
                      csm, decide, plda_score, plda_train, run_trials,
                      truncate_segment)
from .store import EmbeddingStore
from .toydata import ToySpeakerSpec, make_toy_dataset
from .training import AdamState, TrainConfig, adam_step, lr_schedule, train

__version__ = "0.1.0"
