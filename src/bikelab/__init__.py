"""QC-MDPC key encapsulation with BGF decoding and a weak-key laboratory."""

__version__ = "0.1.0"

from .decoder import DecodeOutcome, DecoderConfig, bgf_decode, compute_upc, threshold
from .dfr import (FixedKey, HonestErrors, NormalKeys, PsiErrors, StopRule, confidence_interval,
                  extrapolate, pw_check, run_dfr)
from .errors import (BudgetExhaustedError, NotInvertibleError, ParameterError,
                     SchemaError)
from .kem import (XofStream, decaps, decaps_with_diagnostics, encaps, hash_H, hash_K,
                  hash_L, keygen, sample_fixed_weight, sample_private_key, syndrome)
from .keycheck import KeyCheckConfig, KeyVerdict, key_check, keygen_checked
from .keys import (Ciphertext, ErrorPair, PrivateKey, PublicKey, SharedKey,
                   SystemParams, custom_params, level_params, params_with_r)
from .ring import DensePoly, RingParams, SparsePoly, invert_counted, mul_sparse
from .weakkeys import (DistanceSpectrum, WeakKeySpec, count_type1, count_type2_upper,
                       count_type3_upper, gen_psi_d_error, gen_type1, gen_type2, gen_type3,
                       log2_count, spectrum)
